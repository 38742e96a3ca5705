"""Detector thresholds and resource-type catalogs.

Every value here is a project default, tunable through a JSON config file.
The oversized-instance catalog lists sizes with 16 or more vCPUs according
to the providers' published size charts; it is data, not detection logic.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import MISSING, dataclass, field, fields

from ..hcl import SourceText

# Attribute names that carry an instance size, per provider resource prefix.
SIZE_ATTRS = ("vm_size", "instance_type", "machine_type")

# Log-group style resources and the attribute holding their retention days.
LOG_GROUP_TYPES: dict[str, str] = {
    "aws_cloudwatch_log_group": "retention_in_days",
    "azurerm_log_analytics_workspace": "retention_in_days",
    "google_logging_project_bucket_config": "retention_days",
}

# Region-class attribute precedence when a resource declares several.
REGION_ATTR_ORDER = ("region", "location", "zone", "availability_zone")

_AWS_LARGE = [
    f"{family}.{size}"
    for family in ("m5", "m5a", "m6i", "c5", "c5a", "c6i", "r5", "r5a", "r6i")
    for size in ("4xlarge", "8xlarge", "9xlarge", "12xlarge", "16xlarge", "24xlarge")
] + ["m4.4xlarge", "m4.10xlarge", "m4.16xlarge", "c4.4xlarge", "c4.8xlarge", "r4.4xlarge", "r4.8xlarge", "r4.16xlarge"]

_AZURE_LARGE = [
    f"Standard_{family}{cores}{suffix}"
    for family in ("D", "DS", "E", "ES", "F", "FS")
    for cores in (16, 32, 48, 64)
    for suffix in ("", "s_v3", "s_v4", "s_v5", "_v3", "_v4", "_v5")
]

_GCP_LARGE = [
    f"{family}-{kind}-{cores}"
    for family in ("n1", "n2", "n2d", "e2", "c2", "c2d")
    for kind in ("standard", "highmem", "highcpu")
    for cores in (16, 30, 32, 48, 60, 64, 80, 96, 128)
]

DEFAULT_LARGE_SIZES: dict[str, frozenset[str]] = {
    "aws_": frozenset(_AWS_LARGE),
    "azurerm_": frozenset(_AZURE_LARGE),
    "google_": frozenset(_GCP_LARGE),
}

DEFAULT_COMPUTE_TYPES = frozenset(
    {
        "aws_instance",
        "azurerm_virtual_machine",
        "azurerm_linux_virtual_machine",
        "azurerm_windows_virtual_machine",
        "google_compute_instance",
    }
)

DEFAULT_AUTOSCALER_TYPES = frozenset(
    {
        "aws_autoscaling_group",
        "aws_appautoscaling_target",
        "azurerm_virtual_machine_scale_set",
        "azurerm_linux_virtual_machine_scale_set",
        "azurerm_windows_virtual_machine_scale_set",
        "azurerm_monitor_autoscale_setting",
        "google_compute_autoscaler",
        "google_compute_region_autoscaler",
    }
)

DEFAULT_LIFECYCLE_TYPES = frozenset(
    {
        "aws_ebs_volume",
        "aws_db_instance",
        "aws_rds_cluster",
        "azurerm_managed_disk",
        "azurerm_mssql_database",
        "google_compute_disk",
        "google_sql_database_instance",
    }
)

DEFAULT_REGION_ATTRS = frozenset(REGION_ATTR_ORDER)


class ConfigError(ValueError):
    """Raised for malformed or invalid detector configuration."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class DetectorConfig:
    ss1_large_sizes: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_LARGE_SIZES)
    )
    ss2_fixed_count_min: int = 2
    ss2_compute_types: frozenset[str] = DEFAULT_COMPUTE_TYPES
    ss2_autoscaler_types: frozenset[str] = DEFAULT_AUTOSCALER_TYPES
    ss3_lifecycle_required_types: frozenset[str] = DEFAULT_LIFECYCLE_TYPES
    ss4_retention_max_days: int = 90
    ss4_flag_missing_retention: bool = True
    ss5_region_attrs: frozenset[str] = DEFAULT_REGION_ATTRS
    ss5_pattern_scan_comments: bool = False
    ss7_max_resources_per_file: int = 10

    def __post_init__(self) -> None:
        for name, kind in _FIELD_KINDS.items():
            if kind is int and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
            if kind is frozenset and not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        if not self.ss1_large_sizes or not any(self.ss1_large_sizes.values()):
            raise ConfigError("ss1_large_sizes must list at least one size")
        if unknown := sorted(self.ss5_region_attrs - DEFAULT_REGION_ATTRS):
            raise ConfigError(f"ss5_region_attrs names unknown attribute(s): {', '.join(unknown)}")

    def digest(self) -> str:
        """Stable hash of the effective configuration."""
        return hashlib.sha256(
            json.dumps(self.to_json_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()

    def to_json_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    """A config value with its sets sorted, so its JSON form is stable."""
    if isinstance(value, dict):
        return {k: sorted(v) for k, v in sorted(value.items())}
    if isinstance(value, frozenset):
        return sorted(value)
    return value


# Each field's type, read from its default: int, bool, frozenset or dict.
_FIELD_KINDS = {
    f.name: type(f.default_factory() if f.default is MISSING else f.default)
    for f in fields(DetectorConfig)
}


def config_from_dict(data: dict, source_text: str | None = None) -> DetectorConfig:
    """Build a DetectorConfig from parsed JSON; unknown keys are an error."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    kwargs: dict = {}
    for key, value in data.items():
        kind = _FIELD_KINDS.get(key)
        if kind is None:
            line, col = _locate_key(source_text, key)
            raise ConfigError(f"unknown config key {key!r}", line, col)
        if kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer")
            kwargs[key] = value
        elif kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{key} must be a boolean")
            kwargs[key] = value
        elif kind is frozenset:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{key} must be a list of strings")
            kwargs[key] = frozenset(value)
        else:  # dict
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must map provider prefixes to size lists")
            sizes: dict[str, frozenset[str]] = {}
            for prefix, names in value.items():
                if not isinstance(names, list) or not all(
                    isinstance(v, str) for v in names
                ):
                    raise ConfigError(f"{key}[{prefix!r}] must be a list of strings")
                sizes[prefix] = frozenset(names)
            kwargs[key] = sizes
    return DetectorConfig(**kwargs)


# A JSON string, with the ":" after it when it is an object key; an opening
# bracket; a closing bracket.
_JSON_PART_RE = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|([{\[])|[}\]]')


def _locate_key(source_text: str | None, key: str) -> tuple[int | None, int | None]:
    """Line/column of ``"key":`` among the top-level keys of the raw config text.

    A key of the same name in a nested object, or the same text inside a
    string, is not it.
    """
    text = source_text or ""
    depth = 0
    for m in _JSON_PART_RE.finditer(text):
        string, colon, opener = m.groups()
        if opener:
            depth += 1
        elif string is None:
            depth -= 1
        elif colon and depth == 1 and json.loads(string) == key:
            return SourceText("", text).position(m.start())
    return None, None
