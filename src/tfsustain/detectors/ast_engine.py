"""Structural smell detectors working on parsed configuration files.

All seven detectors are pure functions of (file view, config). A view holds
the AST plus what every detector needs from it, its resource blocks and
whether one of them is an autoscaler, derived once per file. Findings for a
file depend only on that file's content except for the remote-state check,
which is scoped to a directory of files (one root module).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..catalog import SmellId
from ..hcl import (
    Attribute,
    Block,
    ConfigFile,
    ExpressionValue,
    ListValue,
    MapValue,
    NumberLit,
    Reference,
    SourceSpan,
    StringLit,
    TemplateString,
    find_blocks,
    get_attribute,
    get_attribute_node,
)
from .config import LOG_GROUP_TYPES, REGION_ATTR_ORDER, SIZE_ATTRS, DetectorConfig
from .findings import SmellFinding

if TYPE_CHECKING:
    from . import ScanUnit

_GCP_ZONE_RE = re.compile(r"\A(?P<region>[a-z]+-[a-z]+\d+)-[a-z]\Z")
_AWS_AZ_RE = re.compile(r"\A(?P<region>[a-z]{2}(?:-[a-z]+)+-\d+)[a-z]\Z")


def resource_blocks(file: ConfigFile) -> list[Block]:
    """Top-level resource blocks with at least a type label."""
    return [b for b in find_blocks(file, "resource") if b.labels]


def resource_type(block: Block) -> str:
    return block.labels[0]


def resource_name(block: Block) -> str:
    return block.labels[1] if len(block.labels) > 1 else ""


@dataclass(frozen=True)
class FileView:
    """One parsed file as every AST detector reads it, built once per file."""

    file: ConfigFile
    resources: list[Block]
    autoscaled: bool


def prepare(file: ConfigFile, cfg: DetectorConfig) -> FileView:
    resources = resource_blocks(file)
    autoscaled = any(resource_type(b) in cfg.ss2_autoscaler_types for b in resources)
    return FileView(file, resources, autoscaled)


def whole_file_span(file: ConfigFile) -> SourceSpan:
    if file.span is not None:
        return file.span
    return SourceSpan(file.path, 1, 1, 1, 1)


def normalize_region(attr_name: str, raw: str) -> str:
    """Collapse a region-class literal to its region.

    Zones lose their zone suffix ("us-west1-a" -> "us-west1",
    "us-west-2a" -> "us-west-2"); locations are case/space-folded so
    "East US" and "eastus" compare equal.
    """
    value = raw.strip().lower().replace(" ", "")
    if attr_name in ("zone", "availability_zone"):
        m = _GCP_ZONE_RE.match(value)
        if m:
            return m.group("region")
        m = _AWS_AZ_RE.match(value)
        if m:
            return m.group("region")
    return value


def _string_literal(value: ExpressionValue | None) -> str | None:
    return value.value if isinstance(value, StringLit) else None


def detect_ss1_overprovisioning(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Oversized instance literals in files without any autoscaler."""
    if view.autoscaled:
        return []
    findings = []
    for block in view.resources:
        rtype = resource_type(block)
        sizes = None
        for prefix, names in cfg.ss1_large_sizes.items():
            if rtype.startswith(prefix):
                sizes = names
                break
        if sizes is None:
            continue
        for attr_name in SIZE_ATTRS:
            node = get_attribute_node(block, attr_name)
            if node is None:
                continue
            literal = _string_literal(node.value)
            if literal is None:
                continue
            # GCP machine types may be full self-link URLs; compare the tail.
            short = literal.rsplit("/", 1)[-1]
            if literal in sizes or short in sizes:
                findings.append(
                    SmellFinding(
                        SmellId.SS1,
                        view.file.path,
                        node.span,
                        literal,
                        "ast",
                        f'instance size "{literal}" is in the oversized catalog '
                        "and the file configures no autoscaler",
                    )
                )
    return findings


def detect_ss2_no_autoscaling(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Fixed instance counts on compute resources without an autoscaler."""
    if view.autoscaled:
        return []
    findings = []
    for block in view.resources:
        if resource_type(block) not in cfg.ss2_compute_types:
            continue
        node = get_attribute_node(block, "count")
        if node is None or not isinstance(node.value, NumberLit):
            continue
        count = node.value.value
        if isinstance(count, int) and count >= cfg.ss2_fixed_count_min:
            findings.append(
                SmellFinding(
                    SmellId.SS2,
                    view.file.path,
                    node.span,
                    f"count={count}",
                    "ast",
                    f"{resource_type(block)} keeps a fixed count of {count} "
                    "instances and the file configures no autoscaler",
                )
            )
    return findings


def detect_ss3_no_lifecycle(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Lifecycle-sensitive resources missing a lifecycle block."""
    findings = []
    for block in view.resources:
        rtype = resource_type(block)
        if rtype not in cfg.ss3_lifecycle_required_types:
            continue
        if find_blocks(block, "lifecycle", recursive=True):
            continue
        findings.append(
            SmellFinding(
                SmellId.SS3,
                view.file.path,
                block.span,
                rtype,
                "ast",
                f'{rtype} "{resource_name(block)}" declares no lifecycle block',
            )
        )
    return findings


def detect_ss4_excessive_logging(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Log groups retained too long, or with no retention policy at all."""
    findings = []
    for block in view.resources:
        rtype = resource_type(block)
        attr_name = LOG_GROUP_TYPES.get(rtype)
        if attr_name is None:
            continue
        node = get_attribute_node(block, attr_name)
        if node is None:
            if cfg.ss4_flag_missing_retention:
                findings.append(
                    SmellFinding(
                        SmellId.SS4,
                        view.file.path,
                        block.span,
                        "unset",
                        "ast",
                        f'{rtype} "{resource_name(block)}" sets no {attr_name}; '
                        "logs are retained forever",
                    )
                )
            continue
        if not isinstance(node.value, NumberLit):
            continue
        days = node.value.value
        if days > cfg.ss4_retention_max_days:
            findings.append(
                SmellFinding(
                    SmellId.SS4,
                    view.file.path,
                    node.span,
                    str(days),
                    "ast",
                    f"log retention of {days} days exceeds the configured "
                    f"maximum of {cfg.ss4_retention_max_days}",
                )
            )
    return findings


def _references_in(value: ExpressionValue) -> list[Reference]:
    refs: list[Reference] = []
    if isinstance(value, Reference):
        refs.append(value)
    elif isinstance(value, TemplateString):
        for part in value.parts:
            if isinstance(part, Reference):
                refs.append(part)
    elif isinstance(value, ListValue):
        for item in value.items:
            refs.extend(_references_in(item))
    elif isinstance(value, MapValue):
        for _, item in value.entries:
            refs.extend(_references_in(item))
    return refs


def _block_references(block: Block) -> list[tuple[Attribute, Reference]]:
    out: list[tuple[Attribute, Reference]] = []
    for item in block.body:
        if isinstance(item, Attribute):
            for ref in _references_in(item.value):
                out.append((item, ref))
        elif isinstance(item, Block):
            out.extend(_block_references(item))
    return out


def region_class(block: Block, cfg: DetectorConfig) -> str | None:
    """Normalized region of a resource, or None when not a string literal."""
    for attr_name in REGION_ATTR_ORDER:
        if attr_name not in cfg.ss5_region_attrs:
            continue
        literal = _string_literal(get_attribute(block, attr_name))
        if literal is not None:
            return normalize_region(attr_name, literal)
    return None


def detect_ss5_cross_region_transfer(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Pairs of resources in different regions where one references the other.

    Resources with a region are indexed by (type, name) address, so each
    reference is looked up once: the work is linear in resources plus
    references. A pair is reported once, in resource order, at the earlier
    resource's first attribute referring to the later one, else at the
    later resource's first attribute referring to the earlier one.
    """
    resources = view.resources
    regions = [region_class(b, cfg) for b in resources]
    addresses = [(resource_type(b), resource_name(b)) for b in resources]
    # A list per address: duplicate addresses are legal input.
    index: dict[tuple[str, str], list[int]] = {}
    for i, region in enumerate(regions):
        if region is not None:
            index.setdefault(addresses[i], []).append(i)

    # The first attribute of resource i referring to resource j, per (i, j),
    # for regions that differ (so never i == j).
    links: dict[tuple[int, int], Attribute] = {}
    for i, block in enumerate(resources):
        if regions[i] is None:
            continue
        for attr, ref in _block_references(block):
            segments = ref.segments
            if segments[:1] == ("data",):
                segments = segments[1:]
            for j in index.get(segments[:2], ()):
                if regions[j] != regions[i]:
                    links.setdefault((i, j), attr)

    findings = []
    for i, j in sorted({(min(pair), max(pair)) for pair in links}):
        link = links[i, j] if (i, j) in links else links[j, i]
        ra, rb = regions[i], regions[j]
        addr_a, addr_b = ".".join(addresses[i]), ".".join(addresses[j])
        findings.append(
            SmellFinding(
                SmellId.SS5,
                view.file.path,
                link.span,
                f"{ra} != {rb}",
                "ast",
                f"{addr_a} ({ra}) and {addr_b} ({rb}) reference each other "
                "across regions",
            )
        )
    return findings


def _remote_backends(file: ConfigFile) -> list[Block]:
    backends = []
    for tf_block in find_blocks(file, "terraform"):
        backends.extend(find_blocks(tf_block, "backend"))
    return backends


def detect_ss6_local_state(
    views: list[FileView], cfg: DetectorConfig
) -> list[SmellFinding]:
    """Missing remote state backend, evaluated over one directory.

    Attribution: every file that declares a ``terraform`` block gets a
    finding; if no file declares one, the lexicographically first file
    carries a single whole-file finding.
    """
    ordered = sorted((v.file for v in views), key=lambda f: f.path)
    backends_by_file = {f.path: _remote_backends(f) for f in ordered}
    for backs in backends_by_file.values():
        for back in backs:
            if back.labels and back.labels[0] != "local":
                return []

    findings = []
    with_terraform = [f for f in ordered if find_blocks(f, "terraform")]
    if not with_terraform:
        first = ordered[0]
        return [
            SmellFinding(
                SmellId.SS6,
                first.path,
                whole_file_span(first),
                "unset",
                "ast",
                "no remote state backend is configured in this directory",
            )
        ]
    for f in with_terraform:
        local = next(
            (b for b in backends_by_file[f.path] if b.labels and b.labels[0] == "local"),
            None,
        )
        if local is not None:
            findings.append(
                SmellFinding(
                    SmellId.SS6,
                    f.path,
                    local.span,
                    "local",
                    "ast",
                    'state is kept in an explicit "local" backend',
                )
            )
        else:
            tf_block = find_blocks(f, "terraform")[0]
            findings.append(
                SmellFinding(
                    SmellId.SS6,
                    f.path,
                    tf_block.span,
                    "unset",
                    "ast",
                    "terraform block configures no remote state backend",
                )
            )
    return findings


def detect_ss7_monolithic(view: FileView, cfg: DetectorConfig) -> list[SmellFinding]:
    """Files managing at least the configured number of resources."""
    count = len(view.resources)
    if count < cfg.ss7_max_resources_per_file:
        return []
    return [
        SmellFinding(
            SmellId.SS7,
            view.file.path,
            whole_file_span(view.file),
            str(count),
            "ast",
            f"{count} resources in a single file (threshold "
            f"{cfg.ss7_max_resources_per_file})",
        )
    ]


PER_FILE_DETECTORS = (
    detect_ss1_overprovisioning,
    detect_ss2_no_autoscaling,
    detect_ss3_no_lifecycle,
    detect_ss4_excessive_logging,
    detect_ss5_cross_region_transfer,
    detect_ss7_monolithic,
)


def detect_directory(units: Sequence[ScanUnit], cfg: DetectorConfig) -> list[SmellFinding]:
    """All seven smells over one directory's parsed files, each prepared once."""
    views = [prepare(u.file, cfg) for u in units if u.file is not None]
    findings: list[SmellFinding] = []
    for view in views:
        for detector in PER_FILE_DETECTORS:
            findings.extend(detector(view, cfg))
    if views:
        findings.extend(detect_ss6_local_state(views, cfg))
    return findings
