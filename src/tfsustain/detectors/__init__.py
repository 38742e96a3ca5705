"""Smell detection engines and the combined per-corpus runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import ast_engine, pattern_engine
from .config import ConfigError, DetectorConfig, config_from_dict
from .findings import SmellFinding

_ENGINE_MODULES = {"ast": ast_engine, "pattern": pattern_engine}
ENGINES = tuple(_ENGINE_MODULES)


@dataclass(frozen=True)
class ScanUnit:
    """One Terraform file's path and decoded text, ready for an engine.

    Each engine prepares its own view of the text.
    """

    path: str
    text: str


def unit_for(path: str, text: str) -> ScanUnit:
    return ScanUnit(path, text)


def detect_all(
    units_by_dir: Mapping[str, Sequence[ScanUnit]],
    cfg: DetectorConfig | None = None,
    engine: str = "ast",
    failed: set[str] | None = None,
) -> list[SmellFinding]:
    """Run all seven detectors over directory-grouped files.

    Findings come back sorted by (path, position, smell), whatever the order
    of directories and units. The remote-state detector runs once per
    directory; everything else is per-file. The AST engine adds each file
    whose parse reports an error to ``failed``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    module = _ENGINE_MODULES[engine]
    if cfg is None:
        cfg = DetectorConfig()
    if failed is None:
        failed = set()
    findings: list[SmellFinding] = []
    for units in units_by_dir.values():
        findings.extend(module.detect_directory(units, cfg, failed))
    findings.sort(key=lambda f: f.sort_key())
    return findings


__all__ = [
    "ConfigError",
    "DetectorConfig",
    "ENGINES",
    "ScanUnit",
    "SmellFinding",
    "ast_engine",
    "config_from_dict",
    "detect_all",
    "pattern_engine",
    "unit_for",
]
