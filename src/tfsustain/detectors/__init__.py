"""Smell detection engines and a runner that takes one directory per call."""

from __future__ import annotations

from typing import Sequence

from ..hcl import SourceText
from . import ast_engine, pattern_engine
from .config import ConfigError, DetectorConfig, config_from_dict
from .findings import SmellFinding

_ENGINE_MODULES = {"ast": ast_engine, "pattern": pattern_engine}
ENGINES = tuple(_ENGINE_MODULES)


# One Terraform file's path and decoded text; each engine prepares its own view.
unit_for = SourceText


def detect_all(
    units: Sequence[SourceText], cfg: DetectorConfig, engine: str, failed: set[str]
) -> list[SmellFinding]:
    """Run all seven detectors over one directory's files, one root module.

    The remote-state detector runs once over the directory; everything else
    is per-file. The AST engine adds each file whose parse reports an error
    to ``failed``. Findings come back in no set order; ``scan`` sorts them.
    """
    return _ENGINE_MODULES[engine].detect_directory(units, cfg, failed)


__all__ = [
    "ConfigError",
    "DetectorConfig",
    "ENGINES",
    "SmellFinding",
    "ast_engine",
    "config_from_dict",
    "detect_all",
    "pattern_engine",
    "unit_for",
]
