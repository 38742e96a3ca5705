"""Corpus scanning: walk directory trees, detect smells, compute prevalence.

Results are deterministic regardless of filesystem enumeration order and of
how many workers run the parse/detect phase: files are sorted up front,
per-file work is order-independent, and the final merge is single-threaded.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path, PurePosixPath

from .catalog import SmellId
from .detectors import DetectorConfig, ScanUnit, detect_all, unit_for
from .detectors.findings import SmellFinding


class ScanError(Exception):
    """Raised when a scan cannot start at all (e.g. missing root)."""


@dataclass
class ScanReport:
    scanned_files: int
    parse_failures: int
    findings: list[SmellFinding]
    config_digest: str
    engine: str

    @cached_property
    def per_file_index(self) -> dict[str, set[SmellId]]:
        """``smells_by_path(findings)``, derived on first read.

        Kept for callers that read the index off a report, such as the scan
        benchmark's output checks; the package itself calls the helper.
        """
        return smells_by_path(self.findings)


def smells_by_path(findings: list[SmellFinding]) -> dict[str, set[SmellId]]:
    """The smells found in each file that has at least one finding."""
    index: dict[str, set[SmellId]] = {}
    for f in findings:
        index.setdefault(f.path, set()).add(f.smell)
    return index


@dataclass(frozen=True)
class SmellPrevalence:
    files_affected: int
    prevalence: Fraction


@dataclass
class CorpusStats:
    scanned_files: int
    per_smell: dict[SmellId, SmellPrevalence] = field(default_factory=dict)


def _walk_tf_files(root: Path):
    """Raw .tf enumeration in filesystem order; symlinks are not followed."""
    for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
        dirnames[:] = [d for d in dirnames if not (Path(dirpath) / d).is_symlink()]
        for name in filenames:
            full = Path(dirpath) / name
            if name.endswith(".tf") and not full.is_symlink():
                yield full


def discover_tf_files(root: Path) -> list[str]:
    """Sorted relative POSIX paths of all .tf files under root."""
    if root.is_file():
        return [root.name] if root.name.endswith(".tf") else []
    return sorted(
        str(PurePosixPath(p.relative_to(root))) for p in _walk_tf_files(root)
    )


def _read_unit(root: Path, rel: str) -> tuple[ScanUnit, bool]:
    """Load and parse one file; returns (unit, is_parse_failure)."""
    full = root / rel if root.is_dir() else root
    try:
        data = full.read_bytes()
    except OSError:
        return ScanUnit(rel, None, None), True
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    failed = False
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("utf-8", errors="replace")
        failed = True
    unit = unit_for(rel, text)
    if unit.file is not None and any(
        d.severity == "error" for d in unit.file.diagnostics
    ):
        failed = True
    return unit, failed


def scan(
    root: str | Path,
    cfg: DetectorConfig | None = None,
    engine: str = "ast",
    jobs: int = 1,
) -> ScanReport:
    """Parse and detect every .tf file under root.

    Parse failures are counted but never abort the scan; failed files still
    count toward the prevalence denominator.
    """
    root = Path(root)
    if not root.exists():
        raise ScanError(f"scan root does not exist: {root}")
    if jobs < 1:
        raise ScanError(f"jobs must be at least 1, got {jobs}")
    if cfg is None:
        cfg = DetectorConfig()
    rels = discover_tf_files(root)

    if jobs > 1 and len(rels) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            loaded = list(pool.map(lambda rel: _read_unit(root, rel), rels))
    else:
        loaded = [_read_unit(root, rel) for rel in rels]

    parse_failures = sum(1 for _, failed in loaded if failed)
    by_dir: dict[str, list[ScanUnit]] = {}
    for unit, _ in loaded:
        by_dir.setdefault(str(PurePosixPath(unit.path).parent), []).append(unit)

    return ScanReport(
        scanned_files=len(rels),
        parse_failures=parse_failures,
        findings=detect_all(by_dir, cfg, engine),
        config_digest=cfg.digest(),
        engine=engine,
    )


def prevalence(report: ScanReport) -> CorpusStats:
    """Exact per-smell fraction of files carrying at least one finding."""
    if report.scanned_files == 0:
        raise ScanError("prevalence is undefined for an empty corpus")
    stats = CorpusStats(scanned_files=report.scanned_files)
    index = smells_by_path(report.findings)
    for smell in SmellId:
        affected = sum(1 for smells in index.values() if smell in smells)
        stats.per_smell[smell] = SmellPrevalence(
            affected, Fraction(affected, report.scanned_files)
        )
    return stats
