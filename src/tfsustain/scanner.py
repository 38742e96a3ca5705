"""Corpus scanning: walk directory trees, detect smells, compute prevalence.

Results are deterministic regardless of filesystem enumeration order and of
the number of processes: files are sorted up front, per-directory work is
order-independent, and findings are sorted once at the end. A scan reads,
detects and drops one directory at a time; with ``jobs`` above 1 the
directories are split into contiguous shares, one per process.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterator

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


def _walk_tf_files(root: Path) -> Iterator[str]:
    """Relative POSIX paths of the .tf files under root, in file-system order.

    Symlinked files and directories are skipped, only regular files are
    listed (a directory or FIFO is never a file whatever its name), and a
    directory that cannot be listed is ignored. The walk keeps its own stack
    of directories, so no tree is too deep, and a directory entry answers
    ``is_symlink``, ``is_dir`` and ``is_file`` without a ``stat`` where the
    file system reports entry types (PEP 471).
    """
    stack = [("", os.fspath(root))]  # (relative prefix, path) of directories to list
    while stack:
        prefix, path = stack.pop()
        dirs, files = [], []
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    if entry.is_symlink():
                        continue
                    if entry.is_dir():
                        dirs.append((prefix + entry.name + "/", entry.path))
                    elif entry.name.endswith(".tf") and entry.is_file():
                        files.append(prefix + entry.name)
        except OSError:
            continue  # a directory that fails part way yields nothing, as in os.walk
        stack += dirs
        yield from files


def discover_tf_files(root: Path) -> list[str]:
    """Sorted relative POSIX paths of all .tf files under root."""
    if root.is_file():
        return [root.name] if root.name.endswith(".tf") else []
    return sorted(_walk_tf_files(root))


def _read_unit(base: Path, rel: str) -> tuple[ScanUnit | None, bool]:
    """Load ``base / rel``; returns (unit or None, is_read_or_decode_failure)."""
    try:
        with open(os.path.join(base, rel), "rb") as f:
            data = f.read()
    except OSError:
        return None, True
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        return unit_for(rel, data.decode("utf-8")), False
    except UnicodeDecodeError:
        return unit_for(rel, data.decode("utf-8", errors="replace")), True


def _shares(
    dirs: list[tuple[str, list[str]]], n: int
) -> list[list[tuple[str, list[str]]]]:
    """Cut ``dirs`` into ``n`` contiguous, non-empty shares of about equal file count.

    Share k ends at the directory boundary nearest to ``k / n`` of the
    files; ``n`` is at most the number of directories.
    """
    done = list(accumulate((len(rels) for _, rels in dirs), initial=0))
    cuts = [0]
    for k in range(1, n):
        target = done[-1] * k / n
        cut = bisect_left(done, target)
        if target - done[cut - 1] < done[cut] - target:
            cut -= 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(dirs) - (n - k)))
    cuts.append(len(dirs))
    return [dirs[a:b] for a, b in zip(cuts, cuts[1:])]


def _scan_share(
    base: Path, share: list[tuple[str, list[str]]], cfg: DetectorConfig, engine: str
) -> tuple[list[SmellFinding], set[str]]:
    """Read and detect one directory at a time; (findings, failed paths).

    A directory's texts are dropped before the next one is read.
    """
    findings: list[SmellFinding] = []
    failed: set[str] = set()
    for directory, rels in share:
        units = []
        for rel in rels:
            unit, bad = _read_unit(base, rel)
            if bad:
                failed.add(rel)
            if unit is not None:
                units.append(unit)
        findings += detect_all({directory: units}, cfg, engine, failed)
    return findings, failed


def scan(
    root: str | Path,
    cfg: DetectorConfig | None = None,
    engine: str = "ast",
    jobs: int = 1,
) -> ScanReport:
    """Read and detect every .tf file under root, on up to ``jobs`` processes.

    A file that cannot be read or decoded, or that the engine cannot parse, is
    one parse failure; it never aborts the scan and counts toward prevalence.

    The directories are cut into ``min(jobs, os.cpu_count(), directories)``
    contiguous shares of about equal file count. The calling process scans
    the first share and a process pool, closed before this returns, the
    others; with one share there is no pool. The shares' findings are sorted
    once, so the report never depends on ``jobs``.
    """
    root = Path(root)
    if not root.exists():
        raise ScanError(f"scan root does not exist: {root}")
    if jobs < 1:
        raise ScanError(f"jobs must be at least 1, got {jobs}")
    if cfg is None:
        cfg = DetectorConfig()
    rels = discover_tf_files(root)
    base = root if root.is_dir() else root.parent
    by_dir: dict[str, list[str]] = {}
    for rel in rels:
        by_dir.setdefault(rel.rpartition("/")[0] or ".", []).append(rel)
    dirs = list(by_dir.items())
    n = min(jobs, os.cpu_count() or 1, len(dirs))
    if n > 1:
        # Imported here: the pool's modules would add to every one-job scan's memory.
        from concurrent.futures import ProcessPoolExecutor

        shares = _shares(dirs, n)
        with ProcessPoolExecutor(n - 1) as pool:
            futures = [
                pool.submit(_scan_share, base, share, cfg, engine) for share in shares[1:]
            ]
            findings, failed = _scan_share(base, shares[0], cfg, engine)
            for future in futures:
                more, bad = future.result()
                findings += more
                failed |= bad
    else:
        findings, failed = _scan_share(base, dirs, cfg, engine)
    findings.sort(key=SmellFinding.sort_key)

    return ScanReport(
        scanned_files=len(rels),
        parse_failures=len(failed),
        findings=findings,
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
