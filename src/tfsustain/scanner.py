"""Corpus scanning: walk directory trees, detect smells, compute prevalence.

Results are deterministic regardless of filesystem enumeration order and of
the number of processes: files are sorted up front, per-directory work is
order-independent, and findings are sorted once at the end. Each process of a
scan runs one loop: claim a batch of whole directories, at least
``BATCH_FILES`` files, read it, then detect and drop it. One process claims
by counting; a scan on several processes claims from one shared counter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .catalog import SmellId
from .detectors import ENGINES, DetectorConfig, detect_all, unit_for
from .detectors.findings import SmellFinding
from .hcl import SourceText

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.sharedctypes import Synchronized


# A scan reads at least this many files, in whole directories, before it
# detects them: reading files back to back costs less than reading each
# directory between two detections, and the texts held stay bounded by one
# batch plus one directory whatever the corpus size.
BATCH_FILES = 64


class ScanError(Exception):
    """Raised when a scan cannot start at all (e.g. missing root), or loses a worker."""


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


def _read_unit(base: str, rel: str) -> tuple[SourceText | None, bool]:
    """Load ``base / rel``; returns (unit or None, is_read_or_decode_failure).

    The file is read whole with no buffer object in between, and the
    ``utf-8-sig`` codec drops a leading BOM.
    """
    try:
        with open(os.path.join(base, rel), "rb", buffering=0) as f:
            data = f.readall()
    except OSError:
        return None, True
    try:
        return unit_for(rel, data.decode("utf-8-sig")), False
    except UnicodeDecodeError:
        return unit_for(rel, data.decode("utf-8-sig", errors="replace")), True


def _claim(counter: Synchronized) -> int:
    """The next batch index: ``counter``'s value, taken and raised under its lock."""
    with counter.get_lock():
        k = counter.value
        counter.value = k + 1
    return k


def _scan_batches(
    base: str,
    batches: list[list[list[str]]],
    cfg: DetectorConfig,
    engine: str,
    claim: Callable[[], int],
) -> tuple[list[SmellFinding], set[str]]:
    """Scan batch ``claim()`` until it runs past the last; return findings and failed.

    A batch's directories are all read, then detected one by one, and its
    texts are dropped before the next batch is read.
    """
    findings: list[SmellFinding] = []
    failed: set[str] = set()
    while (k := claim()) < len(batches):
        read: list[list[SourceText]] = []
        for rels in batches[k]:
            units = []
            for rel in rels:
                unit, bad = _read_unit(base, rel)
                if bad:
                    failed.add(rel)
                if unit is not None:
                    units.append(unit)
            read.append(units)
        for units in read:
            findings += detect_all(units, cfg, engine, failed)
    return findings, failed


def _work(
    base: str,
    batches: list[list[list[str]]],
    cfg: DetectorConfig,
    engine: str,
    counter: Synchronized,
    sender: Connection,
) -> None:
    """A worker process: run the batch loop on ``counter`` and send its result once.

    What is sent is ``(findings, failed)``, or the exception the loop raised,
    or a ``RuntimeError`` with that exception's repr when it cannot make the
    round trip through pickle.
    """
    try:
        sent = _scan_batches(base, batches, cfg, engine, partial(_claim, counter))
    except Exception as exc:
        import pickle

        try:
            sent = pickle.loads(pickle.dumps(exc))
        except Exception:
            sent = RuntimeError(f"a scan worker raised {exc!r}, which cannot be pickled")
    sender.send(sent)


def _receive(receiver: Connection) -> object:
    """What a worker sent, or None when it exited without sending."""
    try:
        return receiver.recv()
    except EOFError:
        return None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan(
    root: str | Path,
    cfg: DetectorConfig | None = None,
    engine: str = "ast",
    jobs: int = 1,
) -> ScanReport:
    """Read and detect every .tf file under root, on up to ``jobs`` processes.

    A file that cannot be read or decoded, or that the engine cannot parse, is
    one parse failure; it never aborts the scan and counts toward prevalence.

    The directories, in path order, are cut into batches of whole directories
    holding at least ``BATCH_FILES`` files each (the last may hold fewer). With
    ``n = min(jobs, cpus, batches)`` above 1, ``cpus`` being the CPUs this
    process may run on, the calling process and n - 1 worker processes run one
    batch loop, each claiming the next batch from one shared counter until none
    is left; otherwise the calling process runs it alone, counting up, and
    starts no process. Each worker sends its findings and failures once through
    a one-way pipe, and every worker is joined before this returns. The first
    exception a worker raised is raised here, and a worker that exits without
    sending raises ``ScanError``. Workers start by multiprocessing's default
    method; under spawn or forkserver, a script that calls this with ``jobs``
    above 1 needs the ``if __name__ == "__main__":`` guard.
    The findings are sorted once, so the report never depends on ``jobs``.
    """
    root = Path(root)
    if not root.exists():
        raise ScanError(f"scan root does not exist: {root}")
    if jobs < 1:
        raise ScanError(f"jobs must be at least 1, got {jobs}")
    if engine not in ENGINES:
        raise ScanError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    if cfg is None:
        cfg = DetectorConfig()
    rels = discover_tf_files(root)
    base = os.fspath(root if root.is_dir() else root.parent)
    by_dir: dict[str, list[str]] = {}
    for rel in rels:
        by_dir.setdefault(rel.rpartition("/")[0] or ".", []).append(rel)
    batches: list[list[list[str]]] = []
    batch: list[list[str]] = []
    held = 0
    for dir_rels in by_dir.values():
        batch.append(dir_rels)
        held += len(dir_rels)
        if held >= BATCH_FILES:
            batches.append(batch)
            batch, held = [], 0
    if batch:
        batches.append(batch)
    n = min(jobs, _usable_cpus(), len(batches))
    if n > 1:
        # Imported here: it would add to every one-job scan's memory.
        import multiprocessing

        counter = multiprocessing.Value("q", 0)
        workers = []
        try:
            for _ in range(n - 1):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                with sender:  # the worker holds the only write end, so its exit is an EOF
                    worker = multiprocessing.Process(
                        target=_work, args=(base, batches, cfg, engine, counter, sender)
                    )
                    worker.start()
                workers.append((worker, receiver))
            findings, failed = _scan_batches(base, batches, cfg, engine, partial(_claim, counter))
            # A result larger than the pipe's buffer holds its worker until it
            # is read, so every result is read before any worker is joined.
            results = [_receive(receiver) for _, receiver in workers]
        except BaseException:
            for worker, _ in workers:
                worker.terminate()
            raise
        finally:
            for worker, receiver in workers:
                worker.join()
                receiver.close()
        for (worker, _), result in zip(workers, results):
            if result is None:
                raise ScanError(f"a scan worker exited with code {worker.exitcode} before sending")
            if isinstance(result, BaseException):
                raise result
            findings += result[0]
            failed |= result[1]
    else:
        findings, failed = _scan_batches(base, batches, cfg, engine, count().__next__)
    findings.sort(key=SmellFinding.sort_key)

    return ScanReport(
        scanned_files=len(rels),
        parse_failures=len(failed),
        findings=findings,
        config_digest=cfg.digest(),
        engine=engine,
    )


def prevalence(report: ScanReport) -> dict[SmellId, Fraction]:
    """Exact share of files carrying at least one finding, for each of the seven smells."""
    if report.scanned_files == 0:
        raise ScanError("prevalence is undefined for an empty corpus")
    index = smells_by_path(report.findings)
    return {
        smell: Fraction(sum(smell in smells for smells in index.values()), report.scanned_files)
        for smell in SmellId
    }
