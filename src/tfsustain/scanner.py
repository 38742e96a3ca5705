"""Corpus scanning: walk directory trees, detect smells, compute prevalence.

Results are deterministic regardless of filesystem enumeration order and of
the number of processes: files are sorted up front, per-directory work is
order-independent, and findings are sorted once at the end. Each process of a
scan runs one loop: claim a batch of whole directories, at least
``BATCH_FILES`` files, read it, then detect and drop it. One process claims
by counting; a scan on several processes claims from one shared counter. A
directory whose file names and bytes a process has already detected in the
same scan is not detected again: the process keeps the results of its last
``CACHED_DIRECTORIES`` directories, keyed by a digest of those names and
bytes made as the files are read, and moves a match's findings to the new
directory's path.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from hashlib import blake2b
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .catalog import SmellId
from .detectors import ENGINES, DetectorConfig, detect_all, unit_for
from .detectors.findings import SmellFinding
from .hcl import SourceSpan, SourceText

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.sharedctypes import Synchronized


# A scan reads at least this many files, in whole directories, before it
# detects them: reading files back to back costs less than reading each
# directory between two detections, and the texts held stay bounded by one
# batch plus one directory whatever the corpus size.
BATCH_FILES = 64

# A scan process keeps the results of at most this many directories, the
# least recently used dropped first. An entry holds a 16-byte digest and
# references to findings the scan keeps anyway: 208 bytes with its share of
# the OrderedDict, measured by tracemalloc over 4,000 of tests/synth.py's
# one-file directories, so a full cache holds about 0.8 MiB.
CACHED_DIRECTORIES = 4096


class ScanError(Exception):
    """Raised when a scan cannot start (e.g. missing root), or when a worker fails."""


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


def _read_unit(base: str, rel: str, digest: blake2b) -> tuple[SourceText | None, bool]:
    """Load ``base / rel``; returns (unit or None, is_read_or_decode_failure).

    The file is read whole with no buffer object in between, and the
    ``utf-8-sig`` codec drops a leading BOM. A file read adds its base name,
    its length and its bytes to ``digest``, the name and the length each
    ended by a NUL, which no file name holds; ``surrogatepass`` gives a lone
    surrogate, such as an undecodable file name holds, its own bytes.
    """
    try:
        with open(os.path.join(base, rel), "rb", buffering=0) as f:
            data = f.readall()
    except OSError:
        return None, True
    digest.update(f"{rel[rel.rfind('/') + 1 :]}\0{len(data)}\0".encode("utf-8", "surrogatepass"))
    digest.update(data)
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


# A directory's key -> (its prefix's length, the findings and the paths that
# detect_all gave and failed for it), least recently used first. An
# OrderedDict drops its oldest entry in constant time; a dict finds its first
# key by skipping the slots of every key deleted before it.
_Seen = OrderedDict[bytes, tuple[int, tuple[SmellFinding, ...], Sequence[str]]]


def _detect_once(
    prefix: str,
    units: list[SourceText],
    key: bytes,
    cfg: DetectorConfig,
    engine: str,
    failed: set[str],
    seen: _Seen,
) -> list[SmellFinding]:
    """``detect_all`` of one directory, its files' paths all starting with ``prefix``.

    ``key`` is the digest that :func:`_read_unit` made of the directory's
    base names and bytes. For a fixed ``cfg`` and engine, a directory's
    findings and failures depend only on those, so a directory whose key is
    in ``seen`` gets the stored ones moved to its own prefix, and
    ``detect_all`` is not called.
    """
    if key not in seen:
        held = len(failed)
        found = detect_all(units, cfg, engine, failed)
        # Paths that _read_unit put in failed are put there again on a hit.
        diagnosed = [u.path for u in units if u.path in failed] if len(failed) > held else ()
        seen[key] = (len(prefix), tuple(found), diagnosed)
        if len(seen) > CACHED_DIRECTORIES:
            seen.popitem(last=False)
        return found
    seen.move_to_end(key)
    start, known, diagnosed = seen[key]
    for path in diagnosed:
        failed.add(prefix + path[start:])
    # Built field by field: dataclasses.replace costs two more calls a finding.
    found = []
    for f in known:
        path, span = prefix + f.path[start:], f.span
        at = SourceSpan(path, span.start_line, span.start_col, span.end_line, span.end_col)
        found.append(SmellFinding(f.smell, path, at, f.evidence, f.engine, f.message))
    return found


def _scan_batches(
    base: str,
    batches: list[list[list[str]]],
    cfg: DetectorConfig,
    engine: str,
    claim: Callable[[], int],
) -> tuple[list[SmellFinding], set[str]]:
    """Scan batch ``claim()`` until it runs past the last; return findings and failed.

    A batch's directories are all read, then detected one by one, and its
    texts are dropped before the next batch is read. A directory seen before
    in this call is not detected again (see :func:`_detect_once`).
    """
    findings: list[SmellFinding] = []
    failed: set[str] = set()
    seen: _Seen = OrderedDict()
    while (k := claim()) < len(batches):
        read: list[tuple[str, list[SourceText], bytes]] = []
        for rels in batches[k]:
            units = []
            digest = blake2b(digest_size=16)
            for rel in rels:
                unit, bad = _read_unit(base, rel, digest)
                if bad:
                    failed.add(rel)
                if unit is not None:
                    units.append(unit)
            read.append((rels[0][: rels[0].rfind("/") + 1], units, digest.digest()))
        for prefix, units, key in read:
            findings += _detect_once(prefix, units, key, cfg, engine, failed, seen)
    return findings, failed


def _work(sender: Connection, *job) -> None:
    """A worker process: run ``_scan_batches(*job)`` and send its result once.

    What is sent is ``(findings, failed)``, or the formatted traceback of the
    exception the loop raised: text always pickles and keeps the worker's frames.
    """
    try:
        sent = _scan_batches(*job)
    except Exception:
        import traceback

        sent = traceback.format_exc()
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
    a one-way pipe, and every worker is joined before this returns. A worker
    whose loop raises sends the formatted traceback instead, so its frames
    survive the pipe; ``ScanError`` is raised here with that text, and with the
    exit code of a worker that exits without sending. Workers start by
    multiprocessing's default method; under spawn or forkserver, a script that
    calls this with ``jobs`` above 1 needs the ``if __name__ == "__main__":``
    guard.
    A directory with the same file names and bytes as one that the same
    process detected earlier in this scan, among its last
    ``CACHED_DIRECTORIES``, is read but not detected again; its findings and
    parse failures are the earlier ones on its own paths, so the bytes of the
    report do not change.
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

        claim = partial(_claim, multiprocessing.Value("q", 0))
    else:
        claim = count().__next__
    job = (base, batches, cfg, engine, claim)
    workers = []
    try:
        for _ in range(n - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            with sender:  # the worker holds the only write end, so its exit is an EOF
                worker = multiprocessing.Process(target=_work, args=(sender, *job))
                worker.start()
            workers.append((worker, receiver))
        findings, failed = _scan_batches(*job)
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
        if isinstance(result, str):
            raise ScanError(f"a scan worker failed:\n{result.rstrip()}")
        findings += result[0]
        failed |= result[1]
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
