from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import string
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain import scanner
from tfsustain.catalog import SmellId, catalog
from tfsustain.detectors import ENGINES
from tfsustain.detectors.findings import SmellFinding
from tfsustain.hcl import SourceSpan
from tfsustain.report import findings_lines, format_percent, render
from tfsustain.scanner import (
    ScanError,
    ScanReport,
    discover_tf_files,
    prevalence,
    scan,
    smells_by_path,
)

from conftest import FIXTURES, count_python_calls, walk_tf_files
from synth import build_corpus


def test_scan_empty_directory(tmp_path):
    report = scan(tmp_path)
    assert report.scanned_files == 0
    assert report.findings == [] and smells_by_path(report.findings) == {}


def test_scan_missing_root_raises():
    with pytest.raises(ScanError):
        scan("/nonexistent/path/for/sure")


@pytest.mark.parametrize("tree", ["empty", "fixtures"])
def test_scan_rejects_an_unknown_engine_before_discovery(tmp_path, monkeypatch, tree):
    def no_discovery(root):
        raise AssertionError("discovery ran")

    monkeypatch.setattr(scanner, "discover_tf_files", no_discovery)
    with pytest.raises(ScanError, match="unknown engine 'regexes'"):
        scan(tmp_path if tree == "empty" else FIXTURES, engine="regexes")


def test_scan_counts_ss7_files_exactly(tmp_path):
    # 10 files, 2 of which exceed the monolith threshold
    plan = {SmellId.SS7: 2}
    planted = build_corpus(tmp_path, plan, total=10)
    report = scan(tmp_path)
    ss7_files = {
        p for p, smells in smells_by_path(report.findings).items() if SmellId.SS7 in smells
    }
    assert ss7_files == planted[SmellId.SS7]
    stats = prevalence(report)
    assert stats[SmellId.SS7] == Fraction(2, 10)


def test_scan_twice_is_byte_identical(tmp_path):
    build_corpus(tmp_path, {SmellId.SS2: 1, SmellId.SS7: 1}, total=6)
    r1 = scan(tmp_path)
    r2 = scan(tmp_path)
    assert render(r1, prevalence(r1), "json") == render(r2, prevalence(r2), "json")


def _cpus() -> int:
    """The CPUs this process may run on, as ``scan`` counts them for its pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_cpus(monkeypatch, cpus: int | None) -> None:
    """Let ``scan`` see ``cpus`` CPUs to run on; None is a platform that cannot tell."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _tree(root, files_per_dir):
    """One directory per count, named a, b, c, ..., holding that many smelly files."""
    for name, count in zip(string.ascii_lowercase, files_per_dir):
        (root / name).mkdir()
        for i in range(count):
            (root / name / f"f{i}.tf").write_text(
                f'resource "aws_instance" "{name}{i}" {{\n  instance_type = "m5.24xlarge"\n}}\n'
            )


# A small script: one resource with two attributes.
_ONE_RESOURCE = 'resource "aws_instance" "i" {\n  instance_type = "t3.micro"\n  count         = 1\n}\n'


def test_scan_work_per_file_is_bounded(tmp_path):
    # Python-level calls, not time: no clock in Tier-1. Each directory holds one
    # one-resource file, so the count per file is what each file of a corpus of
    # small scripts pays, from discovery through its SS6 finding. The first scan
    # warms up the caches, which would otherwise count.
    calls = {}
    for n in (200, 400):
        root = tmp_path / str(n)
        for k in range(n):
            (root / f"d{k:03d}").mkdir(parents=True)
            (root / f"d{k:03d}" / "main.tf").write_text(_ONE_RESOURCE)
        assert scan(root).scanned_files == n
        calls[n] = count_python_calls(scan, root)
    assert calls[200] / 200 <= 75, calls
    assert calls[400] / calls[200] <= 2.2, calls


@pytest.mark.parametrize("pool", [False, True], ids=["one-job", "pool"])
def test_each_process_reads_a_batch_of_whole_directories_before_detecting_them(
    tmp_path, monkeypatch, pool
):
    if pool:
        # Small batches on two processes: the inline worker runs its claim loop
        # in this process, so the events below are in claim order.
        monkeypatch.setattr(scanner, "BATCH_FILES", 4)
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "Process", _InlineProcess)
        started = _record_starts(monkeypatch)
    k = scanner.BATCH_FILES
    sizes = {"a": 1, "b": k - 2, "c": 3, "d": k, "e": 1, "f": 2 * k, "g": 2, "h": 1}
    for name, count in sizes.items():
        (tmp_path / name).mkdir()
        for i in range(count):
            (tmp_path / name / f"f{i:03d}.tf").write_text(_ONE_RESOURCE)
    one_job = _report_bytes(scan(tmp_path))
    events = []
    read_unit, detect_all = scanner._read_unit, scanner.detect_all

    def reading(base, rel):
        events.append(("read", rel))
        return read_unit(base, rel)

    def detecting(units, cfg, engine, failed):
        events.append(("detect", [u.path for u in units]))
        return detect_all(units, cfg, engine, failed)

    monkeypatch.setattr(scanner, "_read_unit", reading)
    monkeypatch.setattr(scanner, "detect_all", detecting)
    counters = _record_counters(monkeypatch)
    assert _report_bytes(scan(tmp_path, jobs=2 if pool else 1)) == one_job
    # A batch closes at the directory that brings it to k files or more.
    expected = []
    for batch in (["a", "b", "c"], ["d"], ["e", "f"], ["g", "h"]):
        dirs = [[f"{name}/f{i:03d}.tf" for i in range(sizes[name])] for name in batch]
        expected += [("read", rel) for rels in dirs for rel in rels]
        expected += [("detect", rels) for rels in dirs]
    assert events == expected
    if pool:
        assert len(started) == 1
        assert [c.value for c in counters] == [4 + 2]  # both loops ran past the end
    else:
        assert counters == []


def _report_bytes(report) -> tuple[int, bytes, bytes]:
    stats = prevalence(report) if report.scanned_files else None
    return report.parse_failures, render(report, stats, "json"), render(report, stats, "sarif")


@pytest.fixture
def start_method():
    """Sets the default start method of multiprocessing, restored after the test."""
    before = multiprocessing.get_start_method(allow_none=True)
    yield lambda method: multiprocessing.set_start_method(method, force=True)
    multiprocessing.set_start_method(before, force=True)


def _record_counters(monkeypatch) -> list:
    """Keeps the claim counter of each pooled scan.

    After a scan of b batches on n processes the counter reads b + n: every
    process ends its claim loop with one index past the last batch, so the
    figure shows that n - 1 workers ran the loop beside the caller.
    """
    counters = []
    value = multiprocessing.Value

    def recording(*args, **kwargs):
        counters.append(value(*args, **kwargs))
        return counters[-1]

    monkeypatch.setattr(multiprocessing, "Value", recording)
    return counters


def _directories(root) -> int:
    return len({rel.rpartition("/")[0] for rel in discover_tf_files(root)})


def _append_line(path, *words: str) -> None:
    """One write to a file opened for appending, so lines from processes never interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, (" ".join(words) + "\n").encode())
    finally:
        os.close(fd)


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for a pool")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the workers must inherit the recording functions",
)
def test_scan_processes_claim_each_batch_once_and_detect_each_directory_whole(
    tmp_path, monkeypatch, start_method
):
    root, log = tmp_path / "tree", tmp_path / "log"
    root.mkdir()
    sizes = [3, 1, 2, 4, 1, 1, 2, 3, 1, 2, 5, 1, 2, 1, 3, 2]
    _tree(root, sizes)
    rels = discover_tf_files(root)
    by_dir = {
        name: [rel for rel in rels if rel.startswith(name + "/")]
        for name in string.ascii_lowercase[: len(sizes)]
    }
    one_job = _report_bytes(scan(root, jobs=1))
    read_unit, detect_all = scanner._read_unit, scanner.detect_all

    def reading(base, rel):
        _append_line(log, "read", str(os.getpid()), rel)
        return read_unit(base, rel)

    def detecting(units, cfg, engine, failed):
        _append_line(log, "detect", str(os.getpid()), *(u.path for u in units))
        return detect_all(units, cfg, engine, failed)

    start_method("fork")
    monkeypatch.setattr(scanner, "_read_unit", reading)
    monkeypatch.setattr(scanner, "detect_all", detecting)
    monkeypatch.setattr(scanner, "BATCH_FILES", 3)
    # Four processes on fewer CPUs contend for the counter's lock.
    _set_cpus(monkeypatch, 4)
    counters = _record_counters(monkeypatch)
    four_jobs = _report_bytes(scan(root, jobs=4))
    assert multiprocessing.active_children() == []
    # 16 directories in 10 batches: [3] [1 2] [4] [1 1 2] [3] [1 2] [5] [1 2] [1 3] [2].
    assert [c.value for c in counters] == [10 + 4]
    reader: dict[str, str] = {}
    detected = []
    for line in log.read_text().splitlines():
        event, pid, *paths = line.split()
        if event == "read":
            assert paths[0] not in reader, paths  # every file is read once, by one process
            reader[paths[0]] = pid
        else:
            name = paths[0].split("/")[0]
            assert paths == by_dir[name]  # a directory is detected whole
            assert {reader[path] for path in paths} == {pid}  # where it was read
            detected.append(name)
    assert sorted(reader) == rels
    assert sorted(detected) == list(by_dir)
    assert four_jobs == one_job


@pytest.mark.parametrize("jobs", [1, 2])
def test_findings_are_in_path_order_when_a_directory_straddles_its_subdirectory(
    tmp_path, monkeypatch, jobs
):
    # "a/b/x.tf" sorts between a's two files, so the directories' findings interleave.
    rels = ["a/a.tf", "a/b/x.tf", "a/c.tf"]
    for rel in rels:
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(
            'resource "aws_instance" "x" {\n  instance_type = "m5.24xlarge"\n}\n'
        )
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    report = scan(tmp_path, jobs=jobs)
    assert [f.path for f in report.findings if f.smell == SmellId.SS1] == rels
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("engine", ENGINES)
def test_fixture_reports_do_not_depend_on_jobs(monkeypatch, engine):
    """BOM, CRLF and malformed files give the same bytes on one, two and three processes."""
    # One directory per batch, so the pool has nine batches to claim.
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    dirs = _directories(FIXTURES)
    counters = _record_counters(monkeypatch)
    reports = {}
    for jobs in (1, 2, 3):
        reports[jobs] = _report_bytes(scan(FIXTURES, engine=engine, jobs=jobs))
        assert multiprocessing.active_children() == []
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]
    pooled = [min(jobs, _cpus()) for jobs in (2, 3)]
    assert [c.value for c in counters] == [dirs + n for n in pooled if n > 1]


def _check_started_by(method, monkeypatch, start_method) -> None:
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    one_job = _report_bytes(scan(FIXTURES, jobs=1))
    start_method(method)
    counters = _record_counters(monkeypatch)
    assert _report_bytes(scan(FIXTURES, jobs=2)) == one_job
    assert multiprocessing.active_children() == []
    assert [c.value for c in counters] == [_directories(FIXTURES) + 2]


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for a pool")
def test_spawned_workers_give_the_same_report(monkeypatch, start_method):
    """Where the default start method is spawn, a worker starts from a fresh import."""
    _check_started_by("spawn", monkeypatch, start_method)


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for a pool")
@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method on this platform",
)
def test_forkserver_workers_give_the_same_report(monkeypatch, start_method):
    """Forkserver, Linux's default from Python 3.14: a worker is forked from a clean server."""
    _check_started_by("forkserver", monkeypatch, start_method)


_fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker must inherit the patched detect_all",
)


def _fail_while_pooled(monkeypatch, start_method, in_worker, in_caller=None) -> list:
    """Sets a two-process scan of the fixtures to call ``in_worker`` at the worker's
    first detection and ``in_caller`` at the caller's; returns the started workers.

    The caller claims batch 0 and holds it until the worker has claimed batch 1,
    so the worker reaches a detection however fast the caller is.
    """
    start_method("fork")
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    _set_cpus(monkeypatch, 2)
    counters = _record_counters(monkeypatch)
    started = _record_starts(monkeypatch)
    caller, detect_all = os.getpid(), scanner.detect_all

    def detecting(units, cfg, engine, failed):
        if os.getpid() != caller:
            in_worker()
        else:
            deadline = time.monotonic() + 60
            while counters[0].value < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            if in_caller is not None:
                in_caller()
        return detect_all(units, cfg, engine, failed)

    monkeypatch.setattr(scanner, "detect_all", detecting)
    return started


def _raise(error):
    raise error


@_fork_only
@pytest.mark.parametrize(
    "error, raised, message",
    [
        (ValueError("boom"), ValueError, "^boom$"),
        # A lambda cannot be pickled, so its repr travels in a RuntimeError.
        (ValueError("boom", lambda: None), RuntimeError, r"raised ValueError\('boom', <function"),
    ],
    ids=["picklable", "unpicklable"],
)
def test_an_error_in_a_worker_is_raised_by_scan(monkeypatch, start_method, error, raised, message):
    started = _fail_while_pooled(monkeypatch, start_method, partial(_raise, error))
    with pytest.raises(raised, match=message):
        scan(FIXTURES, jobs=2)
    assert [worker.exitcode for worker in started] == [0]
    assert multiprocessing.active_children() == []


@_fork_only
def test_a_worker_that_exits_without_sending_fails_the_scan(monkeypatch, start_method):
    _fail_while_pooled(monkeypatch, start_method, partial(os._exit, 3))
    with pytest.raises(ScanError, match="exited with code 3"):
        scan(FIXTURES, jobs=2)
    assert multiprocessing.active_children() == []


@_fork_only
def test_an_error_in_the_caller_terminates_the_workers(monkeypatch, start_method):
    # The worker would sleep for ten minutes; only its termination ends it in time.
    started = _fail_while_pooled(
        monkeypatch, start_method, partial(time.sleep, 600), partial(_raise, KeyError("caller"))
    )
    with pytest.raises(KeyError, match="caller"):
        scan(FIXTURES, jobs=2)
    assert [worker.exitcode for worker in started] == [-signal.SIGTERM]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_file_gone_in_a_workers_share_is_a_parse_failure(tmp_path, monkeypatch, engine, jobs):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    # "fixtures/d" is a batch of its own, which a worker may claim when jobs > 1.
    gone = tmp_path / "fixtures" / "d" / "gone.tf"
    gone.parent.mkdir()
    gone.write_text('resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n')
    fixtures = scan(FIXTURES, engine=engine)
    discover = scanner.discover_tf_files

    def discover_then_delete(root):
        rels = discover(root)
        gone.unlink()
        return rels

    monkeypatch.setattr(scanner, "discover_tf_files", discover_then_delete)
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    counters = _record_counters(monkeypatch)
    report = scan(tmp_path, engine=engine, jobs=jobs)
    assert report.scanned_files == fixtures.scanned_files + 1
    assert report.parse_failures == fixtures.parse_failures + 1
    assert "fixtures/d/gone.tf" not in {f.path for f in report.findings}
    assert multiprocessing.active_children() == []
    n = min(jobs, _cpus())
    assert [c.value for c in counters] == ([_directories(FIXTURES) + 1 + n] if n > 1 else [])


class _InlineProcess:
    """Stands in for ``multiprocessing.Process``: its start runs the worker to the end.

    The worker's whole claim loop runs in this process before the caller's, so
    events arrive in claim order; its result must fit in the pipe's buffer.
    """

    def __init__(self, target, args):
        self.run = partial(target, *args)

    def start(self):
        self.run()

    def join(self):
        pass


def _record_starts(monkeypatch) -> list:
    """Keeps each ``multiprocessing.Process`` that is started; the start itself runs as usual."""
    started = []
    start = multiprocessing.Process.start

    def recording(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", recording)
    return started


@pytest.mark.parametrize("cpus", [None, 2, 8])
def test_many_jobs_ask_for_one_worker_per_cpu_or_directory_past_the_first(
    tmp_path, monkeypatch, cpus
):
    _tree(tmp_path, [1, 2, 1])
    one_job = _report_bytes(scan(tmp_path, jobs=1))
    if cpus is not None:
        _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)  # a batch per directory
    started = _record_starts(monkeypatch)
    report = scan(tmp_path, jobs=10**6)
    n = min(_cpus(), 3)
    assert len(started) == max(n - 1, 0)
    assert multiprocessing.active_children() == []
    assert _report_bytes(report) == one_job


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_starts_no_worker(tmp_path, monkeypatch, cpus):
    _tree(tmp_path, [1, 1, 1])
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)
    started = _record_starts(monkeypatch)
    assert scan(tmp_path, jobs=4).scanned_files == 3
    assert started == []


def test_a_process_pinned_to_one_cpu_starts_no_worker(tmp_path, monkeypatch):
    _tree(tmp_path, [1, 2, 1])
    one_job = _report_bytes(scan(tmp_path, jobs=1))
    # The machine has two CPUs, and this process may run on one of them.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(scanner, "BATCH_FILES", 1)  # a batch per directory
    started = _record_starts(monkeypatch)
    counters = _record_counters(monkeypatch)
    assert _report_bytes(scan(tmp_path, jobs=2)) == one_job
    assert started == [] and counters == []


def test_one_batch_starts_no_worker_or_counter(tmp_path, monkeypatch):
    _tree(tmp_path, [1, 2, 1])
    _set_cpus(monkeypatch, 8)
    started = _record_starts(monkeypatch)
    counters = _record_counters(monkeypatch)
    assert scan(tmp_path, jobs=4).scanned_files == 4
    assert started == [] and counters == []


def _modules_after_scan(jobs: int) -> list[bool]:
    """Whether multiprocessing and concurrent.futures are loaded after a scan of the
    fixtures, one batch per directory, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from tfsustain import scanner\n"
        "scanner.BATCH_FILES = 1\n"
        "assert scanner.scan(sys.argv[1], jobs=int(sys.argv[2])).scanned_files\n"
        "print(*(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))\n"
    )
    src = str(Path(scanner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES), str(jobs)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return [word == "True" for word in done.stdout.split()]


def test_one_job_scan_does_not_import_the_process_pool():
    assert _modules_after_scan(1) == [False, False]


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for a pool")
def test_pooled_scan_does_not_import_concurrent_futures():
    # multiprocessing is loaded, so the workers ran.
    assert _modules_after_scan(2) == [True, False]


def test_scan_ignores_symlinked_files(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    (real / "main.tf").write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    (tmp_path / "link.tf").symlink_to(real / "main.tf")
    (tmp_path / "linkdir").symlink_to(real)
    assert discover_tf_files(tmp_path) == ["real/main.tf"]


def test_discovery_matches_an_os_walk_reference(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    (real / "main.tf").write_text("")
    (tmp_path / "link.tf").symlink_to(real / "main.tf")
    (tmp_path / "linkdir").symlink_to(real)
    (tmp_path / "broken.tf").symlink_to(tmp_path / "missing.tf")
    (tmp_path / "mod.tf").mkdir()  # a directory, never a file
    (tmp_path / "mod.tf" / "main.tf").write_text("")
    for name in ("top.tf", "main.TF", "x.tf.json", "vars.tfvars"):
        (tmp_path / name).write_text("")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "h.tf").write_text("")
    for d in ("a", "a-b"):  # "-" sorts before "/", so a-b/x.tf comes first
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.tf").write_text("")
    expected = [
        ".hidden/h.tf", "a-b/x.tf", "a/x.tf", "mod.tf/main.tf", "real/main.tf", "top.tf"
    ]
    assert walk_tf_files(tmp_path) == expected
    assert discover_tf_files(tmp_path) == expected


_TREE_DEPTH = 1_100  # deeper than the default recursion limit of 1,000


@pytest.mark.parametrize("engine", ["ast", "pattern"])
def test_deep_directory_tree_does_not_stop_the_scan(tmp_path, engine):
    dirs = [tmp_path / "d"]
    for _ in range(_TREE_DEPTH - 1):
        dirs.append(dirs[-1] / "d")
    for d in dirs:
        d.mkdir()
    deep = dirs[-1] / "main.tf"
    deep.write_text('resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n')
    (tmp_path / "top.tf").write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    try:
        report = scan(tmp_path, engine=engine)
        deep_rel = "d/" * _TREE_DEPTH + "main.tf"
        assert report.scanned_files == 2
        assert (deep_rel, SmellId.SS1) in {(f.path, f.smell) for f in report.findings}
    finally:
        # Remove the tree bottom-up here: a recursive rmtree would hit the limit.
        deep.unlink()
        for d in reversed(dirs):
            d.rmdir()


def test_scan_counts_unreadable_files_in_denominator(tmp_path):
    good = tmp_path / "good.tf"
    good.write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    malformed = tmp_path / "malformed.tf"
    malformed.write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n')
    bad = tmp_path / "bad.tf"
    bad.write_bytes(b'resource "aws_instance" "x" {\n  ami = \xff\xfe broken\n')
    odd = tmp_path / "odd.tf"
    odd.write_text(
        'resource "aws_sns_topic" {\n  name = "a"\n  name = "b"\n}\n'
        'terraform "extra" {\n}\n'
    )
    # Both unclosed blocks are parse errors, which only the AST engine
    # looks for; bad.tf fails to decode and to parse, and counts once.
    # odd.tf's one-label resource, labelled terraform block and duplicated
    # attribute are not parse errors.
    for engine, failures in [("ast", 2), ("pattern", 1)]:
        report = scan(tmp_path, engine=engine)
        assert report.scanned_files == 4
        assert report.parse_failures == failures, engine


def test_a_bom_before_an_undecodable_byte_is_dropped_and_the_file_fails_once(tmp_path):
    (tmp_path / "bad.tf").write_bytes(b'\xef\xbb\xbf\xff = 1\nresource "aws_instance" "x" {}\n')
    unit, failed = scanner._read_unit(str(tmp_path), "bad.tf")
    assert failed and unit.text == '\ufffd = 1\nresource "aws_instance" "x" {}\n'
    for engine in ENGINES:
        report = scan(tmp_path, engine=engine)
        assert (report.scanned_files, report.parse_failures) == (1, 1), engine


@pytest.mark.parametrize("engine", ["ast", "pattern"])
def test_file_gone_between_discovery_and_read_is_a_failure_with_no_finding(
    tmp_path, monkeypatch, engine
):
    smelly = (
        'terraform {\n  backend "local" {}\n}\n'
        'resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n'
    )
    (tmp_path / "main.tf").write_text(smelly)
    (tmp_path / "ghost").mkdir()
    gone = tmp_path / "ghost" / "gone.tf"
    gone.write_text(smelly)
    discover = scanner.discover_tf_files

    def discover_then_delete(root):
        rels = discover(root)
        gone.unlink()
        return rels

    monkeypatch.setattr(scanner, "discover_tf_files", discover_then_delete)
    report = scan(tmp_path, engine=engine)
    assert report.scanned_files == 2
    assert report.parse_failures == 1
    assert {f.path for f in report.findings} == {"main.tf"}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_discovery_skips_a_fifo_and_scan_returns(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "main.tf").write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    os.mkfifo(tmp_path / "d" / "pipe.tf")  # opening it for reading would block
    assert discover_tf_files(tmp_path) == ["d/main.tf"]
    report = scan(tmp_path)
    assert report.scanned_files == 1 and report.parse_failures == 0


def test_scan_single_file_root(tmp_path):
    f = tmp_path / "one.tf"
    f.write_text((FIXTURES / "smelly" / "main.tf").read_text())
    report = scan(f)
    assert report.scanned_files == 1
    assert report.findings


def test_prevalence_requires_nonempty_corpus(tmp_path):
    report = scan(tmp_path)
    with pytest.raises(ScanError):
        prevalence(report)


def test_prevalence_counts_each_file_once(tmp_path):
    # a file with many SS7-ish resources still counts once per smell
    d = tmp_path / "a"
    d.mkdir()
    (d / "main.tf").write_text(
        "terraform {\n  backend \"gcs\" {\n    bucket = \"b\"\n  }\n}\n"
        + "\n".join(
            f'resource "aws_sns_topic" "t{i}" {{\n  name = "t{i}"\n}}\n'
            for i in range(25)
        )
    )
    report = scan(tmp_path)
    assert report.scanned_files == 1
    stats = prevalence(report)
    assert stats[SmellId.SS7] == Fraction(1, 1)


def test_multi_smell_file_counts_in_three_numerators_one_denominator(tmp_path):
    d = tmp_path / "multi"
    d.mkdir()
    (d / "main.tf").write_text((FIXTURES / "smelly" / "main.tf").read_text())
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "main.tf").write_text((FIXTURES / "clean" / "main.tf").read_text())
    report = scan(tmp_path)
    stats = prevalence(report)
    assert report.scanned_files == 2
    for smell in (SmellId.SS1, SmellId.SS2, SmellId.SS4):
        assert stats[smell] == Fraction(1, 2)


def test_prevalence_matches_brute_force_on_fixture_corpus():
    report = scan(FIXTURES)
    stats = prevalence(report)
    index = smells_by_path(report.findings)
    for smell in SmellId:
        brute = sum(1 for smells in index.values() if smell in smells)
        assert stats[smell] == Fraction(brute, report.scanned_files)


# -- rendering ---------------------------------------------------------


def test_render_json_empty_report_canonical_prefix(tmp_path):
    report = scan(tmp_path)
    payload = render(report, None, "json")
    assert payload.startswith(b'{"scanned_files":0,"findings":[]')
    doc = json.loads(payload)
    assert doc["scanned_files"] == 0 and doc["findings"] == []


def test_render_text_sorted_by_prevalence_desc_ties_by_id(tmp_path):
    build_corpus(tmp_path, {SmellId.SS7: 3, SmellId.SS2: 3, SmellId.SS4: 1}, total=10)
    report = scan(tmp_path)
    text = render(report, prevalence(report), "text").decode()
    table_rows = [
        line.split()[0]
        for line in text.splitlines()
        if line.startswith("SS")
    ]
    assert table_rows == ["SS2", "SS7", "SS4", "SS1", "SS3", "SS5", "SS6"]


def test_render_sarif_has_each_rule_exactly_once(tmp_path):
    build_corpus(tmp_path, {SmellId.SS7: 1}, total=2)
    report = scan(tmp_path)
    doc = json.loads(render(report, None, "sarif"))
    rules = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rules == ["SS1", "SS2", "SS3", "SS4", "SS5", "SS6", "SS7"]
    assert doc["runs"][0]["results"][0]["ruleId"] == "SS7"


def test_render_sarif_columns_count_code_points(tmp_path):
    # "🚀" is one code point but two UTF-16 code units, SARIF's default unit.
    (tmp_path / "main.tf").write_text(
        'resource "aws_instance" "🚀" { instance_type = "m5.24xlarge" }\n',
        encoding="utf-8",
    )
    report = scan(tmp_path)
    run = json.loads(render(report, None, "sarif"))["runs"][0]
    assert run["columnKind"] == "unicodeCodePoints"
    (ss1,) = [r for r in run["results"] if r["ruleId"] == "SS1"]
    region = ss1["locations"][0]["physicalLocation"]["region"]
    assert (region["startLine"], region["startColumn"]) == (1, 31)
    assert region["endColumn"] == 60


def _assert_sarif_is_indented_json(out: bytes) -> None:
    """SARIF bytes are exactly ``json.dumps(document, indent=2)`` of what they hold."""
    assert out == json.dumps(json.loads(out), indent=2).encode()


@pytest.mark.parametrize("engine", ENGINES)
def test_render_sarif_of_fixtures_is_indented_json(engine):
    report = scan(FIXTURES, engine=engine)
    assert report.findings
    _assert_sarif_is_indented_json(render(report, prevalence(report), "sarif"))


def test_render_sarif_of_empty_report_is_indented_json(tmp_path):
    out = render(scan(tmp_path), None, "sarif")
    _assert_sarif_is_indented_json(out)
    assert b'\n      "results": [],\n' in out


# Paths decoded with surrogateescape carry lone surrogates; JSON escapes
# quotes, backslashes and control characters, and ASCII output escapes the rest.
_AWKWARD_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('ä"\\\x01\x1f\x7f\n\udcff\ud800🚀\u2028'),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def _findings(draw) -> SmellFinding:
    start = draw(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)))
    end = draw(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)))
    start, end = sorted([start, end])
    path = draw(_AWKWARD_TEXT)
    return SmellFinding(
        smell=draw(st.sampled_from(list(SmellId))),
        path=path,
        span=SourceSpan(path, *start, *end),
        evidence=draw(_AWKWARD_TEXT),
        engine=draw(st.sampled_from(ENGINES)),
        message=draw(_AWKWARD_TEXT),
    )


@given(st.lists(_findings(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_render_sarif_of_any_finding_text_is_indented_json(findings):
    report = ScanReport(len(findings), 0, findings, "digest", "ast")
    out = render(report, None, "sarif")
    _assert_sarif_is_indented_json(out)
    assert out.isascii()
    doc = json.loads(out)
    rule_ids = [rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]]
    # Through JSON and back: a high then a low lone surrogate decode as one character.
    expected = [
        {
            "ruleId": f.smell.name,
            "ruleIndex": rule_ids.index(f.smell.name),
            "level": "warning",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.span.start_line,
                            "startColumn": f.span.start_col,
                            "endLine": f.span.end_line,
                            "endColumn": f.span.end_col,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    assert doc["runs"][0]["results"] == json.loads(json.dumps(expected))


def _reference_render_json(report: ScanReport, stats) -> bytes:
    """The JSON report built as one dict and laid out by ``json.dumps``."""
    doc: dict = {
        "scanned_files": report.scanned_files,
        "findings": [
            {
                "smell": f.smell.name,
                "path": f.path,
                "span": {
                    "start_line": f.span.start_line,
                    "start_col": f.span.start_col,
                    "end_line": f.span.end_line,
                    "end_col": f.span.end_col,
                },
                "evidence": f.evidence,
                "engine": f.engine,
                "message": f.message,
            }
            for f in report.findings
        ],
        "parse_failures": report.parse_failures,
        "engine": report.engine,
        "config_digest": report.config_digest,
        "per_file_index": {
            path: sorted(s.name for s in smells)
            for path, smells in sorted(smells_by_path(report.findings).items())
        },
    }
    if stats is not None:
        doc["stats"] = {
            smell.name: {
                "files_affected": int(share * report.scanned_files),
                "numerator": share.numerator,
                "denominator": share.denominator,
                "percent": format_percent(share),
            }
            for smell, share in sorted(stats.items())
        }
    return json.dumps(doc, separators=(",", ":")).encode()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tree", ["fixtures", "synth", "empty"])
def test_render_json_equals_the_dict_reference(tmp_path, engine, tree):
    root = {"fixtures": FIXTURES, "synth": tmp_path, "empty": tmp_path}[tree]
    if tree == "synth":
        build_corpus(tmp_path)
    report = scan(root, engine=engine)
    assert bool(report.findings) == (tree != "empty")
    stats = prevalence(report) if report.scanned_files else None
    for with_stats in (stats, None):
        assert render(report, with_stats, "json") == _reference_render_json(report, with_stats)


@given(st.lists(_findings(), max_size=4), st.sampled_from(ENGINES), _AWKWARD_TEXT)
@settings(max_examples=200, deadline=None)
def test_render_json_of_any_finding_text_is_compact_json(findings, engine, digest):
    findings.sort(key=SmellFinding.sort_key)
    report = ScanReport(len(findings), 1, findings, digest, engine)
    out = render(report, None, "json")
    assert out == json.dumps(json.loads(out), separators=(",", ":")).encode()
    assert out == _reference_render_json(report, None)


def test_render_peak_memory_is_a_small_multiple_of_its_output(tmp_path):
    # 600 findings over 200 files: the renderer holds its bytes, not a copy of the
    # document as dicts, as a list of strings or as a string beside its bytes.
    smells = list(SmellId)
    findings = sorted(
        (
            SmellFinding(
                smell=smells[i % len(smells)],
                path=f"module-{i % 200:03d}/main.tf",
                span=SourceSpan(f"module-{i % 200:03d}/main.tf", i + 1, 3, i + 4, 2),
                evidence=f'instance_type = "m5.{i}xlarge"',
                engine="ast",
                message="resource size exceeds the workload's demonstrated need",
            )
            for i in range(600)
        ),
        key=SmellFinding.sort_key,
    )
    report = ScanReport(400, 2, findings, "0" * 64, "ast")
    stats, descriptors = prevalence(report), catalog()
    render(report, stats, "json", descriptors)  # import and cache before tracing
    tracemalloc.start()
    try:
        for fmt in ("json", "sarif"):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            out = render(report, stats, fmt, descriptors)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - before <= 2.5 * len(out), (fmt, peak - before, len(out))
            del out
    finally:
        tracemalloc.stop()


def test_render_rejects_unknown_format(tmp_path):
    report = scan(tmp_path)
    with pytest.raises(ValueError):
        render(report, None, "yaml")


def test_render_json_keeps_exact_rationals(tmp_path):
    build_corpus(tmp_path, {SmellId.SS7: 1}, total=3)
    report = scan(tmp_path)
    doc = json.loads(render(report, prevalence(report), "json"))
    entry = doc["stats"]["SS7"]
    assert (entry["numerator"], entry["denominator"]) == (1, 3)
    assert entry["percent"] == "33.33"


def test_format_percent_examples():
    assert format_percent(Fraction(19, 200)) == "9.50"
    assert format_percent(Fraction(967, 10000)) == "9.67"
    assert format_percent(Fraction(0, 1)) == "0.00"
    assert format_percent(Fraction(1, 1)) == "100.00"
    assert format_percent(Fraction(1, 800)) == "0.13"  # rounds half up


def test_findings_lines_are_path_position_prefixed():
    report = scan(FIXTURES / "smelly")
    lines = findings_lines(report)
    assert lines and all(line.startswith("main.tf:") for line in lines)


def test_pattern_engine_scan_works_on_fixture_corpus():
    report = scan(FIXTURES / "samples_extended", engine="pattern")
    assert {f.smell.name for f in report.findings} == {"SS1", "SS2", "SS4", "SS7"}
    assert all(f.engine == "pattern" for f in report.findings)


_DEEP = 20_000
_DEEP_FILES = {
    "list": ("x = " + "[" * _DEEP + "]" * _DEEP + "\n", 0),
    "map": ("x = " + "{ a = " * _DEEP + "1" + " }" * _DEEP + "\n", 0),
    "block": ("b {\n" * _DEEP + "}\n" * _DEEP, 1),
    "template": ('x = ' + '"${' * _DEEP + "\n", 1),
}


@pytest.mark.parametrize("engine", ["ast", "pattern"])
@pytest.mark.parametrize("name", sorted(_DEEP_FILES))
def test_deeply_nested_file_does_not_stop_the_scan(tmp_path, name, engine):
    text, ast_failures = _DEEP_FILES[name]
    (tmp_path / "deep").mkdir()
    (tmp_path / "deep" / "main.tf").write_text(text)
    (tmp_path / "ok").mkdir()
    (tmp_path / "ok" / "main.tf").write_text(
        'resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n'
    )
    report = scan(tmp_path, engine=engine)
    assert report.scanned_files == 2
    assert report.parse_failures == (ast_failures if engine == "ast" else 0)
    assert ("ok/main.tf", SmellId.SS1) in {(f.path, f.smell) for f in report.findings}
