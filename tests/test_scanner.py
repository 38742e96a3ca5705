from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tfsustain import scanner
from tfsustain.catalog import SmellId
from tfsustain.detectors import ENGINES
from tfsustain.report import findings_lines, format_percent, render
from tfsustain.scanner import (
    ScanError,
    discover_tf_files,
    prevalence,
    scan,
    smells_by_path,
)

from conftest import FIXTURES, walk_tf_files
from synth import build_corpus


def test_scan_empty_directory(tmp_path):
    report = scan(tmp_path)
    assert report.scanned_files == 0
    assert report.findings == [] and smells_by_path(report.findings) == {}


def test_scan_missing_root_raises():
    with pytest.raises(ScanError):
        scan("/nonexistent/path/for/sure")


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
    assert stats.per_smell[SmellId.SS7].prevalence == Fraction(2, 10)


def test_scan_twice_is_byte_identical(tmp_path):
    build_corpus(tmp_path, {SmellId.SS2: 1, SmellId.SS7: 1}, total=6)
    r1 = scan(tmp_path)
    r2 = scan(tmp_path)
    assert render(r1, prevalence(r1), "json") == render(r2, prevalence(r2), "json")


def _tree(root, files_per_dir):
    """One directory per count, named a, b, c, ..., holding that many smelly files."""
    for name, count in zip("abcdefgh", files_per_dir):
        (root / name).mkdir()
        for i in range(count):
            (root / name / f"f{i}.tf").write_text(
                f'resource "aws_instance" "{name}{i}" {{\n  instance_type = "m5.24xlarge"\n}}\n'
            )


def _report_bytes(report) -> tuple[int, bytes, bytes]:
    stats = prevalence(report) if report.scanned_files else None
    return report.parse_failures, render(report, stats, "json"), render(report, stats, "sarif")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a second share")
def test_scan_with_two_jobs_reads_one_directory_aligned_share_in_the_calling_process(
    tmp_path, monkeypatch
):
    _tree(tmp_path, [2, 2, 2])
    rels = discover_tf_files(tmp_path)
    one_job = _report_bytes(scan(tmp_path, jobs=1))
    read_unit = scanner._read_unit
    read = []

    def recording(base, rel):
        read.append(rel)
        return read_unit(base, rel)

    monkeypatch.setattr(scanner, "_read_unit", recording)
    two_jobs = _report_bytes(scan(tmp_path, jobs=2))
    # The other share is read in a worker process, where this list is a copy.
    assert 0 < len(read) < len(rels)
    assert read == rels[: len(read)]
    assert read[-1].split("/")[0] != rels[len(read)].split("/")[0]
    assert two_jobs == one_job
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_findings_are_in_path_order_when_a_directory_straddles_its_subdirectory(tmp_path, jobs):
    # "a/b/x.tf" sorts between a's two files, so the directories' findings interleave.
    rels = ["a/a.tf", "a/b/x.tf", "a/c.tf"]
    for rel in rels:
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(
            'resource "aws_instance" "x" {\n  instance_type = "m5.24xlarge"\n}\n'
        )
    report = scan(tmp_path, jobs=jobs)
    assert [f.path for f in report.findings if f.smell == SmellId.SS1] == rels
    assert multiprocessing.active_children() == []


def test_shares_are_contiguous_non_empty_and_balanced_by_file_count():
    sizes = [5, 1, 1, 3, 1, 1, 4]
    dirs = [(f"d{i}", [f"d{i}/{j}.tf" for j in range(size)]) for i, size in enumerate(sizes)]
    for n in range(1, len(dirs) + 1):
        shares = scanner._shares(dirs, n)
        assert len(shares) == n and all(shares)
        assert [d for share in shares for d in share] == dirs
    assert [sum(len(rels) for _, rels in share) for share in scanner._shares(dirs, 2)] == [7, 9]
    assert [[d for d, _ in share] for share in scanner._shares(dirs, 3)] == [
        ["d0"], ["d1", "d2", "d3", "d4"], ["d5", "d6"]
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_fixture_reports_do_not_depend_on_jobs(engine):
    """BOM, CRLF and malformed files give the same bytes on one, two and three processes."""
    reports = {}
    for jobs in (1, 2, 3):
        reports[jobs] = _report_bytes(scan(FIXTURES, engine=engine, jobs=jobs))
        assert multiprocessing.active_children() == []
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a second share")
def test_spawned_workers_give_the_same_report(monkeypatch):
    """Where the default start method is spawn, a worker starts from a fresh import."""
    one_job = _report_bytes(scan(FIXTURES, jobs=1))
    spawn = multiprocessing.get_context("spawn")
    pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda n: pool(n, mp_context=spawn)
    )
    assert _report_bytes(scan(FIXTURES, jobs=2)) == one_job
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_file_gone_in_a_workers_share_is_a_parse_failure(tmp_path, monkeypatch, engine, jobs):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    # The last directory in path order is in the last share, a worker's when jobs > 1.
    gone = tmp_path / "zz" / "gone.tf"
    gone.parent.mkdir()
    gone.write_text('resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n')
    fixtures = scan(FIXTURES, engine=engine)
    discover = scanner.discover_tf_files

    def discover_then_delete(root):
        rels = discover(root)
        gone.unlink()
        return rels

    monkeypatch.setattr(scanner, "discover_tf_files", discover_then_delete)
    report = scan(tmp_path, engine=engine, jobs=jobs)
    assert report.scanned_files == fixtures.scanned_files + 1
    assert report.parse_failures == fixtures.parse_failures + 1
    assert "zz/gone.tf" not in {f.path for f in report.findings}
    assert multiprocessing.active_children() == []


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records its size, runs submissions inline."""

    def __init__(self, max_workers, built):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _record_executors(monkeypatch) -> list[int]:
    built: list[int] = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda n: _InlineExecutor(n, built)
    )
    return built


@pytest.mark.parametrize("cpus", [None, 2, 8])
def test_many_jobs_ask_for_one_worker_per_cpu_or_directory_past_the_first(
    tmp_path, monkeypatch, cpus
):
    _tree(tmp_path, [1, 2, 1])
    one_job = _report_bytes(scan(tmp_path, jobs=1))
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    built = _record_executors(monkeypatch)
    report = scan(tmp_path, jobs=10**6)
    n = min(os.cpu_count() or 1, 3)
    assert built == ([n - 1] if n > 1 else [])
    assert _report_bytes(report) == one_job


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_builds_no_executor(tmp_path, monkeypatch, cpus):
    _tree(tmp_path, [1, 1, 1])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    built = _record_executors(monkeypatch)
    assert scan(tmp_path, jobs=4).scanned_files == 3
    assert built == []


def test_one_job_scan_does_not_import_the_process_pool():
    code = (
        "import sys\n"
        "from tfsustain.scanner import scan\n"
        "assert scan(sys.argv[1], jobs=1).scanned_files\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    src = str(Path(scanner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


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
    # Both unclosed blocks are parse errors, which only the AST engine
    # looks for; bad.tf fails to decode and to parse, and counts once.
    for engine, failures in [("ast", 2), ("pattern", 1)]:
        report = scan(tmp_path, engine=engine)
        assert report.scanned_files == 3
        assert report.parse_failures == failures, engine


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
    assert stats.per_smell[SmellId.SS7].files_affected == 1
    assert stats.per_smell[SmellId.SS7].prevalence == Fraction(1, 1)


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
        assert stats.per_smell[smell].prevalence == Fraction(1, 2)


def test_prevalence_matches_brute_force_on_fixture_corpus():
    report = scan(FIXTURES)
    stats = prevalence(report)
    index = smells_by_path(report.findings)
    for smell in SmellId:
        brute = sum(1 for smells in index.values() if smell in smells)
        assert stats.per_smell[smell].files_affected == brute
        assert stats.per_smell[smell].prevalence == Fraction(
            brute, report.scanned_files
        )


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
