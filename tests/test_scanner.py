from __future__ import annotations

import json
from fractions import Fraction

import pytest

from tfsustain.catalog import SmellId
from tfsustain.report import findings_lines, format_percent, render
from tfsustain.scanner import (
    ScanError,
    discover_tf_files,
    prevalence,
    scan,
    smells_by_path,
)

from conftest import FIXTURES
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


def test_scan_ignores_symlinked_files(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    (real / "main.tf").write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    (tmp_path / "link.tf").symlink_to(real / "main.tf")
    (tmp_path / "linkdir").symlink_to(real)
    assert discover_tf_files(tmp_path) == ["real/main.tf"]


def test_scan_counts_unreadable_files_in_denominator(tmp_path):
    good = tmp_path / "good.tf"
    good.write_text('resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')
    bad = tmp_path / "bad.tf"
    bad.write_bytes(b'resource "aws_instance" "x" {\n  ami = \xff\xfe broken\n}\n')
    report = scan(tmp_path)
    assert report.scanned_files == 2
    assert report.parse_failures >= 1


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
