from __future__ import annotations

import itertools
from array import array

import pytest

from tfsustain.catalog import SmellId
from tfsustain.detectors import DetectorConfig, ast_engine, detect_all, unit_for
from tfsustain.detectors.config import LOG_GROUP_TYPES
from tfsustain.hcl import SourceSpan, tokenize
from tfsustain.detectors.pattern_engine import (
    mask_comments,
    pattern_ss1,
    pattern_ss2,
    pattern_ss4,
    pattern_ss5,
    pattern_ss6,
    pattern_ss7,
    prepare,
)

from conftest import FIXTURES

CFG = DetectorConfig()


def test_mask_comments_preserves_offsets_and_strings():
    text = 'a = "keep # this" # drop this\nb = 2 // gone\n/* multi\nline */ c = 3\n'
    masked = mask_comments(text)
    assert len(masked) == len(text)
    assert masked.count("\n") == text.count("\n")
    assert '"keep # this"' in masked
    assert "drop this" not in masked
    assert "gone" not in masked
    assert "multi" not in masked
    assert "c = 3" in masked


def _mask_comments_reference(text: str) -> str:
    """The character loop that ``mask_comments`` replaced, kept as its oracle."""
    out = list(text)
    i = 0
    n = len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if ch == "\\" and in_string:
            i += 2
            continue
        if ch == '"':
            in_string = not in_string
            i += 1
            continue
        if in_string:
            if ch == "\n":  # unterminated string; stop treating it as one
                in_string = False
            i += 1
            continue
        if ch == "#" or text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if text[i : i + 2] == "/*":
            while i < n and text[i : i + 2] != "*/":
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
            continue
        i += 1
    return "".join(out)


def test_mask_comments_matches_reference_loop_exhaustively():
    alphabet = '" \\\n#/*a'
    for length in range(7):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            assert mask_comments(text) == _mask_comments_reference(text), repr(text)


def test_mask_comments_star_slash_shares_the_opening_star():
    # "/*/" is a complete block comment: the close reuses the opener's "*".
    # The lexer disagrees and reads an unterminated comment; kept as is.
    assert mask_comments('/*/ x = "a"') == '    x = "a"'
    assert tokenize('/*/ x = "a"').errors == {0: "unterminated block comment"}


def test_text_view_spans_follow_line_starts():
    view = prepare(unit_for("x.tf", "ab\n\ncd"), CFG)
    assert view.source.line_starts == array("q", [0, 3, 4])
    assert view.source.span(0, 2) == SourceSpan("x.tf", 1, 1, 1, 3)
    assert view.source.span(3, 5) == SourceSpan("x.tf", 2, 1, 3, 2)
    assert view.finding(SmellId.SS7, None, "1", "").span == SourceSpan("x.tf", 1, 1, 3, 3)


def test_pattern_ss1_matches_size_literal():
    text = (FIXTURES / "samples" / "ss1.tf").read_text()
    findings = pattern_ss1(prepare(unit_for("ss1.tf", text), CFG), CFG)
    assert len(findings) == 1 and findings[0].engine == "pattern"
    assert findings[0].evidence == "Standard_D16s_v3"


def test_pattern_ss2_needs_compute_type_in_file():
    no_compute = 'resource "aws_sns_topic" "t" {\n  count = 9\n}\n'
    assert pattern_ss2(prepare(unit_for("x.tf", no_compute), CFG), CFG) == []
    with_compute = (FIXTURES / "samples" / "ss2.tf").read_text()
    assert len(pattern_ss2(prepare(unit_for("x.tf", with_compute), CFG), CFG)) == 1


def test_pattern_ss2_commented_count_does_not_fire():
    text = 'resource "aws_instance" "a" {\n  # count = 9\n  ami = "x"\n}\n'
    assert pattern_ss2(prepare(unit_for("x.tf", text), CFG), CFG) == []


def test_pattern_ss2_compares_a_count_only_when_its_digits_are_the_whole_value():
    # As in the AST engine, where "5 * 2" is an Opaque value and not a number.
    template = 'resource "aws_instance" "a" {{\n  count = {}\n}}\n'
    for value, evidence in [("5 * 2", []), ("5", ["count=5"]), ("5 # fixed", ["count=5"])]:
        unit = unit_for("x.tf", template.format(value))
        got = [f.evidence for f in pattern_ss2(prepare(unit, CFG), CFG)]
        ast_view = ast_engine.prepare(unit, CFG)
        assert got == [f.evidence for f in ast_engine.detect_ss2_no_autoscaling(ast_view, CFG)]
        assert got == evidence, value
    inline = unit_for("x.tf", 'resource "aws_instance" "a" { count = 5 }')
    assert [f.evidence for f in pattern_ss2(prepare(inline, CFG), CFG)] == ["count=5"]


def test_pattern_ss4_compares_a_retention_only_when_its_digits_are_the_whole_value():
    # "400 - 1" sets a retention, so it is not reported as unset either.
    template = 'resource "aws_cloudwatch_log_group" "g" {{\n  retention_in_days = {}\n}}\n'
    for value, evidence in [("400 - 1", []), ("400", ["400"]), ("400 // long\r", ["400"])]:
        unit = unit_for("x.tf", template.format(value))
        got = [f.evidence for f in pattern_ss4(prepare(unit, CFG), CFG)]
        ast_view = ast_engine.prepare(unit, CFG)
        assert got == [f.evidence for f in ast_engine.detect_ss4_excessive_logging(ast_view, CFG)]
        assert got == evidence, value


def test_pattern_ss4_missing_retention_is_file_level():
    text = 'resource "aws_cloudwatch_log_group" "g" {\n  name = "g"\n}\n'
    findings = pattern_ss4(prepare(unit_for("x.tf", text), CFG), CFG)
    assert len(findings) == 1 and findings[0].evidence == "unset"


@pytest.mark.parametrize("value", ["var.days", '"30"', "local.days", "30", "365"])
@pytest.mark.parametrize(
    "rtype", ["aws_cloudwatch_log_group", "google_logging_project_bucket_config"]
)
def test_pattern_ss4_any_retention_assignment_is_set(rtype, value):
    # Only a digit value is compared with the maximum, and no other value is
    # reported as unset: the findings are the AST engine's.
    text = f'resource "{rtype}" "g" {{\n  {LOG_GROUP_TYPES[rtype]} = {value}\n}}\n'
    unit = unit_for("x.tf", text)
    ast_view = ast_engine.prepare(unit, CFG)
    evidence = [f.evidence for f in pattern_ss4(prepare(unit, CFG), CFG)]
    assert evidence == [f.evidence for f in ast_engine.detect_ss4_excessive_logging(ast_view, CFG)]
    assert evidence == (["365"] if value == "365" else [])


def test_pattern_ss5_region_literals_from_comments_only_with_flag():
    text = (
        'resource "google_compute_instance" "a" {\n'
        '  zone = "us-west1-a"\n'
        '  # replica lives in region = "europe-west1"\n'
        "}\n"
    )
    assert pattern_ss5(prepare(unit_for("x.tf", text), CFG), CFG) == []
    scanning = DetectorConfig(ss5_pattern_scan_comments=True)
    findings = pattern_ss5(prepare(unit_for("x.tf", text), scanning), scanning)
    assert len(findings) == 1
    assert findings[0].evidence == "us-west1 != europe-west1"


def test_pattern_ss6_local_backend():
    text = (FIXTURES / "mutants" / "ss6_local_backend" / "main.tf").read_text()
    findings = pattern_ss6([prepare(unit_for("main.tf", text), CFG)], CFG)
    assert len(findings) == 1 and findings[0].evidence == "local"


def test_pattern_ss6_remote_backend_clean():
    text = (FIXTURES / "samples" / "ss6.tf").read_text()
    assert pattern_ss6([prepare(unit_for("ss6.tf", text), CFG)], CFG) == []


def test_pattern_ss7_counts_resource_declarations():
    text = (FIXTURES / "mutants" / "ss7_extended" / "main.tf").read_text()
    findings = pattern_ss7(prepare(unit_for("x.tf", text), CFG), CFG)
    assert len(findings) == 1 and findings[0].evidence == "12"


def test_pattern_engine_contained_in_ast_engine_on_fixtures():
    """On the curated fixtures the text patterns never out-claim the AST."""
    dirs = [
        [unit_for(f"{rel}/{p.name}", p.read_text()) for p in sorted((FIXTURES / rel).glob("*.tf"))]
        for rel in ["samples", "samples_extended", "clean", "smelly"]
    ]
    ast_found = {
        (f.path, f.smell.name)
        for units in dirs
        for f in detect_all(units, CFG, "ast", set())
        if f.smell.name in ("SS1", "SS2", "SS4", "SS7")
    }
    pattern_found = {
        (f.path, f.smell.name)
        for units in dirs
        for f in detect_all(units, CFG, "pattern", set())
        if f.smell.name in ("SS1", "SS2", "SS4", "SS7")
    }
    assert pattern_found <= ast_found
    assert pattern_found  # not vacuous


@pytest.mark.parametrize("rel", ["samples", "samples_extended"])
@pytest.mark.parametrize("smell", ["SS1", "SS2", "SS4"])
def test_engines_give_equal_attribute_spans_on_samples(rel, smell):
    """An attribute's span ends at its value, as the pattern match does,
    so a trailing comment is outside it in both engines."""
    path = f"{rel}/{smell.lower()}.tf"
    unit = unit_for(path, (FIXTURES / path).read_text())
    spans = {
        engine: [f.span for f in detect_all([unit], CFG, engine, set()) if f.smell.name == smell]
        for engine in ("ast", "pattern")
    }
    assert len(spans["ast"]) == 1
    assert spans["ast"] == spans["pattern"]


def test_pattern_engine_works_on_unparseable_text():
    text = 'resource "aws_instance" %%% {\n  count = 5\n  instance_type = "m5.4xlarge"\n'
    findings = pattern_ss2(prepare(unit_for("x.tf", text), CFG), CFG)
    assert len(findings) == 1
