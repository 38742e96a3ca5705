from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import shutil
import struct
import subprocess
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain.hcl import (
    Attribute,
    Block,
    BoolLit,
    ConfigFile,
    Diagnostic,
    ListValue,
    MapValue,
    NumberLit,
    Opaque,
    Reference,
    SourceSpan,
    SourceText,
    StringLit,
    TemplateString,
    attributes,
    find_blocks,
    lexer,
    parse,
    parser,
    tokenize,
)

from conftest import FIXTURES, fixture_corpus_files, located, nodes_equal, span_text
from synth import build_corpus, load_perfbench_corpus

SS1_SAMPLE = (FIXTURES / "samples" / "ss1.tf").read_text()
SS3_SAMPLE = (FIXTURES / "samples" / "ss3.tf").read_text()
SS4_SAMPLE = (FIXTURES / "samples" / "ss4.tf").read_text()
SS6_SAMPLE = (FIXTURES / "samples" / "ss6.tf").read_text()
SS7_SAMPLE = (FIXTURES / "samples" / "ss7.tf").read_text()


def test_empty_input_parses_to_empty_body():
    cf = parse("")
    assert cf.body == [] and cf.diagnostics == []


def test_ss1_sample_structure():
    cf = parse(SS1_SAMPLE, "ss1.tf")
    assert len(cf.body) == 1
    block = cf.body[0]
    assert isinstance(block, Block)
    assert block.block_type == "resource"
    assert block.labels == ["azurerm_virtual_machine", "inefficient_vm"]
    # the trailing "# Overprovisioned" comment adds no node to the body
    assert [type(item) for item in block.body] == [Attribute] * 3
    assert attributes(block)["vm_size"].value == StringLit("Standard_D16s_v3")


def test_ss6_sample_structure():
    cf = parse(SS6_SAMPLE, "ss6.tf")
    terraform = cf.body[0]
    assert isinstance(terraform, Block) and terraform.block_type == "terraform"
    backends = find_blocks(terraform, "backend")
    assert len(backends) == 1
    assert backends[0].labels == ["gcs"]
    assert attributes(backends[0])["bucket"].value == StringLit("my-terraform-state")


def test_find_blocks_on_empty_file():
    assert find_blocks(parse(""), "resource") == []


def test_find_blocks_ss7_two_resources():
    cf = parse(SS7_SAMPLE, "ss7.tf")
    blocks = find_blocks(cf, "resource")
    assert len(blocks) == 2
    assert [b.labels[0] for b in blocks] == [
        "google_compute_network",
        "google_compute_subnetwork",
    ]


def test_find_blocks_nested_lifecycle():
    cf = parse(SS3_SAMPLE, "ss3.tf")
    assert find_blocks(cf, "lifecycle") == []  # not at top level


def test_attributes_retention():
    block = parse(SS4_SAMPLE).body[0]
    assert attributes(block)["retention_in_days"].value == NumberLit(365)
    assert "nonexistent" not in attributes(block)


def test_duplicate_attribute_last_wins_without_diagnostic():
    cf = parse('block {\n  name = "a"\n  name = "b"\n}\n')
    assert attributes(cf.body[0])["name"].value == StringLit("b")
    assert cf.diagnostics == []


def test_label_count_diagnostics():
    cf = parse('resource "only_type" {\n}\nterraform "extra" {\n}\n')
    assert [(b.block_type, b.labels) for b in cf.body] == [
        ("resource", ["only_type"]),
        ("terraform", ["extra"]),
    ]
    assert cf.diagnostics == []


def test_expression_values():
    cf = parse(
        'x {\n'
        '  s   = "plain"\n'
        '  n   = 42\n'
        '  f   = 1.5\n'
        '  neg = -7\n'
        '  b   = true\n'
        '  l   = [1, "two", false]\n'
        '  m   = { k = "v", n = 2 }\n'
        '  r   = aws_instance.app.id\n'
        '  t   = "pre-${aws_instance.app.id}-post"\n'
        '  o   = max(1, 2)\n'
        '  c   = var.x == "p" ? 1 : 2\n'
        "}\n"
    )
    block = cf.body[0]
    assert attributes(block)["s"].value == StringLit("plain")
    assert attributes(block)["n"].value == NumberLit(42)
    assert attributes(block)["f"].value == NumberLit(1.5)
    assert attributes(block)["neg"].value == NumberLit(-7)
    assert attributes(block)["b"].value == BoolLit(True)
    assert attributes(block)["l"].value == ListValue(
        (NumberLit(1), StringLit("two"), BoolLit(False))
    )
    m = attributes(block)["m"].value
    assert m == MapValue((("k", StringLit("v")), ("n", NumberLit(2))))
    assert attributes(block)["r"].value == Reference(("aws_instance", "app", "id"))
    t = attributes(block)["t"].value
    assert t == TemplateString(
        ("pre-", Reference(("aws_instance", "app", "id")), "-post")
    )
    o = attributes(block)["o"].value
    assert isinstance(o, Opaque) and o.text == "max(1, 2)"
    c = attributes(block)["c"].value
    assert isinstance(c, Opaque) and c.text == 'var.x == "p" ? 1 : 2'


def test_escaped_interpolation_is_literal():
    cf = parse('x {\n  v = "cost $${amount}"\n}\n')
    assert attributes(cf.body[0])["v"].value == StringLit("cost ${amount}")


def test_heredoc_value_dedents_indented_marker():
    cf = parse('x {\n  v = <<-EOT\n    hello\n    world\n  EOT\n}\n')
    assert attributes(cf.body[0])["v"].value == StringLit("hello\nworld\n")


def test_irrecoverable_garbage_yields_empty_body_and_diagnostics():
    cf = parse("???\n%%%\n")
    assert cf.body == []
    assert cf.diagnostics and all(d.severity == "error" for d in cf.diagnostics)


def test_recovery_skips_bad_block_keeps_good_ones():
    text = (
        'resource "aws_instance" "ok" {\n  ami = "a"\n}\n'
        "@@@ not hcl at all\n"
        'resource "aws_sqs_queue" "fine" {\n  name = "q"\n}\n'
    )
    cf = parse(text)
    assert [b.labels[1] for b in cf.body if isinstance(b, Block)] == ["ok", "fine"]
    assert cf.diagnostics


def test_parse_is_deterministic():
    text = (FIXTURES / "hcl" / "variety.tf").read_text()
    assert nodes_equal(parse(text, "a"), parse(text, "b"))


def test_span_soundness_every_node_reparses_to_equal_node():
    def walk(body):
        for node in body:
            yield node
            if isinstance(node, Block):
                yield from walk(node.body)

    for path in [FIXTURES / "hcl" / "variety.tf", FIXTURES / "samples" / "ss6.tf"]:
        text = path.read_text()
        cf = parse(text, str(path))
        for node in walk(cf.body):
            slice_text = span_text(text, node.span)
            reparsed = parse(slice_text)
            assert len(reparsed.body) == 1, slice_text
            assert nodes_equal(reparsed.body[0], node), slice_text


def test_delete_random_top_level_block_preserves_the_rest():
    rng = random.Random(20_24)
    candidates = []
    for path in fixture_corpus_files():
        text = path.read_bytes().decode("utf-8-sig")
        cf = parse(text, str(path))
        if len(cf.body) >= 2 and not cf.diagnostics:
            candidates.append((text, cf))
    assert candidates, "need multi-block fixtures"
    for _ in range(200):
        text, cf = candidates[rng.randrange(len(candidates))]
        victim_idx = rng.randrange(len(cf.body))
        victim = cf.body[victim_idx]
        lines = text.splitlines(keepends=True)
        start = victim.span.start_line - 1
        end = victim.span.end_line
        mutated = "".join(lines[:start] + lines[end:])
        remaining = parse(mutated).body
        expected = [n for i, n in enumerate(cf.body) if i != victim_idx]
        assert len(remaining) == len(expected)
        for got, want in zip(remaining, expected):
            assert nodes_equal(got, want)


def test_crlf_file_parses_with_correct_structure():
    text = (FIXTURES / "hcl" / "crlf.tf").read_bytes().decode("utf-8")
    cf = parse(text, "crlf.tf")
    assert [b.block_type for b in cf.body] == ["terraform", "resource"]
    assert cf.diagnostics == []


def test_unclosed_block_recovers_with_diagnostic():
    cf = parse('resource "a" "b" {\n  x = 1\n')
    assert len(cf.body) == 1
    assert any("not closed" in d.message for d in cf.diagnostics)


# Inputs that reach the parser's rarer branches: an empty or blank heredoc, a
# stray closer, an item that starts with no name, and a brace that is no map.
@pytest.mark.parametrize(
    "text, values, diagnostics",
    [
        pytest.param(
            "x = <<EOT",
            [StringLit("")],
            [("unterminated heredoc (missing 'EOT')", 4)],
            id="heredoc-opened-at-the-end",
        ),
        pytest.param(
            "x = <<-EOT\n  \nEOT\n", [StringLit("  \n")], [], id="indented-heredoc-of-blank-lines"
        ),
        pytest.param(
            "x = a)",
            [Opaque("a")],
            [("expected block or attribute, found punctuation ')'", 5)],
            id="stray-closer",
        ),
        pytest.param(
            '"x"\ny = 1',
            [NumberLit(1)],
            [("expected block or attribute, found string '\"x\"'", 0)],
            id="string-at-top-level",
        ),
        pytest.param(
            "= 1\ny = 2",
            [NumberLit(2)],
            [("expected block or attribute, found assign '='", 0)],
            id="assign-at-top-level",
        ),
        pytest.param("x = { 5 = 1 }", [Opaque("{ 5 = 1 }")], [], id="number-as-map-key"),
    ],
)
def test_values_and_diagnostics_of_rare_shapes(text, values, diagnostics):
    cf = parse(text)
    assert [a.value for a in cf.body] == values
    assert [(d.message, d.start) for d in cf.diagnostics] == diagnostics


_OPEN_AT_THE_END = pytest.mark.parametrize("text", ["x = [1,", "x = {a = 1"], ids=["list", "map"])


@_OPEN_AT_THE_END
def test_a_list_or_map_open_at_the_end_of_the_text_is_opaque_to_the_end(text):
    value = Opaque(text[4:])
    assert [a.value for a in parse(text).body] == [value]
    cf = parse(f'resource "a" "b" {{\n  {text}')
    assert [a.value for a in cf.body[0].body] == [value]
    assert [d.message for d in cf.diagnostics] == [
        "block 'resource' not closed before end of file"
    ]


@pytest.mark.xfail(
    strict=True,
    reason="a top-level open bracket is captured to the end unreported (ROADMAP item 5)",
)
@_OPEN_AT_THE_END
def test_a_list_or_map_open_at_the_end_of_the_text_is_diagnosed_at_top_level(text):
    assert parse(text).diagnostics


def _span(start_line, start_col, end_line, end_col):
    return SourceSpan("<input>", start_line, start_col, end_line, end_col)


# A comment is invisible to the parser: it never ends or splits an
# expression, and an attribute's span ends at its value, not at a comment.
@pytest.mark.parametrize(
    "text, body, errors",
    [
        pytest.param(
            'resource "a" "b" {\n  x = 1 + /* c */ 2\n  y = 3\n}\n',
            [
                located(
                    Block,
                    "resource",
                    ["a", "b"],
                    [
                        located(Attribute, "x", Opaque("1 + /* c */ 2"), span=_span(2, 3, 2, 20)),
                        located(Attribute, "y", NumberLit(3), span=_span(3, 3, 3, 8)),
                    ],
                    span=_span(1, 1, 4, 2),
                )
            ],
            0,
            id="comment-inside-opaque-keeps-block",
        ),
        pytest.param(
            "x = [f(x) /*c*/ + 1]\n",
            [
                located(
                    Attribute, "x", ListValue((Opaque("f(x) /*c*/ + 1"),)), span=_span(1, 1, 1, 21)
                )
            ],
            0,
            id="comment-inside-list-item",
        ),
        pytest.param(
            "x = - /*c*/ 5\n",
            [located(Attribute, "x", NumberLit(-5), span=_span(1, 1, 1, 14))],
            0,
            id="comment-after-minus",
        ),
        pytest.param(
            "x = a /*c*/ .b\n",
            [located(Attribute, "x", Reference(("a", "b")), span=_span(1, 1, 1, 15))],
            0,
            id="comment-before-dot",
        ),
        pytest.param(
            'x = "v" # c\ny = f(1) # c\n',
            [
                located(Attribute, "x", StringLit("v"), span=_span(1, 1, 1, 8)),
                located(Attribute, "y", Opaque("f(1)"), span=_span(2, 1, 2, 9)),
            ],
            0,
            id="span-ends-at-value",
        ),
    ],
)
def test_comments_are_invisible_to_the_parser(text, body, errors):
    cf = parse(text)
    assert cf.body == body
    assert len(cf.diagnostics) == errors


def test_unterminated_comment_is_still_reported():
    cf = parse('x = 1 /* open\n')
    assert cf.body == [located(Attribute, "x", NumberLit(1), span=_span(1, 1, 1, 6))]
    assert [d.message for d in cf.diagnostics] == ["unterminated block comment"]


@pytest.mark.parametrize(
    "literal, value",
    [
        (r'"a\nb\t\"\\"', StringLit('a\nb\t"\\')),
        (r'"\q\$"', StringLit("\\q\\$")),
        ('"cost $${amount} %%{ if }"', StringLit("cost ${amount} %{ if }")),
        ('"$$$${x}"', StringLit("$$${x}")),
        ('"a${b.c}\\n${f(1)}%{ if x }"', TemplateString(
            ("a", Reference(("b", "c")), "\n", Opaque("f(1)"), Opaque("if x"))
        )),
        ('"${ a.b }tail"', TemplateString((Reference(("a", "b")), "tail"))),
        ('"${ a.b "', TemplateString((Opaque('a.b "'),))),  # unterminated
    ],
)
def test_string_escapes_and_templates(literal, value):
    assert attributes(parse(f"v = {literal}\n"))["v"].value == value


# true, false and null are identifiers, as in HCL's native syntax: names of
# attributes, blocks, labels and map keys, and literals only as a lone value or
# as an interpolation of nothing else.
_KEYWORD_TEXTS = [
    pytest.param(
        "true = 1\n",
        [located(Attribute, "true", NumberLit(1), span=_span(1, 1, 1, 9))],
        id="attribute-name",
    ),
    pytest.param(
        "false {}\n", [located(Block, "false", [], [], span=_span(1, 1, 1, 9))], id="block-type"
    ),
    pytest.param(
        'resource "a" true {}\n',
        [located(Block, "resource", ["a", "true"], [], span=_span(1, 1, 1, 21))],
        id="block-label",
    ),
    pytest.param(
        "x = { true = 1 }\n",
        [located(Attribute, "x", MapValue((("true", NumberLit(1)),)), span=_span(1, 1, 1, 17))],
        id="map-key",
    ),
    pytest.param(
        "x = true\n",
        [located(Attribute, "x", BoolLit(True), span=_span(1, 1, 1, 9))],
        id="true-value",
    ),
    pytest.param(
        "x = false\n",
        [located(Attribute, "x", BoolLit(False), span=_span(1, 1, 1, 10))],
        id="false-value",
    ),
    pytest.param(
        "x = null\n",
        [located(Attribute, "x", Opaque("null"), span=_span(1, 1, 1, 9))],
        id="null-value",
    ),
    pytest.param(
        "x = a.true\n",
        [located(Attribute, "x", Reference(("a", "true")), span=_span(1, 1, 1, 11))],
        id="reference-segment",
    ),
    pytest.param(
        'x = "${true}"\n',
        [located(Attribute, "x", TemplateString((BoolLit(True),)), span=_span(1, 1, 1, 14))],
        id="interpolation",
    ),
    pytest.param(
        'x = "a${ false }${null}"\n',
        [
            located(
                Attribute,
                "x",
                TemplateString(("a", BoolLit(False), Opaque("null"))),
                span=_span(1, 1, 1, 25),
            )
        ],
        id="interpolations",
    ),
    pytest.param(
        "x = true.b\n",
        [located(Attribute, "x", Reference(("true", "b")), span=_span(1, 1, 1, 11))],
        id="reference-root",
    ),
    pytest.param(
        "x = null.b\n",
        [located(Attribute, "x", Reference(("null", "b")), span=_span(1, 1, 1, 11))],
        id="null-reference-root",
    ),
]


@pytest.mark.parametrize("text, body", _KEYWORD_TEXTS)
def test_keywords_are_names_and_lone_values_are_literals(text, body):
    cf = parse(text)
    assert cf.body == body
    assert cf.diagnostics == []


@pytest.mark.skipif(shutil.which("terraform") is None, reason="terraform is not on PATH")
@pytest.mark.parametrize("text, body", _KEYWORD_TEXTS)
def test_terraform_accepts_the_keyword_texts(text, body):
    result = subprocess.run(
        ["terraform", "fmt", "-"], input=text, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_a_keyword_that_starts_a_line_is_a_name():
    # An attribute's value cut off by a newline leaves "true" to start the
    # next line, where it names an attribute or a block that has neither.
    cf = parse("l {\n  c =\ntrue\n}\n")
    assert [d.message for d in cf.diagnostics] == [
        "expected value",
        "expected '=' or block labels after 'true', found '\\n'",
        "unexpected '}'",
    ]


def test_label_and_map_key_escapes_are_decoded():
    cf = parse('b "x\\ty" {\n  m = { "k\\"q" = 1 }\n}\n')
    assert cf.body[0].labels == ["x\ty"]
    assert attributes(cf.body[0])["m"].value == MapValue((('k"q', NumberLit(1)),))


# Quoted templates follow HCL's template grammar: "$${" is a literal "${",
# and an interpolation may hold braces, newlines and quoted strings.
@pytest.mark.parametrize(
    "text, body",
    [
        pytest.param(
            'x = "$${"\ny = 1\n',
            [
                located(Attribute, "x", StringLit("${"), span=_span(1, 1, 1, 10)),
                located(Attribute, "y", NumberLit(1), span=_span(2, 1, 2, 6)),
            ],
            id="escaped-marker-then-quote",
        ),
        pytest.param(
            'v = "${"}"}x"\n',
            [
                located(
                    Attribute, "v", TemplateString((Opaque('"}"'), "x")), span=_span(1, 1, 1, 14)
                )
            ],
            id="quote-inside-interpolation",
        ),
        pytest.param(
            'v = "${ {a=1}.a }"\n',
            [
                located(
                    Attribute, "v", TemplateString((Opaque("{a=1}.a"),)), span=_span(1, 1, 1, 19)
                )
            ],
            id="braces-inside-interpolation",
        ),
        pytest.param(
            'v = "${ {a=1}\n.a }"\n',
            [
                located(
                    Attribute, "v", TemplateString((Opaque("{a=1}\n.a"),)), span=_span(1, 1, 2, 6)
                )
            ],
            id="newline-after-braces-inside-interpolation",
        ),
        pytest.param(
            'b "a$${x}" {\n  m = { "%%{k}" = 1 }\n}\n',
            [
                located(
                    Block,
                    "b",
                    ["a${x}"],
                    [
                        located(
                            Attribute,
                            "m",
                            MapValue((("%{k}", NumberLit(1)),)),
                            span=_span(2, 3, 2, 22),
                        )
                    ],
                    span=_span(1, 1, 3, 2),
                )
            ],
            id="escaped-markers-in-label-and-key",
        ),
    ],
)
def test_template_grammar(text, body):
    cf = parse(text)
    assert cf.body == body
    assert cf.diagnostics == []


# A literal piece of a quoted template as written, and what it decodes to.
_LITERAL_PIECES = {
    "a": "a",
    " ": " ",
    "}": "}",
    "$x": "$x",
    "%x": "%x",
    "\\n": "\n",
    '\\"': '"',
    "\\\\": "\\",
    "\\q": "\\q",
    "$${": "${",
    "%%{": "%{",
}


def _template_source(pieces: list) -> str:
    return '"' + "".join(
        p if isinstance(p, str) else f"{p[0]}{{{p[1]}}}" for p in pieces
    ) + '"'


def _templates(expressions):
    """Valid quoted templates, as lists of literal pieces and (marker, expression)."""
    return st.lists(
        st.one_of(
            st.sampled_from(sorted(_LITERAL_PIECES)),
            st.tuples(st.sampled_from("$%"), expressions),
        ),
        max_size=6,
    )


_EXPRESSIONS = st.recursive(
    st.sampled_from(["a", "a.b", " x ", "1", "f(x)", "\n", "[1, 2]"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        inner.map(lambda e: "{" + e + "}"),
        _templates(inner).map(_template_source),
    ),
    max_leaves=8,
)


@given(_templates(_EXPRESSIONS))
@settings(max_examples=300, deadline=None)
def test_valid_templates_lex_whole_and_split_into_their_parts(pieces):
    source = _template_source(pieces)
    tokens = tokenize(source)
    assert [(t.text, t.error) for t in tokens[:-1]] == [(source, None)]

    expected: list = []
    for piece in pieces:
        if isinstance(piece, str):
            if expected and isinstance(expected[-1], str):
                expected[-1] += _LITERAL_PIECES[piece]
            else:
                expected.append(_LITERAL_PIECES[piece])
        else:
            expected.append(("interpolation", piece[1].strip()))

    cf = parse(f"v = {source}\n")
    assert cf.diagnostics == []
    value = attributes(cf)["v"].value
    if not any(isinstance(part, tuple) for part in expected):
        assert value == StringLit("".join(expected))
        return
    got = []
    for part in value.parts:
        if isinstance(part, Reference):
            got.append(("interpolation", ".".join(part.segments)))
        elif isinstance(part, Opaque):
            got.append(("interpolation", part.text))
        else:
            got.append(part)
    assert got == expected


def test_a_dropped_block_reports_only_its_errors():
    cf = parse('outer {\n  inner {\n    x = 1\n    x = 2\n  }\n  @\n}\nresource "a" {\n}\n')
    assert [(d.message, d.severity) for d in cf.diagnostics] == [
        ("expected block or attribute, found punctuation '@'", "error"),
        ("unexpected '}'", "error"),
    ]


_DEEP = 20_000


@pytest.mark.parametrize("opener, closer", [("[", "]"), ("{ a = ", " }")], ids=["list", "map"])
def test_deep_expression_is_opaque_below_the_depth_limit(opener, closer):
    cf = parse("x = " + opener * _DEEP + "1" + closer * _DEEP + "\n")
    assert cf.diagnostics == []
    value = attributes(cf)["x"].value
    for _ in range(64):
        assert isinstance(value, (ListValue, MapValue))
        value = value.items[0] if isinstance(value, ListValue) else value.entries[0][1]
    rest = _DEEP - 64
    assert value == Opaque((opener * rest + "1" + closer * rest).strip())


def test_deep_blocks_are_a_parse_error():
    cf = parse("b {\n" * _DEEP + "}\n" * _DEEP)
    assert cf.body == []
    assert cf.diagnostics[0].message == "blocks nested deeper than 64"


def test_deep_nested_templates_are_one_unterminated_string():
    cf = parse('x = ' + '"${' * _DEEP + "\n")
    assert [d.message for d in cf.diagnostics] == ["unterminated string"]
    assert isinstance(attributes(cf)["x"].value, TemplateString)


def _located_nodes(cf):
    """The file, its diagnostics, and every attribute and block, nested ones too."""
    yield cf
    yield from cf.diagnostics
    stack = list(cf.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Block):
            stack.extend(node.body)


def _fixture_id(path):
    return f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", fixture_corpus_files(), ids=_fixture_id)
def test_two_parses_of_one_text_compare_and_print_the_same(path):
    text = path.read_text(encoding="utf-8")
    first, second = parse(text, "f.tf"), parse(text, "f.tf")
    assert first.body and first.span is not None
    # The spans are built by the comparison itself, never shared between parses.
    assert first == second
    assert repr(parse(text, "f.tf")) == repr(parse(text, "f.tf"))
    assert first.body != parse(text, "g.tf").body  # each span names its file


@pytest.mark.parametrize("path", fixture_corpus_files(), ids=_fixture_id)
def test_spans_built_on_demand_equal_spans_built_eagerly(path):
    text = path.read_text(encoding="utf-8")
    eager = SourceText(str(path), text)
    for node in _located_nodes(parse(text, str(path))):
        assert node.span == eager.span(node.start, node.end), node
        if isinstance(node, Attribute):
            assert text[node.start : node.end].startswith(node.name)
        elif isinstance(node, Block):
            assert text[node.start : node.end].startswith(node.block_type)


# sha256 of repr(parse(text, rel)) for each fixture, read as bytes so CRLF
# stays: any change to a node, a value, a span or a diagnostic shows here.
_PARSE_SHA256 = {
    "clean/main.tf": "eba15f3ccf4a35a9f7d69392e07f5fdac00ad9b1cec73464abfc32d2f72c56a8",
    "hcl/bom.tf": "8138caa1d2212a890b09f7388d044ff1856572275a56acf68f64aa920beef394",
    "hcl/crlf.tf": "ba206a9348fc5ef695836a360beb00ec32415813339b8666eab1900a2bd4166b",
    "hcl/malformed.tf": "b2141553378abcd86abb4615ae05f00f1805bbd8c52933dd9511fe07cb8bd442",
    "hcl/variety.tf": "eb1f4692ad518eaaada1d7258ed791e6781f153cdcfb4a9bbf7ea60967479db2",
    "mutants/ss3_no_lifecycle/main.tf": "18e71917510da7d284dc0abfad443b17ea053296e39ed6241190df873f8086b0",
    "mutants/ss6_local_backend/main.tf": "3ecb7fde77db09f75c780268f09f1e567269d8f43093becb645549f01418352c",
    "mutants/ss6_no_backend/main.tf": "18312f48d70033466d663db14a018f2bf366dc39682fa79db302250e73a7bb73",
    "mutants/ss7_extended/main.tf": "3ec82fed419764d86aece80c4711bb676c500718c90845ad6d3d38861f36b36b",
    "samples/ss1.tf": "8231b8fd2487d90a5309f1d52667168f84ea2bb007244b09334a068fe1ed5905",
    "samples/ss2.tf": "bb7ad658028f7fbeffb058305fae9933d1b3ad7787396a07d1b59bbd6c8e85b5",
    "samples/ss3.tf": "2120354dc0615683caccd4a86e8049a91221dd9cc12cd30201e80329a60d5363",
    "samples/ss4.tf": "d7e70c028114672823b57a520b58386c2cb5eab1a2f1665afb90dfe3ec54d029",
    "samples/ss5.tf": "32294b9e99cc48956456aef558d240893e18e9cc15a30148289596fbe091a0fd",
    "samples/ss6.tf": "211cbe9cbe076fdc83db2d544e8d220fdb84114c90759fd3364cd678f21a426f",
    "samples/ss7.tf": "55afe29a0f1b7c84df0b84a7e37bbe7788bc088c3a3c11e629442092f23f66a8",
    "samples_extended/ss1.tf": "db9060ac61937b99308a0b46716fedd7f3228dfffcf15286a2e91fad0be75dd2",
    "samples_extended/ss2.tf": "03305d19d772ec18f2b10f8d4ad30c2c6f58b468a74d845966c4edba4ed5908b",
    "samples_extended/ss3.tf": "67832493a63ae05c1afc12ad1fb6ff59816a1c5a432d841d047467e79bf1718d",
    "samples_extended/ss4.tf": "b7ef16cd8ddf130edcabeba9310b77f82730571e5d4290cd6dbe5cabeab831e5",
    "samples_extended/ss5.tf": "5f90ed3cb466299f1adf4ad3cf9e1d187e6372ccc5170764b5d65367eee3a158",
    "samples_extended/ss6.tf": "b950c4cec79ed8022895c4a61e4304c61bbc48a180b01610e63dda9052b94806",
    "samples_extended/ss7.tf": "605f97a6ab0e3e1d8cfae7f56830eecbb4367a7ea179d0aae1deea9d9e1aecaf",
    "smelly/main.tf": "9141cd3537d3785706739382a48306919a127b1d9f5066fda6af363117b6f5e5",
}


def test_parse_of_every_fixture_matches_its_pinned_sha256():
    got = {}
    for path in fixture_corpus_files():
        rel = path.relative_to(FIXTURES).as_posix()
        text = path.read_bytes().decode("utf-8")
        got[rel] = hashlib.sha256(repr(parse(text, rel)).encode()).hexdigest()
    assert got == _PARSE_SHA256


def _parse_digest(texts: list[tuple[str, str]]) -> str:
    digest = hashlib.sha256()
    for rel, text in texts:
        digest.update(repr(parse(text, rel)).encode())
    return digest.hexdigest()


# sha256 of repr(parse(text, rel)) over the benchmark's shapes of input, in
# path order: the many small files of tests/synth.py and one large file of
# 3,000 resources. Every short path of the lexer and parser runs on them.
def test_parse_of_the_synth_corpus_matches_its_pinned_sha256(tmp_path):
    build_corpus(tmp_path)
    texts = [
        (path.relative_to(tmp_path).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(tmp_path.rglob("*.tf"))
    ]
    assert len(texts) == 200
    assert _parse_digest(texts) == (
        "706265700fd4103c37a5fac73de7815008214386fb65968321e5765e95d9c3a4"
    )


def test_parse_of_a_3000_resource_monolith_matches_its_pinned_sha256():
    text, _ = load_perfbench_corpus().monolith_text(3000, 1)
    assert _parse_digest([("main.tf", text)]) == (
        "9ef92c34719b0ae03a2a54f9f677f642d9dc03183e346a260c096bcf5b090915"
    )


# Comment shapes, and a newline, that a mutant gains at one random offset.
_COMMENT_INSERTS = ("#", "//", "/*", "*/", "/*/", "/* x */", "\n")
# A line that starts with the word true or false: the one place where the
# parse of a mutant turns on how those words lex, not on its comments.
_KEYWORD_LINE_RE = re.compile(r"^[ \t]*(?:true|false)(?![\w-])", re.MULTILINE)


def test_parse_of_comment_mutants_matches_its_pinned_sha256():
    # A comment cut short, begun inside a string or token, or left open to the
    # end of the text: any change to how comments are read shows here.
    rng = random.Random(1)
    files = [
        (path.relative_to(FIXTURES).as_posix(), path.read_bytes().decode("utf-8"))
        for path in fixture_corpus_files()
    ]
    texts = []
    while len(texts) < 2000:
        rel, text = rng.choice(files)
        insert = rng.choice(_COMMENT_INSERTS)
        at = rng.randrange(len(text) + 1)
        mutant = text[:at] + insert + text[at:]
        if not _KEYWORD_LINE_RE.search(mutant):
            texts.append((rel, mutant))
    assert _parse_digest(texts) == (
        "90813210e0065f44c55892354bf1e79809ee9b3129aed3ebb1aff8fc1235f468"
    )


# The characters a bracket mutant loses or doubles: what opens, closes or
# separates a list, a map, a call, an attribute or a string.
_BRACKET_CHARS = frozenset('[]{}(),="')


def test_parse_of_bracket_mutants_matches_its_pinned_sha256():
    # An unclosed or doubled bracket, a lost separator or a stray quote: any
    # change to how the parser recovers from broken brackets shows here.
    rng = random.Random(1)
    files = []
    for path in fixture_corpus_files():
        text = path.read_bytes().decode("utf-8")
        spots = [i for i, c in enumerate(text) if c in _BRACKET_CHARS]
        files.append((path.relative_to(FIXTURES).as_posix(), text, spots))
    texts = []
    for _ in range(2000):
        rel, text, spots = rng.choice(files)
        at = rng.choice(spots)
        copies = rng.choice((0, 2))  # delete it, or duplicate it
        texts.append((rel, text[:at] + text[at] * copies + text[at + 1 :]))
    assert _parse_digest(texts) == (
        "9cad2ec69aea6d9fd073db6ff17c5ad12baacca4abb0cddb80f0abf59500ab1b"
    )


# -- representation ------------------------------------------------------


def _all_nodes(cf):
    """Every node reachable from ``cf``, located or value; spans are not read."""
    stack = [cf]
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node):
            yield node
            stack.extend(
                getattr(node, f.name) for f in dataclasses.fields(node) if f.name != "span"
            )
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


def test_no_node_of_a_parsed_fixture_has_a_dict():
    types = set()
    for path in fixture_corpus_files():
        for node in _all_nodes(parse(path.read_text(encoding="utf-8"), str(path))):
            assert not hasattr(node, "__dict__"), node
            types.add(type(node))
    assert {ConfigFile, Diagnostic, Attribute, Block, StringLit, NumberLit, BoolLit,
            ListValue, MapValue, Reference, TemplateString, Opaque} <= types


def test_a_reference_has_at_least_one_segment():
    assert Reference(("a",)).segments == ("a",)
    with pytest.raises(ValueError, match="at least one segment"):
        Reference(())


def test_parse_hands_each_top_level_item_to_keep_and_holds_what_it_returns():
    text = 'a = 1\nresource "x" "y" {\n  b = 2\n}\n}\nvariable "v" {}\nc = @\n'
    whole = parse(text, "m.tf")
    seen = []

    def keep(item):
        seen.append(item)
        return item.name if isinstance(item, Attribute) else None

    kept = parse(text, "m.tf", keep)
    assert seen == whole.body and len(seen) == 4
    assert kept.body == ["a", "c"]
    assert kept.diagnostics == whole.diagnostics and len(whole.diagnostics) == 1


def test_parse_and_tokenize_use_the_callers_source_text():
    unit = SourceText("m.tf", 'resource "x" "y" {\n  b = 2\n}\n')
    tree = parse(unit, "ignored.tf")
    assert tree.source is unit and tree.body[0].body[0].source is unit
    assert tree.path == "m.tf" and tree == parse(unit.text, "m.tf")
    assert tokenize(unit).source is unit


def test_diagnostic_at_defaults_to_error_severity():
    source = SourceText("f.tf", "x = @")
    assert Diagnostic(source, 4, 5, "m").severity == "error"
    assert [d.severity for d in parse('x = "open\n}\n').diagnostics] == ["error", "error"]


@pytest.mark.parametrize("cls", [Attribute, Block, ConfigFile, Diagnostic])
def test_a_located_class_holds_each_field_in_one_slot_of_its_own(cls):
    # dataclass(slots=True) on Python 3.10 re-declares a slot that a base
    # already has, which would grow every node by a pointer per repeat.
    names = [f.name for f in dataclasses.fields(cls)]
    assert names[:3] == ["source", "start", "end"]
    assert cls.__slots__ == tuple(names)
    for base in cls.__mro__[1:]:
        assert not set(base.__dict__.get("__slots__", ())) & set(names), base
    assert cls.__basicsize__ == object.__basicsize__ + len(names) * struct.calcsize("P")


class _CountingSource(SourceText):
    def __init__(self, path, text):
        super().__init__(path, text)
        self.spans = 0

    def span(self, start, end):
        self.spans += 1
        return super().span(start, end)


def test_lazy_span_is_the_source_span_built_once():
    source = _CountingSource("<input>", 'a = 1\nb = "x"\n')
    node = Attribute(source, 6, 13, "b", StringLit("x"))
    assert source.spans == 0
    span = node.span
    assert span == SourceText("<input>", source.text).span(6, 13) == _span(2, 1, 2, 8)
    assert node.span is span and source.spans == 1
    assert node == located(Attribute, "b", StringLit("x"), span=span)
    assert repr(node) == repr(located(Attribute, "b", StringLit("x"), span=span))
    assert repr(node) == f"Attribute(name='b', value=StringLit(value='x'), span={span!r})"


def test_an_assigned_span_wins():
    given_span = _span(9, 9, 9, 10)
    node = Attribute(_CountingSource("f.tf", "a = 1\n"), 0, 5, "a", NumberLit(1))
    node.span = given_span
    assert node.span is given_span and node.source.spans == 0
    assert node != located(Attribute, "a", NumberLit(1), span=_span(1, 1, 1, 6))


def test_a_parse_keeps_one_string_per_distinct_name():
    text = "".join(
        f'resource "aws_instance" "r{k}" {{\n  peer = aws_instance.r0.id\n}}\n' for k in range(3)
    )
    blocks = parse(text).body
    for strings in (
        [b.block_type for b in blocks],
        [b.labels[0] for b in blocks],
        [b.body[0].name for b in blocks],
        [b.body[0].value.segments[0] for b in blocks],
        [b.body[0].value.segments[2] for b in blocks],
    ):
        assert len({id(string) for string in strings}) == 1, strings


def test_templates_are_scanned_once(monkeypatch):
    calls = []
    scan_template = lexer.scan_template

    def counting(text, start):
        calls.append(start)
        return scan_template(text, start)

    monkeypatch.setattr(lexer, "scan_template", counting)
    # A parser that scanned a template again would call its own import.
    monkeypatch.setattr(parser, "scan_template", counting, raising=False)
    cf = parse('a = "${x.y}-%{ z }"\nb = "$${x}"\n')
    assert calls == [4, 24]
    assert attributes(cf)["a"].value == TemplateString(
        (Reference(("x", "y")), "-", Opaque("z"))
    )
    assert attributes(cf)["b"].value == StringLit("${x}")


# -- memory ----------------------------------------------------------------


def _resources(n: int) -> str:
    """n commented resources with templates, a map and a reference each."""
    return "".join(
        f"# instance {k}\n"
        f'resource "aws_instance" "i{k}" {{\n'
        f'  ami           = "ami-{k:08d}"\n'
        f'  instance_type = "m5.large" // fixed\n'
        f'  tags = {{\n    Name = "${{var.env}}-{k}"\n  }}\n'
        f"  depends_on = [aws_instance.i{(k + 1) % n}]\n"
        "}\n"
        for k in range(n)
    )


def _parse_peak(text: str) -> int:
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak traced bytes of one parse per source byte of _resources(n). Python
# 3.11 measures 15.1; the parser that kept int offsets, a second set of token
# columns beside the first and nodes with a __dict__ measured 33.2.
_PARSE_PEAK_PER_BYTE = 22


def test_parse_peak_memory_is_linear_and_bounded():
    # Memory, not time: no clock in Tier-1. The warm-up parse fills the
    # regex and enum caches, which would otherwise count in the first n.
    parse(_resources(2))
    texts = {n: _resources(n) for n in (500, 1000)}
    peaks = {n: _parse_peak(text) for n, text in texts.items()}
    assert peaks[1000] / peaks[500] <= 2.2, peaks
    per_byte = {n: peaks[n] / len(texts[n]) for n in texts}
    assert max(per_byte.values()) < _PARSE_PEAK_PER_BYTE, per_byte
