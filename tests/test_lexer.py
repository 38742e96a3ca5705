from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain.hcl import SourceText, TokenKind, detokenize, lexer, parse, tokenize

from conftest import fixture_corpus_files, reference_heredoc_end, span_text


def kinds(text: str) -> list[str]:
    return [t.kind.value for t in tokenize(text)]


def test_empty_input_yields_only_eof():
    toks = tokenize("")
    assert [t.kind for t in toks] == [TokenKind.EOF]


def test_attribute_line_token_kinds():
    toks = tokenize("count = 5 # Fixed number of instances")
    assert [t.kind for t in toks] == [
        TokenKind.IDENTIFIER,
        TokenKind.ASSIGN,
        TokenKind.NUMBER,
        TokenKind.EOF,
    ]
    assert toks[0].text == "count"
    assert toks[2].text == "5"
    assert toks[3].leading == " # Fixed number of instances"


def test_round_trip_on_every_fixture_file():
    files = fixture_corpus_files()
    assert files, "fixture corpus is missing"
    for path in files:
        text = path.read_bytes().decode("utf-8")
        assert detokenize(tokenize(text, str(path))) == text, path


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_round_trip_on_arbitrary_text(text):
    assert detokenize(tokenize(text)) == text


def test_comment_styles_are_leading_trivia():
    text = "# hash\n// slashes\n/* block\nspanning */\nx = 1\n"
    toks = tokenize(text)
    assert [(t.kind, t.leading) for t in toks][:4] == [
        (TokenKind.NEWLINE, "# hash"),
        (TokenKind.NEWLINE, "// slashes"),
        (TokenKind.NEWLINE, "/* block\nspanning */"),
        (TokenKind.IDENTIFIER, ""),
    ]
    assert toks.errors == {}


def _trivia_end(leading: str) -> str | int | None:
    """What ``leading`` ends with: "line" for a line comment, the offset of an
    unterminated "/*", or None.

    Fails unless ``leading`` is whitespace and complete comments, of which
    the last may be a line comment or an unterminated block comment.
    """
    i = 0
    while i < len(leading):
        if leading[i] in " \t\r":
            i += 1
        elif leading.startswith(("#", "//"), i):
            assert "\n" not in leading[i:], leading
            return "line"
        elif leading.startswith("/*", i):
            close = leading.find("*/", i + 2)
            if close < 0:
                return i
            i = close + 2
        else:
            raise AssertionError(f"not trivia at {i}: {leading!r}")
    return None


@given(st.text(alphabet=' \n\r#/*x="{}', max_size=80))
@settings(max_examples=300, deadline=None)
def test_leading_trivia_is_whitespace_and_comments_only(text):
    toks = tokenize(text)
    starts = set(toks.starts)
    comment_errors = {at: msg for at, msg in toks.errors.items() if at not in starts}
    expected_errors = {}
    for tok in toks:
        end = _trivia_end(tok.leading)
        if end == "line":
            # A line comment runs to its line's end.
            assert tok.kind in (TokenKind.NEWLINE, TokenKind.EOF)
        elif end is not None:
            # An unterminated block comment runs to the end of the text.
            assert tok.kind is TokenKind.EOF
            expected_errors = {tok.lead_start + end: "unterminated block comment"}
    assert comment_errors == expected_errors


def test_heredoc_is_one_token():
    text = 'value = <<EOT\nline one\nline two\nEOT\n'
    toks = tokenize(text)
    heredocs = [t for t in toks if t.kind is TokenKind.HEREDOC]
    assert len(heredocs) == 1
    assert heredocs[0].text.startswith("<<EOT")
    assert heredocs[0].text.endswith("EOT")
    assert heredocs[0].error is None
    assert detokenize(toks) == text


# Heredoc bodies from tags, near-tags and every kind of whitespace str.strip()
# removes, including the ones that are not a line break to the lexer.
_HEREDOC_TAGS = st.sampled_from(["EOT", "E", "a-b_1", "-x"])
_HEREDOC_PIECES = st.sampled_from(
    ["EOT", "EO", "EOTX", "eot", "E", "a-b_1", "-x", "x", " ", "\t", "\r", "\r\n", "\n"]
    + ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
)


@given(
    tag=_HEREDOC_TAGS,
    intro=st.lists(_HEREDOC_PIECES, max_size=4),
    body=st.lists(_HEREDOC_PIECES, max_size=30),
)
@settings(max_examples=500, deadline=None)
def test_heredoc_end_agrees_with_the_line_loop(tag, intro, body):
    text = f"v = <<{tag}" + "".join(intro) + "".join(body)
    pos = text.index(tag) + len(tag)
    assert lexer._heredoc_end(text, pos, tag) == reference_heredoc_end(text, pos, tag)


def test_unterminated_string_yields_error_token_and_lexing_continues():
    text = 'a = "broken\nb = 2\n'
    toks = tokenize(text)
    strings = [t for t in toks if t.kind is TokenKind.STRING]
    assert len(strings) == 1 and strings[0].error is not None
    # lexing continued: the next line still tokenizes normally
    idents = [t.text for t in toks if t.kind is TokenKind.IDENTIFIER]
    assert idents == ["a", "b"]
    assert detokenize(toks) == text


def test_unterminated_heredoc_yields_error_token():
    text = "v = <<EOF\nnever closed\n"
    toks = tokenize(text)
    heredoc = next(t for t in toks if t.kind is TokenKind.HEREDOC)
    assert heredoc.error is not None
    assert detokenize(toks) == text


def test_template_string_with_nested_quotes_is_one_token():
    text = 'x = "${lookup(var.m, "key")}-suffix"\n'
    toks = tokenize(text)
    strings = [t for t in toks if t.kind is TokenKind.STRING]
    assert len(strings) == 1 and strings[0].error is None
    assert detokenize(toks) == text


def test_crlf_newlines_preserved():
    text = 'a = 1\r\nb = 2\r\n'
    toks = tokenize(text)
    newlines = [t for t in toks if t.kind is TokenKind.NEWLINE]
    assert all(t.text == "\r\n" for t in newlines)
    assert detokenize(toks) == text


def test_bom_preserved_in_leading_trivia():
    text = '﻿x = 1\n'
    toks = tokenize(text)
    assert toks[0].leading == "﻿"
    assert detokenize(toks) == text


@pytest.mark.parametrize("end", [(2, 1), (1, 9)])
def test_a_span_cannot_start_after_it_ends(end):
    lexer.SourceSpan("x.tf", 2, 2, 2, 2)  # an empty span is allowed
    with pytest.raises(ValueError, match="span start after end"):
        lexer.SourceSpan("x.tf", 2, 2, *end)


def test_spans_cover_every_character():
    text = 'resource "a" "b" {\n  n = 1\n}\n'
    for tok in tokenize(text):
        assert span_text(text, tok.span) == tok.text


def test_span_text_breaks_lines_only_at_newline():
    text = "a = 1\r b = 2\n"
    assert [span_text(text, t.span) for t in tokenize(text)] == [
        "a", "=", "1", "b", "=", "2", "\n", "",
    ]


# Every character str.splitlines breaks at, next to HCL punctuation.
_LINE_BREAKERS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; lines end only at "\\n"."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@given(
    st.text(
        alphabet=_LINE_BREAKERS + ' \t\ufeffab1eE.+-=#/*"{}<$%\\>![](),:\u0663',
        max_size=120,
    )
)
@settings(max_examples=300, deadline=None)
def test_spans_cover_every_character_on_arbitrary_text(text):
    offset = prev_end = 0
    for tok in tokenize(text):
        assert tok.lead_start == prev_end
        assert text[tok.lead_start : tok.start] == tok.leading
        assert text[tok.start : tok.end] == tok.text
        prev_end = tok.end
        assert span_text(text, tok.span) == tok.text
        offset += len(tok.leading)
        assert (tok.span.start_line, tok.span.start_col) == _line_col(text, offset)
        offset += len(tok.text)
        assert (tok.span.end_line, tok.span.end_col) == _line_col(text, offset)


def test_tokenize_builds_no_spans(monkeypatch):
    built = []

    class CountingSpan(lexer.SourceSpan):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(lexer, "SourceSpan", CountingSpan)
    text = (
        '# c\nresource "a" "b" {\n  n = -1.5 // x\n  on = true\n'
        "  t = [<<EOT\nbody\nEOT\n  ]\n}\n"
    )
    toks = tokenize(text)
    assert {t.kind for t in toks} == set(TokenKind)
    assert [t.leading for t in toks if "/" in t.leading or "#" in t.leading] == [
        "# c",
        " // x",
    ]
    assert [t.kind for t in toks if t.text == "true"] == [TokenKind.IDENTIFIER]
    assert built == []
    # The counter sees the spans that are built on demand.
    span = toks[1].span
    assert (span.start_line, span.start_col, span.end_line, span.end_col) == (2, 1, 2, 9)
    assert built == [span]


def test_parse_builds_no_line_index_until_a_span_is_read():
    # One diagnostic, the unterminated string; the one-label resource and the
    # duplicate attribute are not diagnosed.
    text = '# c\nresource "a" {\n  n = 1\n  n = 2\n}\nx = "open\n'
    cf = parse(text, "f.tf")
    assert len(cf.diagnostics) == 1
    assert "line_starts" not in vars(cf.source)
    span = cf.diagnostics[-1].span
    assert (span.start_line, span.start_col, span.end_line, span.end_col) == (6, 5, 6, 10)
    assert vars(cf.source)["line_starts"] == array("q", [0, 4, 19, 27, 35, 37, 47])


def _fields(tok):
    return (tok.kind, tok.lead_start, tok.start, tok.end, tok.text, tok.error, tok.leading)


@given(
    st.text(alphabet=' \t\r\n\ufeffaE1.-=#/*"{}<$%\\![],:', max_size=120),
    st.integers(-130, 130),
    st.integers(-130, 130),
)
@settings(max_examples=300, deadline=None)
def test_token_views_agree_however_they_are_read(text, a, b):
    toks = tokenize(text)
    n = len(toks)
    seen = [_fields(t) for t in toks]
    assert len(seen) == n and seen[-1][0] is TokenKind.EOF
    assert [_fields(toks[i]) for i in range(n)] == seen
    assert [_fields(toks[i - n]) for i in range(n)] == seen
    assert _fields(toks[-1]) == seen[-1]
    assert [_fields(t) for t in toks[a:b]] == seen[a:b]
    with pytest.raises(IndexError):
        toks[n]
    with pytest.raises(IndexError):
        toks[-n - 1]
    prev_end = 0
    for tok in toks:
        assert tok.lead_start == prev_end and tok.source is toks.source
        prev_end = tok.end


def test_two_char_operators_stay_whole():
    toks = tokenize("x = a == b && c != d")
    puncts = [t.text for t in toks if t.kind is TokenKind.PUNCT]
    assert "==" in puncts and "&&" in puncts and "!=" in puncts


def test_bool_tokens():
    toks = tokenize("on = true\noff = false")
    assert [(t.kind, t.text) for t in toks if t.kind is not TokenKind.NEWLINE] == [
        (TokenKind.IDENTIFIER, "on"),
        (TokenKind.ASSIGN, "="),
        (TokenKind.IDENTIFIER, "true"),
        (TokenKind.IDENTIFIER, "off"),
        (TokenKind.ASSIGN, "="),
        (TokenKind.IDENTIFIER, "false"),
        (TokenKind.EOF, ""),
    ]


# Every token of each text, as (kind, text, (start_line, start_col, end_line,
# end_col), leading, error): the lexer's rules at the edges of each token kind.
_PINNED = [
    pytest.param(
        "a\r\r\nb\r",
        [
            ("IDENTIFIER", "a", (1, 1, 1, 2), "", None),
            ("NEWLINE", "\r\n", (1, 3, 2, 1), "\r", None),
            ("IDENTIFIER", "b", (2, 1, 2, 2), "", None),
            ("EOF", "", (2, 3, 2, 3), "\r", None),
        ],
        id="lone-cr-next-to-crlf",
    ),
    pytest.param(
        "# c\r\n",
        [
            ("NEWLINE", "\r\n", (1, 4, 2, 1), "# c", None),
            ("EOF", "", (2, 1, 2, 1), "", None),
        ],
        id="hash-comment-crlf",
    ),
    pytest.param(
        "x // c\r",
        [
            ("IDENTIFIER", "x", (1, 1, 1, 2), "", None),
            ("EOF", "", (1, 8, 1, 8), " // c\r", None),
        ],
        id="slash-comment-cr-at-eof",
    ),
    pytest.param(
        "/*/ x */",
        [
            ("EOF", "", (1, 9, 1, 9), "/*/ x */", None),
        ],
        id="star-slash-does-not-close",
    ),
    pytest.param(
        "a /* b\nc",
        [
            ("IDENTIFIER", "a", (1, 1, 1, 2), "", None),
            ("EOF", "", (2, 2, 2, 2), " /* b\nc", None),
        ],
        id="unterminated-block-comment",
    ),
    pytest.param(
        '"a\\"b"',
        [
            ("STRING", '"a\\"b"', (1, 1, 1, 7), "", None),
            ("EOF", "", (1, 7, 1, 7), "", None),
        ],
        id="escaped-quote",
    ),
    pytest.param(
        '"${ "}" }"',
        [
            ("STRING", '"${ "}" }"', (1, 1, 1, 11), "", None),
            ("EOF", "", (1, 11, 1, 11), "", None),
        ],
        id="quote-inside-template",
    ),
    pytest.param(
        '"${\n}"',
        [
            ("STRING", '"${\n}"', (1, 1, 2, 3), "", None),
            ("EOF", "", (2, 3, 2, 3), "", None),
        ],
        id="newline-inside-template",
    ),
    pytest.param(
        '"abc\n',
        [
            ("STRING", '"abc', (1, 1, 1, 5), "", "unterminated string"),
            ("NEWLINE", "\n", (1, 5, 2, 1), "", None),
            ("EOF", "", (2, 1, 2, 1), "", None),
        ],
        id="string-ends-at-newline",
    ),
    pytest.param(
        'x = "\\',
        [
            ("IDENTIFIER", "x", (1, 1, 1, 2), "", None),
            ("ASSIGN", "=", (1, 3, 1, 4), " ", None),
            ("STRING", '"\\', (1, 5, 1, 7), " ", "unterminated string"),
            ("EOF", "", (1, 7, 1, 7), "", None),
        ],
        id="trailing-backslash",
    ),
    pytest.param(
        "v = <<EOT\nbody\n  EOT  \nx",
        [
            ("IDENTIFIER", "v", (1, 1, 1, 2), "", None),
            ("ASSIGN", "=", (1, 3, 1, 4), " ", None),
            ("HEREDOC", "<<EOT\nbody\n  EOT  ", (1, 5, 3, 8), " ", None),
            ("NEWLINE", "\n", (3, 8, 4, 1), "", None),
            ("IDENTIFIER", "x", (4, 1, 4, 2), "", None),
            ("EOF", "", (4, 2, 4, 2), "", None),
        ],
        id="padded-closing-tag",
    ),
    pytest.param(
        "<<-EOT\n  a\n  EOT\n",
        [
            ("HEREDOC", "<<-EOT\n  a\n  EOT", (1, 1, 3, 6), "", None),
            ("NEWLINE", "\n", (3, 6, 4, 1), "", None),
            ("EOF", "", (4, 1, 4, 1), "", None),
        ],
        id="indented-heredoc",
    ),
    pytest.param(
        "a << b <<-",
        [
            ("IDENTIFIER", "a", (1, 1, 1, 2), "", None),
            ("PUNCT", "<<", (1, 3, 1, 5), " ", None),
            ("IDENTIFIER", "b", (1, 6, 1, 7), " ", None),
            ("PUNCT", "<<-", (1, 8, 1, 11), " ", None),
            ("EOF", "", (1, 11, 1, 11), "", None),
        ],
        id="bare-heredoc-openers",
    ),
    pytest.param(
        "<<EOT\nabc\n",
        [
            ("HEREDOC", "<<EOT\nabc\n", (1, 1, 3, 1), "", "unterminated heredoc (missing 'EOT')"),
            ("EOF", "", (3, 1, 3, 1), "", None),
        ],
        id="unterminated-heredoc",
    ),
    pytest.param(
        "<<EOT\r\nabc\r\nEOT\r\n",
        [
            ("HEREDOC", "<<EOT\r\nabc\r\nEOT\r", (1, 1, 3, 5), "", None),
            ("NEWLINE", "\n", (3, 5, 4, 1), "", None),
            ("EOF", "", (4, 1, 4, 1), "", None),
        ],
        id="crlf-heredoc",
    ),
    pytest.param(
        "1.5e+3 1. 1e 1.e5",
        [
            ("NUMBER", "1.5e+3", (1, 1, 1, 7), "", None),
            ("NUMBER", "1", (1, 8, 1, 9), " ", None),
            ("PUNCT", ".", (1, 9, 1, 10), "", None),
            ("NUMBER", "1", (1, 11, 1, 12), " ", None),
            ("IDENTIFIER", "e", (1, 12, 1, 13), "", None),
            ("NUMBER", "1", (1, 14, 1, 15), " ", None),
            ("PUNCT", ".", (1, 15, 1, 16), "", None),
            ("IDENTIFIER", "e5", (1, 16, 1, 18), "", None),
            ("EOF", "", (1, 18, 1, 18), "", None),
        ],
        id="number-shapes",
    ),
    pytest.param(
        "x = \u0663",
        [
            ("IDENTIFIER", "x", (1, 1, 1, 2), "", None),
            ("ASSIGN", "=", (1, 3, 1, 4), " ", None),
            ("PUNCT", "\u0663", (1, 5, 1, 6), " ", None),
            ("EOF", "", (1, 6, 1, 6), "", None),
        ],
        id="non-ascii-digit",
    ),
    pytest.param(
        "a == b => c -> d && e",
        [
            ("IDENTIFIER", "a", (1, 1, 1, 2), "", None),
            ("PUNCT", "==", (1, 3, 1, 5), " ", None),
            ("IDENTIFIER", "b", (1, 6, 1, 7), " ", None),
            ("PUNCT", "=>", (1, 8, 1, 10), " ", None),
            ("IDENTIFIER", "c", (1, 11, 1, 12), " ", None),
            ("PUNCT", "->", (1, 13, 1, 15), " ", None),
            ("IDENTIFIER", "d", (1, 16, 1, 17), " ", None),
            ("PUNCT", "&&", (1, 18, 1, 20), " ", None),
            ("IDENTIFIER", "e", (1, 21, 1, 22), " ", None),
            ("EOF", "", (1, 22, 1, 22), "", None),
        ],
        id="two-char-operators",
    ),
    pytest.param(
        "a-b",
        [
            ("IDENTIFIER", "a-b", (1, 1, 1, 4), "", None),
            ("EOF", "", (1, 4, 1, 4), "", None),
        ],
        id="dashed-identifier",
    ),
    pytest.param(
        "true false truex",
        [
            ("IDENTIFIER", "true", (1, 1, 1, 5), "", None),
            ("IDENTIFIER", "false", (1, 6, 1, 11), " ", None),
            ("IDENTIFIER", "truex", (1, 12, 1, 17), " ", None),
            ("EOF", "", (1, 17, 1, 17), "", None),
        ],
        id="bools",
    ),
    pytest.param(
        "\ufeffa\ufeffb",
        [
            ("IDENTIFIER", "a", (1, 2, 1, 3), "\ufeff", None),
            ("PUNCT", "\ufeff", (1, 3, 1, 4), "", None),
            ("IDENTIFIER", "b", (1, 4, 1, 5), "", None),
            ("EOF", "", (1, 5, 1, 5), "", None),
        ],
        id="bom-at-start-and-middle",
    ),
    pytest.param(
        "a \t",
        [
            ("IDENTIFIER", "a", (1, 1, 1, 2), "", None),
            ("EOF", "", (1, 4, 1, 4), " \t", None),
        ],
        id="trailing-trivia",
    ),
]


@pytest.mark.parametrize("text, expected", _PINNED)
def test_pinned_tokens_on_edge_cases(text, expected):
    got = [
        (
            t.kind.name,
            t.text,
            (t.span.start_line, t.span.start_col, t.span.end_line, t.span.end_col),
            t.leading,
            t.error,
        )
        for t in tokenize(text)
    ]
    assert got == expected


def test_tokens_keep_offsets_in_arrays_and_read_as_a_sequence():
    text = 'a = "x${b}" # c\n/* d */ e = [1]\n'
    toks = tokenize(text)
    for column in (toks.starts, toks.ends):
        assert isinstance(column, array) and column.typecode == "i"
    n = len(toks)
    assert n == len(toks.kinds) == len(toks.starts) == len(toks.ends)
    assert [t.text for t in toks] == [text[s:e] for s, e in zip(toks.starts, toks.ends)]
    assert [toks[i].start for i in range(n)] == list(toks.starts)
    assert [t.end for t in toks[2:5]] == list(toks.ends[2:5])
    assert toks[-1].kind is TokenKind.EOF and toks[-1].start == len(text)
    assert detokenize(toks) == text
    assert detokenize(toks[:4]) + detokenize(toks[4:]) == text


@pytest.mark.parametrize("length, typecode", [(2**31 - 1, "i"), (2**31, "q")])
def test_offsets_of_any_text_fit_their_columns(length, typecode):
    class Sized(str):
        """A short text that reports ``length`` characters, so none are allocated."""

        def __len__(self) -> int:
            return length

    text = Sized("a = 1\n")
    toks = tokenize(text)
    for column in (toks.starts, toks.ends, SourceText("x.tf", text).line_starts):
        assert column.typecode == typecode
    # Offsets run up to the length itself, where EOF starts.
    column = lexer.offset_array(length)
    column.append(length)
    assert column[0] == length


def test_tokens_keep_template_interpolations_by_start_offset():
    text = 'x = "a${b}c%{d}e"\ny = "plain"\nz = "$${no}"\nw = "${open\n'
    toks = tokenize(text)
    assert toks.interpolations == {4: [(6, 9), (11, 14)], 47: [(48, len(text))]}
    assert toks.errors == {47: "unterminated string"}

