from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain.hcl import TokenKind, detokenize, span_text, tokenize

from conftest import fixture_corpus_files


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
        TokenKind.COMMENT,
        TokenKind.EOF,
    ]
    assert toks[0].text == "count"
    assert toks[2].text == "5"
    assert toks[3].text == "# Fixed number of instances"


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


def test_comment_styles_are_single_tokens():
    text = "# hash\n// slashes\n/* block\nspanning */\nx = 1\n"
    comments = [t for t in tokenize(text) if t.kind is TokenKind.COMMENT]
    assert [c.text for c in comments] == [
        "# hash",
        "// slashes",
        "/* block\nspanning */",
    ]


def test_heredoc_is_one_token():
    text = 'value = <<EOT\nline one\nline two\nEOT\n'
    toks = tokenize(text)
    heredocs = [t for t in toks if t.kind is TokenKind.HEREDOC]
    assert len(heredocs) == 1
    assert heredocs[0].text.startswith("<<EOT")
    assert heredocs[0].text.endswith("EOT")
    assert heredocs[0].error is None
    assert detokenize(toks) == text


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


@given(st.text(alphabet=_LINE_BREAKERS + ' ab1=#/*"{}<E$', max_size=120))
@settings(max_examples=300, deadline=None)
def test_spans_cover_every_character_on_arbitrary_text(text):
    for tok in tokenize(text):
        assert span_text(text, tok.span) == tok.text


def test_two_char_operators_stay_whole():
    toks = tokenize("x = a == b && c != d")
    puncts = [t.text for t in toks if t.kind is TokenKind.PUNCT]
    assert "==" in puncts and "&&" in puncts and "!=" in puncts


def test_bool_tokens():
    toks = tokenize("on = true\noff = false")
    bools = [t for t in toks if t.kind is TokenKind.BOOL]
    assert [b.text for b in bools] == ["true", "false"]
