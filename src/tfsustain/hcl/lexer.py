"""Lexer for a Terraform-sufficient subset of HCL.

The scanner is loss-free: every character of the input lands either in a
token's ``text`` or in the ``leading`` trivia (whitespace and comments) of
the token that follows it, so ``detokenize(tokenize(text)) == text`` holds
for arbitrary input, including malformed files. As in HCL, ``true`` and
``false`` are identifiers. Lexing never raises; an unterminated string or
heredoc is a token carrying an ``error`` message, an unterminated block
comment is an error at its ``/*``, and scanning continues.

:func:`tokenize` fills a byte of kind code and arrays of start and end
offsets into one shared :class:`SourceText`, with the errors and the template
interpolations keyed by start offset, and builds no object per token: the
:class:`Token` views are made only when the sequence is first indexed or
iterated. Line and column are computed from the line index only when a span
is asked for, so lexing builds no :class:`SourceSpan`.
"""

from __future__ import annotations

import enum
import re
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    STRING = "string"
    NUMBER = "number"
    PUNCT = "punctuation"
    BLOCK_OPEN = "block-open"
    BLOCK_CLOSE = "block-close"
    ASSIGN = "assign"
    HEREDOC = "heredoc"
    NEWLINE = "newline"
    EOF = "eof"


# A kind's code, the byte that stands for it in a Tokens column, is its place
# in declaration order: ``list(TokenKind)[code]`` is the kind of a code.
(IDENTIFIER, STRING, NUMBER, PUNCT, BLOCK_OPEN, BLOCK_CLOSE, ASSIGN, HEREDOC,
 NEWLINE, EOF) = range(len(TokenKind))


@dataclass(frozen=True)
class SourceSpan:
    """Half-open character region of one file; lines and columns are 1-based.

    ``end_col`` points one past the last character, so an empty span has
    ``start == end``.
    """

    file_id: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError(f"span start after end: {self}")


_NEWLINE_RE = re.compile("\n")


def offset_array(length: int) -> array:
    """An empty array for offsets into a text of ``length`` characters.

    Offsets run from 0 to ``length``: below ``2**31`` they fit ``array("i")``,
    four bytes each, and a longer text gets ``array("q")``, eight bytes each.
    """
    return array("i" if length < 2**31 else "q")


class SourceText:
    """One file's path and text, with the offset of each line's first character.

    The line index, an :func:`offset_array`, is built on the first
    :meth:`position` call, so a file whose spans are never read never builds
    it. Lines end only at ``"\\n"``; ``str.splitlines`` would also break at
    ``"\\r"``, ``"\\x0b"``, ``"\\x85"``, ``"\\u2028"`` and others.
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text

    @cached_property
    def line_starts(self) -> array:
        starts = offset_array(len(self.text))
        starts.append(0)
        starts.extend(map(re.Match.end, _NEWLINE_RE.finditer(self.text)))
        return starts

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of ``offset``."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        return SourceSpan(self.path, *self.position(start), *self.position(end))


@dataclass(slots=True, eq=False, repr=False)
class Token:
    """A view of one token of a :class:`Tokens` sequence, built when it is read.

    ``source.text[lead_start:start]`` is the leading trivia (whitespace,
    comments and a possible BOM) between the previous token and this one, and
    ``source.text[start:end]``, kept as ``text``, is the token itself.
    """

    kind: TokenKind
    lead_start: int
    start: int
    end: int
    text: str
    error: str | None
    source: SourceText

    @property
    def leading(self) -> str:
        return self.source.text[self.lead_start : self.start]

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start, self.end)

    def __repr__(self) -> str:
        return (
            f"Token({self.kind.name}, {self.text!r}, {self.start}:{self.end}, "
            f"error={self.error!r})"
        )


@dataclass(eq=False)
class Tokens(Sequence[Token]):
    """The tokens of one text as parallel columns; the last token is always EOF.

    Token ``i`` has kind ``list(TokenKind)[kinds[i]]`` and text
    ``source.text[starts[i]:ends[i]]``, and its leading trivia starts where
    token ``i - 1`` ends. ``kinds`` is a ``bytearray`` of kind codes, one
    byte a token; ``starts`` and ``ends`` are :func:`offset_array` columns,
    four bytes a token for a text shorter than ``2**31`` characters.
    ``errors`` maps the start offset of each token that carries an error to
    its message; no two tokens start at one offset, since only EOF is empty;
    an unterminated block comment is keyed by the offset of its ``/*``.
    ``interpolations`` maps the start offset of each quoted template that has
    interpolations or directives to their ``(open, close)`` offsets, as
    :func:`scan_template` reports them. Indexing, slicing and iteration read a
    list of :class:`Token` views built on first use; the parser reads the
    columns.
    """

    source: SourceText
    kinds: bytearray
    starts: array
    ends: array
    errors: dict[int, str]
    interpolations: dict[int, list[tuple[int, int]]]

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int | slice) -> Token | list[Token]:
        return self._views[index]

    def __iter__(self) -> Iterator[Token]:
        return iter(self._views)

    @cached_property
    def _views(self) -> list[Token]:
        text, errors, kind = self.source.text, self.errors, list(TokenKind)
        return [
            Token(kind[code], lead, start, end, text[start:end], errors.get(start), self.source)
            for code, lead, start, end in zip(
                self.kinds, [0, *self.ends], self.starts, self.ends
            )
        ]


# One alternative per token kind, tried in order after the trivia (spaces,
# tabs, a lone "\r", a BOM at offset 0, comments) that becomes the token's
# ``leading``; a "/*" with no "*/" after it is the ``unclosed`` group and runs
# to the end, where only EOF follows. The order is by how often a kind occurs
# in Terraform, so the common tokens fail the fewest alternatives first.
# Alternatives that can start at the same character keep their relative
# order: STRING before TEMPLATE, every other kind before PUNCT, and EOF last.
# Character classes are ASCII on purpose: a Unicode digit is punctuation.
# Identifiers follow HCL: dashes are legal after the first char. Two-character
# operators are kept whole so expression capture stays readable. STRING is a
# whole quoted string with nothing scan_template would stop at but escapes;
# any other quote is a TEMPLATE, read to its end by scan_template.
_TOKEN_RE = re.compile(
    r"""
    (?: [ \t] | \r(?!\n) | \A\ufeff | (?: \# | // ) (?: [^\r\n] | \r(?!\n) )*
      | /\*.*?\*/ | (?P<unclosed> /\* ) .* )*
    (?: (?P<NEWLINE> \r?\n )
      | (?P<IDENTIFIER> [A-Za-z_] [A-Za-z0-9_-]* )
      | (?P<STRING> " [^"\\\n$%]* (?: (?: \\. | [$%](?!\{) ) [^"\\\n$%]* )* " )
      | (?P<ASSIGN> = (?! [=>] ) )
      | (?P<BLOCK_OPEN> \{ )
      | (?P<BLOCK_CLOSE> \} )
      | (?P<TEMPLATE> " )
      | (?P<HEREDOC> <<-? (?P<tag> [A-Za-z0-9_-]* ) )
      | (?P<NUMBER> [0-9]+ (?: \.[0-9]+ )? (?: [eE][+-]?[0-9]+ )? )
      | (?P<PUNCT> == | != | <= | >= | && | \|\| | -> | => | . )
      | (?P<EOF> \Z )
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# The kind code of each group, by group number; None for the groups whose
# kind, error or end the regex alone does not settle.
_GROUP_KINDS = [None] * (_TOKEN_RE.groups + 1)
for _name, _index in _TOKEN_RE.groupindex.items():
    if _name in TokenKind.__members__ and _name not in ("HEREDOC", "EOF"):
        _GROUP_KINDS[_index] = list(TokenKind.__members__).index(_name)

# Where a template scan stops, by the innermost open frame. In a quoted
# template ('"'): an escape, an escaped marker ($${ or %%{), an interpolation
# or directive opener, the closing quote, a newline. In an interpolation's
# expression ("{"): a brace, or the quote that opens a nested template.
_TEMPLATE_STOPS = {
    '"': re.compile(r'\\.|([$%])\1\{|[$%]\{|"|\n', re.DOTALL),
    "{": re.compile(r'[{}"]'),
}


def tokenize(text: str | SourceText, file_id: str = "<input>") -> Tokens:
    """Scan ``text`` into tokens; the last token is always EOF.

    A :class:`SourceText` passed as ``text`` becomes the tokens' own, and its
    path is the file id.
    """
    source = text if isinstance(text, SourceText) else SourceText(file_id, text)
    text = source.text
    kinds = bytearray()
    starts, ends = offset_array(len(text)), offset_array(len(text))
    errors: dict[int, str] = {}
    interpolations: dict[int, list[tuple[int, int]]] = {}
    tokens = Tokens(source, kinds, starts, ends, errors, interpolations)
    add_kind, add_start, add_end = kinds.append, starts.append, ends.append
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            index = m.lastindex
            start, end = m.span(index)
            kind = _GROUP_KINDS[index]
            if kind is not None:
                add_kind(kind)
                add_start(start)
                add_end(end)
                continue
            group, error = m.lastgroup, None
            if group == "EOF":
                kind = EOF
                if (unclosed := m.start("unclosed")) >= 0:
                    errors[unclosed] = "unterminated block comment"
            elif group == "TEMPLATE":
                kind = STRING
                end, error, opened = scan_template(text, start)
                if opened:
                    interpolations[start] = opened
            elif m.group("tag"):
                kind = HEREDOC
                end, error = _heredoc_end(text, end, m.group("tag"))
            else:
                # "<<" with no tag: treat the two angle brackets as punctuation.
                kind = PUNCT
            add_kind(kind)
            add_start(start)
            add_end(end)
            if error:
                errors[start] = error
            if group == "EOF":
                return tokens
            if end != m.end():
                # The token ends past the regex match: the scan resumes there.
                pos = end
                break


def detokenize(tokens: Iterable[Token]) -> str:
    """Reassemble the exact source text from a token stream."""
    return "".join(t.leading + t.text for t in tokens)


def scan_template(
    text: str, start: int
) -> tuple[int, str | None, list[tuple[int, int]]]:
    """End, error and interpolations of the quoted template opening at ``start``.

    This is HCL's quoted-template grammar: ``\\`` escapes one character,
    ``$${`` and ``%%{`` are a literal ``${`` and ``%{``, and ``${`` or ``%{``
    opens an interpolation or directive that runs to its matching ``}``. An
    interpolation may hold braces, newlines and quoted templates of its own; a
    newline outside every interpolation leaves the template unterminated.

    Each interpolation outside any other is reported as ``(open, close)``: the
    offset of its ``$`` or ``%`` and of its closing ``}``, or the end of the
    text when it never closes. Nesting is kept on a list, not on the call
    stack, so no input is too deep.
    """
    interpolations = []
    opened = start
    stack = ['"']  # open frames: '"' a quoted template, "{" an expression brace
    pos = start + 1
    while m := _TEMPLATE_STOPS[stack[-1]].search(text, pos):
        stop, pos = m.group(), m.end()
        if stop == '"':
            if stack[-1] == "{":
                stack.append('"')
            elif len(stack) == 1:
                return pos, None, interpolations
            else:
                stack.pop()
        elif stop == "}":
            stack.pop()
            if len(stack) == 1:
                interpolations.append((opened, m.start()))
        elif stop in ("${", "%{", "{"):
            if len(stack) == 1:
                opened = m.start()
            stack.append("{")
        elif stop == "\n" and len(stack) == 1:
            return m.start(), "unterminated string", interpolations
    if len(stack) > 1:
        interpolations.append((opened, len(text)))
    return len(text), "unterminated string", interpolations


def _heredoc_end(text: str, pos: int, tag: str) -> tuple[int, str | None]:
    """End offset and error of the heredoc whose ``<<TAG`` ends at ``pos``.

    The body starts after the intro line and ends before the newline of the
    first line whose content, stripped of whitespace, equals the tag. A tag
    is letters, digits, ``_`` and ``-``, which a pattern takes literally.
    """
    end = re.compile(rf"\n[^\S\n]*{tag}[^\S\n]*(?=\n|\Z)").search(text, pos)
    if end:
        return end.end(), None
    return len(text), f"unterminated heredoc (missing {tag!r})"
