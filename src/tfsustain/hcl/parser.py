"""Error-recovering parser producing ConfigFile ASTs from HCL source.

The parser understands the Terraform subset the detectors need: blocks,
attributes, literals, lists, maps, heredocs, references, and string
templates. Anything richer (function calls, conditionals, for-expressions)
is preserved as an ``Opaque`` value with its verbatim source text. The
parser never sees a comment, and ``true``, ``false`` and ``null`` are names
like any other identifier, literals only as a lone value or interpolation.

Top-level items are parsed one at a time, and ``parse`` can hand each to a
``keep`` function as soon as it is parsed, so a caller that reduces items
never holds a whole file's tree.

Parsing never raises. Malformed input is skipped at roughly top-level-block
granularity, each skip recorded as a diagnostic, so a corpus scan can chew
through arbitrarily broken files. Blocks, lists and maps nest at most
``_MAX_DEPTH`` deep: a deeper list or map is kept as ``Opaque`` text and a
deeper block is a parse error, so no input exhausts the call stack.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence

from .ast import (
    Attribute,
    Block,
    BoolLit,
    ConfigFile,
    Diagnostic,
    ExpressionValue,
    ListValue,
    MapValue,
    NumberLit,
    Opaque,
    Reference,
    StringLit,
    TemplateString,
)
from .lexer import (
    SourceText, TokenKind, Tokens, tokenize,
    # The kind codes, the byte of each token: the parser tests one at almost every token.
    IDENTIFIER, STRING, NUMBER, PUNCT, BLOCK_OPEN, BLOCK_CLOSE, ASSIGN, HEREDOC, NEWLINE, EOF,
)

_MAX_DEPTH = 64
_LABEL_START = (STRING, IDENTIFIER, BLOCK_OPEN)  # what may follow a block type
_SEGMENT_KINDS = (IDENTIFIER, NUMBER)  # what may follow a '.' in a reference
# A lone identifier that is a literal in an expression.
_KEYWORDS = {"true": BoolLit(True), "false": BoolLit(False), "null": Opaque("null")}

# Token texts that end an expression, per context; "" is EOF. Punctuation is
# told by its text alone: no other token kind has these texts.
_ATTR_ENDS = frozenset({"\n", "\r\n", "", "}"})
_LIST_ENDS = frozenset({"\n", "\r\n", "", ",", "]"})
_MAP_ENDS = frozenset({"\n", "\r\n", "", ",", "}"})
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")

_REFERENCE_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_-]*(?:\.(?:[A-Za-z_][A-Za-z0-9_-]*|\d+|\*))*\Z"
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# What a quoted string's literal text escapes: a backslash escape, or a
# template marker written as $${ or %%{.
_ESCAPE_RE = re.compile(r"\\.|([$%])\1\{", re.DOTALL)


def parse(
    text: str | SourceText,
    path: str = "<input>",
    keep: Callable[[Block | Attribute], object] | None = None,
) -> ConfigFile:
    """Parse HCL text into a ConfigFile; never raises on bad input.

    A :class:`SourceText` passed as ``text`` is the one every node points
    at, and its path is the file's. With ``keep``, each top-level item goes
    to ``keep`` as soon as it is parsed, and the body holds what ``keep``
    returns, in source order, except None: no item outlives its call unless
    ``keep`` holds on to it. The diagnostics are the same either way.
    """
    tokens = tokenize(text, path)
    parser = _Parser(tokens)
    items = parser.parse_top()
    # map drops each item as soon as keep returns; a loop variable would
    # hold it while the next one is parsed.
    body = list(items) if keep is None else [k for k in map(keep, items) if k is not None]
    # A lexer error ends where the first token at or after it ends: its own
    # token, or EOF for an unterminated comment in EOF's leading trivia.
    source, starts, ends = tokens.source, tokens.starts, tokens.ends
    diagnostics = parser.diagnostics + [
        Diagnostic(source, start, ends[bisect_left(starts, start)], message)
        for start, message in tokens.errors.items()
    ]
    return ConfigFile(source, 0, len(source.text), source.path, body, diagnostics)


def find_blocks(node: ConfigFile | Block, block_type: str) -> list[Block]:
    """The direct child blocks of the given type, in source order."""
    return [b for b in node.body if isinstance(b, Block) and b.block_type == block_type]


def attributes(node: ConfigFile | Block) -> dict[str, Attribute]:
    """The direct attributes by name; the last assignment wins on duplicates."""
    return {a.name: a for a in node.body if isinstance(a, Attribute)}


# ---------------------------------------------------------------------------
# Parser internals
# ---------------------------------------------------------------------------


class _ParseError(Exception):
    """A parse failure at token ``at``."""

    def __init__(self, message: str, at: int) -> None:
        super().__init__(message)
        self.at = at


class _Parser:
    """Parses by index over the parallel token columns of one text.

    Token ``i`` has kind code ``kinds[i]`` and text ``text[starts[i]:ends[i]]``;
    the last token is EOF, and the cursor ``i`` never moves past it.
    ``errors`` and ``interpolations`` are the lexer's, keyed by start offset.
    """

    def __init__(self, tokens: Tokens) -> None:
        self.source = tokens.source
        self.text = tokens.source.text
        self.kinds, self.starts, self.ends = tokens.kinds, tokens.starts, tokens.ends
        self.errors, self.interpolations = tokens.errors, tokens.interpolations
        self.i = 0
        self.diagnostics: list[Diagnostic] = []
        # One string per distinct name, label and reference segment: a large
        # file repeats a few hundred of them thousands of times.
        self.names: dict[str, str] = {}

    def _text(self, i: int) -> str:
        return self.text[self.starts[i] : self.ends[i]]

    def _error(self, message: str, i: int) -> Diagnostic:
        return Diagnostic(self.source, self.starts[i], self.ends[i], message)

    def _skip_newlines(self) -> int:
        """Move past newlines; return the current token's kind code."""
        kinds, i = self.kinds, self.i
        while kinds[i] == NEWLINE:
            i += 1
        self.i = i
        return kinds[i]

    # -- top level -------------------------------------------------------

    def parse_top(self) -> Iterator[Block | Attribute]:
        """Each top-level item as soon as it is parsed; the diagnostics are complete at the end."""
        kinds = self.kinds
        while True:
            i = self.i
            while kinds[i] == NEWLINE:
                i += 1
            self.i = i
            kind = kinds[i]
            if kind == EOF:
                return
            if kind == BLOCK_CLOSE:
                self.diagnostics.append(self._error("unexpected '}'", i))
                self.i = i + 1
                continue
            try:
                # Yielded with no local name, so the frame keeps no item.
                yield self._parse_item(0)
            except _ParseError as err:
                self.diagnostics.append(self._error(err.args[0], err.at))
                self._sync()

    def _sync(self) -> None:
        """Skip to the next plausible top-level item after a parse error."""
        kinds, i = self.kinds, self.i
        depth = 0
        while (kind := kinds[i]) != EOF:
            i += 1
            if kind == NEWLINE and depth <= 0:
                break
            if kind == BLOCK_OPEN:
                depth += 1
            elif kind == BLOCK_CLOSE:
                depth -= 1
        self.i = i

    # -- items -------------------------------------------------------------

    def _parse_item(self, depth: int) -> Block | Attribute:
        kinds, head = self.kinds, self.i
        if kinds[head] != IDENTIFIER:
            raise _ParseError(
                f"expected block or attribute, found {list(TokenKind)[kinds[head]].value} "
                f"{self._text(head)!r}",
                head,
            )
        start = self.starts[head]
        name = self.text[start : self.ends[head]]
        name = self.names.setdefault(name, name)
        self.i = i = head + 1
        kind = kinds[i]

        if kind == ASSIGN:
            self.i = i + 1
            value = self._parse_expression(_ATTR_ENDS, depth)
            end = self.ends[self.i - 1]
            return Attribute(self.source, start, end, name, value)

        if kind in _LABEL_START:
            text, starts, ends, errors = self.text, self.starts, self.ends, self.errors
            labels: list[str] = []
            while True:
                kind = kinds[i]
                if kind == STRING:
                    at = starts[i]
                    label = _decode(text, at + 1, ends[i] - (at not in errors))
                elif kind == IDENTIFIER:
                    label = text[starts[i] : ends[i]]
                else:
                    break
                labels.append(self.names.setdefault(label, label))
                i += 1
            self.i = i
            if kind != BLOCK_OPEN:
                raise _ParseError(
                    f"expected '{{' to open {name!r} block, found {self._text(i)!r}", i
                )
            if depth == _MAX_DEPTH:
                raise _ParseError(f"blocks nested deeper than {_MAX_DEPTH}", i)
            self.i = i + 1
            body = self._parse_block_body(head, depth + 1)
            end = self.ends[self.i - 1]
            return Block(self.source, start, end, name, labels, body)

        raise _ParseError(
            f"expected '=' or block labels after {name!r}, found {self._text(i)!r}", i
        )

    def _parse_block_body(self, head: int, depth: int) -> list[Block | Attribute]:
        kinds, body = self.kinds, []
        while True:
            i = self.i
            while kinds[i] == NEWLINE:
                i += 1
            kind = kinds[i]
            if kind == BLOCK_CLOSE:
                self.i = i + 1
                return body
            self.i = i
            if kind == EOF:
                self.diagnostics.append(
                    self._error(f"block {self._text(head)!r} not closed before end of file", head)
                )
                return body
            body.append(self._parse_item(depth))

    # -- expressions ---------------------------------------------------

    def _parse_expression(self, ends: frozenset[str], depth: int) -> ExpressionValue:
        """The value at the cursor, or its text as ``Opaque`` if it is none the parser reads.

        A value must be followed by a newline or by a token whose text is in
        ``ends``. A one-token literal or a reference, the common values, is
        read here with no call beyond its node's.
        """
        kinds, text, start = self.kinds, self.text, self.i
        kind, at, end = kinds[start], self.starts[start], self.ends[start]
        i = start + 1  # the token after a one-token value
        try:
            if kind == STRING:
                opened = self.interpolations.get(at)
                if opened:
                    value = _string_value(text, at, end, self.errors.get(at), opened)
                else:
                    value = StringLit(_decode(text, at + 1, end - (at not in self.errors)))
            elif kind == IDENTIFIER:
                value = self._parse_reference()
                i = self.i
            elif kind == NUMBER:
                value = NumberLit(_number(text[at:end]))
            elif kind == HEREDOC:
                value = StringLit(_heredoc_body(text[at:end], self.errors.get(at)))
            elif text[at:end] == "-" and kinds[i] == NUMBER:
                value = NumberLit(-_number(self._text(i)))
                i += 1
            elif (kind == BLOCK_OPEN or text[at:end] == "[") and depth < _MAX_DEPTH:
                # A list or map nested deeper is kept as Opaque.
                value = (self._parse_map if kind == BLOCK_OPEN else self._parse_list)(depth + 1)
                i = self.i
            else:
                raise _ParseError("expected value", start)
            # A newline ends every expression, and needs no text read.
            if kinds[i] == NEWLINE or text[self.starts[i] : self.ends[i]] in ends:
                self.i = i
                return value
        except _ParseError:
            pass
        self.i = start
        return self._opaque_capture(ends)

    # A list or map left open at the end of the text fails at the read of its
    # next element or key, and the caller captures its text as Opaque.
    def _parse_list(self, depth: int) -> ListValue:
        self.i += 1  # [
        items: list[ExpressionValue] = []
        while True:
            if self._skip_newlines() == PUNCT and self._text(self.i) == "]":
                self.i += 1
                return ListValue(tuple(items))
            items.append(self._parse_expression(_LIST_ENDS, depth))
            if self._skip_newlines() == PUNCT and self._text(self.i) == ",":
                self.i += 1

    def _parse_map(self, depth: int) -> MapValue:
        self.i += 1  # {
        entries: list[tuple[str, ExpressionValue]] = []
        while True:
            kind = self._skip_newlines()
            i = self.i
            if kind == BLOCK_CLOSE:
                self.i = i + 1
                return MapValue(tuple(entries))
            at, end = self.starts[i], self.ends[i]
            if kind == IDENTIFIER:
                key = self.text[at:end]
            elif kind == STRING:
                key = _decode(self.text, at + 1, end - (at not in self.errors))
            else:
                raise _ParseError(f"expected map key, found {self.text[at:end]!r}", i)
            self.i = i = i + 1
            sep = self._text(i)
            if sep not in ("=", ":"):
                raise _ParseError(f"expected '=' or ':' after map key, found {sep!r}", i)
            self.i = i + 1
            entries.append((key, self._parse_expression(_MAP_ENDS, depth)))
            if self._skip_newlines() == PUNCT and self._text(self.i) == ",":
                self.i += 1

    def _parse_reference(self) -> ExpressionValue:
        kinds, text, starts, ends, names = self.kinds, self.text, self.starts, self.ends, self.names
        i = self.i
        segment = text[starts[i] : ends[i]]
        segments = [names.setdefault(segment, segment)]
        i += 1
        while kinds[i] == PUNCT and text[starts[i] : ends[i]] == ".":
            segment = text[starts[i + 1] : ends[i + 1]]
            if kinds[i + 1] not in _SEGMENT_KINDS and segment != "*":
                break
            i += 2
            segments.append(names.setdefault(segment, segment))
        self.i = i
        if len(segments) == 1 and segments[0] in _KEYWORDS:
            return _KEYWORDS[segments[0]]
        return Reference(tuple(segments))

    def _opaque_capture(self, ends: frozenset[str]) -> Opaque:
        """Consume one expression verbatim, balancing brackets."""
        kinds, start = self.kinds, self.i
        i, depth = start, 0
        while kinds[i] != EOF:
            text = self._text(i)
            if depth == 0 and text in ends:
                break
            if text in _OPENERS:
                depth += 1
            elif text in _CLOSERS:
                depth -= 1
                if depth < 0:
                    break
            i += 1
        self.i = i
        if i == start:
            raise _ParseError("expected value", i)
        return Opaque(self.text[self.starts[start] : self.ends[i - 1]])


# ---------------------------------------------------------------------------
# Literal decoding
# ---------------------------------------------------------------------------


def _number(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _decode(text: str, start: int, end: int) -> str:
    """The literal text ``text[start:end]`` with its escapes decoded.

    A quoted string's content runs from after its opening quote to before its
    closing one, which an unterminated string lacks.
    """
    literal = text[start:end]
    if "\\" not in literal and "{" not in literal:
        return literal  # nothing to decode, and re.sub would still cost
    return _ESCAPE_RE.sub(_unescape, literal)


def _unescape(m: re.Match) -> str:
    """What an escape stands for; an unknown backslash escape stays as written."""
    text = m.group()
    return text[1:] if m.group(1) else _ESCAPES.get(text[1], text)


def _string_value(
    text: str,
    start: int,
    end: int,
    error: str | None,
    interpolations: Sequence[tuple[int, int]],
) -> TemplateString:
    """The quoted template ``text[start:end]``, which has interpolations or directives.

    ``interpolations`` are the lexer's ``(open, close)`` offsets of the
    string's interpolations and directives, in ``text``.
    """
    parts: list[str | Reference | BoolLit | Opaque] = []
    pos = start + 1  # after the opening quote
    for opened, closed in interpolations:
        if opened > pos:
            parts.append(_decode(text, pos, opened))
        content = text[opened + 2 : closed].strip()
        if text[opened] == "$" and content in _KEYWORDS:
            parts.append(_KEYWORDS[content])
        elif text[opened] == "$" and _REFERENCE_RE.match(content):
            parts.append(Reference(tuple(content.split("."))))
        else:
            parts.append(Opaque(content))
        pos = closed + 1
    literal = _decode(text, pos, end - (error is None))
    if literal:
        parts.append(literal)
    return TemplateString(tuple(parts))


def _heredoc_body(text: str, error: str | None) -> str:
    nl = text.find("\n")
    if nl < 0:
        return ""
    body = text[nl + 1 :]
    if error is None:
        last_nl = body.rfind("\n")
        body = body[: last_nl + 1] if last_nl >= 0 else ""
    if text.startswith("<<-"):
        body = _dedent_heredoc(body)
    return body


def _dedent_heredoc(body: str) -> str:
    lines = body.split("\n")
    indents = [
        len(line) - len(line.lstrip(" \t")) for line in lines if line.strip()
    ]
    if not indents:
        return body
    cut = min(indents)
    return "\n".join(line[cut:] if line.strip() else line for line in lines)
