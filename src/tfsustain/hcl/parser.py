"""Error-recovering parser producing ConfigFile ASTs from HCL source.

The parser understands the Terraform subset the detectors need: blocks,
attributes, literals, lists, maps, heredocs, references, and string
templates. Anything richer (function calls, conditionals, for-expressions)
is preserved as an ``Opaque`` value with its verbatim source text.

Parsing never raises. Malformed input is skipped at roughly top-level-block
granularity, each skip recorded as a diagnostic, so a corpus scan can chew
through arbitrarily broken files. Blocks, lists and maps nest at most
``_MAX_DEPTH`` deep: a deeper list or map is kept as ``Opaque`` text and a
deeper block is a parse error, so no input exhausts the call stack.
"""

from __future__ import annotations

import re

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
from .lexer import Token, TokenKind, scan_template, tokenize

# Expected label counts, enforced as warnings only.
_LABEL_COUNTS = {"resource": 2, "terraform": 0, "backend": 1}

_MAX_DEPTH = 64

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


def parse(text: str, path: str = "<input>") -> ConfigFile:
    """Parse HCL text into a ConfigFile; never raises on bad input."""
    tokens = tokenize(text, path)
    # Token errors come from every token; the parser never sees a comment.
    errors = [tok for tok in tokens if tok.error]
    tokens = [tok for tok in tokens if tok.kind is not TokenKind.COMMENT]
    parser = _Parser(tokens)
    body = parser.parse_top()

    parser.diagnostics.extend(_diagnostic(tok.error, tok) for tok in errors)
    return ConfigFile.at(
        tokens[-1].source, 0, len(text), path=path, body=body, diagnostics=parser.diagnostics
    )


def find_blocks(
    node: ConfigFile | Block, block_type: str, recursive: bool = False
) -> list[Block]:
    """Blocks of the given type in source order.

    Nested bodies are searched only when ``recursive`` is set.
    """
    out: list[Block] = []

    def visit(body: list) -> None:
        for item in body:
            if isinstance(item, Block):
                if item.block_type == block_type:
                    out.append(item)
                if recursive:
                    visit(item.body)

    visit(node.body)
    return out


def get_attribute(block: Block | ConfigFile, name: str) -> ExpressionValue | None:
    """Value of the named attribute; the last assignment wins on duplicates."""
    node = get_attribute_node(block, name)
    return node.value if node is not None else None


def get_attribute_node(block: Block | ConfigFile, name: str) -> Attribute | None:
    found = None
    for item in block.body:
        if isinstance(item, Attribute) and item.name == name:
            found = item
    return found


# ---------------------------------------------------------------------------
# Parser internals
# ---------------------------------------------------------------------------


def _diagnostic(
    message: str, at: Token | Attribute | Block, severity: str = "error"
) -> Diagnostic:
    """A diagnostic over ``at``, a token or a parsed node, with its span unbuilt."""
    return Diagnostic.at(at.source, at.start, at.end, message=message, severity=severity)


class _ParseError(Exception):
    """A parse failure at ``tok``."""

    def __init__(self, message: str, tok: Token) -> None:
        super().__init__(message)
        self.tok = tok

    def diagnostic(self) -> Diagnostic:
        return _diagnostic(self.args[0], self.tok)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.i = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token cursor --------------------------------------------------

    def _cur(self) -> Token:
        return self.toks[self.i]

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _skip_newlines(self) -> Token:
        """Move past newlines; return the current token."""
        while self.toks[self.i].kind is TokenKind.NEWLINE:
            self.i += 1
        return self.toks[self.i]

    # -- top level -------------------------------------------------------

    def parse_top(self) -> list[Block | Attribute]:
        body: list[Block | Attribute] = []
        while True:
            tok = self._skip_newlines()
            if tok.kind is TokenKind.EOF:
                self._check_body(body)
                return body
            if tok.kind is TokenKind.BLOCK_CLOSE:
                self.diagnostics.append(_diagnostic("unexpected '}'", tok))
                self._advance()
                continue
            before = len(self.diagnostics)
            try:
                body.append(self._parse_item(0))
            except _ParseError as err:
                # The item is dropped, and with it the warnings on its bodies.
                del self.diagnostics[before:]
                self.diagnostics.append(err.diagnostic())
                self._sync()

    def _sync(self) -> None:
        """Skip to the next plausible top-level item after a parse error."""
        depth = 0
        while True:
            tok = self._cur()
            if tok.kind is TokenKind.EOF:
                return
            if tok.kind is TokenKind.NEWLINE and depth <= 0:
                self._advance()
                return
            if tok.kind is TokenKind.BLOCK_OPEN:
                depth += 1
            elif tok.kind is TokenKind.BLOCK_CLOSE:
                depth -= 1
            self._advance()

    # -- items -------------------------------------------------------------

    def _parse_item(self, depth: int) -> Block | Attribute:
        head = self._cur()
        if head.kind is not TokenKind.IDENTIFIER:
            raise _ParseError(
                f"expected block or attribute, found {head.kind.value} {head.text!r}",
                head,
            )
        self._advance()
        nxt = self._cur()

        if nxt.kind is TokenKind.ASSIGN:
            self._advance()
            value = self._parse_expression(_ATTR_ENDS, depth)
            end = self.toks[self.i - 1].end
            return Attribute.at(head.source, head.start, end, name=head.text, value=value)

        if nxt.kind in (TokenKind.STRING, TokenKind.IDENTIFIER, TokenKind.BLOCK_OPEN):
            labels: list[str] = []
            while True:
                tok = self._cur()
                if tok.kind is TokenKind.STRING:
                    labels.append(_string_inner(tok))
                    self._advance()
                elif tok.kind is TokenKind.IDENTIFIER:
                    labels.append(tok.text)
                    self._advance()
                else:
                    break
            if tok.kind is not TokenKind.BLOCK_OPEN:
                raise _ParseError(
                    f"expected '{{' to open {head.text!r} block, found {tok.text!r}",
                    tok,
                )
            if depth == _MAX_DEPTH:
                raise _ParseError(f"blocks nested deeper than {_MAX_DEPTH}", tok)
            self._advance()
            body = self._parse_block_body(head, depth + 1)
            end = self.toks[self.i - 1].end
            return Block.at(
                head.source, head.start, end, block_type=head.text, labels=labels, body=body
            )

        raise _ParseError(
            f"expected '=' or block labels after {head.text!r}, found {nxt.text!r}",
            nxt,
        )

    def _parse_block_body(self, head: Token, depth: int) -> list[Block | Attribute]:
        body: list[Block | Attribute] = []
        while True:
            tok = self._skip_newlines()
            if tok.kind is TokenKind.BLOCK_CLOSE:
                self._advance()
                break
            if tok.kind is TokenKind.EOF:
                self.diagnostics.append(
                    _diagnostic(f"block {head.text!r} not closed before end of file", head)
                )
                break
            body.append(self._parse_item(depth))
        self._check_body(body)
        return body

    def _check_body(self, body: list[Block | Attribute]) -> None:
        """Warn on label counts and duplicate attributes of a finished body."""
        seen: set[str] = set()
        for item in body:
            if isinstance(item, Block):
                expected = _LABEL_COUNTS.get(item.block_type)
                if expected is None or len(item.labels) == expected:
                    continue
                message = (
                    f"{item.block_type!r} block has {len(item.labels)} label(s), "
                    f"expected {expected}"
                )
            elif item.name in seen:
                message = f"duplicate attribute {item.name!r} (last value wins)"
            else:
                seen.add(item.name)
                continue
            self.diagnostics.append(_diagnostic(message, item, "warning"))

    # -- expressions ---------------------------------------------------

    def _parse_expression(self, ends: frozenset[str], depth: int) -> ExpressionValue:
        start = self.i
        try:
            value = self._parse_candidate(depth)
            if self._cur().text in ends:
                return value
        except _ParseError:
            pass
        self.i = start
        return self._opaque_capture(ends)

    def _parse_candidate(self, depth: int) -> ExpressionValue:
        tok = self._cur()
        kind, text = tok.kind, tok.text
        if kind is TokenKind.STRING:
            self._advance()
            return _string_value(tok)
        if kind is TokenKind.NUMBER:
            self._advance()
            return NumberLit(_number(text))
        if kind is TokenKind.BOOL:
            self._advance()
            return BoolLit(text == "true")
        if kind is TokenKind.HEREDOC:
            self._advance()
            return StringLit(_heredoc_body(tok))
        if kind is TokenKind.IDENTIFIER:
            return self._parse_reference()
        if text == "-":
            nxt = self.toks[self.i + 1]
            if nxt.kind is TokenKind.NUMBER:
                self.i += 2
                return NumberLit(-_number(nxt.text))
            raise _ParseError("unsupported expression", tok)
        if text in ("[", "{"):
            if depth == _MAX_DEPTH:
                raise _ParseError("nested too deep", tok)  # kept as Opaque
            if text == "[":
                return self._parse_list(depth + 1)
            return self._parse_map(depth + 1)
        raise _ParseError(f"expected value, found {text!r}", tok)

    def _parse_list(self, depth: int) -> ListValue:
        self._advance()  # [
        items: list[ExpressionValue] = []
        while True:
            tok = self._skip_newlines()
            if tok.text == "]":
                self._advance()
                return ListValue(tuple(items))
            if tok.kind is TokenKind.EOF:
                raise _ParseError("unterminated list", tok)
            items.append(self._parse_expression(_LIST_ENDS, depth))
            if self._skip_newlines().text == ",":
                self._advance()

    def _parse_map(self, depth: int) -> MapValue:
        self._advance()  # {
        entries: list[tuple[str, ExpressionValue]] = []
        while True:
            tok = self._skip_newlines()
            if tok.text == "}":
                self._advance()
                return MapValue(tuple(entries))
            if tok.kind is TokenKind.EOF:
                raise _ParseError("unterminated map", tok)
            if tok.kind is TokenKind.IDENTIFIER:
                key = tok.text
            elif tok.kind is TokenKind.STRING:
                key = _string_inner(tok)
            else:
                raise _ParseError(f"expected map key, found {tok.text!r}", tok)
            self._advance()
            sep = self._cur()
            if sep.text not in ("=", ":"):
                raise _ParseError(
                    f"expected '=' or ':' after map key, found {sep.text!r}", sep
                )
            self._advance()
            entries.append((key, self._parse_expression(_MAP_ENDS, depth)))
            if self._skip_newlines().text == ",":
                self._advance()

    def _parse_reference(self) -> ExpressionValue:
        segments = [self._advance().text]
        while self._cur().text == ".":
            nxt = self.toks[self.i + 1]
            segment = nxt.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.BOOL)
            if not segment and nxt.text != "*":
                break
            self.i += 2
            segments.append(nxt.text)
        if segments == ["null"]:
            return Opaque("null")
        return Reference(tuple(segments))

    def _opaque_capture(self, ends: frozenset[str]) -> Opaque:
        """Consume one expression verbatim, balancing brackets."""
        start = self.i
        depth = 0
        while True:
            tok = self._cur()
            if tok.kind is TokenKind.EOF or (depth == 0 and tok.text in ends):
                break
            if tok.text in _OPENERS:
                depth += 1
            elif tok.text in _CLOSERS:
                depth -= 1
                if depth < 0:
                    break
            self._advance()
        if self.i == start:
            raise _ParseError("expected value", self._cur())
        first, last = self.toks[start], self.toks[self.i - 1]
        return Opaque(first.source.text[first.start : last.end])


# ---------------------------------------------------------------------------
# Literal decoding
# ---------------------------------------------------------------------------


def _number(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _string_inner(tok: Token) -> str:
    """Literal content between the quotes, escapes decoded, no template parsing."""
    return _decode(tok.text[1 : len(tok.text) - (tok.error is None)])


def _decode(literal: str) -> str:
    if "\\" not in literal and "{" not in literal:
        return literal  # nothing to decode, and re.sub would still cost
    return _ESCAPE_RE.sub(_unescape, literal)


def _unescape(m: re.Match) -> str:
    """What an escape stands for; an unknown backslash escape stays as written."""
    text = m.group()
    return text[1:] if m.group(1) else _ESCAPES.get(text[1], text)


def _string_value(tok: Token) -> ExpressionValue:
    """Classify a quoted string as plain literal or template."""
    text = tok.text
    # Without a "{" there is no interpolation to find.
    interpolations = scan_template(text, 0)[2] if "{" in text else ()
    parts: list[str | Reference | Opaque] = []
    pos = 1  # after the opening quote
    for opened, closed in interpolations:
        if opened > pos:
            parts.append(_decode(text[pos:opened]))
        content = text[opened + 2 : closed].strip()
        if text[opened] == "$" and _REFERENCE_RE.match(content):
            parts.append(Reference(tuple(content.split("."))))
        else:
            parts.append(Opaque(content))
        pos = closed + 1
    literal = _decode(text[pos : len(text) - (tok.error is None)])
    if not parts:
        return StringLit(literal)
    if literal:
        parts.append(literal)
    return TemplateString(tuple(parts))


def _heredoc_body(tok: Token) -> str:
    text = tok.text
    nl = text.find("\n")
    if nl < 0:
        return ""
    body = text[nl + 1 :]
    if tok.error is None:
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
