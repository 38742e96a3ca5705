"""Error-recovering parser producing ConfigFile ASTs from HCL source.

The parser understands the Terraform subset the detectors need: blocks,
attributes, literals, lists, maps, heredocs, references, and string
templates. Anything richer (function calls, conditionals, for-expressions)
is preserved as an ``Opaque`` value with its verbatim source text.

Parsing never raises. Malformed input is skipped at roughly top-level-block
granularity, each skip recorded as a diagnostic, so a corpus scan can chew
through arbitrarily broken files.
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
from .lexer import Token, TokenKind, tokenize

# Expected label counts, enforced as warnings only.
_LABEL_COUNTS = {"resource": 2, "terraform": 0, "backend": 1}

_REFERENCE_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_-]*(?:\.(?:[A-Za-z_][A-Za-z0-9_-]*|\d+|\*))*\Z"
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\.", re.DOTALL)
# Where a quoted string's literal text stops: an escape, an escaped template
# marker ($${ or %%{), or the start of an interpolation or directive.
_TEMPLATE_STOP_RE = re.compile(r"\\.|([$%])\1\{|[$%]\{", re.DOTALL)


def parse(text: str, path: str = "<input>") -> ConfigFile:
    """Parse HCL text into a ConfigFile; never raises on bad input."""
    tokens = tokenize(text, path)
    # Token errors come from every token; the parser never sees a comment.
    errors = [tok for tok in tokens if tok.error]
    tokens = [tok for tok in tokens if tok.kind is not TokenKind.COMMENT]
    parser = _Parser(tokens)
    body = parser.parse_top()

    cf = ConfigFile(
        path=path,
        body=body,
        diagnostics=parser.diagnostics,
        span=tokens[-1].source.span(0, len(text)),
    )
    for tok in errors:
        cf.diagnostics.append(Diagnostic(tok.error, tok.span, "error"))
    _check_label_counts(cf.body, cf.diagnostics)
    _check_duplicate_attributes(cf.body, cf.diagnostics)
    return cf


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


class _ParseError(Exception):
    """A parse failure at ``tok``; its span is built only if it is reported."""

    def __init__(self, message: str, tok: Token) -> None:
        super().__init__(message)
        self.tok = tok

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(self.args[0], self.tok.span, "error")


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
                return body
            if tok.kind is TokenKind.BLOCK_CLOSE:
                self.diagnostics.append(Diagnostic("unexpected '}'", tok.span, "error"))
                self._advance()
                continue
            try:
                body.append(self._parse_item())
            except _ParseError as err:
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

    def _parse_item(self) -> Block | Attribute:
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
            value = self._parse_expression("attr")
            end = self.toks[self.i - 1].end
            return Attribute(head.text, value, head.source.span(head.start, end))

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
            self._advance()
            body = self._parse_block_body(head)
            end = self.toks[self.i - 1].end
            return Block(head.text, labels, body, head.source.span(head.start, end))

        raise _ParseError(
            f"expected '=' or block labels after {head.text!r}, found {nxt.text!r}",
            nxt,
        )

    def _parse_block_body(self, head: Token) -> list[Block | Attribute]:
        body: list[Block | Attribute] = []
        while True:
            tok = self._skip_newlines()
            if tok.kind is TokenKind.BLOCK_CLOSE:
                self._advance()
                return body
            if tok.kind is TokenKind.EOF:
                self.diagnostics.append(
                    Diagnostic(
                        f"block {head.text!r} not closed before end of file",
                        head.span,
                        "error",
                    )
                )
                return body
            body.append(self._parse_item())

    # -- expressions ---------------------------------------------------

    def _parse_expression(self, ctx: str) -> ExpressionValue:
        start = self.i
        try:
            value = self._parse_candidate(ctx)
            if _ends_expression(self._cur(), ctx):
                return value
        except _ParseError:
            pass
        self.i = start
        return self._opaque_capture(ctx)

    def _parse_candidate(self, ctx: str) -> ExpressionValue:
        tok = self._cur()
        kind = tok.kind
        if kind is TokenKind.STRING:
            self._advance()
            return _string_value(tok)
        if kind is TokenKind.NUMBER:
            self._advance()
            return NumberLit(_number(tok.text))
        if kind is TokenKind.BOOL:
            self._advance()
            return BoolLit(tok.text == "true")
        if kind is TokenKind.HEREDOC:
            self._advance()
            return StringLit(_heredoc_body(tok))
        if kind is TokenKind.PUNCT and tok.text == "-":
            nxt = self.toks[self.i + 1]
            if nxt.kind is TokenKind.NUMBER:
                self._advance()
                self._advance()
                value = _number(nxt.text)
                return NumberLit(-value)
            raise _ParseError("unsupported expression", tok)
        if kind is TokenKind.PUNCT and tok.text == "[":
            return self._parse_list()
        if kind is TokenKind.BLOCK_OPEN:
            return self._parse_map()
        if kind is TokenKind.IDENTIFIER:
            return self._parse_reference()
        raise _ParseError(f"expected value, found {tok.text!r}", tok)

    def _parse_list(self) -> ListValue:
        self._advance()  # [
        items: list[ExpressionValue] = []
        while True:
            tok = self._skip_newlines()
            if tok.kind is TokenKind.PUNCT and tok.text == "]":
                self._advance()
                return ListValue(tuple(items))
            if tok.kind is TokenKind.EOF:
                raise _ParseError("unterminated list", tok)
            items.append(self._parse_expression("list"))
            tok = self._skip_newlines()
            if tok.kind is TokenKind.PUNCT and tok.text == ",":
                self._advance()

    def _parse_map(self) -> MapValue:
        self._advance()  # {
        entries: list[tuple[str, ExpressionValue]] = []
        while True:
            tok = self._skip_newlines()
            if tok.kind is TokenKind.BLOCK_CLOSE:
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
            if sep.kind is TokenKind.ASSIGN or (
                sep.kind is TokenKind.PUNCT and sep.text == ":"
            ):
                self._advance()
            else:
                raise _ParseError(
                    f"expected '=' or ':' after map key, found {sep.text!r}", sep
                )
            entries.append((key, self._parse_expression("map")))
            tok = self._skip_newlines()
            if tok.kind is TokenKind.PUNCT and tok.text == ",":
                self._advance()

    def _parse_reference(self) -> ExpressionValue:
        segments = [self._advance().text]
        while True:
            tok = self._cur()
            if tok.kind is TokenKind.PUNCT and tok.text == ".":
                nxt = self.toks[self.i + 1]
                if nxt.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.BOOL) or (
                    nxt.kind is TokenKind.PUNCT and nxt.text == "*"
                ):
                    self._advance()
                    self._advance()
                    segments.append(nxt.text)
                    continue
            break
        if segments == ["null"]:
            return Opaque("null")
        return Reference(tuple(segments))

    def _opaque_capture(self, ctx: str) -> Opaque:
        """Consume one expression verbatim, balancing brackets."""
        start = self.i
        depth = 0
        while True:
            tok = self._cur()
            kind = tok.kind
            if kind is TokenKind.EOF or (depth == 0 and _ends_expression(tok, ctx)):
                break
            if kind is TokenKind.BLOCK_OPEN or (
                kind is TokenKind.PUNCT and tok.text in ("(", "[")
            ):
                depth += 1
            elif kind is TokenKind.BLOCK_CLOSE or (
                kind is TokenKind.PUNCT and tok.text in (")", "]")
            ):
                depth -= 1
                if depth < 0:
                    break
            self._advance()
        if self.i == start:
            raise _ParseError("expected value", self._cur())
        first, last = self.toks[start], self.toks[self.i - 1]
        return Opaque(first.source.text[first.start : last.end])


def _ends_expression(tok: Token, ctx: str) -> bool:
    """Whether ``tok`` ends an expression in an attr, list or map context."""
    if tok.kind in (TokenKind.NEWLINE, TokenKind.EOF):
        return True
    if ctx == "attr":
        return tok.kind is TokenKind.BLOCK_CLOSE
    if ctx == "list":
        return tok.kind is TokenKind.PUNCT and tok.text in (",", "]")
    if ctx == "map":
        return tok.kind is TokenKind.BLOCK_CLOSE or (
            tok.kind is TokenKind.PUNCT and tok.text == ","
        )
    return False


# ---------------------------------------------------------------------------
# Literal decoding
# ---------------------------------------------------------------------------


def _number(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _unquote(tok: Token) -> str:
    """String token text without its quotes; an unterminated one has no closer."""
    text = tok.text
    if text.startswith('"'):
        text = text[1:]
    if tok.error is None and text.endswith('"'):
        text = text[:-1]
    return text


def _string_inner(tok: Token) -> str:
    """Raw content between the quotes, escapes decoded, no template parsing."""
    return _ESCAPE_RE.sub(_unescape, _unquote(tok))


def _unescape(m: re.Match) -> str:
    """What a matched backslash escape stands for; an unknown one stays as written."""
    return _ESCAPES.get(m.group()[1], m.group())


def _string_value(tok: Token) -> ExpressionValue:
    """Classify a quoted string as plain literal or template."""
    text = _unquote(tok)
    parts: list[str | Reference | Opaque] = []
    literal = ""
    pos = 0
    while m := _TEMPLATE_STOP_RE.search(text, pos):
        literal += text[pos : m.start()]
        pos = m.end()
        stop = m.group()
        if stop[0] == "\\":
            literal += _unescape(m)
        elif len(stop) == 3:
            literal += stop[1:]  # $${ / %%{ escape a template marker
        else:
            end = _matching_brace(text, m.start() + 1)
            content = text[pos:end].strip()
            if literal:
                parts.append(literal)
                literal = ""
            if stop[0] == "$" and _REFERENCE_RE.match(content):
                parts.append(Reference(tuple(content.split("."))))
            else:
                parts.append(Opaque(content))
            pos = end + 1
    literal += text[pos:]
    if not parts:
        return StringLit(literal)
    if literal:
        parts.append(literal)
    return TemplateString(tuple(parts))


def _matching_brace(text: str, open_idx: int) -> int:
    """Index of the brace closing ``text[open_idx] == '{'``, quote-aware."""
    depth = 0
    in_string = False
    i = open_idx
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            i += 2
            continue
        if ch == '"':
            in_string = not in_string
        elif not in_string:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return len(text)


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


# ---------------------------------------------------------------------------
# Post-parse checks
# ---------------------------------------------------------------------------


def _check_label_counts(body: list, diagnostics: list[Diagnostic]) -> None:
    for item in body:
        if not isinstance(item, Block):
            continue
        expected = _LABEL_COUNTS.get(item.block_type)
        if expected is not None and len(item.labels) != expected:
            diagnostics.append(
                Diagnostic(
                    f"{item.block_type!r} block has {len(item.labels)} label(s), "
                    f"expected {expected}",
                    item.span,
                    "warning",
                )
            )
        _check_label_counts(item.body, diagnostics)


def _check_duplicate_attributes(body: list, diagnostics: list[Diagnostic]) -> None:
    seen: dict[str, Attribute] = {}
    for item in body:
        if isinstance(item, Attribute):
            if item.name in seen:
                diagnostics.append(
                    Diagnostic(
                        f"duplicate attribute {item.name!r} (last value wins)",
                        item.span,
                        "warning",
                    )
                )
            seen[item.name] = item
        elif isinstance(item, Block):
            _check_duplicate_attributes(item.body, diagnostics)
