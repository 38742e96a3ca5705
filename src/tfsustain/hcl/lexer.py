"""Lexer for a Terraform-sufficient subset of HCL.

The scanner is loss-free: every character of the input lands either in a
token's ``text`` or in the ``leading`` trivia (whitespace) of the token that
follows it, so ``detokenize(tokenize(text)) == text`` holds for arbitrary
input, including malformed files. Lexing never raises; unterminated strings,
heredocs, and block comments produce a token carrying an ``error`` message
and scanning continues.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    STRING = "string"
    NUMBER = "number"
    BOOL = "bool"
    PUNCT = "punctuation"
    BLOCK_OPEN = "block-open"
    BLOCK_CLOSE = "block-close"
    ASSIGN = "assign"
    HEREDOC = "heredoc"
    COMMENT = "comment"
    NEWLINE = "newline"
    EOF = "eof"


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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan
    # Whitespace (and a possible BOM) between the previous token and this one.
    leading: str = ""
    error: str | None = None


# Identifier characters follow HCL: dashes are legal after the first char.
_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789-")
_DIGITS = set("0123456789")

# Two-character operators kept whole so expression capture stays readable.
_TWO_CHAR_PUNCT = {"==", "!=", "<=", ">=", "&&", "||", "->", "=>"}


def tokenize(text: str, file_id: str = "<input>") -> list[Token]:
    """Scan ``text`` into tokens; the last token is always EOF."""
    return _Scanner(text, file_id).run()


def detokenize(tokens: list[Token]) -> str:
    """Reassemble the exact source text from a token stream."""
    return "".join(t.leading + t.text for t in tokens)


class _Scanner:
    def __init__(self, text: str, file_id: str) -> None:
        self.text = text
        self.file_id = file_id
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []
        self._pending_trivia: list[str] = []

    def run(self) -> list[Token]:
        n = len(self.text)
        while self.pos < n:
            ch = self.text[self.pos]
            if ch in " \t" or (ch == "﻿" and self.pos == 0):
                self._pending_trivia.append(ch)
                self._advance()
            elif ch == "\r" and self._peek(1) != "\n":
                self._pending_trivia.append(ch)
                self._advance()
            elif ch == "\n" or ch == "\r":
                self._scan_newline()
            elif ch == "#":
                self._scan_line_comment()
            elif ch == "/" and self._peek(1) == "/":
                self._scan_line_comment()
            elif ch == "/" and self._peek(1) == "*":
                self._scan_block_comment()
            elif ch == '"':
                self._scan_string()
            elif ch == "<" and self._peek(1) == "<":
                self._scan_heredoc()
            elif ch in _DIGITS:
                self._scan_number()
            elif ch in _ID_START:
                self._scan_identifier()
            elif ch == "{":
                self._single(TokenKind.BLOCK_OPEN)
            elif ch == "}":
                self._single(TokenKind.BLOCK_CLOSE)
            elif ch == "=" and self._peek(1) not in ("=", ">"):
                self._single(TokenKind.ASSIGN)
            else:
                two = self.text[self.pos : self.pos + 2]
                if two in _TWO_CHAR_PUNCT:
                    self._emit_run(TokenKind.PUNCT, 2)
                else:
                    self._single(TokenKind.PUNCT)
        self._emit(TokenKind.EOF, "", self.line, self.col)
        return self.tokens

    # -- low-level helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _emit(
        self,
        kind: TokenKind,
        text: str,
        start_line: int,
        start_col: int,
        error: str | None = None,
    ) -> None:
        span = SourceSpan(self.file_id, start_line, start_col, self.line, self.col)
        leading = "".join(self._pending_trivia)
        self._pending_trivia.clear()
        self.tokens.append(Token(kind, text, span, leading, error))

    def _single(self, kind: TokenKind) -> None:
        self._emit_run(kind, 1)

    def _emit_run(self, kind: TokenKind, length: int) -> None:
        line, col = self.line, self.col
        start = self.pos
        for _ in range(length):
            self._advance()
        self._emit(kind, self.text[start : self.pos], line, col)

    # -- token scanners ----------------------------------------------------

    def _scan_newline(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        if self.text[self.pos] == "\r":
            self._advance()
        self._advance()  # the \n
        self._emit(TokenKind.NEWLINE, self.text[start : self.pos], line, col)

    def _scan_line_comment(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != "\n":
            if self.text[self.pos] == "\r" and self._peek(1) == "\n":
                break
            self._advance()
        self._emit(TokenKind.COMMENT, self.text[start : self.pos], line, col)

    def _scan_block_comment(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        self._advance()  # /
        self._advance()  # *
        while self.pos < len(self.text):
            if self.text[self.pos] == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                self._emit(TokenKind.COMMENT, self.text[start : self.pos], line, col)
                return
            self._advance()
        self._emit(
            TokenKind.COMMENT,
            self.text[start:],
            line,
            col,
            error="unterminated block comment",
        )

    def _scan_string(self) -> None:
        """One quoted string token, template interpolation kept inside.

        ``${`` ... ``}`` sequences may nest and may contain quoted strings of
        their own, so the terminating quote is only recognized at nesting
        depth zero.
        """
        line, col = self.line, self.col
        start = self.pos
        self._advance()  # opening quote
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                self._advance()
                if self.pos < len(self.text):
                    self._advance()
                continue
            if ch in ("$", "%") and self._peek(1) == "{":
                depth += 1
                self._advance()
                self._advance()
                continue
            if ch == "}" and depth > 0:
                depth -= 1
                self._advance()
                continue
            if ch == "\n" and depth == 0:
                self._emit(
                    TokenKind.STRING,
                    self.text[start : self.pos],
                    line,
                    col,
                    error="unterminated string",
                )
                return
            if ch == '"' and depth == 0:
                self._advance()
                self._emit(TokenKind.STRING, self.text[start : self.pos], line, col)
                return
            self._advance()
        self._emit(
            TokenKind.STRING,
            self.text[start:],
            line,
            col,
            error="unterminated string",
        )

    def _scan_heredoc(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        self._advance()  # <
        self._advance()  # <
        if self._peek() == "-":
            self._advance()
        tag_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _ID_CONT:
            self._advance()
        tag = self.text[tag_start : self.pos]
        if not tag:
            # "<<" with no tag: treat the two angle brackets as punctuation.
            self._emit(TokenKind.PUNCT, self.text[start : self.pos], line, col)
            return
        # Consume the rest of the intro line including its newline.
        while self.pos < len(self.text):
            if self._advance() == "\n":
                break
        # Body lines until one whose stripped content equals the tag.
        while self.pos < len(self.text):
            line_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] != "\n":
                self._advance()
            content = self.text[line_start : self.pos].strip()
            if content == tag:
                self._emit(TokenKind.HEREDOC, self.text[start : self.pos], line, col)
                return
            if self.pos < len(self.text):
                self._advance()  # newline
        self._emit(
            TokenKind.HEREDOC,
            self.text[start:],
            line,
            col,
            error=f"unterminated heredoc (missing {tag!r})",
        )

    def _scan_number(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in ("+", "-") and self._peek(2) in _DIGITS)
        ):
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        self._emit(TokenKind.NUMBER, self.text[start : self.pos], line, col)

    def _scan_identifier(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _ID_CONT:
            self._advance()
        word = self.text[start : self.pos]
        kind = TokenKind.BOOL if word in ("true", "false") else TokenKind.IDENTIFIER
        self._emit(kind, word, line, col)


def span_text(text: str, span: SourceSpan) -> str:
    """Extract the characters a span covers from the original file text."""
    # Lines end only at "\n", as in the lexer; str.splitlines would also
    # break at "\r", "\x0b", "\x85", "\u2028" and others.
    lines = re.split(r"(?<=\n)", text)
    if span.start_line == span.end_line:
        line = lines[span.start_line - 1] if span.start_line <= len(lines) else ""
        return line[span.start_col - 1 : span.end_col - 1]
    parts = [lines[span.start_line - 1][span.start_col - 1 :]]
    parts.extend(lines[span.start_line : span.end_line - 1])
    if span.end_line <= len(lines):
        parts.append(lines[span.end_line - 1][: span.end_col - 1])
    return "".join(parts)
