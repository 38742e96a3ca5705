"""Lexing, parsing, and querying of Terraform HCL files."""

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
from .lexer import SourceSpan, SourceText, Token, TokenKind, Tokens, detokenize, tokenize
from .parser import attributes, find_blocks, parse

__all__ = [
    "Attribute",
    "Block",
    "BoolLit",
    "ConfigFile",
    "Diagnostic",
    "ExpressionValue",
    "ListValue",
    "MapValue",
    "NumberLit",
    "Opaque",
    "Reference",
    "SourceSpan",
    "SourceText",
    "StringLit",
    "TemplateString",
    "Token",
    "TokenKind",
    "Tokens",
    "attributes",
    "detokenize",
    "find_blocks",
    "parse",
    "tokenize",
]
