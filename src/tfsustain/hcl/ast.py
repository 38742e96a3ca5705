"""AST node types for parsed Terraform configuration files."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .lexer import SourceSpan


class ExpressionValue:
    """Base class for attribute values."""


@dataclass(frozen=True)
class StringLit(ExpressionValue):
    value: str


@dataclass(frozen=True)
class NumberLit(ExpressionValue):
    value: int | float


@dataclass(frozen=True)
class BoolLit(ExpressionValue):
    value: bool


@dataclass(frozen=True)
class ListValue(ExpressionValue):
    items: tuple[ExpressionValue, ...]


@dataclass(frozen=True)
class MapValue(ExpressionValue):
    entries: tuple[tuple[str, ExpressionValue], ...]


@dataclass(frozen=True)
class Reference(ExpressionValue):
    """Dotted path such as ``aws_instance.app.id``; at least one segment."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("reference needs at least one segment")


@dataclass(frozen=True)
class TemplateString(ExpressionValue):
    """Quoted string mixing literal text with interpolated expressions.

    Parts are plain ``str`` literals, ``Reference`` for simple dotted
    interpolations, and ``Opaque`` for anything richer.
    """

    parts: tuple[Union[str, Reference, "Opaque"], ...]


@dataclass(frozen=True)
class Opaque(ExpressionValue):
    """Unparsed expression, verbatim source text preserved."""

    text: str


@dataclass
class Diagnostic:
    message: str
    span: SourceSpan
    severity: str = "error"  # "error" | "warning"


@dataclass
class Attribute:
    name: str
    value: ExpressionValue
    span: SourceSpan


@dataclass
class Block:
    block_type: str
    labels: list[str]
    body: list[Union["Block", Attribute]]
    span: SourceSpan


@dataclass
class ConfigFile:
    path: str
    body: list[Block | Attribute] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    span: SourceSpan | None = None
