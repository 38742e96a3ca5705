"""AST node types for parsed Terraform configuration files."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .lexer import SourceSpan, SourceText


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


class _SpanFromOffsets:
    """The ``span`` field of a located node, built when it is first read.

    The parser makes nodes with :meth:`_Located.at`, which gives them
    ``source``, ``start`` and ``end`` and no span, so a scan builds a
    :class:`SourceSpan` only for the nodes it reports. A span given to the
    constructor is kept on the node and wins, as for any non-data descriptor.
    ``==`` and ``repr`` read ``span`` like any field, so they compare spans by
    value: two parses of one text compare equal and print the same.
    """

    def __get__(self, node, owner=None):
        if node is None:
            # The dataclass reads the field's default off the class: there is none.
            raise AttributeError("span")
        span = node.span = node.source.span(node.start, node.end)
        return span


class _Located:
    """A node with a ``span`` field that the parser leaves to be built on demand."""

    @classmethod
    def at(cls, source: SourceText, start: int, end: int, **fields: object):
        """A node over ``source.text[start:end]`` whose span is not built yet."""
        node = cls.__new__(cls)
        node.source, node.start, node.end = source, start, end
        for name, value in fields.items():
            setattr(node, name, value)
        return node


@dataclass
class Diagnostic(_Located):
    message: str
    span: SourceSpan = _SpanFromOffsets()
    severity: str = "error"  # always "error"; the perfbench tracer reads it (ROADMAP item 2(d))


@dataclass
class Attribute(_Located):
    name: str
    value: ExpressionValue
    span: SourceSpan = _SpanFromOffsets()


@dataclass
class Block(_Located):
    block_type: str
    labels: list[str]
    body: list[Union["Block", Attribute]]
    span: SourceSpan = _SpanFromOffsets()


@dataclass
class ConfigFile(_Located):
    path: str
    body: list[Block | Attribute]
    diagnostics: list[Diagnostic]
    span: SourceSpan = _SpanFromOffsets()
