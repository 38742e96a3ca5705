"""AST node types for parsed Terraform configuration files.

Every node class has ``__slots__`` and no ``__dict__``, so a node is smaller
and gives the collector no dict to track: a large file makes a node for every
attribute, block and value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .lexer import SourceSpan, SourceText


class ExpressionValue:
    """Base class for attribute values."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class StringLit(ExpressionValue):
    value: str


@dataclass(frozen=True, slots=True)
class NumberLit(ExpressionValue):
    value: int | float


@dataclass(frozen=True, slots=True)
class BoolLit(ExpressionValue):
    value: bool


@dataclass(frozen=True, slots=True)
class ListValue(ExpressionValue):
    items: tuple[ExpressionValue, ...]


@dataclass(frozen=True, slots=True)
class MapValue(ExpressionValue):
    entries: tuple[tuple[str, ExpressionValue], ...]


@dataclass(frozen=True, slots=True)
class Reference(ExpressionValue):
    """Dotted path such as ``aws_instance.app.id``; at least one segment."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("reference needs at least one segment")


@dataclass(frozen=True, slots=True)
class TemplateString(ExpressionValue):
    """Quoted string mixing literal text with interpolated expressions.

    Parts are plain ``str`` literals, ``Reference`` for simple dotted
    interpolations, and ``Opaque`` for anything richer. An interpolation of
    only ``true``, ``false`` or ``null`` is the literal a lone value is:
    ``BoolLit`` or ``Opaque("null")``.
    """

    parts: tuple[Union[str, Reference, BoolLit, "Opaque"], ...]


@dataclass(frozen=True, slots=True)
class Opaque(ExpressionValue):
    """Unparsed expression, verbatim source text preserved."""

    text: str


@dataclass
class _Located:
    """A node over ``source.text[start:end]`` whose ``span`` field is built on demand.

    ``source``, ``start`` and ``end`` lead each located class's constructor,
    and ``repr`` and ``==`` ignore them. The slots are the subclass's own: on
    Python 3.10, ``dataclass(slots=True)`` re-declares a slot that a base
    already has, so this base declares none.
    """

    __slots__ = ()
    source: SourceText = field(repr=False, compare=False)
    start: int = field(repr=False, compare=False)
    end: int = field(repr=False, compare=False)


def _lazy_span(cls):
    """Make the ``span`` slot of a located dataclass build its value on first read.

    The constructor leaves the slot unset, so a scan builds a
    :class:`SourceSpan` only for the nodes it reports. Reading an unset
    ``span`` builds ``source.span(start, end)`` and keeps it in the slot; an
    assigned span is kept and wins. ``==`` and ``repr`` read ``span`` like
    any field, so they compare spans by value: two parses of one text
    compare equal and print the same.
    """
    get, put = cls.span.__get__, cls.span.__set__  # the slot's member descriptor

    def span(node: _Located) -> SourceSpan:
        try:
            return get(node)
        except AttributeError:
            value = node.source.span(node.start, node.end)
            put(node, value)
            return value

    cls.span = property(span, put)
    return cls


@_lazy_span
@dataclass(slots=True)
class Diagnostic(_Located):
    message: str
    span: SourceSpan = field(init=False)
    severity: str = "error"  # always "error"; the perfbench tracer reads it (ROADMAP item 1(b))


@_lazy_span
@dataclass(slots=True)
class Attribute(_Located):
    name: str
    value: ExpressionValue
    span: SourceSpan = field(init=False)


@_lazy_span
@dataclass(slots=True)
class Block(_Located):
    block_type: str
    labels: list[str]
    body: list[Union["Block", Attribute]]
    span: SourceSpan = field(init=False)


@_lazy_span
@dataclass(slots=True)
class ConfigFile(_Located):
    path: str
    body: list[Block | Attribute]
    diagnostics: list[Diagnostic]
    span: SourceSpan = field(init=False)
