"""Spans around calls into tfsustain, recorded from outside the program.

The tracer replaces module attributes that the scan looks up at call time
with wrappers that record one span per call: name, start, end, parent span
and operation id. Spans stay in memory; ``layer_totals`` folds one
operation's spans into per-name totals and self times after the fact.

A name that a later refactor removed or renamed is recorded in ``missing``
instead of raising, so the traced run reports ``null`` for the metrics that
depend on it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    cpu: float  # thread CPU seconds inside the call; 0 where not sampled
    parent: int | None
    op: int
    meta: tuple[int, ...]  # counts taken from the result, per span name

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_tokens(tokens) -> tuple[int, ...]:
    return (len(tokens), sum(1 for t in tokens if t.error))


def _count_diagnostics(cf) -> tuple[int, ...]:
    errors = sum(1 for d in cf.diagnostics if d.severity == "error")
    return (1 if errors else 0, errors)


def _count_items(result) -> tuple[int, ...]:
    return (len(result),)


def _smell_key(fn: Callable) -> str:
    m = re.search(r"ss(\d)", getattr(fn, "__name__", ""))
    return f"ss{m.group(1)}" if m else getattr(fn, "__name__", "unknown")


# (module, attribute, span name, result counter, sample thread CPU time)
FUNCTIONS = (
    ("tfsustain.scanner", "discover_tf_files", "scanner.discover", _count_items, False),
    ("tfsustain.scanner", "_read_unit", "scanner.read_unit", None, True),
    ("tfsustain.scanner", "unit_for", "scanner.unit_for", None, True),
    ("tfsustain.scanner", "detect_all", "detectors.detect_all", _count_items, False),
    ("tfsustain.hcl", "parse", "parser.parse", _count_diagnostics, False),
    ("tfsustain.hcl.parser", "tokenize", "lexer.tokenize", _count_tokens, False),
    ("tfsustain.detectors.ast_engine", "detect_ss6_local_state", "ast_engine.ss6", _count_items, False),
    ("tfsustain.detectors.ast_engine", "resource_blocks", "ast_engine.resource_blocks", None, False),
    ("tfsustain.detectors.pattern_engine", "pattern_ss6", "pattern_engine.ss6", _count_items, False),
    ("tfsustain.detectors.pattern_engine", "mask_comments", "pattern_engine.mask_comments", None, False),
)
# (module, attribute holding a tuple of detectors, span name prefix)
DETECTOR_TUPLES = (
    ("tfsustain.detectors.ast_engine", "PER_FILE_DETECTORS", "ast_engine"),
    ("tfsustain.detectors.pattern_engine", "PER_FILE_PATTERNS", "pattern_engine"),
)


class Tracer:
    """Installs the wrappers around one operation at a time and keeps its spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.wrapped: set[str] = set()  # span names that have a wrapper
        self.missing: dict[str, str] = {}  # span name -> the missing dotted name
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: Callable | None, cpu: bool) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time() if cpu else 0.0
                stack.pop()
                meta = counter(result) if counter is not None and result is not None else ()
                spans.append(Span(sid, name, t0, t1, c1 - c0, parent, self.op, meta))

        return traced

    def _module(self, dotted: str, span_name: str):
        try:
            return importlib.import_module(dotted)
        except ImportError:
            self.missing[span_name] = dotted
            return None

    def install(self) -> None:
        """Wrap every traced name that exists; remember the ones that do not."""
        for dotted, attr, name, counter, cpu in FUNCTIONS:
            module = self._module(dotted, name)
            if module is None:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing[name] = f"{dotted}.{attr}"
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter, cpu))
            self.wrapped.add(name)
        for dotted, attr, prefix in DETECTOR_TUPLES:
            module = self._module(dotted, f"{prefix}.detectors")
            detectors = getattr(module, attr, None) if module is not None else None
            if not isinstance(detectors, tuple):
                for n in range(1, 8):
                    self.missing[f"{prefix}.ss{n}"] = f"{dotted}.{attr}"
                continue
            self._undo.append((module, attr, detectors))
            wrapped = []
            for fn in detectors:
                name = f"{prefix}.{_smell_key(fn)}"
                wrapped.append(self.wrap(name, fn, _count_items, False))
                self.wrapped.add(name)
            setattr(module, attr, tuple(wrapped))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def write(self, path: Path, ops: set[int]) -> None:
        """Write the spans of the given operations as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.sid):
                if s.op in ops:
                    record = [s.sid, s.name, round(s.start, 7), round(s.end, 7),
                              round(s.cpu, 7), s.parent, s.op, list(s.meta)]
                    out.write(json.dumps(record, separators=(",", ":")) + "\n")


@dataclass
class LayerTotals:
    """Per-name sums over the spans of one operation."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # inclusive time minus the time of child spans
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    cpu: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # element-wise sums of the spans' result counts
    meta: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    durations: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    first_start: dict[str, float] = field(default_factory=dict)
    last_end: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> LayerTotals:
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    t = LayerTotals()
    for s in spans:
        t.calls[s.name] += 1
        t.total[s.name] += s.duration
        t.self_time[s.name] += s.duration - child_time[s.sid]
        t.cpu[s.name] += s.cpu
        t.durations[s.name].append(s.duration)
        sums = t.meta[s.name]
        sums.extend([0] * (len(s.meta) - len(sums)))
        for i, v in enumerate(s.meta):
            sums[i] += v
        t.first_start[s.name] = min(t.first_start.get(s.name, s.start), s.start)
        t.last_end[s.name] = max(t.last_end.get(s.name, s.end), s.end)
    return t
