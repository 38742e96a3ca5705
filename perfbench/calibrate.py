"""A fixed pure-Python reference workload that gauges the machine's speed.

The benchmark machine is a virtual machine on a shared host: the same scan
operation, repeated in one process, ran from 1.3 s to 2.7 s, in slow and
fast stretches of 5 to 20 seconds. ``slice_s`` times one short piece of
fixed work of two kinds a scan interprets: a character-level lexer written
as a class with small methods, tokens as small objects, dict grouping; and
an arithmetic loop. The worker runs such slices between its scan operations,
so they sample the same stretches; ``speed_factor`` turns their median into
the factor that scales a scan time to the speed of the machine the benchmark
was built on. Together the two kinds tracked the scan's drift better than
either alone. The work never touches tfsustain, so no change to the program
can move it.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

# Median slice time on the machine the benchmark was built on (2-vCPU Intel
# Xeon, 2.1 GHz, Python 3.11.7). Only a scale: comparisons between commits
# on one machine do not depend on it.
REFERENCE_SLICE_S = 0.0155

_TEXT = "\n".join(
    f'resource "aws_instance" "vm_{i}" {{\n'
    f'  name  = "vm-{i}" # instance {i}\n'
    f'  zone  = "us-west1-{"abc"[i % 3]}"\n'
    f"  count = {i % 7}\n"
    "}"
    for i in range(120)
)
_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind, self.text, self.pos = kind, text, pos


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text, self.pos, self.tokens = text, 0, []

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _run_while(self, chars: frozenset) -> None:
        while self._peek() in chars and self._peek():
            self.pos += 1

    def _until(self, stop: str) -> None:
        while self.pos < len(self.text) and self.text[self.pos] != stop:
            self.pos += 1

    def run(self) -> list[_Token]:
        while self.pos < len(self.text):
            start, ch = self.pos, self._peek()
            if ch in _WORD:
                self._run_while(_WORD)
                kind = "word"
            elif ch == '"':
                self.pos += 1
                self._until('"')
                self.pos += 1
                kind = "string"
            elif ch == "#":
                self._until("\n")
                kind = "comment"
            elif ch in " \n":
                self.pos += 1
                continue
            else:
                self.pos += 1
                kind = "punct"
            self.tokens.append(_Token(kind, self.text[start:self.pos], start))
        return self.tokens


def _work() -> int:
    by_kind: dict[str, list[str]] = {}
    for token in _Lexer(_TEXT).run():
        by_kind.setdefault(token.kind, []).append(token.text)
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total + sum(len(sorted(texts)) for texts in by_kind.values())


def slice_s(threads: int = 1) -> float:
    """Wall time of one slice of the reference work, done once per thread.

    With more than one thread the copies contend for the interpreter lock
    as the scanner's worker threads do, so the slice also feels how fast
    the host hands the lock between CPUs. The collector is off during the
    slice, so a collection of the scan's heap never lands in it; the work
    makes no reference cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if threads == 1:
            _work()
        else:
            workers = [threading.Thread(target=_work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_for(seconds: float, at_least: int = 1, threads: int = 1) -> list[float]:
    """Slices back to back for about ``seconds``; their times."""
    times = [slice_s(threads) for _ in range(at_least)]
    while sum(times) < seconds:
        times.append(slice_s(threads))
    return times


def speed_factor(slices: list[float], threads: int = 1) -> float:
    """Reference time over this run's median slice: < 1 on a slow machine.

    A slice of ``threads`` threads does ``threads`` times the work.
    """
    return threads * REFERENCE_SLICE_S / statistics.median(slices)
