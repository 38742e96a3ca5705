"""Large-file check: the AST engine's collector work and memory on one huge file.

``python tests/large_file_gates.py`` builds perfbench's monolith of 64,000
resources (``monolith_text(64000, 1)``, about 9 MB in one file), runs
``ast_engine.prepare`` on it twice and ``hcl.tokenize`` once in this
process, and exits 1 unless

* the cyclic collector takes at most 10 % of the wall time of a ``prepare``,
  timed from its ``gc.callbacks`` start and stop events;
* the tracemalloc peak of a ``prepare`` is at most 45 MiB, and what it still
  holds once it returns, its view, at most 23 MiB;
* the tokens of the file hold at most 16 MiB;
* ``gc.get_threshold()`` and ``gc.get_freeze_count()`` are the same after
  all runs as before: the gates hold without tuning the collector.

The parse hands each top-level item to ``prepare``'s reduction as soon as
it is parsed, so the tree of the whole file never exists; building it first
took 25 % of ``prepare`` in the collector and peaked at 101 MiB. A token's
kind is one byte, where a list of kinds took eight: the tokens held
25.6 MiB and ``prepare`` peaked at 51.8 MiB. A view keeps offsets and
literals, not nodes; keeping attribute and reference nodes, it held
24.4 MiB.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

RESOURCES = 64_000
COLLECTOR_SHARE_MAX = 0.10
PEAK_MAX = 45 * 2**20  # bytes
VIEW_MAX = 23 * 2**20
TOKENS_MAX = 16 * 2**20


def main() -> int:
    sys.path.insert(0, str(Path(__file__).parent))
    from synth import load_perfbench_corpus

    from tfsustain.detectors import DetectorConfig, ast_engine
    from tfsustain.hcl import SourceText, tokenize

    text, _ = load_perfbench_corpus().monolith_text(RESOURCES, 1)
    unit, cfg = SourceText("main.tf", text), DetectorConfig()
    ast_engine.prepare(SourceText("warm.tf", 'resource "a" "b" {\n  x = 1\n}\n'), cfg)
    gc_state = gc.get_threshold(), gc.get_freeze_count()

    collecting = [0.0, 0.0]  # seconds in the collector, start of the current pass

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collecting[1] = time.perf_counter()
        else:
            collecting[0] += time.perf_counter() - collecting[1]

    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        view = ast_engine.prepare(unit, cfg)
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_gc)
    resources = len(view.resources)
    del view
    tracemalloc.start()
    try:
        view = ast_engine.prepare(unit, cfg)
        held, peak = tracemalloc.get_traced_memory()
        del view
        before = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(unit)
        tokens_held = tracemalloc.get_traced_memory()[0] - before
        del tokens
    finally:
        tracemalloc.stop()

    share = collecting[0] / wall
    print(f"prepare of {resources} resources, {len(text) / 1e6:.1f} MB: {wall:.2f} s, "
          f"collector {collecting[0]:.2f} s ({share:.1%}), "
          f"tracemalloc peak {peak / 2**20:.1f} MiB, view {held / 2**20:.1f} MiB, "
          f"tokens {tokens_held / 2**20:.1f} MiB")
    failures = []
    if resources != RESOURCES:
        failures.append(f"{resources} resources, not {RESOURCES}")
    if share > COLLECTOR_SHARE_MAX:
        failures.append(f"the collector took {share:.1%} of prepare")
    if peak > PEAK_MAX:
        failures.append(f"the tracemalloc peak of prepare is {peak / 2**20:.1f} MiB")
    if held > VIEW_MAX:
        failures.append(f"prepare holds {held / 2**20:.1f} MiB once it returns")
    if tokens_held > TOKENS_MAX:
        failures.append(f"the tokens hold {tokens_held / 2**20:.1f} MiB")
    if (gc.get_threshold(), gc.get_freeze_count()) != gc_state:
        failures.append("prepare changed gc.get_threshold() or gc.get_freeze_count()")
    for failure in failures:
        print("FAIL", failure)
    if not failures:
        print("large-file gates pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
