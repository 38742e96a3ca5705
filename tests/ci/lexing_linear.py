"""Lexing-time check: ``tokenize`` is linear on adversarial comments, trivia and heredocs.

``python tests/ci/lexing_linear.py``, with ``src`` on ``PYTHONPATH``, sizes each
input so that n repetitions of its unit take at least 20 ms to tokenize, best of
5, and then times 4n repetitions, best of 5; the sizing run's time is the base.
It exits 1 if 4n takes more than 6 times as long as n for any input; linear
growth gives 4. The heredocs never close: n whitespace-only lines, or one line
of n spaces.

:func:`slow_inputs` is the timing rule, which ``pattern_linear.py`` shares.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

FLOOR = 0.020  # seconds that n repetitions must take at least
BOUND = 6  # the largest ratio of the 4n time to the n time


def best(run: Callable[[str], object], text: str) -> float:
    """The fastest of five timed runs of ``run(text)``."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        run(text)
        times.append(time.perf_counter() - start)
    return min(times)


def slow_inputs(inputs: dict[str, Callable[[int], str]], run: Callable[[str], object]) -> list[str]:
    """The names of the inputs whose 4n text takes ``run`` more than ``BOUND`` times n's."""
    slow = []
    for name, make in inputs.items():
        n = 256
        # The run that reaches the floor is the base, so the base is never below it.
        while (small := best(run, make(n))) < FLOOR:
            n *= 2
        large = best(run, make(4 * n))
        print(f"{name:34} n={n:>8}: {small * 1e3:6.1f} ms, 4n {large * 1e3:6.1f} ms, "
              f"ratio {large / small:.2f}")
        if large / small > BOUND:
            slow.append(name)
    return slow


def main() -> int:
    from tfsustain.hcl import tokenize

    inputs = {
        repr(unit): lambda n, unit=unit: unit * n
        for unit in ("/*", "/* ", "# \r", "/**/", "*/", "a /* */ ", "# c\n")
    }
    inputs["<<EOT, n blank lines"] = lambda n: "<<EOT\n" + " \t\n" * n
    inputs["<<EOT, n spaces"] = lambda n: "<<EOT\n" + " " * n
    slow = slow_inputs(inputs, tokenize)
    if slow:
        sys.exit("tokenize grows faster than linearly on " + ", ".join(slow))
    return 0


if __name__ == "__main__":
    sys.exit(main())
