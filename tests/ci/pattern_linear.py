"""Pattern-engine time check: linear on unfinished matches.

``python tests/ci/pattern_linear.py``, with ``src`` on ``PYTHONPATH``, applies
``lexing_linear.py``'s bound to ``pattern_engine.detect_directory``, which runs
``prepare`` and every pattern detector on one file. Each unit opens a match (a
quote, a comment, a name or an assignment) and leaves it unfinished, so a regex
that backtracks over the rest of the text is quadratic. It exits 1 if 4n
repetitions of a unit take more than 6 times as long as n, best of 5 each, with
n sized so that n repetitions take at least 20 ms.
"""

from __future__ import annotations

import sys

from lexing_linear import slow_inputs

UNITS = [
    'region = "', 'zone = "x', 'instance_type = "', 'machine_type = "a/', 'backend "',
    'backend \t', 'resource "', 'resource "aws_instance" "x" {\n', 'terraform \t',
    ' \t', '/*/', '/*', '*/', '# "\n', '"\\', '"${', 'aws_instance-', 'count = ',
    'retention_in_days = ', 'lifecycle \t', 'aws_autoscaling_group_',
]


def main() -> int:
    from tfsustain.detectors import DetectorConfig, pattern_engine
    from tfsustain.hcl import SourceText

    cfg = DetectorConfig()

    def run(text: str) -> None:
        pattern_engine.detect_directory([SourceText("main.tf", text)], cfg, set())

    slow = slow_inputs({repr(unit): lambda n, unit=unit: unit * n for unit in UNITS}, run)
    if slow:
        sys.exit("the pattern engine grows faster than linearly on " + ", ".join(slow))
    return 0


if __name__ == "__main__":
    sys.exit(main())
