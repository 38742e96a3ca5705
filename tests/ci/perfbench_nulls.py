"""Traced benchmark check: every metric of a traced perfbench run has a value.

``python tests/ci/perfbench_nulls.py OUTPUT`` reads the last line of OUTPUT,
the standard output of ``perfbench/run.py ... --trace 1``: the JSON object
whose ``metrics`` map each name to its value. It exits 1 when a metric is
null, other than the three ``corpus-pattern`` lexer and parser metrics, which
have no samples because the pattern engine never lexes or parses. A traced
metric goes null when the module attribute the tracer wraps is renamed or
removed.
"""

from __future__ import annotations

import json
import sys

# The pattern engine never lexes or parses, so these have no samples.
ALLOWED = {
    "corpus-pattern.lexer.tokens_per_s",
    "corpus-pattern.parser.file_ms_p50",
    "corpus-pattern.parser.file_ms_p99",
}


def main(output: str) -> int:
    with open(output) as f:
        last = f.read().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    null = sorted(k for k, v in metrics.items() if v["value"] is None and k not in ALLOWED)
    if null:
        print("null metrics: " + ", ".join(null))
        return 1
    print(len(metrics), "metrics, no unexpected null")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
