"""Benchmark digest check: perfbench's seeds 1 and 2 print the pinned report bytes.

``python tests/ci/report_digests.py OUTPUT`` reads OUTPUT, the standard output
of ``perfbench/run.py --workload all --seed 1 ...`` followed by that of
``--seed 2``: each run's ``== WORKLOAD seed=S`` header and its
``json_sha256`` and ``sarif_sha256`` lines. It exits 1 unless every one of
the eight (workload, seed) runs printed exactly the pinned JSON and SARIF
sha256s below and no other run was printed. A change that moves a digest
names it.
"""

from __future__ import annotations

import re
import sys

tree_1 = (
    "6f02e669c52ffd907bd04a1b5f170685472fb1f8c984102ddc9e532cfb0b56ca",
    "13a2164dab92952ec2bd3d8451fdae352d4a320cf027f8513721590cdfbc0b33",
)
tree_2 = (
    "e15a7fbe95726ca3adda7f7418ce81841df6484746a2806ccbb26fcaa09920d6",
    "ae7640a4f9166cab0e78ed804e9d524e81ad95255bd1f3f3dae75a740442a7a8",
)
EXPECTED = {
    ("corpus-ast", "1"): tree_1,
    ("corpus-ast-jobs2", "1"): tree_1,
    ("corpus-pattern", "1"): (
        "483a6bb3295b5adea1a4712f8a6159843116b2492e0d6e29e6638b538163aec8",
        "8ad4b4e6412a67871858c73e36fd9ecc493959154dc21bf5d552210363030293",
    ),
    ("monolith-ast", "1"): (
        "21a1330f99cf98b4d7e3c9f835df466d8c5e49accb83eb2a4dd73357d085e846",
        "c579584caec529ec7cfa92c75167aa6efa434eeb90a3d0ea33af8f4fb5ad2ab2",
    ),
    ("corpus-ast", "2"): tree_2,
    ("corpus-ast-jobs2", "2"): tree_2,
    ("corpus-pattern", "2"): (
        "9532eb572219ba914c8afdd25482befa748bd1d867a19b83f836cda0bd8d0555",
        "99b01707d0f04c7252566d4351e6a2d5ba7aee419107755d609f3cb9df878ee6",
    ),
    ("monolith-ast", "2"): (
        "cc3ece24781223f60b9dd70ec7b9e45d33d15f2f46950eacd343866c0deff1fb",
        "ffa2234b95afd9730f1ac48d376f78a40b125e66b7801396f45198f347b763cb",
    ),
}


def main(output: str) -> int:
    got, run = {}, None
    with open(output) as f:
        for line in f:
            if m := re.match(r"== (\S+) seed=(\d+) ", line):
                run = m.groups()
            elif m := re.match(r"\s+(json|sarif)_sha256\s+(\S+)", line):
                got.setdefault(run, {})[m.group(1)] = m.group(2)
    got = {r: (d.get("json"), d.get("sarif")) for r, d in got.items()}
    wrong = sorted(r for r in EXPECTED.keys() | got.keys() if got.get(r) != EXPECTED.get(r))
    for r in wrong:
        print(f"{r}: json/sarif sha256 {got.get(r)}, expected {EXPECTED.get(r)}")
    if wrong:
        return 1
    print("report digests match on", ", ".join(" seed ".join(r) for r in sorted(got)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
