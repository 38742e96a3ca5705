"""``--jobs`` byte check: a scan's output and exit code do not depend on ``--jobs``.

``python tests/ci/jobs_bytes.py DIR`` writes ``tests/synth.py``'s corpus of 200
one-file directories under ``DIR/synth`` and eight copies of ``tests/fixtures``
under ``DIR/copies``. It then runs the ``tfsustain`` command on ``PATH`` as
``tfsustain scan TREE --engine E --format F --jobs J`` for TREE
``tests/fixtures`` and those two trees, each engine, the JSON and SARIF formats
and J 1, 2 and 3, from the repository root. It exits 1 as soon as a scan exits
above 1, and at the end if ``--jobs`` 2 or 3 gave other standard output bytes or
another exit code than ``--jobs 1``.

``tests/fixtures`` is a single batch, so it starts no worker. The synthetic
corpus is four batches, which ``--jobs`` 2 and 3 claim on worker processes of
the installed command's Python; a machine with more than two CPUs runs three
processes. The eight copies are three batches, each holding two copies of some
fixture directory, so every process that claims one of them finds the second
copy in its own directory cache.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ENGINES = ("ast", "pattern")
FORMATS = ("json", "sarif")


def main(work: str) -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from synth import build_corpus

    synth, copies = Path(work, "synth"), Path(work, "copies")
    build_corpus(synth)
    for copy in "abcdefgh":
        shutil.copytree(ROOT / "tests" / "fixtures", copies / copy, dirs_exist_ok=True)
    differ = []
    for tree in ("tests/fixtures", str(synth), str(copies)):
        for engine in ENGINES:
            for fmt in FORMATS:
                runs = {}
                for jobs in (1, 2, 3):
                    args = ["scan", tree, "--engine", engine, "--format", fmt, "--jobs", str(jobs)]
                    done = subprocess.run(["tfsustain", *args], cwd=ROOT, stdout=subprocess.PIPE)
                    print(f"{' '.join(args)}: exit {done.returncode}", flush=True)
                    if done.returncode > 1:
                        return 1
                    runs[jobs] = (done.stdout, done.returncode)
                for jobs in (2, 3):
                    for what, one, other in zip(("output", "exit code"), runs[1], runs[jobs]):
                        if one != other:
                            differ.append(f"scan {tree} --engine {engine} --format {fmt}: "
                                          f"{what} at --jobs {jobs} differs from --jobs 1")
    for line in differ:
        print("FAIL", line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
