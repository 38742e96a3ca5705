"""Paper-scale corpus check: as many synthetic scripts as the paper scanned.

``python tests/paper_scale.py DIR`` writes ``tests/synth.py``'s corpus of
26,467 one-file directories under ``DIR``, its default 200-file plan scaled
by 26,467 / 200 and rounded. It scans the corpus with each engine in a fresh
process at jobs 1, 2 and 3, and exits 1 unless

* every file is scanned and each smell's affected files are the planted ones;
* the JSON and the SARIF bytes are the same for every jobs value;
* at jobs=1 the scanning process's peak RSS (``ru_maxrss``) grows by at most
  15 MB over its value after the imports. The reports, whose bytes grow with
  the findings (3.6 MB of SARIF here), are rendered after this measurement.

Wall times are printed, not checked: they depend on the machine.

A process starts with the peak RSS of the process that started it, so this
one imports nothing of tfsustain and holds only digests; the corpus is
written, and each scan run, in a process of its own.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

TOTAL = 26_467
RSS_GROWTH_MAX = 15_000_000  # bytes
ENGINES = ("ast", "pattern")


def _smell_sets(paths_by_smell: dict) -> dict[str, list]:
    """Each smell's file count and a digest of its sorted paths."""
    import hashlib

    return {
        smell: [len(paths), hashlib.sha256("\n".join(sorted(paths)).encode()).hexdigest()]
        for smell, paths in paths_by_smell.items()
    }


def build(corpus: str) -> dict:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from synth import DEFAULT_PLAN, build_corpus

    plan = {smell: round(n * TOTAL / 200) for smell, n in DEFAULT_PLAN.items()}
    start = time.perf_counter()
    planted = build_corpus(Path(corpus), plan, total=TOTAL)
    return {
        "seconds": time.perf_counter() - start,
        "affected": _smell_sets({s.name: paths for s, paths in planted.items() if paths}),
    }


def scan_once(corpus: str, engine: str, jobs: int) -> dict:
    """Scan, measured from after the imports, then render both reports."""
    import hashlib
    import resource

    from tfsustain.report import render
    from tfsustain.scanner import prevalence, scan

    def peak_rss() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

    before = peak_rss()
    start = time.perf_counter()
    report = scan(corpus, engine=engine, jobs=jobs)
    stats = prevalence(report)
    seconds = time.perf_counter() - start
    growth = peak_rss() - before
    digests = [hashlib.sha256(render(report, stats, fmt)).hexdigest() for fmt in ("json", "sarif")]
    affected: dict[str, set[str]] = {}
    for finding in report.findings:
        affected.setdefault(finding.smell.name, set()).add(finding.path)
    return {
        "seconds": seconds,
        "rss_growth": growth,
        "scanned": report.scanned_files,
        "digests": digests,
        "affected": _smell_sets(affected),
    }


def _child(*args: str) -> dict:
    command = [sys.executable, __file__, *args]
    return json.loads(subprocess.run(command, check=True, capture_output=True).stdout)


def main(root: str) -> int:
    corpus = f"{root}/corpus"
    built = _child("--build", corpus)
    planted = built["affected"]
    print(f"wrote {TOTAL} files in {built['seconds']:.1f} s; planted "
          + ", ".join(f"{smell} {n}" for smell, (n, _) in sorted(planted.items())))
    failures = []
    for engine in ENGINES:
        digests = {}
        for jobs in (1, 2, 3):
            run = _child("--scan", corpus, engine, str(jobs))
            growth = run["rss_growth"]
            print(f"{engine:7} jobs={jobs}: {run['seconds']:5.2f} s, "
                  f"peak RSS +{growth / 1e6:.1f} MB")
            if jobs == 1 and growth > RSS_GROWTH_MAX:
                failures.append(f"{engine}: peak RSS grew by {growth / 1e6:.1f} MB at jobs=1")
            if run["scanned"] != TOTAL:
                failures.append(f"{engine}: scanned {run['scanned']} of {TOTAL} files")
            for smell in sorted(planted.keys() | run["affected"].keys()):
                found, want = run["affected"].get(smell, [0]), planted.get(smell, [0])
                if found != want:
                    failures.append(
                        f"{engine} jobs={jobs}: {smell} affects {found[0]} files, "
                        f"not the {want[0]} planted"
                    )
            digests[jobs] = run["digests"]
        for jobs in (2, 3):
            for fmt, one, other in zip(("json", "sarif"), digests[1], digests[jobs]):
                if one != other:
                    failures.append(f"{engine}: {fmt} at jobs={jobs} differs from jobs=1")
    for failure in failures:
        print("FAIL", failure)
    if not failures:
        print("paper-scale checks pass on", ", ".join(ENGINES))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1] == "--build":
        print(json.dumps(build(sys.argv[2])))
    elif sys.argv[1] == "--scan":
        print(json.dumps(scan_once(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
    else:
        sys.exit(main(sys.argv[1]))
