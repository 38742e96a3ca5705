"""Scan benchmark for tfsustain: seeded Terraform corpora, timed and traced.

    python3 perfbench/run.py --workload corpus-ast --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere inside a checkout; tfsustain is imported from the
checkout's ``src/``. Every workload runs in fresh worker processes
(``worker.py``), so each one's peak RSS and set-up time are its own:

* ``--trace 0`` starts SETUP_SAMPLES workers. All but the last only set up;
  the last also times scan operations for ``--seconds``. ``setup_s`` is the
  median over all of them, measured here from starting the process until it
  reports that set-up is done.
* ``--trace 1`` starts one worker that alternates untraced and traced scan
  operations and reports the per-layer metrics.

Every time in the end-to-end metrics is scaled to a fixed machine speed:
multiplied by the ``calibrate.speed_factor`` of the reference-work slices
the same worker ran next to it (the raw value is printed beside it). The
shared host's speed drifted by up to 2x within minutes; the scaling takes
that drift out, and no change to tfsustain can move the reference work.

The corpus is written to disk once per workload, before any worker starts,
so file-system write time (which varied twentyfold between runs on a shared
disk) stays out of every metric.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every output check passed, 1 when a check failed and 2
when a worker could not run at all (then no JSON line is printed).
Generated corpora live under ``.perfbench_work/`` and are removed after each
workload; the spans of the traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import speed_factor
from corpus import WORKLOADS, build_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # every worker of one workload must finish within this
SCALING_TARGET = 2.5  # ROADMAP: time(2n) / time(n) for generated monoliths

END_TO_END = {
    "scan_s": "s",
    "files_per_s": "files/s",
    "mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "scanner.discover_s": "s",
    "scanner.discover_files": "count",
    "scanner.read_s": "s",
    "scanner.read_bytes": "bytes",
    "scanner.prevalence_s": "s",
    "scanner.pool_busy_s": "s",
    "scanner.parallel_efficiency": "ratio",
    "lexer.tokenize_s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "lexer.error_tokens": "count",
    "parser.parse_self_s": "s",
    "parser.calls": "count",
    "parser.file_ms_p50": "ms",
    "parser.file_ms_p99": "ms",
    "parser.files_failed": "count",
    "parser.error_diagnostics": "count",
    "detectors.detect_all_s": "s",
    "detectors.findings": "count",
    "detectors.engine_agreement": "ratio",
    "detectors.engine_agreement_base": "count",
    **{f"ast_engine.ss{n}_s": "s" for n in range(1, 8)},
    "ast_engine.resource_blocks_calls": "count",
    "ast_engine.findings": "count",
    **{f"pattern_engine.ss{n}_s": "s" for n in range(1, 8)},
    "pattern_engine.mask_comments_calls": "count",
    "pattern_engine.mask_comments_s": "s",
    "pattern_engine.findings": "count",
    "report.render_json_s": "s",
    "report.render_sarif_s": "s",
    "report.json_bytes": "bytes",
    "report.sarif_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "scan.scaling_ratio_2x": "ratio",
}


class WorkerError(Exception):
    """A worker process crashed, timed out or printed no result."""


def spawn(mode: str, workload: str, seed: int, seconds: int, deadline: float, work_dir: Path):
    """Run one worker; returns (seconds until it reported READY, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--work-dir", str(work_dir),
        "--spans-out", str(OUT / f"{workload}.spans.jsonl"),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise WorkerError(f"{workload} {mode} worker exited with code {code}")
    return setup_s, json.loads(lines[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: int, deadline: float, work_dir: Path):
    """Untraced: set-up samples plus one timed run; the end-to-end metrics.

    Each worker's times are scaled by the speed factor of its own
    reference-work slices.
    """
    setups, factors, tallies = [], [], []
    for i in range(SETUP_SAMPLES):
        mode = "measure" if i == SETUP_SAMPLES - 1 else "setup"
        setup_s, result = spawn(mode, workload, seed, seconds, deadline, work_dir)
        setups.append(setup_s)
        factors.append(speed_factor(result["setup_calibration_s"]))
        tallies.append(result)
    result = tallies[-1]
    times = result["scan_s"]
    raw_scan_s = statistics.median(times)
    scan_factor = speed_factor(result["scan_calibration_s"], WORKLOADS[workload][2])
    scan_s = raw_scan_s * scan_factor
    values = {
        "scan_s": scan_s,
        "files_per_s": result["files"] / scan_s,
        "mb_per_s": result["bytes"] / 1e6 / scan_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s * f for s, f in zip(setups, factors)),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    notes = {
        "scan_s": f"raw median {raw_scan_s:.4f} of {len(times)} scan operations "
        f"(min {min(times):.4f}, max {max(times):.4f}) x speed factor {scan_factor:.4f} "
        f"from {len(result['scan_calibration_s'])} reference slices",
        "setup_s": f"median of {len(setups)} set-ups, raw: "
        + ", ".join(f"{s:.4f}" for s in setups)
        + "; speed factors: "
        + ", ".join(f"{f:.4f}" for f in factors),
    }
    return tallies, metrics, notes


def traced_run(workload: str, seed: int, seconds: int, deadline: float, work_dir: Path):
    """Traced: one worker; the per-layer metrics, nulls carrying their reason."""
    _, result = spawn("trace", workload, seed, seconds, deadline, work_dir)
    metrics, notes = {}, {}
    for name, unit in PER_LAYER.items():
        value = result["metrics"].get(name)
        metrics[name] = _metric(value, unit)
        if value is None:
            reason = result["null_reasons"].get(name, "no traced operation completed")
            metrics[name]["reason"] = reason
            notes[name] = reason
    ratio = metrics["scan.scaling_ratio_2x"]["value"]
    if ratio is not None:
        verdict = "within" if ratio <= SCALING_TARGET else "ABOVE"
        notes["scan.scaling_ratio_2x"] = f"{verdict} the ROADMAP target of <= {SCALING_TARGET}"
    if "traced_ops" in result:
        notes["trace.overhead_ratio"] = (
            f"{result['traced_ops']} traced / {result['untraced_ops']} untraced operations; "
            f"spans in {result['spans_file']}"
        )
    return [result], metrics, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """Write the workload's corpus once, then run its workers over it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    kind, engine, jobs = WORKLOADS[workload]
    work_dir = WORK / f"{workload}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        build_corpus(kind, seed).write(work_dir / "corpus")
        run = traced_run if trace else timed_run
        tallies, metrics, notes = run(workload, seed, seconds, deadline, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(t["attempted"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    last = tallies[-1]
    print(
        f"== {workload} seed={seed} engine={engine} jobs={jobs}: "
        f"{last['files']} files, {last['bytes'] / 1e6:.3f} MB"
    )
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>14} {m['unit']}{note}")
    if not trace:
        print(f"  {'failed_ratio':<36} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
    print(f"  json_sha256  {last['json_sha256']}")
    print(f"  sarif_sha256 {last['sarif_sha256']}")
    errors = dict.fromkeys(e.strip() for t in tallies for e in t["errors"])
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    return attempted, failed, metrics, last["json_sha256"]


def main() -> int:
    ap = argparse.ArgumentParser(description="tfsustain scan benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through the ``finally`` blocks that stop the worker
    # and remove the corpus.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "tfsustain" / "__init__.py").is_file():
        print(f"perfbench: no tfsustain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    json_sha: dict[str, str] = {}
    try:
        for workload in workloads:
            a, f, m, json_sha[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
            attempted, failed = attempted + a, failed + f
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: value for name, value in m.items()})
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    # Same seed, same corpus: the job count must not change a byte.
    if {"corpus-ast", "corpus-ast-jobs2"} <= json_sha.keys() and (
        json_sha["corpus-ast"] != json_sha["corpus-ast-jobs2"]
    ):
        print("  CHECK FAILED: corpus-ast and corpus-ast-jobs2 JSON differ")
        failed += 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
