"""One benchmark process: set up a workload, then time or trace scan operations.

Started by ``run.py``, one fresh process per set-up sample, per timed run and
per traced run. It prints ``READY`` once set-up is done and a JSON result as
its last line.

One scan operation is what ``tfsustain scan --format json`` and
``--format sarif`` do after argument parsing: ``scanner.scan`` ->
``scanner.prevalence`` -> ``report.render(json)`` -> ``report.render(sarif)``,
timed as one unit. Garbage is collected before each operation, outside the
timed region, and the previous operation's results are dropped first.

Untraced workers also run slices of ``calibrate``'s reference work after
set-up and between operations, CALIBRATION_SHARE of the time the operations
take, so ``run.py`` can scale their times to a fixed machine speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import corpus as corpora
from tracer import LayerTotals, Tracer, layer_totals

ROOT = Path(__file__).resolve().parents[1]
SCALING_RESOURCES = corpora.MONOLITH_RESOURCES // 2  # n; the check also scans 2n
MAX_REPORTED_ERRORS = 5
CALIBRATION_LEAD_S = 0.3  # reference work right after set-up
CALIBRATION_SHARE = 0.3  # reference work after each operation, per second of it


def import_tfsustain():
    """Import tfsustain from this checkout's ``src/``, never from elsewhere.

    Returns the ``scanner`` and ``report`` modules and ``DetectorConfig``.
    """
    src = ROOT / "src"
    if not (src / "tfsustain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tfsustain sources under {src}")
    sys.path.insert(0, str(src))
    import tfsustain
    from tfsustain import report, scanner
    from tfsustain.detectors import DetectorConfig

    if Path(tfsustain.__file__).resolve().parent != (src / "tfsustain").resolve():
        raise SystemExit(f"perfbench: tfsustain imported from {tfsustain.__file__}")
    return scanner, report, DetectorConfig


@dataclass
class Operation:
    seconds: float
    report: object
    json_sha256: str
    sarif_sha256: str
    phases: dict[str, float]


def scan_operation(scanner, report, root: Path, cfg, engine: str, jobs: int) -> Operation:
    gc.collect()
    t0 = time.perf_counter()
    result = scanner.scan(root, cfg, engine, jobs)
    t1 = time.perf_counter()
    stats = scanner.prevalence(result)
    t2 = time.perf_counter()
    as_json = report.render(result, stats, "json")
    t3 = time.perf_counter()
    as_sarif = report.render(result, stats, "sarif")
    t4 = time.perf_counter()
    return Operation(
        t4 - t0,
        result,
        hashlib.sha256(as_json).hexdigest(),
        hashlib.sha256(as_sarif).hexdigest(),
        {
            "prevalence": t2 - t1,
            "render_json": t3 - t2,
            "render_sarif": t4 - t3,
            "json_bytes": len(as_json),
            "sarif_bytes": len(as_sarif),
        },
    )


def check(
    op: Operation, corpus: corpora.Corpus, engine: str, reference: Operation | None
) -> list[str]:
    """Differences between one operation's output and the corpus references.

    ``reference`` is an earlier operation of the same engine whose bytes this
    one must repeat; the planted SS5 pairs are an AST-engine reference.
    """
    errors: list[str] = []
    report = op.report
    if report.scanned_files != len(corpus.files):
        errors.append(f"scanned {report.scanned_files} files, wrote {len(corpus.files)}")
    for path, smell in corpus.synth_plan.items():
        got = sorted(s.name for s in report.per_file_index.get(path, ()))
        want = [smell] if smell else []
        if got != want:
            errors.append(f"{path}: smells {got}, planted {want}")
    if corpus.replica_prefixes:
        by_replica: dict[str, list[tuple]] = {p: [] for p in corpus.replica_prefixes}
        for f in report.findings:
            prefix, _, rest = f.path.partition("/")
            replica, _, rest = rest.partition("/")
            key = f"{prefix}/{replica}/"
            if key in by_replica:
                by_replica[key].append(
                    (rest, f.smell.name, f.span.start_line, f.span.start_col,
                     f.span.end_line, f.span.end_col, f.evidence, f.message)
                )
        first = by_replica[corpus.replica_prefixes[0]]
        for prefix, findings in by_replica.items():
            if findings != first:
                errors.append(f"fixture replica {prefix} disagrees with {corpus.replica_prefixes[0]}")
    for path, expected in corpus.ss5_expected.items() if engine == "ast" else ():
        got = {
            (f.span.start_line, f.evidence)
            for f in report.findings
            if f.path == path and f.smell.name == "SS5"
        }
        if got != expected:
            errors.append(
                f"{path}: {len(got)} SS5 findings, {len(expected)} planted; "
                f"{len(got - expected)} unexpected, {len(expected - got)} missed"
            )
    if reference is not None:
        if op.json_sha256 != reference.json_sha256:
            errors.append(f"JSON sha256 {op.json_sha256} != reference {reference.json_sha256}")
        if op.sarif_sha256 != reference.sarif_sha256:
            errors.append(f"SARIF sha256 {op.sarif_sha256} != reference {reference.sarif_sha256}")
    return errors


class Run:
    """Set-up state of one workload and the tally of its operations."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        """``work_dir/corpus`` holds the workload's corpus, already written."""
        self.kind, self.engine, self.jobs = corpora.WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.scanner, self.report, detector_config = import_tfsustain()
        self.corpus = corpora.build_corpus(self.kind, seed)
        self.corpus.root = work_dir / "corpus"
        if not self.corpus.root.is_dir():
            raise SystemExit(f"perfbench: no corpus written under {self.corpus.root}")
        self.cfg = detector_config()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # The warm-up runs with one job: it is the reference every timed
        # operation must match byte for byte, whatever its job count.
        self.reference = None
        self.reference = self.operation(self.engine, jobs=1)
        if self.reference is not None:
            self.reference.report = None

    def operation(
        self, engine: str, jobs: int, corpus: corpora.Corpus | None = None
    ) -> Operation | None:
        """One scan operation, checked and counted; None when it raised.

        ``corpus`` defaults to the workload's own; only there, and with the
        workload's engine, must the bytes repeat the warm-up's.
        """
        corpus = corpus or self.corpus
        reference = self.reference if engine == self.engine and corpus is self.corpus else None
        self.attempted += 1
        try:
            op = scan_operation(self.scanner, self.report, corpus.root, self.cfg, engine, jobs)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        errors = check(op, corpus, engine, reference)
        if errors:
            self.failed += 1
            self.errors.extend(errors[:MAX_REPORTED_ERRORS])
        return op

    def tally(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:MAX_REPORTED_ERRORS],
            "files": len(self.corpus.files),
            "bytes": self.corpus.bytes,
            "json_sha256": self.reference and self.reference.json_sha256,
            "sarif_sha256": self.reference and self.reference.sarif_sha256,
        }


def measure(run: Run, seconds: float) -> dict:
    """Untraced: time scan operations for ``seconds``, at least three.

    Reference-work slices, on as many threads as the scan, follow every
    operation, so they sample the machine's speed over the same stretches.
    """
    times: list[float] = []
    slices: list[float] = []
    attempts = 0
    start = time.perf_counter()
    while attempts < 3 or time.perf_counter() - start < seconds:
        attempts += 1
        t0 = time.perf_counter()
        op = run.operation(run.engine, run.jobs)
        if op is not None:
            times.append(op.seconds)
        del op
        gc.collect()
        slices += calibrate.run_for(
            CALIBRATION_SHARE * (time.perf_counter() - t0), at_least=2, threads=run.jobs
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        **run.tally(),
        "scan_s": times,
        "scan_calibration_s": slices,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def _pairs(report) -> set[tuple[str, str]]:
    return {(path, s.name) for path, smells in report.per_file_index.items() for s in smells}


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _percentile_ms(durations: list[float], q: float) -> float | None:
    if not durations:
        return None
    ordered = sorted(durations)
    return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _span_metrics(t: LayerTotals, op: Operation, jobs: int) -> dict[str, float | None]:
    """Per-layer values of one traced operation."""
    m: dict[str, float | None] = {}
    m["scanner.discover_s"] = t.total["scanner.discover"]
    m["scanner.discover_files"] = sum(t.meta["scanner.discover"])
    m["scanner.read_s"] = t.cpu["scanner.read_unit"] - t.cpu["scanner.unit_for"]
    m["scanner.prevalence_s"] = op.phases["prevalence"]
    m["scanner.pool_busy_s"] = t.cpu["scanner.read_unit"]
    load_wall = t.first_start.get("detectors.detect_all", 0.0) - t.last_end.get("scanner.discover", 0.0)
    m["scanner.parallel_efficiency"] = (
        m["scanner.pool_busy_s"] / (load_wall * jobs) if load_wall > 0 else None
    )
    tokens = t.meta["lexer.tokenize"] or [0, 0]
    m["lexer.tokenize_s"] = t.total["lexer.tokenize"]
    m["lexer.tokens"] = tokens[0]
    m["lexer.tokens_per_s"] = tokens[0] / m["lexer.tokenize_s"] if m["lexer.tokenize_s"] else None
    m["lexer.error_tokens"] = tokens[1]
    parsed = t.meta["parser.parse"] or [0, 0]
    m["parser.parse_self_s"] = t.self_time["parser.parse"]
    m["parser.calls"] = t.calls["parser.parse"]
    m["parser.file_ms_p50"] = _percentile_ms(t.durations["parser.parse"], 0.50)
    m["parser.file_ms_p99"] = _percentile_ms(t.durations["parser.parse"], 0.99)
    m["parser.files_failed"] = parsed[0]
    m["parser.error_diagnostics"] = parsed[1]
    m["detectors.detect_all_s"] = t.total["detectors.detect_all"]
    m["detectors.findings"] = sum(t.meta["detectors.detect_all"])
    for engine in ("ast_engine", "pattern_engine"):
        for n in range(1, 8):
            m[f"{engine}.ss{n}_s"] = t.total[f"{engine}.ss{n}"]
        m[f"{engine}.findings"] = sum(
            sum(t.meta[f"{engine}.ss{n}"]) for n in range(1, 8)
        )
    m["ast_engine.resource_blocks_calls"] = t.calls["ast_engine.resource_blocks"]
    m["pattern_engine.mask_comments_calls"] = t.calls["pattern_engine.mask_comments"]
    m["pattern_engine.mask_comments_s"] = t.total["pattern_engine.mask_comments"]
    m["report.render_json_s"] = op.phases["render_json"]
    m["report.render_sarif_s"] = op.phases["render_sarif"]
    m["report.json_bytes"] = op.phases["json_bytes"]
    m["report.sarif_bytes"] = op.phases["sarif_bytes"]
    return m


def _requires(metric: str) -> tuple[str, ...]:
    """Span names a per-layer metric is computed from."""
    layer, _, stat = metric.partition(".")
    if layer in ("ast_engine", "pattern_engine"):
        if stat.startswith("ss"):
            return (f"{layer}.{stat[:3]}",)
        if stat == "findings":
            return tuple(f"{layer}.ss{n}" for n in range(1, 8))
        return (f"{layer}.{stat.rsplit('_', 1)[0]}",)
    return {
        "scanner.discover_s": ("scanner.discover",),
        "scanner.discover_files": ("scanner.discover",),
        "scanner.read_s": ("scanner.read_unit", "scanner.unit_for"),
        "scanner.pool_busy_s": ("scanner.read_unit",),
        "scanner.parallel_efficiency": ("scanner.read_unit", "scanner.discover", "detectors.detect_all"),
        "detectors.detect_all_s": ("detectors.detect_all",),
        "detectors.findings": ("detectors.detect_all",),
    }.get(metric, ("lexer.tokenize",) if layer == "lexer" else ("parser.parse",) if layer == "parser" else ())


def trace(run: Run, seconds: float, out_path: Path) -> dict:
    """Traced: alternate untraced and traced operations, then the extras.

    The extras are one traced pass of the other engine over the same corpus
    (its engine metrics and the engine agreement) and the monolith scaling
    check, scan time at 2n resources over scan time at n.
    """
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[tuple[Operation, LayerTotals]] = []
    attempts = 0
    start = time.perf_counter()
    while attempts < 2 or time.perf_counter() - start < seconds:
        attempts += 1
        if attempts % 2:
            op = run.operation(run.engine, run.jobs)
            if op is not None:
                untraced.append(op.seconds)
            del op
            continue
        tracer.op += 1
        tracer.install()
        try:
            op = run.operation(run.engine, run.jobs)
        finally:
            tracer.uninstall()
        spans = tracer.op_spans(tracer.op)
        if op is not None:
            traced.append((_strip(op), layer_totals(spans)))
        if tracer.op > 1:  # keep only the first traced operation's spans
            del tracer.spans[len(tracer.spans) - len(spans):]
        del op, spans

    other_engine = "pattern" if run.engine == "ast" else "ast"
    tracer.op += 1
    tracer.install()
    try:
        other = run.operation(other_engine, run.jobs)
    finally:
        tracer.uninstall()
    other_totals = layer_totals(tracer.op_spans(tracer.op))
    tracer.write(out_path, {1, tracer.op})

    if not traced:
        return {**run.tally(), "metrics": {}, "null_reasons": {}}
    per_op = [_span_metrics(t, op, run.jobs) for op, t in traced]
    metrics = {name: _median([m[name] for m in per_op if m[name] is not None]) for name in per_op[0]}
    if other is not None:
        other_metrics = _span_metrics(other_totals, other, run.jobs)
        prefix = f"{other_engine}_engine."
        metrics.update({k: v for k, v in other_metrics.items() if k.startswith(prefix)})
        mine, theirs = traced[0][0].pairs, _pairs(other.report)
        union = mine | theirs
        metrics["detectors.engine_agreement"] = len(mine & theirs) / len(union) if union else None
        metrics["detectors.engine_agreement_base"] = len(union)
    else:
        metrics["detectors.engine_agreement"] = metrics["detectors.engine_agreement_base"] = None
    del other
    metrics["scanner.read_bytes"] = run.corpus.bytes
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.seconds for op, _ in traced) / statistics.median(untraced)
    )
    metrics["scan.scaling_ratio_2x"] = scaling_ratio(run)

    reasons = {}
    for name in metrics:
        missing = [tracer.missing.get(s, s) for s in _requires(name) if s not in tracer.wrapped]
        if missing:
            metrics[name] = None
            reasons[name] = "not traced, missing: " + ", ".join(sorted(set(missing)))
        elif metrics[name] is None:
            reasons[name] = "no samples"
    return {
        **run.tally(),
        "metrics": metrics,
        "null_reasons": reasons,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "spans_file": str(out_path.relative_to(ROOT)),
    }


@dataclass
class _StrippedOp:
    """What a traced operation leaves behind once its report is dropped."""

    seconds: float
    phases: dict[str, float]
    pairs: set[tuple[str, str]]


def _strip(op: Operation) -> _StrippedOp:
    return _StrippedOp(op.seconds, op.phases, _pairs(op.report))


def scaling_ratio(run: Run) -> float | None:
    """AST scan time of a 2n-resource monolith over that of an n-resource one."""
    seconds = []
    for resources in (SCALING_RESOURCES, 2 * SCALING_RESOURCES):
        mono = corpora.build_monolith_corpus(run.seed, resources)
        mono.write(run.work_dir / f"scaling-{resources}")
        op = run.operation("ast", 1, mono)
        if op is None:
            return None
        seconds.append(op.seconds)
        del op
    return seconds[1] / seconds[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    run = Run(args.workload, args.seed, args.work_dir)
    print("READY", flush=True)
    if args.mode == "trace":
        result = trace(run, args.seconds, args.spans_out)
    else:
        # Set-up runs on one thread, so its slices do too.
        lead = calibrate.run_for(CALIBRATION_LEAD_S)
        result = run.tally() if args.mode == "setup" else measure(run, args.seconds)
        result["setup_calibration_s"] = lead
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
