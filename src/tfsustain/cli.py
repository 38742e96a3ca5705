"""Command-line interface: lint, scan, cluster, harvest, catalog, sample.

Exit codes follow the linting convention everywhere: 0 means no findings,
1 means findings were reported, 2 means the invocation itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__, read_json
from .catalog import (
    CATALOG_VERSION,
    CATEGORY_ANCHORS,
    CatalogError,
    SmellDescriptor,
    SmellId,
    catalog as builtin_catalog,
    dendrogram,
    dump_catalog,
    load_catalog,
)
from .detectors import ENGINES, ConfigError, DetectorConfig, config_from_dict
from .harvest import (
    DEFAULT_BASE_URL,
    SEARCH_CAP,
    TOKEN_ENV_VAR,
    CodeSearchClient,
    FilterCriteria,
    HarvestError,
    HarvestManifest,
    criteria_from_file,
    harvest_provider,
)
from .report import FORMATS, findings_lines, render
from .sampling import sample_stratified
from .scanner import ScanError, prevalence, scan


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    # RecursionError: JSON nested deeper than the interpreter's recursion limit.
    except (ScanError, HarvestError, OSError, ValueError, RecursionError) as err:
        print(f"error: {_describe_error(err)}", file=sys.stderr)
        return 2


def _describe_error(err: Exception) -> str:
    if isinstance(err, ConfigError) and err.line is not None:
        return f"{err} (line {err.line}, column {err.col})"
    return str(err)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfsustain",
        description="Detect sustainability smells in Terraform configurations.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"tfsustain {__version__} (catalog {CATALOG_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    lint = sub.add_parser("lint", help="lint one path and print findings")
    lint.add_argument("path")
    _common_scan_flags(lint)
    lint.set_defaults(handler=_cmd_lint)

    scan_cmd = sub.add_parser("scan", help="corpus scan with prevalence statistics")
    scan_cmd.add_argument("root")
    _common_scan_flags(scan_cmd)
    scan_cmd.add_argument("--format", choices=FORMATS, default="text")
    scan_cmd.set_defaults(handler=_cmd_scan)

    cluster = sub.add_parser("cluster", help="cluster the smell catalog into categories")
    cluster.add_argument("--format", choices=("text", "json"), default="text")
    cluster.add_argument("--config", default=None)
    cluster.add_argument("--output", default=None)
    cluster.set_defaults(handler=_cmd_cluster)

    cat = sub.add_parser("catalog", help="print the smell catalog")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    cat.add_argument("--config", default=None)
    cat.add_argument("--output", default=None)
    cat.set_defaults(handler=_cmd_catalog)

    harvest = sub.add_parser("harvest", help="harvest Terraform repositories")
    harvest.add_argument("--provider", choices=("aws", "azure", "gcp"), required=True)
    harvest.add_argument("--dest", required=True)
    harvest.add_argument("--criteria", default=None, help="JSON file of filter criteria")
    harvest.add_argument("--dry-run", action="store_true")
    harvest.add_argument("--query", default=None, help="override the search query")
    harvest.add_argument("--base-url", default=None, help="API base URL (for mirrors/stubs)")
    harvest.add_argument(
        "--token",
        default=None,
        help=f"API token; defaults to the {TOKEN_ENV_VAR} environment variable",
    )
    harvest.add_argument("--manifest", default=None, help="manifest path (default: DEST/manifest.jsonl)")
    harvest.set_defaults(handler=_cmd_harvest)

    sample = sub.add_parser("sample", help="stratified sample of a repo->files manifest")
    sample.add_argument("manifest", help="JSON file mapping repository to .tf file list")
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--output", default=None)
    sample.set_defaults(handler=_cmd_sample)

    return parser


def _common_scan_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--engine", choices=ENGINES, default="ast")
    cmd.add_argument("--config", default=None, help="detector config JSON")
    cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="scan on up to N processes, at most one per CPU and per directory; "
        "the output does not depend on N (default: 1, one process)",
    )
    cmd.add_argument("--output", default=None, help="write the report to a file")
    cmd.add_argument("-v", "--verbose", action="store_true")


def load_config(path: str | None) -> tuple[DetectorConfig, list[SmellDescriptor]]:
    """Detector config plus smell catalog, defaults when no file is given.

    The config file is strict JSON mirroring DetectorConfig; the extra key
    ``catalog_file`` may point at an external smell catalog (relative paths
    resolve against the config file's directory).
    """
    if path is None:
        return DetectorConfig(), builtin_catalog()
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: malformed config JSON: {err.msg}", err.lineno, err.colno
        ) from err
    except (UnicodeDecodeError, RecursionError) as err:
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    catalog_file = data.pop("catalog_file", None)
    try:
        cfg = config_from_dict(data, source_text=text)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}", err.line, err.col) from None
    if catalog_file is None:
        return cfg, builtin_catalog()
    if not isinstance(catalog_file, str):
        raise ConfigError(f"{path}: catalog_file must be a string")
    catalog_path = Path(catalog_file)
    if not catalog_path.is_absolute():
        catalog_path = Path(path).parent / catalog_path
    return cfg, load_catalog(catalog_path)


def _load_scan_config(path: str | None) -> tuple[DetectorConfig, list[SmellDescriptor]]:
    """``load_config`` for lint and scan, whose reports name every smell."""
    cfg, descriptors = load_config(path)
    missing = sorted(s.name for s in set(SmellId) - {d.id for d in descriptors})
    if missing:
        raise CatalogError(f"catalog has no entry for {', '.join(missing)}")
    return cfg, descriptors


def _write_output(data: bytes, output: str | None) -> None:
    if output is None:
        # The same bytes as --output, whatever encoding the text layer was given.
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        Path(output).write_bytes(data)


def _cmd_lint(args: argparse.Namespace) -> int:
    cfg, descriptors = _load_scan_config(args.config)
    report = scan(args.path, cfg, args.engine, jobs=args.jobs)
    lines = findings_lines(report, descriptors)
    body = "\n".join(lines) + ("\n" if lines else "")
    summary = (
        f"{report.scanned_files} file(s) scanned, {len(report.findings)} finding(s)"
    )
    # A path that is not UTF-8 was decoded with surrogateescape: print its own bytes.
    _write_output((body + summary + "\n").encode("utf-8", "surrogateescape"), args.output)
    if args.verbose and report.parse_failures:
        print(f"note: {report.parse_failures} file(s) failed to parse", file=sys.stderr)
    return 1 if report.findings else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg, descriptors = _load_scan_config(args.config)
    report = scan(args.root, cfg, args.engine, jobs=args.jobs)
    stats = prevalence(report) if report.scanned_files else None
    _write_output(render(report, stats, args.format, descriptors), args.output)
    if args.verbose and report.parse_failures:
        print(f"note: {report.parse_failures} file(s) failed to parse", file=sys.stderr)
    return 1 if report.findings else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    _, descriptors = load_config(args.config)
    members: dict[int, list[str]] = {}
    for d in descriptors:
        members.setdefault(d.category, []).append(str(d.id))
    categories = {label: sorted(members[label]) for label in sorted(members)}
    if args.format == "json":
        doc = dendrogram(descriptors)
        doc["categories"] = {str(label): ids for label, ids in categories.items()}
        _write_output((json.dumps(doc, indent=2) + "\n").encode("utf-8"), args.output)
        return 0
    lines = []
    for label, ids in categories.items():
        title = next(
            (name for anchor, name in CATEGORY_ANCHORS.items() if anchor in ids),
            f"Category {label}",
        )
        lines.append(f"Category {label} ({title}): {', '.join(ids)}")
    _write_output(("\n".join(lines) + "\n").encode("utf-8"), args.output)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    _, descriptors = load_config(args.config)
    if args.format == "json":
        _write_output((dump_catalog(descriptors) + "\n").encode("utf-8"), args.output)
        return 0
    lines = []
    for d in descriptors:
        lines.append(f"{d.id} (category {d.category}): {d.name}")
        lines.append(f"    {d.summary}")
        lines.append(f"    remediation: {d.remediation}")
    _write_output(("\n".join(lines) + "\n").encode("utf-8"), args.output)
    return 0


def _cmd_harvest(args: argparse.Namespace) -> int:
    token = args.token or os.environ.get(TOKEN_ENV_VAR)
    criteria = criteria_from_file(args.criteria) if args.criteria else FilterCriteria()
    client = CodeSearchClient(args.base_url or DEFAULT_BASE_URL, token)
    manifest_path = args.manifest or str(Path(args.dest) / "manifest.jsonl")
    manifest = HarvestManifest(manifest_path)
    summary = harvest_provider(
        client,
        args.provider,
        args.dest,
        manifest,
        criteria=criteria,
        query=args.query,
        dry_run=args.dry_run,
    )
    if client.unserved:
        print(
            f"note: the search API did not serve {client.unserved} matching file(s); "
            f"it serves at most {SEARCH_CAP} results per query",
            file=sys.stderr,
        )
    print(
        f"kept {summary.kept}, rejected {summary.rejected}, skipped {summary.skipped}, "
        f"fetched {summary.files_fetched} file(s), {summary.files_unchanged} unchanged"
    )
    if summary.manual_review:
        print(
            f"manual content review needed for {len(summary.manual_review)} repo(s); "
            "see the manifest"
        )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    data = read_json(args.manifest)
    if not isinstance(data, dict) or not data or not all(
        isinstance(files, list) and all(isinstance(f, str) for f in files)
        for files in data.values()
    ):
        raise ValueError(
            f"{args.manifest}: sample manifest must map repositories to lists of file names"
        )
    sample = sample_stratified(data, args.seed)
    _write_output((sample.to_json() + "\n").encode("utf-8"), args.output)
    return 0


if __name__ == "__main__":
    main()
