"""Malformed-input check: each malformed input file makes the command exit 2 without a traceback.

``python tests/ci/malformed_exits.py DIR`` writes malformed config, catalog,
sample-manifest, harvest-criteria and harvest-manifest files under ``DIR``,
then runs the ``tfsustain`` command on ``PATH`` from the repository root on
each of them, and once with a retired option. Every run must exit 2, print no
``Traceback`` and name on standard error the offending file, or the expected
message. Tier-1 calls ``cli.run``; this goes through ``main`` and the installed
console script.

It prints one line per run and exits 1 at the first run that fails a
condition, after printing that run's standard error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def write_inputs(out: Path) -> None:
    """The malformed files under ``out``."""
    from tfsustain.catalog import catalog, dump_catalog

    deep = "[" * 100_000 + "]" * 100_000  # past the recursion limit
    files = {
        "config-catalog-int.json": '{"catalog_file": 5}',
        "config-deep.json": deep,
        "config-count.json": '{"ss2_fixed_count_min": "x"}',
        # An unknown key written with an escape is still located.
        "config-escaped-key.json": '{\n  "ss9_fo\\u006f": 1\n}\n',
        "manifest-empty.json": "{}",
        "manifest-int.json": '{"repo": 5}',
        "manifest-string.json": '{"repo": "abcdefgh"}',
        "manifest-names-int.json": '{"r": [1, 2, 3, 4, 5]}',
        "manifest-deep.json": deep,
        # A lone surrogate is valid JSON but no UTF-8 output can carry it.
        "manifest-surrogate.json": json.dumps({"\ud800": ["a.tf"]}),
        "criteria-deep.json": deep,
        "criteria-list.json": "[]",
        "harvest-deep.jsonl": deep + "\n",
    }
    for case, field, value in [
        ("id", "id", []),
        ("name", "name", 5),
        ("summary", "summary", ["x"]),
        ("remediation", "remediation", 5),
        ("surrogate", "name", "\ud800"),
    ]:
        entries = json.loads(dump_catalog(catalog()))
        entries[0][field] = value
        files[f"catalog-{case}.json"] = json.dumps(entries)
        files[f"config-{case}.json"] = json.dumps({"catalog_file": f"catalog-{case}.json"})
    for name, text in files.items():
        (out / name).write_text(text)


def cases(out: Path) -> list[tuple[str, list[str]]]:
    """(text standard error must hold, arguments) of each run, in order."""
    scan = ["scan", "tests/fixtures/clean"]
    runs = []
    for config in ("catalog-int", "deep", "count"):
        path = f"{out}/config-{config}.json"
        runs.append((path, [*scan, "--config", path]))
    runs.append(
        (
            "unknown config key 'ss9_foo' (line 2, column 3)",
            [*scan, "--config", f"{out}/config-escaped-key.json"],
        )
    )
    for case in ("id", "name", "summary", "remediation", "surrogate"):
        path, config = f"{out}/catalog-{case}.json", f"{out}/config-{case}.json"
        runs.append((path, ["catalog", "--config", config]))
        runs.append((path, [*scan, "--format", "sarif", "--config", config]))
    for manifest in ("empty", "int", "string", "names-int", "deep", "surrogate"):
        path = f"{out}/manifest-{manifest}.json"
        runs.append((path, ["sample", path, "--seed", "1"]))
    harvest = ["harvest", "--provider", "aws", "--dest", f"{out}/harvest", "--dry-run"]
    for criteria in ("deep", "list"):
        path = f"{out}/criteria-{criteria}.json"
        runs.append((path, [*harvest, "--criteria", path]))
    path = f"{out}/harvest-deep.jsonl"
    runs.append((path, [*harvest, "--manifest", path]))
    runs.append(("--linkage", ["cluster", "--linkage", "single"]))
    return runs


def main(out: str) -> int:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(out)
    for expect, args in cases(out):
        done = subprocess.run(
            ["tfsustain", *args], cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        err = done.stderr
        print(f"tfsustain {' '.join(args)}: exit {done.returncode}, {err[:120]!r}", flush=True)
        if done.returncode != 2 or b"Traceback" in err or os.fsencode(expect) not in err:
            print(err.decode("utf-8", "replace"))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
