"""Canonical-output check: the SARIF and JSON reports are ``json.dumps`` of their documents.

``python tests/ci/canonical_output.py DIR`` runs the ``tfsustain`` command on
``PATH`` from the repository root, writing its files under ``DIR``:

* ``tfsustain scan tests/fixtures --format sarif`` must print exactly
  ``json.dumps(document, indent=2)`` of what it printed;
* ``tfsustain scan tests/fixtures --format json`` must print exactly
  ``json.dumps(document, separators=(",", ":"))``;
* ``tfsustain lint`` and ``tfsustain scan`` of a tree whose one directory is
  named ``ü``, under ``PYTHONIOENCODING=ascii``, must exit 1 and print the
  same bytes to standard output as they write to ``--output``: reports go to
  standard output as bytes, so an ASCII text layer takes any path.

It exits 1 at the first check that fails, and when a scan exits above 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def tfsustain(*args: str, stdout: Path | None = None, env: dict | None = None) -> int:
    """The exit code of ``tfsustain ARGS``, its standard output written to ``stdout``."""
    if stdout is None:
        return subprocess.run(["tfsustain", *args], cwd=ROOT, env=env).returncode
    with open(stdout, "wb") as out:
        return subprocess.run(["tfsustain", *args], cwd=ROOT, env=env, stdout=out).returncode


def main(tmp: str) -> int:
    tmp = Path(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    # The SARIF results come from a fixed template, so check its bytes on every Python.
    if tfsustain("scan", "tests/fixtures", "--format", "sarif", stdout=tmp / "scan.sarif") > 1:
        return 1
    out = (tmp / "scan.sarif").read_bytes()
    if out != json.dumps(json.loads(out), indent=2).encode():
        sys.exit("scan --format sarif differs from json.dumps(json.loads(stdout), indent=2)")
    print(len(out), "SARIF bytes, equal to json.dumps(json.loads(stdout), indent=2)")
    # The JSON findings come from a fixed template too, so check their bytes on every
    # Python.
    if tfsustain("scan", "tests/fixtures", "--format", "json", stdout=tmp / "scan.json") > 1:
        return 1
    out = (tmp / "scan.json").read_bytes()
    if out != json.dumps(json.loads(out), separators=(",", ":")).encode():
        sys.exit("scan --format json differs from json.dumps(json.loads(stdout), separators)")
    print(len(out), "JSON bytes, equal to json.dumps(json.loads(stdout), separators)")
    tree = tmp / "ascii"
    (tree / "ü").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(ROOT / "tests/fixtures/smelly/main.tf", tree / "ü" / "main.tf")
    ascii_env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    for command in ("lint", "scan"):
        printed, written = Path(f"{tree}-{command}.out"), Path(f"{tree}-{command}.file")
        code = tfsustain(command, str(tree), stdout=printed, env=ascii_env)
        print(f"PYTHONIOENCODING=ascii tfsustain {command}: exit {code}", flush=True)
        if code != 1:
            return 1
        if tfsustain(command, str(tree), "--output", str(written), env=ascii_env) != 1:
            return 1
        if printed.read_bytes() != written.read_bytes():
            sys.exit(f"tfsustain {command}: standard output differs from --output")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
