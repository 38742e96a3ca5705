from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tfsustain.cli
from tfsustain.cli import load_config, run
from tfsustain.detectors import ConfigError, DetectorConfig

from conftest import FIXTURES, reference_dendrogram
from stub_server import Scripted, StubApi, search_item
from synth import build_corpus


def test_catalog_subcommand_lists_seven_smells(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for ss in ("SS1", "SS2", "SS3", "SS4", "SS5", "SS6", "SS7"):
        assert ss in out
    assert "remediation:" in out
    assert "category 2" in out and "category 3" in out


def test_catalog_json_round_trips_through_loader(tmp_path, capsys):
    out_file = tmp_path / "catalog.json"
    assert run(["catalog", "--format", "json", "--output", str(out_file)]) == 0
    from tfsustain.catalog import catalog, load_catalog

    assert load_catalog(out_file) == catalog()


def _readme_usage() -> dict[str, str]:
    """The README's usage lines under "Command line", joined per subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    usage: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("tfsustain "):
            name = line.split()[1]
        if line.strip():
            usage[name] = usage.get(name, "") + " " + line.strip()
    return usage


def test_readme_usage_lists_every_option_of_every_subcommand():
    parser = tfsustain.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {"--version": parser, **subparsers.choices}
    usage = _readme_usage()
    assert sorted(usage) == sorted(commands)
    for name, command in commands.items():
        options = {o for a in command._actions for o in a.option_strings} - {"-h", "--help"}
        for option in options:
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", usage[name]), option


def test_cli_import_and_scan_do_not_import_requests():
    # Only harvesting talks HTTP, and importing an HTTP stack would slow every command;
    # urllib.request and requests both load http.client.
    code = (
        "import sys\n"
        "import tfsustain.cli\n"
        "http = {'requests', 'http.client'}\n"
        "assert not http & set(sys.modules)\n"
        "assert tfsustain.cli.run(['scan', sys.argv[1], '--format', 'json']) in (0, 1)\n"
        "print(sorted(http & set(sys.modules)), file=sys.stderr)\n"
    )
    src = str(Path(tfsustain.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, str(FIXTURES)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stderr.strip() == "[]"


def test_lint_clean_directory_exits_zero(capsys):
    assert run(["lint", str(FIXTURES / "clean")]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_smelly_directory_exits_one(capsys):
    assert run(["lint", str(FIXTURES / "smelly")]) == 1
    out = capsys.readouterr().out
    assert "SS2" in out and "main.tf:" in out


def test_lint_missing_path_exits_two(capsys):
    assert run(["lint", "/no/such/corpus"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lint", "scan"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_two(capsys, command, jobs):
    assert run([command, str(FIXTURES / "smelly"), "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    assert run(["explode"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_two(capsys):
    assert run(["lint", "--frobnicate", "x"]) == 2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "tfsustain" in out and "catalog" in out


def test_scan_json_output_is_valid(tmp_path, capsys):
    from tfsustain.catalog import SmellId

    build_corpus(tmp_path, {SmellId.SS7: 1}, total=4)
    assert run(["scan", str(tmp_path), "--format", "json"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["scanned_files"] == 4
    assert "stats" in doc


def test_scan_empty_corpus_json_is_canonical(tmp_path, capsys):
    assert run(["scan", str(tmp_path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"scanned_files":0,"findings":[]')


def test_scan_sarif_output(tmp_path, capsys):
    from tfsustain.catalog import SmellId

    build_corpus(tmp_path, {SmellId.SS7: 1}, total=2)
    run(["scan", str(tmp_path), "--format", "sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"


def test_scan_exit_one_on_findings(tmp_path, capsys):
    from tfsustain.catalog import SmellId

    build_corpus(tmp_path, {SmellId.SS7: 1}, total=2)
    assert run(["scan", str(tmp_path)]) == 1


def test_cluster_text_output(capsys):
    assert run(["cluster"]) == 0
    out = capsys.readouterr().out
    assert "Category 1 (General): SS3, SS4, SS6, SS7" in out
    assert "Category 2 (Demand): SS1, SS2" in out
    assert "Category 3 (Application): SS5" in out


def test_cluster_json_output(capsys):
    assert run(["cluster", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["leaves"] == ["SS1", "SS2", "SS3", "SS4", "SS5", "SS6", "SS7"]
    assert len(doc["merges"]) == 6
    assert doc["categories"]["3"] == ["SS5"]


# No SS3: the groups hold SS1 and SS2, SS5, and two smells outside the paper.
NO_SS3_CATALOG = [
    ("SS1", [True, True, False, False]),
    ("X1", [False, False, False, True]),
    ("SS5", [False, False, True, False]),
    ("SS2", [True, True, False, False]),
    ("X2", [True, False, True, False]),
]


def _no_ss3_config(tmp_path) -> str:
    entries = [
        {"id": i, "name": i.lower(), "attributes": a, "summary": "s", "remediation": "r"}
        for i, a in NO_SS3_CATALOG
    ]
    (tmp_path / "catalog.json").write_text(json.dumps(entries))
    config = tmp_path / "config.json"
    config.write_text('{"catalog_file": "catalog.json"}')
    return str(config)


# Each digest was recorded under the linkage in its row when `cluster` took
# --linkage. The dendrogram has no linkage now: the flag exits 2, and the run
# without it prints those bytes.
@pytest.mark.parametrize(
    "custom, linkage, fmt, digest",
    [
        (False, "single", "text", "0e3de4ed9c99f3bb5e670ad7c0ba88cdb652213bbd7b248d961354159e886d7f"),
        (False, "complete", "text", "0e3de4ed9c99f3bb5e670ad7c0ba88cdb652213bbd7b248d961354159e886d7f"),
        (False, "average", "text", "0e3de4ed9c99f3bb5e670ad7c0ba88cdb652213bbd7b248d961354159e886d7f"),
        (False, "single", "json", "f6343f96adc44a02e979e306835d3e8284e58c2a6c08a130da8890dfdcaeac41"),
        (False, "complete", "json", "f6343f96adc44a02e979e306835d3e8284e58c2a6c08a130da8890dfdcaeac41"),
        (False, "average", "json", "f6343f96adc44a02e979e306835d3e8284e58c2a6c08a130da8890dfdcaeac41"),
        (True, "single", "json", "1042f89237870b84516c4c56d006f9caa24e88001526864e1ec9a5eb74e9f9b7"),
        (True, "complete", "json", "1042f89237870b84516c4c56d006f9caa24e88001526864e1ec9a5eb74e9f9b7"),
        (True, "average", "json", "1042f89237870b84516c4c56d006f9caa24e88001526864e1ec9a5eb74e9f9b7"),
    ],
)
def test_cluster_output_digest(tmp_path, capsys, custom, linkage, fmt, digest):
    argv = ["cluster", "--format", fmt]
    if custom:
        argv += ["--config", _no_ss3_config(tmp_path)]
    assert run([*argv, "--linkage", linkage]) == 2
    assert "unrecognized arguments: --linkage" in capsys.readouterr().err
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("custom", [False, True])
@pytest.mark.parametrize("linkage", ["single", "complete", "average"])
def test_cluster_json_distances_are_floats_under_every_linkage(tmp_path, capsys, custom, linkage):
    # The JSON dendrogram is the one the retired clusterer built under each linkage.
    argv, config = ["cluster", "--format", "json"], None
    if custom:
        config = _no_ss3_config(tmp_path)
        argv += ["--config", config]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    merges = doc["merges"]
    assert merges and all(type(m["distance"]) is float for m in merges), merges
    del doc["categories"]
    assert doc == reference_dendrogram(load_config(config)[1], linkage)


def test_cluster_names_a_category_by_its_anchor_smell(tmp_path, capsys):
    # Without SS3 the labels shift down, but each name follows its anchor.
    assert run(["cluster", "--config", _no_ss3_config(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "Category 1 (Demand): SS1, SS2\n"
        "Category 2 (Application): SS5\n"
        "Category 3 (Category 3): X1\n"
        "Category 4 (Category 4): X2\n"
    )


def test_sample_subcommand(tmp_path, capsys):
    manifest = {f"org/r{i}": [f"f{j}.tf" for j in range(6)] for i in range(5)}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run(["sample", str(path), "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 11
    assert all(4 <= len(v) <= 5 for v in doc["selections"].values())


def test_harvest_subcommand_against_stub(tmp_path, capsys):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/good")]])
        stub.add_repo_tree("org/good", {"main.tf": b"# ok\n"})
        rc = run(
            [
                "harvest",
                "--provider",
                "aws",
                "--dest",
                str(tmp_path / "dest"),
                "--base-url",
                stub.base_url,
                "--token",
                "stub",
            ]
        )
    assert rc == 0
    out = capsys.readouterr().out
    assert "kept 1" in out
    assert (tmp_path / "dest" / "org/good/main.tf").exists()
    assert (tmp_path / "dest" / "manifest.jsonl").exists()


def test_harvest_notes_the_matches_past_the_search_apis_cap(tmp_path, capsys):
    with StubApi() as stub:
        stub.add_search_pages(
            [[search_item(f"org/r{p}-{i}") for i in range(100)] for p in range(10)], total=5000
        )
        stub.route("/search/code?page=11", Scripted(422, {"message": "Only the first 1000"}))
        argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "dest"),
                "--base-url", stub.base_url, "--token", "stub", "--dry-run"]
        assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "note: the search API did not serve 4000 matching file(s); "
        "it serves at most 1000 results per query\n"
    )
    assert captured.out.startswith("kept 1000, rejected 0,")


def test_harvest_exits_2_on_a_response_that_is_not_an_object(tmp_path, capsys):
    with StubApi() as stub:
        stub.route("/search/code", Scripted(200, ["not", "an", "object"]))
        argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "dest"),
                "--base-url", stub.base_url, "--token", "stub"]
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/search/code" in err


def test_harvest_exits_2_when_the_rate_limit_asks_for_an_endless_wait(tmp_path, capsys):
    # Retry-After: inf once made time.sleep raise OverflowError, a traceback.
    with StubApi() as stub:
        stub.route("/search/code", Scripted(429, headers={"Retry-After": "inf"}))
        argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "dest"),
                "--base-url", stub.base_url, "--token", "stub", "--dry-run"]
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: Retry-After: inf asks for a wait over 3600 s\n"


def test_harvest_exits_2_on_a_manifest_recorded_under_other_criteria(tmp_path, capsys):
    criteria = tmp_path / "criteria.json"
    criteria.write_text('{"min_stars": 5}')
    manifest = tmp_path / "dest" / "manifest.jsonl"
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/three", stars=3)]])
        argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "dest"),
                "--base-url", stub.base_url, "--token", "stub", "--dry-run"]
        assert run(argv) == 0
        before, requests = manifest.read_bytes(), len(stub.requests)
        capsys.readouterr()
        assert run([*argv, "--criteria", str(criteria)]) == 2
        assert len(stub.requests) == requests
    assert capsys.readouterr().err == (
        f"error: {manifest} was recorded under other criteria; this run differs in min_stars\n"
    )
    assert manifest.read_bytes() == before


# -- load_config ---------------------------------------------------------


def test_load_config_defaults_without_file():
    cfg, descriptors = load_config(None)
    assert cfg == DetectorConfig()
    assert len(descriptors) == 7


def test_load_config_applies_threshold_and_fires(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"ss7_max_resources_per_file": 5}')
    corpus = tmp_path / "corpus" / "mod"
    corpus.mkdir(parents=True)
    body = "\n".join(
        f'resource "aws_sns_topic" "t{i}" {{\n  name = "t{i}"\n}}\n' for i in range(6)
    )
    (corpus / "main.tf").write_text(
        'terraform {\n  backend "gcs" {\n    bucket = "b"\n  }\n}\n' + body
    )
    assert run(["lint", str(corpus), "--config", str(config)]) == 1
    assert "SS7" in capsys.readouterr().out
    # default threshold leaves the same corpus clean
    assert run(["lint", str(corpus)]) == 0


def test_load_config_unknown_key_names_key_and_position(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{\n  "ss9_foo": 1\n}')
    with pytest.raises(ConfigError) as err:
        load_config(str(config))
    assert "ss9_foo" in str(err.value)
    assert err.value.line == 2


def test_unknown_config_key_is_located_at_the_key_not_a_value(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{\n  "ss2_compute_types": ["foo"],\n  "foo": 1\n}')
    assert run(["lint", str(FIXTURES / "clean"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: unknown config key 'foo' (line 3, column 3)\n"


def test_unknown_config_key_is_located_at_top_level_not_a_nested_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{\n  "ss1_large_sizes": {"foo": ["x"]},\n  "foo": 1\n}\n')
    assert run(["lint", str(FIXTURES / "clean"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: unknown config key 'foo' (line 3, column 3)\n"


@pytest.mark.parametrize(
    "written, key",
    [("ss9_fo\\u006f", "ss9_foo"), ('a\\"b', 'a"b'), ("a\\\\b", "a\\b")],
    ids=["unicode-escape", "escaped-quote", "escaped-backslash"],
)
def test_unknown_config_key_written_with_an_escape_is_located(tmp_path, capsys, written, key):
    config = tmp_path / "config.json"
    config.write_text('{\n  "%s": 1\n}\n' % written)
    assert run(["lint", str(FIXTURES / "clean"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: unknown config key {key!r} (line 2, column 3)\n"


def test_load_config_malformed_json_reports_position(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{\n  "ss7_max_resources_per_file": \n}')
    assert run(["lint", str(FIXTURES / "clean"), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_load_config_external_catalog(tmp_path):
    from tfsustain.catalog import catalog, dump_catalog

    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(dump_catalog(catalog()))
    config = tmp_path / "config.json"
    config.write_text('{"catalog_file": "catalog.json"}')
    cfg, descriptors = load_config(str(config))
    assert cfg == DetectorConfig()
    assert descriptors == catalog()


def _catalog_config(tmp_path, entries):
    (tmp_path / "catalog.json").write_text(json.dumps(entries))
    config = tmp_path / "config.json"
    config.write_text('{"catalog_file": "catalog.json"}')
    return str(config)


def test_scan_and_lint_name_smells_after_configured_catalog(tmp_path, capsys):
    from tfsustain.catalog import catalog, dump_catalog

    entries = json.loads(dump_catalog(catalog()))
    for entry in entries:
        if entry["id"] == "SS1":
            entry["name"] = "Oversized Machines"
    config = _catalog_config(tmp_path, entries)
    target = str(FIXTURES / "samples_extended" / "ss1.tf")

    assert run(["lint", target, "--config", config]) == 1
    assert "SS1 (Oversized Machines): " in capsys.readouterr().out

    assert run(["scan", target, "--config", config, "--format", "sarif"]) == 1
    rules = json.loads(capsys.readouterr().out)["runs"][0]["tool"]["driver"]["rules"]
    ss1 = next(rule for rule in rules if rule["id"] == "SS1")
    assert ss1["name"] == "OversizedMachines"
    assert ss1["shortDescription"] == {"text": "Oversized Machines"}


def test_scan_rejects_catalog_without_a_reported_smell(tmp_path, capsys):
    from tfsustain.catalog import catalog, dump_catalog

    entries = [e for e in json.loads(dump_catalog(catalog())) if e["id"] != "SS3"]
    config = _catalog_config(tmp_path, entries)
    assert run(["scan", str(FIXTURES / "clean"), "--config", config]) == 2
    assert "no entry for SS3" in capsys.readouterr().err


def test_output_flag_writes_file(tmp_path):
    from tfsustain.catalog import SmellId

    out = tmp_path / "report.json"
    build_corpus(tmp_path / "corpus", {SmellId.SS7: 1}, total=2)
    run(["scan", str(tmp_path / "corpus"), "--format", "json", "--output", str(out)])
    assert json.loads(out.read_text())["scanned_files"] == 2


@pytest.mark.parametrize("argv", [["lint"], ["scan"], ["scan", "--format", "json"]])
def test_stdout_gets_the_output_file_bytes_under_an_ascii_text_layer(tmp_path, argv):
    # A non-ASCII path in the findings once made stdout exit 2 on an ASCII stream.
    (tmp_path / "ü").mkdir()
    (tmp_path / "ü" / "main.tf").write_bytes((FIXTURES / "smelly" / "main.tf").read_bytes())
    out = tmp_path / "report"
    code = "import sys, tfsustain.cli; sys.exit(tfsustain.cli.run(sys.argv[1:]))"
    src = str(Path(tfsustain.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
    command = [sys.executable, "-c", code, argv[0], str(tmp_path), *argv[1:]]
    to_file = subprocess.run(
        [*command, "--output", str(out)], capture_output=True, env=env, timeout=60
    )
    to_stdout = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert (to_file.returncode, to_file.stderr, to_file.stdout) == (1, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (1, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert b"main.tf" in to_stdout.stdout


@pytest.mark.parametrize(
    "argv, path",
    [
        (["lint"], b"\xff/main.tf"),
        (["scan"], b"\xff/main.tf"),
        (["scan", "--format", "json"], b'"\\udcff/main.tf"'),  # JSON escapes the surrogate
    ],
    ids=["lint", "scan-text", "scan-json"],
)
def test_a_file_name_that_is_not_utf8_prints_as_its_bytes(tmp_path, capsysbinary, argv, path):
    # The walk decodes such a name with surrogateescape; lint and the text report
    # once exited 2 trying to encode it as UTF-8.
    base = os.fsencode(tmp_path)
    try:
        os.mkdir(os.path.join(base, b"\xff"))
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    with open(os.path.join(base, b"\xff", b"main.tf"), "wb") as f:
        f.write((FIXTURES / "smelly" / "main.tf").read_bytes())
    out = tmp_path / "report"
    assert run([argv[0], str(tmp_path), *argv[1:]]) == 1
    stdout = capsysbinary.readouterr().out
    assert run([argv[0], str(tmp_path), *argv[1:], "--output", str(out)]) == 1
    assert path in stdout
    assert out.read_bytes() == stdout


@pytest.mark.parametrize("command", ["lint", "scan"])
@pytest.mark.parametrize(
    "tree, engine, note",
    [
        ("hcl", "ast", "note: 1 file(s) failed to parse\n"),
        ("hcl", "pattern", ""),  # the pattern engine never parses
        ("clean", "ast", ""),
    ],
)
def test_verbose_notes_parse_failures_on_stderr_only(capsys, command, tree, engine, note):
    argv = [command, str(FIXTURES / tree), "--engine", engine]
    code = run(argv)
    quiet = capsys.readouterr()
    assert run(argv + ["-v"]) == code
    verbose = capsys.readouterr()
    assert quiet.err == ""
    assert verbose.err == note
    assert verbose.out == quiet.out


# sha256 of the report `tfsustain scan tests/fixtures` writes, per engine and
# format: output bytes are meant to change only on purpose.
FIXTURE_REPORT_SHA256 = {
    ("ast", "json"): "40d032ba625e0c6fd7ae33da1d4b0594674c5055d862da9af7d44bdeb0050ae3",
    ("ast", "sarif"): "d8a63c17f3b911b2b83e9c997e82b19af77a793f7dd2de2b8c714c181bbc1058",
    ("pattern", "json"): "ce8863026984e2e5e50ca4edc3b10f637ecd66b6ab9762baea0c7c48ae2babae",
    ("pattern", "sarif"): "fc8eee49e30e96b1051786dacc38b60a98c7f2b86fcce8f0e0e803f975ff5b15",
}


@pytest.mark.parametrize("engine, fmt", sorted(FIXTURE_REPORT_SHA256))
def test_scan_fixture_report_bytes_are_pinned(tmp_path, engine, fmt):
    out = tmp_path / f"report.{fmt}"
    run(["scan", str(FIXTURES), "--engine", engine, "--format", fmt, "--output", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FIXTURE_REPORT_SHA256[engine, fmt], (
        f"the {engine} {fmt} report of tests/fixtures changed (sha256 {digest}). "
        "If the change is intended, regenerate the digest with `tfsustain scan "
        f"tests/fixtures --engine {engine} --format {fmt} | sha256sum`, put it in "
        "FIXTURE_REPORT_SHA256 and name the changed digest in CHANGES.md."
    )


@pytest.mark.parametrize(
    "criteria, message",
    [("[]", "must hold a JSON object"), ('{"min_stars": "3"}', "'min_stars' must be int")],
)
def test_harvest_rejects_a_malformed_criteria_file(tmp_path, capsys, criteria, message):
    path = tmp_path / "criteria.json"
    path.write_text(criteria)
    argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "out"),
            "--criteria", str(path), "--dry-run"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize(
    "lines, message",
    [
        (['{"kind": "criteria", "bogus": 1}'], "line 1: unknown criteria key(s): bogus"),
        (['{"kind": "criteria", "min_stars": "3"}'], "line 1: criteria key 'min_stars' must be int"),
        (['{"kind": "criteria"}', "", '{"kind": "repo"}'], "line 3: missing key 'record'"),
        (['{"kind": "file", "repo": "o/r"}'], "line 1: missing key 'path'"),
        (["[]"], "line 1: expected a JSON object, not list"),
        (["{"], "line 1: "),
    ],
)
def test_harvest_rejects_a_malformed_manifest(tmp_path, capsys, lines, message):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    argv = ["harvest", "--provider", "aws", "--dest", str(tmp_path / "out"),
            "--manifest", str(manifest), "--dry-run"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} ") and message in err


# -- malformed input files ---------------------------------------------------

# Nested past the interpreter's recursion limit, which json.loads turns into
# RecursionError.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000
_NOT_UTF8 = b"\xff{}"


def _builtin_catalog_with(**ss1_fields) -> str:
    from tfsustain.catalog import catalog, dump_catalog

    entries = json.loads(dump_catalog(catalog()))
    entries[0].update(ss1_fields)
    return json.dumps(entries)


_WITH_CATALOG = '{"catalog_file": "catalog.json"}'
_CLEAN = str(FIXTURES / "clean")
_HARVEST = ["harvest", "--provider", "aws", "--dest", "{out}", "--dry-run"]


@pytest.mark.parametrize(
    "files, argv, message",
    [
        pytest.param(
            {"config.json": '{"catalog_file": 5}'},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: catalog_file must be a string",
            id="config-catalog_file-int",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(id=[])},
            ["catalog", "--config", "{config.json}"],
            "{catalog.json}: catalog entry 0: id must be a string",
            id="catalog-id-list",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(name=5)},
            ["scan", _CLEAN, "--format", "sarif", "--config", "{config.json}"],
            "{catalog.json}: catalog entry 0: name must be a string",
            id="catalog-name-int",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(summary=["x"])},
            ["scan", _CLEAN, "--format", "sarif", "--config", "{config.json}"],
            "{catalog.json}: catalog entry 0: summary must be a string",
            id="catalog-summary-list",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(remediation=5)},
            ["catalog", "--config", "{config.json}"],
            "{catalog.json}: catalog entry 0: remediation must be a string",
            id="catalog-remediation-int",
        ),
        pytest.param(
            {"manifest.json": '{"repo": 5}'},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: sample manifest must map repositories to lists of file names",
            id="sample-files-int",
        ),
        pytest.param(
            {"manifest.json": '{"repo": "abcdefgh"}'},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: sample manifest must map repositories to lists of file names",
            id="sample-files-string",
        ),
        pytest.param(
            {"manifest.json": '{"r": [1, 2, 3, 4, 5]}'},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: sample manifest must map repositories to lists of file names",
            id="sample-file-names-int",
        ),
        pytest.param(
            {"manifest.json": "{}"},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: sample manifest must map repositories to lists of file names",
            id="sample-empty",
        ),
        pytest.param(
            {"config.json": "[]"},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: config must be a JSON object",
            id="config-list",
        ),
        pytest.param(
            {"config.json": '{"ss2_fixed_count_min": "x"}'},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: ss2_fixed_count_min must be an integer",
            id="config-count-string",
        ),
        # A lone surrogate is valid JSON but no UTF-8 output can carry it.
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(name="\ud800")},
            ["catalog", "--config", "{config.json}"],
            "{catalog.json}: a string holds the lone surrogate \\ud800",
            id="catalog-name-surrogate",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _builtin_catalog_with(summary="x\udfff")},
            ["scan", _CLEAN, "--format", "sarif", "--config", "{config.json}"],
            "{catalog.json}: a string holds the lone surrogate \\udfff",
            id="catalog-summary-surrogate",
        ),
        pytest.param(
            {"manifest.json": json.dumps({"\ud800": ["a.tf"]})},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: a string holds the lone surrogate \\ud800",
            id="sample-repo-surrogate",
        ),
        pytest.param(
            {"manifest.json": json.dumps({"o/r": ["a.tf", "\udc80.tf"]})},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: a string holds the lone surrogate \\udc80",
            id="sample-file-surrogate",
        ),
        pytest.param(
            {"manifest.json": _DEEP_JSON},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: maximum recursion depth exceeded",
            id="sample-deep",
        ),
        pytest.param(
            {"config.json": _DEEP_JSON},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: maximum recursion depth exceeded",
            id="config-deep",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _DEEP_JSON},
            ["catalog", "--config", "{config.json}"],
            "{catalog.json}: maximum recursion depth exceeded",
            id="catalog-deep",
        ),
        pytest.param(
            {"criteria.json": _DEEP_JSON},
            [*_HARVEST, "--criteria", "{criteria.json}"],
            "{criteria.json}: maximum recursion depth exceeded",
            id="criteria-deep",
        ),
        pytest.param(
            {"manifest.jsonl": _DEEP_JSON + "\n"},
            [*_HARVEST, "--manifest", "{manifest.jsonl}"],
            "{manifest.jsonl} line 1: maximum recursion depth exceeded",
            id="harvest-manifest-deep",
        ),
        pytest.param(
            {"manifest.json": _NOT_UTF8},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: 'utf-8' codec can't decode byte 0xff in position 0",
            id="sample-not-utf8",
        ),
        pytest.param(
            {"config.json": _NOT_UTF8},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: 'utf-8' codec can't decode byte 0xff in position 0",
            id="config-not-utf8",
        ),
        pytest.param(
            {"config.json": _WITH_CATALOG, "catalog.json": _NOT_UTF8},
            ["catalog", "--config", "{config.json}"],
            "{catalog.json}: 'utf-8' codec can't decode byte 0xff in position 0",
            id="catalog-not-utf8",
        ),
        pytest.param(
            {"criteria.json": _NOT_UTF8},
            [*_HARVEST, "--criteria", "{criteria.json}"],
            "{criteria.json}: 'utf-8' codec can't decode byte 0xff in position 0",
            id="criteria-not-utf8",
        ),
        pytest.param(
            {"manifest.jsonl": b'{"kind": "criteria"}\n' + _NOT_UTF8},
            [*_HARVEST, "--manifest", "{manifest.jsonl}"],
            "{manifest.jsonl} line 2: 'utf-8' codec can't decode byte 0xff in position 0",
            id="harvest-manifest-not-utf8",
        ),
        pytest.param(
            {"config.json": '{"ss2_fixed_count_min": }'},
            ["scan", _CLEAN, "--config", "{config.json}"],
            "{config.json}: malformed config JSON: Expecting value (line 1, column 25)",
            id="config-not-json",
        ),
        pytest.param(
            {"manifest.json": "{"},
            ["sample", "{manifest.json}", "--seed", "1"],
            "{manifest.json}: Expecting property name enclosed in double quotes",
            id="sample-not-json",
        ),
    ],
)
def test_malformed_input_file_exits_two_with_an_error_line(
    tmp_path, capsys, files, argv, message
):
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    argv = [str(tmp_path / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]
    # "{name}" in the message is the path of that file.
    message = re.sub(r"\{([^}]+)\}", lambda m: str(tmp_path / m.group(1)), message)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CATALOG_FIELDS = ("id", "name", "attributes", "summary", "remediation")


@st.composite
def _catalog_documents(draw) -> str:
    """Any JSON value, entries of any JSON values, or the built-in catalog with one field replaced."""
    kind = draw(st.sampled_from(["value", "entries", "builtin"]))
    if kind == "value":
        return json.dumps(draw(_JSON))
    if kind == "entries":
        entry = st.fixed_dictionaries({key: _JSON for key in _CATALOG_FIELDS})
        return json.dumps(draw(st.lists(entry | _JSON, max_size=4)))
    entries = json.loads(_builtin_catalog_with())
    entries[draw(st.integers(0, 6))][draw(st.sampled_from(_CATALOG_FIELDS))] = draw(_JSON)
    return json.dumps(entries)


def _sarif_texts(doc):
    """Every value of a ``text`` key in a SARIF document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key == "text":
                yield value
            else:
                yield from _sarif_texts(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _sarif_texts(value)


def _exits_normally_or_two(capsys, argv) -> str | None:
    """Runs argv; returns stdout of a normal run, None after an exit 2 with an error line."""
    code = run(argv)
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: "), captured.err
        return None
    assert code in (0, 1), code
    return captured.out


@given(_catalog_documents())
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_any_catalog_document_runs_or_exits_two(tmp_path, capsys, document):
    (tmp_path / "catalog.json").write_text(document)
    (tmp_path / "config.json").write_text(_WITH_CATALOG)
    config = str(tmp_path / "config.json")
    _exits_normally_or_two(capsys, ["catalog", "--config", config])
    out = _exits_normally_or_two(capsys, ["scan", _CLEAN, "--format", "sarif", "--config", config])
    if out is not None:
        assert all(isinstance(text, str) for text in _sarif_texts(json.loads(out)))


@given(
    _JSON
    | st.dictionaries(
        st.text(max_size=4), st.lists(st.text(max_size=4) | _JSON, max_size=7) | _JSON, max_size=4
    )
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_any_sample_manifest_runs_or_exits_two(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = _exits_normally_or_two(capsys, ["sample", str(tmp_path / "manifest.json"), "--seed", "1"])
    if out is not None:
        selections = json.loads(out)["selections"]
        assert all(set(files) <= set(manifest[repo]) for repo, files in selections.items())
