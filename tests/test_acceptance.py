"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines alongside the pytest verdicts. Every tolerance is exact; runtime
limits are asserted with a wall clock.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import tfsustain.scanner as scanner_mod
from tfsustain.catalog import SmellId, catalog, similarity_matrix
from tfsustain.clustering import LINKAGES, categorize
from tfsustain.detectors import DetectorConfig, detect_all, unit_for
from tfsustain.detectors.ast_engine import (
    detect_ss3_no_lifecycle,
    detect_ss6_local_state,
    detect_ss7_monolithic,
    prepare,
)
from tfsustain.harvest import FilterCriteria, HarvestManifest, apply_filters
from tfsustain.hcl import detokenize, nodes_equal, parse, tokenize
from tfsustain.report import format_percent, render
from tfsustain.sampling import sample_stratified
from tfsustain.scanner import prevalence, scan, smells_by_path

from conftest import FIXTURES, fixture_corpus_files
from stub_server import Scripted, StubApi, search_item
from synth import DEFAULT_PLAN, build_corpus

PUBLISHED_CATEGORIES = {
    SmellId.SS1: 2,
    SmellId.SS2: 2,
    SmellId.SS3: 1,
    SmellId.SS4: 1,
    SmellId.SS5: 3,
    SmellId.SS6: 1,
    SmellId.SS7: 1,
}

PUBLISHED_MATRIX = (
    (1, 1, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 1, 1, 0, 1, 1),
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS", flush=True)


@pytest.fixture(scope="module")
def synthetic_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus200")
    planted = build_corpus(root, DEFAULT_PLAN, total=200)
    return root, planted


def test_criterion_1_taxonomy_reproduction():
    with criterion(1, "taxonomy reproduction"):
        start = time.perf_counter()
        sim = similarity_matrix(catalog())
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert sim.entries[i][j] == PUBLISHED_MATRIX[i][j], (i, j)
        for linkage in LINKAGES:
            assignment = categorize(catalog(), linkage)
            assert assignment.mapping == PUBLISHED_CATEGORIES, linkage
        assert time.perf_counter() - start < 1.0


def test_criterion_2_samples_fixture_suite():
    with criterion(2, "smell sample fixture suite"):
        start = time.perf_counter()
        cfg = DetectorConfig()

        def load(rel: str):
            return unit_for(rel, (FIXTURES / rel).read_text())

        units = [load(f"samples/ss{i}.tf") for i in range(1, 8)]
        findings = detect_all({"samples": units}, cfg, "ast")
        found = {(Path(f.path).name, f.smell.name) for f in findings}
        assert found == {("ss1.tf", "SS1"), ("ss2.tf", "SS2"), ("ss4.tf", "SS4")}
        for name, smell in [("ss1", "SS1"), ("ss2", "SS2"), ("ss4", "SS4")]:
            per_file = [
                f
                for f in findings
                if Path(f.path).name == f"{name}.tf" and f.smell.name == smell
            ]
            assert len(per_file) == 1

        # compliant forms stay silent
        ss3 = load("samples/ss3.tf")
        assert detect_ss3_no_lifecycle(prepare(ss3.file, cfg), cfg) == []
        ss6 = load("samples/ss6.tf")
        assert detect_ss6_local_state([prepare(ss6.file, cfg)], cfg) == []

        # mutated variants each yield exactly one finding of their smell
        no_lifecycle = load("mutants/ss3_no_lifecycle/main.tf")
        assert [f.smell.name for f in detect_ss3_no_lifecycle(prepare(no_lifecycle.file, cfg), cfg)] == ["SS3"]
        no_backend = load("mutants/ss6_no_backend/main.tf")
        assert [f.smell.name for f in detect_ss6_local_state([prepare(no_backend.file, cfg)], cfg)] == ["SS6"]
        extended = load("mutants/ss7_extended/main.tf")
        ss7_findings = detect_ss7_monolithic(prepare(extended.file, cfg), cfg)
        assert [f.smell.name for f in ss7_findings] == ["SS7"]
        assert int(ss7_findings[0].evidence) >= 10
        assert time.perf_counter() - start < 1.0


def test_criterion_3_prevalence_arithmetic(synthetic_corpus):
    with criterion(3, "prevalence arithmetic"):
        root, planted = synthetic_corpus
        report = scan(root)
        stats = prevalence(report)
        assert report.scanned_files == 200
        for smell in SmellId:
            expected_files = planted[smell]
            got_files = {
                path
                for path, smells in smells_by_path(report.findings).items()
                if smell in smells
            }
            assert got_files == expected_files, smell
            entry = stats.per_smell[smell]
            assert entry.prevalence == Fraction(len(expected_files), 200)
        assert format_percent(stats.per_smell[SmellId.SS7].prevalence) == "9.50"
        assert format_percent(stats.per_smell[SmellId.SS6].prevalence) == "4.00"
        assert format_percent(stats.per_smell[SmellId.SS5].prevalence) == "1.00"
        # published corpus-scale rates are context only, never an oracle here


def test_criterion_4_parser_properties():
    with criterion(4, "parser properties"):
        start = time.perf_counter()
        files = fixture_corpus_files()
        assert files
        for path in files:
            text = path.read_bytes().decode("utf-8")
            assert detokenize(tokenize(text, str(path))) == text, path

        rng = random.Random(1860)
        candidates = []
        for path in files:
            text = path.read_bytes().decode("utf-8-sig")
            cf = parse(text, str(path))
            if len(cf.body) >= 2 and not cf.diagnostics:
                candidates.append((text, cf))
        assert candidates
        for _ in range(1000):
            text, cf = candidates[rng.randrange(len(candidates))]
            victim_idx = rng.randrange(len(cf.body))
            victim = cf.body[victim_idx]
            lines = text.splitlines(keepends=True)
            mutated = "".join(
                lines[: victim.span.start_line - 1] + lines[victim.span.end_line :]
            )
            remaining = parse(mutated).body
            expected = [n for i, n in enumerate(cf.body) if i != victim_idx]
            assert len(remaining) == len(expected)
            for got, want in zip(remaining, expected):
                assert nodes_equal(got, want)
        assert time.perf_counter() - start < 10.0


def test_criterion_5_scan_determinism(synthetic_corpus, monkeypatch):
    with criterion(5, "scan determinism under concurrency"):
        root, _ = synthetic_corpus
        baseline_report = scan(root, jobs=1)
        baseline = render(baseline_report, prevalence(baseline_report), "json")

        original_walk = scanner_mod._walk_tf_files
        for trial in range(20):
            shuffle = random.Random(trial)

            def shuffled_walk(r, _shuffle=shuffle):
                paths = list(original_walk(r))
                _shuffle.shuffle(paths)
                return iter(paths)

            monkeypatch.setattr(scanner_mod, "_walk_tf_files", shuffled_walk)
            for jobs in (1, 4):
                report = scan(root, jobs=jobs)
                payload = render(report, prevalence(report), "json")
                assert payload == baseline, (trial, jobs)
        monkeypatch.setattr(scanner_mod, "_walk_tf_files", original_walk)


def test_criterion_6_harvester_conformance(tmp_path):
    with criterion(6, "harvester filters and network paths"):
        # single-criterion failures plus boundary passes, exact decisions
        def rec(name, stars=5, fork=False, size=100, public=True):
            from tfsustain.harvest import RepoRecord

            return RepoRecord(
                name, stars, fork, size,
                "public" if public else "other", "aws", "2026-01-01T00:00:00+00:00",
            )

        table = [
            (rec("org/low-stars", stars=1), "min_stars"),
            (rec("org/fork", fork=True), "fork"),
            (rec("org/empty", size=0), "size"),
            (rec("org/private", public=False), "not_public"),
        ]
        passes = [rec("org/boundary", stars=2, size=1), rec("org/normal")]
        kept, rejected = apply_filters([r for r, _ in table] + passes, FilterCriteria())
        assert kept == passes
        assert [(r.full_name, why) for r, why in rejected] == [
            (r.full_name, why) for r, why in table
        ]

        # network paths against a local stub: pagination, backoff, idempotence
        from tfsustain.harvest import CodeSearchClient

        sleeps: list[float] = []
        with StubApi() as stub:
            pages = [
                [search_item(f"org/r{i:03d}") for i in range(100)],
                [search_item(f"org/r{i:03d}") for i in range(100, 137)],
            ]
            stub.add_search_pages(pages)
            first_page = stub.routes["/search/code?page=1"][0]
            stub.route(
                "/search/code?page=1",
                Scripted(
                    403,
                    {"message": "slow down"},
                    {
                        "X-RateLimit-Remaining": "0",
                        "X-RateLimit-Reset": str(int(time.time())),
                    },
                ),
                first_page,
            )
            stub.add_repo_tree(
                "org/r000",
                {"main.tf": b"# tf\n", "x/y.tf": b"# tf\n", "z.tf": b"# tf\n", "no.md": b"#"},
            )
            client = CodeSearchClient(
                base_url=stub.base_url, token="t", sleeper=sleeps.append
            )
            records = client.search_repos("aws", "aws_instance")
            assert len(records) == 137
            assert len(sleeps) == 1  # one backoff, honored via headers

            manifest = HarvestManifest(tmp_path / "manifest.jsonl")
            target = next(r for r in records if r.full_name == "org/r000")
            first = client.fetch_tf_files(target, tmp_path / "dest", manifest)
            assert sorted(e.path for e in first) == ["main.tf", "x/y.tf", "z.tf"]
            assert all(e.downloaded for e in first)
            again = client.fetch_tf_files(target, tmp_path / "dest", manifest)
            assert all(not e.downloaded for e in again)
            assert len(again) == 3


def test_criterion_7_sampler_conformance():
    with criterion(7, "stratified sampler conformance"):
        manifest = {
            f"org/repo{i:03d}": [f"env{j}/main.tf" for j in range(5 + i % 4)]
            for i in range(395)
        }
        sample = sample_stratified(manifest, seed=14020461)
        assert set(sample.selections) == set(manifest)
        for repo, files in sample.selections.items():
            assert 4 <= len(files) <= 5
            assert set(files) <= set(manifest[repo])
        assert 1580 <= sample.total <= 1975
        assert sample == sample_stratified(manifest, seed=14020461)
        assert sample != sample_stratified(manifest, seed=14020462)


def test_acceptance_report_is_json_stable(synthetic_corpus):
    # not a numbered criterion: guards the canonical JSON form end to end
    root, _ = synthetic_corpus
    report = scan(root)
    doc = json.loads(render(report, prevalence(report), "json"))
    assert doc["stats"]["SS7"]["numerator"] == 19
    assert doc["stats"]["SS7"]["denominator"] == 200
    assert doc["stats"]["SS7"]["percent"] == "9.50"
