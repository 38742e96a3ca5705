from __future__ import annotations

import json
import re
import time
from datetime import datetime, timezone

import pytest

from tfsustain.harvest import (
    AuthError,
    CodeSearchClient,
    FilterCriteria,
    HarvestError,
    MAX_BACKOFF_S,
    HarvestManifest,
    NetworkError,
    RateLimitError,
    RepoGoneError,
    RepoRecord,
    apply_filters,
    criteria_from_file,
    harvest_provider,
)

from stub_server import Scripted, StubApi, github_base64, search_item


def record(full_name="org/repo", stars=5, fork=False, size=120, public=True):
    return RepoRecord(
        full_name=full_name,
        stars=stars,
        is_fork=fork,
        size_kb=size,
        visibility="public" if public else "other",
        provider_tag="aws",
        retrieved_at="2026-01-01T00:00:00+00:00",
    )


def manifest_repos(path) -> dict[str, dict]:
    """The last recorded decision per repository, read from the manifest file."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return {d["record"]["full_name"]: d for d in lines if d["kind"] == "repo"}


def make_client(stub: StubApi, **kwargs) -> CodeSearchClient:
    kwargs.setdefault("sleeper", lambda _t: None)
    return CodeSearchClient(base_url=stub.base_url, token="stub-token", **kwargs)


# -- filters -----------------------------------------------------------


def test_filters_reject_each_single_criterion():
    table = [
        (record(stars=1), "min_stars"),
        (record(fork=True), "fork"),
        (record(size=0), "size"),
        (record(public=False), "not_public"),
    ]
    kept, rejected = apply_filters([r for r, _ in table], FilterCriteria())
    assert kept == []
    assert [(r.full_name, reason) for r, reason in rejected] == [
        (r.full_name, want) for r, want in table
    ]


def test_filters_boundary_pass():
    boundary = record(stars=2, size=1)
    kept, rejected = apply_filters([boundary], FilterCriteria())
    assert kept == [boundary] and rejected == []


def test_filters_report_first_failing_criterion():
    doomed = record(stars=0, fork=True, size=0, public=False)
    _, rejected = apply_filters([doomed], FilterCriteria())
    assert rejected[0][1] == "size"  # checked before fork/stars/visibility


def test_filter_defaults_match_published_protocol():
    criteria = FilterCriteria()
    assert criteria.min_stars == 2
    assert criteria.exclude_forks is True
    assert criteria.min_size_kb_exclusive == 0
    assert criteria.require_public is True
    assert criteria.manual_review_content is True


def test_criteria_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "criteria.json"
    path.write_text('{"min_stars": 3, "max_age_days": 30}')
    with pytest.raises(Exception, match="max_age_days"):
        criteria_from_file(path)


# -- search ------------------------------------------------------------


def test_search_drains_all_pages():
    with StubApi() as stub:
        stub.add_search_pages(
            [
                [search_item(f"org/repo{i:03d}") for i in range(100)],
                [search_item(f"org/repo{i:03d}") for i in range(100, 137)],
            ]
        )
        client = make_client(stub)
        records = client.search_repos("azure", "azurerm_")
    assert len(records) == 137
    assert all(r.provider_tag == "azure" for r in records)
    searches = [params for path, params in stub.requests if path == "/search/code"]
    assert [params["page"] for params in searches] == ["1", "2"]
    assert all(params["per_page"] == "100" for params in searches)


def test_search_deduplicates_across_pages():
    with StubApi() as stub:
        stub.add_search_pages(
            [
                [search_item("org/a"), search_item("org/b")],
                [search_item("org/b"), search_item("org/c")],
            ],
            total=4,
        )
        records = make_client(stub).search_repos("aws", "aws_instance")
    assert sorted(r.full_name for r in records) == ["org/a", "org/b", "org/c"]


def test_search_retries_after_rate_limit_reset():
    sleeps: list[float] = []
    with StubApi() as stub:
        stub.route(
            "/search/code?page=1",
            Scripted(
                403,
                {"message": "rate limited"},
                {
                    "X-RateLimit-Remaining": "0",
                    "X-RateLimit-Reset": str(int(time.time())),
                },
            ),
            Scripted(200, {"total_count": 1, "items": [search_item("org/slow")]}),
        )
        client = make_client(stub, sleeper=sleeps.append)
        records = client.search_repos("aws", "aws_instance")
    assert [r.full_name for r in records] == ["org/slow"]
    assert len(sleeps) == 1 and sleeps[0] >= 0


def test_rate_budget_exhaustion_is_typed_error():
    always_limited = Scripted(
        403,
        {"message": "rate limited"},
        {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": str(int(time.time()))},
    )
    with StubApi() as stub:
        stub.route("/search/code?page=1", always_limited)
        client = make_client(stub)
        with pytest.raises(RateLimitError):
            client.search_repos("aws", "aws_instance")


def test_auth_failure_is_typed_error():
    with StubApi() as stub:
        stub.route("/search/code?page=1", Scripted(401, {"message": "bad credentials"}))
        with pytest.raises(AuthError):
            make_client(stub).search_repos("aws", "aws_instance")


def test_unreachable_host_is_typed_network_error():
    client = CodeSearchClient("http://127.0.0.1:9", sleeper=lambda _t: None)
    with pytest.raises(NetworkError):
        client.search_repos("aws", "aws_instance")


def test_persistent_server_error_on_later_page_is_not_truncated():
    with StubApi() as stub:
        stub.route(
            "/search/code?page=1",
            Scripted(
                200,
                {
                    "total_count": 150,
                    "items": [search_item(f"org/r{i}") for i in range(100)],
                },
            ),
        )
        stub.route("/search/code?page=2", Scripted(500, {"message": "boom"}))
        client = make_client(stub)
        with pytest.raises(NetworkError):
            client.search_repos("aws", "aws_instance")


def test_search_stops_at_the_apis_result_cap():
    # Past 1,000 results the search API answers 422; asking for page 11 once
    # made every harvest of a popular query fail before recording anything.
    with StubApi() as stub:
        stub.add_search_pages(
            [[search_item(f"org/r{p}-{i}") for i in range(100)] for p in range(10)], total=5000
        )
        stub.route(
            "/search/code?page=11",
            Scripted(422, {"message": "Only the first 1000 search results are available"}),
        )
        client = make_client(stub)
        records = client.search_repos("aws", "aws_instance")
        assert len(stub.requests) == 10
    assert len(records) == 1000
    assert client.unserved == 4000


# -- fetch -------------------------------------------------------------

REPO_FILES = {
    "main.tf": b'resource "aws_instance" "a" {\n  ami = "x"\n}\n',
    "modules/net/net.tf": b'resource "aws_vpc" "v" {\n  cidr_block = "10.0.0.0/16"\n}\n',
    "outputs.tf": b'output "id" {\n  value = aws_instance.a.id\n}\n',
    "README.md": b"# not terraform\n",
    "scripts/run.sh": b"echo hi\n",
}


def test_fetch_materializes_only_tf_files(tmp_path):
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", REPO_FILES)
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        entries = client.fetch_tf_files(record(), tmp_path / "dest", manifest)
    assert sorted(e.path for e in entries) == [
        "main.tf",
        "modules/net/net.tf",
        "outputs.tf",
    ]
    assert all(e.downloaded for e in entries)
    assert (tmp_path / "dest" / "org/repo/modules/net/net.tf").exists()


def test_refetch_with_unchanged_tree_downloads_nothing(tmp_path):
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", REPO_FILES)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        client = make_client(stub)
        first = client.fetch_tf_files(record(), tmp_path / "dest", manifest)
        before = client.requests_made

        second = client.fetch_tf_files(record(), tmp_path / "dest", manifest)
        after = client.requests_made
    assert sum(1 for e in first if e.downloaded) == 3
    assert sum(1 for e in second if e.downloaded) == 0
    assert sum(1 for e in second if not e.downloaded) == 3
    assert after - before == 1  # only the tree listing


def test_manifest_survives_reload_for_idempotence(tmp_path):
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", REPO_FILES)
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        client.fetch_tf_files(record(), tmp_path / "dest", manifest)

        reloaded = HarvestManifest(tmp_path / "manifest.jsonl")
        entries = client.fetch_tf_files(record(), tmp_path / "dest", reloaded)
    assert all(not e.downloaded for e in entries)


# -- end-to-end batch ----------------------------------------------------


def test_harvest_batch_completes_past_vanished_repo(tmp_path):
    with StubApi() as stub:
        stub.add_search_pages(
            [[search_item("org/good"), search_item("org/gone"), search_item("org/fork", fork=True)]]
        )
        stub.add_repo_tree("org/good", {"main.tf": b"# ok\n"})
        stub.route("/repos/org/gone/git/trees/HEAD", Scripted(404, {"message": "gone"}))
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        summary = harvest_provider(client, "aws", tmp_path / "dest", manifest)
    assert summary.kept == 1
    assert summary.skipped == 1
    assert summary.rejected == 1
    decisions = manifest_repos(tmp_path / "manifest.jsonl")
    assert decisions["org/gone"]["reason"] == "gone"
    assert decisions["org/fork"]["reason"] == "fork"
    assert decisions["org/good"]["decision"] == "kept"


def test_harvest_records_manual_review_queue(tmp_path):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/good")]])
        stub.add_repo_tree("org/good", {"main.tf": b"# ok\n"})
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        summary = harvest_provider(
            make_client(stub), "aws", tmp_path / "dest", manifest
        )
    assert summary.manual_review == ["org/good"]


def test_harvest_dry_run_fetches_nothing(tmp_path):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/good")]])
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        summary = harvest_provider(
            client, "aws", tmp_path / "dest", manifest, dry_run=True
        )
        assert client.requests_made == 1  # the search page only
    assert summary.kept == 1 and summary.files_fetched == 0
    assert not (tmp_path / "dest").exists()


def test_harvest_rerun_performs_no_duplicate_fetches(tmp_path):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/good")]])
        stub.add_repo_tree("org/good", {"main.tf": b"# ok\n", "net.tf": b"# ok\n"})
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        first = harvest_provider(client, "aws", tmp_path / "dest", manifest)
        assert first.files_fetched == 2

        # replay against a manifest loaded from disk, as a new process would
        manifest2 = HarvestManifest(tmp_path / "manifest.jsonl")
        second = harvest_provider(client, "aws", tmp_path / "dest", manifest2)
    assert second.files_fetched == 0
    assert second.files_unchanged == 2



def test_manifest_criteria_and_repo_lines_are_pinned(tmp_path):
    manifest = HarvestManifest(tmp_path / "manifest.jsonl")
    manifest.record_criteria(
        FilterCriteria(
            min_stars=3,
            exclude_forks=False,
            min_size_kb_exclusive=5,
            require_public=True,
            manual_review_content=False,
        )
    )
    manifest.record_repo(record("org/a", stars=7), "kept", "passed filters")
    assert (tmp_path / "manifest.jsonl").read_text(encoding="utf-8").splitlines() == [
        '{"exclude_forks": false, "kind": "criteria", "manual_review_content": false, '
        '"min_size_kb_exclusive": 5, "min_stars": 3, "require_public": true}',
        '{"decision": "kept", "kind": "repo", "manual_review": false, "reason": '
        '"passed filters", "record": {"full_name": "org/a", "is_fork": false, '
        '"provider_tag": "aws", "retrieved_at": "2026-01-01T00:00:00+00:00", '
        '"size_kb": 120, "stars": 7, "visibility": "public"}}',
    ]


def test_a_manifest_refuses_a_run_under_other_criteria_before_any_request(tmp_path):
    path = tmp_path / "manifest.jsonl"
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/three", stars=3)]])
        harvest_provider(
            make_client(stub), "aws", tmp_path / "dest", HarvestManifest(path), dry_run=True
        )
        before, requests = path.read_bytes(), len(stub.requests)
        stricter = FilterCriteria(min_stars=5, exclude_forks=False)
        with pytest.raises(HarvestError) as err:
            harvest_provider(
                make_client(stub),
                "aws",
                tmp_path / "dest",
                HarvestManifest(path),
                criteria=stricter,
                dry_run=True,
            )
        assert len(stub.requests) == requests
    assert str(err.value) == (
        f"{path} was recorded under other criteria; this run differs in min_stars, exclude_forks"
    )
    assert path.read_bytes() == before
    assert manifest_repos(path)["org/three"]["decision"] == "kept"
    # The same criteria again are not a difference.
    HarvestManifest(path).record_criteria(FilterCriteria())
    assert path.read_bytes() == before


def test_fetch_decodes_content_in_base64_lines(tmp_path):
    text = b'resource "aws_instance" "a" {\n  instance_type = "t3.micro"\n}\n' * 3
    assert github_base64(text).count("\n") > 1
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", {"main.tf": text})
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        make_client(stub).fetch_tf_files(record(), tmp_path / "dest", manifest)
    assert (tmp_path / "dest" / "org/repo/main.tf").read_bytes() == text


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"content": "!!!!", "encoding": "base64"}, "not base64: Only base64 data is allowed"),
        ({"content": "abc", "encoding": "base64"}, "not base64: Incorrect padding"),
        ({"content": "\u00e9A==", "encoding": "base64"}, "not base64: string argument"),
        ({"content": "", "encoding": "none"}, "not base64-encoded"),
        ({"content": "YQ=="}, "not base64-encoded"),
        ({"encoding": "base64"}, "not base64-encoded"),
    ],
    ids=["not-alphabet", "padding", "not-ascii", "encoding-none", "no-encoding", "no-content"],
)
def test_content_that_does_not_decode_is_a_harvest_error_naming_its_path(tmp_path, blob, message):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/repo")]])
        stub.add_repo_tree("org/repo", {"main.tf": b"# ok\n"})
        stub.route("/repos/org/repo/contents/main.tf", Scripted(200, blob))
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        with pytest.raises(HarvestError) as err:
            harvest_provider(make_client(stub), "aws", tmp_path / "dest", manifest)
    assert str(err.value).startswith("/repos/org/repo/contents/main.tf returned content that is ")
    assert message in str(err.value)
    assert not (tmp_path / "dest").exists()
    assert manifest.file_entry("org/repo", "main.tf") is None
    assert '"kind": "file"' not in (tmp_path / "manifest.jsonl").read_text(encoding="utf-8")


def test_fetch_skips_tree_paths_that_leave_the_repository_directory(tmp_path):
    dest = tmp_path / "base" / "dest"
    # Each would land outside dest/org/repo but inside tmp_path if it were written.
    absolute = (tmp_path / "abs" / "x.tf").as_posix()
    unsafe = [absolute, "../../../up.tf", "a/../../b.tf", "a//b.tf", "./c.tf", "d/./e.tf"]
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", {"ok.tf": b"# ok\n", **{p: b"# no\n" for p in unsafe}})
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        entries = make_client(stub).fetch_tf_files(record(), dest, manifest)
    assert [e.path for e in entries] == ["ok.tf"]
    contents = [path for path, _ in stub.requests if "/contents/" in path]
    assert contents == ["/repos/org/repo/contents/ok.tf"]
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["base/dest/org/repo/ok.tf", "manifest.jsonl"]
    assert manifest.file_entry("org/repo", "ok.tf") is not None
    assert all(manifest.file_entry("org/repo", p) is None for p in unsafe)


def test_search_skips_repository_names_that_are_not_owner_slash_name(tmp_path):
    names = ["org/good", "../evil", "org/a/b", "solo", "/abs", "org/..", "org/"]
    with StubApi() as stub:
        stub.add_search_pages([[search_item(name) for name in names]])
        stub.add_repo_tree("org/good", {"main.tf": b"# ok\n"})
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        summary = harvest_provider(make_client(stub), "aws", tmp_path / "dest", manifest)
    assert (summary.kept, summary.rejected, summary.skipped) == (1, 0, 0)
    assert [path for path, _ in stub.requests if path.startswith("/repos/")] == [
        "/repos/org/good/git/trees/HEAD",
        "/repos/org/good/contents/main.tf",
    ]
    assert list(manifest_repos(tmp_path / "manifest.jsonl")) == ["org/good"]
    with StubApi() as stub:
        client = make_client(stub)
        assert client.fetch_tf_files(record("../evil"), tmp_path / "dest", manifest) == []
    assert client.requests_made == 0 and stub.requests == []


def test_fetch_skips_tree_entries_of_another_shape(tmp_path):
    odd = [
        {"path": 5, "type": "blob", "sha": "s"},
        "x.tf",
        ["y.tf"],
        {"path": "a.tf", "type": "blob", "sha": 7},
        {"path": "b.tf", "type": ["blob"], "sha": "s"},
    ]
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", {"ok.tf": b"# ok\n", "a.tf": b"#\n", "b.tf": b"#\n"})
        good = {"path": "ok.tf", "type": "blob", "sha": "sha-ok.tf"}
        stub.route("/repos/org/repo/git/trees/HEAD", Scripted(200, {"tree": [*odd, good]}))
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        entries = make_client(stub).fetch_tf_files(record(), tmp_path / "dest", manifest)
    assert [e.path for e in entries] == ["ok.tf"]
    assert [path for path, _ in stub.requests if "/contents/" in path] == [
        "/repos/org/repo/contents/ok.tf"
    ]


def test_search_skips_items_of_another_shape(tmp_path):
    items = [
        5,
        {"repository": "org/x"},
        {"repository": {"full_name": 7, "stargazers_count": 5, "size": 120}},
        search_item("org/stars", stars="5"),
        search_item("org/bool", stars=True),
        search_item("org/size", size=1.5),
        search_item("org/fork", fork="false"),
        search_item("org/private", private=0),
        search_item("org/good"),
    ]
    with StubApi() as stub:
        stub.add_search_pages([items])
        records = make_client(stub).search_repos("aws", "q")
    assert [r.full_name for r in records] == ["org/good"]
    assert [path for path, _ in stub.requests] == ["/search/code"]


@pytest.mark.parametrize(
    "route, body",
    [
        ("/search/code?page=1", []),
        ("/search/code?page=1", {"total_count": 1, "items": {"a": 1}}),
        ("/search/code?page=1", {"total_count": "1", "items": []}),
        ("/repos/org/repo/git/trees/HEAD", "tree"),
        ("/repos/org/repo/git/trees/HEAD", {"tree": 5}),
        ("/repos/org/repo/contents/ok.tf", {"content": 5}),
    ],
)
def test_a_response_of_another_shape_is_a_harvest_error(tmp_path, route, body):
    with StubApi() as stub:
        stub.add_search_pages([[search_item("org/repo")]])
        stub.add_repo_tree("org/repo", {"ok.tf": b"# ok\n"})
        stub.route(route, Scripted(200, body))
        client = make_client(stub)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        with pytest.raises(HarvestError, match="unexpected shape"):
            for repo in client.search_repos("aws", "q"):
                client.fetch_tf_files(repo, tmp_path / "dest", manifest)
    assert not (tmp_path / "dest").exists()


@pytest.mark.parametrize(
    "body", [b"not json", b"\xff", b"[" * 100_000 + b"]" * 100_000], ids=["text", "not-utf8", "deep"]
)
def test_a_response_that_is_not_json_is_a_harvest_error_naming_its_path(tmp_path, body):
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", {"ok.tf": b"# ok\n"})
        stub.route("/repos/org/repo/contents/ok.tf", Scripted(200, body))
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        with pytest.raises(HarvestError, match="^/repos/org/repo/contents/ok.tf returned a body"):
            make_client(stub).fetch_tf_files(record(), tmp_path / "dest", manifest)
    assert not (tmp_path / "dest").exists()


@pytest.mark.parametrize(
    "response, error, message",
    [
        (Scripted(204, b""), NetworkError, "unexpected 204"),
        (Scripted(304, b""), NetworkError, "unexpected 304"),
        (Scripted(401), AuthError, "credentials rejected"),
        (Scripted(403), AuthError, "without rate headers"),
        (Scripted(429, headers={"Retry-After": "soon"}), AuthError, "without rate headers"),
        (
            Scripted(403, headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "soon"}),
            AuthError,
            "without rate headers",
        ),
        (Scripted(404), RepoGoneError, "returned 404"),
        (Scripted(503), NetworkError, r"kept failing \(503\)"),
    ],
)
def test_each_status_is_its_typed_error(response, error, message):
    with StubApi() as stub:
        stub.route("/search/code", response)
        client = make_client(stub)
        with pytest.raises(error, match=message):
            client.search_repos("aws", "q")
    assert client.requests_made == len(stub.requests)


@pytest.mark.parametrize("status", [403, 429])
def test_a_refusal_without_rate_headers_names_its_status(status):
    with StubApi() as stub:
        stub.route("/search/code", Scripted(status, headers={"Retry-After": "soon"}))
        message = rf"^/search/code refused \({status}\) without rate headers$"
        with pytest.raises(AuthError, match=message):
            make_client(stub).search_repos("aws", "q")


def test_retry_after_may_be_an_http_date(monkeypatch):
    # RFC 9110 §10.2.3: seconds or an HTTP-date; a date in the past waits 0 s.
    now = datetime(2026, 10, 21, 7, 27, 30, tzinfo=timezone.utc).timestamp()
    monkeypatch.setattr(time, "time", lambda: now)
    sleeps: list[float] = []
    with StubApi() as stub:
        stub.route(
            "/search/code",
            Scripted(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            Scripted(403, headers={"Retry-After": "Tuesday, 20-Oct-26 07:28:00 GMT"}),
            # "-0000" names no zone (RFC 5322 §3.3); an HTTP-date is UTC all the same.
            Scripted(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 -0000"}),
            Scripted(200, {"total_count": 1, "items": [search_item("org/later")]}),
        )
        records = make_client(stub, sleeper=sleeps.append).search_repos("aws", "q")
    assert [r.full_name for r in records] == ["org/later"]
    assert sleeps == [30.0, 0.0, 30.0]


@pytest.mark.parametrize(
    "headers, shown",
    [
        ({"Retry-After": "inf"}, "Retry-After: inf"),
        ({"Retry-After": "1e400"}, "Retry-After: 1e400"),
        ({"Retry-After": "1e9"}, "Retry-After: 1e9"),
        ({"Retry-After": "3601"}, "Retry-After: 3601"),
        ({"Retry-After": "Fri, 31 Dec 9999 23:59:59 GMT"}, "Retry-After: Fri, 31 Dec 9999"),
        (
            {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "99999999999"},
            "X-RateLimit-Reset: 99999999999",
        ),
    ],
)
def test_a_wait_over_an_hour_or_not_finite_is_a_rate_limit_error_without_sleeping(
    headers, shown
):
    sleeps: list[float] = []
    with StubApi() as stub:
        stub.route("/search/code", Scripted(429, headers=headers))
        client = make_client(stub, sleeper=sleeps.append)
        with pytest.raises(RateLimitError, match="^" + re.escape(shown)):
            client.search_repos("aws", "q")
    assert sleeps == [] and client.requests_made == 1


def test_a_wait_of_an_hour_is_slept():
    sleeps: list[float] = []
    with StubApi() as stub:
        stub.route(
            "/search/code",
            Scripted(429, headers={"Retry-After": "3600"}),
            Scripted(200, {"total_count": 0, "items": []}),
        )
        make_client(stub, sleeper=sleeps.append).search_repos("aws", "q")
    assert sleeps == [MAX_BACKOFF_S]


def test_retry_after_and_server_errors_are_retried_until_a_response_is_whole():
    sleeps: list[float] = []
    with StubApi() as stub:
        stub.route(
            "/search/code",
            Scripted(429, headers={"Retry-After": "7"}),
            Scripted(502),
            # The body ends before its Content-Length: the read fails and is retried.
            Scripted(200, b'{"total_count"', {"Content-Length": "100"}),
            Scripted(200, {"total_count": 1, "items": [search_item("org/late")]}),
        )
        client = make_client(stub, sleeper=sleeps.append)
        records = client.search_repos("aws", "q")
    assert [r.full_name for r in records] == ["org/late"]
    assert sleeps == [7.0, 4.0, 8.0]
    assert len(stub.requests) == 4 and client.requests_made == 3


def test_fetch_requests_each_tree_path_percent_encoded(tmp_path):
    names = ["a b.tf", "q?x.tf", "h#x.tf", "p%41.tf", "ü.tf"]
    files = {name: f"# {name}\n".encode() for name in names}
    with StubApi() as stub:
        stub.add_repo_tree("org/repo", files)
        manifest = HarvestManifest(tmp_path / "manifest.jsonl")
        entries = make_client(stub).fetch_tf_files(record(), tmp_path / "dest", manifest)
    assert sorted(e.path for e in entries) == sorted(names)
    assert sorted(path for path, _ in stub.requests if "/contents/" in path) == sorted(
        f"/repos/org/repo/contents/{name}" for name in names
    )
    for name in names:
        assert (tmp_path / "dest" / "org" / "repo" / name).read_bytes() == files[name]


def test_the_token_is_not_sent_on_to_where_a_redirect_points():
    with StubApi() as origin, StubApi() as other:
        other.add_search_pages([[search_item("org/moved")]])
        moved = f"{other.base_url}/search/code?q=q&page=1"
        origin.route("/search/code", Scripted(301, headers={"Location": moved}))
        client = make_client(origin)
        records = client.search_repos("aws", "q")
    assert [r.full_name for r in records] == ["org/moved"]
    assert client.requests_made == 1  # the response at the end of the redirect
    assert origin.request_headers[0]["Authorization"] == "Bearer stub-token"
    assert "Authorization" not in other.request_headers[0]
