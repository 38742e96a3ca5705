"""Repository harvesting against a GitHub-style code search API.

Discovery goes through the code search endpoint (``/search/code``) so that
repositories are selected by what their files contain, not by metadata.
Every response the client consumes is plain JSON over HTTP, which keeps the
whole module testable against a local stub server; no test needs live
credentials. Requests go through the standard library's ``urllib.request``,
so HTTPS trusts the system's certificate store. Path segments are
percent-encoded, and the token is never sent on to where a redirect points
(RFC 9110 §15.4).

Wire format expected from the API:

* ``GET /search/code?q=...&per_page=N&page=K`` ->
  ``{"total_count": int, "items": [{"repository": {"full_name", "fork",
  "stargazers_count", "size", "private"}}]}``
* ``GET /repos/{full_name}/git/trees/HEAD?recursive=1`` ->
  ``{"tree": [{"path", "type", "sha"}]}``
* ``GET /repos/{full_name}/contents/{path}`` ->
  ``{"content": base64, "encoding": "base64"}``, the base64 broken into
  lines by ``"\n"``

A response of another shape (not an object, or a listed field of another
JSON type) is a ``HarvestError``, and so are contents of another encoding
and content that is not base64 once its line breaks are dropped. A search
item, repository or tree entry of another shape is skipped without a
request.

Rate limiting follows the usual header convention: a 403/429 with
``X-RateLimit-Remaining: 0`` (or a ``Retry-After``) makes the client sleep
until the advertised reset and retry, up to a bounded number of attempts. A
wait over ``MAX_BACKOFF_S`` is a ``RateLimitError``, with no sleep.

The harvest manifest is a line-delimited JSON file, append-only, which makes
re-runs cheap: a file whose recorded git blob sha still matches is never
downloaded again.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping
from urllib.parse import quote, urlencode

from . import read_json

DEFAULT_BASE_URL = "https://api.github.com"
TOKEN_ENV_VAR = "TFSUSTAIN_GITHUB_TOKEN"
PER_PAGE = 100  # the largest page the search API serves
SEARCH_CAP = 1000  # the search API serves only the first 1,000 results of a query
MAX_BACKOFF_S = 3600.0  # GitHub's rate-limit window; a longer wait is never slept
MAX_RETRIES = 5  # retries of one request after a transport error, 5xx or rate limit

# Search tokens per provider; the query is configuration, not logic.
PROVIDER_QUERIES = {
    "aws": "aws_instance",
    "azure": "azurerm_",
    "gcp": "google_compute_",
}


class HarvestError(Exception):
    """Base class for harvest failures."""


class AuthError(HarvestError):
    """Credentials rejected by the API."""


class RateLimitError(HarvestError):
    """Rate budget exhausted after the allowed retries."""


class NetworkError(HarvestError):
    """Transport failure that persisted across retries."""


class RepoGoneError(HarvestError):
    """Repository vanished or became inaccessible mid-harvest."""


@dataclass(frozen=True)
class RepoRecord:
    full_name: str
    stars: int
    is_fork: bool
    size_kb: int
    visibility: str  # "public" | "other"
    provider_tag: str
    retrieved_at: str


@dataclass(frozen=True)
class FilterCriteria:
    """Automatic repository filters; defaults match the published protocol."""

    min_stars: int = 2
    exclude_forks: bool = True
    min_size_kb_exclusive: int = 0
    require_public: bool = True
    # The content filter (tutorials, assignments, deliberately insecure
    # repos) needs human judgment; it only flags, never decides.
    manual_review_content: bool = True


def apply_filters(
    records: list[RepoRecord], criteria: FilterCriteria = FilterCriteria()
) -> tuple[list[RepoRecord], list[tuple[RepoRecord, str]]]:
    """Split records into kept and rejected-with-reason.

    A rejected record carries the first criterion it failed, checked in the
    order size, fork, stars, visibility.
    """
    kept: list[RepoRecord] = []
    rejected: list[tuple[RepoRecord, str]] = []
    for record in records:
        if record.size_kb <= criteria.min_size_kb_exclusive:
            rejected.append((record, "size"))
        elif criteria.exclude_forks and record.is_fork:
            rejected.append((record, "fork"))
        elif record.stars < criteria.min_stars:
            rejected.append((record, "min_stars"))
        elif criteria.require_public and record.visibility != "public":
            rejected.append((record, "not_public"))
        else:
            kept.append(record)
    return kept, rejected


@dataclass(frozen=True)
class FileEntry:
    repo: str
    path: str
    git_sha: str
    sha256: str
    downloaded: bool


class CodeSearchClient:
    """Minimal client for the search/tree/contents endpoints."""

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        token: str | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.sleeper = sleeper
        self.requests_made = 0
        self.unserved = 0  # matches of the last search that the API did not serve

    # -- transport ---------------------------------------------------------

    def _get(self, path: str, params: dict | None = None, shape: dict | None = None) -> dict:
        """The JSON object at ``path``, whose ``shape`` fields have those types."""
        # Imported here, not at the top: every command imports this module, only
        # harvesting needs HTTP, and these modules add about a quarter to the CLI's
        # import time.
        import http.client
        import urllib.error
        import urllib.request

        url = self.base_url + quote(path, safe="/")
        if params:
            url += "?" + urlencode(params)
        request = urllib.request.Request(url, headers={"Accept": "application/vnd.github+json"})
        if self.token:
            # Never sent on to where a redirect points, which may be another origin.
            request.add_unredirected_header("Authorization", f"Bearer {self.token}")
        attempts = 0
        while True:
            attempts += 1
            try:
                with urllib.request.urlopen(request, timeout=30) as resp:
                    status, headers, body = resp.status, resp.headers, resp.read()
            # An HTTPError is the response to a 4xx, 5xx or unfollowed 3xx; it is an
            # OSError too, so it is caught first.
            except urllib.error.HTTPError as err:
                err.close()
                status, headers = err.code, err.headers
            except (OSError, http.client.HTTPException) as err:
                if attempts > MAX_RETRIES:
                    raise NetworkError(f"request to {path} kept failing: {err}") from err
                self.sleeper(min(2.0 ** attempts, 30.0))
                continue
            self.requests_made += 1
            if status == 200:
                try:
                    data = json.loads(body)
                except (ValueError, RecursionError) as err:
                    raise HarvestError(f"{path} returned a body that is not JSON: {err}") from err
                if not _has_shape(data, shape or {}):
                    raise HarvestError(f"{path} returned JSON of an unexpected shape")
                return data
            if status == 401:
                raise AuthError("credentials rejected (401)")
            if status == 404:
                raise RepoGoneError(f"{path} returned 404")
            if status in (403, 429):
                wait = _backoff_seconds(headers)
                if wait is None:
                    raise AuthError(f"{path} refused ({status}) without rate headers")
                if wait > MAX_BACKOFF_S:
                    header = "Retry-After" if "Retry-After" in headers else "X-RateLimit-Reset"
                    raise RateLimitError(
                        f"{header}: {headers[header]} asks for a wait over {MAX_BACKOFF_S:g} s"
                    )
                if attempts > MAX_RETRIES:
                    raise RateLimitError(f"rate budget exhausted after {MAX_RETRIES} retries")
                self.sleeper(wait)
                continue
            if status >= 500:
                if attempts > MAX_RETRIES:
                    raise NetworkError(f"{path} kept failing ({status})")
                self.sleeper(min(2.0 ** attempts, 30.0))
                continue
            raise NetworkError(f"{path} returned unexpected {status}")

    # -- operations ----------------------------------------------------

    def search_repos(self, provider_tag: str, query: str) -> list[RepoRecord]:
        """All repositories whose files match the query, paginated up to ``SEARCH_CAP``.

        Results are deduplicated by full name; a page below the cap that
        cannot be retrieved raises rather than silently truncating the
        listing. The matches past the cap are counted in ``unserved``.
        """
        records: dict[str, RepoRecord] = {}
        page = 1
        total: int | None = None
        seen_items = 0
        while True:
            data = self._get(
                "/search/code",
                {"q": query, "per_page": PER_PAGE, "page": page},
                {"items": list, "total_count": int},
            )
            items = data.get("items", [])
            if total is None:
                total = data.get("total_count", len(items))
            seen_items += len(items)
            for item in items:
                repo = item.get("repository") if isinstance(item, dict) else None
                if not _has_shape(repo, _REPO_SHAPE):
                    continue
                full_name = repo.get("full_name")
                if not _is_owner_name(full_name) or full_name in records:
                    continue
                records[full_name] = RepoRecord(
                    full_name=full_name,
                    stars=repo.get("stargazers_count", 0),
                    is_fork=repo.get("fork", False),
                    size_kb=repo.get("size", 0),
                    visibility="public" if not repo.get("private", False) else "other",
                    provider_tag=provider_tag,
                    retrieved_at=datetime.now(timezone.utc).isoformat(),
                )
            if not items or seen_items >= min(total, SEARCH_CAP):
                break
            page += 1
        self.unserved = max(total - seen_items, 0)
        return list(records.values())

    def fetch_tf_files(
        self,
        record: RepoRecord,
        dest: str | Path,
        manifest: HarvestManifest,
    ) -> list[FileEntry]:
        """Materialize every .tf file of a repository under ``dest/owner/name``.

        Idempotent: when the manifest already records a file with the same
        git blob sha and the bytes on disk still hash to the recorded
        digest, no content request is made. A repository name that is not
        ``owner/name`` and a tree path that would leave its directory are
        skipped without a request. Content that does not decode (see the
        module docstring) is a ``HarvestError`` before its file is written.
        """
        if not _is_owner_name(record.full_name):
            return []
        dest = Path(dest)
        tree = self._get(
            f"/repos/{record.full_name}/git/trees/HEAD", {"recursive": "1"}, {"tree": list}
        )
        entries: list[FileEntry] = []
        for node in tree.get("tree", []):
            if not _has_shape(node, _TREE_ENTRY_SHAPE):
                continue
            rel = node.get("path", "")
            if node.get("type") != "blob" or not rel.endswith(".tf") or not _is_relative(rel):
                continue
            git_sha = node.get("sha", "")
            target = dest / record.full_name / rel
            known = manifest.file_entry(record.full_name, rel)
            if known is not None and known.git_sha == git_sha and target.exists():
                on_disk = hashlib.sha256(target.read_bytes()).hexdigest()
                if on_disk == known.sha256:
                    entries.append(
                        FileEntry(record.full_name, rel, git_sha, known.sha256, False)
                    )
                    continue
            path = f"/repos/{record.full_name}/contents/{rel}"
            blob = self._get(path, shape={"content": str})
            if blob.get("encoding") != "base64" or "content" not in blob:
                raise HarvestError(f"{path} returned content that is not base64-encoded")
            try:
                content = base64.b64decode(blob["content"].replace("\n", ""), validate=True)
            except ValueError as err:  # binascii.Error is a ValueError
                raise HarvestError(f"{path} returned content that is not base64: {err}") from None
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
            digest = hashlib.sha256(content).hexdigest()
            entry = FileEntry(record.full_name, rel, git_sha, digest, True)
            entries.append(entry)
            manifest.record_file(entry)
        return entries


class HarvestManifest:
    """Append-only, replayable record of harvest decisions and file digests.

    Stored as line-delimited JSON: one ``criteria`` line, then ``repo``
    decision lines and ``file`` digest lines in arrival order.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.criteria: FilterCriteria | None = None
        self._repos: dict[str, dict] = {}
        self._files: dict[tuple[str, str], FileEntry] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # Binary, so that a line that is not UTF-8 is named like any other bad line.
        with self.path.open("rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    self._load_line(json.loads(line.decode("utf-8")))
                except KeyError as err:
                    raise HarvestError(f"{self.path} line {number}: missing key {err}") from err
                # RecursionError: JSON nested deeper than the interpreter's recursion limit.
                except (HarvestError, TypeError, ValueError, RecursionError) as err:
                    raise HarvestError(f"{self.path} line {number}: {err}") from err

    def _load_line(self, data: object) -> None:
        if not isinstance(data, dict):
            raise HarvestError(f"expected a JSON object, not {type(data).__name__}")
        kind = data.get("kind")
        if kind == "criteria":
            self.criteria = _checked_criteria({k: v for k, v in data.items() if k != "kind"})
        elif kind == "repo":
            self._repos[data["record"]["full_name"]] = data
        elif kind == "file":
            entry = FileEntry(
                data["repo"], data["path"], data["git_sha"], data["sha256"], downloaded=False
            )
            self._files[(entry.repo, entry.path)] = entry

    def _append(self, data: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(data, sort_keys=True) + "\n")

    def record_criteria(self, criteria: FilterCriteria) -> None:
        """Record a run's criteria once; a run with other criteria is refused.

        The manifest's decisions are all made under its one ``criteria`` line.
        """
        if self.criteria is None:
            self.criteria = criteria
            self._append({"kind": "criteria", **asdict(criteria)})
        elif criteria != self.criteria:
            keys = [k for k, v in asdict(criteria).items() if v != getattr(self.criteria, k)]
            raise HarvestError(
                f"{self.path} was recorded under other criteria; "
                f"this run differs in {', '.join(keys)}"
            )

    def record_repo(
        self,
        record: RepoRecord,
        decision: str,
        reason: str,
        manual_review: bool = False,
    ) -> None:
        data = {
            "kind": "repo",
            "record": asdict(record),
            "decision": decision,
            "reason": reason,
            "manual_review": manual_review,
        }
        self._repos[record.full_name] = data
        self._append(data)

    def record_file(self, entry: FileEntry) -> None:
        self._files[(entry.repo, entry.path)] = entry
        self._append(
            {
                "kind": "file",
                "repo": entry.repo,
                "path": entry.path,
                "git_sha": entry.git_sha,
                "sha256": entry.sha256,
            }
        )

    def file_entry(self, repo: str, path: str) -> FileEntry | None:
        return self._files.get((repo, path))

    def manual_review_queue(self) -> list[str]:
        return sorted(
            name
            for name, data in self._repos.items()
            if data.get("manual_review") and data.get("decision") == "kept"
        )


@dataclass
class HarvestSummary:
    kept: int = 0
    rejected: int = 0
    skipped: int = 0
    files_fetched: int = 0
    files_unchanged: int = 0
    manual_review: list[str] = field(default_factory=list)


def harvest_provider(
    client: CodeSearchClient,
    provider_tag: str,
    dest: str | Path,
    manifest: HarvestManifest,
    criteria: FilterCriteria = FilterCriteria(),
    query: str | None = None,
    dry_run: bool = False,
) -> HarvestSummary:
    """Search, filter, and fetch one provider's repositories.

    A repository that vanishes mid-batch is recorded as skipped ("gone");
    the batch always completes. A manifest recorded under other criteria is
    a ``HarvestError`` before any request.
    """
    if query is None:
        query = PROVIDER_QUERIES.get(provider_tag, provider_tag)
    manifest.record_criteria(criteria)

    summary = HarvestSummary()
    records = client.search_repos(provider_tag, query)
    kept, rejected = apply_filters(records, criteria)
    for record, reason in rejected:
        manifest.record_repo(record, "rejected", reason)
        summary.rejected += 1
    for record in kept:
        entries = []
        if not dry_run:
            try:
                entries = client.fetch_tf_files(record, dest, manifest)
            except RepoGoneError:
                manifest.record_repo(record, "skipped", "gone")
                summary.skipped += 1
                continue
        reason = "dry-run" if dry_run else "passed filters"
        manifest.record_repo(record, "kept", reason, manual_review=criteria.manual_review_content)
        summary.kept += 1
        summary.files_fetched += sum(1 for e in entries if e.downloaded)
        summary.files_unchanged += sum(1 for e in entries if not e.downloaded)
    summary.manual_review = manifest.manual_review_queue()
    return summary


def criteria_from_file(path: str | Path) -> FilterCriteria:
    """Criteria from a JSON file holding one object; see :func:`_checked_criteria`."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise HarvestError(
            f"{path}: criteria file must hold a JSON object, not {type(data).__name__}"
        )
    try:
        return _checked_criteria(data)
    except HarvestError as err:
        raise HarvestError(f"{path}: {err}") from None


def _checked_criteria(data: dict) -> FilterCriteria:
    """Criteria from a JSON object whose keys and value types are FilterCriteria's."""
    types = {f.name: type(f.default) for f in fields(FilterCriteria)}
    unknown = set(data) - set(types)
    if unknown:
        raise HarvestError(f"unknown criteria key(s): {', '.join(sorted(unknown))}")
    for key, value in data.items():
        # Exact types: a JSON true is a Python int too.
        if type(value) is not types[key]:
            raise HarvestError(
                f"criteria key {key!r} must be {types[key].__name__}, "
                f"not {type(value).__name__}"
            )
    return FilterCriteria(**data)


_REPO_SHAPE = {
    "full_name": str, "stargazers_count": int, "size": int, "fork": bool, "private": bool
}
_TREE_ENTRY_SHAPE = {"path": str, "sha": str, "type": str}


def _backoff_seconds(headers: Mapping[str, str]) -> float | None:
    """Seconds to wait before retrying a 403/429, or None without rate headers.

    ``Retry-After`` is a number of seconds or an HTTP-date (RFC 9110
    §10.2.3); a date in the past waits 0 s.
    """
    retry_after = headers.get("Retry-After")
    if retry_after is not None:
        try:
            return max(0.0, float(retry_after))
        except ValueError:
            pass
        # Imported here: email.utils adds a tenth to the CLI's import time.
        from email.utils import parsedate_to_datetime

        try:
            when = parsedate_to_datetime(retry_after)
        except ValueError:
            return None
        if when.tzinfo is None:  # an HTTP-date is UTC even where it names no zone
            when = when.replace(tzinfo=timezone.utc)
        return max(0.0, when.timestamp() - time.time())
    if headers.get("X-RateLimit-Remaining") == "0":
        reset = headers.get("X-RateLimit-Reset")
        if reset is not None:
            try:
                return max(0.0, float(reset) - time.time()) + 1.0
            except ValueError:
                return None
    return None


def _has_shape(data: object, shape: dict[str, type]) -> bool:
    """True for a JSON object whose ``shape`` fields, where present, have exactly those types.

    Exact types: a JSON true is a Python int too.
    """
    return isinstance(data, dict) and all(
        key not in data or type(data[key]) is t for key, t in shape.items()
    )


def _is_relative(path: str) -> bool:
    """True when ``path`` stays below the directory it is joined to.

    An absolute path, or one with an empty, ``.`` or ``..`` segment, does not.
    """
    return all(part not in ("", ".", "..") for part in path.split("/"))


def _is_owner_name(full_name: object) -> bool:
    """True for a repository name of the form ``owner/name``."""
    return isinstance(full_name, str) and full_name.count("/") == 1 and _is_relative(full_name)
