"""In-process HTTP stub of the code-hosting API for harvester tests.

Routes are configured per test: a path maps to a list of scripted responses
consumed in order (the last one repeats), so sequences like "403 with rate
headers, then 200" are easy to express. A route is the percent-decoded path,
as the API decodes it. Every request is logged, with its headers.
"""

from __future__ import annotations

import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse


class Scripted:
    """One response.

    A ``bytes`` body is sent as it is, any other body as JSON. A
    ``Content-Length`` among the headers replaces the body's own length.
    """

    def __init__(self, status: int, body: object = None, headers: dict | None = None):
        self.status = status
        self.body = body if body is not None else {}
        self.headers = headers or {}


class StubApi:
    def __init__(self) -> None:
        self.routes: dict[str, list[Scripted]] = {}
        self.requests: list[tuple[str, dict]] = []
        self.request_headers: list[dict[str, str]] = []
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                parsed = urlparse(self.path)
                path = unquote(parsed.path)
                params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                with stub._lock:
                    stub.requests.append((path, params))
                    stub.request_headers.append(dict(self.headers))
                    scripted = stub._lookup(path, params)
                self.send_response(scripted.status)
                for name, value in scripted.headers.items():
                    self.send_header(name, value)
                payload = scripted.body
                if not isinstance(payload, bytes):
                    payload = json.dumps(payload).encode("utf-8")
                self.send_header("Content-Type", "application/json")
                if "Content-Length" not in scripted.headers:
                    self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:  # silence test output
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval: shutdown() waits for the next poll.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def _lookup(self, path: str, params: dict) -> Scripted:
        key = path
        if path == "/search/code":
            key = f"{path}?page={params.get('page', '1')}"
        queue = self.routes.get(key) or self.routes.get(path)
        if not queue:
            return Scripted(404, {"message": "no stub route"})
        if len(queue) > 1:
            return queue.pop(0)
        return queue[0]

    # -- configuration helpers ------------------------------------------

    def route(self, key: str, *responses: Scripted) -> None:
        self.routes[key] = list(responses)

    def add_search_pages(self, pages: list[list[dict]], total: int | None = None) -> None:
        if total is None:
            total = sum(len(p) for p in pages)
        for number, items in enumerate(pages, 1):
            self.route(
                f"/search/code?page={number}",
                Scripted(200, {"total_count": total, "items": items}),
            )

    def add_repo_tree(self, full_name: str, files: dict[str, bytes]) -> None:
        tree = [
            {"path": path, "type": "blob", "sha": f"sha-{path}"}
            for path in sorted(files)
        ]
        self.route(
            f"/repos/{full_name}/git/trees/HEAD",
            Scripted(200, {"tree": tree}),
        )
        for path, content in files.items():
            self.route(
                f"/repos/{full_name}/contents/{path}",
                Scripted(200, {"content": github_base64(content), "encoding": "base64"}),
            )

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "StubApi":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"


def github_base64(content: bytes) -> str:
    """``content`` in base64 as GitHub's contents API sends it: a line break after
    every 60 characters."""
    encoded = base64.b64encode(content).decode("ascii")
    return "".join(encoded[i : i + 60] + "\n" for i in range(0, len(encoded), 60))


def search_item(
    full_name: str,
    stars: int = 5,
    fork: bool = False,
    size: int = 120,
    private: bool = False,
) -> dict:
    return {
        "repository": {
            "full_name": full_name,
            "stargazers_count": stars,
            "fork": fork,
            "size": size,
            "private": private,
        }
    }
