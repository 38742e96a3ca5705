"""Finding record and the directory-scoped SS6 rule shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from ..catalog import SmellId
from ..hcl import SourceSpan


@dataclass(frozen=True)
class SmellFinding:
    smell: SmellId
    path: str
    span: SourceSpan
    evidence: str
    engine: str  # "ast" | "pattern"
    message: str

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("finding evidence must be non-empty")
        if self.engine not in ("ast", "pattern"):
            raise ValueError(f"unknown engine {self.engine!r}")

    def sort_key(self) -> tuple:
        return (
            self.path,
            self.span.start_line,
            self.span.start_col,
            int(self.smell),
            self.engine,
        )

    def to_json_dict(self) -> dict:
        return {
            "smell": self.smell.name,
            "path": self.path,
            "span": {
                "start_line": self.span.start_line,
                "start_col": self.span.start_col,
                "end_line": self.span.end_line,
                "end_col": self.span.end_col,
            },
            "evidence": self.evidence,
            "engine": self.engine,
            "message": self.message,
        }


V = TypeVar("V")
L = TypeVar("L")


def local_state_findings(
    views: Sequence[V],
    backend_labels: Callable[[V], Iterable[str]],
    first_local: Callable[[V], L | None],
    first_terraform: Callable[[V], L | None],
    messages: tuple[str, str, str],
) -> list[SmellFinding]:
    """SS6 over one non-empty directory of file views, one root module.

    A backend label other than ``"local"`` in any file clears the directory.
    Otherwise every file with a ``terraform`` block gets one finding, at its
    first ``"local"`` backend, else at that block; if no file has one, the
    first file by path gets a single whole-file finding. ``messages`` are the
    texts for those three cases: no terraform block, local, no backend.

    A view has ``path`` and ``finding(smell, at, evidence, message)``, where
    ``at`` is a location the two ``first_*`` callables return, or None for
    the whole file; spans are built only for reported findings.
    """
    ordered = sorted(views, key=lambda v: v.path)
    for view in ordered:
        for label in backend_labels(view):
            if label != "local":
                return []
    no_terraform, local_message, no_backend = messages
    findings = []
    for view in ordered:
        terraform = first_terraform(view)
        if terraform is None:
            continue
        local = first_local(view)
        if local is None:
            at, evidence, message = terraform, "unset", no_backend
        else:
            at, evidence, message = local, "local", local_message
        findings.append(view.finding(SmellId.SS6, at, evidence, message))
    return findings or [ordered[0].finding(SmellId.SS6, None, "unset", no_terraform)]
