"""Finding record and the directory-scoped SS6 rule shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def local_state_findings(views: Sequence, messages: tuple[str, str, str]) -> list[SmellFinding]:
    """SS6 over one non-empty directory of file views, one root module.

    A backend label other than ``"local"`` in any file clears the directory.
    Otherwise every file with a ``terraform`` block gets one finding, at its
    first backend (so a ``"local"`` one), else at that block; if no file has
    one, the first file by path gets a single whole-file finding.
    ``messages`` are the texts for those three cases: no terraform block,
    local, no backend.

    A view has ``source`` (its file's ``SourceText``), ``backends`` (its
    labelled backends as (label, location) pairs), ``terraform`` (the
    location of its first ``terraform`` block, or None) and ``finding(smell,
    at, evidence, message)``, where ``at`` is one of those locations, or None
    for the whole file; spans are built only for reported findings.
    """
    ordered = sorted(views, key=lambda v: v.source.path)
    if any(label != "local" for view in ordered for label, _ in view.backends):
        return []
    no_terraform, local_message, no_backend = messages
    findings = []
    for view in ordered:
        if view.terraform is None:
            continue
        if view.backends:
            at, evidence, message = view.backends[0][1], "local", local_message
        else:
            at, evidence, message = view.terraform, "unset", no_backend
        findings.append(view.finding(SmellId.SS6, at, evidence, message))
    return findings or [ordered[0].finding(SmellId.SS6, None, "unset", no_terraform)]
