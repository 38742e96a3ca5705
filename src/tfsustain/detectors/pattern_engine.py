"""Text-pattern smell detectors working on raw file content.

This engine deliberately avoids the parser: it never lexes or parses a file,
and matches each smell by a regular expression over the file text, the way
a quick corpus study would. It trades precision for robustness (it works on
files the parser cannot make sense of) and its findings are labelled
``engine="pattern"`` so reports never mix the two methodologies silently.

Comments are masked out before matching (replaced by spaces, offsets
preserved) so commented-out code does not trigger findings. The region
detector can optionally scan comment text too via
``ss5_pattern_scan_comments``. Each file is masked, line-indexed and
searched for an autoscaler and backends once, into the :class:`TextView`
that all seven detectors share.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

from ..catalog import SmellId
from ..hcl import SourceText
from .ast_engine import normalize_region
from .config import LOG_GROUP_TYPES, SIZE_ATTRS, DetectorConfig
from .findings import SmellFinding, local_state_findings

_RESOURCE_DECL_RE = re.compile(r'^[ \t]*resource[ \t]+"([^"\n]+)"', re.MULTILINE)
_TERRAFORM_BLOCK_RE = re.compile(r"^[ \t]*terraform[ \t]*\{", re.MULTILINE)
_BACKEND_RE = re.compile(r'\bbackend[ \t]+"([^"\n]+)"')


# A string literal (kept as is), a line comment, or a block comment. The
# block comment starts matching after its "/", so "/*/" closes on the shared
# "*"; an unterminated string ends at the newline, an unterminated block
# comment at the end of the text.
_MASK_RE = re.compile(
    r'"(?:\\[\s\S]|[^"\\\n])*"?|(?:#|//)[^\n]*|/(?=\*)(?:[\s\S]*?\*/|[\s\S]*)'
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _blank_comment(m: re.Match) -> str:
    token = m.group()
    return token if token[0] == '"' else _NOT_NEWLINE_RE.sub(" ", token)


def mask_comments(text: str) -> str:
    """Replace comment characters with spaces, preserving offsets.

    Quote-aware: ``#`` inside a string literal is kept. Newlines inside
    block comments survive so line numbers stay correct.
    """
    return _MASK_RE.sub(_blank_comment, text)


@dataclass(frozen=True)
class TextView:
    """One file as every pattern detector reads it, built once per file."""

    source: SourceText
    masked: str
    backends: list[tuple[str, re.Match]]
    terraform: re.Match | None
    autoscaled: bool

    @property
    def path(self) -> str:
        return self.source.path

    @property
    def text(self) -> str:
        return self.source.text

    def finding(
        self, smell: SmellId, at: re.Match | None, evidence: str, message: str
    ) -> SmellFinding:
        """A finding at match ``at`` in this file, or over the whole file when None."""
        span = self.source.span(*(at.span() if at else (0, len(self.text))))
        return SmellFinding(smell, self.source.path, span, evidence, "pattern", message)


@functools.cache
def _names_re(template: str, names: frozenset[str]) -> re.Pattern[str]:
    """``template`` with ``{}`` filled by an alternation of ``names``, built once per set."""
    return re.compile(template.format("|".join(re.escape(n) for n in sorted(names))))


_ANY_NAME = r"\b(?:{})\b"
_REGION_ATTR = r'\b({})[ \t]*=[ \t]*"([^"\n]+)"'
_SIZE_RE = re.compile(rf'\b(?:{"|".join(SIZE_ATTRS)})[ \t]*=[ \t]*"([^"\n]+)"')
# What follows a number that is an attribute's whole value, as the AST engine
# reads one: spaces, tabs or a lone "\r" (a masked comment is spaces), then a
# newline, the block's "}" or the end of the text. "400 - 1" is no number.
_VALUE_END = r"(?=[ \t\r]*(?:\n|\}|\Z))"
_COUNT_RE = re.compile(rf"\bcount[ \t]*=[ \t]*(\d+){_VALUE_END}")
# Any assignment sets a retention; only a number value is compared with the maximum.
_RETENTION_RE = re.compile(
    rf"\b(retention_in_days|retention_days)[ \t]*=(?!=)[ \t]*(\d+{_VALUE_END})?"
)
_LOG_GROUP_RE = _names_re(_ANY_NAME, frozenset(LOG_GROUP_TYPES))


def prepare(unit: SourceText, cfg: DetectorConfig) -> TextView:
    masked = mask_comments(unit.text)
    backends = [(m.group(1), m) for m in _BACKEND_RE.finditer(masked)]
    terraform = _TERRAFORM_BLOCK_RE.search(masked)
    autoscaled = _names_re(_ANY_NAME, cfg.ss2_autoscaler_types).search(masked) is not None
    return TextView(unit, masked, backends, terraform, autoscaled)


def pattern_ss1(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    if view.autoscaled:
        return []
    findings = []
    for m in _SIZE_RE.finditer(view.masked):
        literal = m.group(1)
        short = literal.rsplit("/", 1)[-1]
        if any(literal in s or short in s for s in cfg.ss1_large_sizes.values()):
            findings.append(
                view.finding(
                    SmellId.SS1,
                    m,
                    literal,
                    f'instance size "{literal}" matches the oversized catalog '
                    "and no autoscaler token appears in the file",
                )
            )
    return findings


def pattern_ss2(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    if view.autoscaled:
        return []
    if not _names_re(_ANY_NAME, cfg.ss2_compute_types).search(view.masked):
        return []
    findings = []
    for m in _COUNT_RE.finditer(view.masked):
        count = int(m.group(1))
        if count >= cfg.ss2_fixed_count_min:
            findings.append(
                view.finding(
                    SmellId.SS2,
                    m,
                    f"count={count}",
                    f"fixed count of {count} in a file declaring compute "
                    "resources and no autoscaler token",
                )
            )
    return findings


def pattern_ss3(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    if re.search(r"\blifecycle[ \t]*\{", view.masked):
        return []
    required = cfg.ss3_lifecycle_required_types
    findings = []
    for m in _RESOURCE_DECL_RE.finditer(view.masked):
        rtype = m.group(1)
        if rtype in required:
            message = f"{rtype} declared in a file with no lifecycle block"
            findings.append(view.finding(SmellId.SS3, m, rtype, message))
    return findings


def pattern_ss4(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    findings = []
    saw_retention = False
    for m in _RETENTION_RE.finditer(view.masked):
        saw_retention = True
        if m.group(2) and (days := int(m.group(2))) > cfg.ss4_retention_max_days:
            findings.append(
                view.finding(
                    SmellId.SS4,
                    m,
                    str(days),
                    f"log retention of {days} days exceeds the configured "
                    f"maximum of {cfg.ss4_retention_max_days}",
                )
            )
    if not saw_retention and cfg.ss4_flag_missing_retention:
        if _LOG_GROUP_RE.search(view.masked):
            message = "log resources declared but no retention attribute found"
            findings.append(view.finding(SmellId.SS4, None, "unset", message))
    return findings


def pattern_ss5(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    scan_text = view.text if cfg.ss5_pattern_scan_comments else view.masked
    classes: list[str] = []
    for m in _names_re(_REGION_ATTR, cfg.ss5_region_attrs).finditer(scan_text):
        region = normalize_region(m.group(1), m.group(2))
        if region not in classes:
            classes.append(region)
    if len(classes) < 2:
        return []
    return [
        view.finding(
            SmellId.SS5,
            None,
            f"{classes[0]} != {classes[1]}",
            f"file places resources in {len(classes)} distinct regions "
            f"({', '.join(classes)})",
        )
    ]


def pattern_ss6(views: list[TextView], cfg: DetectorConfig) -> list[SmellFinding]:
    """Directory-scoped remote-backend check over the directory's files."""
    return local_state_findings(
        views,
        (
            "no remote state backend token found in this directory",
            'state is kept in an explicit "local" backend',
            "terraform block with no remote state backend token",
        ),
    )


def pattern_ss7(view: TextView, cfg: DetectorConfig) -> list[SmellFinding]:
    count = len(_RESOURCE_DECL_RE.findall(view.masked))
    if count < cfg.ss7_max_resources_per_file:
        return []
    return [
        view.finding(
            SmellId.SS7,
            None,
            str(count),
            f"{count} resource declarations in a single file (threshold "
            f"{cfg.ss7_max_resources_per_file})",
        )
    ]


PER_FILE_PATTERNS = (
    pattern_ss1,
    pattern_ss2,
    pattern_ss3,
    pattern_ss4,
    pattern_ss5,
    pattern_ss7,
)


def detect_directory(
    units: Sequence[SourceText], cfg: DetectorConfig, failed: set[str]
) -> list[SmellFinding]:
    """All seven smells over one directory's readable files; adds nothing to ``failed``."""
    views = [prepare(u, cfg) for u in units]
    findings: list[SmellFinding] = []
    for view in views:
        for detector in PER_FILE_PATTERNS:
            findings.extend(detector(view, cfg))
    if views:
        findings.extend(pattern_ss6(views, cfg))
    return findings
