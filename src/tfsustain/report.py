"""Report rendering: human text, canonical JSON, and SARIF 2.1.0.

The JSON form is canonical: fixed key order, compact separators, exact
prevalence fractions kept as numerator/denominator next to the rounded
percentage, so two scans of the same tree serialize byte-identically. Its
bytes are exactly ``json.dumps(document, separators=(",", ":"))``, and the
SARIF form's are exactly ``json.dumps(document, indent=2)``; both are ASCII.
Both fill each finding into a ``%`` template and write it into one byte
buffer, so a document is never held as dicts or as a string beside its bytes;
``tests/test_scanner.py`` pins that the bytes keep those forms.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from typing import Iterable

from . import __version__
from .catalog import SmellDescriptor, SmellId, catalog
from .scanner import ScanReport, smells_by_path

FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render(
    report: ScanReport,
    stats: dict[SmellId, Fraction] | None,
    format: str,
    descriptors: list[SmellDescriptor] | None = None,
) -> bytes:
    """Render in ``format``; ``descriptors`` (default: the built-in catalog) name smells."""
    descriptors = descriptors or catalog()
    if format == "text":
        # A path that is not UTF-8 comes back as the file name's own bytes.
        return _render_text(report, stats, descriptors).encode("utf-8", "surrogateescape")
    if format == "json":
        return _render_json(report, stats)
    if format == "sarif":
        return _render_sarif(report, descriptors)
    raise ValueError(f"unknown format {format!r}; pick one of {FORMATS}")


def format_percent(fraction: Fraction) -> str:
    """Exact two-decimal percentage, rounded half up (e.g. '9.67')."""
    q = int(fraction * 10000 + Fraction(1, 2))  # floor(x + 1/2) of a share >= 0
    return f"{q // 100}.{q % 100:02d}"


def findings_lines(
    report: ScanReport, descriptors: list[SmellDescriptor] | None = None
) -> list[str]:
    """One human-readable line per finding, for lint-style output."""
    names = {d.id: d.name for d in descriptors or catalog()}
    return [
        f"{f.path}:{f.span.start_line}:{f.span.start_col} "
        f"{f.smell.name} ({names[f.smell]}): {f.message} [{f.evidence}]"
        for f in report.findings
    ]


def _render_text(
    report: ScanReport, stats: dict[SmellId, Fraction] | None, descriptors: list[SmellDescriptor]
) -> str:
    lines = [
        f"scanned {report.scanned_files} file(s), "
        f"{report.parse_failures} parse failure(s), "
        f"{len(report.findings)} finding(s), engine={report.engine}",
    ]
    if stats is not None:
        lines.append("")
        lines.append(f"{'smell':<6} {'name':<30} {'files':>7} {'prevalence':>11}")
        # Fig.-style presentation: most prevalent first, ties by smell id.
        names = {d.id: d.name for d in descriptors}
        for smell, share in sorted(stats.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(
                f"{smell.name:<6} {names[smell]:<30} {int(share * report.scanned_files):>7} "
                f"{format_percent(share):>10}%"
            )
    if report.findings:
        lines.append("")
        lines.extend(findings_lines(report, descriptors))
    lines.append("")
    return "\n".join(lines)


def _write_joined(out: io.BytesIO, separator: bytes, texts: Iterable[str]) -> None:
    """Writes each ASCII text in turn, ``separator`` between two of them."""
    for i, text in enumerate(texts):
        if i:
            out.write(separator)
        out.write(text.encode("ascii"))


# One finding exactly as ``json.dumps(..., separators=(",", ":"))`` lays it out
# in the document: strings are filled in JSON-encoded, integers by %d.
_JSON_FINDING = (
    '{"smell":%s,"path":%s,"span":{"start_line":%d,"start_col":%d,'
    '"end_line":%d,"end_col":%d},"evidence":%s,"engine":%s,"message":%s}'
)


def _render_json(report: ScanReport, stats: dict[SmellId, Fraction] | None) -> bytes:
    """Each finding is one ``_JSON_FINDING``; only ``stats`` goes through ``json.dumps``."""
    out = io.BytesIO()
    write = out.write
    write(b'{"scanned_files":%d,"findings":[' % report.scanned_files)
    findings = (
        _JSON_FINDING
        % (
            _encode(f.smell.name),
            _encode(f.path),
            f.span.start_line,
            f.span.start_col,
            f.span.end_line,
            f.span.end_col,
            _encode(f.evidence),
            _encode(f.engine),
            _encode(f.message),
        )
        for f in report.findings
    )
    _write_joined(out, b",", findings)
    write(
        (
            '],"parse_failures":%d,"engine":%s,"config_digest":%s,"per_file_index":{'
            % (report.parse_failures, _encode(report.engine), _encode(report.config_digest))
        ).encode("ascii")
    )
    index = (
        "%s:[%s]" % (_encode(path), ",".join(_encode(n) for n in sorted(s.name for s in smells)))
        for path, smells in sorted(smells_by_path(report.findings).items())
    )
    _write_joined(out, b",", index)
    write(b"}")
    if stats is not None:
        doc = {
            smell.name: {
                "files_affected": int(share * report.scanned_files),
                "numerator": share.numerator,
                "denominator": share.denominator,
                "percent": format_percent(share),
            }
            for smell, share in sorted(stats.items())
        }
        write(b',"stats":' + json.dumps(doc, separators=(",", ":")).encode("ascii"))
    write(b"}")
    return out.getvalue()


# One SARIF result exactly as ``json.dumps(..., indent=2)`` lays it out at its
# depth in the document: strings are filled in JSON-encoded, integers by %d.
_SARIF_RESULT = """\
        {
          "ruleId": %s,
          "ruleIndex": %d,
          "level": "warning",
          "message": {
            "text": %s
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": %s
                },
                "region": {
                  "startLine": %d,
                  "startColumn": %d,
                  "endLine": %d,
                  "endColumn": %d
                }
              }
            }
          ]
        }"""
_SARIF_NO_RESULTS = b'\n      "results": [],\n'


def _render_sarif(report: ScanReport, descriptors: list[SmellDescriptor]) -> bytes:
    """``json.dumps(document, indent=2)``, with the results filled from a template.

    The indented ``json.dumps`` runs the pure-Python encoder, so it only lays
    out the fixed part of the document, and each finding is one
    ``_SARIF_RESULT``.
    """
    rules = [
        {
            "id": str(d.id),
            "name": d.name.replace(" ", ""),
            "shortDescription": {"text": d.name},
            "fullDescription": {"text": d.summary},
            "help": {"text": d.remediation},
            "defaultConfiguration": {"level": "warning"},
        }
        for d in descriptors
    ]
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "tfsustain",
                        "version": __version__,
                        "rules": rules,
                    }
                },
                "results": [],
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
    skeleton = json.dumps(doc, indent=2).encode("ascii")
    if not report.findings:
        return skeleton
    # An encoded string holds no raw newline, so only the results key matches.
    head, _, tail = skeleton.partition(_SARIF_NO_RESULTS)
    out = io.BytesIO()
    write = out.write
    write(head + b'\n      "results": [\n')
    rule_ids = {rule["id"]: (_encode(rule["id"]), i) for i, rule in enumerate(rules)}
    results = (
        _SARIF_RESULT
        % (
            *rule_ids[f.smell.name],
            _encode(f.message),
            _encode(f.path),
            f.span.start_line,
            f.span.start_col,
            f.span.end_line,
            f.span.end_col,
        )
        for f in report.findings
    )
    _write_joined(out, b",\n", results)
    write(b"\n      ],\n" + tail)
    return out.getvalue()
