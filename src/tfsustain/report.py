"""Report rendering: human text, canonical JSON, and SARIF 2.1.0.

The JSON form is canonical: fixed key order, compact separators, exact
prevalence fractions kept as numerator/denominator next to the rounded
percentage, so two scans of the same tree serialize byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .catalog import SmellDescriptor, catalog
from .scanner import CorpusStats, ScanReport, smells_by_path

FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render(
    report: ScanReport,
    stats: CorpusStats | None,
    format: str,
    descriptors: list[SmellDescriptor] | None = None,
) -> bytes:
    """Render in ``format``; ``descriptors`` (default: the built-in catalog) name smells."""
    descriptors = descriptors or catalog()
    if format == "text":
        return _render_text(report, stats, descriptors).encode("utf-8")
    if format == "json":
        return _render_json(report, stats).encode("utf-8")
    if format == "sarif":
        return _render_sarif(report, descriptors).encode("utf-8")
    raise ValueError(f"unknown format {format!r}; pick one of {FORMATS}")


def format_percent(fraction: Fraction) -> str:
    """Exact two-decimal percentage, rounded half up (e.g. '9.67')."""
    hundredths = fraction * 10000
    q, r = divmod(hundredths.numerator, hundredths.denominator)
    if 2 * r >= hundredths.denominator:
        q += 1
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
    report: ScanReport, stats: CorpusStats | None, descriptors: list[SmellDescriptor]
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
        ordered = sorted(
            stats.per_smell.items(), key=lambda kv: (-kv[1].prevalence, int(kv[0]))
        )
        names = {d.id: d.name for d in descriptors}
        for smell, entry in ordered:
            lines.append(
                f"{smell.name:<6} {names[smell]:<30} {entry.files_affected:>7} "
                f"{format_percent(entry.prevalence):>10}%"
            )
    if report.findings:
        lines.append("")
        lines.extend(findings_lines(report, descriptors))
    lines.append("")
    return "\n".join(lines)


def _render_json(report: ScanReport, stats: CorpusStats | None) -> str:
    doc: dict = {
        "scanned_files": report.scanned_files,
        "findings": [f.to_json_dict() for f in report.findings],
        "parse_failures": report.parse_failures,
        "engine": report.engine,
        "config_digest": report.config_digest,
        "per_file_index": {
            path: sorted(s.name for s in smells)
            for path, smells in sorted(smells_by_path(report.findings).items())
        },
    }
    if stats is not None:
        doc["stats"] = {
            smell.name: {
                "files_affected": entry.files_affected,
                "numerator": entry.prevalence.numerator,
                "denominator": entry.prevalence.denominator,
                "percent": format_percent(entry.prevalence),
            }
            for smell, entry in sorted(stats.per_smell.items())
        }
    return json.dumps(doc, separators=(",", ":"))


def _render_sarif(report: ScanReport, descriptors: list[SmellDescriptor]) -> str:
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
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [
        {
            "ruleId": f.smell.name,
            "ruleIndex": rule_index[f.smell.name],
            "level": "warning",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.span.start_line,
                            "startColumn": f.span.start_col,
                            "endLine": f.span.end_line,
                            "endColumn": f.span.end_col,
                        },
                    }
                }
            ],
        }
        for f in report.findings
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
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
    return json.dumps(doc, indent=2)
