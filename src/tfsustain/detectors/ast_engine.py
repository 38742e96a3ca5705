"""Structural smell detectors working on parsed configuration files.

All seven detectors are pure functions of (file view, config). A view holds
every answer the detectors ask of one file, derived once from its parse: its
resources, each reduced to its labels, offsets and the few attributes and
facts a detector reads, its backends and its first ``terraform`` block, as
labels and offsets, and whether a resource is an autoscaler. The parse hands
each top-level item to :func:`prepare` as soon as it is parsed, and a view
keeps no attribute, block or reference node, so no file's whole tree is ever
held. Findings for a file depend only on that file's content except for the
remote-state check, which is scoped to a directory of files (one root
module).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .. import hcl
from ..catalog import SmellId
from ..hcl import (
    Attribute,
    Block,
    ConfigFile,
    ExpressionValue,
    ListValue,
    MapValue,
    NumberLit,
    Reference,
    SourceText,
    StringLit,
    TemplateString,
)
from .config import LOG_GROUP_TYPES, REGION_ATTR_ORDER, SIZE_ATTRS, DetectorConfig
from .findings import SmellFinding, local_state_findings

_GCP_ZONE_RE = re.compile(r"\A(?P<region>[a-z]+-[a-z]+\d+)-[a-z]\Z")
_AWS_AZ_RE = re.compile(r"\A(?P<region>[a-z]{2}(?:-[a-z]+)+-\d+)[a-z]\Z")

# What a view keeps of an attribute: its offsets, then its value node when that
# is a string or number literal, else None.
Setting = tuple[int, int, StringLit | NumberLit | None]
# What a view keeps of a reference: its attribute's offsets, then its segments.
Link = tuple[int, int, tuple[str, ...]]
_LITERALS = (StringLit, NumberLit)

# The attributes of a resource that a detector reads once its view is built,
# and one empty mapping shared by every resource that sets none of them.
_VIEW_ATTRS = frozenset((*SIZE_ATTRS, "count", *LOG_GROUP_TYPES.values()))
_NO_SETTINGS: Mapping[str, Setting] = MappingProxyType({})


def resource_blocks(file: ConfigFile) -> list[Resource]:
    """The resources of a file that :func:`prepare` parsed, in source order: all its body."""
    return file.body


@dataclass(slots=True)
class Resource:
    """One resource block reduced to what the detectors read of it.

    ``start`` and ``end`` are the block's offsets. ``attributes`` holds the
    :data:`Setting` of each attribute in ``_VIEW_ATTRS``, by name (the last
    assignment wins), and ``references`` the :data:`Link` of each reference
    in the block's attributes, nested blocks included.
    ``lifecycle`` is whether a ``lifecycle`` block nests in it, and is only
    looked for in the types SS3 checks. ``region`` and ``references`` are set
    only in a file of at least two resources, and ``references`` only for a
    resource with a region: no pair forms otherwise.
    """

    type: str
    name: str
    start: int
    end: int
    attributes: Mapping[str, Setting]
    lifecycle: bool
    region: str | None = None
    references: Sequence[Link] = ()


@dataclass(slots=True)
class FileView:
    """One parsed file as every AST detector reads it, built once per file."""

    source: SourceText
    diagnosed: bool  # whether the parse reported an error
    resources: list[Resource]
    # Labelled backends in the top-level terraform blocks, as (label, offsets).
    backends: list[tuple[str, tuple[int, int]]]
    terraform: tuple[int, int] | None  # the first top-level terraform block's offsets
    autoscaled: bool

    def finding(
        self, smell: SmellId, at: tuple | None, evidence: str, message: str
    ) -> SmellFinding:
        """A finding over the offsets that lead ``at``, or over the whole file when None."""
        span = self.source.span(*(at[:2] if at else (0, len(self.source.text))))
        return SmellFinding(smell, self.source.path, span, evidence, "ast", message)


class _Reduction:
    """The ``keep`` of :func:`prepare`'s parse: what it keeps of one file's top-level items.

    A labelled ``resource`` block becomes its :class:`Resource`, a
    ``terraform`` block adds its offsets and labelled backends to the view's,
    and any other item is dropped. A resource's region and references are
    read only once a second resource has arrived, so the first resource block
    is held until then.
    """

    __slots__ = ("cfg", "first", "paired", "regions", "backends", "terraform")

    def __init__(self, cfg: DetectorConfig) -> None:
        self.cfg = cfg
        self.first: tuple[Resource, Block] | None = None
        self.paired = False
        self.regions: dict[str, str] = {}  # one string per region
        self.backends: list[tuple[str, tuple[int, int]]] = []
        self.terraform: tuple[int, int] | None = None

    def keep(self, item: Block | Attribute) -> Resource | None:
        if not isinstance(item, Block):
            return None
        if item.block_type == "terraform":
            self.terraform = self.terraform or (item.start, item.end)
            self.backends += [
                (b.labels[0], (b.start, b.end))
                for b in item.body
                if isinstance(b, Block) and b.block_type == "backend" and b.labels
            ]
            return None
        labels = item.labels
        if item.block_type != "resource" or not labels:
            return None
        r = Resource(
            labels[0],
            labels[1] if len(labels) > 1 else "",
            item.start,
            item.end,
            {
                a.name: (a.start, a.end, a.value if isinstance(a.value, _LITERALS) else None)
                for a in item.body
                if isinstance(a, Attribute) and a.name in _VIEW_ATTRS
            }
            or _NO_SETTINGS,
            labels[0] in self.cfg.ss3_lifecycle_required_types and _has_lifecycle(item.body),
        )
        if self.paired:
            self._locate(r, item)
        elif self.first is None:
            self.first = (r, item)
        else:
            self._locate(*self.first)
            self._locate(r, item)
            self.first, self.paired = None, True
        return r

    def _locate(self, r: Resource, block: Block) -> None:
        region = region_class(block, self.cfg)
        if region is not None:
            r.region = self.regions.setdefault(region, region)
            r.references = tuple(_block_references(block))


def prepare(unit: SourceText, cfg: DetectorConfig) -> FileView:
    """Parse ``unit`` and keep what the detectors read, item by item as the parse goes."""
    reduction = _Reduction(cfg)
    file = hcl.parse(unit, keep=reduction.keep)
    resources = resource_blocks(file)
    autoscaled = not cfg.ss2_autoscaler_types.isdisjoint([r.type for r in resources])
    return FileView(
        unit, bool(file.diagnostics), resources, reduction.backends, reduction.terraform, autoscaled
    )


def normalize_region(attr_name: str, raw: str) -> str:
    """Collapse a region-class literal to its region.

    Zones lose their zone suffix ("us-west1-a" -> "us-west1",
    "us-west-2a" -> "us-west-2"); locations are case/space-folded so
    "East US" and "eastus" compare equal.
    """
    value = raw.strip().lower().replace(" ", "")
    if attr_name in ("zone", "availability_zone"):
        m = _GCP_ZONE_RE.match(value)
        if m:
            return m.group("region")
        m = _AWS_AZ_RE.match(value)
        if m:
            return m.group("region")
    return value


def _string_literal(node: Attribute | None) -> str | None:
    return node.value.value if node is not None and isinstance(node.value, StringLit) else None


def _literal(setting: Setting | None, kind: type) -> str | int | float | None:
    """The value of a setting whose literal is of ``kind``, else None."""
    return setting[2].value if setting is not None and isinstance(setting[2], kind) else None


def detect_ss1_overprovisioning(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Oversized instance literals in files without any autoscaler."""
    if view.autoscaled:
        return []
    findings = []
    prefixes = tuple(cfg.ss1_large_sizes)
    for r in view.resources:
        if not r.type.startswith(prefixes):
            continue
        # The first prefix the type starts with picks the catalog.
        for prefix, sizes in cfg.ss1_large_sizes.items():
            if r.type.startswith(prefix):
                break
        for attr_name in SIZE_ATTRS:
            setting = r.attributes.get(attr_name)
            literal = _literal(setting, StringLit)
            if literal is None:
                continue
            # GCP machine types may be full self-link URLs; compare the tail.
            short = literal.rsplit("/", 1)[-1]
            if literal in sizes or short in sizes:
                findings.append(
                    view.finding(
                        SmellId.SS1,
                        setting,
                        literal,
                        f'instance size "{literal}" is in the oversized catalog '
                        "and the file configures no autoscaler",
                    )
                )
    return findings


def detect_ss2_no_autoscaling(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Fixed instance counts on compute resources without an autoscaler."""
    if view.autoscaled:
        return []
    findings = []
    for r in view.resources:
        if r.type not in cfg.ss2_compute_types:
            continue
        setting = r.attributes.get("count")
        count = _literal(setting, NumberLit)
        if isinstance(count, int) and count >= cfg.ss2_fixed_count_min:
            findings.append(
                view.finding(
                    SmellId.SS2,
                    setting,
                    f"count={count}",
                    f"{r.type} keeps a fixed count of {count} "
                    "instances and the file configures no autoscaler",
                )
            )
    return findings


def _has_lifecycle(body: list[Block | Attribute]) -> bool:
    """Whether a ``lifecycle`` block nests anywhere in ``body``; blocks nest at most 64 deep."""
    return any(
        isinstance(b, Block) and (b.block_type == "lifecycle" or _has_lifecycle(b.body))
        for b in body
    )


def detect_ss3_no_lifecycle(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Lifecycle-sensitive resources missing a lifecycle block."""
    findings = []
    for r in view.resources:
        if r.type not in cfg.ss3_lifecycle_required_types or r.lifecycle:
            continue
        message = f'{r.type} "{r.name}" declares no lifecycle block'
        findings.append(view.finding(SmellId.SS3, (r.start, r.end), r.type, message))
    return findings


def detect_ss4_excessive_logging(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Log groups retained too long, or with no retention policy at all."""
    findings = []
    for r in view.resources:
        attr_name = LOG_GROUP_TYPES.get(r.type)
        if attr_name is None:
            continue
        setting = r.attributes.get(attr_name)
        if setting is None:
            if cfg.ss4_flag_missing_retention:
                findings.append(
                    view.finding(
                        SmellId.SS4,
                        (r.start, r.end),
                        "unset",
                        f'{r.type} "{r.name}" sets no {attr_name}; '
                        "logs are retained forever",
                    )
                )
            continue
        days = _literal(setting, NumberLit)
        if days is not None and days > cfg.ss4_retention_max_days:
            findings.append(
                view.finding(
                    SmellId.SS4,
                    setting,
                    str(days),
                    f"log retention of {days} days exceeds the configured "
                    f"maximum of {cfg.ss4_retention_max_days}",
                )
            )
    return findings


def _references_in(value: ExpressionValue) -> list[Reference]:
    refs: list[Reference] = []
    if isinstance(value, Reference):
        refs.append(value)
    elif isinstance(value, TemplateString):
        for part in value.parts:
            if isinstance(part, Reference):
                refs.append(part)
    elif isinstance(value, ListValue):
        for item in value.items:
            refs.extend(_references_in(item))
    elif isinstance(value, MapValue):
        for _, item in value.entries:
            refs.extend(_references_in(item))
    return refs


def _block_references(block: Block) -> list[Link]:
    out: list[Link] = []
    for item in block.body:
        if isinstance(item, Attribute):
            for ref in _references_in(item.value):
                out.append((item.start, item.end, ref.segments))
        elif isinstance(item, Block):
            out.extend(_block_references(item))
    return out


def region_class(block: Block, cfg: DetectorConfig) -> str | None:
    """Normalized region of a resource block, or None when not a string literal.

    The first attribute of ``REGION_ATTR_ORDER`` in ``cfg.ss5_region_attrs``
    that holds a string literal decides; the last assignment of a name wins.
    """
    attrs = {
        a.name: a for a in block.body if isinstance(a, Attribute) and a.name in cfg.ss5_region_attrs
    }
    for attr_name in REGION_ATTR_ORDER:
        literal = _string_literal(attrs.get(attr_name))
        if literal is not None:
            return normalize_region(attr_name, literal)
    return None


def detect_ss5_cross_region_transfer(
    view: FileView, cfg: DetectorConfig
) -> list[SmellFinding]:
    """Pairs of resources in different regions where one references the other.

    Resources with a region are indexed by (type, name) address, so each
    reference is looked up once: the work is linear in resources plus
    references. A pair is reported once, in resource order, at the earlier
    resource's first attribute referring to the later one, else at the
    later resource's first attribute referring to the earlier one.
    """
    resources = view.resources
    if len(resources) < 2:
        return []  # no pair to form
    # A list per address: duplicate addresses are legal input.
    index: dict[tuple[str, str], list[int]] = {}
    for i, r in enumerate(resources):
        if r.region is not None:
            index.setdefault((r.type, r.name), []).append(i)

    # The first attribute of resource i referring to resource j, per (i, j),
    # for regions that differ (so never i == j). Only a resource with a
    # region has references.
    links: dict[tuple[int, int], Link] = {}
    for i, r in enumerate(resources):
        for link in r.references:
            segments = link[2]
            if segments[:1] == ("data",):
                segments = segments[1:]
            for j in index.get(segments[:2], ()):
                if resources[j].region != r.region:
                    links.setdefault((i, j), link)

    findings = []
    for i, j in sorted({(min(pair), max(pair)) for pair in links}):
        link = links[i, j] if (i, j) in links else links[j, i]
        a, b = resources[i], resources[j]
        ra, rb = a.region, b.region
        addr_a, addr_b = f"{a.type}.{a.name}", f"{b.type}.{b.name}"
        findings.append(
            view.finding(
                SmellId.SS5,
                link,
                f"{ra} != {rb}",
                f"{addr_a} ({ra}) and {addr_b} ({rb}) reference each other "
                "across regions",
            )
        )
    return findings


def detect_ss6_local_state(
    views: list[FileView], cfg: DetectorConfig
) -> list[SmellFinding]:
    """Missing remote state backend, evaluated over one directory.

    An unlabelled ``backend`` block is neither remote nor local.
    """
    return local_state_findings(
        views,
        (
            "no remote state backend is configured in this directory",
            'state is kept in an explicit "local" backend',
            "terraform block configures no remote state backend",
        ),
    )


def detect_ss7_monolithic(view: FileView, cfg: DetectorConfig) -> list[SmellFinding]:
    """Files managing at least the configured number of resources."""
    count = len(view.resources)
    if count < cfg.ss7_max_resources_per_file:
        return []
    return [
        view.finding(
            SmellId.SS7,
            None,
            str(count),
            f"{count} resources in a single file (threshold "
            f"{cfg.ss7_max_resources_per_file})",
        )
    ]


PER_FILE_DETECTORS = (
    detect_ss1_overprovisioning,
    detect_ss2_no_autoscaling,
    detect_ss3_no_lifecycle,
    detect_ss4_excessive_logging,
    detect_ss5_cross_region_transfer,
    detect_ss7_monolithic,
)


def detect_directory(
    units: Sequence[SourceText], cfg: DetectorConfig, failed: set[str]
) -> list[SmellFinding]:
    """All seven smells over a directory's files, each parsed once; diagnosed files go into ``failed``."""
    views = [prepare(u, cfg) for u in units]
    for view in views:
        if view.diagnosed:
            failed.add(view.source.path)
    findings: list[SmellFinding] = []
    for view in views:
        for detector in PER_FILE_DETECTORS:
            findings.extend(detector(view, cfg))
    if views:
        findings.extend(detect_ss6_local_state(views, cfg))
    return findings
