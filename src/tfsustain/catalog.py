"""The seven sustainability smells: identities, attribute vectors, categories.

Each smell is characterized by four boolean attributes describing when its
remediation applies:

* runtime dependency -- judging the smell needs live workload data
* resource context   -- judging it needs knowledge of the deployed resources
* code dependency    -- judging it needs the application code on top
* inherent badness   -- bad regardless of context

Two smells count as similar (score 1) exactly when all four attributes
match; otherwise the score is 0. The resulting 7x7 binary similarity matrix
drives the category dendrogram, whose distance-0 merges join exactly the
groups of equal vectors that :func:`assign_categories` labels.
"""

from __future__ import annotations

import enum
import json
from dataclasses import astuple, dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

from . import read_json

CATALOG_VERSION = "1.0"


class SmellId(enum.IntEnum):
    SS1 = 1
    SS2 = 2
    SS3 = 3
    SS4 = 4
    SS5 = 5
    SS6 = 6
    SS7 = 7

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class AttributeVector:
    runtime_dependency: bool
    resource_context: bool
    code_dependency: bool
    inherent_badness: bool


@dataclass(frozen=True)
class SmellDescriptor:
    id: SmellId | str
    name: str
    category: int  # 1 = General, 2 = Demand, 3 = Application
    attributes: AttributeVector
    summary: str
    remediation: str


# (id, name, attributes, summary, remediation) of each built-in smell; the
# categories come from ``assign_categories``, as for a loaded catalog.
_CATALOG = (
    (
        SmellId.SS1,
        "Over-Provisioning Resources",
        AttributeVector(True, True, False, False),
        "Compute resources are sized far beyond what the workload needs, "
        "wasting allocated capacity.",
        "Review utilization regularly and right-size instances to the "
        "workload's actual demand.",
    ),
    (
        SmellId.SS2,
        "Lack of Auto-Scaling",
        AttributeVector(True, True, False, False),
        "Instance counts are fixed at deploy time, so capacity cannot "
        "follow workload fluctuations.",
        "Configure auto-scaling policies so capacity tracks demand instead "
        "of a fixed instance count.",
    ),
    (
        SmellId.SS3,
        "Ignoring Resource Lifecycles",
        AttributeVector(False, False, False, True),
        "Stateful resources carry no lifecycle rules, so changes destroy "
        "and recreate them wastefully.",
        "Declare lifecycle rules such as create_before_destroy or "
        "prevent_destroy on resources that are costly to recreate.",
    ),
    (
        SmellId.SS4,
        "Excessive Logging",
        AttributeVector(False, False, False, True),
        "Logs are retained far longer than needed, inflating storage and "
        "processing overhead.",
        "Set retention policies that keep only the log data the workload "
        "actually requires.",
    ),
    (
        SmellId.SS5,
        "Unoptimized Data Transfers",
        AttributeVector(False, False, True, False),
        "Resources that exchange data sit in different regions, paying "
        "cost and energy for every transfer.",
        "Co-locate resources that communicate frequently within a single "
        "region.",
    ),
    (
        SmellId.SS6,
        "State Management",
        AttributeVector(False, False, False, True),
        "Terraform state lives on local disk instead of a shared remote "
        "backend.",
        "Store state in a remote backend so runs stay consistent and "
        "centrally managed.",
    ),
    (
        SmellId.SS7,
        "Monolithic Infrastructure",
        AttributeVector(False, False, False, True),
        "A single file manages a large number of resources, hurting "
        "modularity and reuse.",
        "Split large configurations into smaller modules with focused "
        "responsibilities.",
    ),
)


# The smell that anchors each published category, in label order, and the
# category's name.
CATEGORY_ANCHORS = {"SS3": "General", "SS1": "Demand", "SS5": "Application"}


def catalog() -> list[SmellDescriptor]:
    """The built-in smell catalog, ordered SS1..SS7."""
    return _described(_CATALOG)


def similarity(a: AttributeVector, b: AttributeVector) -> int:
    """1 when all four attributes match, else 0."""
    return 1 if a == b else 0


def similarity_matrix(descriptors: list[SmellDescriptor]) -> tuple[tuple[int, ...], ...]:
    """The rows of pairwise :func:`similarity` scores, in descriptor order."""
    return tuple(
        tuple(similarity(a.attributes, b.attributes) for b in descriptors) for a in descriptors
    )


def dendrogram(descriptors: list[SmellDescriptor]) -> dict:
    """The merge tree that ``tfsustain cluster --format json`` writes.

    Leaves are nodes 0..n-1 and merge k creates node n+k. Each step merges
    the closest pair of clusters; a tie goes to the pair whose leaves hold
    the smallest index, then the smallest largest index, then the smaller
    sorted leaf tuple. Similarity is an equivalence relation, so every
    distance-0 merge joins one group of equal vectors and precedes every
    distance-1 merge, after which all cross distances are 1. Single,
    complete and average linkage therefore build this same tree, and the
    distance of two clusters is that of their first leaves.
    """
    sim = similarity_matrix(descriptors)
    active = {i: (i,) for i in range(len(descriptors))}  # node -> sorted leaf indices
    merges = []
    while len(active) > 1:
        distance, *_, union, a, b = min(
            (1.0 - sim[active[a][0]][active[b][0]], union[0], union[-1], union, a, b)
            for a, b in combinations(sorted(active), 2)
            for union in [tuple(sorted(active[a] + active[b]))]
        )
        merges.append({"a": a, "b": b, "distance": distance})
        del active[a], active[b]
        active[len(descriptors) + len(merges) - 1] = union
    return {"leaves": [str(d.id) for d in descriptors], "merges": merges}


# ---------------------------------------------------------------------------
# External catalog files
# ---------------------------------------------------------------------------


class CatalogError(ValueError):
    """Raised when an external catalog file is malformed."""


def load_catalog(path: str | Path) -> list[SmellDescriptor]:
    """Load a catalog from JSON.

    The document is a list of objects with the string fields ``id``,
    ``name``, ``summary`` and ``remediation``, and ``attributes`` (four
    booleans).
    Categories are not stored; they are derived by grouping equal attribute
    vectors, anchored to the built-in numbering where the canonical ids are
    present.
    """
    raw = read_json(path)
    if not isinstance(raw, list) or not raw:
        raise CatalogError(f"{path}: catalog must be a non-empty JSON list")
    parsed = []
    seen_ids: set[str] = set()
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise CatalogError(f"{path}: catalog entry {idx} is not an object")
        missing = {"id", "name", "attributes", "summary", "remediation"} - set(entry)
        if missing:
            raise CatalogError(
                f"{path}: catalog entry {idx} missing field(s): {', '.join(sorted(missing))}"
            )
        unknown = set(entry) - {"id", "name", "attributes", "summary", "remediation"}
        if unknown:
            raise CatalogError(
                f"{path}: catalog entry {idx} has unknown field(s): {', '.join(sorted(unknown))}"
            )
        for key in ("id", "name", "summary", "remediation"):
            if not isinstance(entry[key], str):
                raise CatalogError(f"{path}: catalog entry {idx}: {key} must be a string")
        attrs = entry["attributes"]
        if not (
            isinstance(attrs, list)
            and len(attrs) == 4
            and all(isinstance(v, bool) for v in attrs)
        ):
            raise CatalogError(
                f"{path}: catalog entry {entry['id']!r}: attributes must be 4 booleans"
            )
        if entry["id"] in seen_ids:
            raise CatalogError(f"{path}: duplicate smell id {entry['id']!r}")
        seen_ids.add(entry["id"])
        parsed.append(
            (
                SmellId.__members__.get(entry["id"], entry["id"]),
                entry["name"],
                AttributeVector(*attrs),
                entry["summary"],
                entry["remediation"],
            )
        )
    return _described(parsed)


def _described(entries: Sequence[tuple]) -> list[SmellDescriptor]:
    """Descriptors of (id, name, attributes, summary, remediation) entries, categories assigned."""
    categories = assign_categories([e[0] for e in entries], [e[2] for e in entries])
    return [SmellDescriptor(*e[:2], c, *e[2:]) for e, c in zip(entries, categories)]


def dump_catalog(descriptors: list[SmellDescriptor]) -> str:
    """Serialize descriptors to the documented catalog JSON schema."""
    return json.dumps(
        [
            {
                "id": str(d.id),
                "name": d.name,
                "attributes": list(astuple(d.attributes)),
                "summary": d.summary,
                "remediation": d.remediation,
            }
            for d in descriptors
        ],
        indent=2,
    )


def assign_categories(
    ids: list[SmellId | str], vectors: list[AttributeVector]
) -> list[int]:
    """Category per smell: equal vectors share a category.

    The group holding SS3 is 1 (General), SS1's is 2 (Demand), SS5's is 3
    (Application); other groups follow in order of first appearance. Labels
    run from 1 with no gap, so a missing anchor shifts the later groups down.
    """
    groups: dict[AttributeVector, set[str]] = {}
    for i, vec in zip(ids, vectors):
        groups.setdefault(vec, set()).add(str(i))
    rank = {anchor: k for k, anchor in enumerate(CATEGORY_ANCHORS)}
    # The sort is stable: groups without an anchor keep their first-appearance order.
    order = sorted(
        groups,
        key=lambda vec: min((rank[i] for i in groups[vec] if i in rank), default=len(rank)),
    )
    label_of = {vec: label for label, vec in enumerate(order, 1)}
    return [label_of[vec] for vec in vectors]
