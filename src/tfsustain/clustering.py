"""Agglomerative hierarchical clustering over smell attribute vectors.

Starts from singleton clusters and repeatedly merges the closest pair under
the chosen linkage (single, complete, or average), recording each merge and
its distance in a dendrogram. Cutting the dendrogram below 0.5 on the
binary smell distances reproduces the three published smell categories.

Ties on the minimum distance are broken deterministically: the candidate
pair whose combined leaf set has the smallest minimum leaf index wins, then
the smallest maximum leaf index, then the lexicographically smallest leaf
tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Sequence

from .catalog import SimilarityMatrix

Distances = tuple[tuple[float, ...], ...]

LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    distance: float


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree: leaves are nodes 0..n-1, merge k creates node n+k."""

    leaves: tuple[Hashable, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if len(self.merges) != max(0, n - 1):
            raise ValueError(f"expected {n - 1} merges for {n} leaves")
        for prev, cur in zip(self.merges, self.merges[1:]):
            if cur.distance < prev.distance:
                raise ValueError("merge distances must be non-decreasing")


@dataclass(frozen=True)
class ClusterAssignment:
    mapping: dict[Hashable, int]
    num_clusters: int

    def members(self, label: int) -> set[Hashable]:
        return {k for k, v in self.mapping.items() if v == label}


def distance_matrix(sim: SimilarityMatrix) -> Distances:
    """Binary distances d = 1 - s from a similarity matrix."""
    return tuple(tuple(1 - v for v in row) for row in sim.entries)


def agglomerate(
    distances: Sequence[Sequence[float]],
    linkage: str = "average",
    leaves: Sequence[Hashable] | None = None,
) -> Dendrogram:
    """Bottom-up clustering of a symmetric distance matrix."""
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; pick one of {LINKAGES}")
    n = len(distances)
    for row in distances:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    for i in range(n):
        if distances[i][i] != 0:
            raise ValueError("distance matrix diagonal must be zero")
        for j in range(n):
            if distances[i][j] != distances[j][i]:
                raise ValueError("distance matrix must be symmetric")
    if leaves is None:
        leaves = tuple(range(n))
    elif len(leaves) != n:
        raise ValueError("leaves must match the matrix dimension")

    # node id -> sorted leaf indices of that cluster
    active: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
    merges: list[Merge] = []
    next_id = n
    while len(active) > 1:
        best_key: tuple | None = None
        best_pair: tuple[int, int] | None = None
        for id_a, id_b in combinations(sorted(active), 2):
            d = _linkage_distance(active[id_a], active[id_b], distances, linkage)
            union = tuple(sorted(active[id_a] + active[id_b]))
            key = (d, union[0], union[-1], union)
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (id_a, id_b)
        assert best_pair is not None and best_key is not None
        id_a, id_b = best_pair
        merges.append(Merge(id_a, id_b, best_key[0]))
        active[next_id] = tuple(sorted(active.pop(id_a) + active.pop(id_b)))
        next_id += 1
    return Dendrogram(tuple(leaves), tuple(merges))


def _linkage_distance(
    a: tuple[int, ...], b: tuple[int, ...], distances: Sequence[Sequence[float]], linkage: str
) -> float:
    """The distance between clusters ``a`` and ``b``, a ``float`` under every linkage."""
    cross = [distances[i][j] for i in a for j in b]
    if linkage == "single":
        return float(min(cross))
    if linkage == "complete":
        return float(max(cross))
    return sum(cross) / len(cross)


def cut(dendrogram: Dendrogram, threshold: float) -> ClusterAssignment:
    """Clusters = the nodes left after replaying the merges below the threshold.

    Merge distances never decrease, so those merges are a prefix. Labels are
    contiguous from 1, ordered by each cluster's smallest leaf index.
    """
    members = [[i] for i in range(len(dendrogram.leaves))]  # leaf indices per node
    for merge in dendrogram.merges:
        if merge.distance >= threshold:
            break
        members.append(members[merge.left] + members[merge.right])
        members[merge.left] = members[merge.right] = []
    clusters = sorted(sorted(leaves) for leaves in members if leaves)
    mapping: dict[Hashable, int] = {}
    for label, leaves in enumerate(clusters, 1):
        for idx in leaves:
            mapping[dendrogram.leaves[idx]] = label
    return ClusterAssignment(mapping, len(clusters))


def dendrogram_to_json_dict(dendrogram: Dendrogram) -> dict:
    """JSON-friendly dendrogram: {leaves, merges: [{a, b, distance}]}."""
    return {
        "leaves": [str(leaf) for leaf in dendrogram.leaves],
        "merges": [
            {"a": m.left, "b": m.right, "distance": m.distance}
            for m in dendrogram.merges
        ],
    }
