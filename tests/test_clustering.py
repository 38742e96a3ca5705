from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain.catalog import (
    AttributeVector,
    SmellDescriptor,
    SmellId,
    assign_categories,
    catalog,
    similarity_matrix,
)
from tfsustain.clustering import (
    LINKAGES,
    agglomerate,
    cut,
    dendrogram_to_json_dict,
    distance_matrix,
)

from conftest import category_partition, half_cut, partition

PUBLISHED_CATEGORIES = {
    SmellId.SS1: 2,
    SmellId.SS2: 2,
    SmellId.SS3: 1,
    SmellId.SS4: 1,
    SmellId.SS5: 3,
    SmellId.SS6: 1,
    SmellId.SS7: 1,
}


def loaded(ids: list, vectors: list[AttributeVector]) -> list[SmellDescriptor]:
    """Descriptors categorized as ``load_catalog`` categorizes them."""
    categories = assign_categories(ids, vectors)
    return [
        SmellDescriptor(i, str(i), c, v, "s", "r")
        for i, c, v in zip(ids, categories, vectors)
    ]


def canonical_distances():
    return distance_matrix(similarity_matrix(catalog()))


def test_distance_is_one_minus_similarity():
    d = canonical_distances()
    assert d[0][1] == 0  # SS1 vs SS2
    for i in range(7):
        assert d[i][i] == 0
    for j in range(7):
        if j != 4:
            assert d[4][j] == 1  # SS5 row


def test_agglomerate_single_leaf():
    dend = agglomerate([[0.0]])
    assert len(dend.leaves) == 1 and dend.merges == ()


def test_agglomerate_merge_distances_on_canonical_input():
    # brute-force expectation: three groups of equal vectors merge at 0
    # ({SS1,SS2} needs 1 merge, {SS3,SS4,SS6,SS7} needs 3), the remaining
    # two cross-group merges happen at distance 1.
    for linkage in LINKAGES:
        dend = agglomerate(canonical_distances(), linkage)
        assert [m.distance for m in dend.merges] == [0, 0, 0, 0, 1, 1]


def test_agglomerate_all_distinct_merges_at_one():
    n = 7
    d = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    dend = agglomerate(d)
    assert all(m.distance == 1 for m in dend.merges)


def test_agglomerate_rejects_bad_input():
    with pytest.raises(ValueError):
        agglomerate([[0, 1]])
    with pytest.raises(ValueError):
        agglomerate([[0, 1], [0.5, 0]])
    with pytest.raises(ValueError):
        agglomerate(canonical_distances(), linkage="ward")


def test_cut_at_half_reproduces_categories():
    dend = agglomerate(canonical_distances(), leaves=[d.id for d in catalog()])
    assignment = cut(dend, 0.5)
    assert partition(assignment) == frozenset(
        {
            frozenset({SmellId.SS1, SmellId.SS2}),
            frozenset({SmellId.SS3, SmellId.SS4, SmellId.SS6, SmellId.SS7}),
            frozenset({SmellId.SS5}),
        }
    )


def test_cut_extremes():
    dend = agglomerate(canonical_distances(), leaves=[d.id for d in catalog()])
    assert cut(dend, 0).num_clusters == 7
    assert cut(dend, 1.5).num_clusters == 1


def test_categorize_matches_published_categories_for_all_linkages():
    cat = catalog()
    assert {d.id: d.category for d in cat} == PUBLISHED_CATEGORIES
    for linkage in LINKAGES:
        assert partition(half_cut(cat, linkage)) == category_partition(cat), linkage


def test_categorize_single_smell_catalog():
    one = loaded([SmellId.SS1], [catalog()[0].attributes])
    assert one[0].category == 1
    for linkage in LINKAGES:
        assignment = half_cut(one, linkage)
        assert assignment.mapping == {SmellId.SS1: 1}
        assert assignment.num_clusters == 1


def test_categorize_identical_vectors_single_cluster():
    vec = AttributeVector(False, False, False, True)
    flattened = loaded([d.id for d in catalog()], [vec] * 7)
    assert {d.category for d in flattened} == {1}
    for linkage in LINKAGES:
        assignment = half_cut(flattened, linkage)
        assert assignment.num_clusters == 1
        assert set(assignment.mapping.values()) == {1}


def test_cluster_assignment_labels_contiguous():
    # catalog without any anchor smell still labels from 1
    vec_a = AttributeVector(True, True, False, False)
    vec_b = AttributeVector(False, False, False, True)
    descriptors = loaded(["X1", "X2"], [vec_a, vec_b])
    assert [d.category for d in descriptors] == [1, 2]
    for linkage in LINKAGES:
        assignment = half_cut(descriptors, linkage)
        assert partition(assignment) == category_partition(descriptors)
        assert sorted(set(assignment.mapping.values())) == [1, 2]


def test_permutation_invariance_of_categories():
    base = catalog()
    for order in list(permutations(range(7)))[::720]:  # a spread of orders
        permuted = [base[i] for i in order]
        reloaded = loaded([d.id for d in permuted], [d.attributes for d in permuted])
        assert {d.id: d.category for d in reloaded} == PUBLISHED_CATEGORIES
        for linkage in LINKAGES:
            assert partition(half_cut(permuted, linkage)) == category_partition(base)


def test_permuted_leaves_cut_to_same_partition():
    base = catalog()
    d_base = canonical_distances()
    for order in [(6, 5, 4, 3, 2, 1, 0), (2, 0, 6, 4, 1, 5, 3)]:
        d_perm = tuple(
            tuple(d_base[i][j] for j in order) for i in order
        )
        dend = agglomerate(d_perm, leaves=[base[i].id for i in order])
        cut_partition = partition(cut(dend, 0.5))
        baseline = partition(
            cut(agglomerate(d_base, leaves=[x.id for x in base]), 0.5)
        )
        assert cut_partition == baseline


def test_dendrogram_json_shape():
    dend = agglomerate(canonical_distances(), leaves=[d.id for d in catalog()])
    doc = dendrogram_to_json_dict(dend)
    assert doc["leaves"] == [s.name for s in SmellId]
    assert len(doc["merges"]) == 6
    assert set(doc["merges"][0]) == {"a", "b", "distance"}


@st.composite
def binary_vector_sets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return [
        tuple(draw(st.booleans()) for _ in range(4))
        for _ in range(n)
    ]


@given(binary_vector_sets())
@settings(max_examples=60, deadline=None)
def test_half_cut_equals_vector_equality_classes(vectors):
    descriptors = [
        SmellDescriptor(f"X{i}", f"x{i}", 0, AttributeVector(*vec), "s", "r")
        for i, vec in enumerate(vectors)
    ]
    partitions = set()
    for linkage in LINKAGES:
        sim = similarity_matrix(descriptors)
        dend = agglomerate(
            distance_matrix(sim), linkage, leaves=[d.id for d in descriptors]
        )
        assignment = cut(dend, 0.5)
        partitions.add(partition(assignment))
        # merge distances are monotone by construction; cut(0) is singletons
        assert cut(dend, 0).num_clusters == len(vectors)
    # all linkages agree, and the partition equals vector-equality classes
    assert len(partitions) == 1
    classes: dict[tuple, set] = {}
    for d, vec in zip(descriptors, vectors):
        classes.setdefault(vec, set()).add(d.id)
    assert partitions.pop() == frozenset(
        frozenset(members) for members in classes.values()
    )
