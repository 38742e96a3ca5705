from __future__ import annotations

import json
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from tfsustain.catalog import (
    AttributeVector,
    SmellDescriptor,
    SmellId,
    assign_categories,
    catalog,
    dendrogram,
    similarity_matrix,
)

from conftest import (
    REFERENCE_LINKAGES,
    category_partition,
    reference_dendrogram,
    zero_merge_groups,
)

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


def as_json(doc: dict) -> str:
    """``doc`` as ``cluster --format json`` writes it, so 0 and 0.0 differ."""
    return json.dumps(doc, indent=2)


def assert_every_linkage_builds_it(descriptors: list[SmellDescriptor]) -> None:
    for linkage in REFERENCE_LINKAGES:
        expected = as_json(reference_dendrogram(descriptors, linkage))
        assert as_json(dendrogram(descriptors)) == expected, linkage


def test_distance_is_one_minus_similarity():
    # Each merge sits at 1 - s of the first leaves of the two clusters it joins.
    cat = catalog()
    sim = similarity_matrix(cat)
    first = list(range(len(cat)))  # smallest leaf index per node
    for merge in dendrogram(cat)["merges"]:
        a, b = first[merge["a"]], first[merge["b"]]
        assert merge["distance"] == 1 - sim[a][b]
        first.append(min(a, b))


def test_agglomerate_single_leaf():
    assert dendrogram(catalog()[:1]) == {"leaves": ["SS1"], "merges": []}


def test_agglomerate_merge_distances_on_canonical_input():
    # three groups of equal vectors merge at 0 ({SS1,SS2} needs 1 merge,
    # {SS3,SS4,SS6,SS7} needs 3); the two cross-group merges happen at 1.
    merges = dendrogram(catalog())["merges"]
    assert [m["distance"] for m in merges] == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]


def test_agglomerate_all_distinct_merges_at_one():
    vectors = [AttributeVector(*bits) for bits in product([False, True], repeat=4)][:7]
    merges = dendrogram(loaded([f"X{i}" for i in range(7)], vectors))["merges"]
    assert len(merges) == 6 and all(m["distance"] == 1.0 for m in merges)


def test_cut_at_half_reproduces_categories():
    assert zero_merge_groups(catalog()) == frozenset(
        {
            frozenset({SmellId.SS1, SmellId.SS2}),
            frozenset({SmellId.SS3, SmellId.SS4, SmellId.SS6, SmellId.SS7}),
            frozenset({SmellId.SS5}),
        }
    )


def test_categorize_matches_published_categories_for_all_linkages():
    cat = catalog()
    assert {d.id: d.category for d in cat} == PUBLISHED_CATEGORIES
    assert zero_merge_groups(cat) == category_partition(cat)
    assert_every_linkage_builds_it(cat)


def test_categorize_single_smell_catalog():
    one = loaded([SmellId.SS1], [catalog()[0].attributes])
    assert one[0].category == 1
    assert zero_merge_groups(one) == frozenset({frozenset({SmellId.SS1})})
    assert_every_linkage_builds_it(one)


def test_categorize_identical_vectors_single_cluster():
    vec = AttributeVector(False, False, False, True)
    flattened = loaded([d.id for d in catalog()], [vec] * 7)
    assert {d.category for d in flattened} == {1}
    assert zero_merge_groups(flattened) == frozenset({frozenset(SmellId)})
    assert [m["distance"] for m in dendrogram(flattened)["merges"]] == [0.0] * 6
    assert_every_linkage_builds_it(flattened)


def test_cluster_assignment_labels_contiguous():
    # catalog without any anchor smell still labels from 1
    vec_a = AttributeVector(True, True, False, False)
    vec_b = AttributeVector(False, False, False, True)
    descriptors = loaded(["X1", "X2"], [vec_a, vec_b])
    assert [d.category for d in descriptors] == [1, 2]
    assert zero_merge_groups(descriptors) == category_partition(descriptors)


def test_permutation_invariance_of_categories():
    base = catalog()
    for order in list(permutations(range(7)))[::720]:  # a spread of orders
        permuted = [base[i] for i in order]
        reloaded = loaded([d.id for d in permuted], [d.attributes for d in permuted])
        assert {d.id: d.category for d in reloaded} == PUBLISHED_CATEGORIES
        assert zero_merge_groups(permuted) == category_partition(base)
        assert_every_linkage_builds_it(permuted)


def test_permuted_leaves_cut_to_same_partition():
    base = catalog()
    for order in [(6, 5, 4, 3, 2, 1, 0), (2, 0, 6, 4, 1, 5, 3)]:
        permuted = [base[i] for i in order]
        assert dendrogram(permuted)["leaves"] == [str(d.id) for d in permuted]
        assert zero_merge_groups(permuted) == zero_merge_groups(base)


def test_dendrogram_json_shape():
    doc = dendrogram(catalog())
    assert set(doc) == {"leaves", "merges"}
    assert doc["leaves"] == [s.name for s in SmellId]
    assert len(doc["merges"]) == 6
    assert all(set(m) == {"a", "b", "distance"} for m in doc["merges"])
    assert all(type(m["distance"]) is float for m in doc["merges"])


@st.composite
def binary_vector_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [
        tuple(draw(st.booleans()) for _ in range(4))
        for _ in range(n)
    ]


def _catalog_of(vectors: list[tuple]) -> list[SmellDescriptor]:
    return loaded([f"X{i}" for i in range(len(vectors))], [AttributeVector(*v) for v in vectors])


@given(binary_vector_sets())
@settings(max_examples=60, deadline=None)
def test_half_cut_equals_vector_equality_classes(vectors):
    descriptors = _catalog_of(vectors)
    classes: dict[tuple, set] = {}
    for d, vec in zip(descriptors, vectors):
        classes.setdefault(vec, set()).add(d.id)
    expected = frozenset(frozenset(members) for members in classes.values())
    assert zero_merge_groups(descriptors) == expected
    assert category_partition(descriptors) == expected


@given(binary_vector_sets())
@settings(max_examples=200, deadline=None)
def test_dendrogram_equals_the_three_linkage_reference(vectors):
    assert_every_linkage_builds_it(_catalog_of(vectors))
