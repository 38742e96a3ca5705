from __future__ import annotations

import json
from dataclasses import astuple
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfsustain.catalog import (
    AttributeVector,
    CatalogError,
    SmellDescriptor,
    SmellId,
    assign_categories,
    catalog,
    dump_catalog,
    load_catalog,
    similarity,
    similarity_matrix,
)

from conftest import category_partition, zero_merge_groups

# 7x7 binary similarity between the smells, frozen from the published matrix.
PUBLISHED_MATRIX = (
    (1, 1, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 1, 0, 1, 1),
    (0, 0, 1, 1, 0, 1, 1),
)

PUBLISHED_VECTORS = {
    SmellId.SS1: (True, True, False, False),
    SmellId.SS2: (True, True, False, False),
    SmellId.SS3: (False, False, False, True),
    SmellId.SS4: (False, False, False, True),
    SmellId.SS5: (False, False, True, False),
    SmellId.SS6: (False, False, False, True),
    SmellId.SS7: (False, False, False, True),
}

PUBLISHED_CATEGORIES = {
    SmellId.SS1: 2,
    SmellId.SS2: 2,
    SmellId.SS3: 1,
    SmellId.SS4: 1,
    SmellId.SS5: 3,
    SmellId.SS6: 1,
    SmellId.SS7: 1,
}


def test_catalog_has_seven_ordered_smells():
    cat = catalog()
    assert len(cat) == 7
    assert [d.id for d in cat] == list(SmellId)


def test_catalog_names_and_categories():
    cat = catalog()
    assert cat[0].name == "Over-Provisioning Resources"
    assert cat[1].name == "Lack of Auto-Scaling"
    assert cat[2].name == "Ignoring Resource Lifecycles"
    assert cat[3].name == "Excessive Logging"
    assert cat[4].name == "Unoptimized Data Transfers"
    assert cat[5].name == "State Management"
    assert cat[6].name == "Monolithic Infrastructure"
    assert cat[6].category == 1
    for d in cat:
        assert d.category == PUBLISHED_CATEGORIES[d.id]
        assert d.summary and d.remediation


def test_attribute_vectors_match_published_table():
    for d in catalog():
        assert astuple(d.attributes) == PUBLISHED_VECTORS[d.id], d.id


def test_similarity_examples():
    cat = {d.id: d for d in catalog()}
    assert similarity(cat[SmellId.SS1].attributes, cat[SmellId.SS2].attributes) == 1
    assert similarity(cat[SmellId.SS1].attributes, cat[SmellId.SS1].attributes) == 1
    assert similarity(cat[SmellId.SS5].attributes, cat[SmellId.SS6].attributes) == 0


def test_similarity_matrix_equals_published_matrix():
    sim = similarity_matrix(catalog())
    assert sim == PUBLISHED_MATRIX
    # every off-diagonal pair individually
    for i, j in combinations(range(7), 2):
        assert sim[i][j] == PUBLISHED_MATRIX[i][j], (i, j)


def test_similarity_is_reflexive_symmetric_transitive():
    # exhaustive over all 16 possible vectors
    vectors = [AttributeVector(*bits) for bits in product([False, True], repeat=4)]
    for a in vectors:
        assert similarity(a, a) == 1
    for a in vectors:
        for b in vectors:
            assert similarity(a, b) == similarity(b, a)
            for c in vectors:
                if similarity(a, b) == 1 and similarity(b, c) == 1:
                    assert similarity(a, c) == 1


def test_matrix_permutes_with_catalog_order():
    cat = catalog()
    order = [3, 0, 6, 1, 4, 2, 5]
    permuted = [cat[i] for i in order]
    sim = similarity_matrix(permuted)
    # oracle: recompute each entry from the pairwise operation
    for i in range(7):
        for j in range(7):
            assert sim[i][j] == similarity(
                permuted[i].attributes, permuted[j].attributes
            )
            assert sim[i][j] == PUBLISHED_MATRIX[order[i]][order[j]]


@st.composite
def loaded_catalogs(draw) -> list[SmellDescriptor]:
    """1-9 smells with random vectors, categorized as ``load_catalog`` does."""
    names = [s.name for s in SmellId] + ["SS8", "SS9", "X1", "X2"]
    raw = draw(st.lists(st.sampled_from(names), min_size=1, max_size=9, unique=True))
    ids = [SmellId[n] if n in SmellId.__members__ else n for n in raw]
    vectors = [
        AttributeVector(*draw(st.tuples(*[st.booleans()] * 4))) for _ in ids
    ]
    categories = assign_categories(ids, vectors)
    return [
        SmellDescriptor(i, str(i), c, v, "s", "r")
        for i, c, v in zip(ids, categories, vectors)
    ]


@given(loaded_catalogs())
@example(catalog())
@settings(max_examples=200, deadline=None)
def test_catalog_categories_agree_with_clustering(descriptors):
    # the stored categories, built-in or grouped by equal vectors on load, are
    # exactly the clusters the dendrogram's distance-0 merges join, and carry
    # the labels the grouping gives
    ids = [d.id for d in descriptors]
    vectors = [d.attributes for d in descriptors]
    assert [d.category for d in descriptors] == assign_categories(ids, vectors)
    assert zero_merge_groups(descriptors) == category_partition(descriptors)


def test_dump_load_round_trip(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(dump_catalog(catalog()))
    loaded = load_catalog(path)
    assert loaded == catalog()


def test_load_catalog_rejects_bad_attribute_count(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(
        '[{"id": "SS1", "name": "x", "attributes": [true], '
        '"summary": "s", "remediation": "r"}]'
    )
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_load_catalog_rejects_a_duplicate_id(tmp_path):
    entries = json.loads(dump_catalog(catalog()))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries + entries[:1]))
    with pytest.raises(CatalogError, match=f"{path}: duplicate smell id 'SS1'"):
        load_catalog(path)


def test_load_catalog_rejects_unknown_field(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(
        '[{"id": "SS1", "name": "x", "attributes": [true, true, false, false], '
        '"summary": "s", "remediation": "r", "severity": 3}]'
    )
    with pytest.raises(CatalogError, match="severity"):
        load_catalog(path)


def test_load_catalog_assigns_categories_for_new_smells(tmp_path):
    extended = dump_catalog(catalog()).rstrip("]\n") + """,
  {
    "id": "SS8",
    "name": "Example Extension",
    "attributes": [true, false, true, false],
    "summary": "s",
    "remediation": "r"
  }
]"""
    path = tmp_path / "catalog.json"
    path.write_text(extended)
    loaded = load_catalog(path)
    assert [d.category for d in loaded[:7]] == [
        PUBLISHED_CATEGORIES[d.id] for d in catalog()
    ]
    assert loaded[7].category == 4  # new vector lands in a fresh category
