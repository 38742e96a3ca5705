from __future__ import annotations

import pytest

from tfsustain.sampling import SplitMix64, sample_stratified


def make_manifest(repos: int, files_per_repo: int = 8) -> dict[str, list[str]]:
    return {
        f"org/repo{i:03d}": [f"module{j}/main{j}.tf" for j in range(files_per_repo)]
        for i in range(repos)
    }


@pytest.mark.parametrize(
    "names",
    [
        ["a.tf", "b.tf", "c.tf"],
        # A name listed twice is one file: three distinct names are all drawn, once.
        ["a.tf", "a.tf", "a.tf", "b.tf", "c.tf"],
    ],
    ids=["distinct", "repeated"],
)
@pytest.mark.parametrize("seed", [1, 4])
def test_small_repo_contributes_everything(names, seed):
    sample = sample_stratified({"org/tiny": names}, seed=seed)
    assert sample.selections["org/tiny"] == ["a.tf", "b.tf", "c.tf"]
    assert sample.total == 3


def test_exactly_four_files_selects_all_four():
    manifest = {"org/four": ["a.tf", "b.tf", "c.tf", "d.tf"]}
    sample = sample_stratified(manifest, seed=1)
    assert len(sample.selections["org/four"]) == 4


def test_selection_sizes_are_four_or_five():
    sample = sample_stratified(make_manifest(100), seed=7)
    sizes = {len(files) for files in sample.selections.values()}
    assert sizes <= {4, 5}
    assert sizes == {4, 5}  # with 100 repos both sizes should occur


def test_selected_files_come_from_the_repo():
    manifest = make_manifest(20)
    sample = sample_stratified(manifest, seed=3)
    for repo, files in sample.selections.items():
        assert set(files) <= set(manifest[repo])
        assert len(set(files)) == len(files)


def test_same_seed_reproduces_identical_sample():
    manifest = make_manifest(100)
    assert sample_stratified(manifest, seed=9) == sample_stratified(manifest, seed=9)


def test_different_seed_changes_sample():
    manifest = make_manifest(100)
    a = sample_stratified(manifest, seed=9)
    b = sample_stratified(manifest, seed=10)
    assert a.selections != b.selections


def test_selection_independent_of_manifest_order():
    manifest = make_manifest(30)
    reversed_manifest = dict(reversed(list(manifest.items())))
    assert (
        sample_stratified(manifest, seed=5).selections
        == sample_stratified(reversed_manifest, seed=5).selections
    )


def test_empty_manifest_rejected():
    with pytest.raises(ValueError):
        sample_stratified({}, seed=1)


def test_sample_set_total_and_json():
    sample = sample_stratified(make_manifest(10), seed=2)
    assert sample.total == sum(len(v) for v in sample.selections.values())
    assert '"seed": 2' in sample.to_json()


def test_splitmix64_known_sequence():
    # first outputs for seed 0; frozen so the stream never drifts
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_below_is_in_range():
    rng = SplitMix64(1234)
    draws = [rng.below(7) for _ in range(1000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7
    with pytest.raises(ValueError):
        rng.below(0)
