"""Seeded stratified sampling of Terraform files, one stratum per repository.

The generator is SplitMix64 (Steele, Lea & Flood's split-and-mix update:
state += 0x9E3779B97F4A7C15, then two xor-multiply finalization rounds),
implemented here rather than taken from the platform so that a sample set
can be reproduced bit-for-bit from any language. Each repository draws from
its own stream seeded by ``seed XOR sha256(repo_name)[:8]``, which makes
per-repo selections independent of manifest ordering.

Per repository: 4 or 5 files are chosen uniformly (4 when only 4 exist);
repositories with fewer than 4 files contribute everything they have.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


@dataclass(frozen=True)
class SampleSet:
    seed: int
    selections: dict[str, list[str]]

    @property
    def total(self) -> int:
        return sum(len(files) for files in self.selections.values())

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "selections": self.selections},
            indent=2,
            sort_keys=True,
        )


def _repo_stream(seed: int, repo: str) -> SplitMix64:
    digest = hashlib.sha256(repo.encode("utf-8")).digest()
    return SplitMix64(seed ^ int.from_bytes(digest[:8], "big"))


def sample_stratified(manifest: dict[str, list[str]], seed: int) -> SampleSet:
    """Select 4-5 distinct file names per repository, reproducibly for a seed."""
    if not manifest:
        raise ValueError("manifest must not be empty")
    selections: dict[str, list[str]] = {}
    for repo in sorted(manifest):
        files = sorted(set(manifest[repo]))
        if len(files) <= 4:
            selections[repo] = files
            continue
        rng = _repo_stream(seed, repo)
        k = 4 + rng.below(2)
        pool = list(files)
        for i in range(k):  # partial Fisher-Yates shuffle
            j = i + rng.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        selections[repo] = sorted(pool[:k])
    return SampleSet(seed, selections)
