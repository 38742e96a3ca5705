from __future__ import annotations

import os
import sys
from itertools import combinations
from pathlib import Path, PurePosixPath

import pytest

from tfsustain.catalog import SmellDescriptor, dendrogram, similarity_matrix
from tfsustain.hcl import Attribute, Block, ConfigFile, SourceSpan

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def fixture_corpus_files() -> list[Path]:
    """Every .tf file in the checked-in fixture corpus."""
    return sorted(FIXTURES.rglob("*.tf"))


def count_python_calls(fn, *args) -> int:
    """How many Python-level calls ``fn(*args)`` makes, itself included.

    A generator or coroutine counts once per resumption. Calls into C are
    not counted, so a regex's own work does not show.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def walk_tf_files(root: Path) -> list[str]:
    """Reference discovery by ``os.walk``: sorted relative POSIX paths of the
    .tf files under ``root``, symlinked files and directories skipped."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
        dirnames[:] = [d for d in dirnames if not (Path(dirpath) / d).is_symlink()]
        for name in filenames:
            full = Path(dirpath) / name
            if name.endswith(".tf") and not full.is_symlink():
                found.append(str(PurePosixPath(full.relative_to(root))))
    return sorted(found)


def reference_heredoc_end(text: str, pos: int, tag: str) -> tuple[int, str | None]:
    """The line-by-line loop that ``lexer._heredoc_end`` replaced, kept as its oracle:
    end offset and error of the heredoc whose ``<<TAG`` ends at ``pos``."""
    line_start = text.find("\n", pos) + 1  # 0 when the intro line is the last
    while 0 < line_start < len(text):
        line_end = text.find("\n", line_start)
        if line_end < 0:
            line_end = len(text)
        if text[line_start:line_end].strip() == tag:
            return line_end, None
        line_start = line_end + 1
    return len(text), f"unterminated heredoc (missing {tag!r})"


def nodes_equal(a: object, b: object) -> bool:
    """Structural equality over AST nodes, ignoring source spans."""
    if isinstance(a, ConfigFile) and isinstance(b, ConfigFile):
        return _bodies_equal(a.body, b.body)
    if isinstance(a, Block) and isinstance(b, Block):
        return (
            a.block_type == b.block_type
            and a.labels == b.labels
            and _bodies_equal(a.body, b.body)
        )
    if isinstance(a, Attribute) and isinstance(b, Attribute):
        return a.name == b.name and a.value == b.value
    return False


def _bodies_equal(a: list, b: list) -> bool:
    return len(a) == len(b) and all(nodes_equal(x, y) for x, y in zip(a, b))


def located(cls: type, *fields: object, span: SourceSpan):
    """An expected ``cls`` node (``Attribute``, ``Block``, ...) with ``fields`` and ``span``.

    ``==`` ignores where a node lies in its text, so no source or offsets are
    given; the assigned span wins over the one they would build.
    """
    node = cls(None, 0, 0, *fields)
    node.span = span
    return node


def _offset(text: str, line: int, col: int) -> int:
    """Offset of 1-based ``line`` and ``col``; lines end only at "\\n"."""
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


def span_text(text: str, span: SourceSpan) -> str:
    """The characters of ``text`` that ``span`` covers."""
    start = _offset(text, span.start_line, span.start_col)
    return text[start : _offset(text, span.end_line, span.end_col)]


def zero_merge_groups(descriptors: list[SmellDescriptor]) -> frozenset[frozenset]:
    """The smell ids that the catalog dendrogram's leading distance-0 merges join."""
    members = [{d.id} for d in descriptors]  # smell ids per node
    for merge in dendrogram(descriptors)["merges"]:
        if merge["distance"] != 0.0:
            break
        members.append(members[merge["a"]] | members[merge["b"]])
        members[merge["a"]] = members[merge["b"]] = set()
    return frozenset(frozenset(ids) for ids in members if ids)


REFERENCE_LINKAGES = ("single", "complete", "average")


def reference_dendrogram(descriptors: list[SmellDescriptor], linkage: str) -> dict:
    """The JSON dendrogram of the general three-linkage clusterer that
    ``catalog.dendrogram`` replaced, kept as its oracle.

    Bottom-up over the distances 1 - similarity: each step merges the pair of
    clusters with the smallest (linkage distance, smallest leaf, largest leaf,
    sorted leaf tuple), the distance being the minimum (single), maximum
    (complete) or mean (average) over every cross pair of leaves.
    """
    sim = similarity_matrix(descriptors)
    n = len(descriptors)
    active = {i: (i,) for i in range(n)}  # node -> sorted leaf indices
    merges: list[dict] = []
    while len(active) > 1:
        best_key = best_pair = None
        for a, b in combinations(sorted(active), 2):
            cross = [1 - sim[i][j] for i in active[a] for j in active[b]]
            if linkage == "single":
                d = float(min(cross))
            elif linkage == "complete":
                d = float(max(cross))
            else:
                d = sum(cross) / len(cross)
            union = tuple(sorted(active[a] + active[b]))
            key = (d, union[0], union[-1], union)
            if best_key is None or key < best_key:
                best_key, best_pair = key, (a, b)
        a, b = best_pair
        merges.append({"a": a, "b": b, "distance": best_key[0]})
        active[n + len(merges) - 1] = tuple(sorted(active.pop(a) + active.pop(b)))
    return {"leaves": [str(d.id) for d in descriptors], "merges": merges}


def category_partition(descriptors: list[SmellDescriptor]) -> frozenset[frozenset]:
    """The smell ids grouped by their stored category."""
    groups: dict[int, set] = {}
    for d in descriptors:
        groups.setdefault(d.category, set()).add(d.id)
    return frozenset(frozenset(ids) for ids in groups.values())
