"""Metamorphic relations: edits that must not change what a scan finds.

Findings are compared as a multiset of (path, smell, evidence); spans may
move with the edit.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import PurePosixPath

import pytest

from tfsustain.detectors import ENGINES, DetectorConfig, detect_all, unit_for
from tfsustain.hcl import TokenKind, tokenize

from conftest import FIXTURES, fixture_corpus_files

CFG = DetectorConfig()


def _fixture_texts() -> dict[str, str]:
    return {
        p.relative_to(FIXTURES).as_posix(): p.read_bytes().decode("utf-8-sig")
        for p in fixture_corpus_files()
    }


def _findings(texts: dict[str, str], engine: str) -> Counter:
    by_dir: dict[str, list] = {}
    for path, text in texts.items():
        by_dir.setdefault(str(PurePosixPath(path).parent), []).append(unit_for(path, text))
    return Counter(
        (f.path, f.smell.name, f.evidence)
        for units in by_dir.values()
        for f in detect_all(units, CFG, engine, set())
    )


def _insert_comments(text: str, rng: random.Random) -> str:
    """``text`` with `` /* c */ `` and extra spaces before some token starts.

    A token after a heredoc or an error token is left alone: text after a
    heredoc's closing tag would change where it ends, and an unterminated
    string or comment would swallow the insertion. Each insertion starts
    with a space, so a preceding ``/`` never becomes ``//``.
    """
    out: list[str] = []
    pos = 0
    prev = None
    for tok in tokenize(text):
        safe = prev is None or (prev.kind is not TokenKind.HEREDOC and prev.error is None)
        if safe and rng.random() < 0.5:
            out.append(text[pos : tok.start])
            out.append(rng.choice([" /* c */ ", "  ", " /* c */"]))
            pos = tok.start
        prev = tok
    out.append(text[pos:])
    return "".join(out)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(5))
def test_inserted_comments_and_spaces_keep_findings(seed, engine):
    texts = _fixture_texts()
    rng = random.Random(seed)
    mutated = {path: _insert_comments(text, rng) for path, text in texts.items()}
    assert mutated != texts
    assert _findings(mutated, engine) == _findings(texts, engine)
