"""Replay the committed fuzz corpus — every case, from scratch.

Each JSON file under ``tests/corpus/`` is a :class:`CorpusCase`: the
coordinates (family, seed, size, problem label, explorer config,
optional minimized unit subset) of one differential check.  Replaying
regenerates the scenario, recomputes the exhaustive oracle, re-runs
the configured explorer and re-applies the exact-agreement checks —
so a fuzz-found bug that was fixed can never silently return, and
the corpus doubles as a seeded anchor of full-matrix coverage.
"""

import pathlib

import pytest

from repro.zoo.fuzz import CASE_VERSION, load_corpus, replay_case

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CASES = load_corpus(CORPUS_DIR)


def test_corpus_is_populated():
    assert len(CASES) >= 10


def test_corpus_ids_match_files():
    for path in sorted(CORPUS_DIR.glob("*.json")):
        assert any(case.id == path.stem for case in CASES)


def test_corpus_versions_current():
    assert all(case.version == CASE_VERSION for case in CASES)


def test_portfolio_regression_case_present():
    """The fuzz-found certificate bug (found against the removed
    portfolio explorer, now replayed on branch-and-bound) stays in the
    corpus under its original id."""
    ids = {case.id for case in CASES}
    assert "portfolio-proof-floor" in ids


@pytest.mark.parametrize(
    "case", CASES, ids=[case.id for case in CASES]
)
def test_replay(case):
    failures = replay_case(case)
    assert not failures, failures
