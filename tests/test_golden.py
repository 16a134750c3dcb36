"""Recompute the golden corpus and compare it bit for bit.

The corpus pins engine results across rewrites; see
``tests/golden/generate.py`` for what it covers and when it may be
regenerated.
"""

import json

import pytest

from golden.generate import CORPUS, cell_id, cells, record

EXPECTED = json.loads(CORPUS.read_text())
CELLS = cells()


def test_corpus_covers_every_cell():
    assert sorted(EXPECTED) == sorted(cell_id(c) for c in CELLS)


@pytest.mark.parametrize("config", CELLS, ids=cell_id)
def test_cell_matches_corpus(config):
    assert record(config) == EXPECTED[cell_id(config)]
