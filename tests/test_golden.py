"""Recompute the golden corpus and compare it bit for bit.

The corpus pins engine results across rewrites, and the function
digests pin every problem function's values in and around the box; see
``tests/golden/generate.py`` for what they cover and when they may be
regenerated.  The same corpus and digests must also come out of a
process whose NumPy runs without its AVX-512 dispatch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.generate import (
    CORPUS,
    DISPATCH_DEPENDENT,
    FUNCTIONS,
    cell_id,
    cells,
    frozen_function_digests,
    function_digests,
    record,
)

EXPECTED = json.loads(CORPUS.read_text())
EXPECTED_FUNCTIONS = json.loads(FUNCTIONS.read_text())
CELLS = cells()

# NumPy then dispatches its SIMD loops at X86_V3 (AVX2) at most.  NumPy
# 2.4 accepts names of features the host lacks, so on a host without
# AVX-512 this runs the same dispatch as the parent process.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}

_CHILD = """
import json
import numpy as np
from golden.generate import cell_id, cells, function_digests, record
features = np._core._multiarray_umath.__cpu_features__
print(json.dumps({
    "features": sorted(k for k, on in features.items() if on),
    "cells": {cell_id(c): record(c) for c in cells()},
    "functions": function_digests(),
}))
"""


def test_corpus_covers_every_cell():
    assert sorted(EXPECTED) == sorted(cell_id(c) for c in CELLS)


@pytest.mark.parametrize("config", CELLS, ids=cell_id)
def test_cell_matches_corpus(config):
    assert record(config) == EXPECTED[cell_id(config)]


def test_functions_match_frozen_digests():
    here = frozen_function_digests()
    assert sorted(EXPECTED_FUNCTIONS) == sorted(here)
    moved = [k for k in here if here[k] != EXPECTED_FUNCTIONS[k]]
    assert moved == []


def test_corpus_and_functions_do_not_depend_on_simd_dispatch():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **NO_AVX512, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    assert "X86_V4" not in child["features"]

    assert sorted(child["cells"]) == sorted(EXPECTED)
    moved = [name for name in EXPECTED if child["cells"][name] != EXPECTED[name]]
    assert moved == []

    here = function_digests()
    assert DISPATCH_DEPENDENT <= set(here)
    assert sorted(child["functions"]) == sorted(here)
    moved = [
        k
        for k in here
        if k not in DISPATCH_DEPENDENT and child["functions"][k] != here[k]
    ]
    assert moved == []
