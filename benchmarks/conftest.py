"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(README.md, "Deviations from the paper", lists where the reproduction
departs from it).  ``pytest benchmarks/ --benchmark-only`` prints the
regenerated rows alongside the paper's numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.naming import reset_names


@pytest.fixture(autouse=True)
def _fresh_names():
    reset_names()
    yield
    reset_names()


# Smaller-than-default workloads keep the benchmark harness fast while
# preserving the qualitative behaviour; the full sizes are used by
# examples/figure7.py.
EVAL_SIZES = {
    "outerprod": {"m": 4096, "n": 4096},
    "sumrows": {"m": 16384, "n": 256},
    "gemm": {"m": 512, "n": 512, "p": 512},
    "tpchq6": {"n": 1 << 20},
    "gda": {"n": 16384, "d": 32},
    "kmeans": {"n": 32768, "k": 32, "d": 32},
}


@pytest.fixture(scope="session")
def eval_sizes():
    return EVAL_SIZES
