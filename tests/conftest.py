import tracemalloc

import numpy as np
import pytest

from fuzzseed import Dataset


@pytest.fixture
def two_pairs():
    """Two well-separated vertical pairs; unique two-cluster optimum."""
    return Dataset(points=[[0, 0], [0, 1], [10, 0], [10, 1]], name="two_pairs")


def traced_peak(call, *args, **kwargs):
    """(call's result, the peak bytes tracemalloc saw allocated during it)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_ruspini_like():
    """A 75x2, 4-label stand-in with the classic group sizes 20/23/17/15.

    The authentic Ruspini coordinates are not redistributable from this
    environment; tests that only need shape, labels, or determinism use
    this analogue, and accept a real CSV via FUZZSEED_RUSPINI_CSV.
    """
    rng = np.random.default_rng(20250810)
    centers = [(20.0, 65.0), (45.0, 145.0), (70.0, 20.0), (100.0, 115.0)]
    sizes = [20, 23, 17, 15]
    blocks, labels = [], []
    for label, (center, size) in enumerate(zip(centers, sizes), start=1):
        blocks.append(rng.normal(loc=center, scale=6.0, size=(size, 2)))
        labels.extend([label] * size)
    return Dataset(points=np.vstack(blocks), labels=np.array(labels), name="ruspini_like")


@pytest.fixture(scope="session")
def ruspini_like():
    return make_ruspini_like()
