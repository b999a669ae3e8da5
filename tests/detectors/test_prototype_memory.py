"""Allocation bound of the prototype head.

Scoring a population's grids used to build ``(cells, prototypes, 7)``
float64 difference arrays: 108.6 MB for 101 grids of 12 x 40 cells against
40 background prototypes, and a traced peak of 120 MiB per call.  The
streaming distance kernel holds one ``(40, cells)`` distance array
(15.5 MB) instead, so one call stays well below the bound here.
"""

import tracemalloc

import numpy as np

from repro.detectors.prototypes import PrototypeBank

#: Peak traced allocation allowed for one ``probabilities`` call on a
#: (101, 12, 40, 7) stack.  The broadcast head peaked at 120.2 MiB; the
#: streaming one peaks near 20 MiB.
PEAK_BYTES = 32 * 2**20


def test_probabilities_peak_allocation():
    rng = np.random.default_rng(0)
    bank = PrototypeBank(
        class_prototypes=rng.normal(size=(5, 7)),
        background_prototypes=rng.normal(size=(40, 7)),
        temperature=0.5,
    )
    features = rng.normal(size=(101, 12, 40, 7))
    tracemalloc.start()
    try:
        probabilities = bank.probabilities(features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probabilities.shape == (101, 12, 40, 6)
    assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MiB"
