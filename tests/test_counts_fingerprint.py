"""Pinned SHA-256 fingerprints of the per-k counts for small fixed runs.

The counts are a pure function of (master_seed, config, chain), so any
change to how path streams are drawn or consumed changes these hashes.
A change that claims to keep the sampled counts must leave every hash
here untouched; a deliberate stream change updates them in one place.
"""

import hashlib

import numpy as np
import pytest

from specgap.chains import (
    BiasedLineChain,
    DenseMatrixChain,
    TabularSampler,
    UniformSampler,
    generate_regular_graph,
)
from specgap.estimator import UcpiConfig
from specgap.extensions import estimate_nonlazy, weighted_collect
from specgap.sampling import RtfEngine, rtf_collect

PATHS = 2100  # three blocks, the last one partial
LENGTH = 30
SEED = 0

LINE = BiasedLineChain(20, 0.7)
GRAPH = generate_regular_graph(40, 3, seed=0)
FLIP_HEAVY = DenseMatrixChain([[0.1, 0.6, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]])


class ScalarOnly:
    """Hides the vectorized kernel so the engines take the next_state path."""

    def __init__(self, inner):
        self.inner = inner

    def state_space_size(self):
        return self.inner.state_space_size()

    def next_state(self, x, rng):
        return self.inner.next_state(x, rng)


def sha256(counts) -> str:
    counts = np.asarray(counts)
    dtype = "<i8" if counts.dtype.kind in "iu" else "<f8"
    return hashlib.sha256(counts.astype(dtype).tobytes()).hexdigest()


def odd_heavy(size):
    weights = np.where(np.arange(size) % 2 == 1, 2.0, 1.0)
    return TabularSampler(weights / weights.sum())


def rtf_counts(oracle, workers=1):
    size = oracle.state_space_size()
    cfg = UcpiConfig(size, PATHS, LENGTH, 0.1)
    return rtf_collect(RtfEngine(oracle, UniformSampler(size), cfg, SEED, workers)).counts


def weighted_counts(oracle):
    size = oracle.state_space_size()
    cfg = UcpiConfig(size, PATHS, LENGTH, 0.1)
    return weighted_collect(oracle, odd_heavy(size), cfg, SEED).scaled_counts


def nonlazy_counts(oracle):
    size = oracle.state_space_size()
    cfg = UcpiConfig(size, PATHS, LENGTH, 0.1)
    return estimate_nonlazy(oracle, cfg, UniformSampler(size), SEED).squared_estimate.m_hat


# Recorded before path streams moved to one reset Philox per block; the
# scalar and vectorized engines consume the same streams, so they share a hash.
LINE_HASH = "80421a00d9f12d29f0b9b72ddeefe68d54cd9aa72c26e30903462dd4904e57b7"
GRAPH_WEIGHTED_HASH = "b4558e7fb0d32e541d4f01d9037d56379b0bae8267e7487176f1bcaba4b82d2d"

CASES = {
    "rtf-vectorized": (lambda: rtf_counts(LINE), LINE_HASH),
    "rtf-scalar": (lambda: rtf_counts(ScalarOnly(LINE)), LINE_HASH),
    "weighted-tabular": (lambda: weighted_counts(GRAPH), GRAPH_WEIGHTED_HASH),
    "weighted-tabular-scalar": (lambda: weighted_counts(ScalarOnly(GRAPH)), GRAPH_WEIGHTED_HASH),
    "nonlazy-scalar": (
        lambda: nonlazy_counts(ScalarOnly(FLIP_HEAVY)),
        "88cf71175fd734aa284f325b6d4890a4ba24d3ae450563ef1a0ded5bdce7e23c",
    ),
    "rtf-workers-2": (
        lambda: rtf_counts(GRAPH, workers=2),
        "54cc7f92bb116e84d54f89fa20dc37112e2a52c71817f3d0141b3498b125db67",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_counts_fingerprint_is_pinned(name):
    collect, expected = CASES[name]
    assert sha256(collect()) == expected
