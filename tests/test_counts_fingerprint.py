"""Pinned SHA-256 fingerprints of the per-k counts for small fixed runs.

The counts are a pure function of (master_seed, config, chain), so any
change to how path streams are drawn or consumed changes these hashes.
A change that claims to keep the sampled counts must leave every hash
here untouched; a deliberate stream change updates them in one place.
"""

import hashlib
import multiprocessing

import numpy as np
import pytest

from specgap import sampling
from specgap.chains import (
    BiasedLineChain,
    DenseMatrixChain,
    UniformSampler,
    generate_regular_graph,
)
from specgap.estimator import UcpiConfig, finalize_weighted
from specgap.sampling import (
    RtfEngine,
    UspEngine,
    estimate_nonlazy,
    rtf_collect,
    states_from_file,
    trajectory_from_oracle,
    usp_collect,
    weighted_collect,
)

from helpers import ScalarOnly, odd_heavy

PATHS = 2100  # three blocks, the last one partial
LENGTH = 30
SEED = 0

LINE = BiasedLineChain(20, 0.7)
GRAPH = generate_regular_graph(40, 3, seed=0)
FLIP_HEAVY = DenseMatrixChain([[0.1, 0.6, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]])


def sha256(counts) -> str:
    counts = np.asarray(counts)
    dtype = "<i8" if counts.dtype.kind in "iu" else "<f8"
    return hashlib.sha256(counts.astype(dtype).tobytes()).hexdigest()


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



# Finalized output: the KL bounds u_hat and plug-in bounds ell_hat (one hash)
# and argmin_k, recorded before weighted estimation was folded into the
# unweighted pipeline.  On GRAPH every ell_k is clamped to 1; FLIP_HEAVY
# (w_max = 4) gives plug-in values strictly inside [0, 1].
def finalize_fingerprint(est):
    return sha256(np.concatenate([est.u_hat, est.ell_hat])), est.argmin_k


def weighted_finalized(oracle):
    size = oracle.state_space_size()
    cfg = UcpiConfig(size, PATHS, LENGTH, 0.1)
    sampler = odd_heavy(size)
    acc = weighted_collect(oracle, sampler, cfg, SEED)
    return finalize_fingerprint(finalize_weighted(acc, cfg))


def nonlazy_finalized(oracle):
    size = oracle.state_space_size()
    cfg = UcpiConfig(size, PATHS, LENGTH, 0.1)
    result = estimate_nonlazy(oracle, cfg, UniformSampler(size), SEED)
    assert result.spectral_radius_bound == result.squared_estimate.ell_star ** 0.5
    return finalize_fingerprint(result.squared_estimate)


GRAPH_FINALIZED = ("b2fdce9ad4a5414d4e1891d6db15458d4e93ac72aa11ae9cb6ce9ba906e53790", 1)
FLIP_WEIGHTED_FINALIZED = ("f105591e501a5e34a814bc2665c78679bc287c3fa28f1b9caf2312e7c0cdde5c", 1)
FLIP_NONLAZY_FINALIZED = ("d39a9e1a4669b205eee7419c25f4f4c84f490a9af09da944adc625bfb677d0bd", 2)

FINALIZE_CASES = {
    "weighted-graph": (lambda: weighted_finalized(GRAPH), GRAPH_FINALIZED),
    "weighted-graph-scalar": (lambda: weighted_finalized(ScalarOnly(GRAPH)), GRAPH_FINALIZED),
    "weighted-flip": (lambda: weighted_finalized(FLIP_HEAVY), FLIP_WEIGHTED_FINALIZED),
    "weighted-flip-scalar": (
        lambda: weighted_finalized(ScalarOnly(FLIP_HEAVY)), FLIP_WEIGHTED_FINALIZED
    ),
    "nonlazy": (lambda: nonlazy_finalized(FLIP_HEAVY), FLIP_NONLAZY_FINALIZED),
    "nonlazy-scalar": (lambda: nonlazy_finalized(ScalarOnly(FLIP_HEAVY)), FLIP_NONLAZY_FINALIZED),
}


@pytest.mark.parametrize("name", sorted(FINALIZE_CASES))
def test_finalize_fingerprint_is_pinned(name):
    finalize, expected = FINALIZE_CASES[name]
    assert finalize() == expected


# Single-trajectory extraction: counts, every UspStats field and the
# on_segment sequence, recorded before extraction moved to int64 chunks.
WALK = BiasedLineChain(8, 0.5)
USP_LENGTH = 12


def usp_fingerprint(source, num_segments):
    starts = []
    engine = UspEngine(source, USP_LENGTH, UniformSampler(8), SEED, on_segment=starts.append)
    acc = usp_collect(engine, num_segments)
    s = engine.stats
    stats = (s.segments_emitted, s.source_steps_consumed, s.total_wait, s.max_wait, s.exhausted)
    return sha256(acc.counts), acc.paths_completed, stats, sha256(starts)


USP_FILE_FINGERPRINT = (
    "1621af39e808a5ced64f51f4007e0c9035ec7753136dd968c4f43314f02ad889",
    546,
    (546, 30_000, 23_438, 574, True),
    "ee01f6ff60706bd41c93d55c337d17c174c73e485989a70bff8724b5e8b991e8",
)


def write_usp_file(path):
    # A 40,000-state file, cut to 30,000 by max_steps; the source runs out.
    states = trajectory_from_oracle(WALK, 3, master_seed=1, max_steps=40_000)
    path.write_text("\n".join(map(str, states)) + "\n")
    return path


def test_usp_file_fingerprint_is_pinned(tmp_path):
    path = write_usp_file(tmp_path / "trace.txt")
    assert usp_fingerprint(states_from_file(path, max_steps=30_000), 2100) == USP_FILE_FINGERPRINT


def test_usp_file_fingerprint_is_pinned_through_the_forked_reader(tmp_path, monkeypatch):
    # The trace is below the fork threshold, so only a threshold of 0 parses it in a child.
    path = write_usp_file(tmp_path / "trace.txt")
    monkeypatch.setattr(sampling, "FORK_READ_STATES", 0)
    assert usp_fingerprint(states_from_file(path, max_steps=30_000), 2100) == USP_FILE_FINGERPRINT
    assert multiprocessing.active_children() == []


def test_usp_oracle_fingerprint_is_pinned():
    # Stops at the requested segment count, before the source runs out.
    source = trajectory_from_oracle(WALK, 0, master_seed=2, max_steps=60_000)
    assert usp_fingerprint(source, 800) == (
        "3fab6b136a3534b20fd6d5fecc3f6ac3453aaed5a66475fbbdb9fbca324b0618",
        800,
        (800, 45_321, 35_720, 621, False),
        "0d0c4501ad60e7302936c4f3a491d9998cfeab0de4ac31ff179ddcad7e33849e",
    )
