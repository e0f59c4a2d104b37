"""Markov chain models: black-box one-step simulators plus exact desk-scale oracles.

Every chain exposes the black-box interface (``state_space_size()`` /
``next_state(x, rng)``) used by the sampling engines, and the built-in
chains additionally expose a vectorized kernel ``step_with_uniforms`` that
advances a whole batch of states from pre-drawn uniforms (exactly
``uniforms_per_step`` per transition, consumed in step order, so scalar and
vectorized simulation see the same random stream).  The line chain's
kernel holds no table; the graph chain's holds one int64 table of
``2d + 1`` columns per state, built with the chain.  The graph and dense
chains and ``TabularSampler`` each own one read-only copy of their law
(the table, the matrix and its row cdfs, the pmf and its cdf), which
their scalar step, kernel, ``pmf`` and exact matrix all read; the line
chain's law is its frozen size and bias.

``SquaredChainOracle`` wraps a chain as its two-step chain, whose
eigenvalues are the squares of the chain's own (``sampling.estimate_nonlazy``).

For small chains the exact oracles (stationary distribution, full spectrum
via symmetrization, traces of matrix powers) provide the ground truth the
estimator is verified against.  States are 0-based dense integers
everywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .estimator import _require_integer

__all__ = [
    "TransitionOracle",
    "InitialSampler",
    "UniformSampler",
    "TabularSampler",
    "BiasedLineChain",
    "RegularGraphChain",
    "DenseMatrixChain",
    "SquaredChainOracle",
    "line_stationary",
    "exact_spectrum",
    "return_probability_curve",
    "generate_regular_graph",
    "load_matrix_chain",
    "save_matrix_chain",
]

#: Largest state space the dense exact oracles accept.
MAX_EXACT_STATES = 2000

#: Largest detailed-balance error ``exact_spectrum`` accepts.
REVERSIBILITY_TOL = 1e-8

#: Pairing-model attempts ``generate_regular_graph`` makes before giving up.
GRAPH_MAX_TRIES = 200


class TransitionOracle(Protocol):
    """One-step black-box simulator of a Markov chain."""

    def state_space_size(self) -> int: ...

    def next_state(self, x: int, rng: np.random.Generator) -> int: ...


class InitialSampler(Protocol):
    """Start-state sampler with a known probability mass function."""

    def sample(self, rng: np.random.Generator) -> int: ...

    def pmf(self, x: int) -> float: ...

    def min_pmf(self) -> float: ...


@dataclass(frozen=True)
class UniformSampler:
    """Uniform start states on {0, ..., size-1}.

    For ``2 <= size <= 2**32``, ``sample``'s draw is a function of its
    stream's first 64-bit word, unless both halves of that word are
    rejected (``sample_from_first_words``), so a vectorized block draws one
    raw word per path and maps the block's words at once.  Size 1 draws
    nothing and larger sizes draw whole 64-bit words, so those blocks call
    ``sample`` per path, as they do for any other sampler, subclasses of
    this one included.
    """

    size: int

    def __post_init__(self):
        _require_integer("size", self.size, 1)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.size))

    def sample_from_first_words(self, words: np.ndarray) -> np.ndarray:
        """Per fresh stream with first 64-bit word in ``words``, the start ``sample`` draws, or -1.

        For ``2 <= size <= 2**32``, numpy maps 32-bit draws to [0, size)
        with Lemire's multiply-and-reject method ("Fast Random Integer
        Generation in an Interval", ACM TOMACS 2019): a draw ``r`` gives
        ``(r * size) >> 32`` unless ``(r * size) mod 2**32`` lies below
        ``(2**32 - size) % size``, which rejects it.  A fresh stream's first
        32-bit draw is the low half of its first 64-bit word, and its second
        draw is the cached high half.  Both products fit in uint64, so the
        ``uint64`` ``words`` map in a few array operations.  A word whose two
        halves are both rejected, with probability at most
        ``((2**32 % size) / 2**32)**2``, gives -1: ``sample`` reads a third
        draw from the next word.  ``random`` reads whole words and skips the
        cached half, so the doubles after the start are the same either way.
        """
        n = int(self.size)  # a numpy integer size would overflow below
        if not 2 <= n <= 2**32:
            raise ValueError(f"size {n} does not draw its start from one 64-bit word")
        size, low, threshold = np.uint64(n), np.uint64(2**32 - 1), np.uint64((2**32 - n) % n)
        first, second = (words & low) * size, (words >> np.uint64(32)) * size
        m = np.where((first & low) >= threshold, first, second)
        starts = (m >> np.uint64(32)).astype(np.int64)
        starts[(m & low) < threshold] = -1
        return starts

    def pmf(self, x: int) -> float:
        return 1.0 / self.size if 0 <= x < self.size else 0.0

    def min_pmf(self) -> float:
        return 1.0 / self.size


class TabularSampler:
    """Start states drawn from an explicit strictly positive pmf vector.

    The sampler owns a read-only copy of the pmf, ``probabilities``, and of
    its cdf, so an edit to the caller's array changes neither ``pmf`` nor
    ``sample``, and ``probabilities`` cannot be written.
    """

    def __init__(self, probabilities):
        p = np.array(probabilities, dtype=float)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("probabilities must be a non-empty vector")
        if not np.isfinite(p).all():
            raise ValueError("all pmf entries must be finite")
        if p.min() <= 0.0:
            raise ValueError("all pmf entries must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1, got {p.sum()}")
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        p.flags.writeable = cdf.flags.writeable = False
        self.probabilities = p
        self._cdf = cdf
        self._cdf_list = cdf.tolist()

    def sample(self, rng: np.random.Generator) -> int:
        """The first state whose cdf exceeds one uniform draw.

        ``bisect_right`` over a list copy of the cdf makes the comparisons
        ``np.searchsorted(cdf, u, side="right")`` makes, so it returns the
        same index, without numpy's per-call overhead on a scalar.
        """
        return bisect.bisect_right(self._cdf_list, rng.random())

    def pmf(self, x: int) -> float:
        return float(self.probabilities[x]) if 0 <= x < len(self.probabilities) else 0.0

    def min_pmf(self) -> float:
        return float(self.probabilities.min())


# ---------------------------------------------------------------------------
# Concrete chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasedLineChain:
    """Lazy biased walk on {0, ..., size-1}.

    Interior states stay with probability 1/2, move right with (1-bias)/2
    and left with bias/2; at the ends the blocked move folds into the
    self-loop, which keeps the chain lazy and reversible.
    """

    size: int
    bias: float

    uniforms_per_step = 1

    def __post_init__(self):
        _require_integer("size", self.size, 2)
        if not 0.0 < self.bias < 1.0:
            raise ValueError("bias must lie strictly between 0 and 1")

    def state_space_size(self) -> int:
        return self.size

    def next_state(self, x: int, rng: np.random.Generator) -> int:
        return self._move(x, rng.random())

    def _move(self, x: int, u: float) -> int:
        if u < 0.5:
            return x
        if u < 0.5 + (1.0 - self.bias) / 2.0:
            return min(x + 1, self.size - 1)
        return max(x - 1, 0)

    def step_with_uniforms(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """``_move`` on every state, bit for bit, without writing ``xs``.

        A draw at or above 1/2 adds one and a draw at or above the left
        threshold takes two back; the sum is then clamped in place.  No
        per-state table is held, so memory does not grow with ``size``.
        """
        u = us[:, 0]
        out = xs + (u >= 0.5)
        out -= 2 * (u >= 0.5 + (1.0 - self.bias) / 2.0)
        np.maximum(out, 0, out=out)
        np.minimum(out, self.size - 1, out=out)
        return out

    def stationary_distribution(self) -> np.ndarray:
        return line_stationary(self.size, self.bias)

    def transition_matrix(self) -> np.ndarray:
        n, p = self.size, self.bias
        P = np.zeros((n, n))
        for x in range(n):
            P[x, x] = 0.5
            if x + 1 < n:
                P[x, x + 1] = (1.0 - p) / 2.0
            else:
                P[x, x] += (1.0 - p) / 2.0
            if x - 1 >= 0:
                P[x, x - 1] = p / 2.0
            else:
                P[x, x] += p / 2.0
        return P


@dataclass(frozen=True)
class RegularGraphChain:
    """Lazy walk on a simple connected d-regular graph.

    Stays put with probability 1/2, otherwise moves to one of the d
    neighbors uniformly.  ``neighbors`` is a (size, degree) integer array
    with entries in [0, size); ``seed`` records how the graph was
    generated.  No reader needs the graph to be simple or symmetric, so
    any such table is accepted: a neighbour listed r times in a row is
    moved to with probability r/(2d) by ``next_state``, the kernel and
    ``transition_matrix`` alike.

    The chain copies ``neighbors`` once, into a C-contiguous, read-only
    int64 table of ``2 * degree + 1`` columns: row x holds x in columns
    0..d-1 (the hold), ``neighbors[x]`` in columns d..2d-1 and
    ``neighbors[x, d-1]`` again in column 2d.  Afterwards ``neighbors`` is
    a read-only view of columns d..2d-1.  ``next_state`` and the kernel
    pick a column by one rule, and ``transition_matrix`` adds 1/(2d) per
    neighbour column; ``dataclasses.replace(chain, neighbors=other)``
    builds a chain on another table.
    """

    size: int
    degree: int
    neighbors: np.ndarray = field(repr=False)
    seed: int = 0

    uniforms_per_step = 1

    def __post_init__(self):
        _require_integer("size", self.size, 1)
        _require_integer("degree", self.degree, 1)
        neighbors = np.asarray(self.neighbors)
        if neighbors.dtype.kind not in "iu":
            raise TypeError(f"neighbors must be an integer array, not {neighbors.dtype}")
        size, d = int(self.size), int(self.degree)
        if neighbors.shape != (size, d):
            raise ValueError(f"neighbors must have shape ({size}, {d}), not {neighbors.shape}")
        outside = np.argwhere((neighbors < 0) | (neighbors >= size))
        if len(outside):
            x, j = outside[0]
            raise ValueError(f"neighbors[{x}, {j}] = {neighbors[x, j]} lies outside [0, {size})")
        table = np.empty((size, 2 * d + 1), dtype=np.int64)
        table[:, :d] = np.arange(size)[:, None]
        table[:, d : 2 * d] = neighbors
        table[:, 2 * d] = neighbors[:, d - 1]
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "neighbors", table[:, d : 2 * d])

    def __reduce__(self):
        # A copy or a pickle rebuilds the table, so its neighbors stay a view of it.
        return type(self), (self.size, self.degree, self.neighbors, self.seed)

    def state_space_size(self) -> int:
        return self.size

    def next_state(self, x: int, rng: np.random.Generator) -> int:
        d = self.degree
        return int(self._table[x, d + math.floor((rng.random() - 0.5) * (2.0 * d))])

    def step_with_uniforms(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """``next_state`` on every state, bit for bit, without writing ``xs``.

        Each state takes column ``floor((u - 0.5) * 2d) + d`` of its table
        row in one gather, by the same IEEE operations in the same order as
        ``next_state``.  That column follows the chain's law:

        - for u < 1/2, ``u - 0.5`` is a nonzero difference of two distinct
          doubles, so t = ``(u - 0.5) * (2.0 * d)`` lies in [-d, 0) and
          never rounds to 0: ``floor`` lands in the hold columns 0..d-1
          (truncation would send t in (-1, 0) to neighbour 0);
        - for u in [1/2, 1), t lies in [0, d), so column d + j holds
          neighbour j with probability 1/(2d) each, and u = 1.0 lands in
          column 2d, which repeats neighbour d - 1.
        """
        d = self.degree
        t = us[:, 0] - 0.5
        t *= 2.0 * d
        np.floor(t, out=t)
        j = xs * (2 * d + 1)
        j += t.astype(np.int64)
        j += d
        return self._table.take(j)

    def stationary_distribution(self) -> np.ndarray:
        return np.full(self.size, 1.0 / self.size)

    def transition_matrix(self) -> np.ndarray:
        P = np.zeros((self.size, self.size))
        np.fill_diagonal(P, 0.5)
        # add.at adds once per neighbour column, as the kernel steps, so a repeated neighbour adds twice.
        np.add.at(P, (np.arange(self.size)[:, None], self.neighbors), 0.5 / self.degree)
        return P


class DenseMatrixChain:
    """Chain defined by an explicit row-stochastic matrix (verification fixture).

    Simulation only needs row-stochasticity; reversibility is checked
    lazily, when exact oracles are requested.  The chain owns a read-only
    copy of the matrix, ``matrix``, and of its row cdfs: ``next_state``,
    the kernel and ``transition_matrix()``, which returns ``matrix``
    itself, read them alone, so an edit to the caller's array reaches
    none of them.  The stationary distribution, computed once, is
    read-only too.
    """

    uniforms_per_step = 1

    def __init__(self, matrix):
        P = np.array(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise ValueError("matrix must be square and non-empty")
        if not np.isfinite(P).all():
            raise ValueError("matrix entries must be finite")
        if P.min() < 0.0:
            raise ValueError("matrix entries must be non-negative")
        rowsum_err = np.abs(P.sum(axis=1) - 1.0).max()
        if rowsum_err > 1e-10:
            raise ValueError(f"rows must sum to 1 (max deviation {rowsum_err:.2e})")
        cdf = np.cumsum(P, axis=1)
        cdf[:, -1] = 1.0
        P.flags.writeable = cdf.flags.writeable = False
        self.matrix = P
        self._cdf = cdf
        self._stationary = None

    def state_space_size(self) -> int:
        return len(self.matrix)

    def next_state(self, x: int, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self._cdf[x], rng.random(), side="right"))

    def step_with_uniforms(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        # (batch, |S|) comparison; dense chains are desk-scale by construction.
        return (us[:, 0][:, None] < self._cdf[xs]).argmax(axis=1)

    def stationary_distribution(self) -> np.ndarray:
        if self._stationary is None:
            n = len(self.matrix)
            A = np.vstack([self.matrix.T - np.eye(n), np.ones(n)])
            b = np.zeros(n + 1)
            b[-1] = 1.0
            pi, *_ = np.linalg.lstsq(A, b, rcond=None)
            if pi.min() <= 0.0:
                raise ValueError("stationary distribution is not strictly positive")
            pi /= pi.sum()
            pi.flags.writeable = False
            self._stationary = pi
        return self._stationary

    def transition_matrix(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class SquaredChainOracle:
    """Simulates the two-step chain: each transition makes exactly two inner calls."""

    inner: TransitionOracle

    def state_space_size(self) -> int:
        return self.inner.state_space_size()

    def next_state(self, x: int, rng: np.random.Generator) -> int:
        return self.inner.next_state(self.inner.next_state(x, rng), rng)

    @property
    def uniforms_per_step(self) -> int:
        # AttributeError propagates when the inner oracle is scalar-only,
        # which correctly demotes this wrapper to the scalar path too.
        return 2 * self.inner.uniforms_per_step

    def step_with_uniforms(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        half = self.inner.uniforms_per_step
        mid = self.inner.step_with_uniforms(xs, us[:, :half])
        return self.inner.step_with_uniforms(mid, us[:, half:])


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def line_stationary(size: int, p: float) -> np.ndarray:
    """Stationary distribution of the biased line walk.

    Proportional to ((1-p)/p)^x for x = 0..size-1; uniform at p = 1/2.
    """
    _require_integer("size", size, 2)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if p == 0.5:
        return np.full(size, 1.0 / size)
    ratio = 1.0 / p - 1.0
    weights = ratio ** np.arange(size)
    return weights / weights.sum()


def _check_desk_scale(n: int) -> None:
    if n > MAX_EXACT_STATES:
        raise ValueError(f"exact oracles support at most {MAX_EXACT_STATES} states, got {n}")


def exact_spectrum(chain) -> np.ndarray:
    """Eigenvalues of the chain's transition matrix, sorted descending.

    Requires reversibility: the matrix is similarity-transformed with the
    square root of the stationary distribution into a symmetric matrix and
    handed to a dense symmetric eigensolver, which guarantees a real
    spectrum.  Raises if detailed balance fails beyond ``REVERSIBILITY_TOL``
    or the leading eigenvalue is not 1.  A chain of more than
    ``MAX_EXACT_STATES`` states raises ``ValueError`` before its matrix is
    built.
    """
    _check_desk_scale(chain.state_space_size())
    P = chain.transition_matrix()
    pi = chain.stationary_distribution()
    if pi.min() <= 0.0:
        raise ValueError("stationary distribution must be strictly positive")
    flows = pi[:, None] * P
    balance_err = np.abs(flows - flows.T).max()
    if balance_err > REVERSIBILITY_TOL:
        raise ValueError(f"chain is not reversible (detailed-balance error {balance_err:.2e})")
    d = np.sqrt(pi)
    S = P * (d[:, None] / d[None, :])
    eigenvalues = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]
    if abs(eigenvalues[0] - 1.0) > 1e-8:
        raise ValueError(f"leading eigenvalue is {eigenvalues[0]}, expected 1")
    return eigenvalues


def return_probability_curve(chain, max_k: int) -> np.ndarray:
    """Exact k-step return probabilities m_k = tr(P^k)/|S| for k = 1..max_k.

    As in ``exact_spectrum``, a chain of more than ``MAX_EXACT_STATES``
    states raises ``ValueError`` before its matrix is built.
    """
    _require_integer("max_k", max_k, 1)
    _check_desk_scale(chain.state_space_size())
    P = chain.transition_matrix()
    n = len(P)
    out = np.empty(max_k)
    M = P.copy()
    out[0] = np.trace(M) / n
    for k in range(1, max_k):
        M = M @ P
        out[k] = np.trace(M) / n
    return out


# ---------------------------------------------------------------------------
# Random regular graphs
# ---------------------------------------------------------------------------


def _pair_stubs(size: int, degree: int, rng: np.random.Generator):
    """One pairing-model attempt; returns an edge set or None on failure.

    Clashing stubs (loops or repeated pairs) are re-shuffled among
    themselves until none remain or no valid pairing of the leftovers
    exists, which keeps the rejection rate workable at higher degrees.
    """
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(size), degree)
    for _ in range(1000):
        if not len(stubs):
            break
        rng.shuffle(stubs)
        leftovers = []
        for s1, s2 in zip(stubs[0::2], stubs[1::2]):
            a, b = (int(s1), int(s2)) if s1 < s2 else (int(s2), int(s1))
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                leftovers.extend((a, b))
        if len(leftovers) == len(stubs):
            # Shuffling can no longer make progress if every leftover pair clashes.
            candidates = set(leftovers)
            if not any(
                a != b and (min(a, b), max(a, b)) not in edges
                for a in candidates
                for b in candidates
            ):
                return None
        stubs = np.array(leftovers, dtype=np.int64)
    if len(stubs):
        return None
    return edges


def _is_connected(size: int, neighbors: np.ndarray) -> bool:
    seen = np.zeros(size, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        x = stack.pop()
        for y in neighbors[x]:
            if not seen[y]:
                seen[y] = True
                stack.append(int(y))
    return bool(seen.all())


def generate_regular_graph(size: int, degree: int, seed: int) -> RegularGraphChain:
    """Sample a simple connected d-regular graph via the pairing model.

    Loops and multi-edges are rejected and re-drawn; disconnected samples
    are regenerated.  Deterministic given ``seed``.  Raises RuntimeError
    when ``GRAPH_MAX_TRIES`` attempts all fail (vanishingly unlikely at the
    moderate sizes this targets).
    """
    if degree < 1 or degree >= size:
        raise ValueError("degree must satisfy 1 <= degree < size")
    if (size * degree) % 2 != 0:
        raise ValueError("size * degree must be even (handshake lemma)")
    rng = np.random.default_rng(seed)
    for _ in range(GRAPH_MAX_TRIES):
        edges = _pair_stubs(size, degree, rng)
        if edges is None:
            continue
        neighbors = np.full((size, degree), -1, dtype=np.int64)
        fill = np.zeros(size, dtype=np.int64)
        for a, b in sorted(edges):
            neighbors[a, fill[a]] = b
            fill[a] += 1
            neighbors[b, fill[b]] = a
            fill[b] += 1
        if not _is_connected(size, neighbors):
            continue
        return RegularGraphChain(size=size, degree=degree, neighbors=neighbors, seed=seed)
    raise RuntimeError(
        f"could not generate a simple connected {degree}-regular graph on {size} "
        f"vertices after {GRAPH_MAX_TRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Dense-matrix file format
# ---------------------------------------------------------------------------


def load_matrix_chain(path) -> DenseMatrixChain:
    """Read a dense chain: first line |S|, then |S| rows of probabilities, then blank lines only."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            n = int(header)
        except ValueError:
            raise ValueError(f"first line must be the state count, got {header!r}") from None
        rows = []
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"expected {n} matrix rows, file ended after {i}")
            row = [float(tok) for tok in line.split()]
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            rows.append(row)
        for extra, line in enumerate(fh, n + 2):
            if line.strip():
                raise ValueError(f"line {extra}: expected only blank lines after the {n} rows")
    return DenseMatrixChain(rows)


def save_matrix_chain(chain: DenseMatrixChain, path) -> None:
    """Write a dense chain in the format `load_matrix_chain` reads."""
    P = chain.transition_matrix()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(P)}\n")
        for row in P:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
