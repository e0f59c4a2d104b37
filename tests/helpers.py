"""Test doubles shared by several test modules."""

import numpy as np

from specgap.chains import TabularSampler


class ScalarOnly:
    """Hides the vectorized kernel so the engines take the next_state path."""

    def __init__(self, inner):
        self.inner = inner

    def state_space_size(self):
        return self.inner.state_space_size()

    def next_state(self, x, rng):
        return self.inner.next_state(x, rng)


class FixedTargets:
    """Deterministic target sequence standing in for the uniform sampler on ``size`` states."""

    def __init__(self, targets, size=10):
        self.targets = iter(targets)
        self.size = size

    def sample(self, rng):
        return next(self.targets)

    def pmf(self, x):
        return 1.0 / self.size

    def min_pmf(self):
        return 1.0 / self.size


def odd_heavy(size):
    """Start pmf that puts twice the mass on each odd state as on each even one."""
    weights = np.where(np.arange(size) % 2 == 1, 2.0, 1.0)
    return TabularSampler(weights / weights.sum())
