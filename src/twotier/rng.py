"""Portable deterministic random number generation.

Reproducibility across runs, platforms, and language runtimes is a hard
requirement for the synthetic-data generator and for network weight
initialization, so this module implements a fixed, documented recurrence
instead of delegating to a host RNG whose stream may change between
library versions.

The generator is SplitMix64 (Steele, Lea & Flood; also the seeder used by
xoshiro). State update and output finalizer, all in 64-bit wrapping
arithmetic:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Floats are formed from the top 53 bits, giving uniform doubles in [0, 1).
"""

from __future__ import annotations

import math

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator with a fixed published recurrence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        """Next 64-bit output word."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _finalize(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_raw() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high)."""
        return low + (high - low) * self.random()

    def poisson(self, lam: float) -> int:
        """Poisson sample via Knuth's product-of-uniforms method.

        Exact and portable for the small rates used here (events/day);
        runtime grows with lam, so keep lam modest.
        """
        if lam < 0:
            raise ValueError("poisson rate must be >= 0")
        if lam == 0:
            return 0
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= threshold:
                return k
            k += 1


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic child seed for substream `stream` (0, 1, 2, ...).

    Child k is the (k+1)-th raw output of SplitMix64(seed), so distinct
    streams get decorrelated, order-independent seeds.
    """
    return _finalize((seed + _GOLDEN * (stream + 1)) & _MASK64)
