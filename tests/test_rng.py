"""SplitMix64 against the reference test vectors.

The first three outputs for seed 0 are the published values from the
reference C implementation (they also appear in the xoshiro seeding
notes), so agreement here means the recurrence is the canonical one and
not merely self-consistent.
"""

import math
import sys

import pytest

from twotier.rng import MAX_POISSON_RATE, SplitMix64, derive_seed

REFERENCE_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_reference_vectors_seed_zero():
    rng = SplitMix64(0)
    assert tuple(rng.next_raw() for _ in range(3)) == REFERENCE_SEED0


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_raw() for _ in range(100)] == [b.next_raw() for _ in range(100)]


def test_random_in_unit_interval():
    rng = SplitMix64(3)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity sanity: mean within 5 sigma of 1/2
    assert abs(sum(values) / len(values) - 0.5) < 5 * (1 / math.sqrt(12 * 1000))


def test_uniform_respects_bounds():
    rng = SplitMix64(4)
    for _ in range(500):
        v = rng.uniform(-2.5, 7.0)
        assert -2.5 <= v < 7.0


def test_poisson_zero_rate_and_mean():
    rng = SplitMix64(6)
    assert rng.poisson(0.0) == 0
    draws = [rng.poisson(3.0) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    # mean 3, sd sqrt(3)/sqrt(2000) ~ 0.039; allow 5 sigma
    assert abs(mean - 3.0) < 0.2


def test_poisson_at_the_rate_bound_draws_its_mean():
    # exp(-rate) is still a normal double at the bound, so the draws
    # centre on the rate: sd sqrt(700)/sqrt(50) ~ 3.7; allow 5 sigma
    rng = SplitMix64(6)
    assert math.exp(-MAX_POISSON_RATE) >= sys.float_info.min
    draws = [rng.poisson(MAX_POISSON_RATE) for _ in range(50)]
    assert abs(sum(draws) / len(draws) - MAX_POISSON_RATE) < 19


@pytest.mark.parametrize("rate", [-1.0, -math.inf])
def test_poisson_negative_rate_rejected(rate):
    with pytest.raises(ValueError, match="^poisson rate must be >= 0$"):
        SplitMix64(6).poisson(rate)


@pytest.mark.parametrize("rate", [math.nextafter(MAX_POISSON_RATE, math.inf), 800.0, 1e6])
def test_poisson_rate_above_the_bound_rejected(rate):
    # above ~745 exp(-rate) is 0 and every draw would come out near 745
    with pytest.raises(ValueError, match="poisson rate must be <= 700"):
        SplitMix64(6).poisson(rate)


def test_derive_seed_is_order_free():
    # child seeds depend only on (seed, stream), not on call order
    forward = [derive_seed(42, s) for s in range(5)]
    backward = [derive_seed(42, s) for s in reversed(range(5))]
    assert forward == list(reversed(backward))
    assert len(set(forward)) == 5


def test_derive_seed_matches_raw_stream():
    # child k is by construction the (k+1)-th raw output of SplitMix64(seed)
    rng = SplitMix64(42)
    assert [rng.next_raw() for _ in range(3)] == [derive_seed(42, s) for s in range(3)]
