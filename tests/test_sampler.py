"""Sampling layer: closed-form generation aggregation against brute-force
convolution oracles, count promotion, stream reproducibility."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from bpire import (
    PROMOTION_THRESHOLD,
    Count,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    RngStream,
    ShiftedGeometric,
    ShiftedPoisson,
    sample_atom,
    sample_immigration,
    sample_offspring_total,
    sample_poisson,
)
from bpire.sampler import (
    atom_cumulative,
    gaussian_log_step,
    immigration_cdf_table,
    rekey_generator,
)
from conftest import make_env_a

# Truncation length for single-individual excess pmfs in the convolution
# oracle; the neglected tail is ~1e-31 or smaller for every law below.
_SUPPORT = 200


def _single_excess_pmf(law) -> np.ndarray:
    """pmf of X - 1 on {0, ..., _SUPPORT} for one individual."""
    k = np.arange(_SUPPORT + 1)
    if isinstance(law, ShiftedPoisson):
        return stats.poisson.pmf(k, law.lam)
    if isinstance(law, ShiftedGeometric):
        # excess is the failure count before the first success
        return law.q * (1.0 - law.q) ** k
    raise TypeError(law)


def _aggregate_excess_pmf(law, z: int, size: int) -> np.ndarray:
    """Closed-form pmf of (total offspring of z individuals) - z."""
    k = np.arange(size)
    if isinstance(law, ShiftedPoisson):
        return stats.poisson.pmf(k, z * law.lam)
    if isinstance(law, ShiftedGeometric):
        return stats.nbinom.pmf(k, z, law.q)
    raise TypeError(law)


LAWS = [
    ShiftedPoisson(lam=0.5),
    ShiftedPoisson(lam=1.0),
    ShiftedGeometric(q=0.3),
    ShiftedGeometric(q=0.5),
]


@pytest.mark.parametrize("law", LAWS, ids=str)
@pytest.mark.parametrize("z", [2, 3, 4, 5, 6])
def test_aggregate_pmf_matches_convolution(law, z):
    single = _single_excess_pmf(law)
    conv = single.copy()
    for _ in range(z - 1):
        conv = np.convolve(conv, single)
    closed = _aggregate_excess_pmf(law, z, conv.size)
    assert conv.sum() >= 1.0 - 1e-12  # truncated support covers the law
    tv = 0.5 * np.abs(conv - closed).sum()
    assert tv < 1e-10


@pytest.mark.parametrize(
    "law", [ShiftedPoisson(lam=1.0), ShiftedGeometric(q=0.3)], ids=str
)
def test_aggregate_draws_pass_chi_square(law):
    z = 4
    draws = 100_000
    rng = RngStream(master_seed=2024, stream_id=0)
    totals = np.array(
        [sample_offspring_total(z, law, rng).value for _ in range(draws)]
    )
    assert totals.min() >= z  # every individual leaves at least one child
    excess = totals - z

    expected = _aggregate_excess_pmf(law, z, int(excess.max()) + 50) * draws
    observed = np.bincount(excess, minlength=expected.size)
    # cut at the first expected count below 5 (the pmf tail is decreasing)
    # and merge everything beyond into one cell, shrinking further if the
    # merged cell itself holds fewer than 5 expected counts
    cut = int(np.argmax(expected < 5.0))
    while cut > 1 and draws - expected[:cut].sum() < 5.0:
        cut -= 1
    obs = np.append(observed[:cut], draws - observed[:cut].sum())
    exp = np.append(expected[:cut], draws - expected[:cut].sum())
    assert (exp >= 5.0).all()
    _, pvalue = stats.chisquare(obs, exp)
    assert pvalue > 1e-3


def test_count_promotion_rule():
    t = 2**10
    small = Count.of(1023, threshold=t)
    big = Count.of(1024, threshold=t)
    assert small.is_exact and small.value == 1023
    assert not big.is_exact
    assert big.log == pytest.approx(math.log(1024.0))
    assert float(small) == 1023.0
    assert float(big) == pytest.approx(1024.0)


def test_sample_poisson_exact_regime_distribution():
    rng = RngStream(master_seed=5, stream_id=0)
    vals = np.array([sample_poisson(3.0, rng).value for _ in range(50_000)])
    assert vals.mean() == pytest.approx(3.0, abs=5 * math.sqrt(3.0 / 50_000))


def test_sample_poisson_gaussian_tail_band():
    # far above the promotion threshold the draw is mean + sqrt(mean) * G
    mean = 2.0**50
    rng = RngStream(master_seed=7, stream_id=0)
    for _ in range(200):
        c = sample_poisson(mean, rng)
        assert not c.is_exact
        dev = (math.exp(c.log) - mean) / math.sqrt(mean)
        assert abs(dev) < 8.0


def test_sample_poisson_rejects_bad_mean():
    rng = RngStream(master_seed=0, stream_id=0)
    with pytest.raises(ValueError):
        sample_poisson(-1.0, rng)
    with pytest.raises(ValueError):
        sample_poisson(math.inf, rng)


def test_offspring_total_log_regime_matches_direct_formula():
    law = ShiftedPoisson(lam=1.0)  # m = 2, v = 1
    z = Count.from_log(math.log(1e9))
    rng = RngStream(master_seed=11, stream_id=0)
    out = sample_offspring_total(z, law, rng, threshold=2**20)
    assert not out.is_exact
    # reconstruct: the one normal consumed by the step
    g = (math.exp(out.log - z.log) - law.mean) * math.sqrt(1e9 / law.variance)
    expected = gaussian_log_step(
        z.log, law.mean, math.sqrt(law.variance), g
    )
    assert out.log == pytest.approx(expected, rel=1e-12)
    assert abs(g) < 8.0


def test_gaussian_log_step_algebra():
    # log(z*m + g*sqrt(z*v)) computed stably in log space
    z = 1e6
    m, v, g = 2.0, 1.0, 1.7
    direct = math.log(z * m + g * math.sqrt(z * v))
    assert gaussian_log_step(math.log(z), m, math.sqrt(v), g) == pytest.approx(
        direct, rel=1e-14
    )


def test_stream_reproducibility_and_independence():
    a = RngStream(master_seed=42, stream_id=3).generator.random(8)
    b = RngStream(master_seed=42, stream_id=3).generator.random(8)
    c = RngStream(master_seed=42, stream_id=4).generator.random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rejects_out_of_range_keys():
    with pytest.raises(ValueError):
        RngStream(master_seed=-1, stream_id=0)
    with pytest.raises(ValueError):
        RngStream(master_seed=0, stream_id=2**64)


def test_rekey_matches_fresh_stream():
    gen = RngStream(master_seed=1, stream_id=0).generator
    gen.random(17)  # drift the state before rekeying
    rekey_generator(gen, 99, 123)
    fresh = RngStream(master_seed=99, stream_id=123).generator
    np.testing.assert_array_equal(gen.random(16), fresh.random(16))
    np.testing.assert_array_equal(
        gen.standard_normal(16), fresh.standard_normal(16)
    )
    # Substream 1 starts at the highest counter word.
    rekey_generator(gen, 99, 123, substream=1)
    fresh = Generator(Philox(key=[99, 123], counter=[0, 0, 0, 1]))
    np.testing.assert_array_equal(gen.random(16), fresh.random(16))
    np.testing.assert_array_equal(
        gen.standard_normal(16), fresh.standard_normal(16)
    )


def test_atom_cumulative_ends_at_one():
    env = make_env_a()
    cum = atom_cumulative(env)
    assert cum[-1] == 1.0
    assert np.all(np.diff(cum) > 0)


def test_sample_atom_frequencies():
    env = make_env_a()
    rng = RngStream(master_seed=3, stream_id=0)
    draws = np.array([sample_atom(env, rng) for _ in range(20_000)])
    assert set(draws) == {0, 1}
    # p = 1/2 each; 5 sigma band
    assert abs(draws.mean() - 0.5) < 5 * 0.5 / math.sqrt(20_000)


def test_immigration_cdf_table_matches_scipy():
    tab = immigration_cdf_table(PoissonImmigration(nu=1.0))
    ref = stats.poisson.cdf(np.arange(tab.size), 1.0)
    np.testing.assert_allclose(tab, ref, rtol=0, atol=1e-15)
    assert tab[-1] >= 1.0 - 1e-15  # table covers all but ~1e-18 of the mass

    tab = immigration_cdf_table(GeometricImmigration(s=0.4))
    ref = 1.0 - 0.6 ** (np.arange(tab.size) + 1.0)
    np.testing.assert_allclose(tab, ref, rtol=0, atol=1e-15)


def test_immigration_cdf_table_no_immigration():
    tab = immigration_cdf_table(NoImmigration())
    assert tab.size == 1
    assert tab[0] == 1.0


@pytest.mark.parametrize(
    "law, size",
    # Laws whose float CDF sum stalls a few ulps below 1.
    [(GeometricImmigration(s=0.25), 126), (PoissonImmigration(nu=1.5), 21)],
)
def test_immigration_cdf_table_stops_when_the_sum_stalls(law, size):
    tab = immigration_cdf_table(law)
    assert tab.size == size
    assert tab[-1] == 1.0
    assert np.all(np.diff(tab) > 0)


def test_poisson_immigration_rejects_underflowing_mean():
    assert immigration_cdf_table(PoissonImmigration(nu=708.0))[-1] == 1.0
    with pytest.raises(ValueError, match="normal double"):
        PoissonImmigration(nu=709.0)


def test_sample_immigration_means():
    rng = RngStream(master_seed=13, stream_id=0)
    assert sample_immigration(NoImmigration(), rng) == 0
    pois = np.array(
        [sample_immigration(PoissonImmigration(nu=2.0), rng) for _ in range(20_000)]
    )
    assert pois.mean() == pytest.approx(2.0, abs=5 * math.sqrt(2.0 / 20_000))
    geo = np.array(
        [sample_immigration(GeometricImmigration(s=0.5), rng) for _ in range(20_000)]
    )
    # mean (1-s)/s = 1
    assert geo.mean() == pytest.approx(1.0, abs=5 * math.sqrt(2.0 / 20_000))
    assert geo.min() >= 0


def test_default_threshold_is_2_to_40():
    assert PROMOTION_THRESHOLD == 2**40
