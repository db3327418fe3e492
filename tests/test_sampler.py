"""Sampling layer: the simulator's generation step against brute-force
convolution oracles, its promotion rule and log step, atom and immigration
inversion, stream keys."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from bpire import (
    PROMOTION_THRESHOLD,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    RngStream,
    ShiftedGeometric,
    ShiftedPoisson,
    simulate_walk_batch,
)
from bpire.sampler import (
    atom_cumulative,
    immigration_cdf_table,
    rekey_generator,
)
from bpire.trajectory import _immigration_counts, _population
from conftest import make_env_a, one_atom_tables, one_generation_totals

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
    totals = one_generation_totals(law, z, 2024, draws)
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


def _log_step(z: float, law, g: float) -> float:
    """log(z*m + g*sqrt(z*v)), the log of a Gaussian generation total."""
    return math.log(z * law.mean + g * math.sqrt(z * law.variance))


def test_count_promotion_rule():
    # Immigrants into an empty population fix generation 1 exactly.  At
    # 1023 < 2**10 generation 2 is an exact step drawn on demand; at 1024
    # the population is in log space for good and steps with the pre-drawn
    # normals only, so the stream is never touched.
    t = 2**10
    law = ShiftedPoisson(lam=1.0)
    tab = one_atom_tables(law)
    for y0, promoted in ((1023, False), (1024, True)):
        gen = Generator(Philox(key=[3, 0]))
        out = _population(0, gen, [0, 0, 0], [0.0, 1.7, -0.4], [y0, 0, 0], tab, t, [1, 2, 3])
        assert out[0] == math.log(y0)
        untouched = gen.random() == Generator(Philox(key=[3, 0])).random()
        assert untouched is promoted
        if promoted:
            assert out[1] == pytest.approx(_log_step(y0, law, 1.7), rel=1e-14)
            assert out[2] == pytest.approx(_log_step(math.exp(out[1]), law, -0.4), rel=1e-14)
        else:  # every individual leaves at least one child
            assert round(math.exp(out[1])) >= 2 * y0


def test_sample_poisson_exact_regime_distribution():
    # one exact generation from one ShiftedPoisson(3) individual: 1 + Poisson(3)
    vals = one_generation_totals(ShiftedPoisson(lam=3.0), 1, 5, 50_000) - 1
    assert vals.mean() == pytest.approx(3.0, abs=5 * math.sqrt(3.0 / 50_000))


def test_sample_poisson_gaussian_tail_band():
    # 2**39 parents with lam = 2**11: the Poisson mean 2**50 is above the
    # threshold, so the excess is mean + sqrt(mean) * G and the total promotes
    z, lam = 2**39, 2.0**11
    mean = z * lam
    law = ShiftedPoisson(lam=lam)
    tab = one_atom_tables(law)
    gen = Generator(Philox(key=[7, 0]))
    for _ in range(200):
        log_z1, log_z2 = _population(z, gen, [0, 0], [0.0, 0.0], [0, 0], tab, 2**40, [1, 2])
        dev = (math.exp(log_z1) - z - mean) / math.sqrt(mean)
        assert abs(dev) < 8.0
        # promoted: generation 2 is the log step with G = 0
        assert log_z2 == log_z1 + math.log(law.mean)


def test_offspring_total_log_regime_matches_direct_formula():
    law = ShiftedPoisson(lam=1.0)  # m = 2, v = 1
    tab = one_atom_tables(law)
    g = float(Generator(Philox(key=[11, 0])).standard_normal())
    z = 10**9
    out = _population(0, Generator(Philox(key=[11, 1])), [0, 0], [0.0, g], [z, 0], tab,
                      2**20, [1, 2])
    expected = (
        math.log(z) + math.log(law.mean)
        + math.log1p(g * math.sqrt(law.variance) * math.exp(-0.5 * math.log(z)) / law.mean)
    )
    assert out[1] == pytest.approx(expected, rel=1e-12)
    assert abs(g) < 8.0


def test_gaussian_log_step_algebra():
    # log(z*m + g*sqrt(z*v)) computed stably in log space
    law = ShiftedPoisson(lam=1.0)  # m = 2, v = 1
    z, g = 10**6, 1.7
    out = _population(0, Generator(Philox(key=[0, 0])), [0, 0], [0.0, g], [z, 0],
                      one_atom_tables(law), 2**10, [2])
    assert out[0] == pytest.approx(_log_step(z, law, g), rel=1e-14)


def test_stream_rejects_out_of_range_keys():
    with pytest.raises(ValueError):
        RngStream(master_seed=-1, stream_id=0)
    with pytest.raises(ValueError):
        RngStream(master_seed=0, stream_id=2**64)


def test_rekey_matches_fresh_stream():
    gen = Generator(Philox(key=[1, 0]))
    gen.random(17)  # drift the state before rekeying
    rekey_generator(gen, 99, 123)
    fresh = Generator(Philox(key=[99, 123]))
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
    # S_1 is log 2 or log 3: the log-mean of the atom of generation 0
    s1 = simulate_walk_batch(make_env_a(), 1, 20_000, master_seed=3).s_at(1)
    draws = np.searchsorted([math.log(2.0), math.log(3.0)], s1)
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
    gen = Generator(Philox(key=[13, 0]))

    def counts(law):
        tab = one_atom_tables(ShiftedPoisson(lam=1.0), law)
        return _immigration_counts(tab, np.zeros(20_000, dtype=np.int64), gen.random(20_000))

    assert not counts(NoImmigration()).any()
    pois = counts(PoissonImmigration(nu=2.0))
    assert pois.mean() == pytest.approx(2.0, abs=5 * math.sqrt(2.0 / 20_000))
    geo = counts(GeometricImmigration(s=0.5))
    # mean (1-s)/s = 1
    assert geo.mean() == pytest.approx(1.0, abs=5 * math.sqrt(2.0 / 20_000))
    assert geo.min() >= 0


def test_default_threshold_is_2_to_40():
    assert PROMOTION_THRESHOLD == 2**40
