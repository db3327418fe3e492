"""Sampling layer: the simulator's generation step against brute-force
convolution oracles, its promotion rule and log step, atom and immigration
inversion, stream keys."""

import math

import numpy as np
import pytest
from numpy.random import PCG64DXSM, Generator, Philox, SeedSequence
from scipy import stats

from bpire import (
    PROMOTION_THRESHOLD,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    hypothesis_report,
    simulate_batch,
    simulate_walk_batch,
)
from bpire.env_model import (
    GEOMETRIC_S_MIN,
    MAX_IMMIGRATION_TABLE_ENTRIES,
    EnvAtom,
    EnvironmentModel,
)
from bpire.sampler import atom_cumulative, immigration_cdf_table, substream
import bpire.trajectory as trajectory
from bpire.trajectory import _EnvTables, _Inverse
from conftest import (
    make_env_a,
    make_mixed_env,
    one_atom_tables,
    one_generation_totals,
    population_path,
)

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
        out = population_path(0, gen, [0, 0, 0], [0.0, 1.7, -0.4], [y0, 0, 0], tab, t, [1, 2, 3])
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
        log_z1, log_z2 = population_path(z, gen, [0, 0], [0.0, 0.0], [0, 0], tab, 2**40, [1, 2])
        dev = (math.exp(log_z1) - z - mean) / math.sqrt(mean)
        assert abs(dev) < 8.0
        # promoted: generation 2 is the log step with G = 0
        assert log_z2 == log_z1 + math.log(law.mean)


def test_offspring_total_log_regime_matches_direct_formula():
    law = ShiftedPoisson(lam=1.0)  # m = 2, v = 1
    tab = one_atom_tables(law)
    g = float(Generator(Philox(key=[11, 0])).standard_normal())
    z = 10**9
    out = population_path(0, Generator(Philox(key=[11, 1])), [0, 0], [0.0, g], [z, 0], tab,
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
    out = population_path(0, Generator(Philox(key=[0, 0])), [0, 0], [0.0, g], [z, 0],
                      one_atom_tables(law), 2**10, [2])
    assert out[0] == pytest.approx(_log_step(z, law, g), rel=1e-14)


def test_stream_rejects_out_of_range_keys():
    # Key words are unsigned 64-bit ints: a float or a bool would be cast
    # (1.5 and True to seed 1), and a word outside the range would overflow
    # inside numpy.  A chunk's key is its first replicate, so a batch holds
    # at most 2**64 replicates, refused before any batch runs.
    env = make_env_a()
    top = 2**64
    for run in (simulate_batch, simulate_walk_batch):
        for keys, named in (
            ({"master_seed": 1.5}, "master_seed must be an int"),
            ({"master_seed": True}, "master_seed must be an int"),
            ({"master_seed": np.float64(3.0)}, "master_seed must be an int"),
            ({"master_seed": -1}, "master_seed must be an unsigned 64-bit integer"),
            ({"master_seed": top}, "master_seed must be an unsigned 64-bit integer"),
            ({"replicates": top + 1}, "replicates must be at most 2\\*\\*64"),
        ):
            with pytest.raises(ValueError, match=named):
                run(env, 2, **{"replicates": 4, "master_seed": 3, **keys})
        # the largest seed still runs
        run(env, 2, 4, master_seed=top - 1)
        # numpy integers pass as key words and are held as the same Python
        # ints
        wide = run(env, 2, 4, master_seed=np.int64(3))
        plain = run(env, 2, 4, master_seed=3)
        assert type(wide.master_seed) is int and wide.master_seed == plain.master_seed
        assert wide.s.tobytes() == plain.s.tobytes()
        if run is simulate_batch:
            assert wide.log_z.tobytes() == plain.log_z.tobytes()


def test_substream_is_a_seed_sequence_spawn_key():
    # Substream k of the key (seed, key) is PCG64DXSM seeded by the spawn
    # key (key, k) of SeedSequence(seed): child key's child k.
    top = 2**64 - 1
    for seed, key, k in ((99, 123, 0), (99, 123, 5), (top, 2**63 + 1, 3), (0, top, 0)):
        child = SeedSequence(seed).spawn(key + 1)[key] if key < 200 else SeedSequence(
            seed, spawn_key=(key,))
        fresh = Generator(PCG64DXSM(child.spawn(k + 1)[k]))
        gen = substream(seed, key, k)
        assert gen.bit_generator.seed_seq.spawn_key == (key, k)
        np.testing.assert_array_equal(gen.random(16), fresh.random(16))
        np.testing.assert_array_equal(gen.standard_normal(16), fresh.standard_normal(16))
    # every bit of a 64-bit word counts, in the seed, the key and the index
    first = {substream(*words).random() for words in (
        (top, 2**63 + 1, 0), (top, 2**63, 0), (top - 1, 2**63 + 1, 0), (top, 2**63 + 1, 1),
        (top, 2**63 + 1, 2**63), (top, 1, 0), (1, top, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0),
        (1, 0, 0))}
    assert len(first) == 11


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
    # Y = 0 almost surely goes through the same code as every other law
    for law in (NoImmigration(), PoissonImmigration(nu=0.0), GeometricImmigration(s=1.0)):
        assert immigration_cdf_table(law).tolist() == [1.0], law
        assert law.count.table_entries() == 1, law
        env = EnvironmentModel(atoms=(EnvAtom(offspring=ShiftedPoisson(lam=1.0),
                                              immigration=law, prob=1.0),))
        entry = hypothesis_report(env).entry("E(Y0/m0)^delta")
        assert (entry.value, entry.passed) == (0.0, True), law


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


def test_geometric_immigration_rejects_oversized_table():
    assert immigration_cdf_table(GeometricImmigration(s=GEOMETRIC_S_MIN)).size < 3 * 10**5
    with pytest.raises(ValueError, match="immigration table"):
        GeometricImmigration(s=GEOMETRIC_S_MIN / 2)


def test_sample_immigration_means():
    gen = Generator(Philox(key=[13, 0]))

    def counts(law):
        tab = one_atom_tables(ShiftedPoisson(lam=1.0), law)
        return tab.immigration(gen.random(20_000), np.zeros(20_000, dtype=np.int64))

    assert not counts(NoImmigration()).any()
    pois = counts(PoissonImmigration(nu=2.0))
    assert pois.mean() == pytest.approx(2.0, abs=5 * math.sqrt(2.0 / 20_000))
    geo = counts(GeometricImmigration(s=0.5))
    # mean (1-s)/s = 1
    assert geo.mean() == pytest.approx(1.0, abs=5 * math.sqrt(2.0 / 20_000))
    assert geo.min() >= 0


def test_default_threshold_is_2_to_20():
    assert PROMOTION_THRESHOLD == 2**20


def test_guide_table_inversion_equals_binary_search():
    # one short, one long (every guide bucket crowded) and one empty table,
    # an atom CDF of 1000 atoms, and single tables of 1 to 8 entries;
    # uniforms include bucket edges, table entries and the largest double
    # below 1
    tables = [immigration_cdf_table(law) for law in (
        PoissonImmigration(nu=1.5), GeometricImmigration(s=GEOMETRIC_S_MIN), NoImmigration())]
    inv = _Inverse(tables)
    gen = Generator(Philox(key=[21, 0]))
    u = np.concatenate([gen.random(50_000), np.arange(4096) / 4096, tables[0][:-1],
                        tables[1][:2000], [0.0, 1.0 - 2.0**-53]])
    rows = gen.integers(0, len(tables), u.size)
    expected = np.zeros(u.size, dtype=np.int64)
    for a, cdf in enumerate(tables):
        np.testing.assert_array_equal(
            inv(u, np.full(u.size, a)), np.searchsorted(cdf, u, side="right"))
        expected[rows == a] = np.searchsorted(cdf, u[rows == a], side="right")
    np.testing.assert_array_equal(inv(u, rows), expected)
    cum = np.cumsum(gen.random(1000))
    cum = cum / cum[-1]
    cum[-1] = 1.0
    np.testing.assert_array_equal(_Inverse([cum])(u), np.searchsorted(cum, u, side="right"))
    # a single table of at most 8 entries is inverted by counting; with a
    # zero-probability atom two entries are equal, and a uniform on them
    # must land past both, as the search puts it
    for size in range(1, 9):
        probs = gen.random(size)
        probs[size // 2] = 0.0 if size > 1 else 1.0
        cum = np.cumsum(probs) / probs.sum()
        cum[-1] = 1.0
        inv = _Inverse([cum])
        assert inv.small is not None
        v = np.concatenate([u, cum[:-1], np.nextafter(cum[:-1], 0.0)])
        v = v[v < 1.0]  # an entry before the last may be 1.0
        np.testing.assert_array_equal(inv(v), np.searchsorted(cum, v, side="right"))
    assert _Inverse([np.linspace(0.1, 1.0, 9)]).small is None


def test_immigration_tables_one_per_distinct_law():
    # environment A shares one Poisson law: one table, inverted without rows
    a = _EnvTables(make_env_a())
    assert a.imm_row is None and a.immigration.start.size == 1
    mixed = _EnvTables(make_mixed_env())
    np.testing.assert_array_equal(mixed.imm_row, [0, 1])
    gen = Generator(Philox(key=[23, 0]))
    u, idx = gen.random(10_000), gen.integers(0, 2, 10_000)
    expected = np.where(
        idx == 0,
        np.searchsorted(immigration_cdf_table(GeometricImmigration(s=0.5)), u, side="right"),
        np.searchsorted(immigration_cdf_table(PoissonImmigration(nu=2.0)), u, side="right"))
    np.testing.assert_array_equal(mixed.immigrants(u, idx), expected)


def test_guides_share_one_bucket_budget():
    # 10^4 distinct Poisson laws near nu = 1: 185,228 entries, whose guides
    # at about 32 buckets an entry would hold about 10^7 buckets; the
    # environments of the tests keep their guides whole
    laws = [PoissonImmigration(nu=1.0 + k * 1e-6) for k in range(10_000)]
    tab = _EnvTables(EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=ShiftedPoisson(lam=1.0), immigration=law, prob=1e-4) for law in laws)))
    inv = tab.immigration
    assert inv.lo.size <= trajectory._GUIDE_BUDGET
    gen = Generator(Philox(key=[24, 0]))
    u, idx = gen.random(200_000), gen.integers(0, len(laws), 200_000)
    order = np.argsort(idx, kind="stable")
    ends = np.searchsorted(idx[order], np.arange(len(laws) + 1))
    expected = np.empty(u.size, dtype=np.int64)
    for a, law in enumerate(laws):
        cols = order[ends[a]:ends[a + 1]]
        expected[cols] = np.searchsorted(immigration_cdf_table(law), u[cols], side="right")
    np.testing.assert_array_equal(tab.immigrants(u, idx), expected)
    for env in (make_env_a(), make_mixed_env()):
        cdfs = [immigration_cdf_table(law)
                for law in dict.fromkeys(a.immigration for a in env.atoms)]
        assert _EnvTables(env).immigration.buckets.tolist() == [
            min(trajectory._GUIDE, 1 << (32 * len(c) - 1).bit_length()) for c in cdfs]


def test_immigration_table_entries_bound_the_tables():
    laws = ([GeometricImmigration(s=s) for s in np.geomspace(GEOMETRIC_S_MIN, 1.0, 60)]
            + [PoissonImmigration(nu=nu) for nu in np.geomspace(1e-9, 708.0, 60)]
            + [PoissonImmigration(nu=0.0), NoImmigration()])
    for law in laws:
        size = immigration_cdf_table(law).size
        assert size <= law.count.table_entries() <= 1.1 * size + 10, law


def test_immigration_tables_past_their_limit_are_refused():
    # 10^4 distinct geometric laws near GEOMETRIC_S_MIN would need about
    # 2.8 * 10^9 entries (20 GB); the environment is refused as it is built
    atoms = tuple(EnvAtom(offspring=ShiftedPoisson(lam=1.0),
                          immigration=GeometricImmigration(s=GEOMETRIC_S_MIN * (1 + k * 1e-6)),
                          prob=1e-4) for k in range(10_000))
    with pytest.raises(ValueError, match="MAX_IMMIGRATION_TABLE_ENTRIES"):
        EnvironmentModel(atoms=atoms)
    # the same law on every atom is one table
    EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=a.offspring, immigration=atoms[0].immigration, prob=a.prob)
        for a in atoms))
    fits = MAX_IMMIGRATION_TABLE_ENTRIES // atoms[0].immigration.count.table_entries()
    EnvironmentModel(atoms=atoms[:fits])
    with pytest.raises(ValueError, match="MAX_IMMIGRATION_TABLE_ENTRIES"):
        EnvironmentModel(atoms=atoms[:fits + 1])
