"""Path simulation: reproducibility contracts, martingale structure,
coupling, regime promotion consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import bpire.trajectory as trajectory
from bpire import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    simulate_batch,
    simulate_walk_batch,
)
from conftest import make_env_a, make_skewed_env, without_immigration


# A single path is column 0 of a one-replicate batch that records every
# generation: the chunk keyed (master_seed, stream_offset).


def test_path_generation_zero(env_a):
    path = simulate_batch(env_a, 0, 1, master_seed=1, record=range(1))
    assert path.record == (0,)
    for values in (path.log_z, path.s, path.log_w):
        np.testing.assert_array_equal(values, [[0.0]])


def test_path_is_pure_function_of_key(env_a):
    a = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13), stream_offset=4)
    b = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13), stream_offset=4)
    np.testing.assert_array_equal(a.log_z, b.log_z)
    np.testing.assert_array_equal(a.s, b.s)


def test_log_w_identity(env_a):
    path = simulate_batch(env_a, 20, 1, master_seed=2, record=range(21), stream_offset=7)
    np.testing.assert_array_equal(path.log_w, path.log_z - path.s)


def test_first_generation_mean(env_a):
    # Z_1 = X + Y with E X = .5*2 + .5*3 and E Y = 1, so E Z_1 = 3.5
    batch = simulate_batch(env_a, 1, 20_000, master_seed=5, record=(1,))
    z1 = np.exp(batch.log_z_at(1))
    se = z1.std(ddof=1) / math.sqrt(z1.size)
    assert abs(z1.mean() - 3.5) < 5 * se


def test_normalized_population_is_mean_one_martingale(env_a_pure):
    batch = simulate_batch(
        env_a_pure, 6, 20_000, master_seed=17, record=tuple(range(1, 7))
    )
    for n in range(1, 7):
        w = np.exp(batch.log_w_at(n))
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 5 * se, f"generation {n}"


def test_immigration_lifts_normalized_mean(env_a):
    # with immigration W_n is a submartingale with mean >= 1
    batch = simulate_batch(env_a, 8, 20_000, master_seed=23, record=(8,))
    w = np.exp(batch.log_w_at(8))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert w.mean() > 1.0 + 5 * se


def test_batch_columns_replay_single_paths(monkeypatch, env_a):
    # A replicate is (master_seed, chunk key, column).  With one-column
    # chunks, column r of a batch is the chunk keyed r, i.e. the path of
    # the one-replicate batch at offset r.
    monkeypatch.setattr(trajectory, "_CHUNK", 1)
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    for r in range(5):
        path = simulate_batch(env_a, 10, 1, master_seed=31, record=range(11), stream_offset=r)
        assert batch.log_z_at(3)[r] == path.log_z_at(3)[0]
        assert batch.log_z_at(10)[r] == path.log_z_at(10)[0]
        assert batch.s_at(10)[r] == path.s_at(10)[0]


def test_batch_columns_do_not_depend_on_recorded_generations(env_a):
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    full = simulate_batch(env_a, 10, 5, master_seed=31, record=range(11))
    for g in (3, 10):
        np.testing.assert_array_equal(batch.log_z_at(g), full.log_z_at(g))
        np.testing.assert_array_equal(batch.s_at(g), full.s_at(g))


def test_batch_thread_count_does_not_change_bytes(monkeypatch, env_a):
    # chunks of 100: 400 replicates are four chunks, which threads=3 runs
    # on a pool whose tasks carry only a chunk's key and size
    tasks = []

    class CountingPool(trajectory.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", CountingPool)
    for run, names in (
        (lambda **kw: simulate_batch(env_a, 12, 400, 3, record=(6, 12), **kw),
         ("log_z", "s", "log_w")),
        (lambda **kw: simulate_batch(env_a, 12, 400, 3, record=(6, 12),
                                     couple_no_immigration=True, **kw),
         ("log_z", "s", "log_w", "log_zbar")),
        (lambda **kw: simulate_walk_batch(env_a, 12, 400, 3, record=(6, 12), **kw), ("s",)),
    ):
        tasks.clear()
        inline = run(threads=1)
        assert tasks == []
        pooled = run(threads=3)
        assert tasks == [(c, 100) for c in (0, 100, 200, 300)]
        for name in names:
            np.testing.assert_array_equal(getattr(inline, name), getattr(pooled, name))


def test_batch_stream_offset_shifts_columns(monkeypatch, env_a):
    # chunks of 10: the base batch's chunks are keyed 0, 10 and 20, so a
    # batch at offset 20 (or 10) replays its last chunk (or last two)
    monkeypatch.setattr(trajectory, "_CHUNK", 10)
    base = simulate_batch(env_a, 6, 30, master_seed=41, record=(6,))
    for offset in (10, 20):
        shifted = simulate_batch(
            env_a, 6, 30 - offset, master_seed=41, record=(6,), stream_offset=offset
        )
        np.testing.assert_array_equal(base.log_z_at(6)[offset:], shifted.log_z_at(6))


def test_different_seeds_same_distribution(env_a):
    a = simulate_batch(env_a, 10, 4000, master_seed=100, record=(10,))
    b = simulate_batch(env_a, 10, 4000, master_seed=200, record=(10,))
    assert not np.array_equal(a.log_z_at(10), b.log_z_at(10))
    _, pvalue = stats.ks_2samp(a.log_z_at(10), b.log_z_at(10))
    assert pvalue > 1e-4


def test_coupled_batch_dominates_no_immigration_shadow(env_a):
    batch = simulate_batch(
        env_a,
        15,
        2000,
        master_seed=7,
        record=(1, 5, 15),
        couple_no_immigration=True,
    )
    for g in (1, 5, 15):
        assert np.all(batch.log_zbar_at(g) <= batch.log_z_at(g))
    # immigrants arrive with positive probability by generation 5
    assert np.mean(batch.log_zbar_at(5) < batch.log_z_at(5)) > 0.5


def test_coupled_shadow_replays_pure_run_bitwise(env_a, env_a_pure):
    coupled = simulate_batch(
        env_a, 12, 500, master_seed=19, record=(12,), couple_no_immigration=True
    )
    pure = simulate_batch(env_a_pure, 12, 500, master_seed=19, record=(12,))
    np.testing.assert_array_equal(coupled.log_zbar_at(12), pure.log_z_at(12))
    np.testing.assert_array_equal(coupled.s_at(12), pure.s_at(12))


def test_uncoupled_batch_has_no_shadow(env_a):
    batch = simulate_batch(env_a, 3, 10, master_seed=1, record=(3,))
    assert batch.log_zbar is None
    with pytest.raises(ValueError):
        batch.log_zbar_at(3)


def test_promotion_threshold_consistency(env_a):
    # raising the threshold to 2^50 keeps paths exact for ~8 further
    # generations; the default run may only differ by the Gaussian-step
    # approximation error at populations >= 2^40, i.e. O(1/sqrt(z))
    default = simulate_batch(env_a, 40, 300, master_seed=11, record=(40,))
    high = simulate_batch(
        env_a, 40, 300, master_seed=11, record=(40,), threshold=2**50
    )
    dev = np.abs(default.log_z_at(40) - high.log_z_at(40))
    assert dev.max() > 0.0  # some path crossed 2^40 and actually promoted
    assert dev.max() <= 1e-4


def test_record_argument_validation(env_a):
    for run in (simulate_batch, simulate_walk_batch):
        for record in ((3, 3), (4, 2), (-1,), (6,)):
            with pytest.raises(ValueError, match="record generations"):
                run(env_a, 5, 10, master_seed=0, record=record)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            run(env_a, -1, 10, master_seed=0)
        with pytest.raises(ValueError, match="replicates must be positive"):
            run(env_a, 5, 0, master_seed=0)


def test_walk_batch_shares_environment_draws(env_a):
    # the bare walk consumes the same atom-uniform block as the branching
    # run, so S_n agrees bitwise replicate by replicate
    walk = simulate_walk_batch(env_a, 9, 200, master_seed=13, record=(4, 9))
    branch = simulate_batch(env_a, 9, 200, master_seed=13, record=(4, 9))
    np.testing.assert_array_equal(walk.s_at(4), branch.s_at(4))
    np.testing.assert_array_equal(walk.s_at(9), branch.s_at(9))


def test_walk_batch_step_law(skewed_env):
    # steps are log 2 w.p. .75 and log 8 w.p. .25
    walk = simulate_walk_batch(skewed_env, 1, 20_000, master_seed=29, record=(1,))
    s1 = walk.s_at(1)
    assert set(np.round(s1, 12)) == {
        round(math.log(2.0), 12),
        round(math.log(8.0), 12),
    }
    frac = np.mean(s1 > math.log(4.0))
    assert abs(frac - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 20_000)


def test_growth_rate_matches_log_mean(env_a):
    # S_n / n concentrates near E log m ~ 0.8959; log W stays O(1)
    batch = simulate_batch(env_a, 50, 2000, master_seed=37, record=(50,))
    rate = batch.log_z_at(50) / 50.0
    assert abs(rate.mean() - 0.8958797346140275) < 0.01
    assert np.abs(batch.log_w_at(50)).max() < 10.0


def test_replicate_count_and_rows(env_a):
    batch = simulate_batch(env_a, 4, 7, master_seed=0, record=(0, 2, 4))
    assert batch.replicates == 7
    assert batch.row(0) == 0 and batch.row(2) == 1 and batch.row(4) == 2
    np.testing.assert_array_equal(batch.log_z_at(0), np.zeros(7))
    np.testing.assert_array_equal(batch.s_at(0), np.zeros(7))


def test_threshold_below_minimum_is_rejected(env_a):
    with pytest.raises(ValueError, match="at least 1024.*log step"):
        simulate_batch(env_a, 5, 10, master_seed=1, threshold=2**10 - 1)
    simulate_batch(env_a, 5, 10, master_seed=1, threshold=2**10)


def test_threshold_at_maximum_keeps_counts_in_int64():
    # offspring mean 31: counts cross 2**61 by generation 13, many through
    # a Gaussian tail value beyond 2**63, and none may wrap around
    env = EnvironmentModel(atoms=(
        EnvAtom(offspring=ShiftedPoisson(lam=30.0), immigration=PoissonImmigration(nu=2.0),
                prob=1.0),
    ))
    batch = simulate_batch(env, 16, 300, master_seed=3, record=range(17), threshold=2**61)
    assert (np.diff(batch.log_z, axis=0) > 0).all()
    assert np.abs(batch.log_w_at(16)).max() < 1.0
    with pytest.raises(ValueError, match="at most"):
        simulate_batch(env, 16, 10, master_seed=3, threshold=2**61 + 1)


def test_tables_are_built_once_per_batch(monkeypatch, env_a):
    separate = [
        simulate_batch(env_a, 3, 4, master_seed=2, couple_no_immigration=True, stream_offset=c)
        for c in (0, 4, 8)
    ]
    calls = []
    build = trajectory.immigration_cdf_table

    def counting(law):
        calls.append(law)
        return build(law)

    monkeypatch.setattr(trajectory, "immigration_cdf_table", counting)
    monkeypatch.setattr(trajectory, "_CHUNK", 4)
    batch = simulate_batch(env_a, 3, 12, master_seed=2, couple_no_immigration=True)
    assert len(calls) == len(env_a.atoms)
    # three chunks of 4 replicates give the bytes of three one-chunk
    # batches at offsets 0, 4 and 8
    np.testing.assert_array_equal(batch.log_z, np.hstack([b.log_z for b in separate]))
    np.testing.assert_array_equal(batch.log_zbar, np.hstack([b.log_zbar for b in separate]))
    calls.clear()
    simulate_walk_batch(env_a, 3, 12, master_seed=2)
    assert calls == []


_OFFSPRING = st.one_of(
    st.builds(ShiftedPoisson, lam=st.floats(0.05, 30.0)),
    st.builds(ShiftedGeometric, q=st.floats(0.03, 0.97)),
)
_IMMIGRATION = st.one_of(
    st.just(NoImmigration()),
    st.builds(PoissonImmigration, nu=st.floats(0.0, 5.0)),
    st.builds(GeometricImmigration, s=st.floats(0.05, 1.0)),
)


@st.composite
def _environments(draw):
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    return EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=draw(_OFFSPRING), immigration=draw(_IMMIGRATION), prob=w / sum(weights))
        for w in weights
    ))


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(
    env=_environments(),
    n=st.integers(0, 14),
    replicates=st.integers(1, 40),
    couple=st.booleans(),
    threshold=st.integers(10, 40).map(lambda k: 2**k),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_array_step_properties(env, n, replicates, couple, threshold, seed, data):
    # mixed offspring kinds, empty surplus columns (z = 0) and columns that
    # promote at different generations all pass through one array step
    record = data.draw(st.lists(st.integers(0, n), min_size=1, unique=True).map(sorted))
    batch = simulate_batch(env, n, replicates, seed, record=record,
                           couple_no_immigration=couple, threshold=threshold)
    assert np.isfinite(batch.log_z).all() and np.isfinite(batch.s).all()
    assert (batch.log_z >= 0.0).all()  # Z_n >= Z_0 = 1
    walk = simulate_walk_batch(env, n, replicates, seed, record=record)
    np.testing.assert_array_equal(walk.s, batch.s)
    if couple:
        assert np.isfinite(batch.log_zbar).all()
        assert (batch.log_zbar <= batch.log_z).all()
        pure = simulate_batch(without_immigration(env), n, replicates, seed, record=record,
                              threshold=threshold)
        np.testing.assert_array_equal(batch.log_zbar, pure.log_z)
