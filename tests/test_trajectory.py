"""Path simulation: reproducibility contracts, martingale structure,
coupling, regime promotion consistency."""

import math

import numpy as np
import pytest
from scipy import stats

import bpire.trajectory as trajectory
from bpire import (
    RngStream,
    simulate_batch,
    simulate_path,
    simulate_walk_batch,
)
from conftest import make_env_a, make_skewed_env


def test_path_generation_zero(env_a):
    traj = simulate_path(env_a, 0, RngStream(master_seed=1, stream_id=0))
    assert traj.n == 0
    np.testing.assert_array_equal(traj.log_z, [0.0])
    np.testing.assert_array_equal(traj.s, [0.0])
    np.testing.assert_array_equal(traj.log_w, [0.0])


def test_path_is_pure_function_of_key(env_a):
    a = simulate_path(env_a, 12, RngStream(master_seed=9, stream_id=4))
    b = simulate_path(env_a, 12, RngStream(master_seed=9, stream_id=4))
    np.testing.assert_array_equal(a.log_z, b.log_z)
    np.testing.assert_array_equal(a.s, b.s)


def test_log_w_identity(env_a):
    traj = simulate_path(env_a, 20, RngStream(master_seed=2, stream_id=7))
    np.testing.assert_array_equal(traj.log_w, traj.log_z - traj.s)


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


def test_batch_columns_replay_single_paths(env_a):
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    for r in range(5):
        traj = simulate_path(env_a, 10, RngStream(master_seed=31, stream_id=r))
        assert batch.log_z_at(3)[r] == traj.log_z[3]
        assert batch.log_z_at(10)[r] == traj.log_z[10]
        assert batch.s_at(10)[r] == traj.s[10]


def test_batch_thread_count_does_not_change_bytes(env_a):
    a = simulate_batch(env_a, 12, 400, master_seed=3, record=(12,), threads=1)
    b = simulate_batch(env_a, 12, 400, master_seed=3, record=(12,), threads=3)
    np.testing.assert_array_equal(a.log_z, b.log_z)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.log_w, b.log_w)


def test_batch_stream_offset_shifts_columns(env_a):
    base = simulate_batch(env_a, 6, 30, master_seed=41, record=(6,))
    shifted = simulate_batch(
        env_a, 6, 10, master_seed=41, record=(6,), stream_offset=20
    )
    np.testing.assert_array_equal(base.log_z_at(6)[20:], shifted.log_z_at(6))


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
    with pytest.raises(ValueError):
        simulate_batch(env_a, 5, 10, master_seed=0, record=(3, 3))
    with pytest.raises(ValueError):
        simulate_batch(env_a, 5, 10, master_seed=0, record=(4, 2))
    with pytest.raises(ValueError):
        simulate_batch(env_a, 5, 10, master_seed=0, record=(-1,))
    with pytest.raises(ValueError):
        simulate_batch(env_a, 5, 10, master_seed=0, record=(6,))


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
    for run in (
        lambda t: simulate_batch(env_a, 5, 10, master_seed=1, threshold=t),
        lambda t: simulate_path(env_a, 5, RngStream(master_seed=1, stream_id=0), threshold=t),
    ):
        with pytest.raises(ValueError, match="at least 1024.*log step"):
            run(2**10 - 1)
        run(2**10)


def test_tables_are_built_once_per_batch(monkeypatch, env_a):
    one_chunk = simulate_batch(env_a, 3, 12, master_seed=2, couple_no_immigration=True)
    calls = []
    build = trajectory.immigration_cdf_table

    def counting(law):
        calls.append(law)
        return build(law)

    monkeypatch.setattr(trajectory, "immigration_cdf_table", counting)
    monkeypatch.setattr(trajectory, "_CHUNK", 4)
    batch = simulate_batch(env_a, 3, 12, master_seed=2, couple_no_immigration=True)
    assert len(calls) == len(env_a.atoms)
    # three chunks of 4 replicates give the bytes of one chunk of 12
    np.testing.assert_array_equal(batch.log_z, one_chunk.log_z)
    np.testing.assert_array_equal(batch.log_zbar, one_chunk.log_zbar)
    calls.clear()
    simulate_walk_batch(env_a, 3, 12, master_seed=2)
    assert calls == []
