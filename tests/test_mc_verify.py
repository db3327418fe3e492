"""Monte Carlo estimators: pipeline self-consistency, CI calibration,
decay/stability gates, determinism."""

import math
import time
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from bpire import (
    EnvAtom,
    EnvironmentModel,
    NoImmigration,
    ShiftedPoisson,
    berry_esseen_sup,
    berry_esseen_sup_from_samples,
    clt_rate_experiment,
    empirical_cdf,
    estimate_elogw,
    increment_decay,
    laplace_decay,
    log_mean_moments,
    moment_stability,
    rate_curve_from_samples,
    simulate_batch,
    std_normal_pdf,
    walk_oracle_rate,
)
import bpire.mc_verify as mc_verify
from bpire.mc_verify import _T_EXPANSION_DF, Z_99, ElogWConfig, _ols, student_t_99
from conftest import make_env_a, make_skewed_env, without_immigration


def _single_atom_env(lam: float = 1.0) -> EnvironmentModel:
    return EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=lam),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )


# ---------------------------------------------------------------- empirical


def test_z99_is_the_normal_quantile_to_the_last_bit():
    assert Z_99 == float(special.ndtri(0.995))


def test_student_t_99_matches_mpmath():
    # the root of P(T > t) = 0.005 at 50 digits, on both sides of the
    # switch to the expansion alone; scipy's stdtrit is off by up to 7.2e-15
    # here (df = 6)
    edge = _T_EXPANSION_DF
    with mp.workdps(50):
        for df in [*range(1, 301), 10**3, edge - 1, edge, 10**4, 10**5]:
            t = student_t_99(df)
            a = mp.mpf(df) / 2
            exact = mp.findroot(
                lambda x: mp.betainc(a, 0.5, 0, df / (df + x * x), regularized=True) / 2
                - mp.mpf("0.005"), mp.mpf(t))
            assert abs(t - exact) <= 1e-14 * exact, df
    start = time.perf_counter()
    student_t_99(10**5)
    assert time.perf_counter() - start < 0.01
    with pytest.raises(ValueError, match="df"):
        student_t_99(0)


def test_empirical_cdf_small_example():
    cdf = empirical_cdf(np.array([1.0, 2.0, 2.0, 3.0]), [0.0, 1.0, 2.0, 2.5, 3.0, 4.0])
    np.testing.assert_array_equal(cdf.values, [0.0, 0.25, 0.75, 0.75, 1.0, 1.0])
    assert cdf.replicates == 4
    # 99% binomial half-width at F = .75
    assert cdf.ci_halfwidth[2] == pytest.approx(
        Z_99 * math.sqrt(0.75 * 0.25 / 4), rel=1e-12
    )
    assert cdf.ci_halfwidth[0] == 0.0


def test_empirical_cdf_validation():
    with pytest.raises(ValueError):
        empirical_cdf(np.array([]), [0.0])
    with pytest.raises(ValueError):
        empirical_cdf(np.array([1.0]), [1.0, 0.0])


def test_empirical_cdf_monotone_in_grid():
    rng = np.random.default_rng(5)
    cdf = empirical_cdf(rng.standard_normal(5000), np.linspace(-4, 4, 81))
    assert np.all(np.diff(cdf.values) >= 0)


# --------------------------------------------------------------- rate curve


def test_rate_pipeline_unbiased_on_exact_normals():
    # feeding exact standard normals must give dhat compatible with 0:
    # the reduction introduces no bias of its own
    rng = np.random.default_rng(321)
    moments = log_mean_moments(make_env_a())
    samples = {16: rng.standard_normal(200_000)}
    curve = rate_curve_from_samples(
        samples, [-2.0, -1.0, 0.0, 1.0, 2.0], moments, e_log_w=0.0
    )
    for row in curve.rows:
        assert abs(row.dhat) <= 3.0 * row.se, f"x={row.x}"


def test_rate_prediction_decomposes_into_curve_plus_edgeworth(env_a):
    curve = clt_rate_experiment(
        env_a,
        [-1.0, 0.0, 1.0],
        [4, 8],
        20_000,
        master_seed=77,
        e_log_w_config=ElogWConfig(horizon=10, replicates=5_000),
    )
    sigma = curve.moments.sigma
    for row in curve.rows:
        shift = -std_normal_pdf(row.x) * curve.e_log_w / sigma
        assert row.g == pytest.approx(shift + row.q_only, abs=1e-15)
    assert curve.e_log_w == pytest.approx(0.40, abs=0.05)


def test_rate_curve_at_accessor(env_a):
    curve = clt_rate_experiment(
        env_a,
        [0.0],
        [4],
        10_000,
        master_seed=1,
        e_log_w_config=ElogWConfig(horizon=5, replicates=2_000),
    )
    assert curve.at(0.0, 4).n == 4
    with pytest.raises(KeyError):
        curve.at(0.5, 4)


def test_rate_experiment_is_deterministic(env_a):
    kwargs = dict(
        x_grid=[-1.0, 0.0, 1.0],
        n_list=[4, 8],
        replicates=12_000,
        master_seed=99,
        e_log_w_config=ElogWConfig(horizon=8, replicates=3_000),
    )
    a = clt_rate_experiment(env_a, **kwargs)
    b = clt_rate_experiment(env_a, **kwargs)
    c = clt_rate_experiment(env_a, threads=2, **kwargs)
    assert a.rows == b.rows == c.rows
    assert a.e_log_w == b.e_log_w == c.e_log_w


def test_rate_experiment_warns_on_small_replicates(env_a):
    curve = clt_rate_experiment(
        env_a,
        [0.0],
        [2],
        500,
        master_seed=3,
        e_log_w_config=ElogWConfig(horizon=4, replicates=500),
    )
    assert any("below 10^4" in w for w in curve.warnings)


def test_rate_experiment_rejects_unsorted_n_list(env_a):
    with pytest.raises(ValueError):
        clt_rate_experiment(env_a, [0.0], [8, 4], 100, master_seed=0)
    with pytest.raises(ValueError):
        clt_rate_experiment(env_a, [0.0], [4, 4], 100, master_seed=0)


def test_rate_experiment_requires_positive_variance():
    with pytest.raises(ValueError, match="Var\\(log m0\\) > 0"):
        clt_rate_experiment(_single_atom_env(), [0.0], [4], 100, master_seed=0)


# -------------------------------------------------------------- walk oracle


def test_walk_oracle_prediction_is_pure_edgeworth(skewed_env):
    curve = walk_oracle_rate(
        skewed_env, [-1.0, 0.0, 1.0], [16], 20_000, master_seed=111
    )
    assert curve.e_log_w == 0.0
    for row in curve.rows:
        assert row.g == row.q_only
    assert curve.at(-1.0, 16).q_only == 0.0
    assert curve.at(1.0, 16).q_only == 0.0
    assert curve.at(0.0, 16).q_only != 0.0  # the step law is skewed


def test_walk_oracle_first_step_exact_probability(skewed_env):
    # at n = 1, P(standardised S_1 <= 0) = P(step = log 2) = 3/4
    curve = walk_oracle_rate(skewed_env, [0.0], [1], 40_000, master_seed=7)
    row = curve.at(0.0, 1)
    expected = 0.75 - 0.5  # F - Phi(0), sqrt(1) factor
    assert abs(row.dhat - expected) <= 4.0 * row.se


def test_binomial_ci_coverage_across_seeds(env_a):
    # 99% CIs for F_hat_4(0) from 200 independent master seeds must cover
    # the pooled estimate at least 193 times
    x, n, reps = 0.0, 4, 2_000
    moments = log_mean_moments(env_a)
    fhats = []
    for seed in range(200):
        batch = simulate_batch(env_a, n, reps, master_seed=seed, record=(n,))
        std = (batch.log_z_at(n) - n * moments.mu) / (moments.sigma * math.sqrt(n))
        fhats.append(np.mean(std <= x))
    fhats = np.array(fhats)
    pooled = fhats.mean()
    half = Z_99 * np.sqrt(fhats * (1.0 - fhats) / reps)
    covered = int(np.sum(np.abs(fhats - pooled) <= half))
    assert covered >= 193


# ------------------------------------------------------------------- E log W


def test_elogw_zero_horizon_is_exact():
    est = estimate_elogw(make_env_a(), horizon=0, replicates=500, master_seed=1)
    assert est.mean == 0.0 and est.se == 0.0
    assert est.increment_estimate > 0.0


def test_elogw_reference_value(env_a):
    est = estimate_elogw(env_a, horizon=12, replicates=20_000, master_seed=8)
    assert est.mean == pytest.approx(0.40, abs=0.03)
    assert 0.0 < est.se < 0.01
    assert est.increment_estimate < est.mean


def test_elogw_jensen_without_immigration(env_a_pure):
    # E W = 1 so E log W < 0 strictly for a nondegenerate limit
    est = estimate_elogw(env_a_pure, horizon=10, replicates=20_000, master_seed=8)
    assert est.mean + 3.0 * est.se < 0.0


def test_elogw_rejects_negative_horizon(env_a):
    with pytest.raises(ValueError):
        estimate_elogw(env_a, horizon=-1, replicates=100, master_seed=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda env: estimate_elogw(env, horizon=2, replicates=1),
        lambda env: clt_rate_experiment(env, [0.0], [2], replicates=1, master_seed=0,
                                        e_log_w_config=ElogWConfig(horizon=2, replicates=1)),
        lambda env: increment_decay(env, q=1.0, n_range=[1, 2], replicates=1, master_seed=0),
        lambda env: laplace_decay(without_immigration(env), [1.0, 3.0], horizon=2,
                                  replicates=1, master_seed=0),
        lambda env: moment_stability(env, r=2.0, n_list=[1, 2], replicates=1, master_seed=0),
    ],
    ids=["elogw", "rate", "decay", "laplace", "moments"],
)
def test_standard_error_needs_two_replicates(run, env_a):
    # one replicate has no sample variance: an error naming the count, not
    # a NaN standard error
    with pytest.raises(ValueError, match="at least 2 replicates, got 1"):
        run(env_a)


# --------------------------------------------------------------- decay gate


def test_increment_decay_geometric_rate(env_a):
    series = increment_decay(
        env_a, 1.0, range(5, 16), 5_000, master_seed=21
    )
    assert series.status == "ok"
    assert series.rho_hat > 1.0
    assert series.rho_ci[0] > 1.0
    assert series.rho_ci[0] < series.rho_hat < series.rho_ci[1]
    for row in series.rows:
        assert row.qualifies == (row.estimate > 5.0 * row.se)


def test_increment_decay_inconclusive_at_tiny_replicates(env_a):
    series = increment_decay(env_a, 1.0, [20, 22, 24], 8, master_seed=2)
    assert series.status == "inconclusive"
    assert series.slope is None or math.isnan(series.slope)


def test_increment_decay_single_atom_environment():
    # deterministic environment: W_n is still random, increments still decay
    series = increment_decay(
        _single_atom_env(lam=1.0), 1.0, range(4, 13), 5_000, master_seed=13
    )
    assert series.status == "ok"
    assert series.rho_ci[0] > 1.0


# ------------------------------------------------------------- berry-esseen


def test_berry_esseen_on_exact_normals_is_dkw_small():
    rng = np.random.default_rng(17)
    grid = np.arange(-4.0, 4.0001, 0.05)
    samples = {4: rng.standard_normal(50_000), 16: rng.standard_normal(50_000)}
    result = berry_esseen_sup_from_samples(samples, grid)
    for row in result.rows:
        assert row.sup_dev < 0.015  # DKW scale ~ sqrt(log/R) ~ 0.009
        assert row.c_fit == pytest.approx(row.sup_dev * math.sqrt(row.n))
    assert result.warnings == ()


def test_berry_esseen_grid_warnings():
    rng = np.random.default_rng(3)
    samples = {4: rng.standard_normal(1000)}
    coarse = berry_esseen_sup_from_samples(samples, np.linspace(-4, 4, 17))
    assert any("step" in w for w in coarse.warnings)
    narrow = berry_esseen_sup_from_samples(samples, np.arange(-2, 2.001, 0.05))
    assert any("span" in w for w in narrow.warnings)


def test_berry_esseen_stability_on_reference_env(env_a):
    grid = np.arange(-4.0, 4.0001, 0.05)
    result = berry_esseen_sup(env_a, [8, 16], 20_000, grid, master_seed=5)
    assert result.stable
    assert result.c == max(r.c_fit for r in result.rows)
    assert result.row(8).n == 8


def test_berry_esseen_requires_positive_variance():
    with pytest.raises(ValueError, match="Var\\(log m0\\) > 0"):
        berry_esseen_sup(_single_atom_env(), [4], 100, [-1, 0, 1], master_seed=0)


# ----------------------------------------------------------------- laplace


def test_laplace_rejects_immigration(env_a):
    with pytest.raises(ValueError):
        laplace_decay(env_a, [1.0], 5, 100, master_seed=0)


def test_laplace_decay_basics(env_a_pure):
    ts = [0.0, 1.0, math.e**2, math.e**4]
    result = laplace_decay(env_a_pure, ts, 15, 5_000, master_seed=31)
    rows = result.rows
    assert rows[0].phi_hat == 1.0 and rows[0].se == 0.0  # exp(0) exactly
    assert math.isnan(rows[0].weighted) and math.isnan(rows[1].weighted)
    vals = [r.phi_hat for r in rows]
    assert vals == sorted(vals, reverse=True)  # exp(-tW) decreasing in t
    assert not math.isnan(rows[2].weighted)
    assert result.bounded


def test_laplace_decay_rejects_unsorted_grid(env_a_pure):
    with pytest.raises(ValueError):
        laplace_decay(env_a_pure, [2.0, 1.0], 5, 100, master_seed=0)
    with pytest.raises(ValueError):
        laplace_decay(env_a_pure, [-1.0, 2.0], 5, 100, master_seed=0)


# ----------------------------------------------------------------- moments


def test_moment_stability_generation_zero_exact(env_a):
    result = moment_stability(env_a, 2.0, [0], 200, master_seed=0)
    assert result.rows[0].estimate == 0.0
    assert result.rows[0].se == 0.0


def test_moment_stability_cauchy_schwarz(env_a):
    first = moment_stability(env_a, 1.0, [10, 20], 10_000, master_seed=41)
    second = moment_stability(env_a, 2.0, [10, 20], 10_000, master_seed=41)
    for r1, r2 in zip(first.rows, second.rows):
        # E|L| <= sqrt(E L^2); generous slack for MC noise
        assert r1.estimate <= math.sqrt(r2.estimate) * (1.0 + 1e-3)


def test_moment_stability_flat_on_reference_env(env_a):
    result = moment_stability(env_a, 2.0, [10, 20, 40], 10_000, master_seed=3)
    assert result.bounded
    assert result.ratio <= 2.0
    assert result.row(20).n == 20


def test_moment_stability_rejects_bad_order(env_a):
    with pytest.raises(ValueError):
        moment_stability(env_a, 0.0, [4], 100, master_seed=0)


def test_ols_matches_linregress_bitwise():
    rng = np.random.default_rng(3)
    xs = np.arange(5.0, 26.0)
    cases = [rng.normal(size=xs.size) - 0.44 * xs for _ in range(200)]
    cases += [np.full(xs.size, -1.25), xs[:3] * 2.0 + 1.0]
    for ys in cases:
        x = xs[: ys.size]
        fit = stats.linregress(x, ys)
        slope, stderr = _ols(x, ys)
        assert slope == fit.slope
        assert stderr == fit.stderr or (math.isnan(stderr) and math.isnan(fit.stderr))


def test_rate_experiment_releases_main_batch_before_elogw(monkeypatch, env_a):
    # the main batch's rows are standardised and the batch dropped before
    # the E log W batch runs
    batches, alive = [], []
    simulate, estimate = mc_verify.simulate_batch, mc_verify.estimate_elogw

    def recording(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        batches.append(weakref.ref(batch))
        return batch

    def checking(*args, **kwargs):
        alive.append(batches[0]() is not None)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(mc_verify, "simulate_batch", recording)
    monkeypatch.setattr(mc_verify, "estimate_elogw", checking)
    clt_rate_experiment(env_a, [0.0], [4, 8], 500, master_seed=3,
                        e_log_w_config=ElogWConfig(horizon=4, replicates=500))
    assert len(batches) == 2 and alive == [False]
