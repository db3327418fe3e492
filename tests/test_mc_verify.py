"""Monte Carlo estimators: pipeline self-consistency, CI calibration,
decay/stability gates, determinism."""

import inspect
import math
import time
import tracemalloc

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
    clt_rate_experiment,
    empirical_cdf,
    estimate_elogw,
    increment_decay,
    laplace_decay,
    log_mean_moments,
    moment_stability,
    simulate_batch,
    simulate_walk_batch,
    std_normal_pdf,
    walk_oracle_rate,
)
import bpire.mc_verify as mc_verify
import bpire.trajectory as trajectory
from bpire.mc_verify import _T_EXPANSION_DF, Z_99, _ols, student_t_99
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


def _sample_fhat(standardized, grid):
    """The generations of ``standardized``, checked as an ``n_list`` is, the
    empirical CDFs of their samples on the checked ``grid`` stacked in that
    order, and the size R that the samples share."""
    ns = mc_verify._generations(sorted(standardized), 1, "standardized")
    cdfs = [empirical_cdf(standardized[n], grid) for n in ns]
    (replicates,) = {cdf.replicates for cdf in cdfs}
    return ns, np.stack([cdf.values for cdf in cdfs]), replicates


def rate_curve_from_samples(standardized, x_grid, moments, e_log_w, e_log_w_se=0.0,
                            e_log_w_increment=0.0):
    """The reference reduction of the rate estimators: standardised samples
    per n, counted by sorting, to a rate curve, with a warning when a sample
    has fewer than 10^4 replicates."""
    x_grid = mc_verify._grid(x_grid, "x_grid")
    ns, fhat, replicates = _sample_fhat(standardized, x_grid)
    return mc_verify._rate_curve(ns, x_grid, fhat, replicates, moments, e_log_w, e_log_w_se,
                                 e_log_w_increment)


def berry_esseen_sup_from_samples(standardized, grid):
    """The reference reduction of :func:`berry_esseen_sup` from standardised
    samples per n, with the warnings of the grid."""
    grid = mc_verify._grid(grid, "grid")
    ns, fhat, replicates = _sample_fhat(standardized, grid)
    return mc_verify._berry_esseen(ns, grid, fhat, replicates)


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
    # the reduction warns from the samples it is given
    assert curve.warnings == ()
    small = rate_curve_from_samples({16: samples[16][:500]}, [0.0], moments, e_log_w=0.0)
    assert any("replicates=500 is below 10^4" in w for w in small.warnings)
    with pytest.raises(ValueError, match="standardized must be ascending positive"):
        rate_curve_from_samples({}, [0.0], moments, e_log_w=0.0)


def test_rate_prediction_decomposes_into_curve_plus_edgeworth(env_a):
    curve = clt_rate_experiment(
        env_a,
        [-1.0, 0.0, 1.0],
        [4, 8],
        20_000,
        master_seed=77,
        horizon=10,
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
        horizon=5,
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
        horizon=8,
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
        horizon=4,
    )
    assert any("below 10^4" in w for w in curve.warnings)


def test_rate_experiment_rejects_unsorted_n_list(env_a):
    with pytest.raises(ValueError):
        clt_rate_experiment(env_a, [0.0], [8, 4], 100, master_seed=0)
    with pytest.raises(ValueError):
        clt_rate_experiment(env_a, [0.0], [4, 4], 100, master_seed=0)


@pytest.fixture
def no_batch(monkeypatch):
    """Make every batch an estimator runs fail: the estimator must reject
    bad arguments before it simulates anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("a batch ran before the arguments were checked")

    monkeypatch.setattr(mc_verify, "run_batch", refuse)


def test_rate_estimators_reject_empty_n_list_before_simulating(no_batch, env_a):
    for run in (clt_rate_experiment, walk_oracle_rate):
        with pytest.raises(ValueError, match="n_list must be ascending positive"):
            run(env_a, [0.0], [], 100, master_seed=0)
        with pytest.raises(ValueError, match="n_list entry must be an integer"):
            run(env_a, [0.0], [16.5], 100, master_seed=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda env, ns: berry_esseen_sup(env, ns, 100, [0.0], master_seed=0),
        lambda env, ns: increment_decay(env, 1.0, ns, 100, master_seed=0),
        lambda env, ns: moment_stability(env, 2.0, ns, 100, master_seed=0),
    ],
    ids=["berry-esseen", "decay", "moments"],
)
def test_generation_estimators_reject_non_integer_generations_before_simulating(
        run, no_batch, env_a):
    # int() would truncate 2.7 to generation 2
    for ns in ([2.7, 5], [True, 5]):
        with pytest.raises(ValueError, match="entry must be an integer"):
            run(env_a, ns)
    # one rule with record: strictly ascending, neither sorted nor deduplicated
    for ns in ([5, 2], [2, 2]):
        with pytest.raises(ValueError, match="must be ascending"):
            run(env_a, ns)


def test_cdf_estimators_reject_empty_or_unsorted_grid_before_simulating(no_batch, env_a):
    for grid, message in (([], "at least one point"), ([1.0, 0.0], "sorted ascending"),
                          ([math.nan, 0.0], "finite points")):
        for run in (clt_rate_experiment, walk_oracle_rate):
            with pytest.raises(ValueError, match=f"x_grid must .*{message}"):
                run(env_a, grid, [4], 100, master_seed=0)
        with pytest.raises(ValueError, match=f"grid must .*{message}"):
            berry_esseen_sup(env_a, [4], 100, grid, master_seed=0)
        with pytest.raises(ValueError, match=f"grid must .*{message}"):
            berry_esseen_sup_from_samples({4: np.zeros(10)}, grid)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda env: laplace_decay(without_immigration(env), [0.0, 1.0, 2.0, math.e], 5, 100,
                                   master_seed=0), "t_grid must have at least two points t >= e"),
        (lambda env: moment_stability(env, 2.0, [0, 5, 10], 100, master_seed=0),
         "n_list must have at least two generations n >= 10"),
        (lambda env: berry_esseen_sup(env, [16], 100, [0.0], master_seed=0),
         "n_list must have at least two generations"),
    ],
    ids=["laplace", "moments", "berry-esseen"],
)
def test_gates_refuse_inputs_they_cannot_compare_before_simulating(run, message, no_batch,
                                                                   env_a):
    # a gate over fewer than two values would pass on no data
    with pytest.raises(ValueError, match=message):
        run(env_a)


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


def test_elogw_rejects_negative_horizon(no_batch, env_a, env_a_pure):
    for run in (
        lambda h: estimate_elogw(env_a, horizon=h, replicates=100, master_seed=0),
        lambda h: laplace_decay(env_a_pure, [1.0], h, 100, master_seed=0),
    ):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            run(-1)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            run(2.5)


@pytest.mark.parametrize(
    "run",
    [
        lambda env: estimate_elogw(env, horizon=2, replicates=1),
        lambda env: clt_rate_experiment(env, [0.0], [2], replicates=1, master_seed=0,
                                        horizon=2),
        lambda env: increment_decay(env, q=1.0, n_list=[1, 2], replicates=1, master_seed=0),
        lambda env: laplace_decay(without_immigration(env), [3.0, 4.0], horizon=2,
                                  replicates=1, master_seed=0),
        lambda env: moment_stability(env, r=2.0, n_list=[10, 20], replicates=1, master_seed=0),
    ],
    ids=["elogw", "rate", "decay", "laplace", "moments"],
)
def test_standard_error_needs_two_replicates(run, no_batch, env_a):
    # one replicate has no sample variance: an error naming the count, not
    # a NaN standard error, before any batch runs
    with pytest.raises(ValueError, match="at least 2 replicates, got 1"):
        run(env_a)


@pytest.mark.parametrize(
    "replicates, message",
    [(1, "at least 2 replicates, got 1"), (0, "replicates must be positive, got 0"),
     (2.5, "replicates must be an integer, got 2.5")],
    ids=["one", "zero", "non-integer"],
)
def test_rate_checks_elogw_replicates_before_the_main_batch(no_batch, env_a, replicates,
                                                            message):
    # E log W comes from the main batch's replicates, whose standard error
    # needs them checked before that batch runs
    with pytest.raises(ValueError, match=message):
        clt_rate_experiment(env_a, [0.0], [16], replicates, master_seed=1, horizon=30)


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
    with pytest.raises(ValueError, match="standardized must be ascending positive"):
        berry_esseen_sup_from_samples({}, grid)


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
    with pytest.raises(KeyError) as info:
        result.row(12)
    assert info.value.args == (12,)


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
    with pytest.raises(ValueError, match="finite"):
        laplace_decay(env_a_pure, [1.0, math.nan], 5, 100, master_seed=0)
    # no rows would make a bounded gate that passes on no data
    with pytest.raises(ValueError, match="t_grid must have at least one point"):
        laplace_decay(env_a_pure, [], 5, 100, master_seed=0)


# ----------------------------------------------------------------- moments


def test_moment_stability_generation_zero_exact(env_a):
    result = moment_stability(env_a, 2.0, [0, 10, 20], 200, master_seed=0)
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
    with pytest.raises(KeyError) as info:
        result.row(30)
    assert info.value.args == (30,)


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


def test_rate_experiment_runs_one_batch(monkeypatch, env_a):
    # one batch records n_list, the horizon and the generation after it,
    # and leaves only the counts and the (count, mean, M2) of log W_N and of
    # the increment of each chunk
    monkeypatch.setattr(trajectory, "_CHUNK", 200)
    calls = []
    run = mc_verify.run_batch

    def recording(*args, **kwargs):
        bound = inspect.signature(run).bind(*args, **kwargs).arguments
        result = run(*args, **kwargs)
        calls.append((bound["record"], {name: a.shape for name, a in result[-1].items()}))
        return result

    monkeypatch.setattr(mc_verify, "run_batch", recording)
    clt_rate_experiment(env_a, [-1.0, 0.0, 1.0], [4, 8], 500, master_seed=3, horizon=4)
    assert calls == [([4, 5, 8], {"counts": (3, 2, 3), "moments": (3, 2, 3)})]


# ------------------------------------------------- chunk-local reductions


@pytest.fixture
def ragged_chunks(monkeypatch):
    """Chunks of 64, so that 200 replicates are three full chunks and a
    ragged one of 8, on three CPUs, so that threads = 3 forks two workers."""
    monkeypatch.setattr(trajectory, "_CHUNK", 64)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)


def _merged(values, chunk=64):
    """The merged moments of ``values`` cut into chunks of ``chunk``, as a
    batch's chunks reduce them."""
    parts = np.array([[mc_verify._moments(values[c:c + chunk])]
                      for c in range(0, values.size, chunk)])
    return tuple(column[0] for column in mc_verify._merge(parts))


def _mean_se(count, mean, m2):
    """The mean and its standard error ``sqrt(M2 / (n - 1)) / sqrt(n)`` from
    the merged moments of n values."""
    return float(mean), math.sqrt(m2 / (count - 1)) / math.sqrt(count)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_estimators_equal_the_reductions_of_batch_rows(ragged_chunks, env_a, env_a_pure,
                                                       threads):
    # each chunk reduces its own rows; the results equal those of the whole
    # batch's rows, reduced by the public functions (CDF kinds) or cut into
    # the same chunks and merged by the estimators' own merge (mean kinds)
    r, seed, grid, ns = 200, 5, [-1.0, 0.0, 1.0], [4, 8]
    moments = log_mean_moments(env_a)

    def standardized(rows):
        return {n: mc_verify._standardize(rows(n), n, moments) for n in ns}

    batch = simulate_batch(env_a, 8, r, seed, record=(4, 5, 8))
    walk = simulate_walk_batch(env_a, 8, r, seed, record=ns)
    mean, se = _mean_se(*_merged(batch.log_w_at(4)))
    increment = _mean_se(*_merged(np.abs(batch.log_w_at(5) - batch.log_w_at(4))))

    assert estimate_elogw(env_a, 4, r, seed, threads) == (mean, se, 4, r, *increment)
    assert clt_rate_experiment(env_a, grid, ns, r, seed, horizon=4, threads=threads) == \
        rate_curve_from_samples(standardized(batch.log_z_at), grid, moments, mean, se,
                                increment[0])
    assert walk_oracle_rate(env_a, grid, ns, r, seed, threads) == \
        rate_curve_from_samples(standardized(walk.s_at), grid, moments, 0.0)
    assert berry_esseen_sup(env_a, ns, r, grid, seed, threads) == \
        berry_esseen_sup_from_samples(standardized(batch.log_z_at), grid)

    decay = simulate_batch(env_a, 4, r, seed, record=(2, 3, 4))
    assert [row[1:3] for row in increment_decay(env_a, 1.0, [2, 3], r, seed, threads).rows] == [
        _mean_se(*_merged(np.abs(decay.log_w_at(n + 1) - decay.log_w_at(n)) ** 1.0))
        for n in (2, 3)]
    pure = np.exp(simulate_batch(env_a_pure, 4, r, seed).log_w_at(4))
    ts = [1.0, 3.0, 4.0]
    assert [row[1:3] for row in laplace_decay(env_a_pure, ts, 4, r, seed, threads=threads).rows] \
        == [_mean_se(*_merged(np.exp(-t * pure))) for t in ts]
    moment = simulate_batch(env_a, 12, r, seed, record=(10, 12))
    assert [row[1:] for row in moment_stability(env_a, 2.0, [10, 12], r, seed, threads).rows] == [
        _mean_se(*_merged(np.abs(moment.log_w_at(n)) ** 2.0))
        for n in (10, 12)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_rate_elogw_is_the_elogw_estimate(ragged_chunks, env_a, threads):
    # the rate kind's E log W comes from its own batch, whose replicates at
    # the horizon and the next generation are those estimate_elogw simulates
    curve = clt_rate_experiment(env_a, [-1.0, 0.0, 1.0], [4, 8], 200, master_seed=5, horizon=4,
                                threads=threads)
    estimate = estimate_elogw(env_a, horizon=4, replicates=200, master_seed=5, threads=threads)
    assert (curve.e_log_w, curve.e_log_w_se, curve.e_log_w_increment) == \
        (estimate.mean, estimate.se, estimate.increment_estimate)


# Ulps of the mean and of the SD by which a chunked merge may differ from one
# pass over the whole sample: each side rounds O(log n) times in its sums,
# and the merge adds a few roundings per part.
_MERGE_ULPS = 16


@pytest.mark.parametrize("sizes", [[1, 7, 64, 8192, 3, 1, 1000], [1, 1], [5000], [2, 1, 4096, 1]])
def test_merge_of_ragged_chunks_matches_one_pass(sizes):
    values = np.random.default_rng(len(sizes)).normal(0.4, 0.7, sum(sizes))
    cuts = np.cumsum([0] + sizes)
    parts = np.array([[mc_verify._moments(values[a:b])] for a, b in zip(cuts, cuts[1:])])
    count, mean, m2 = (column[0] for column in mc_verify._merge(parts))
    assert count == values.size
    assert abs(mean - np.mean(values)) <= _MERGE_ULPS * np.spacing(abs(np.mean(values)))
    sd = np.std(values, ddof=1)
    assert abs(math.sqrt(m2 / (count - 1)) - sd) <= _MERGE_ULPS * np.spacing(sd)


def test_merge_carries_an_infinite_statistic_to_a_refused_mean():
    with np.errstate(over="ignore", invalid="ignore"):
        parts = np.array([[mc_verify._moments(np.array([1.0, np.inf]))],
                          [mc_verify._moments(np.array([2.0, 3.0]))]])
    count, mean, m2 = (column[0] for column in mc_verify._merge(parts))
    with pytest.raises(ValueError, match="overflows a double for q = 1000.0"):
        mc_verify._power_mean_se(_mean_se(count, mean, m2), 1000.0, "E|x|^q", "q", 3)


def _peak_growth(run):
    """The tracemalloc peak of ``run(8 * 1024)`` above that of ``run(1024)``,
    chunks of 1024: eight chunks against one, after a warm-up run."""
    def peak(replicates):
        tracemalloc.start()
        try:
            run(replicates)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1024)
    return peak(8 * 1024) - peak(1024)


# A bound on the growth of an estimator's peak from one chunk of 1024 to
# eight that depends on neither batch's replicates: two chunks' float rows.
# The slots of eight chunks take at most a few KB, and the interpreter's
# free lists move the peak by several KB from run to run; one log W row of
# the eight-chunk batch takes 64 KiB.
_GROWTH_BOUND = 2 * 1024 * 8


def test_rate_experiment_memory_does_not_grow_with_the_main_batch(monkeypatch, env_a):
    # eight chunks cost no more than one: the batch keeps counts and the
    # (count, mean, M2) of the E log W statistics per chunk
    monkeypatch.setattr(trajectory, "_CHUNK", 1024)
    assert _peak_growth(lambda replicates: clt_rate_experiment(
        env_a, [-1.0, 0.0, 1.0], [16, 64, 256], replicates, master_seed=3,
        horizon=4)) <= _GROWTH_BOUND


@pytest.mark.parametrize(
    "run",
    [
        lambda env, r: estimate_elogw(env, 30, r, 3),
        lambda env, r: increment_decay(env, 1.0, list(range(2, 12)), r, 3),
        lambda env, r: laplace_decay(without_immigration(env), [1.0, 3.0, 10.0, 30.0], 20, r, 3),
        lambda env, r: moment_stability(env, 2.0, [10, 20, 40], r, 3),
    ],
    ids=["elogw", "decay", "laplace", "moments"],
)
def test_mean_estimator_memory_does_not_grow_with_replicates(monkeypatch, env_a, run):
    monkeypatch.setattr(trajectory, "_CHUNK", 1024)
    assert _peak_growth(lambda replicates: run(env_a, replicates)) <= _GROWTH_BOUND
