"""Acceptance gate: ten criteria at full scale, one printed line each.

The heavy Monte Carlo runs (R = 10^6) are built once in session fixtures
and shared: the branching rate curve feeds criteria 4 and 5, the
environment-walk control run feeds criterion 5, and the skewed-walk run
feeds criterion 3 alone.  Each criterion reports a `ACCEPTANCE k [PASS|FAIL]`
line on the real stdout (bypassing capture) with the measured values, then
asserts.

Criteria 3, 4 (at x = +-1) and 5 are expected to fail for substantive
reasons: the skewed two-point step law is lattice (log 8 = 3 log 2), so the
exact-rate limit for the walk does not hold there; and at n = 256 the
second-order correction to the rate curve (~ x phi(x) (E[(log W)^2] + 2C)
/ (2 sqrt(n) sigma^2) with C = Cov(S_n - n mu, log W_n); the coefficient
measured on one R = 10^6 batch at n = 256 is 0.42, so about 0.078 here)
dwarfs the 3-SE budget (~0.02 at R = 10^6).  The assertions implement the stated criteria verbatim and are
left red rather than loosened; the printed lines carry the measured values.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from bpire import (
    ShiftedGeometric,
    ShiftedPoisson,
    berry_esseen_sup,
    clt_rate_experiment,
    edgeworth_q,
    estimate_elogw,
    increment_decay,
    log_mean_moments,
    moment_stability,
    simulate_batch,
    std_normal_cdf,
    std_normal_pdf,
    walk_oracle_rate,
)
from bpire.cli import main as cli_main
from bpire.mc_verify import ELOGW_STREAM_OFFSET, ElogWConfig
from conftest import make_env_a, make_skewed_env, one_generation_totals

X_GRID = [-1.0, 0.0, 1.0]
N_LIST = [16, 64, 256]
RATE_SEED = 1031        # branching run, criteria 4-5
CONTROL_WALK_SEED = 2063  # env-A walk, criterion 5 (independent of the above)
SKEWED_WALK_SEED = 4127   # skewed walk, criterion 3


def _report(capsys, line: str) -> None:
    # bypass capture so the verdict line is visible in normal pytest runs
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="session")
def rate_run():
    t0 = time.monotonic()
    curve = clt_rate_experiment(
        make_env_a(),
        X_GRID,
        N_LIST,
        10**6,
        master_seed=RATE_SEED,
        e_log_w_config=ElogWConfig(horizon=30, replicates=10**5),
    )
    return curve, time.monotonic() - t0


@pytest.fixture(scope="session")
def control_walk_run():
    t0 = time.monotonic()
    curve = walk_oracle_rate(
        make_env_a(), X_GRID, [256], 10**6, master_seed=CONTROL_WALK_SEED
    )
    return curve, time.monotonic() - t0


@pytest.fixture(scope="session")
def skewed_walk_run():
    t0 = time.monotonic()
    curve = walk_oracle_rate(
        make_skewed_env(), X_GRID, [256], 10**6, master_seed=SKEWED_WALK_SEED
    )
    return curve, time.monotonic() - t0


def test_criterion_01_sampler_oracle_equivalence(capsys):
    t0 = time.monotonic()
    laws = [
        ShiftedPoisson(lam=0.5),
        ShiftedPoisson(lam=1.0),
        ShiftedGeometric(q=0.3),
        ShiftedGeometric(q=0.5),
    ]

    def excess_pmf(law, z, size):
        k = np.arange(size)
        if isinstance(law, ShiftedPoisson):
            return stats.poisson.pmf(k, z * law.lam)
        return stats.nbinom.pmf(k, z, law.q)

    max_tv, min_mass, min_p = 0.0, 1.0, 1.0
    for law in laws:
        k = np.arange(201)
        if isinstance(law, ShiftedPoisson):
            single = stats.poisson.pmf(k, law.lam)
        else:
            single = law.q * (1.0 - law.q) ** k
        for z in range(2, 7):
            conv = single.copy()
            for _ in range(z - 1):
                conv = np.convolve(conv, single)
            closed = excess_pmf(law, z, conv.size)
            min_mass = min(min_mass, float(conv.sum()))
            max_tv = max(max_tv, 0.5 * float(np.abs(conv - closed).sum()))

            draws = 100_000
            totals = one_generation_totals(law, z, 7_000 + z, draws)
            excess = totals - z
            expected = excess_pmf(law, z, int(excess.max()) + 50) * draws
            observed = np.bincount(excess, minlength=expected.size)
            cut = int(np.argmax(expected < 5.0))
            while cut > 1 and draws - expected[:cut].sum() < 5.0:
                cut -= 1
            obs = np.append(observed[:cut], draws - observed[:cut].sum())
            exp = np.append(expected[:cut], draws - expected[:cut].sum())
            _, pvalue = stats.chisquare(obs, exp)
            min_p = min(min_p, float(pvalue))

    elapsed = time.monotonic() - t0
    ok = max_tv < 1e-10 and min_mass >= 1.0 - 1e-12 and min_p > 1e-3 and elapsed < 60
    _report(
        capsys,
        f"ACCEPTANCE 1 [{'PASS' if ok else 'FAIL'}] closed-form aggregation vs "
        f"convolution, 20 (law, z) pairs: max TV {max_tv:.2e}, support mass >= "
        f"{min_mass:.15f}, min chi-square p {min_p:.4f} ({elapsed:.1f}s < 60s)"
    )
    assert max_tv < 1e-10
    assert min_mass >= 1.0 - 1e-12
    assert min_p > 1e-3
    assert elapsed < 60


def test_criterion_02_martingale_mean(capsys):
    t0 = time.monotonic()
    env = make_env_a(immigration=False)
    batch = simulate_batch(
        env, 10, 10**5, master_seed=505, record=tuple(range(1, 11))
    )
    worst = 0.0
    for n in range(1, 11):
        w = np.exp(batch.log_w_at(n))
        se = w.std(ddof=1) / math.sqrt(w.size)
        worst = max(worst, abs(w.mean() - 1.0) / se)
    elapsed = time.monotonic() - t0
    ok = worst <= 5.0 and elapsed < 60
    _report(
        capsys,
        f"ACCEPTANCE 2 [{'PASS' if ok else 'FAIL'}] mean of W_n over n=1..10 at "
        f"R=1e5: worst |mean-1| = {worst:.2f} SE (<= 5 SE) ({elapsed:.1f}s < 60s)"
    )
    assert worst <= 5.0
    assert elapsed < 60


def test_criterion_03_skewed_walk_exact_rate(skewed_walk_run, capsys):
    curve, build_s = skewed_walk_run
    t0 = time.monotonic()
    checks = []
    details = []
    for x in X_GRID:
        row = curve.at(x, 256)
        diff = row.dhat - row.q_only
        ok_q = abs(diff) <= 3.0 * row.se
        checks.append(ok_q)
        if x in (-1.0, 1.0):
            checks.append(abs(row.dhat) <= 3.0 * row.se)
        details.append(
            f"x={x:+.0f}: dhat={row.dhat:+.4f} Q={row.q_only:+.4f} "
            f"(|diff|/se = {abs(diff) / row.se:.1f})"
        )
    elapsed = build_s + (time.monotonic() - t0)
    ok = all(checks) and elapsed < 300
    _report(
        capsys,
        f"ACCEPTANCE 3 [{'PASS' if ok else 'FAIL'}] skewed-walk rate vs Q at "
        f"n=256, R=1e6: {'; '.join(details)} ({elapsed:.1f}s < 300s) "
        "[expected red: the step law log2/log8 is lattice]"
    )
    assert all(checks), (
        "skewed two-point walk misses the exact-rate limit: " + "; ".join(details)
    )
    assert elapsed < 300


def test_criterion_04_main_rate_trend(rate_run, capsys):
    curve, build_s = rate_run
    t0 = time.monotonic()
    env = make_env_a()

    # the E log W plug-in must replay bit-identically with its diagnostic
    est = estimate_elogw(
        env,
        horizon=30,
        replicates=10**5,
        master_seed=RATE_SEED,
        stream_offset=ELOGW_STREAM_OFFSET,
    )
    assert est.mean == curve.e_log_w
    increment_ok = est.increment_estimate < 0.1 * est.se

    sigma = curve.moments.sigma
    trend_ok, final_ok = True, True
    details = []
    for x in X_GRID:
        rows = [curve.at(x, n) for n in N_LIST]
        devs = [abs(r.dhat - r.g) for r in rows]
        for a, b in zip(range(len(rows) - 1), range(1, len(rows))):
            slack = 2.0 * math.hypot(rows[a].se, rows[b].se)
            if devs[b] > devs[a] + slack:
                trend_ok = False
        last = rows[-1]
        combined = math.hypot(
            last.se, std_normal_pdf(x) / sigma * curve.e_log_w_se
        )
        ok_here = devs[-1] <= 3.0 * combined
        final_ok = final_ok and ok_here
        details.append(
            f"x={x:+.0f}: |dhat-g|={devs[-1]:.4f} vs 3*se={3 * combined:.4f}"
            f"{'' if ok_here else ' <-'}"
        )
    elapsed = build_s + (time.monotonic() - t0)
    ok = increment_ok and trend_ok and final_ok and elapsed < 1200
    _report(
        capsys,
        f"ACCEPTANCE 4 [{'PASS' if ok else 'FAIL'}] rate curve vs g(x) on env A, "
        f"n=16/64/256, R=1e6: E log W = {curve.e_log_w:.4f} "
        f"(increment {est.increment_estimate:.1e} < 0.1 se: {increment_ok}), "
        f"trend nonincreasing: {trend_ok}; n=256: {'; '.join(details)} "
        f"({elapsed:.1f}s < 1200s) [expected red at x=+-1: second-order "
        "term ~ x*phi(x)*(E[(log W)^2] + 2C)/(2 sqrt(n) sigma^2) ~ 0.078 exceeds the "
        "3-SE budget]"
    )
    assert increment_ok
    assert trend_ok
    assert final_ok, "; ".join(details)
    assert elapsed < 1200


def test_criterion_05_decomposition_identity(rate_run, control_walk_run, capsys):
    curve, rate_s = rate_run
    walk, walk_s = control_walk_run
    t0 = time.monotonic()
    sigma = curve.moments.sigma
    ok_all = True
    details = []
    for x in X_GRID:
        b = curve.at(x, 256)
        w = walk.at(x, 256)
        measured = b.dhat - w.dhat
        predicted = -std_normal_pdf(x) * curve.e_log_w / sigma
        combined = math.sqrt(
            b.se**2
            + w.se**2
            + (std_normal_pdf(x) / sigma * curve.e_log_w_se) ** 2
        )
        ok_here = abs(measured - predicted) <= 3.0 * combined
        ok_all = ok_all and ok_here
        details.append(
            f"x={x:+.0f}: diff={measured:+.4f} pred={predicted:+.4f} "
            f"tol={3 * combined:.4f}{'' if ok_here else ' <-'}"
        )
    elapsed = rate_s + walk_s + (time.monotonic() - t0)
    ok = ok_all and elapsed < 1500
    _report(
        capsys,
        f"ACCEPTANCE 5 [{'PASS' if ok else 'FAIL'}] branching-minus-walk curve "
        f"vs -phi(x) ElogW/sigma at n=256, R=1e6: {'; '.join(details)} "
        f"({elapsed:.1f}s < 1500s) [expected red: the finite-n walk CDF "
        "carries O(1) discrete wiggles at n=256 that the subtraction "
        "inherits]"
    )
    assert ok_all, "; ".join(details)
    assert elapsed < 1500


def _walk_cdf_bracket(env, x: float, n: int) -> tuple[float, float]:
    """Exact CDF of the standardised two-atom walk at ``x``.

    ``S_n = (n - K) a + K b`` with ``a < b`` the log-means and ``K`` the
    Binomial(n, P(b)) count of b-steps, so ``S_n <= n mu + x sqrt(n) sigma``
    exactly when ``K <= k*``.  When that bound falls on a lattice point,
    float rounding decides its side and the bracket is ``(P(K < k*),
    P(K <= k*))``; elsewhere both ends are ``P(K <= k*)``.
    """
    m = log_mean_moments(env)
    (pa, a), (pb, b) = sorted(m.atom_log_means, key=lambda atom: atom[1])
    t = (n * m.mu + x * math.sqrt(n) * m.sigma - n * a) / (b - a)
    on_atom = abs(t - round(t)) < 1e-9
    k = round(t) if on_atom else math.floor(t)

    def cdf(j: int) -> float:
        return math.fsum(math.comb(n, i) * pb**i * pa ** (n - i) for i in range(j + 1))

    return (cdf(k - 1) if on_atom else cdf(k)), cdf(k)


def test_walk_runs_match_exact_binomial_cdf(skewed_walk_run, control_walk_run):
    # The exact law behind the red criteria 3 and 5: both R = 10^6 walk runs
    # sit within 4 binomial SE of it at every grid point.
    n = 256
    for (curve, _), env in ((skewed_walk_run, make_skewed_env()), (control_walk_run, make_env_a())):
        for x in X_GRID:
            row = curve.at(x, n)
            fhat = std_normal_cdf(x) + row.dhat / math.sqrt(n)
            se = row.se / math.sqrt(n)
            lo, hi = _walk_cdf_bracket(env, x, n)
            assert lo - 4.0 * se <= fhat <= hi + 4.0 * se, (x, fhat, lo, hi, se)


def test_criterion_06_berry_esseen_stability(capsys):
    t0 = time.monotonic()
    grid = [-4.0 + 0.05 * i for i in range(161)]
    result = berry_esseen_sup(
        make_env_a(), N_LIST, 10**5, grid, master_seed=909
    )
    cs = [r.c_fit for r in result.rows]
    ratio = max(cs) / min(cs)
    elapsed = time.monotonic() - t0
    ok = result.stable and ratio < 2.0 and elapsed < 300
    _report(
        capsys,
        f"ACCEPTANCE 6 [{'PASS' if ok else 'FAIL'}] sup-deviation * sqrt(n) on "
        f"env A, n=16/64/256, R=1e5: c_fit = "
        f"{', '.join(f'{c:.3f}' for c in cs)} (max/min {ratio:.2f} < 2) "
        f"({elapsed:.1f}s < 300s)"
    )
    assert result.stable
    assert ratio < 2.0
    assert elapsed < 300


def test_criterion_07_increment_decay(capsys):
    t0 = time.monotonic()
    series = increment_decay(
        make_env_a(), 1.0, range(5, 26), 10**5, master_seed=707
    )
    elapsed = time.monotonic() - t0
    ok = (
        series.status == "ok"
        and series.rho_hat > 1.0
        and series.rho_ci[0] > 1.0
        and elapsed < 300
    )
    _report(
        capsys,
        f"ACCEPTANCE 7 [{'PASS' if ok else 'FAIL'}] martingale increment decay "
        f"on env A, q=1, n=5..25, R=1e5: rho_hat = {series.rho_hat:.4f}, 99% CI "
        f"({series.rho_ci[0]:.4f}, {series.rho_ci[1]:.4f}) excludes 1 "
        f"({elapsed:.1f}s < 300s)"
    )
    assert series.status == "ok"
    assert series.rho_hat > 1.0
    assert series.rho_ci[0] > 1.0
    assert elapsed < 300


def test_criterion_08_moment_stability(capsys):
    t0 = time.monotonic()
    result = moment_stability(
        make_env_a(), 2.0, [10, 20, 40], 10**5, master_seed=808
    )
    ests = [r.estimate for r in result.rows]
    raw_ratio = max(ests) / min(ests)
    elapsed = time.monotonic() - t0
    ok = result.bounded and elapsed < 300
    _report(
        capsys,
        f"ACCEPTANCE 8 [{'PASS' if ok else 'FAIL'}] E|log W_n|^2 on env A, "
        f"n=10/20/40, R=1e5: estimates "
        f"{', '.join(f'{e:.4f}' for e in ests)} (ratio {raw_ratio:.3f}, "
        f"SE-adjusted {result.ratio:.3f} <= 2) ({elapsed:.1f}s < 300s)"
    )
    assert result.bounded
    assert elapsed < 300


def test_criterion_09_thread_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    config = tmp_path / "config.json"
    config.write_text(
        """{
  "kind": "rate",
  "environment": {"atoms": [
    {"offspring": {"kind": "shifted_poisson", "lam": 1.0},
     "immigration": {"kind": "poisson", "nu": 1.0}, "prob": 0.5},
    {"offspring": {"kind": "shifted_poisson", "lam": 2.0},
     "immigration": {"kind": "poisson", "nu": 1.0}, "prob": 0.5}]},
  "x_grid": {"min": -1.0, "max": 1.0, "step": 1.0},
  "n_list": [8, 16],
  "replicates": 20000,
  "master_seed": 99,
  "horizon": 10
}
"""
    )
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(
            [
                "--config",
                str(config),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ]
        )
        assert code == 0
        outputs.append((out / "rate.csv").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        f"ACCEPTANCE 9 [{'PASS' if identical else 'FAIL'}] rate CSV bytes "
        f"identical across --threads 1/4/8 ({elapsed:.1f}s)"
    )
    assert identical


def test_criterion_10_normal_cdf_accuracy(capsys):
    t0 = time.monotonic()
    xs = np.linspace(-8.0, 8.0, 1000)
    with mp.workdps(30):
        max_err = max(
            abs(std_normal_cdf(float(x)) - float(mp.ncdf(mp.mpf(float(x)))))
            for x in xs
        )
    elapsed = time.monotonic() - t0
    ok = max_err <= 1e-12 and elapsed < 1.0
    _report(
        capsys,
        f"ACCEPTANCE 10 [{'PASS' if ok else 'FAIL'}] normal CDF vs "
        f"high-precision oracle, 1000 points in [-8, 8]: max error "
        f"{max_err:.2e} <= 1e-12 ({elapsed:.2f}s < 1s)"
    )
    assert max_err <= 1e-12
    assert elapsed < 1.0
