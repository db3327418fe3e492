"""Monte Carlo estimators that confront the limit theorems with simulation.

Each estimator runs seeded batches from :mod:`bpire.trajectory`, reduces
them to summary statistics with binomial or sample standard errors, and
attaches the analytic predictions from :mod:`bpire.analytics`.  All outputs
are deterministic functions of ``(environment, parameters, master_seed)``;
standardisation always uses the analytic ``mu`` and ``sigma`` of the
environment, never sample moments.  The fields of ``RatePoint``,
``DecayRow``, ``BerryEsseenRow`` and ``LaplaceRow``, in declaration order,
are the columns of the CLI's CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analytics import edgeworth_q, limit_curve, std_normal_cdf, std_normal_pdf
from .env_model import EnvironmentModel, MomentSummary, log_mean_moments
from .sampler import PROMOTION_THRESHOLD
from .trajectory import simulate_batch, simulate_walk_batch

#: 99% two-sided normal quantile used for every binomial confidence interval:
#: ``scipy.special.ndtri(0.995)`` to the last bit, written out so that
#: importing the package does not load scipy.
Z_99 = 2.5758293035489004

#: Degrees of freedom from which :func:`student_t_99` is the Cornish-Fisher
#: expansion alone: its first omitted term is below 2e-16 relative there.
_T_EXPANSION_DF = 2000


def student_t_99(df: int) -> float:
    """The 0.995 quantile of Student's t with ``df >= 1`` degrees of freedom
    (``scipy.special.stdtrit(df, 0.995)``), in plain Python.

    The start is the Cornish-Fisher expansion of the quantile in ``1/df``
    to the fourth order (Abramowitz & Stegun 26.7.5) about ``Z_99``.  From
    ``df = _T_EXPANSION_DF`` on it is the answer.  Below, Newton's method
    solves ``log P(T > t) = log 0.005`` in ``log t`` from there, with the
    upper tail of :func:`_t_upper_tail`.
    """
    if df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    z2 = Z_99 * Z_99
    g1 = (z2 + 1) / 4
    g2 = ((5 * z2 + 16) * z2 + 3) / 96
    g3 = (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    t = Z_99 * (1 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df)
    if df >= _T_EXPANSION_DF:
        return t
    log_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    for _ in range(64):
        tail = _t_upper_tail(df, t)
        density = math.exp(log_c - (df + 1) / 2 * math.log1p(t * t / df))
        step = math.log(tail / 0.005) * tail / (t * density)
        t *= math.exp(step)
        if abs(step) < 1e-9:  # quadratic convergence: t is now exact to rounding
            break
    return t


def _t_upper_tail(df: int, t: float) -> float:
    """``P(T > t)`` for Student's t with ``df`` degrees of freedom and
    ``t > 0``, as a sum of positive terms.

    The closed-form CDF of integer df (A&S 26.7.3-4) is a finite sum in
    ``c = df / (df + t^2)``; its complement is the rest of the series,
    which has no cancellation: with ``m, h = divmod(df, 2)``, ``P(T > t) =
    w * sum_{k >= m} r_k c^k``, where ``r_k = prod_{j <= k} (2j - 1 + h) /
    (2j + h)``, and ``w = sqrt(1 - c) / 2`` for even df and ``sqrt(c (1 -
    c)) / pi`` for odd.
    """
    m, h = divmod(df, 2)
    d = df + t * t
    c = df / d
    w = t / math.sqrt(d) * (0.5 if h == 0 else math.sqrt(c) / math.pi)
    r = 1.0
    for j in range(1, m + 1):
        r *= (2 * j - 1 + h) / (2 * j + h)
    term = r * math.exp(-m * math.log1p(t * t / df))  # r_m c^m
    # each term is below c times the one before, so the terms a stop leaves
    # sum to less than term / (1 - c)
    small = 2.0**-56 * (t * t / d)
    total, k = 0.0, m
    while term > small * total:
        total += term
        k += 1
        term *= c * (2 * k - 1 + h) / (2 * k + h)
    return w * total


#: Stream-id offset for the martingale-limit estimation batch inside
#: clt_rate_experiment: same master seed, disjoint replicate stream range
#: (main batches use ids [0, R), this starts at 2**32).
ELOGW_STREAM_OFFSET = 2**32


@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical CDF of a sample on a fixed grid with 99% binomial CIs."""

    grid: np.ndarray
    values: np.ndarray
    replicates: int
    ci_halfwidth: np.ndarray


def empirical_cdf(samples: np.ndarray, grid: Sequence[float]) -> EmpiricalCdf:
    """``F_hat(x) = #{samples <= x} / R`` for each grid point.

    One sort plus a vectorised merge; grid must be sorted ascending.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empirical_cdf requires a nonempty sample")
    grid_arr = np.asarray(grid, dtype=np.float64)
    if np.any(np.diff(grid_arr) < 0):
        raise ValueError("grid must be sorted ascending")
    r = samples.size
    ordered = np.sort(samples)
    values = np.searchsorted(ordered, grid_arr, side="right") / r
    ci = Z_99 * np.sqrt(values * (1.0 - values) / r)
    return EmpiricalCdf(grid=grid_arr, values=values, replicates=r, ci_halfwidth=ci)


@dataclass(frozen=True)
class RatePoint:
    """One (x, n) cell of a rate curve: ``dhat = sqrt(n) (F_hat_n(x) -
    Phi(x))`` with ``se = sqrt(n)`` times the binomial standard error, the
    predicted limit ``g`` and the Edgeworth-only part ``q_only``."""

    x: float
    n: int
    dhat: float
    se: float
    g: float
    q_only: float


@dataclass(frozen=True)
class RateCurve:
    rows: tuple[RatePoint, ...]
    e_log_w: float
    e_log_w_se: float
    moments: MomentSummary
    warnings: tuple[str, ...] = ()

    def at(self, x: float, n: int) -> RatePoint:
        for row in self.rows:
            if row.n == n and row.x == x:
                return row
        raise KeyError((x, n))


def rate_curve_from_samples(
    standardized: Mapping[int, np.ndarray],
    x_grid: Sequence[float],
    moments: MomentSummary,
    e_log_w: float,
    e_log_w_se: float = 0.0,
    warnings: Sequence[str] = (),
) -> RateCurve:
    """Shared reduction: standardised samples per n -> RateCurve rows.

    This is also the self-test entry point: exact standard normal samples
    must produce ``dhat`` compatible with 0 at every grid point.
    """
    rows: list[RatePoint] = []
    for n in sorted(standardized):
        cdf = empirical_cdf(standardized[n], x_grid)
        sqrt_n = math.sqrt(n)
        for x, fhat in zip(cdf.grid, cdf.values):
            x = float(x)
            fhat = float(fhat)
            se = sqrt_n * math.sqrt(fhat * (1.0 - fhat) / cdf.replicates)
            rows.append(
                RatePoint(
                    x=x,
                    n=n,
                    dhat=sqrt_n * (fhat - std_normal_cdf(x)),
                    se=se,
                    g=limit_curve(x, moments, e_log_w),
                    q_only=edgeworth_q(x, moments),
                )
            )
    return RateCurve(
        rows=tuple(rows),
        e_log_w=e_log_w,
        e_log_w_se=e_log_w_se,
        moments=moments,
        warnings=tuple(warnings),
    )


def _standardize(values: np.ndarray, n: int, moments: MomentSummary) -> np.ndarray:
    return (values - n * moments.mu) / (math.sqrt(n) * moments.sigma)


def _require_sigma_positive(env: EnvironmentModel, what: str) -> MomentSummary:
    moments = log_mean_moments(env)
    if not moments.sigma2 > 0.0:
        raise ValueError(
            f"{what} requires an environment with Var(log m0) > 0 "
            "(standardisation divides by sigma); "
            f"Var(log m) = {moments.sigma2!r} (all atoms share one offspring mean)"
        )
    return moments


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``vals`` and its standard error, which needs at least
    two values."""
    if vals.size < 2:
        raise ValueError(f"a standard error needs at least 2 replicates, got {vals.size}")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def _power_mean_se(values: np.ndarray, power: float, what: str, name: str, n: int
                   ) -> tuple[float, float]:
    """:func:`_mean_se` of ``|values|^power``, which a large ``power`` can
    overflow: a mean or SE that is not a finite double raises ``ValueError``
    naming ``what`` at ``n`` and the parameter ``name``."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises
        est, se = _mean_se(np.abs(values) ** power)
    if not (math.isfinite(est) and math.isfinite(se)):
        raise ValueError(
            f"{what} at n = {n} or its SE overflows a double for {name} = {power!r}"
        )
    return est, se


def _generations(n_list: Sequence[int], lowest: int, name: str) -> list[int]:
    """The distinct generations of ``n_list`` in ascending order, all at
    least ``lowest`` (0 or 1)."""
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < lowest:
        raise ValueError(
            f"{name} must contain {'positive' if lowest else 'nonnegative'} generations"
        )
    return ns


def _rate_inputs(n_list: Sequence[int], replicates: int) -> tuple[list[int], list[str]]:
    """Check a rate curve's generations and warn when R is too small for
    its confidence intervals."""
    n_list = list(n_list)
    if n_list != sorted(n_list) or len(set(n_list)) != len(n_list) or n_list[0] < 1:
        raise ValueError("n_list must be ascending positive generations")
    warnings: list[str] = []
    if replicates < 10**4:
        warnings.append(
            f"replicates={replicates} is below 10^4; binomial confidence "
            "intervals on dhat are too wide for rate comparisons"
        )
    return n_list, warnings


@dataclass(frozen=True)
class ElogWConfig:
    """How to estimate ``E log W`` inside clt_rate_experiment: the horizon N
    at which ``log W_N`` proxies the limit, and the replicate count."""

    horizon: int = 30
    replicates: int = 100_000


@dataclass(frozen=True)
class ElogWEstimate:
    """``E log W_N`` with SE plus the last-increment diagnostic: the mean of
    ``|log W_{N+1} - log W_N|``, which should sit far below ``se`` when the
    horizon has converged."""

    mean: float
    se: float
    horizon: int
    replicates: int
    increment_estimate: float
    increment_se: float


def estimate_elogw(
    env: EnvironmentModel,
    horizon: int = 30,
    replicates: int = 100_000,
    master_seed: int = 0,
    stream_offset: int = 0,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> ElogWEstimate:
    """Estimate ``E log W`` by the mean of ``log W_N`` at ``N = horizon``.

    ``W_n = Z_n / Pi_n`` converges a.s. and its log-mean converges to the
    limit mean; the attached increment diagnostic quantifies the remaining
    horizon bias at the observable level.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    batch = simulate_batch(
        env,
        horizon + 1,
        replicates,
        master_seed,
        record=(horizon, horizon + 1),
        threads=threads,
        stream_offset=stream_offset,
        threshold=threshold,
    )
    w_n = batch.log_w_at(horizon)
    mean, se = _mean_se(w_n)
    increment_estimate, increment_se = _mean_se(np.abs(batch.log_w_at(horizon + 1) - w_n))
    return ElogWEstimate(
        mean=mean,
        se=se,
        horizon=horizon,
        replicates=replicates,
        increment_estimate=increment_estimate,
        increment_se=increment_se,
    )


def clt_rate_experiment(
    env: EnvironmentModel,
    x_grid: Sequence[float],
    n_list: Sequence[int],
    replicates: int,
    master_seed: int,
    e_log_w_config: ElogWConfig = ElogWConfig(),
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> RateCurve:
    """Measure ``sqrt(n) (F_hat_n(x) - Phi(x))`` for the standardised
    ``log Z_n`` against the predicted limit curve.

    The limit prediction ``g(x) = -pdf(x) E log W / sigma + Q(x)`` uses
    ``E log W`` estimated from the same master seed on a disjoint stream
    range (ids from ``2**32``), so the whole curve remains a deterministic
    function of ``(env, parameters, master_seed)``.
    """
    moments = _require_sigma_positive(env, "clt_rate_experiment")
    n_list, warnings = _rate_inputs(n_list, replicates)
    batch = simulate_batch(
        env,
        n_list[-1],
        replicates,
        master_seed,
        record=tuple(n_list),
        threads=threads,
        threshold=threshold,
    )
    standardized = {
        n: _standardize(batch.log_z_at(n), n, moments) for n in n_list
    }
    # released before the E log W batch runs (and forks its pool)
    del batch
    elogw = estimate_elogw(
        env,
        horizon=e_log_w_config.horizon,
        replicates=e_log_w_config.replicates,
        master_seed=master_seed,
        stream_offset=ELOGW_STREAM_OFFSET,
        threads=threads,
        threshold=threshold,
    )
    return rate_curve_from_samples(
        standardized,
        x_grid,
        moments,
        e_log_w=elogw.mean,
        e_log_w_se=elogw.se,
        warnings=warnings,
    )


def walk_oracle_rate(
    env: EnvironmentModel,
    x_grid: Sequence[float],
    n_list: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> RateCurve:
    """Rate curve for the bare environment walk ``S_n`` (no branching).

    The steps are ``log m(xi)`` with the atom probabilities of ``env``; the
    predicted limit is exactly the Edgeworth term ``Q(x)`` (``e_log_w`` is
    pinned to 0).  Subtracting this control curve from a branching rate
    curve isolates the ``-pdf(x) E log W / sigma`` contribution.
    """
    moments = _require_sigma_positive(env, "walk_oracle_rate")
    n_list, warnings = _rate_inputs(n_list, replicates)
    batch = simulate_walk_batch(
        env, n_list[-1], replicates, master_seed, record=tuple(n_list), threads=threads
    )
    standardized = {n: _standardize(batch.s_at(n), n, moments) for n in n_list}
    return rate_curve_from_samples(
        standardized, x_grid, moments, e_log_w=0.0, e_log_w_se=0.0, warnings=warnings
    )


@dataclass(frozen=True)
class DecayRow:
    n: int
    estimate: float
    se: float
    qualifies: bool


@dataclass(frozen=True)
class DecaySeries:
    """Per-n estimates of ``E |log W_{n+1} - log W_n|^q`` and, when at least
    three rows rise 5 SEs above zero, a log-linear fit giving the implied
    geometric decay rate ``rho_hat = exp(-slope)`` with a 99% CI."""

    q: float
    rows: tuple[DecayRow, ...]
    status: str  # "ok" | "inconclusive"
    slope: float | None = None
    rho_hat: float | None = None
    rho_ci: tuple[float, float] | None = None


def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ``ys`` on ``xs`` (at least three points, not
    all ``xs`` equal) and its standard error, in the arithmetic of
    ``scipy.stats.linregress``; equal ``ys`` give a NaN error, as there."""
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    if ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(xs) - 2))
    return float(ssxym / ssxm), float(stderr)


def increment_decay(
    env: EnvironmentModel,
    q: float,
    n_range: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> DecaySeries:
    """Estimate the geometric decay of martingale-log increments.

    For each n the estimate is the sample mean of ``|log W_{n+1} -
    log W_n|^q``.  Rows qualify for the fit only when the estimate exceeds
    five times its SE; with fewer than three qualifying rows the series is
    returned as inconclusive (no fit).  The fit is ordinary least squares of
    ``log estimate`` on n, and the CI uses the Student-t quantile of the
    residual degrees of freedom, :func:`student_t_99`: the closed-form t CDF
    of integer df (Abramowitz & Stegun 26.7.3-4) inverted by Newton's method
    from a Cornish-Fisher start (A&S 26.7.5), or from 2000 degrees of
    freedom on that expansion alone.
    """
    if not (q > 0.0):
        raise ValueError(f"q must be positive, got {q}")
    ns = _generations(n_range, 0, "n_range")
    record = sorted({n for n in ns} | {n + 1 for n in ns})
    batch = simulate_batch(
        env,
        record[-1],
        replicates,
        master_seed,
        record=tuple(record),
        threads=threads,
        threshold=threshold,
    )
    rows: list[DecayRow] = []
    for n in ns:
        est, se = _power_mean_se(batch.log_w_at(n + 1) - batch.log_w_at(n), q,
                                 "E|log W_(n+1) - log W_n|^q", "q", n)
        rows.append(DecayRow(n=n, estimate=est, se=se, qualifies=est > 5.0 * se))

    fit_rows = [r for r in rows if r.qualifies and r.estimate > 0.0]
    if len(fit_rows) < 3:
        return DecaySeries(q=q, rows=tuple(rows), status="inconclusive")

    slope, stderr = _ols(
        np.array([r.n for r in fit_rows], dtype=np.float64),
        np.array([math.log(r.estimate) for r in fit_rows]),
    )
    t99 = student_t_99(len(fit_rows) - 2)
    lo = slope - t99 * stderr
    hi = slope + t99 * stderr
    return DecaySeries(
        q=q,
        rows=tuple(rows),
        status="ok",
        slope=slope,
        rho_hat=math.exp(-slope),
        rho_ci=(math.exp(-hi), math.exp(-lo)),
    )


@dataclass(frozen=True)
class BerryEsseenRow:
    """Sup-distance row: ``sup_dev = sup_x |F_hat_n(x) - Phi(x)|`` over the
    grid, ``se_max`` the binomial SE at the argmax point, and ``c_fit =
    sup_dev * sqrt(n)`` (the implied Berry-Esseen constant at this n)."""

    n: int
    sup_dev: float
    se_max: float
    c_fit: float


@dataclass(frozen=True)
class BerryEsseenResult:
    rows: tuple[BerryEsseenRow, ...]
    c: float
    stable: bool
    warnings: tuple[str, ...] = ()

    def row(self, n: int) -> BerryEsseenRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)


def _grid_warnings(grid: np.ndarray) -> list[str]:
    warnings = []
    if grid[0] > -4.0 + 1e-9 or grid[-1] < 4.0 - 1e-9:
        warnings.append(
            f"grid [{grid[0]}, {grid[-1]}] does not span [-4, 4]; "
            "the sup distance may be truncated"
        )
    max_step = float(np.max(np.diff(grid))) if len(grid) > 1 else math.inf
    # float slack so an arithmetic grid built with step exactly 0.05 passes
    if max_step > 0.05 * (1.0 + 1e-9):
        warnings.append(
            f"grid step {max_step} exceeds 0.05; the sup over the grid may "
            "miss the true supremum"
        )
    return warnings


def berry_esseen_sup_from_samples(
    standardized: Mapping[int, np.ndarray],
    grid: Sequence[float],
) -> BerryEsseenResult:
    """Reduction from standardised samples; also the normal self-test path."""
    grid_arr = np.asarray(grid, dtype=np.float64)
    warnings = _grid_warnings(grid_arr)
    rows: list[BerryEsseenRow] = []
    for n in sorted(standardized):
        cdf = empirical_cdf(standardized[n], grid_arr)
        phi = np.array([std_normal_cdf(float(x)) for x in grid_arr])
        dev = np.abs(cdf.values - phi)
        i = int(np.argmax(dev))
        fhat = float(cdf.values[i])
        rows.append(
            BerryEsseenRow(
                n=n,
                sup_dev=float(dev[i]),
                se_max=math.sqrt(fhat * (1.0 - fhat) / cdf.replicates),
                c_fit=float(dev[i]) * math.sqrt(n),
            )
        )
    cs = [r.c_fit for r in rows]
    return BerryEsseenResult(
        rows=tuple(rows),
        c=max(cs),
        stable=max(cs) <= 2.0 * min(cs),
        warnings=tuple(warnings),
    )


def berry_esseen_sup(
    env: EnvironmentModel,
    n_list: Sequence[int],
    replicates: int,
    grid: Sequence[float],
    master_seed: int,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> BerryEsseenResult:
    """Sup-norm distance of the standardised ``log Z_n`` CDF from the
    normal, per n, with the implied constants ``sup * sqrt(n)`` and their
    stability across ``n_list`` (within a factor 2)."""
    moments = _require_sigma_positive(env, "berry_esseen_sup")
    ns = _generations(n_list, 1, "n_list")
    batch = simulate_batch(
        env, ns[-1], replicates, master_seed, record=tuple(ns), threads=threads,
        threshold=threshold,
    )
    standardized = {n: _standardize(batch.log_z_at(n), n, moments) for n in ns}
    return berry_esseen_sup_from_samples(standardized, grid)


@dataclass(frozen=True)
class LaplaceRow:
    """``phi_hat = mean exp(-t W_N)`` with its SE; ``weighted`` is
    ``(log t)^r * phi_hat`` (NaN when ``t <= 1``)."""

    t: float
    phi_hat: float
    se: float
    weighted: float


@dataclass(frozen=True)
class LaplaceResult:
    """``bounded`` flags non-explosion of the weighted column: its maximum
    over rows with ``t >= e`` must not exceed 10 times its value at the
    first such row (3 SE slack on both sides).  ``ratio`` reports the raw
    max/min of the weighted column for reference; for environments whose
    transform decays much faster than ``(log t)^-r`` this ratio is large
    while the column remains bounded (it is falling, not exploding)."""

    rows: tuple[LaplaceRow, ...]
    r: float
    bounded: bool
    ratio: float


def laplace_decay(
    env: EnvironmentModel,
    t_grid: Sequence[float],
    horizon: int,
    replicates: int,
    master_seed: int,
    r: float = 2.0,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> LaplaceResult:
    """Qualitative spot-check of the Laplace-transform decay of the
    martingale limit: estimates ``E exp(-t W_N)`` on a grid of t values and
    reports whether ``(log t)^r * phi_hat(t)`` stays bounded.

    Only immigration-free environments are accepted (the claim concerns the
    plain branching martingale limit).  ``W_N`` at a finite horizon proxies
    the limit; this is a sanity check on orders of magnitude, not an
    estimate of the true transform.  The claim being spot-checked is an
    upper bound -- ``(log t)^r * phi(t)`` stays bounded -- so the flag
    tests for explosion: the weighted column over rows with ``t >= e`` may
    not rise above 10 times its first value (with 3 SE slack each side).
    A column that *decays* across the grid passes, as it should.
    """
    if env.has_immigration():
        raise ValueError(
            "laplace_decay applies to the no-immigration martingale limit; "
            "the environment has immigration"
        )
    ts = [float(t) for t in t_grid]
    if ts != sorted(ts) or any(t < 0.0 for t in ts):
        raise ValueError("t_grid must be nondecreasing nonnegative reals")
    batch = simulate_batch(
        env, horizon, replicates, master_seed, record=(horizon,), threads=threads,
        threshold=threshold,
    )
    w = np.exp(batch.log_w_at(horizon))
    rows: list[LaplaceRow] = []
    for t in ts:
        phi_hat, se = _mean_se(np.exp(-t * w))
        weighted = math.log(t) ** r * phi_hat if t > 1.0 else math.nan
        rows.append(LaplaceRow(t=t, phi_hat=phi_hat, se=se, weighted=weighted))

    checked = [
        (row.weighted, math.log(row.t) ** r * row.se)
        for row in rows
        if row.t >= math.e
    ]
    if len(checked) >= 2:
        hi, hi_se = max(checked)
        lo, _ = min(checked)
        first, first_se = checked[0]
        ratio = math.inf if lo <= 0.0 else hi / lo
        bounded = (hi - 3.0 * hi_se) <= 10.0 * (first + 3.0 * first_se)
    else:
        ratio = 1.0
        bounded = True
    return LaplaceResult(rows=tuple(rows), r=r, bounded=bounded, ratio=ratio)


@dataclass(frozen=True)
class MomentRow:
    n: int
    estimate: float
    se: float


@dataclass(frozen=True)
class MomentStabilityResult:
    """Estimates of ``E |log W_n|^r`` per n.  ``bounded`` checks that the
    estimates with ``n >= 10`` stay within a factor 2 of each other after 3
    SE slack on both sides (uniform-boundedness spot check)."""

    r: float
    rows: tuple[MomentRow, ...]
    bounded: bool
    ratio: float

    def row(self, n: int) -> MomentRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(n)


def moment_stability(
    env: EnvironmentModel,
    r: float,
    n_list: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> MomentStabilityResult:
    """Per-n estimates of ``E |log W_n|^r`` with a stability flag."""
    if not (r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    ns = _generations(n_list, 0, "n_list")
    batch = simulate_batch(
        env, ns[-1], replicates, master_seed,
        record=tuple(ns), threads=threads, threshold=threshold,
    )
    rows = [MomentRow(n, *_power_mean_se(batch.log_w_at(n), r, "E|log W_n|^r", "r", n))
            for n in ns]
    tail = [row for row in rows if row.n >= 10]
    if len(tail) >= 2:
        hi = max(tail, key=lambda row: row.estimate)
        lo = min(tail, key=lambda row: row.estimate)
        denom = lo.estimate + 3.0 * lo.se
        ratio = math.inf if denom <= 0.0 else (hi.estimate - 3.0 * hi.se) / denom
        bounded = ratio <= 2.0
    else:
        ratio = 1.0
        bounded = True
    return MomentStabilityResult(r=r, rows=tuple(rows), bounded=bounded, ratio=ratio)
