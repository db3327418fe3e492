"""Monte Carlo estimators that confront the limit theorems with simulation.

Each estimator runs seeded batches from :mod:`bpire.trajectory`, reduces
them to summary statistics with binomial or sample standard errors, and
attaches the analytic predictions from :mod:`bpire.analytics`.  All outputs
are deterministic functions of ``(environment, parameters, master_seed)``;
standardisation always uses the analytic ``mu`` and ``sigma`` of the
environment, never sample moments.

No estimator holds the rows of a batch: each runs one batch through
:func:`bpire.trajectory.run_batch` with a ``keep`` function, to which each
chunk hands every recorded generation where it runs.  The CDF estimators
keep counts: a chunk standardises a generation's row and counts it at each
grid point, and the counts of all chunks sum to those of one sort of the
whole batch.  The mean estimators keep moments: a chunk computes each
statistic they average, a function of its ``log W = log Z - S`` rows at
one recorded generation or two consecutive ones, and keeps its count, mean
and sum of squared deviations ``M2``.  The caller merges the moments of
all chunks in stream order (Chan, Golub and LeVeque 1979), and the merged
mean and standard error ``sqrt(M2 / (n - 1)) / sqrt(n)`` do not depend on
the thread count.  They may differ by a few ulps from those of one pass over
the whole batch, which sums in another order.  The rate experiment keeps
both from its one batch: counts at ``n_list`` and the moments of
:func:`estimate_elogw` at its horizon, so its ``E log W`` and its CDFs
share their replicates.  A standard error that adds their variances as
independent, as acceptance criteria 4 and 5 do, is therefore slightly
conservative, until the paired SE of ROADMAP item 16.  Each estimator
keeps one slot per chunk of 8192 replicates: three floats per statistic
for the mean estimators, and a ``(len(n_list), len(grid))`` float64 array
for the CDF estimators, whose memory therefore grows with the replicates
times the grid.

Inputs are checked before any batch runs: generations by the rule of a
batch's ``record``, grids as nonempty, finite and ascending, the replicates
of every standard error as at least 2, and every gate has at least two
values to compare.  The CDF estimators read their rows from one matrix
``fhat``, the summed counts over R with a row per generation and a column
per grid point, and from ``fhat - Phi``.

Results and their rows are ``NamedTuple`` records, and a row record is its
CSV row: the fields of ``RatePoint``, ``DecayRow``, ``BerryEsseenRow`` and
``LaplaceRow``, in declaration order, are the columns of the CLI's CSV
files, and the CLI writes each row as it is.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analytics import edgeworth_q, limit_curve, std_normal_cdf
from .env_model import EnvironmentModel, MomentSummary, log_mean_moments
from .sampler import PROMOTION_THRESHOLD
from .trajectory import Reduction, as_int, run_batch

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


class EmpiricalCdf(NamedTuple):
    """Empirical CDF of a sample on a fixed grid with 99% binomial CIs."""

    grid: np.ndarray
    values: np.ndarray
    replicates: int
    ci_halfwidth: np.ndarray


def _grid(grid: Sequence[float], name: str) -> np.ndarray:
    """``grid`` as an array, checked to be nonempty, finite and sorted
    ascending (a NaN would pass the order test, which it compares false)."""
    grid_arr = np.asarray(grid, dtype=np.float64)
    if grid_arr.size == 0:
        raise ValueError(f"{name} must have at least one point")
    if not np.isfinite(grid_arr).all():
        raise ValueError(f"{name} must have finite points")
    if np.any(np.diff(grid_arr) < 0):
        raise ValueError(f"{name} must be sorted ascending")
    return grid_arr


def _count(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``#{samples <= x}`` for each point x of the ascending ``grid``: one
    sort plus a vectorised merge."""
    return np.searchsorted(np.sort(samples), grid, side="right")


def empirical_cdf(samples: np.ndarray, grid: Sequence[float]) -> EmpiricalCdf:
    """``F_hat(x) = #{samples <= x} / R`` for each grid point; grid must be
    nonempty and sorted ascending."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empirical_cdf requires a nonempty sample")
    grid_arr = _grid(grid, "grid")
    values = _count(samples, grid_arr) / samples.size
    ci = Z_99 * np.sqrt(values * (1.0 - values) / samples.size)
    return EmpiricalCdf(grid=grid_arr, values=values, replicates=samples.size, ci_halfwidth=ci)


class RatePoint(NamedTuple):
    """One (x, n) cell of a rate curve: ``dhat = sqrt(n) (F_hat_n(x) -
    Phi(x))`` with ``se = sqrt(n)`` times the binomial standard error, the
    predicted limit ``g`` and the Edgeworth-only part ``q_only``."""

    x: float
    n: int
    dhat: float
    se: float
    g: float
    q_only: float


class RateCurve(NamedTuple):
    """The rows of a rate curve and the ``E log W`` of its limit, with its
    SE and the increment diagnostic of :class:`ElogWEstimate`
    (``e_log_w_increment``); all three are 0 for the walk oracle."""

    rows: tuple[RatePoint, ...]
    e_log_w: float
    e_log_w_se: float
    e_log_w_increment: float
    moments: MomentSummary
    warnings: tuple[str, ...] = ()

    def at(self, x: float, n: int) -> RatePoint:
        for row in self.rows:
            if row.n == n and row.x == x:
                return row
        raise KeyError((x, n))


def _rate_curve(ns: list[int], x_grid: np.ndarray, fhat: np.ndarray, replicates: int,
                moments: MomentSummary, e_log_w: float, e_log_w_se: float,
                e_log_w_increment: float) -> RateCurve:
    """The rows of a rate curve from ``fhat``, the empirical CDFs of
    ``replicates`` samples on ``x_grid``, one row per generation of ``ns``."""
    xs = x_grid.tolist()
    phi = np.array([std_normal_cdf(x) for x in xs])
    g = [limit_curve(x, moments, e_log_w) for x in xs]
    q = [edgeworth_q(x, moments) for x in xs]
    rows: list[RatePoint] = []
    for n, values, dev in zip(ns, fhat.tolist(), (fhat - phi).tolist()):
        sqrt_n = math.sqrt(n)
        for x, f, d, g_x, q_x in zip(xs, values, dev, g, q):
            rows.append(
                RatePoint(
                    x=x,
                    n=n,
                    dhat=sqrt_n * d,
                    se=sqrt_n * math.sqrt(f * (1.0 - f) / replicates),
                    g=g_x,
                    q_only=q_x,
                )
            )
    warnings = () if replicates >= 10**4 else (
        f"replicates={replicates} is below 10^4; binomial confidence "
        "intervals on dhat are too wide for rate comparisons",
    )
    return RateCurve(
        rows=tuple(rows),
        e_log_w=e_log_w,
        e_log_w_se=e_log_w_se,
        e_log_w_increment=e_log_w_increment,
        moments=moments,
        warnings=warnings,
    )


def _standardize(values: np.ndarray, n: int, moments: MomentSummary) -> np.ndarray:
    return (values - n * moments.mu) / (math.sqrt(n) * moments.sigma)


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` of a nonempty array: the mean by ``np.mean``,
    and the sum of squared deviations from it in a second pass."""
    mean = np.mean(values)
    dev = values - mean
    return values.size, mean, np.sum(dev * dev)


def _merge(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold the ``(count, mean, M2)`` of consecutive parts, along axis 0
    and in that order, into the count, mean and M2 of their union; the last
    axis holds the three (Chan, Golub and LeVeque 1979).  A non-finite
    statistic gives a non-finite mean or M2, which the callers refuse."""
    count, mean, m2 = moments[0].T
    with np.errstate(over="ignore", invalid="ignore"):
        for part_count, part_mean, part_m2 in moments[1:].transpose(0, 2, 1):
            total = count + part_count
            delta = part_mean - mean
            mean = mean + delta * (part_count / total)
            m2 = m2 + part_m2 + delta * delta * (count * part_count / total)
            count = total
    return count, mean, m2


#: A statistic of a mean estimator, ``(n, f)``: ``f(log_w, previous)``
#: returns one value per replicate from the ``log W`` rows, by the
#: subtraction of :meth:`bpire.trajectory.BatchResult.log_w_at`, at the
#: recorded generation n and at the one recorded before it (``None`` at the
#: first).
Statistic = tuple[int, Callable[[np.ndarray, np.ndarray | None], np.ndarray]]


def _batch(env: EnvironmentModel, record: list[int], replicates: int, master_seed: int,
           threads: int, threshold: int = PROMOTION_THRESHOLD, *,
           cdf: tuple[MomentSummary, list[int], np.ndarray] | None = None,
           statistics: Sequence[Statistic] = (), populations: int = 1
           ) -> tuple[np.ndarray | None, list[tuple[float, float]]]:
    """Run one batch that records the checked ``record`` and return what
    its chunks keep: the empirical CDFs ``fhat`` and the means.

    With ``cdf = (moments, ns, grid)``, each chunk standardises its ``log
    Z_n`` row (its ``S_n`` row with ``populations`` 0) at each generation n
    of ``ns`` and counts it at each point of ``grid``; the counts of all
    chunks sum to those of one sort of the whole batch, and ``fhat`` is
    their sum over ``replicates``, one row per generation of ``ns`` (None
    without ``cdf``).  Each chunk keeps the moments of every
    statistic at its generation, and its ``log W`` row lives until its next
    recorded one; the means are those of ``statistics`` in the order given,
    each with its standard error ``sqrt(M2 / (n - 1)) / sqrt(n)``, from the
    moments of all chunks merged.  With statistics, :func:`_se_replicates`
    checks ``replicates`` first."""
    moments, ns, grid = cdf or (None, [], None)
    counted = {n: i for i, n in enumerate(ns)}
    slots = {}
    if ns:
        slots["counts"] = (len(ns), len(grid))
    if statistics:
        _se_replicates(replicates)
        slots["moments"] = (len(statistics), 3)

    def keep(views: dict[str, np.ndarray], g: int, s: np.ndarray, log_z: np.ndarray | None,
             log_zbar: np.ndarray | None) -> None:
        n = record[g]
        if n in counted:
            views["counts"][counted[n]] = _count(
                _standardize(log_z if populations else s, n, moments), grid)
        if statistics:
            log_w = log_z - s
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean raises later
                for i, (at, statistic) in enumerate(statistics):
                    if at == n:
                        views["moments"][i] = _moments(statistic(log_w, views.get("previous")))
            views["previous"] = log_w

    out = run_batch(env, record[-1], replicates, master_seed, record,
                    Reduction(keep, (), slots), populations, threshold, threads)[-1]
    fhat = out["counts"].sum(axis=0) / int(replicates) if ns else None
    means = []
    if statistics:
        means = [(float(mean), math.sqrt(m2 / (count - 1)) / math.sqrt(count))
                 for count, mean, m2 in zip(*_merge(out["moments"]))]
    return fhat, means


def _cdf_inputs(env: EnvironmentModel, what: str, n_list: Sequence[int],
                grid: Sequence[float], grid_name: str
                ) -> tuple[MomentSummary, list[int], np.ndarray]:
    """The checked inputs of a CDF estimator ``what``: the moments of an
    environment with ``sigma > 0``, the generations and the grid."""
    moments = log_mean_moments(env)
    if not moments.sigma2 > 0.0:
        raise ValueError(
            f"{what} requires an environment with Var(log m0) > 0 "
            "(standardisation divides by sigma); "
            f"Var(log m) = {moments.sigma2!r} (all atoms share one offspring mean)"
        )
    return moments, _generations(n_list, 1, "n_list"), _grid(grid, grid_name)


def _se_replicates(replicates: int) -> None:
    """Check, before any batch runs, the ``replicates`` of a batch whose
    standard errors :func:`_batch` forms: an integer, positive as
    every batch needs, and at least 2, as a standard error needs."""
    replicates = as_int(replicates, "replicates")
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    if replicates < 2:
        raise ValueError(f"a standard error needs at least 2 replicates, got {replicates}")


def _power_mean_se(mean_se: tuple[float, float], power: float, what: str, name: str,
                   n: int) -> tuple[float, float]:
    """``mean_se``, the mean of ``|values|^power`` and its standard error,
    which a large ``power`` can overflow: a mean or SE that is not a finite
    double raises ``ValueError`` naming ``what`` at ``n`` and the parameter
    ``name``."""
    est, se = mean_se
    if not (math.isfinite(est) and math.isfinite(se)):
        raise ValueError(
            f"{what} at n = {n} or its SE overflows a double for {name} = {power!r}"
        )
    return est, se


def _generations(n_list: Sequence[int], lowest: int, name: str) -> list[int]:
    """``n_list`` as ints (:func:`bpire.trajectory.as_int`), checked to be
    nonempty, strictly ascending and at least ``lowest`` (0 or 1): the rule
    :func:`bpire.trajectory.simulate_batch` applies to ``record``."""
    ns = [as_int(n, f"{name} entry") for n in n_list]
    if not ns or ns[0] < lowest or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(
            f"{name} must be ascending {'positive' if lowest else 'nonnegative'} generations"
        )
    return ns


def _horizon(horizon: int) -> int:
    """``horizon`` as an int, checked to be nonnegative."""
    horizon = as_int(horizon, "horizon")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return horizon


class ElogWEstimate(NamedTuple):
    """``E log W_N`` with SE plus the last-increment diagnostic: the mean of
    ``|log W_{N+1} - log W_N|``, which should sit far below ``se`` when the
    horizon has converged."""

    mean: float
    se: float
    horizon: int
    replicates: int
    increment_estimate: float
    increment_se: float


def _elogw_statistics(horizon: int) -> list[Statistic]:
    """The statistics of ``E log W`` at ``horizon``, whose generation and
    the next must be recorded: ``log W_h`` and the increment ``|log W_{h+1}
    - log W_h|``."""
    return [(horizon, lambda log_w, previous: log_w),
            (horizon + 1, lambda log_w, previous: np.abs(log_w - previous))]


def estimate_elogw(
    env: EnvironmentModel,
    horizon: int = 30,
    replicates: int = 100_000,
    master_seed: int = 0,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> ElogWEstimate:
    """Estimate ``E log W`` by the mean of ``log W_N`` at ``N = horizon``.

    ``W_n = Z_n / Pi_n`` converges a.s. and its log-mean converges to the
    limit mean; the attached increment diagnostic quantifies the remaining
    horizon bias at the observable level.
    """
    horizon = _horizon(horizon)
    _, ((mean, se), (increment_estimate, increment_se)) = _batch(
        env, [horizon, horizon + 1], replicates, master_seed, threads, threshold,
        statistics=_elogw_statistics(horizon))
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
    horizon: int = 30,
    threads: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
) -> RateCurve:
    """Measure ``sqrt(n) (F_hat_n(x) - Phi(x))`` for the standardised
    ``log Z_n`` against the predicted limit curve.

    The limit prediction ``g(x) = -pdf(x) E log W / sigma + Q(x)`` takes
    ``E log W``, its SE and the increment diagnostic from the same batch,
    which records ``n_list``, ``horizon`` and ``horizon + 1``: they are
    those :func:`estimate_elogw` returns for ``(env, horizon, replicates,
    master_seed)``, different only by rounding where a chunk turns quiet
    before ``horizon + 1``.  So ``E log W`` and the CDFs share their
    replicates; a standard error that adds their variances as independent
    is slightly conservative.  Every argument is checked before the batch
    runs.
    """
    moments, ns, x_grid = _cdf_inputs(env, "clt_rate_experiment", n_list, x_grid, "x_grid")
    horizon = _horizon(horizon)
    fhat, ((e_log_w, e_log_w_se), (increment, _)) = _batch(
        env, sorted({*ns, horizon, horizon + 1}), replicates, master_seed, threads, threshold,
        cdf=(moments, ns, x_grid), statistics=_elogw_statistics(horizon))
    return _rate_curve(ns, x_grid, fhat, int(replicates), moments, e_log_w, e_log_w_se,
                       increment)


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
    moments, ns, x_grid = _cdf_inputs(env, "walk_oracle_rate", n_list, x_grid, "x_grid")
    fhat, _ = _batch(env, ns, replicates, master_seed, threads, cdf=(moments, ns, x_grid),
                     populations=0)
    return _rate_curve(ns, x_grid, fhat, int(replicates), moments, 0.0, 0.0, 0.0)


class DecayRow(NamedTuple):
    n: int
    estimate: float
    se: float
    qualifies: bool


class DecaySeries(NamedTuple):
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
    n_list: Sequence[int],
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
    ns = _generations(n_list, 0, "n_list")
    record = sorted({n for n in ns} | {n + 1 for n in ns})
    _, means = _batch(
        env, record, replicates, master_seed, threads, threshold,
        statistics=[(n + 1, lambda log_w, previous: np.abs(log_w - previous) ** q) for n in ns])
    rows: list[DecayRow] = []
    for n, increment in zip(ns, means):
        est, se = _power_mean_se(increment, q, "E|log W_(n+1) - log W_n|^q", "q", n)
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


class BerryEsseenRow(NamedTuple):
    """Sup-distance row: ``sup_dev = sup_x |F_hat_n(x) - Phi(x)|`` over the
    grid, ``se_max`` the binomial SE at the argmax point, and ``c_fit =
    sup_dev * sqrt(n)`` (the implied Berry-Esseen constant at this n)."""

    n: int
    sup_dev: float
    se_max: float
    c_fit: float


class BerryEsseenResult(NamedTuple):
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


def _berry_esseen(ns: list[int], grid: np.ndarray, fhat: np.ndarray,
                  replicates: int) -> BerryEsseenResult:
    """The sup-distance rows and constants from ``fhat``, the empirical CDFs
    of ``replicates`` samples on ``grid``, one row per generation of ``ns``,
    with the warnings of the grid."""
    warnings = _grid_warnings(grid)
    phi = np.array([std_normal_cdf(float(x)) for x in grid])
    rows: list[BerryEsseenRow] = []
    for n, values, dev in zip(ns, fhat, np.abs(fhat - phi)):
        i = int(np.argmax(dev))
        f = float(values[i])
        rows.append(
            BerryEsseenRow(
                n=n,
                sup_dev=float(dev[i]),
                se_max=math.sqrt(f * (1.0 - f) / replicates),
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
    stability across ``n_list`` (within a factor 2), which takes at least
    two generations."""
    moments, ns, grid = _cdf_inputs(env, "berry_esseen_sup", n_list, grid, "grid")
    if len(ns) < 2:
        raise ValueError(
            "n_list must have at least two generations: the stability of the constants "
            f"compares them across n, got {ns}"
        )
    fhat, _ = _batch(env, ns, replicates, master_seed, threads, threshold,
                     cdf=(moments, ns, grid))
    return _berry_esseen(ns, grid, fhat, int(replicates))


class LaplaceRow(NamedTuple):
    """``phi_hat = mean exp(-t W_N)`` with its SE; ``weighted`` is
    ``(log t)^r * phi_hat`` (NaN when ``t <= 1``)."""

    t: float
    phi_hat: float
    se: float
    weighted: float


class LaplaceResult(NamedTuple):
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
    tests for explosion: the weighted column over rows with ``t >= e``, at
    least two, may not rise above 10 times its first value (with 3 SE slack
    each side).  A column that *decays* across the grid passes, as it should.
    """
    if env.has_immigration():
        raise ValueError(
            "laplace_decay applies to the no-immigration martingale limit; "
            "the environment has immigration"
        )
    ts = _grid(t_grid, "t_grid").tolist()
    if ts[0] < 0.0:
        raise ValueError(f"t_grid must be nonnegative, got {ts[0]}")
    horizon = _horizon(horizon)
    points = sum(t >= math.e for t in ts)
    if points < 2:
        raise ValueError(
            "t_grid must have at least two points t >= e, which the boundedness check "
            f"compares, got {points}"
        )
    _, means = _batch(
        env, [horizon], replicates, master_seed, threads, threshold,
        statistics=[(horizon, lambda log_w, previous, t=t: np.exp(-t * np.exp(log_w)))
                    for t in ts])
    rows: list[LaplaceRow] = []
    for t, (phi_hat, se) in zip(ts, means):
        weighted = math.log(t) ** r * phi_hat if t > 1.0 else math.nan
        rows.append(LaplaceRow(t=t, phi_hat=phi_hat, se=se, weighted=weighted))

    checked = [
        (row.weighted, math.log(row.t) ** r * row.se)
        for row in rows
        if row.t >= math.e
    ]
    hi, hi_se = max(checked)
    lo, _ = min(checked)
    first, first_se = checked[0]
    ratio = math.inf if lo <= 0.0 else hi / lo
    bounded = (hi - 3.0 * hi_se) <= 10.0 * (first + 3.0 * first_se)
    return LaplaceResult(rows=tuple(rows), r=r, bounded=bounded, ratio=ratio)


class MomentRow(NamedTuple):
    n: int
    estimate: float
    se: float


class MomentStabilityResult(NamedTuple):
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
    """Per-n estimates of ``E |log W_n|^r`` with a stability flag, which
    compares at least two generations ``n >= 10``."""
    if not (r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    ns = _generations(n_list, 0, "n_list")
    compared = sum(n >= 10 for n in ns)
    if compared < 2:
        raise ValueError(
            "n_list must have at least two generations n >= 10, which the stability check "
            f"compares, got {compared}"
        )
    _, means = _batch(env, ns, replicates, master_seed, threads, threshold,
                      statistics=[(n, lambda log_w, previous: np.abs(log_w) ** r) for n in ns])
    rows = [MomentRow(n, *_power_mean_se(power, r, "E|log W_n|^r", "r", n))
            for n, power in zip(ns, means)]
    tail = [row for row in rows if row.n >= 10]
    hi = max(tail, key=lambda row: row.estimate)
    lo = min(tail, key=lambda row: row.estimate)
    denom = lo.estimate + 3.0 * lo.se
    ratio = math.inf if denom <= 0.0 else (hi.estimate - 3.0 * hi.se) / denom
    bounded = ratio <= 2.0
    return MomentStabilityResult(r=r, rows=tuple(rows), bounded=bounded, ratio=ratio)
