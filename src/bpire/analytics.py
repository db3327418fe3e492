"""Exact analytic quantities for finite-atom environments.

Everything here is closed-form or a convergent series with a certified tail
bound: moments of ``log m_0`` are finite sums over atoms (computed by
:func:`bpire.env_model.log_mean_moments`, which this module re-exports), the
standard normal CDF comes from the complementary error function, and the Edgeworth
correction term and the limit curve of the exact-rate CLT are direct formula
evaluations.  No Monte Carlo enters this module, which is what lets the
statistical experiments treat its outputs as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env_model import (
    LATTICE_MAX_DENOMINATOR,
    EnvironmentModel,
    ImmigrationLaw,
    MomentSummary,
    lattice_span,
    log_mean_moments,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via ``erfc``; absolute error below 1e-12 on
    ``|x| <= 8`` (the erfc implementation is correctly rounded to near
    machine precision, and the 0.5 scaling is exact)."""
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def edgeworth_q(x: float, m: MomentSummary) -> float:
    """First Edgeworth correction term ``mu3 * (1 - x^2) * pdf(x) /
    (6 sigma^3)`` appearing in the exact convergence rate of the CLT."""
    if not (m.sigma2 > 0.0):
        raise ValueError("edgeworth_q requires sigma2 > 0")
    sigma3 = m.sigma2 * m.sigma
    return m.mu3 * (1.0 - x * x) * std_normal_pdf(x) / (6.0 * sigma3)


def limit_curve(x: float, m: MomentSummary, e_log_w: float) -> float:
    """Predicted limit of ``sqrt(n) * (F_n(x) - Phi(x))`` for the
    standardised ``log Z_n``::

        g(x) = -pdf(x) * e_log_w / sigma + Q(x)

    where ``e_log_w`` is the mean of the limiting additive correction
    ``log W`` (estimated upstream) and ``Q`` the Edgeworth term.
    """
    if not (m.sigma2 > 0.0):
        raise ValueError("limit_curve requires sigma2 > 0")
    if not math.isfinite(e_log_w):
        raise ValueError(f"e_log_w must be finite, got {e_log_w}")
    return -std_normal_pdf(x) * e_log_w / m.sigma + edgeworth_q(x, m)


@dataclass(frozen=True)
class HypothesisEntry:
    name: str
    value: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    """Numeric audit of the moment conditions behind the limit theorems.

    Poisson- and geometric-family laws have all moments, so the finiteness
    flags are informative rather than gating; the interesting outputs are
    the computed values and the lattice verdict.
    """

    p: float
    delta: float
    r: float
    entries: tuple[HypothesisEntry, ...]

    def entry(self, name: str) -> HypothesisEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


class SeriesDivergence(Exception):
    """A moment series failed to reach its tolerance within the term cap."""


#: Relative tolerance and term cap of :func:`_power_series_moment`.
_SERIES_RTOL = 1e-12
_SERIES_MAX_TERMS = 10**6


def _power_series_moment(count, power: float, first_k: int, shift: int) -> float:
    """Sum ``(shift + k)^power * pmf(k)`` for ``k = first_k, first_k+1, ...``
    over the pmf of the count law ``count`` (:mod:`bpire.env_model`).

    The sum starts at ``max(first_k, count.mode)`` with ``exp(log_pmf(k))``,
    so its first term is normal even when ``pmf(first_k)`` is not (a Poisson
    mean above about 708), and runs in both directions.  For both count
    laws the term ratio ``count.ratio(k) * ((shift+k+1)/(shift+k))**power``
    is strictly decreasing in k, so once it drops below 1 the tail is
    bounded by the geometric series ``term * ratio / (1 - ratio)``; each
    direction stops when that bound falls below ``_SERIES_RTOL`` times the
    partial sum.  Going down, the term ratio only shrinks, so the same
    bound ends that half.
    """
    start = max(first_k, count.mode)
    first = (shift + start) ** power * math.exp(count.log_pmf(start))
    total = first
    directions = (
        (1, None, lambda k: count.ratio(k) * ((shift + k + 1) / (shift + k)) ** power),
        (-1, first_k, lambda k: ((shift + k - 1) / (shift + k)) ** power / count.ratio(k - 1)),
    )
    for step, last, term_ratio in directions:
        k, term = start, first
        for _ in range(_SERIES_MAX_TERMS):
            if k == last:
                break
            ratio = term_ratio(k)
            if ratio < 1.0 and term * ratio / (1.0 - ratio) <= _SERIES_RTOL * total:
                break
            k += step
            term *= ratio
            total += term
        else:
            raise SeriesDivergence(
                f"series did not reach rtol={_SERIES_RTOL} within {_SERIES_MAX_TERMS} terms"
            )
    return total


def _offspring_power_moment(law, power: float) -> float:
    """``E X^power`` for a shifted offspring law (X = 1 + K)."""
    return _power_series_moment(law.count, power, first_k=0, shift=1)


def _immigration_power_moment(law: ImmigrationLaw, power: float) -> float:
    """``E Y^power`` for an immigration law: the k=0 term vanishes, and so
    does every term when ``Y = 0`` almost surely."""
    return _power_series_moment(law.count, power, first_k=1, shift=0) if law.mean > 0.0 else 0.0


def hypothesis_report(
    env: EnvironmentModel,
    p: float = 2.0,
    delta: float = 2.0,
    r: float = 3.0,
) -> HypothesisReport:
    """Evaluate the moment conditions used by the limit theorems.

    Entries (mixture values over atoms, each a convergent series or finite
    sum):

    * ``E|log m0|^r``        -- finite sum over atoms, ``r >= 3`` expected;
    * ``E (Y0/m0)^delta``    -- immigration moment, 0 without immigration;
    * ``E (E_xi (X0/m0)^p)^delta`` -- environment-averaged offspring moment;
    * ``sigma2_positive``    -- strict positivity of ``Var(log m0)``;
    * ``non_lattice``        -- passes when :func:`lattice_span` finds no
      span; its value is the span, or NaN when there is none or fewer than
      two distinct values of ``log m0``.

    A series failing to converge within ``10**6`` terms produces a failing
    entry with the exception message instead of raising.
    """
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    if not (r >= 3.0):
        raise ValueError(f"r must be at least 3, got {r}")

    moments = log_mean_moments(env)
    entries: list[HypothesisEntry] = []

    val = moments.abs_moment_r(r)
    entries.append(
        HypothesisEntry(
            "E|log m0|^r", val, math.isfinite(val), f"finite sum over atoms, r={r}"
        )
    )

    # Each series is summed once per distinct law, in the order the atoms
    # first name it: the first to diverge is the one a sum per atom meets first.
    try:
        imm_moment = {law: _immigration_power_moment(law, delta)
                      for law in dict.fromkeys(a.immigration for a in env.atoms)}
        imm = math.fsum(
            a.prob * imm_moment[a.immigration] / a.offspring.mean**delta for a in env.atoms
        )
        entries.append(
            HypothesisEntry(
                "E(Y0/m0)^delta", imm, math.isfinite(imm), f"series sum, delta={delta}"
            )
        )
    except SeriesDivergence as exc:
        entries.append(HypothesisEntry("E(Y0/m0)^delta", math.nan, False, str(exc)))

    try:
        off_moment = {law: _offspring_power_moment(law, p)
                      for law in dict.fromkeys(a.offspring for a in env.atoms)}
        off = math.fsum(
            a.prob * (off_moment[a.offspring] / a.offspring.mean**p) ** delta
            for a in env.atoms
        )
        entries.append(
            HypothesisEntry(
                "E(E_xi(X0/m0)^p)^delta",
                off,
                math.isfinite(off),
                f"series sum, p={p}, delta={delta}",
            )
        )
    except SeriesDivergence as exc:
        entries.append(
            HypothesisEntry("E(E_xi(X0/m0)^p)^delta", math.nan, False, str(exc))
        )

    entries.append(
        HypothesisEntry(
            "sigma2_positive",
            moments.sigma2,
            moments.sigma2 > 0.0,
            "Var(log m0) must be positive for standardised limits",
        )
    )

    span = lattice_span(env)
    if span is None:
        detail = "inapplicable: fewer than two distinct values of log m0"
    elif math.isnan(span):
        detail = f"no lattice span with denominators <= {LATTICE_MAX_DENOMINATOR}"
    else:
        detail = "lattice: log m0 lies in a + hZ, value = span h"
    entries.append(
        HypothesisEntry(
            "non_lattice",
            math.nan if span is None else span,
            span is not None and math.isnan(span),
            detail,
        )
    )

    return HypothesisReport(p=p, delta=delta, r=r, entries=tuple(entries))
