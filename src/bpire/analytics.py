"""Exact analytic quantities for finite-atom environments.

Everything here is closed-form or a convergent series with a certified tail
bound: moments of ``log m_0`` are finite sums over atoms, the standard
normal CDF comes from the complementary error function, and the Edgeworth
correction term and the limit curve of the exact-rate CLT are direct formula
evaluations.  No Monte Carlo enters this module, which is what lets the
statistical experiments treat its outputs as ground truth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .env_model import (
    EnvironmentModel,
    GeometricImmigration,
    ImmigrationLaw,
    LatticeDiagnostic,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    non_lattice_heuristic,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class MomentSummary:
    """Moments of ``log m_0`` under the atom mixture.

    ``mu``, ``sigma2`` and ``mu3`` are the mean and the second and third
    central moments; ``atom_log_means`` keeps the underlying ``(prob,
    log m)`` pairs so arbitrary absolute moments stay available.  All values
    are exact finite sums over atoms (float rounding only).
    """

    mu: float
    sigma2: float
    mu3: float
    atom_log_means: tuple[tuple[float, float], ...]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def abs_moment_r(self, r: float) -> float:
        """``E |log m_0|^r`` for any ``r > 0``."""
        return math.fsum(p * abs(lm) ** r for p, lm in self.atom_log_means)


def log_mean_moments(env: EnvironmentModel) -> MomentSummary:
    """Exact mean and central moments of ``log m_0`` over the atoms."""
    pairs = tuple((a.prob, math.log(a.offspring.mean)) for a in env.atoms)
    mu = math.fsum(p * lm for p, lm in pairs)
    sigma2 = math.fsum(p * (lm - mu) ** 2 for p, lm in pairs)
    mu3 = math.fsum(p * (lm - mu) ** 3 for p, lm in pairs)
    return MomentSummary(mu=mu, sigma2=sigma2, mu3=mu3, atom_log_means=pairs)


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
    the computed values and the lattice diagnostic.
    """

    p: float
    delta: float
    r: float
    entries: tuple[HypothesisEntry, ...]
    lattice: LatticeDiagnostic

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


def _power_series_moment(
    first_k: int,
    first_pmf: float,
    pmf_ratio,
    power: float,
    shift: int,
    log_pmf=None,
    mode: int = 0,
    rtol: float = 1e-12,
    max_terms: int = 10**6,
) -> float:
    """Sum ``(shift + k)^power * pmf(k)`` for ``k = first_k, first_k+1, ...``

    ``pmf_ratio(k)`` must return ``pmf(k+1)/pmf(k)``.  For both supported
    families the term ratio ``pmf_ratio(k) * ((shift+k+1)/(shift+k))**power``
    is strictly decreasing in k, so once it drops below 1 the tail is
    bounded by the geometric series ``term * ratio / (1 - ratio)``; the sum
    stops when that bound falls below ``rtol`` times the partial sum.

    A first term below the smallest normal double (a Poisson mean above
    about 708) would carry no mass into the later terms, so then the sum
    starts at ``max(first_k, mode)`` with ``exp(log_pmf(k))`` and runs in
    both directions; going down, the term ratio only shrinks, so the same
    geometric bound ends that half.
    """
    if first_pmf >= sys.float_info.min or log_pmf is None:
        return _sum_upward(first_k, first_pmf, pmf_ratio, power, shift, rtol, max_terms)
    k = max(first_k, mode)
    pmf = math.exp(log_pmf(k))
    total = _sum_upward(k, pmf, pmf_ratio, power, shift, rtol, max_terms)
    term = (shift + k) ** power * pmf
    for _ in range(max_terms):
        if k == first_k:
            return total
        ratio = ((shift + k - 1) / (shift + k)) ** power / pmf_ratio(k - 1)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) <= rtol * total:
            return total
        k -= 1
        pmf /= pmf_ratio(k)
        term = (shift + k) ** power * pmf
        total += term
    raise SeriesDivergence(
        f"series did not reach rtol={rtol} within {max_terms} terms"
    )


def _sum_upward(k: int, pmf: float, pmf_ratio, power: float, shift: int,
                rtol: float, max_terms: int) -> float:
    """The terms of :func:`_power_series_moment` from ``k`` (with
    ``pmf(k) = pmf``) upward."""
    term = (shift + k) ** power * pmf
    total = term
    for _ in range(max_terms):
        ratio = pmf_ratio(k) * ((shift + k + 1) / (shift + k)) ** power
        if ratio < 1.0:
            tail_bound = term * ratio / (1.0 - ratio)
            if tail_bound <= rtol * total:
                return total
        k += 1
        pmf *= pmf_ratio(k - 1)
        term = (shift + k) ** power * pmf
        total += term
    raise SeriesDivergence(
        f"series did not reach rtol={rtol} within {max_terms} terms"
    )


def _offspring_power_moment(law, power: float) -> float:
    """``E X^power`` for a shifted offspring law (X = 1 + K)."""
    if isinstance(law, ShiftedPoisson):
        lam = law.lam
        return _power_series_moment(
            0, math.exp(-lam), lambda k: lam / (k + 1), power, shift=1,
            log_pmf=lambda k: k * math.log(lam) - lam - math.lgamma(k + 1), mode=int(lam),
        )
    if isinstance(law, ShiftedGeometric):
        q = law.q
        return _power_series_moment(0, q, lambda k: 1.0 - q, power, shift=1)
    raise TypeError(f"unknown offspring law {law!r}")


def _immigration_power_moment(law: ImmigrationLaw, power: float) -> float:
    """``E Y^power`` for an immigration law (the k=0 term vanishes)."""
    if isinstance(law, NoImmigration):
        return 0.0
    if isinstance(law, PoissonImmigration):
        nu = law.nu
        if nu == 0.0:
            return 0.0
        return _power_series_moment(
            1, nu * math.exp(-nu), lambda k: nu / (k + 1), power, shift=0
        )
    if isinstance(law, GeometricImmigration):
        s = law.s
        if s >= 1.0:
            return 0.0
        return _power_series_moment(1, s * (1.0 - s), lambda k: 1.0 - s, power, shift=0)
    raise TypeError(f"unknown immigration law {law!r}")


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
    * ``non_lattice``        -- the pairwise-ratio lattice heuristic.

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

    try:
        imm = math.fsum(
            a.prob
            * _immigration_power_moment(a.immigration, delta)
            / a.offspring.mean**delta
            for a in env.atoms
        )
        entries.append(
            HypothesisEntry(
                "E(Y0/m0)^delta", imm, math.isfinite(imm), f"series sum, delta={delta}"
            )
        )
    except SeriesDivergence as exc:
        entries.append(HypothesisEntry("E(Y0/m0)^delta", math.nan, False, str(exc)))

    try:
        off = math.fsum(
            a.prob
            * (_offspring_power_moment(a.offspring, p) / a.offspring.mean**p) ** delta
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

    lattice = non_lattice_heuristic(env)
    entries.append(
        HypothesisEntry(
            "non_lattice",
            float(len(lattice.pairs)),
            lattice.status == "ok",
            f"heuristic status: {lattice.status}",
        )
    )

    return HypothesisReport(
        p=p, delta=delta, r=r, entries=tuple(entries), lattice=lattice
    )
