"""Environment models for branching processes in an i.i.d. random environment.

An environment is a finite mixture of atoms.  Each atom fixes one offspring
law and one immigration law; every generation draws an atom index i.i.d. and
all individuals of that generation reproduce under the atom's offspring law
while immigration arrives under its immigration law.

Offspring laws are shifted by one so that individuals always leave at least
one descendant (``P(X = 0) = 0``), which keeps the population alive and makes
``log Z_n`` well defined along every path.

Each law has a ``count`` law, ``PoissonCount`` or ``GeometricCount``, which
offspring laws shift by one; it gives the law's mean and variance and is the
one home of its family's pmf.  Four readers use that pmf without asking for
the family: the immigration CDF table, its bound (the count law's
``table_entries``), the audit's moment series (:mod:`bpire.analytics`) and
the simulator, whose choice of offspring draw is the one family test.
``Y = 0`` almost surely is a count with mean 0.

Plain records, such as the count laws, :class:`MomentSummary` and the
validation report, are ``NamedTuple`` classes, as are the results, rows
and reports of the other modules.  Ten classes of the package stay frozen
dataclasses, each for a dataclass feature it uses:

* the five config laws (``ShiftedPoisson``, ``ShiftedGeometric``,
  ``PoissonImmigration``, ``GeometricImmigration`` and ``NoImmigration``)
  are told apart by type as well as by value: ``dict.fromkeys`` dedupes
  them into immigration tables, and tuple equality would make
  ``PoissonImmigration(1.0) == ShiftedPoisson(1.0)`` and merge two laws.
  The CLI builds them from their ``fields()``, and four of them validate
  in ``__post_init__``;
* :class:`EnvAtom` and :class:`EnvironmentModel` validate in
  ``__post_init__``, as does the CLI's ``GridSpec``, which the CLI also
  reads through ``fields`` and ``asdict``;
* :class:`bpire.trajectory.BatchResult` inherits the fields of
  :class:`bpire.trajectory.WalkBatch`, which a ``NamedTuple`` cannot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

#: A pmf term below this cannot change a CDF sum of at least 1/2, whose
#: half ulp is ``2**-54``: a factor 2 covers the rounding of the term.
_ROUNDS_AWAY = 2.0**-55


class PoissonCount(NamedTuple):
    """``K ~ Poisson(mean)``, ``mean >= 0``.  Each count law has ``first =
    P(K = 0)``, ``mode``, ``log_pmf(k)`` and ``ratio(k) = P(K = k+1) / P(K = k)``."""

    mean: float

    @property
    def variance(self) -> float:
        return self.mean

    @property
    def first(self) -> float:
        return math.exp(-self.mean)

    @property
    def mode(self) -> int:
        return int(self.mean)

    def log_pmf(self, k: int) -> float:
        return k * math.log(self.mean) - self.mean - math.lgamma(k + 1)

    def ratio(self, k: int) -> float:
        return self.mean / (k + 1)

    def table_entries(self) -> int:
        """An upper bound on the length of this law's inversion table
        (:func:`bpire.sampler.immigration_cdf_table`), found without building
        it.  The table grows while the next pmf term still changes its sum,
        so it has at most k + 1 entries for the first k whose term is below
        ``_ROUNDS_AWAY`` while the sum before it is at least 1/2.  The sum
        is at least 1/2 from ``k >= mean + 2``, past the median (below
        ``mean + 1/3``) and the mode, from where the terms fall."""
        if self.mean == 0.0:
            return 1
        k = math.ceil(self.mean) + 2
        while self.log_pmf(k) >= math.log(_ROUNDS_AWAY):
            k += 1
        return k + 1


class GeometricCount(NamedTuple):
    """``P(K = k) = p (1-p)^k``, ``0 < p <= 1``: the failures before the
    first success of a Bernoulli(p) sequence."""

    p: float

    @property
    def mean(self) -> float:
        return (1.0 - self.p) / self.p

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / (self.p * self.p)

    @property
    def first(self) -> float:
        return self.p

    mode = 0

    def log_pmf(self, k: int) -> float:
        return math.log(self.p) + k * math.log1p(-self.p)

    def ratio(self, k: int) -> float:
        return 1.0 - self.p

    def table_entries(self) -> int:
        """An upper bound on the length of this law's inversion table, by the
        stopping argument of :meth:`PoissonCount.table_entries`.  The sum is
        ``1 - (1-p)^k >= 1/2`` once the term ``p (1-p)^k`` is below
        ``p / 2``."""
        if self.p == 1.0:
            return 1
        return int(math.log(_ROUNDS_AWAY / self.p) / math.log1p(-self.p)) + 2


class _CountLaw:
    """The law of ``shift + K`` for the count law ``K = self.count``."""

    shift = 0.0

    @property
    def mean(self) -> float:
        return self.shift + self.count.mean

    @property
    def variance(self) -> float:
        return self.count.variance


@dataclass(frozen=True)
class ShiftedPoisson(_CountLaw):
    """Offspring law ``X = 1 + Poisson(lam)``, ``lam > 0`` so that
    ``P(X = 1) < 1``."""

    lam: float
    shift = 1.0

    def __post_init__(self) -> None:
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"ShiftedPoisson requires lam > 0, got {self.lam}")

    @property
    def count(self) -> PoissonCount:
        return PoissonCount(self.lam)


@dataclass(frozen=True)
class ShiftedGeometric(_CountLaw):
    """Offspring law ``X = 1 + G``, ``G`` the failures before the first
    success of a Bernoulli(q) sequence, ``GEOMETRIC_Q_MIN <= q < 1``;
    ``q = 1`` would make ``X`` identically one."""

    q: float
    shift = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"ShiftedGeometric requires 0 < q < 1, got {self.q}")
        if self.q < GEOMETRIC_Q_MIN:
            raise ValueError(
                f"ShiftedGeometric requires q >= {GEOMETRIC_Q_MIN:.4g} so that "
                f"q**2 in its variance (1-q)/q**2 is a normal double, got {self.q}"
            )

    @property
    def count(self) -> GeometricCount:
        return GeometricCount(self.q)


#: Smallest geometric offspring parameter ``q`` (about 1.492e-154): below it
#: ``q**2`` is subnormal or zero, and the variance ``(1-q)/q**2`` loses its
#: precision, overflows or divides by zero.
GEOMETRIC_Q_MIN = math.sqrt(sys.float_info.min)


OffspringLaw = Union[ShiftedPoisson, ShiftedGeometric]


#: Largest Poisson immigration mean whose ``P(Y = 0) = exp(-nu)`` is still a
#: normal double (about 708.4): the immigration CDF table starts from that
#: term, and a subnormal or zero start loses the whole table.
POISSON_NU_MAX = -math.log(sys.float_info.min)

#: Smallest geometric immigration parameter ``s``: the immigration CDF table
#: has about ``28 / s`` entries (282,182 at ``1e-4``, 2.6 million at
#: ``1e-5``), built once per batch, before the chunk workers fork, so that
#: each of them inherits it.
GEOMETRIC_S_MIN = 1e-4


@dataclass(frozen=True)
class PoissonImmigration(_CountLaw):
    """``Y ~ Poisson(nu)`` immigrants per generation,
    ``0 <= nu <= POISSON_NU_MAX``."""

    nu: float

    def __post_init__(self) -> None:
        if not (self.nu >= 0.0) or not math.isfinite(self.nu):
            raise ValueError(f"PoissonImmigration requires nu >= 0, got {self.nu}")
        if self.nu > POISSON_NU_MAX:
            raise ValueError(
                f"PoissonImmigration requires nu <= {POISSON_NU_MAX:.4g} so that "
                f"P(Y = 0) = exp(-nu) is a normal double, got {self.nu}"
            )

    @property
    def count(self) -> PoissonCount:
        return PoissonCount(self.nu)


@dataclass(frozen=True)
class GeometricImmigration(_CountLaw):
    """``P(Y = k) = s (1-s)^k`` immigrants per generation,
    ``GEOMETRIC_S_MIN <= s <= 1``."""

    s: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"GeometricImmigration requires 0 < s <= 1, got {self.s}")
        if self.s < GEOMETRIC_S_MIN:
            raise ValueError(
                f"GeometricImmigration requires s >= {GEOMETRIC_S_MIN:g} so that its "
                f"immigration table stays below 3*10^5 entries, got {self.s}"
            )

    @property
    def count(self) -> GeometricCount:
        return GeometricCount(self.s)


@dataclass(frozen=True)
class NoImmigration(_CountLaw):
    """No immigration: ``Y = 0`` every generation."""

    @property
    def count(self) -> PoissonCount:
        return PoissonCount(0.0)


ImmigrationLaw = Union[PoissonImmigration, GeometricImmigration, NoImmigration]

#: Most entries the immigration tables of one environment may hold, summed
#: over its distinct immigration laws (one table each, bounded by its count
#: law's ``table_entries``): 32 MB of doubles, about 14 geometric
#: laws at ``GEOMETRIC_S_MIN``.  Without it, 10^4 distinct geometric laws
#: near ``GEOMETRIC_S_MIN`` would ask for about 20 GB.
MAX_IMMIGRATION_TABLE_ENTRIES = 2**22


@dataclass(frozen=True)
class EnvAtom:
    """One environment state: an offspring law, an immigration law and the
    probability of drawing this state in any given generation."""

    offspring: OffspringLaw
    immigration: ImmigrationLaw
    prob: float

    def __post_init__(self) -> None:
        if not (0.0 < self.prob <= 1.0):
            raise ValueError(f"atom probability must lie in (0, 1], got {self.prob}")


@dataclass(frozen=True)
class EnvironmentModel:
    """Finite-atom environment: generations draw atoms i.i.d. from ``atoms``.

    Construction checks per-field sanity and bounds the total size of the
    immigration tables (``MAX_IMMIGRATION_TABLE_ENTRIES``); other cross-atom
    requirements (the
    probabilities summing to one, a strictly positive variance of ``log m``
    when an experiment needs it) are reported by :func:`validate` so callers
    can decide what is fatal for their use case.
    """

    atoms: tuple[EnvAtom, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ValueError("environment needs at least one atom")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        entries = 0
        for law in dict.fromkeys(a.immigration for a in self.atoms):
            entries += law.count.table_entries()
            if entries > MAX_IMMIGRATION_TABLE_ENTRIES:
                raise ValueError(
                    "the immigration tables of the distinct immigration laws would hold "
                    f"more than MAX_IMMIGRATION_TABLE_ENTRIES = {MAX_IMMIGRATION_TABLE_ENTRIES} "
                    "entries"
                )

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(a.prob for a in self.atoms)

    @property
    def offspring_means(self) -> tuple[float, ...]:
        return tuple(a.offspring.mean for a in self.atoms)

    def has_immigration(self) -> bool:
        """True when some atom can produce at least one immigrant."""
        return any(a.immigration.mean > 0.0 for a in self.atoms)


class MomentSummary(NamedTuple):
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


class ValidationCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class ValidationReport(NamedTuple):
    """Outcome of :func:`validate`: one entry per structural check.

    ``ok`` is True only when every check passed.  The report is a pure
    function of the environment, so validating the same model twice yields
    equal reports.
    """

    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate(env: EnvironmentModel) -> ValidationReport:
    """Check the structural requirements the statistical machinery relies on.

    Checks performed:

    * ``prob_sum``        -- atom probabilities sum to 1 within 1e-12;
    * ``mean_log_positive`` -- ``E log m > 0`` (supercritical growth);
    * ``sigma_positive``  -- ``Var(log m) > 0``, i.e. at least two atoms with
      distinct offspring means (needed whenever results are standardised by
      ``sigma``).

    No check asks for ``P(X = 1) < 1``: every offspring law's constructor
    (``lam > 0``, ``q < 1``) makes its variance positive.

    Failures are returned as entries, not raised: a single-atom environment
    fails ``sigma_positive`` but is still perfectly usable for experiments
    that never standardise.
    """
    checks: list[ValidationCheck] = []

    total = math.fsum(a.prob for a in env.atoms)
    checks.append(
        ValidationCheck(
            "prob_sum",
            abs(total - 1.0) <= 1e-12,
            f"atom probabilities sum to {total!r}",
        )
    )

    moments = log_mean_moments(env)
    mu, var = moments.mu, moments.sigma2
    checks.append(
        ValidationCheck(
            "mean_log_positive",
            mu > 0.0,
            f"E log m = {mu!r}",
        )
    )
    checks.append(
        ValidationCheck(
            "sigma_positive",
            var > 0.0,
            f"Var(log m) = {var!r}"
            + ("" if var > 0.0 else " (all atoms share one offspring mean)"),
        )
    )

    return ValidationReport(tuple(checks))


#: Largest denominator, and relative tolerance, of the rationals that
#: :func:`lattice_span` matches ratios of log-mean differences against.
LATTICE_MAX_DENOMINATOR = 64
LATTICE_TOL = 1e-9


def lattice_span(env: EnvironmentModel) -> float | None:
    """The span of ``log m_0``: the largest ``h`` such that every log-mean
    lies in ``a + hZ`` for one offset ``a`` (Gnedenko-Kolmogorov 1954).

    Returns ``None`` when ``log m_0`` takes fewer than two distinct values
    (the question does not apply), ``nan`` when no span is found
    (non-lattice), and the span ``h > 0`` otherwise; a two-point law is
    always lattice.  On the sorted distinct log-means ``x_0 < x_1 < ...``,
    ``log m_0`` is lattice exactly when every ratio ``r_i = (x_i - x_0) /
    (x_1 - x_0) >= 1`` is rational.  Each is matched to ``p_i/d_i`` with
    the least ``d_i <= LATTICE_MAX_DENOMINATOR`` such that
    ``|r_i - p_i/d_i| <= LATTICE_TOL * r_i``; the least ``d_i`` puts the
    fraction in lowest terms, so the differences generate ``(x_1 - x_0) /
    lcm(d_i) * Z`` and that step is the span.  The tolerance is relative
    because the error of ``r_i`` grows with it: 10^4 atoms on a lattice of
    span 1e-4 give ratios up to 10^4 with absolute errors near 1e-8.  Any
    ratio above ``1 / LATTICE_TOL`` matches an integer, so differences
    that small against the spread of the support are not resolved.

    This is a numerical test, not a proof: it costs ``O(K log K)`` in the
    number of distinct values K, plus at most ``LATTICE_MAX_DENOMINATOR``
    trials per ratio.
    """
    x = sorted({lm for _, lm in log_mean_moments(env).atom_log_means})
    if len(x) < 2:
        return None
    step = x[1] - x[0]
    denominators = 1
    for xi in x[2:]:
        r = (xi - x[0]) / step
        d = next(
            (d for d in range(1, LATTICE_MAX_DENOMINATOR + 1)
             if abs(r - round(r * d) / d) <= LATTICE_TOL * r),
            None,
        )
        if d is None:
            return math.nan
        denominators = math.lcm(denominators, d)
    return step / denominators
