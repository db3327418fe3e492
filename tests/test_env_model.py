"""Environment model: law parameter domains, validation checks, lattice
span."""

import dataclasses
import math
import random

import pytest

from bpire import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    lattice_span,
    validate,
)
from bpire.env_model import GEOMETRIC_Q_MIN
from conftest import make_env_a, make_skewed_env


def test_shifted_poisson_moments():
    law = ShiftedPoisson(lam=1.5)
    assert law.mean == 2.5
    assert law.variance == 1.5


def test_shifted_geometric_moments():
    # X = 1 + K with P(K = k) = q (1-q)^k: mean 1 + (1-q)/q, var (1-q)/q^2.
    law = ShiftedGeometric(q=0.25)
    assert law.mean == pytest.approx(4.0)
    assert law.variance == pytest.approx(12.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_shifted_poisson_rejects_bad_rate(lam):
    with pytest.raises(ValueError):
        ShiftedPoisson(lam=lam)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1, math.nan, GEOMETRIC_Q_MIN / 2])
def test_shifted_geometric_rejects_bad_q(q):
    with pytest.raises(ValueError):
        ShiftedGeometric(q=q)


def test_shifted_geometric_variance_is_finite_down_to_its_limit():
    assert math.isfinite(ShiftedGeometric(q=GEOMETRIC_Q_MIN).variance)


def test_immigration_means():
    assert PoissonImmigration(nu=0.0).mean == 0.0
    assert PoissonImmigration(nu=2.5).mean == 2.5
    assert GeometricImmigration(s=0.5).mean == pytest.approx(1.0)
    assert GeometricImmigration(s=1.0).mean == 0.0
    assert NoImmigration().mean == 0.0


def test_immigration_rejects_bad_params():
    with pytest.raises(ValueError):
        PoissonImmigration(nu=-0.5)
    with pytest.raises(ValueError):
        GeometricImmigration(s=0.0)
    with pytest.raises(ValueError):
        GeometricImmigration(s=1.5)


def test_atom_prob_domain():
    law = ShiftedPoisson(lam=1.0)
    with pytest.raises(ValueError):
        EnvAtom(offspring=law, immigration=NoImmigration(), prob=0.0)
    with pytest.raises(ValueError):
        EnvAtom(offspring=law, immigration=NoImmigration(), prob=1.2)


def test_environment_requires_atoms():
    with pytest.raises(ValueError):
        EnvironmentModel(atoms=())


def test_environment_is_frozen():
    env = make_env_a()
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.atoms = ()


def test_offspring_means_and_probs():
    env = make_env_a()
    assert env.offspring_means == (2.0, 3.0)
    assert env.probs == (0.5, 0.5)


def test_has_immigration_detects_degenerate_laws():
    assert make_env_a(immigration=True).has_immigration()
    assert not make_env_a(immigration=False).has_immigration()
    # zero-mean immigration laws count as no immigration
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=PoissonImmigration(nu=0.0),
                prob=1.0,
            ),
        )
    )
    assert not env.has_immigration()
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=GeometricImmigration(s=1.0),
                prob=1.0,
            ),
        )
    )
    assert not env.has_immigration()


def test_validate_reference_environment():
    report = validate(make_env_a())
    assert report.ok
    assert report.check("prob_sum").passed
    assert report.check("mean_log_positive").passed
    assert report.check("sigma_positive").passed


def test_validate_flags_bad_probability_mass():
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=0.5,
            ),
            EnvAtom(
                offspring=ShiftedPoisson(lam=2.0),
                immigration=NoImmigration(),
                prob=0.4,
            ),
        )
    )
    report = validate(env)
    assert not report.ok
    assert not report.check("prob_sum").passed
    # a failed check never raises: the report carries the failure
    assert [c.name for c in report.failures()] == ["prob_sum"]


def test_validate_flags_zero_variance():
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )
    report = validate(env)
    assert not report.check("sigma_positive").passed
    assert report.check("mean_log_positive").passed  # log m = log 2 > 0


def test_validation_report_unknown_name():
    report = validate(make_env_a())
    with pytest.raises(KeyError):
        report.check("no_such_check")


def _env_of_means(means) -> EnvironmentModel:
    """Equally weighted atoms with the given offspring means, no immigration."""
    return EnvironmentModel(
        atoms=tuple(
            EnvAtom(offspring=ShiftedPoisson(lam=m - 1.0), immigration=NoImmigration(),
                    prob=1.0 / len(means))
            for m in means
        )
    )


def test_lattice_span_of_skewed_environment(skewed_env):
    # log-means log 2 and log 8 differ by log 4
    assert lattice_span(skewed_env) == pytest.approx(math.log(4.0), rel=1e-12)


def test_lattice_span_of_reference_environment(env_a):
    # every two-point law is lattice: log 2 and log 3 differ by log 1.5
    assert lattice_span(env_a) == pytest.approx(math.log(1.5), rel=1e-12)


def test_lattice_span_is_the_largest_common_step():
    # log 2, log 2 + log(1.5)/2, log 3: the half step divides both differences
    env = _env_of_means([2.0, 2.0 * math.sqrt(1.5), 3.0])
    assert lattice_span(env) == pytest.approx(0.5 * math.log(1.5), rel=1e-12)
    # log 2, 3 log 2, 4 log 2 (and a repeated mean): differences 2 and 3 log 2
    env = _env_of_means([2.0, 8.0, 16.0, 8.0])
    assert lattice_span(env) == pytest.approx(math.log(2.0), rel=1e-12)
    # differences 1, 4/3 and 3/2 of log 2: ratios 4/3 and 3/2, lcm(3, 2) = 6
    env = _env_of_means([1.5 * 2.0**e for e in (0.0, 1.0, 4 / 3, 1.5)])
    assert lattice_span(env) == pytest.approx(math.log(2.0) / 6.0, rel=1e-12)


def test_lattice_span_reports_non_lattice_support():
    # log 2, log 3, log 5: (log 5 - log 2)/(log 3 - log 2) is irrational
    assert math.isnan(lattice_span(_env_of_means([2.0, 3.0, 5.0])))


def test_lattice_span_single_value_inapplicable():
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )
    assert lattice_span(env) is None
    # two atoms with one offspring mean are still a single value of log m
    assert lattice_span(_env_of_means([3.0, 3.0])) is None


def test_lattice_span_finds_fine_lattice_of_ten_thousand_atoms():
    # log m_j = log 2 + j 1e-4: ratios up to 10^4 carry absolute errors near
    # 1e-8, which only the relative tolerance absorbs
    env = _env_of_means([2.0 * math.exp(j * 1e-4) for j in range(10**4)])
    assert lattice_span(env) == pytest.approx(1e-4, rel=1e-9)


def test_lattice_span_rejects_ten_thousand_random_means():
    rng = random.Random(20261018)
    env = _env_of_means([1.5 + 6.0 * rng.random() for _ in range(10**4)])
    assert math.isnan(lattice_span(env))


def test_skewed_env_means():
    env = make_skewed_env()
    assert env.offspring_means == (2.0, 8.0)
    assert env.probs == (0.75, 0.25)
