"""Analytic layer against high-precision oracles: exact atom moments,
normal functions, the Edgeworth correction and the limit curve."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from bpire import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    MomentSummary,
    NoImmigration,
    PoissonImmigration,
    SeriesDivergence,
    ShiftedGeometric,
    ShiftedPoisson,
    edgeworth_q,
    hypothesis_report,
    limit_curve,
    log_mean_moments,
    std_normal_cdf,
    std_normal_pdf,
)
import bpire.analytics as analytics
from conftest import make_env_a, make_skewed_env


def _mp_moments(pairs, dps=200):
    """(mu, sigma2, mu3, abs3) for [(prob, m)] at dps-digit precision."""
    with mp.workdps(dps):
        logs = [(mp.mpf(p), mp.log(mp.mpf(m))) for p, m in pairs]
        mu = mp.fsum(p * l for p, l in logs)
        s2 = mp.fsum(p * (l - mu) ** 2 for p, l in logs)
        m3 = mp.fsum(p * (l - mu) ** 3 for p, l in logs)
        a3 = mp.fsum(p * abs(l) ** 3 for p, l in logs)
        return float(mu), float(s2), float(m3), float(a3)


def test_moments_single_atom_are_degenerate():
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )
    m = log_mean_moments(env)
    assert m.mu == pytest.approx(math.log(2.0), rel=1e-15)
    assert m.sigma2 == 0.0
    assert m.mu3 == 0.0


def test_moments_reference_env_match_high_precision_oracle():
    m = log_mean_moments(make_env_a())
    mu, s2, m3, a3 = _mp_moments([(0.5, 2), (0.5, 3)])
    assert m.mu == pytest.approx(mu, rel=1e-13)
    assert m.sigma2 == pytest.approx(s2, rel=1e-13)
    # exactly zero in real arithmetic (symmetric two-point law): float
    # evaluation may leave rounding dust
    assert m3 == 0.0
    assert abs(m.mu3) < 1e-16
    assert m.abs_moment_r(3.0) == pytest.approx(a3, rel=1e-13)
    # frozen values; the variance is often misquoted as 0.041103
    assert m.mu == pytest.approx(0.8958797346140275, rel=1e-15)
    assert m.sigma2 == pytest.approx(0.04110048847329138, rel=1e-13)


def test_moments_skewed_env_match_high_precision_oracle():
    m = log_mean_moments(make_skewed_env())
    mu, s2, m3, _ = _mp_moments([(0.75, 2), (0.25, 8)])
    assert m.mu == pytest.approx(mu, rel=1e-13)
    assert m.mu == pytest.approx(1.5 * math.log(2.0), rel=1e-14)
    assert m.sigma2 == pytest.approx(s2, rel=1e-13)
    assert m.mu3 == pytest.approx(m3, rel=1e-13)
    assert m.mu3 > 0  # skewed to the right


def test_sigma_property():
    m = MomentSummary(mu=0.0, sigma2=0.04, mu3=0.0, atom_log_means=())
    assert m.sigma == pytest.approx(0.2, rel=1e-15)


def test_normal_cdf_basics():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
    assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)


def test_normal_cdf_against_quadrature_oracle():
    # spot-check the erfc evaluation against direct high-precision
    # integration of the density
    with mp.workdps(40):
        for x in [-6.0, -2.5, -0.3, 0.0, 0.7, 1.959963985, 4.2, 7.5]:
            quad = mp.quad(
                lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi),
                [-mp.inf, mp.mpf(x)],
            )
            assert abs(std_normal_cdf(x) - float(quad)) <= 1e-14


def test_normal_cdf_symmetry_on_dense_grid():
    for x in np.linspace(-8.0, 8.0, 1601):
        x = float(x)
        assert abs(std_normal_cdf(-x) + std_normal_cdf(x) - 1.0) <= 1e-14


def test_edgeworth_q_vanishes_at_unit_points():
    m = log_mean_moments(make_skewed_env())
    assert edgeworth_q(1.0, m) == 0.0
    assert edgeworth_q(-1.0, m) == 0.0


def test_edgeworth_q_zero_for_symmetric_law():
    m = MomentSummary(mu=1.0, sigma2=0.25, mu3=0.0, atom_log_means=())
    for x in np.linspace(-4, 4, 17):
        assert edgeworth_q(float(x), m) == 0.0


def test_edgeworth_q_formula_value():
    # mu3 = 0.6, sigma = 1, x = 0: Q(0) = 0.6/(6) * pdf(0) = 0.1 * pdf(0)
    m = MomentSummary(mu=0.0, sigma2=1.0, mu3=0.6, atom_log_means=())
    assert edgeworth_q(0.0, m) == pytest.approx(0.03989422804014327, rel=1e-12)


def test_edgeworth_q_is_even():
    m = log_mean_moments(make_skewed_env())
    for x in np.linspace(0.0, 5.0, 41):
        assert edgeworth_q(float(x), m) == edgeworth_q(-float(x), m)


def test_edgeworth_q_requires_positive_variance():
    m = MomentSummary(mu=0.0, sigma2=0.0, mu3=0.0, atom_log_means=())
    with pytest.raises(ValueError):
        edgeworth_q(0.0, m)


def test_edgeworth_q_integrates_to_zero():
    # Q is the derivative of a correction vanishing at +-inf; the trapezoid
    # error is dominated by the (negligible) Gaussian boundary terms
    m = log_mean_moments(make_skewed_env())
    xs = np.linspace(-10.0, 10.0, 2001)
    qs = np.array([edgeworth_q(float(x), m) for x in xs])
    assert abs(np.trapezoid(qs, xs)) < 1e-10


def test_limit_curve_trivial_zero():
    m = MomentSummary(mu=0.0, sigma2=1.0, mu3=0.0, atom_log_means=())
    for x in np.linspace(-3, 3, 13):
        assert limit_curve(float(x), m, e_log_w=0.0) == 0.0


def test_limit_curve_gaussian_decay():
    m = log_mean_moments(make_skewed_env())
    assert abs(limit_curve(12.0, m, e_log_w=0.4)) < 1e-25
    assert abs(limit_curve(-12.0, m, e_log_w=0.4)) < 1e-25


def test_limit_curve_formula_value():
    # e_log_w = 0.5, sigma = 0.2, mu3 = 0, x = 0: -0.5 * pdf(0) / 0.2
    m = MomentSummary(mu=0.0, sigma2=0.04, mu3=0.0, atom_log_means=())
    assert limit_curve(0.0, m, e_log_w=0.5) == pytest.approx(
        -0.9973557010035818, rel=1e-12
    )


def test_limit_curve_rejects_bad_inputs():
    m = MomentSummary(mu=0.0, sigma2=0.0, mu3=0.0, atom_log_means=())
    with pytest.raises(ValueError):
        limit_curve(0.0, m, e_log_w=0.1)
    good = MomentSummary(mu=0.0, sigma2=1.0, mu3=0.0, atom_log_means=())
    with pytest.raises(ValueError):
        limit_curve(0.0, good, e_log_w=math.inf)


def test_hypothesis_report_reference_env():
    report = hypothesis_report(make_env_a(), p=2.0, delta=2.0, r=3.0)
    # A is lattice (span log 1.5), so only the non_lattice entry fails
    assert [e.name for e in report.entries if not e.passed] == ["non_lattice"]
    # E|log m0|^3 over the two atoms
    _, _, _, a3 = _mp_moments([(0.5, 2), (0.5, 3)])
    assert report.entry("E|log m0|^r").value == pytest.approx(a3, rel=1e-12)
    # E(Y0/m0)^2 with Y ~ Poisson(1): E Y^2 = 2, so .5*2/4 + .5*2/9 = 13/36
    assert report.entry("E(Y0/m0)^delta").value == pytest.approx(
        13.0 / 36.0, rel=1e-10
    )
    # per atom E(X/m)^2 = 5/4 and 11/9; outer power delta = 2
    expected = 0.5 * (5.0 / 4.0) ** 2 + 0.5 * (11.0 / 9.0) ** 2
    assert report.entry("E(E_xi(X0/m0)^p)^delta").value == pytest.approx(
        expected, rel=1e-10
    )
    assert report.entry("sigma2_positive").passed
    assert report.entry("non_lattice").value == pytest.approx(math.log(1.5), rel=1e-12)
    with pytest.raises(KeyError) as info:
        report.entry("lattice")
    assert info.value.args == ("lattice",)


def test_hypothesis_report_on_ten_thousand_atoms_is_fast():
    # the lattice verdict is linear in the atoms (the series are per atom)
    env = EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=ShiftedPoisson(lam=2.0 * math.exp(j * 1e-4) - 1.0),
                immigration=PoissonImmigration(nu=1.0), prob=1e-4)
        for j in range(10**4)
    ))
    start = time.perf_counter()
    report = hypothesis_report(env)
    assert time.perf_counter() - start < 5.0
    entry = report.entry("non_lattice")
    assert not entry.passed
    assert entry.value == pytest.approx(1e-4, rel=1e-9)


def test_hypothesis_report_sums_each_series_once_per_law(monkeypatch):
    # 10^4 atoms share one immigration and one offspring law, each of
    # whose series runs to about 10^5 terms: one sum each, not one per atom
    imm, off = GeometricImmigration(s=1e-4), ShiftedGeometric(q=1e-3)
    env = EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=off, immigration=imm, prob=1e-4) for _ in range(10**4)))
    # the per-atom sums' terms, all equal
    imm_term = 1e-4 * analytics._immigration_power_moment(imm, 2.0) / off.mean**2.0
    off_term = 1e-4 * (analytics._offspring_power_moment(off, 2.0) / off.mean**2.0) ** 2.0
    calls = []
    series = analytics._power_series_moment

    def counting(count, power, first_k, shift):
        calls.append(count)
        assert len(calls) <= 2, "a series was summed twice"  # fail fast, not in hours
        return series(count, power, first_k, shift)

    monkeypatch.setattr(analytics, "_power_series_moment", counting)
    report = hypothesis_report(env, p=2.0, delta=2.0)
    assert calls == [imm.count, off.count]
    assert report.entry("E(Y0/m0)^delta").value == math.fsum([imm_term] * 10**4)
    assert report.entry("E(E_xi(X0/m0)^p)^delta").value == math.fsum([off_term] * 10**4)


def test_hypothesis_report_entries_equal_per_atom_sums():
    # atoms that share some laws and not others: each entry is the
    # per-atom formula to the last bit
    offspring = [ShiftedPoisson(lam=1.0), ShiftedGeometric(q=0.4), ShiftedPoisson(lam=7.0)]
    immigration = [PoissonImmigration(nu=2.0), NoImmigration(), GeometricImmigration(s=0.3),
                   PoissonImmigration(nu=0.5)]
    env = EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=offspring[j % 3], immigration=immigration[j % 4], prob=1 / 12)
        for j in range(12)))
    for p, delta in ((2.0, 2.0), (1.5, 0.7), (4.0, 3.0)):
        report = hypothesis_report(env, p=p, delta=delta)
        imm = math.fsum(a.prob * analytics._immigration_power_moment(a.immigration, delta)
                        / a.offspring.mean**delta for a in env.atoms)
        off = math.fsum(a.prob * (analytics._offspring_power_moment(a.offspring, p)
                                  / a.offspring.mean**p) ** delta for a in env.atoms)
        assert report.entry("E(Y0/m0)^delta").value == imm
        assert report.entry("E(E_xi(X0/m0)^p)^delta").value == off


def test_hypothesis_report_single_poisson_atom_inner_moment():
    # lone ShiftedPoisson(1) atom with delta = 1 exposes the inner value:
    # E(X/m)^2 = E(1+K)^2 / 4 = 5/4 for K ~ Poisson(1)
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedPoisson(lam=1.0),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )
    report = hypothesis_report(env, p=2.0, delta=1.0, r=3.0)
    assert report.entry("E(E_xi(X0/m0)^p)^delta").value == pytest.approx(
        1.25, rel=1e-10
    )
    # no immigration: E(Y0/m0)^delta = 0 exactly
    assert report.entry("E(Y0/m0)^delta").value == 0.0
    assert report.entry("E(Y0/m0)^delta").passed
    # sigma = 0 and a single atom: those entries fail but are reported
    assert not report.entry("sigma2_positive").passed
    assert not report.entry("non_lattice").passed
    assert math.isnan(report.entry("non_lattice").value)
    assert not report.all_passed


def test_hypothesis_report_geometric_family():
    env = EnvironmentModel(
        atoms=(
            EnvAtom(
                offspring=ShiftedGeometric(q=0.5),
                immigration=NoImmigration(),
                prob=1.0,
            ),
        )
    )
    report = hypothesis_report(env, p=2.0, delta=1.0, r=3.0)
    # X = 1 + K with K ~ Geom0(.5): E K = 1, E K^2 = 3, so
    # E X^2 = 1 + 2 + 3 = 6 and E(X/m)^2 = 6/4
    assert report.entry("E(E_xi(X0/m0)^p)^delta").value == pytest.approx(
        1.5, rel=1e-9
    )


def test_hypothesis_report_rejects_bad_exponents():
    env = make_env_a()
    with pytest.raises(ValueError):
        hypothesis_report(env, p=1.0, delta=2.0, r=3.0)
    with pytest.raises(ValueError):
        hypothesis_report(env, p=2.0, delta=0.0, r=3.0)
    with pytest.raises(ValueError):
        hypothesis_report(env, p=2.0, delta=2.0, r=2.5)


def _mp_shifted_poisson_moment(lam: float, power: float, dps: int = 50):
    """E (1+K)^power for K ~ Poisson(lam), summed over lam +- 40 sd."""
    with mp.workdps(dps):
        lam_mp, half = mp.mpf(lam), int(40 * math.sqrt(lam)) + 40
        return mp.fsum(
            (1 + k) ** mp.mpf(power) * mp.exp(k * mp.log(lam_mp) - lam_mp - mp.loggamma(k + 1))
            for k in range(max(0, int(lam) - half), int(lam) + half)
        )


@pytest.mark.parametrize("lam", [700.0, 800.0, 5000.0])
def test_large_poisson_mean_moment_does_not_underflow(lam):
    # exp(-lam) is a normal double at 700, 0 at 800 and 5000
    for power in (2.0, 2.5):
        got = analytics._offspring_power_moment(ShiftedPoisson(lam=lam), power)
        assert got == pytest.approx(float(_mp_shifted_poisson_moment(lam, power)), rel=1e-10)
    # the hypothesis audit averages both atoms instead of dropping the big one
    env = EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=ShiftedPoisson(lam=v), immigration=NoImmigration(), prob=0.5)
        for v in (2.0, lam)
    ))
    expected = sum(
        0.5 * float((_mp_shifted_poisson_moment(v, 2.0) / (1 + v) ** 2) ** 2) for v in (2.0, lam)
    )
    entry = hypothesis_report(env, p=2.0, delta=2.0).entry("E(E_xi(X0/m0)^p)^delta")
    assert entry.value == pytest.approx(expected, rel=1e-10)
    assert entry.value > 1.0


def test_hypothesis_report_series_divergence_entry(monkeypatch):
    def boom(law, power):
        raise SeriesDivergence("series did not converge within the term cap")

    rows = {"_immigration_power_moment": "E(Y0/m0)^delta",
            "_offspring_power_moment": "E(E_xi(X0/m0)^p)^delta"}
    clean = hypothesis_report(make_env_a(), p=2.0, delta=2.0, r=3.0)
    for helper, name in rows.items():
        with monkeypatch.context() as m:
            m.setattr(analytics, helper, boom)
            report = hypothesis_report(make_env_a(), p=2.0, delta=2.0, r=3.0)
        # only the diverging series' entry changes, in place
        assert [e.name for e in report.entries] == [e.name for e in clean.entries]
        for got, before in zip(report.entries, clean.entries):
            if got.name != name:
                assert got == before
        entry = report.entry(name)
        assert not entry.passed
        assert math.isnan(entry.value)
        assert entry.detail == "series did not converge within the term cap"
        assert not report.all_passed
