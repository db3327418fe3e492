"""The simulator against the exact annealed law of ``Z_n`` (``exact_law``):
chi-square tests of ``Z_5`` on three environments, coupled and uncoupled,
and of ``Z_8`` on environment A and the mixed environment at the least
promotion threshold, 2**10, where many columns pass through the Gaussian
tail and the log step by generation 8; and ``estimate_elogw`` against the exact ``E log W_5`` and
``E log W_8``.

Seeds and replicate counts were fixed before any result was seen."""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from bpire import estimate_elogw, simulate_batch
from conftest import make_env_a, make_mixed_env, without_immigration
from exact_law import law_of_z_pgf

N = 5
R = 40_000
#: Roots of unity of the n = 5 and n = 8 laws: the mass of Z_n at or past
#: them is below 1e-13.
ROOTS = {5: 2**13, 8: 2**17}
ENVS = {"A": make_env_a, "mixed": make_mixed_env, "pure": lambda: make_env_a(immigration=False)}


@functools.lru_cache(maxsize=None)
def _law(name: str, immigration: bool = True, n: int = N):
    env = ENVS[name]()
    law = law_of_z_pgf(env if immigration else without_immigration(env), n, ROOTS[n])
    assert law.aliased < 1e-9
    return law


def _chi_square_p(z: np.ndarray, pmf: np.ndarray, bins: int = 40) -> float:
    """p-value of the counts of ``z`` in consecutive support bins of
    probability at least ``1 / bins`` each; the last bin takes the tail."""
    edges = [0]
    mass = 0.0
    for k, p in enumerate(pmf):
        mass += p
        if mass >= 1.0 / bins:
            edges.append(k + 1)
            mass = 0.0
    edges[-1] = pmf.size  # fold a light remainder into the last bin
    expected = np.array([pmf[a:b].sum() for a, b in zip(edges, edges[1:])])
    expected[-1] += 1.0 - expected.sum()  # the tail beyond the support
    counts = np.bincount(np.minimum(z, pmf.size - 1), minlength=pmf.size)
    observed = np.array([counts[a:b].sum() for a, b in zip(edges, edges[1:])])
    assert observed.sum() == z.size
    return float(stats.chisquare(observed, expected * z.size).pvalue)


def _counts(log_z: np.ndarray, exact: bool = True) -> np.ndarray:
    z = np.rint(np.exp(log_z)).astype(np.int64)
    if exact:
        np.testing.assert_allclose(np.log(z), log_z, rtol=0, atol=1e-12)
    return z


@pytest.mark.parametrize("couple", [False, True], ids=["uncoupled", "coupled"])
@pytest.mark.parametrize("name, seed", [("A", 601), ("mixed", 603), ("pure", 605)])
def test_z_n_follows_exact_law(name, seed, couple):
    batch = simulate_batch(
        ENVS[name](), N, R, master_seed=seed + couple, record=(N,), couple_no_immigration=couple
    )
    p = _chi_square_p(_counts(batch.log_z_at(N)), _law(name).pmf)
    assert p > 1e-3, f"Z_{N} on {name}: chi-square p = {p:.3g}"
    if couple:  # the shadow is the chain without immigration
        p = _chi_square_p(_counts(batch.log_zbar_at(N)), _law(name, immigration=False).pmf)
        assert p > 1e-3, f"Zbar_{N} on {name}: chi-square p = {p:.3g}"


def test_oracle_is_a_martingale_without_immigration():
    # E W_n = 1 exactly for the pure environment, whatever n
    law = _law("pure")
    z = np.arange(ROOTS[N])
    e_w = sum(float(p @ z) * math.exp(-law.s[j]) for j, p in law.joint.items())
    assert e_w == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name, seed", [("A", 611), ("mixed", 612)])
def test_estimate_elogw_matches_exact_mean(name, seed):
    est = estimate_elogw(ENVS[name](), horizon=N, replicates=50_000, master_seed=seed)
    exact = _law(name).mean_log_w()
    assert abs(est.mean - exact) <= 4 * est.se, (est.mean, est.se, exact)


@pytest.mark.parametrize(
    "name, couple, seed",
    [("A", False, 621), ("A", True, 622), ("mixed", False, 623), ("mixed", True, 624)],
    ids=["uncoupled", "coupled", "mixed-uncoupled", "mixed-coupled"],
)
def test_z_8_follows_exact_law_through_the_promotion(name, couple, seed):
    # At threshold 2**10, P(Z_8 >= 2**10) is about 0.8 on A and 0.48 on the
    # mixed environment (0.09 for its shadow): those columns take the
    # Gaussian tail of the exact step, promote and take log steps, and the
    # mixed environment's geometric offspring go through gamma draws.
    batch = simulate_batch(ENVS[name](), 8, 200_000, master_seed=seed, record=(8,),
                           couple_no_immigration=couple, threshold=2**10)
    p = _chi_square_p(_counts(batch.log_z_at(8), exact=False), _law(name, n=8).pmf)
    assert p > 1e-3, f"Z_8 on {name}: chi-square p = {p:.3g}"
    if couple:
        z = _counts(batch.log_zbar_at(8), exact=False)
        p = _chi_square_p(z, _law(name, immigration=False, n=8).pmf)
        assert p > 1e-3, f"Zbar_8 on {name}: chi-square p = {p:.3g}"


@pytest.mark.parametrize("name, seed", [("A", 631), ("mixed", 632)])
def test_estimate_elogw_matches_exact_mean_at_8(name, seed):
    est = estimate_elogw(ENVS[name](), horizon=8, replicates=50_000, master_seed=seed)
    exact = _law(name, n=8).mean_log_w()
    assert abs(est.mean - exact) <= 4 * est.se, (est.mean, est.se, exact)
