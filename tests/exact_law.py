"""Exact annealed law of ``Z_n`` for small n, by generating functions: the
oracle the simulator's whole generation step (atom choice, immigration
inversion, the exact offspring draw and, past the promotion threshold, the
Gaussian tail and the log step) is checked against.

Given the atoms ``a_0, ..., a_{n-1}`` of generations 0 to n-1,
``E[s^{Z_{k+1}} | Z_k] = f_{a_k}(s)^{Z_k} h_{a_k}(s)``, where f is the
offspring PGF and h the immigration PGF (Athreya and Ney, 1972).  So, from
``Z_0 = 1``, ``E[s^{Z_n} | a] = u_0 prod_k h_{a_k}(u_{k+1})`` with
``u_n = s`` and ``u_k = f_{a_k}(u_{k+1})``: a backward composition.  The
environment is i.i.d., so the annealed PGF is the sum of these over the
``K^n`` atom sequences, weighted by their probabilities.  Sequences with
the same visit counts J share ``S_n = sum_a J[a] log m_a``; summing per J
gives the joint law of ``(J_n, Z_n)``.

:func:`law_of_z_pgf` evaluates the PGF at the N-th roots of unity and
inverts it with an FFT, ``P(Z_n = z) = (1/N) sum_j G(w^j) w^{-jz}``.  This
is exact up to rounding for ``z < N`` when no mass lies at N or beyond
(such mass folds onto ``z mod N``; ``ExactLaw.aliased`` measures it).  The
sequences are walked depth first, from generation n-1 back to 0, so one
N-point array per generation is held at a time, never ``K^n`` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bpire import (
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
)


@dataclass(frozen=True)
class ExactLaw:
    """``pmf[z] = P(Z_n = z)`` on ``[0, N)``; ``joint`` maps each visit
    count vector ``j`` to ``z -> P(J_n = j, Z_n = z)`` and ``s[j]`` is its
    ``S_n``.  ``aliased`` is the mass on the upper half ``[N/2, N)``: a
    law whose tail reaches N, and so folds back onto small z, shows there
    first."""

    pmf: np.ndarray
    joint: dict[tuple[int, ...], np.ndarray]
    s: dict[tuple[int, ...], float]
    aliased: float

    def mean_log_w(self) -> float:
        """``E log W_n = E (log Z_n - S_n)`` (every ``Z_n >= 1``)."""
        z = np.arange(1, self.pmf.size)
        return sum(float(p[1:] @ (np.log(z) - self.s[j])) for j, p in self.joint.items())


def _offspring_pgf(law):
    if isinstance(law, ShiftedPoisson):  # s e^{lam (s - 1)}
        return lambda u: u * np.exp(law.lam * (u - 1.0))
    if isinstance(law, ShiftedGeometric):  # q s / (1 - (1 - q) s)
        return lambda u: law.q * u / (1.0 - (1.0 - law.q) * u)
    raise TypeError(law)


def _immigration_pgf(law):
    """The immigration PGF, ``None`` for a law without immigrants."""
    if isinstance(law, NoImmigration) or law.mean == 0.0:
        return None
    if isinstance(law, PoissonImmigration):
        return lambda u: np.exp(law.nu * (u - 1.0))
    if isinstance(law, GeometricImmigration):  # P(Y = k) = s (1 - s)^k
        return lambda u: law.s / (1.0 - (1.0 - law.s) * u)
    raise TypeError(law)


def law_of_z_pgf(env: EnvironmentModel, n: int, N: int) -> ExactLaw:
    """The exact law of ``Z_n`` from ``Z_0 = 1`` under ``env``, jointly with
    the atom visit counts (and so ``S_n``), on ``[0, N)``."""
    atoms = env.atoms
    f = [_offspring_pgf(a.offspring) for a in atoms]
    h = [_immigration_pgf(a.immigration) for a in atoms]
    pgf: dict[tuple[int, ...], np.ndarray] = {}

    def descend(depth: int, u: np.ndarray, factor, j: tuple[int, ...], weight: float) -> None:
        # u = u_{n-depth}; factor = the product of the h terms so far (None: 1)
        if depth == n:
            g = weight * u if factor is None else weight * u * factor
            if j in pgf:
                pgf[j] += g
            else:
                pgf[j] = g
            return
        for a, atom in enumerate(atoms):
            fac = factor
            if h[a] is not None:
                fac = h[a](u) if factor is None else factor * h[a](u)
            descend(depth + 1, f[a](u), fac, j[:a] + (j[a] + 1,) + j[a + 1:],
                    weight * atom.prob)

    descend(0, np.exp(2j * np.pi * np.arange(N) / N), None, (0,) * len(atoms), 1.0)
    joint = {j: np.fft.fft(g).real / N for j, g in pgf.items()}
    pmf = np.sum(list(joint.values()), axis=0)
    logm = [math.log(a.offspring.mean) for a in atoms]
    s = {j: float(np.dot(j, logm)) for j in joint}
    return ExactLaw(pmf=pmf, joint=joint, s=s, aliased=float(np.abs(pmf[N // 2:]).sum()))
