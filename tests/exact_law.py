"""Exact annealed law of ``Z_n`` for small n: the oracle the simulator's
whole generation step (atom choice, immigration inversion and the exact
offspring draw together) is checked against.

The environment is i.i.d., so the pair ``(Z_n, J_n)`` is a Markov chain,
where ``J_n`` counts the visits to each atom and so fixes
``S_n = sum_a J_n[a] log m_a``.  One step under atom a takes z to
``z + E_a(z) + Y_a``: ``E_a(z)``, the offspring total of z individuals minus
z, is ``Poisson(z lam)`` for shifted Poisson offspring and
``NegBin(z, q)`` for shifted geometric offspring, and the immigrants
``Y_a`` are independent of it.  :func:`law_of_z_exact` pushes the pmf of
``(Z, J)`` forward n steps on the support ``[0, cap)`` and counts the mass
that leaves it, or sits on rows too light to push, as dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from bpire import (
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
)

#: Rows of the pmf lighter than this are dropped instead of pushed forward.
_LIGHT = 1e-22
#: Rows of the transition kernel built at once (``_BLOCK * cap`` doubles).
_BLOCK = 256


@dataclass(frozen=True)
class ExactLaw:
    """``pmf[z] = P(Z_n = z)`` on ``[0, cap)``; ``joint`` maps each visit
    count vector ``j`` to ``z -> P(J_n = j, Z_n = z)`` and ``s[j]`` is its
    ``S_n``; ``dropped`` is the mass lost to the truncation."""

    pmf: np.ndarray
    joint: dict[tuple[int, ...], np.ndarray]
    s: dict[tuple[int, ...], float]
    dropped: float

    def mean_log_w(self) -> float:
        """``E log W_n = E (log Z_n - S_n)`` (every ``Z_n >= 1``)."""
        z = np.arange(1, self.pmf.size)
        return sum(float(p[1:] @ (np.log(z) - self.s[j])) for j, p in self.joint.items())


def _excess_kernel(law, zs: np.ndarray, cap: int) -> np.ndarray:
    """``K[i, t] = P(z + E(z) = t)`` for ``z = zs[i]`` and t in [0, cap)."""
    z = zs[:, None].astype(np.float64)
    k = np.arange(cap)[None, :] - z
    ok = k >= 0
    k = np.where(ok, k, 0.0)
    if isinstance(law, ShiftedPoisson):
        mu = z * law.lam
        logp = special.xlogy(k, mu) - mu - special.gammaln(k + 1.0)
    elif isinstance(law, ShiftedGeometric):
        logp = (special.gammaln(k + z) - special.gammaln(z) - special.gammaln(k + 1.0)
                + z * math.log(law.q) + k * math.log1p(-law.q))
    else:
        raise TypeError(law)
    return np.where(ok, np.exp(logp), 0.0)


def _immigration_pmf(law, cap: int) -> np.ndarray:
    if isinstance(law, NoImmigration):
        return np.ones(1)
    k = np.arange(cap, dtype=np.float64)
    if isinstance(law, PoissonImmigration):
        return np.exp(special.xlogy(k, law.nu) - law.nu - special.gammaln(k + 1.0))
    if isinstance(law, GeometricImmigration):
        return law.s * np.exp(k * math.log1p(-law.s))
    raise TypeError(law)


def _push(rows: np.ndarray, law, imm: np.ndarray, cap: int) -> np.ndarray:
    """One step of every row of ``rows`` (one pmf of Z per row) under one
    atom's offspring law and immigration pmf."""
    heavy = np.flatnonzero(rows.max(axis=0) >= _LIGHT)
    out = np.zeros_like(rows)
    for b in range(0, heavy.size, _BLOCK):
        zs = heavy[b:b + _BLOCK]
        live = zs[zs > 0]
        out += rows[:, live] @ _excess_kernel(law, live, cap)
        if zs[0] == 0:  # an empty population stays empty before immigration
            out[:, 0] += rows[:, 0]
    if imm.size > 1:
        out = np.stack([np.convolve(r, imm)[:cap] for r in out])
    return out


def law_of_z_exact(env: EnvironmentModel, n: int, cap: int) -> ExactLaw:
    """The exact law of ``Z_n`` from ``Z_0 = 1`` under ``env``, jointly with
    the atom visit counts (and so ``S_n``), truncated to ``[0, cap)``."""
    atoms = env.atoms
    logm = [math.log(a.offspring.mean) for a in atoms]
    imm = [_immigration_pmf(a.immigration, cap) for a in atoms]
    start = np.zeros(cap)
    start[1] = 1.0
    joint = {(0,) * len(atoms): start}
    for _ in range(n):
        keys = list(joint)
        rows = np.stack([joint[j] for j in keys])
        nxt: dict[tuple[int, ...], np.ndarray] = {}
        for a, atom in enumerate(atoms):
            pushed = atom.prob * _push(rows, atom.offspring, imm[a], cap)
            for j, p in zip(keys, pushed):
                key = j[:a] + (j[a] + 1,) + j[a + 1:]
                nxt[key] = nxt[key] + p if key in nxt else p
        joint = nxt
    pmf = np.sum(list(joint.values()), axis=0)
    s = {j: float(np.dot(j, logm)) for j in joint}
    return ExactLaw(pmf=pmf, joint=joint, s=s, dropped=max(0.0, 1.0 - math.fsum(pmf)))
