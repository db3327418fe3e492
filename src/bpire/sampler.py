"""Seeded stream keys, the promotion threshold and the inversion tables.

Reproducibility contract
------------------------
Every random quantity in this package is drawn from a PCG64DXSM generator
(O'Neill, 2014) seeded through numpy's ``SeedSequence`` by a master seed
and a spawn key.  The simulator keys each chunk of a batch by
``(master_seed, first replicate of the chunk)`` and draws each kind of
number from its own substream of that key (:func:`substream`; the layout
is in :mod:`bpire.trajectory`, whose batch functions reject a
``master_seed`` that is not an unsigned 64-bit word and more than
``2**64`` replicates).  A replicate is the triple ``(master_seed, chunk
key, column)``: its numbers are a pure function of that triple, of the
chunk's size and of the recorded generations -- no global state, no
seeding order, no thread identity is involved -- and rebuilding a generator
from the same key and substream replays exactly the same draws.

Substreams do not overlap with overwhelming probability, not by
construction: ``SeedSequence`` hashes every bit of ``(master_seed, key,
index)`` into the generator's 128-bit state and increment, and two streams
of L draws started at independent random points of a period of ``2**128``
overlap with probability about ``2 L / 2**128``.

Promotion rule
--------------
The simulator (:mod:`bpire.trajectory`) keeps each population size as an
exact integer count until it reaches the promotion threshold ``T`` (default
``2**20``), and as a log-space float from that generation on; it never
returns to exact counts.  From there a generation is one Gaussian log step,
O(1) per column whatever the size.  At size Z the step's noise in ``log Z``
has an SD of order ``Z**-0.5`` (``2**-10`` at ``T``), and the Gaussian
law misses the skewness of the offspring total, an error of relative order
``Z**-0.5`` in that noise: of order ``1/Z``, about 1e-6 at ``T``, in the
law of ``log Z``, and smaller at every later generation as Z grows.  A
paired test of ``E log W_30`` at ``2**20`` against ``2**40`` on two
environments finds no difference at a paired SE of about 1e-5.  Below ``T``
a Poisson draw whose mean reaches ``T`` is taken as ``mean + sqrt(mean) *
G`` in the same spirit.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .env_model import EnvironmentModel, ImmigrationLaw

#: Default promotion threshold from exact integer counts to log-space floats.
PROMOTION_THRESHOLD: int = 2**20

#: Smallest accepted promotion threshold.  Both offspring families have
#: ``v / m**2 < 1`` (``1 - q`` for the geometric family, at most ``1/4`` for
#: the Poisson family), so at a size of at least ``T`` the log step's
#: ``log1p`` argument stays above -1, and the exact regime's Gaussian tail
#: value stays positive, whenever ``|G| < sqrt(T)``: at ``2**10`` a failure
#: needs a normal beyond 32 standard deviations, and numpy's normals never
#: pass 13.8 (``bpire.trajectory._NORMAL_BOUND``).
MIN_PROMOTION_THRESHOLD: int = 2**10

#: Largest accepted promotion threshold.  Exact counts are int64: a count
#: below ``T``, plus an offspring excess of at most about ``T``, plus the
#: immigrants stays below ``2**63`` when ``T <= 2**61``, and numpy's Poisson
#: sampler takes means up to about ``9.2e18``.
MAX_PROMOTION_THRESHOLD: int = 2**61

def substream(master_seed: int, key: int, index: int) -> Generator:
    """A fresh generator for substream ``index`` of the key ``(master_seed,
    key)``: PCG64DXSM seeded by ``SeedSequence(master_seed, spawn_key=(key,
    index))``, the state numpy's ``SeedSequence(master_seed).spawn`` gives
    its child ``key``'s child ``index``."""
    return Generator(PCG64DXSM(SeedSequence(master_seed, spawn_key=(key, index))))


def atom_cumulative(env: EnvironmentModel) -> np.ndarray:
    """Cumulative atom probabilities for inversion sampling; the last entry
    is forced to 1.0 so a uniform draw can never fall past the end."""
    cum = np.cumsum(np.asarray(env.probs, dtype=np.float64))
    cum[-1] = 1.0
    return cum


def immigration_cdf_table(law: ImmigrationLaw) -> np.ndarray:
    """CDF table ``[P(Y<=0), P(Y<=1), ...]`` for inverting a uniform on
    [0, 1), from ``law.count``'s ``first`` term and pmf ratios.

    The running sum stops growing once the next pmf term no longer changes
    it in floating point; its last entry is then forced to 1.0, as in
    :func:`atom_cumulative`, so every uniform below 1 inverts inside the
    table.  A float sum may stall a few ulps below 1, so the loop must not
    wait for it to reach 1 on its own.
    """
    pmf, ratio = law.count.first, law.count.ratio
    cdf = [pmf]
    k = 0
    while cdf[-1] < 1.0:
        pmf *= ratio(k)
        k += 1
        if cdf[-1] + pmf == cdf[-1]:
            break
        cdf.append(cdf[-1] + pmf)
    cdf[-1] = 1.0
    return np.array(cdf)
