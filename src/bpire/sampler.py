"""Seeded stream keys, the promotion threshold and the inversion tables.

Reproducibility contract
------------------------
Every random quantity in this package is drawn from a counter-based Philox
generator keyed directly by the pair ``(master_seed, stream_id)``, which
:class:`RngStream` validates.  Streams with distinct keys are statistically
independent, and a stream's output is a pure function of its key: no global
state, no seeding order, no thread identity is involved.  Re-keying a
generator with the same pair replays exactly the same draws.

Promotion rule
--------------
The simulator (:mod:`bpire.trajectory`) keeps each population size as an
exact Python int until it reaches the promotion threshold ``T`` (default
``2**40``), and as a log-space float from that generation on; it never
returns to exact counts.  Above ``T`` the relative resolution of a double
(about ``2**-52``) is far below the per-generation statistical noise of
order ``1/sqrt(T) = 2**-20``, so the log-space Gaussian step loses nothing
detectable while keeping every generation O(1).  Below ``T`` a Poisson draw
whose mean reaches ``T`` is taken as ``mean + sqrt(mean) * G`` in the same
spirit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .env_model import (
    EnvironmentModel,
    GeometricImmigration,
    ImmigrationLaw,
    NoImmigration,
    PoissonImmigration,
)

#: Default promotion threshold from exact integer counts to log-space floats.
PROMOTION_THRESHOLD: int = 2**40

#: Smallest accepted promotion threshold.  Both offspring families have
#: ``v / m**2 < 1`` (``1 - q`` for the geometric family, at most ``1/4`` for
#: the Poisson family), so at a size of at least ``T`` the log step's
#: ``log1p`` argument stays above -1, and the exact regime's Gaussian tail
#: value stays positive, whenever ``|G| < sqrt(T)``: at ``2**10`` a failure
#: needs a normal beyond 32 standard deviations.
MIN_PROMOTION_THRESHOLD: int = 2**10

_U64 = 2**64


@dataclass
class RngStream:
    """The validated Philox key ``(master_seed, stream_id)`` of one replicate.

    Both fields are unsigned 64-bit integers and feed the two words of the
    Philox key directly.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        for name, v in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not (0 <= v < _U64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v}")


def rekey_generator(
    gen: Generator, master_seed: int, stream_id: int, substream: int = 0
) -> Generator:
    """Reset a Philox-backed generator to the start of substream
    ``substream`` of the key ``(master_seed, stream_id)``.

    Substream 0 is the exact state a fresh ``Generator(Philox(key=[master_seed,
    stream_id]))`` starts from.  Substream k starts with the highest counter
    word set to k, i.e. ``k * 2**192`` positions into the key's period --
    unreachable by sequential drawing, so substreams never overlap.  Batch
    drivers call this to avoid re-allocating generator objects in the
    per-replicate loop.
    """
    bg = gen.bit_generator
    st = bg.state
    st["state"]["key"][0] = master_seed
    st["state"]["key"][1] = stream_id
    st["state"]["counter"][:] = 0
    st["state"]["counter"][3] = substream
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bg.state = st
    return gen


def atom_cumulative(env: EnvironmentModel) -> np.ndarray:
    """Cumulative atom probabilities for inversion sampling; the last entry
    is forced to 1.0 so a uniform draw can never fall past the end."""
    cum = np.cumsum(np.asarray(env.probs, dtype=np.float64))
    cum[-1] = 1.0
    return cum


def immigration_cdf_table(law: ImmigrationLaw) -> np.ndarray:
    """CDF table ``[P(Y<=0), P(Y<=1), ...]`` for inverting a uniform on
    [0, 1).

    The running sum stops growing once the next pmf term no longer changes
    it in floating point; its last entry is then forced to 1.0, as in
    :func:`atom_cumulative`, so every uniform below 1 inverts inside the
    table.  A float sum may stall a few ulps below 1, so the loop must not
    wait for it to reach 1 on its own.
    """
    if isinstance(law, NoImmigration):
        return np.array([1.0])
    if isinstance(law, PoissonImmigration):
        if law.nu == 0.0:
            return np.array([1.0])
        pmf, ratio = math.exp(-law.nu), lambda k: law.nu / k
    elif isinstance(law, GeometricImmigration):
        if law.s >= 1.0:
            return np.array([1.0])
        pmf, ratio = law.s, lambda k: 1.0 - law.s
    else:
        raise TypeError(f"unknown immigration law {law!r}")
    cdf = [pmf]
    k = 0
    while cdf[-1] < 1.0:
        k += 1
        pmf *= ratio(k)
        if cdf[-1] + pmf == cdf[-1]:
            break
        cdf.append(cdf[-1] + pmf)
    cdf[-1] = 1.0
    return np.array(cdf)
