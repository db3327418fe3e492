"""Seeded sampling primitives and the dual exact/log-space count type.

Reproducibility contract
------------------------
Every random quantity in this package is drawn from an :class:`RngStream`,
which is a counter-based Philox generator keyed directly by the pair
``(master_seed, stream_id)``.  Streams with distinct keys are statistically
independent, and a stream's output is a pure function of its key: no global
state, no seeding order, no thread identity is involved.  Re-creating a
stream with the same pair replays exactly the same draws.

Count representation
--------------------
Population sizes start as exact nonnegative integers (Python ints, so they
never overflow) and are promoted to a log-space float once they reach the
promotion threshold ``T`` (default ``2**40``).  Above ``T`` the relative
resolution of a double (about ``2**-52``) is far below the per-generation
statistical noise of order ``1/sqrt(T) = 2**-20``, so the log-space Gaussian
updates below lose nothing detectable while keeping every operation O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .env_model import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    ImmigrationLaw,
    NoImmigration,
    OffspringLaw,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
)

#: Default promotion threshold from exact integer counts to log-space floats.
PROMOTION_THRESHOLD: int = 2**40

_U64 = 2**64


@dataclass(frozen=True)
class Count:
    """A population size, either exact or in log-space.

    ``value`` holds the exact integer when available (``None`` once the count
    lives purely in log-space); ``log`` always holds the natural log of the
    count (``-inf`` for zero).
    """

    log: float
    value: int | None

    @classmethod
    def exact(cls, v: int) -> "Count":
        if v < 0:
            raise ValueError(f"counts are nonnegative, got {v}")
        return cls(log=math.log(v) if v > 0 else -math.inf, value=v)

    @classmethod
    def from_log(cls, x: float) -> "Count":
        return cls(log=float(x), value=None)

    @classmethod
    def of(cls, v: int, threshold: int) -> "Count":
        """Exact representation below ``threshold``, log-space at or above."""
        if v >= threshold:
            return cls.from_log(math.log(v))
        return cls.exact(v)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def __float__(self) -> float:
        return float(self.value) if self.value is not None else math.exp(self.log)


@dataclass
class RngStream:
    """Philox-backed generator keyed by ``(master_seed, stream_id)``.

    Both fields are unsigned 64-bit integers and feed the two words of the
    Philox key directly.
    """

    master_seed: int
    stream_id: int
    generator: Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, v in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not (0 <= v < _U64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v}")
        self.generator = Generator(Philox(key=[self.master_seed, self.stream_id]))


def rekey_generator(
    gen: Generator, master_seed: int, stream_id: int, substream: int = 0
) -> Generator:
    """Reset a Philox-backed generator to the start of substream
    ``substream`` of the key ``(master_seed, stream_id)``.

    Substream 0 is the exact state a fresh ``RngStream(master_seed,
    stream_id)`` starts from.  Substream k starts with the highest counter
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


def _poisson_count(gen: Generator, mean: float, threshold: int) -> Count:
    """Poisson draw that switches to a Gaussian tail above ``threshold``.

    Below the threshold the draw is numpy's exact Poisson sampler.  At or
    above it the value is ``mean + sqrt(mean) * G`` in log-space; the
    relative error of this approximation is ``O(mean**-0.5) <= 2**-20``.
    """
    if mean < threshold:
        return Count.of(int(gen.poisson(mean)), threshold)
    val = mean + math.sqrt(mean) * gen.standard_normal()
    # A non-positive val would need |G| > sqrt(mean) >= 2**20; guard anyway.
    if val < 1.0:
        val = 1.0
    return Count.from_log(math.log(val))


def sample_poisson(
    mean: float, rng: RngStream, threshold: int = PROMOTION_THRESHOLD
) -> Count:
    """Draw from Poisson(mean) with log-space promotion at ``threshold``."""
    if not (mean >= 0.0) or not math.isfinite(mean):
        raise ValueError(f"Poisson mean must be finite and nonnegative, got {mean}")
    return _poisson_count(gen=rng.generator, mean=mean, threshold=threshold)


def gaussian_log_step(log_z: float, m: float, sqrt_v: float, g: float) -> float:
    """Log of the total offspring of ``z = exp(log_z)`` individuals.

    Conditional on the atom, the total of z i.i.d. offspring counts has mean
    ``z*m`` and variance ``z*v``; for large z the CLT gives
    ``total = z * (m + g * sqrt(v/z))``, hence in logs::

        log total = log_z + log(m) + log1p(g * sqrt(v) * exp(-log_z/2) / m)

    The ``log1p`` argument exceeds -1 whenever ``|g| < m * exp(log_z/2) /
    sqrt(v)``; with log_z above ``log(2**40)`` that bound is around ``10**6``
    standard deviations, unreachable in any run of this package.
    """
    return log_z + math.log(m) + math.log1p(g * sqrt_v * math.exp(-0.5 * log_z) / m)


def sample_offspring_total(
    z: Count | int,
    law: OffspringLaw,
    rng: RngStream,
    threshold: int = PROMOTION_THRESHOLD,
) -> Count:
    """Total offspring of ``z`` individuals reproducing i.i.d. under ``law``.

    Exact regime (z an integer below the threshold) uses closed-form
    aggregation of the whole generation rather than per-individual draws:

    * shifted Poisson: ``total = z + Poisson(z * lam)``, by Poisson
      additivity of the z excess terms;
    * shifted geometric: ``total = z + NegBin(z, q)``, where the negative
      binomial is drawn as a Gamma(z, (1-q)/q) mixture of a Poisson.

    Log regime applies the Gaussian step of :func:`gaussian_log_step` with
    the law's per-individual mean and variance.  The Poisson component of
    the exact regime itself promotes to a Gaussian tail when its mean
    crosses the threshold, so the transition is seamless.
    """
    if isinstance(z, int):
        z = Count.of(z, threshold)

    gen = rng.generator
    if z.is_exact:
        n_parents = z.value
        if n_parents == 0:
            return Count.exact(0)
        if isinstance(law, ShiftedPoisson):
            excess = _poisson_count(gen, n_parents * law.lam, threshold)
        elif isinstance(law, ShiftedGeometric):
            shape = float(n_parents)
            scale = (1.0 - law.q) / law.q
            mixed_mean = float(gen.gamma(shape, scale))
            excess = _poisson_count(gen, mixed_mean, threshold)
        else:
            raise TypeError(f"unknown offspring law {law!r}")
        if excess.is_exact:
            return Count.of(n_parents + excess.value, threshold)
        return Count.from_log(np.logaddexp(math.log(n_parents), excess.log))

    g = float(gen.standard_normal())
    new_log = gaussian_log_step(z.log, law.mean, math.sqrt(law.variance), g)
    return Count.from_log(new_log)


def sample_immigration(law: ImmigrationLaw, rng: RngStream) -> int:
    """One generation's immigrant count under ``law``."""
    if isinstance(law, NoImmigration):
        return 0
    gen = rng.generator
    if isinstance(law, PoissonImmigration):
        if law.nu == 0.0:
            return 0
        return int(gen.poisson(law.nu))
    if isinstance(law, GeometricImmigration):
        if law.s >= 1.0:
            return 0
        # numpy's geometric counts trials to first success (support >= 1).
        return int(gen.geometric(law.s)) - 1
    raise TypeError(f"unknown immigration law {law!r}")


def atom_cumulative(env: EnvironmentModel) -> np.ndarray:
    """Cumulative atom probabilities for inversion sampling; the last entry
    is forced to 1.0 so a uniform draw can never fall past the end."""
    cum = np.cumsum(np.asarray(env.probs, dtype=np.float64))
    cum[-1] = 1.0
    return cum


def sample_atom(env: EnvironmentModel, rng: RngStream) -> int:
    """Index of the environment atom governing one generation."""
    cum = atom_cumulative(env)
    u = rng.generator.random()
    return int(np.searchsorted(cum, u, side="right"))


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
