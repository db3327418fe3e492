"""Path simulation for branching processes with immigration in an i.i.d.
random environment.

Model
-----
``Z_0 = 1`` and ``Z_{n+1} = Y_n + sum_{i=1}^{Z_n} X_{n,i}``: every individual
of generation n reproduces independently under the offspring law of the
generation's environment atom, and ``Y_n`` immigrants (drawn from the same
atom's immigration law) join the next generation.  Offspring laws satisfy
``X >= 1``, so the population never dies and ``log Z_n`` is always defined.
Alongside ``log Z_n`` the driver tracks the environment walk
``S_n = sum_{k<n} log m(xi_k)`` and ``log W_n = log Z_n - S_n``.

Draw layout (version 4, ``DRAW_LAYOUT``)
----------------------------------------
A batch is cut into chunks of ``_CHUNK`` replicates, and each chunk runs as
arrays: one array step per generation over all of its columns.  The chunk
that starts at replicate ``c`` of a batch owns the key ``(master_seed,
stream_offset + c)``; the replicate in its column ``j`` is the triple
``(master_seed, stream_offset + c, j)``, replayed by any chunk of the same
key, size and recorded generations.  Substream k of a key is a PCG64DXSM
generator seeded by the spawn key ``(key, k)`` of the master seed
(:func:`bpire.sampler.substream`), and each kind of draw has its own
substream:

0. the walk: atom uniforms, ``count`` per generation, until every
   population of the chunk is quiet; from then on, for the stretch to each
   recorded generation left, K-1 binomials of ``count`` visit counts
   (:meth:`_Walk.jump`);
1. immigration uniforms, ``count`` per generation, inverted through the
   table of each column's atom (drawn only when some atom has immigrants);
2. normals of the primary population's log steps, one per column in log
   space, in column order, per generation;
3. the primary population's exact-regime draws, per generation in this
   order: gammas of the geometric-offspring columns, Poissons of the
   columns whose mean is below the threshold, normals of the Gaussian tail
   of the others -- each over the exact columns only, in column order;
4. and 5. the same as 2 and 3 for the surplus population of a coupled run.

The primary population is the full path when ``couple_no_immigration`` is
False and the no-immigration path ``Zbar`` when it is True; immigrants join
the primary population in the first case and the surplus in the second.
Until the chunk jumps, the walk and the immigrants do not depend on the
regime, so a run with another promotion threshold replays the same atoms
and immigrants; its normals and exact-regime draws shift once some column
changes regime, which at the default threshold happens at sizes where the
Gaussian step's error in the law of ``log Z`` is of order ``2**-20``.

Substreams 1, 2 and 4 stop before the last generation (see
:class:`_Population`).  Substream 1 stops once the immigrants' term of
the population they join rounds away for good, which leaves every byte
unchanged.  Substreams 2 and 4 stop once the population that uses them
turns quiet, from when its log step adds ``log m`` alone.  That drops the
normals' term of every later step: the quiet log size is chosen so that
the SD of all of it together is at most ``_QUIET_BUDGET`` in ``log W`` and
its size at most ``_NORMAL_BOUND * _QUIET_BUDGET`` on every path
(:func:`_log_sizes`).  A chunk stops at the last recorded generation.

Once every population of a chunk is quiet, a generation adds the ``log
m`` of its atom to ``S`` and to every log size, and nothing else.  So the
stretch of t generations to the next recorded one adds ``sum_a J[a] log
m_a`` to each, where the visit counts ``J ~ Multinomial(t, probs)`` are
drawn at once: the same law as t steps of the walk, with other draws and
another order of summation, so ``log W = log Z - S`` moves by rounding
alone.  The draws of a quiet chunk depend on its recorded generations.
A walk batch (:func:`simulate_walk_batch`) runs the same chunks with no
population, which are quiet from generation 0: each stretch is one jump.

Coupling
--------
With ``couple_no_immigration=True`` the replicate maintains two
populations: the coupled path ``Zbar`` (starts at 1, never receives
immigrants) and the surplus pool ``D`` (starts at 0, receives every
immigrant).  The full path is their sum, ``Z = Zbar + D``, which by
additivity of the aggregated offspring laws has exactly the
branching-with-immigration distribution while guaranteeing ``Zbar <= Z``
pathwise in both exact and log-space regimes (the log-space combination is
``logaddexp``, which never falls below either argument).

Reductions
----------
Every batch runs through :func:`run_batch`, and what it keeps of its
chunks is a :class:`Reduction`.  A chunk hands each recorded generation,
once and in order, to the reduction's ``keep``, which writes that
generation's share of the outputs where the chunk runs, in the caller or
in a forked worker: rows into the chunk's columns, or fixed-size
statistics into its slot.  The identity of :func:`simulate_batch` and
:func:`simulate_walk_batch` copies every recorded row; the estimators of
:mod:`bpire.mc_verify` keep grid counts, or the count, mean and ``M2`` of
statistics of ``log W``.  The draws do not depend on what a batch keeps.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator

from .env_model import EnvironmentModel, GeometricCount
from .sampler import (
    MAX_PROMOTION_THRESHOLD,
    MIN_PROMOTION_THRESHOLD,
    PROMOTION_THRESHOLD,
    atom_cumulative,
    immigration_cdf_table,
    substream,
)

#: Version of the draw layout described above; every run manifest records
#: it.  Any change to which draw feeds which number bumps it.
DRAW_LAYOUT = 4

#: Replicates per chunk, the unit of work of a chunk worker.  Fixed so
#: the partition of a batch into chunks never depends on the worker count:
#: batch output is a pure function of (environment, n, replicates,
#: master_seed, stream_offset, record, couple_no_immigration, threshold).
_CHUNK = 8192

# Substreams of a chunk key (see "Draw layout").
_ATOMS, _IMMIGRATION, _NORMALS, _EXACT, _SURPLUS_NORMALS, _SURPLUS_EXACT = range(6)

#: A bound on ``|g|`` for every normal numpy's ``Generator.standard_normal``
#: returns.  It is a ziggurat whose tail draws ``r + (-log1p(-U)) / r`` with
#: ``r`` about 3.654 and ``U <= 1 - 2**-53``, so ``|g| < 13.8``; 64 leaves a
#: wide margin.  It fixes the log sizes of :class:`_EnvTables`.
_NORMAL_BOUND = 64

#: The error budget of the quiet switch: the largest SD of the log-step
#: noise that a population may still leave in ``log W`` once it turns
#: quiet and stops drawing normals.  The noise it drops is also at most
#: ``_NORMAL_BOUND * _QUIET_BUDGET``, about 6e-8, on every path, far below
#: the Monte Carlo SE of ``E log W`` on environment A at R = 10**6, about
#: 6e-4.
_QUIET_BUDGET = 2.0**-30


@dataclass(frozen=True)
class WalkBatch:
    """Columnar batch output: row g of each array holds generation
    ``record[g]`` across all replicates (one column per replicate, chunk
    after chunk; see :func:`simulate_batch` for the chunk keys).  ``s[g, r]``
    is ``S_{record[g]}`` of replicate r."""

    master_seed: int
    stream_offset: int
    record: tuple[int, ...]
    s: np.ndarray

    @property
    def replicates(self) -> int:
        return self.s.shape[1]

    def row(self, generation: int) -> int:
        return self.record.index(generation)

    def s_at(self, generation: int) -> np.ndarray:
        return self.s[self.row(generation)]


@dataclass(frozen=True)
class BatchResult(WalkBatch):
    """A walk batch with its populations: ``log Z`` and, when run with
    ``couple_no_immigration=True``, ``log Zbar``."""

    log_z: np.ndarray
    log_zbar: np.ndarray | None = None

    @property
    def log_w(self) -> np.ndarray:
        """``log W = log Z - S``, computed on each access: a batch stores
        each recorded row once, in ``log_z`` and ``s``."""
        return self.log_z - self.s

    def log_z_at(self, generation: int) -> np.ndarray:
        return self.log_z[self.row(generation)]

    def log_w_at(self, generation: int) -> np.ndarray:
        g = self.row(generation)
        return self.log_z[g] - self.s[g]

    def log_zbar_at(self, generation: int) -> np.ndarray:
        if self.log_zbar is None:
            raise ValueError("batch was not run with couple_no_immigration=True")
        return self.log_zbar[self.row(generation)]


#: Most buckets of an inversion guide table.
_GUIDE = 4096

#: Most buckets of the guides of all the tables of one inversion: each
#: table gets at most an equal share.
_GUIDE_BUDGET = 2**16

#: Most entries of a single table inverted by counting, without a guide.
_SMALL = 8


class _Inverse:
    """Inversion of uniforms through CDF tables that end at 1.0:
    ``inv(u, rows)[i]`` equals ``searchsorted(cdfs[rows[i]], u[i],
    side="right")``, and ``inv(u)`` inverts through ``cdfs[0]``.

    A single table of at most ``_SMALL`` entries is inverted by counting
    the entries ``table[j] <= u`` below the last, which never counts: the
    count is the number of entries at most u, which is what the search
    returns, duplicate entries included.

    Each table has a guide of M buckets ``[b, b + 1) / M``, M a power of two
    (so ``floor(u * M)`` is exact) of about 32 per entry, at most
    ``_GUIDE`` and at most the table's equal share of ``_GUIDE_BUDGET``
    (at least 1), so all guides together hold at most ``max(_GUIDE_BUDGET,
    len(cdfs))`` buckets.  The guide holds the range of entries a bucket's
    uniforms can end on: one comparison finishes the inversion unless two
    entries share the bucket, and those few uniforms are bisected in that
    range.  Tables and guides are concatenated, so memory is linear in the
    entries.
    """

    def __init__(self, cdfs: list[np.ndarray]):
        self.small = cdfs[0][:-1] if len(cdfs) == 1 and len(cdfs[0]) <= _SMALL else None
        if self.small is not None:
            return
        self.table = np.concatenate(cdfs)
        self.start = np.cumsum([0] + [len(c) for c in cdfs[:-1]])
        most = min(_GUIDE, 1 << (max(1, _GUIDE_BUDGET // len(cdfs)).bit_length() - 1))
        buckets = [min(most, 1 << (32 * len(c) - 1).bit_length()) for c in cdfs]
        self.buckets = np.array(buckets, dtype=np.float64)
        self.first = np.cumsum([0] + buckets[:-1])
        lo, hi = [], []
        for c, m, start in zip(cdfs, buckets, self.start):
            edges = np.arange(m + 1) / m
            lo.append(start + np.searchsorted(c, edges[:-1], side="right"))
            hi.append(start + np.searchsorted(c, edges[1:], side="left"))
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)

    def __call__(self, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        if self.small is not None:  # rows, if any, are all 0
            y = np.zeros(u.size, dtype=np.intp)
            for entry in self.small:
                y += entry <= u
            return y
        if rows is None:
            b = (u * self.buckets[0]).astype(np.intp)
        else:
            b = (u * self.buckets[rows]).astype(np.intp) + self.first[rows]
        lo, hi = self.lo[b], self.hi[b]
        y = lo + (self.table[lo] <= u)
        crowded = np.flatnonzero(hi - lo > 1)
        if crowded.size:
            lo, hi, v = lo[crowded], hi[crowded], u[crowded]
            while (open_ := lo < hi).any():
                mid = (lo + hi) // 2
                right = self.table[mid] <= v
                lo = np.where(open_ & right, mid + 1, lo)
                hi = np.where(open_ & ~right, mid, hi)
            y[crowded] = lo
        return y if rows is None else y - self.start[rows]


class _Walk:
    """All the environment walk needs: the atom inversion, the atoms' log
    offspring means and the shares of the chained binomials of
    :meth:`jump`."""

    def __init__(self, env: EnvironmentModel):
        cum = atom_cumulative(env)
        self.atoms = _Inverse([cum])
        self.logm = np.array([math.log(a.offspring.mean) for a in env.atoms])
        # atom a's share of the mass the atoms before it leave, in the law
        # the inversion draws; 1.0 (any share) once none is left
        left = 1.0 - np.concatenate([[0.0], cum[:-2]])
        mass = np.diff(cum[:-1], prepend=0.0)
        self.share = np.minimum(1.0, np.divide(mass, left, out=np.ones_like(mass),
                                               where=left > 0.0))

    def step(self, gen: Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """One generation: each column's atom index and its log mean."""
        idx = self.atoms(gen.random(count))
        return idx, self.logm[idx]

    def jump(self, gen: Generator, count: int, t: int) -> np.ndarray:
        """Each column's ``sum_a J[a] log m_a`` over t generations, where the
        visit counts ``J ~ Multinomial(t, probs)`` are K-1 chained binomials:
        ``J[a] ~ Bin(t - J[0] - ... - J[a-1], share[a])``, and the last atom
        takes what is left."""
        left = np.full(count, t, dtype=np.int64)
        total = np.zeros(count)
        for lm, share in zip(self.logm[:-1], self.share):
            visits = gen.binomial(left, share)
            total += visits * lm
            left -= visits
        return total + left * self.logm[-1]


class _EnvTables:
    """Per-environment constants, one array entry per atom.  Built once per
    batch and handed to every chunk."""

    def __init__(self, env: EnvironmentModel):
        self.walk = _Walk(env)
        self.logm = self.walk.logm
        counts = [a.offspring.count for a in env.atoms]
        # the one family choice: a geometric count draws its Poisson mean from a gamma
        self.geometric = np.array([isinstance(c, GeometricCount) for c in counts])
        self.any_geometric = bool(self.geometric.any())
        self.p1 = np.array([c.mean for c in counts])  # Poisson mean per parent, or gamma scale
        self.sd_over_m = np.array(
            [math.sqrt(a.offspring.variance) / a.offspring.mean for a in env.atoms]
        )
        # one table per distinct law; atom a inverts through row imm_row[a]
        row = {law: i for i, law in enumerate(dict.fromkeys(a.immigration for a in env.atoms))}
        cdfs = [immigration_cdf_table(law) for law in row]
        self.immigration = _Inverse(cdfs)
        self.imm_row = (None if len(row) == 1
                        else np.array([row[a.immigration] for a in env.atoms]))
        self.immigrates = any(len(cdf) > 1 for cdf in cdfs)
        self.immigrants_log_size, self.quiet_log_size = _log_sizes(
            self.logm, self.sd_over_m, max(len(cdf) for cdf in cdfs) - 1)

    def immigrants(self, u: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The immigrants that uniforms ``u`` give under atoms ``idx``."""
        return self.immigration(u, None if self.imm_row is None else self.imm_row[idx])


def _log_sizes(logm: np.ndarray, sd_over_m: np.ndarray, y_max: int) -> tuple[float, float]:
    """The least log sizes L, under every atom, from which (1) a column's
    immigrants round away and no log step can take it below L again, and
    (2) also the noise of every log step left is within ``_QUIET_BUDGET``:
    the immigrants-only and the quiet log size.  Both are ``inf`` when some
    atom's ``log m`` is 0.0, where no bound B below holds.

    Immigrants: ``y_max * exp(-L) <= 2**-56`` with ``L >= 1``, so ``L +
    log1p(y * exp(-L)) == L`` for y immigrants, with a margin of a factor 2
    at least.  No way back: with ``B = _NORMAL_BOUND * (sd/m) * exp(-L/2)
    <= min(log m, 1) / 2``, a log step's noise term ``log1p(g * (sd/m) *
    exp(-L/2))`` is at least ``log1p(-B) >= -B - B**2 >= -3B/2 >= -3 log m
    / 4`` (``B <= 1/2``), so the step adds at least ``log m / 4 > 0`` before
    the immigrants' term, which is never negative, and a rounded sum with a
    nonnegative increment never falls below L.  (``log m / 2`` alone would
    not do: above ``log m`` of about 1.59, ``log1p(-log m / 2) < -log m``.)

    Budget: from a log size L at which (1) holds, every step adds at least
    ``c = min(log m) / 4``, so the k-th step after starts at ``L + k c`` or
    above, where its noise term has an SD of ``(sd/m) exp(-(L + k c)/2)`` to
    first order and is at most ``_NORMAL_BOUND`` times that.  Over all the
    steps left that sums to at most ``s exp(-L/2) / (1 - exp(-c/2))``, with
    ``s`` the largest ``sd/m``, which is ``_QUIET_BUDGET`` at the budget
    size.  The quiet log size is the larger of (1) and the budget size, so
    from there the immigrants are gone to the last bit and the normals
    within the budget.
    """
    if not logm.all():
        return math.inf, math.inf
    rounded = math.log(y_max * 2.0**56) if y_max else 0.0
    ratio = 2.0 * sd_over_m / np.minimum(logm, 1.0)  # B <= 1 / ratio for every atom
    immigrants = max(1.0, rounded, 2.0 * math.log(float((_NORMAL_BOUND * ratio).max())))
    geometric = -math.expm1(-float(logm.min()) / 8.0)  # 1 - exp(-c/2)
    budget = 2.0 * math.log(float(sd_over_m.max()) / (_QUIET_BUDGET * geometric))
    return immigrants, max(immigrants, budget)


def as_int(value, name: str) -> int:
    """``value`` as an ``int``.  Python and numpy integers pass; a bool, or
    anything else :func:`operator.index` refuses, raises ``ValueError``
    naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_batch(n: int, replicates: int, master_seed: int, stream_offset: int,
                 record: Sequence[int] | None, threads: int, threshold: int
                 ) -> tuple[int, int, tuple[int, ...]]:
    """Check the arguments both batch functions share and return the key
    words and the recorded generations (default: only ``n``) as Python
    ints.  The counts, the key words and the threshold must be integers;
    the key words must be unsigned 64-bit words: ``master_seed`` itself,
    and ``stream_offset + r`` for every replicate r."""
    if as_int(threads, "threads") < 0:
        raise ValueError(f"threads must be nonnegative (0 = auto), got {threads}")
    if as_int(n, "n") < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    replicates = as_int(replicates, "replicates")
    if replicates <= 0:
        raise ValueError(f"replicates must be positive, got {replicates}")
    master_seed = as_int(master_seed, "master_seed")
    stream_offset = as_int(stream_offset, "stream_offset")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    if not (0 <= stream_offset and stream_offset + replicates <= 2**64):
        raise ValueError(
            f"stream_offset must be nonnegative with stream_offset + replicates <= 2**64, "
            f"got {stream_offset} and {replicates}"
        )
    rec = tuple(as_int(g, "record generation") for g in (record if record is not None else (n,)))
    if list(rec) != sorted(set(rec)):
        raise ValueError("record generations must be strictly increasing")
    if rec and (rec[0] < 0 or rec[-1] > n):
        raise ValueError(f"record generations must lie in [0, {n}]")
    if as_int(threshold, "threshold") < MIN_PROMOTION_THRESHOLD:
        raise ValueError(
            f"promotion threshold must be at least {MIN_PROMOTION_THRESHOLD}: below it "
            "the Gaussian log step and tail are not guaranteed a positive argument"
        )
    if threshold > MAX_PROMOTION_THRESHOLD:
        raise ValueError(
            f"promotion threshold must be at most {MAX_PROMOTION_THRESHOLD}: above it "
            "exact counts may overflow int64"
        )
    return master_seed, stream_offset, rec


def _take(y: np.ndarray | None, cols: np.ndarray) -> np.ndarray | None:
    return None if y is None else y[cols]


class _Population:
    """One population in every column of a chunk, grown one generation at
    a time by :meth:`step`.

    A column holds an exact int64 count until it reaches ``threshold`` and
    its log size from then on, for good.  Exact step: the offspring total of
    z parents is ``z + Poisson(z*lam)`` (shifted Poisson) or ``z +
    Poisson(Gamma(z, (1-q)/q))`` (shifted geometric), drawn from ``gen``; a
    Poisson mean at or above ``threshold`` is drawn as ``mean + sqrt(mean) *
    G`` instead (at least 1).  Log step, with a normal ``g`` drawn from
    ``normals`` for each promoted column, in column order:
    ``log Z' = log Z + log m + log1p(g * sqrt(v) * Z**-0.5 / m)``,
    i.e. ``log(Z*m + g*sqrt(Z*v))``, followed by ``log1p(y / Z')`` for y
    immigrants.  Counts stay below ``2**63``: an exact column holds less
    than ``threshold <= 2**61``, and a tail value too large to count
    promotes its column at once.

    Once every column is promoted and at least
    ``tab.immigrants_log_size`` in log size, immigrants round away for good
    (:func:`_log_sizes`): ``takes_immigrants`` turns False and
    ``y`` may be ``None``.  Once every column is also at least
    ``tab.quiet_log_size``, which is never less, the population is quiet
    for good: the noise of all its later log steps is within
    ``_QUIET_BUDGET``, so a quiet step adds ``log m`` alone, draws no
    normal and ignores ``y``.
    """

    def __init__(self, z: int, count: int, tab: _EnvTables, threshold: int, gen: Generator,
                 normals: Generator):
        self.z = np.full(count, z, dtype=np.int64)
        self.log_z = np.zeros(count)  # meaningful where promoted
        self.promoted = np.zeros(count, dtype=bool)
        self.all_promoted = False
        self.takes_immigrants = True
        self.quiet = False
        self.tab = tab
        self.threshold = threshold
        self.gen = gen
        self.normals = normals

    def step(self, idx: np.ndarray, lm: np.ndarray, y: np.ndarray | None) -> None:
        """Take every column one generation on under atoms ``idx``, whose
        log means are ``lm``, with immigrants ``y`` (``None``: none)."""
        if self.quiet:
            self.log_z += lm
            return
        if self.all_promoted:
            self.log_z = self._log_step(self.log_z, idx, lm, y)
            low = self.log_z.min()
            self.takes_immigrants = low < self.tab.immigrants_log_size
            self.quiet = low >= self.tab.quiet_log_size
            return
        done = np.flatnonzero(self.promoted)
        if done.size:
            self.log_z[done] = self._log_step(self.log_z[done], idx[done], lm[done],
                                              _take(y, done))
        cols = np.flatnonzero(~self.promoted)
        z, size = self._exact_step(self.z[cols], idx[cols], _take(y, cols))
        self.z[cols] = z
        up = z >= self.threshold
        if up.any():
            self.log_z[cols[up]] = np.log(size[up])
            self.promoted[cols[up]] = True
            self.all_promoted = bool(self.promoted.all())

    def _log_step(self, log_z, a, lm, y):
        g = self.normals.standard_normal(log_z.size)
        log_z = log_z + (lm + np.log1p(g * self.tab.sd_over_m[a] * np.exp(-0.5 * log_z)))
        if y is not None:
            log_z = log_z + np.log1p(y * np.exp(-log_z))
        return log_z

    @np.errstate(over="ignore", invalid="ignore")  # an infinite total raises below
    def _exact_step(self, z, a, y):
        """New counts of exact columns ``z`` (at most the threshold when a
        tail value is too large to count) and their sizes as floats."""
        tab, gen, threshold = self.tab, self.gen, self.threshold
        mean = z * tab.p1[a]
        if tab.any_geometric:
            geo = tab.geometric[a] & (z > 0)
            if geo.any():
                mean[geo] = gen.gamma(z[geo], tab.p1[a[geo]])
        tail = mean >= threshold
        excess = gen.poisson(np.where(tail, 0.0, mean))  # a zero mean draws nothing
        m = mean[tail]
        val = np.floor(np.maximum(m + np.sqrt(m) * gen.standard_normal(m.size), 1.0))
        if not np.isfinite(val).all():
            raise ValueError("an offspring total overflows a double")
        excess[tail] = np.minimum(val, threshold)
        z = z + excess
        if y is not None:
            z += y
        size = z.astype(np.float64)
        size[tail] += val - excess[tail]
        return z, size

    def log_size(self) -> np.ndarray:
        """Log size of every column, ``-inf`` where it is empty."""
        out = np.full(self.z.size, -np.inf)
        np.log(self.z, out=out, where=self.z > 0)
        np.copyto(out, self.log_z, where=self.promoted)
        return out


def _simulate_chunk(
    key: int,
    count: int,
    walk: _Walk,
    tab: _EnvTables | None,
    master_seed: int,
    record: tuple[int, ...],
    populations: int,
    threshold: int,
    keep: Callable[[int, np.ndarray, np.ndarray | None, np.ndarray | None], None],
) -> None:
    """Simulate the ``count`` columns of the chunk keyed ``(master_seed,
    key)`` with ``populations`` populations -- 0: the walk alone, 1: ``Z``,
    2: ``Zbar`` and the surplus ``D`` -- and hand each recorded generation
    ``record[g]``, once and in order, to ``keep(g, s, log_z, log_zbar)``:
    its ``S``, ``log Z`` and ``log Zbar`` rows, ``None`` for a population
    the chunk does not have (generation 0 is ``log Z_0 = S_0 = 0``).  The
    rows are the chunk's to read only while ``keep`` runs.  Once every
    population is quiet, from generation 0 for the walk alone, the stretch
    to each recorded generation left is one jump of the walk.  ``tab`` is
    ``None`` for the walk alone."""
    gens = [substream(master_seed, key, i) for i in range(6)]
    # the primary population starts at 1, the surplus at 0; immigrants join
    # the last
    streams = ((_EXACT, _NORMALS), (_SURPLUS_EXACT, _SURPLUS_NORMALS))[:populations]
    pops = [_Population(1 - i, count, tab, threshold, gens[exact], gens[normals])
            for i, (exact, normals) in enumerate(streams)]
    s = np.zeros(count)
    k = 0
    for g, r in enumerate(record):
        while k < r and not all(pop.quiet for pop in pops):
            idx, lm = walk.step(gens[_ATOMS], count)
            s = s + lm
            y = None
            if tab.immigrates and pops[-1].takes_immigrants:
                y = tab.immigrants(gens[_IMMIGRATION].random(count), idx)
            for pop in pops:
                pop.step(idx, lm, y if pop is pops[-1] else None)
            k += 1
        if k < r:
            gain = walk.jump(gens[_ATOMS], count, r - k)
            s = s + gain
            for pop in pops:
                pop.log_z += gain
            k = r
        log_z = pops[0].log_size() if populations else None
        log_zbar = None
        if populations == 2:
            # log(Zbar + D); D = 0 (-inf) leaves Zbar unchanged
            surplus = pops[1].log_size()
            log_zbar, log_z = log_z, np.logaddexp(log_z, surplus, out=surplus)
        keep(g, s, log_z, log_zbar)


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use.  No chunk runs on a
    pool; the outside-in tracer of the bench (``bench/traced.py``) alone
    reads and rebinds this name, until the in-program counters replace
    that tracer (ROADMAP items 5 and 6)."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Reduction(NamedTuple):
    """What a batch keeps of each chunk.

    Every output is float64.  ``columns`` names outputs with one row per
    recorded generation and one column per replicate; ``slots`` names
    outputs with one slot per chunk, in stream order, and gives the shape
    of a slot, which may hold counts (exact below ``2**53``) or moments.
    For each recorded generation a chunk calls ``keep(views, g, s, log_z,
    log_zbar)`` with the rows :func:`_simulate_chunk` hands on, and ``keep``
    writes generation g's share into ``views``: row g of the chunk's
    columns of a ``columns`` output, or its slot of a ``slots`` output.
    ``views`` is the chunk's own dict, so ``keep`` may also carry an array
    of its own in it from one generation to the next, under a name that
    is no output's."""

    keep: Callable[..., None]
    columns: tuple[str, ...]
    slots: Mapping[str, tuple[int, ...]] = {}


#: The rows a chunk hands on for each recorded generation, in order.
_ROWS = ("s", "log_z", "log_zbar")


def _copy_rows(views: dict[str, np.ndarray], g: int, *rows: np.ndarray | None) -> None:
    """The ``keep`` of the identity: generation g's rows, copied into row g
    of the outputs of the same names."""
    for name, row in zip(_ROWS, rows):
        if row is not None:
            views[name][g] = row


def run_batch(
    env: EnvironmentModel,
    n: int,
    replicates: int,
    master_seed: int,
    record: Sequence[int] | None,
    reduction: Reduction,
    populations: int = 1,
    threshold: int = PROMOTION_THRESHOLD,
    threads: int = 1,
    stream_offset: int = 0,
) -> tuple[int, int, tuple[int, ...], dict[str, np.ndarray]]:
    """Run the batch of :func:`simulate_walk_batch` (``populations`` 0) or
    :func:`simulate_batch` (1; 2 when coupled), with the same arguments,
    chunks and draws, and return its key words, its recorded generations
    and the outputs of ``reduction``.  The walk alone builds only its
    :class:`_Walk`, not the immigration tables of :class:`_EnvTables`.

    The ``replicates`` columns are cut into fixed-size chunks, and each
    chunk hands its recorded generations to ``reduction.keep`` with its
    views of the outputs, so it reduces its own rows where it runs.  The
    partition and the chunk keys do not depend on ``threads``, so neither
    do the outputs, nor what a caller folds from the slots in stream
    order.

    There are W = ``min(threads or C, C, chunks)`` workers, C the CPUs
    this process may run on (its affinity mask where the OS reports one),
    or one without ``os.fork``.  Worker w runs chunks w, w + W, ... in
    stream order, up to the first that raises.  The caller is worker 0.
    Every other worker is a forked child: it writes its share of the
    outputs straight into them, which then lie in one anonymous shared
    mapping, and leaves by ``os._exit``, with status 0 once its whole share
    has run and 1 otherwise; it sends nothing else.  So each output is held
    once, and nothing is copied back; a chunk's rows of a generation live
    only until it takes the next.

    The caller then reaps each child.  A chunk is a pure function of its
    key, so the caller runs the share of a child that exited nonzero
    itself: that raises the child's error with its own type and args, or,
    if nothing raises, fills the share.  It raises the error of the
    earliest failing chunk in stream order; a child killed by a signal
    fails as ``ChildProcessError``.  On any other way out, such as an
    interrupt, it kills and reaps the children left."""
    if populations not in (0, 1, 2):
        raise ValueError(f"populations must be 0, 1 or 2, got {populations!r}")
    master_seed, stream_offset, rec = _check_batch(n, replicates, master_seed, stream_offset,
                                                   record, threads, threshold)
    tab = _EnvTables(env) if populations else None
    walk = _Walk(env) if tab is None else tab.walk
    starts = range(0, replicates, _CHUNK)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads or cpus, cpus, len(starts)) if hasattr(os, "fork") else 1
    shapes = {**{name: (len(rec), replicates) for name in reduction.columns},
              **{name: (len(starts), *slot) for name, slot in reduction.slots.items()}}
    if workers == 1:
        out = {name: np.empty(shape) for name, shape in shapes.items()}
    else:  # only a batch that forks loads these
        import mmap
        import signal

        sizes = [math.prod(shape) for shape in shapes.values()]
        mapping = mmap.mmap(-1, max(1, 8 * sum(sizes)))  # no empty mapping exists
        offsets = np.cumsum([0] + sizes).tolist()
        out = {name: np.frombuffer(mapping, count=size, offset=8 * offset).reshape(shape)
               for (name, shape), size, offset in zip(shapes.items(), sizes, offsets)}

    def run(worker: int) -> list[tuple[int, Exception]]:
        for c in range(worker, len(starts), workers):
            start = starts[c]
            cnt = min(_CHUNK, replicates - start)
            views = {name: out[name][:, start:start + cnt] for name in reduction.columns}
            views.update((name, out[name][c]) for name in reduction.slots)
            try:
                _simulate_chunk(stream_offset + start, cnt, walk, tab, master_seed, rec,
                                populations, threshold, functools.partial(reduction.keep, views))
            except Exception as exc:
                return [(c, exc)]
        return []

    children = []  # (worker, pid) of each child not yet reaped
    failures = []
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:  # the child: exit 0 only once its whole share has run
                status = 1
                try:
                    status = 1 if run(w) else 0
                finally:
                    os._exit(status)
            children.append((w, pid))
        failures += run(0)
        while children:
            w, pid = children[-1]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop()
            if code < 0:
                failures.append((w, ChildProcessError(
                    f"chunk worker {w} was killed by signal {-code} ({signal.strsignal(-code)})")))
            elif code:
                failures += run(w)
    finally:
        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return master_seed, stream_offset, rec, out


def simulate_batch(
    env: EnvironmentModel,
    n: int,
    replicates: int,
    master_seed: int,
    record: Sequence[int] | None = None,
    couple_no_immigration: bool = False,
    threshold: int = PROMOTION_THRESHOLD,
    threads: int = 1,
    stream_offset: int = 0,
) -> BatchResult:
    """Simulate ``replicates`` independent paths, recording the generations
    in ``record`` (default: only generation ``n``).

    Replicate r is column ``r % _CHUNK`` of the chunk keyed
    ``(master_seed, stream_offset + r - r % _CHUNK)``.  Output is
    bit-identical for any ``threads`` value because the chunk partition and
    the chunk keys are fixed.  ``threads`` caps the chunk workers, the
    caller and its forked children (0 = one per CPU this process may run
    on); there are never more than those CPUs or the chunks.  A single
    path, every generation of it, is column 0 of ``simulate_batch(env, n,
    1, master_seed, record=range(n + 1), stream_offset=key)``.  Columns do
    not depend on the recorded generations until their chunk turns quiet,
    and from then on only by the draws of the jumps between them (see
    "Draw layout").

    The batch holds each recorded row once: every output array is
    allocated once, with shape ``(len(record), replicates)``, and the
    chunks fill its columns.  ``log_w`` is derived, ``log_z - s`` on each
    access.
    """
    populations = 2 if couple_no_immigration else 1
    *keys, out = run_batch(env, n, replicates, master_seed, record,
                           Reduction(_copy_rows, _ROWS[:populations + 1]), populations, threshold,
                           threads, stream_offset)
    return BatchResult(*keys, **out)


def simulate_walk_batch(
    env: EnvironmentModel,
    n: int,
    replicates: int,
    master_seed: int,
    record: Sequence[int] | None = None,
    threads: int = 1,
    stream_offset: int = 0,
) -> WalkBatch:
    """Simulate the environment walk ``S_n`` alone (no branching).

    Uses the chunk keys and the walk substream of :func:`simulate_batch`,
    and draws each stretch between recorded generations as one jump of
    binomial visit counts: ``S`` has the law of that batch's, not its
    bytes, which the batch draws generation by generation until its chunk
    turns quiet.
    """
    *keys, out = run_batch(env, n, replicates, master_seed, record, Reduction(_copy_rows, ("s",)),
                           0, threads=threads, stream_offset=stream_offset)
    return WalkBatch(*keys, **out)
