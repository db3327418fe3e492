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

Draw layout (frozen)
--------------------
Each replicate owns the Philox key ``(master_seed, stream_id)`` and two
non-overlapping counter blocks of that key: substream 0 starts at counter 0,
substream 1 starts at counter ``2**192`` (highest counter word = 1).  The
layout below is part of the reproducibility contract; changing it changes
every simulated path.

Substream 0 draws, in order:

1. ``random(n)``            -- atom selection uniforms, generations 0..n-1;
2. ``standard_normal(n)``   -- log-regime fluctuations of the primary
   population (the full path when ``couple=False``, the no-immigration
   coupled path when ``couple=True``);
3. ``random(n)``            -- immigration uniforms, inverted through the
   atom's CDF table (always consumed, even for NoImmigration atoms);
4. on-demand scalar draws for the primary population's exact regime.

Substream 1 (only when ``couple=True``):

1. ``standard_normal(n)``   -- log-regime fluctuations of the surplus
   population;
2. on-demand scalar draws for the surplus population's exact regime.

Because immigration and atom indices come from fixed pre-drawn blocks and
each population's on-demand draws live in their own substream, re-running a
replicate with a different promotion threshold replays identical atom and
immigration sequences, and the exact-regime draws stay aligned until each
population individually promotes.  That is what keeps trajectories
threshold-consistent to within the log-regime noise floor.

One function, ``_population``, runs every population through all its
generations.  A coupled replicate runs ``Zbar`` to completion and then ``D``
instead of interleaving their generations; that replays the same draws,
because substream 0's on-demand draws belong only to ``Zbar`` and substream
1's only to ``D``.  A population stops at the last recorded generation:
later draws could reach no output.

Coupling
--------
With ``couple=True`` the replicate maintains two populations: the coupled
path ``Zbar`` (starts at 1, never receives immigrants) and the surplus pool
``D`` (starts at 0, receives every immigrant).  The full path is their sum,
``Z = Zbar + D``, which by additivity of the aggregated offspring laws has
exactly the branching-with-immigration distribution while guaranteeing
``Zbar <= Z`` pathwise in both exact and log-space regimes (the log-space
combination is ``logaddexp``, which never falls below either argument).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .env_model import EnvironmentModel, ShiftedGeometric, ShiftedPoisson
from .sampler import (
    MIN_PROMOTION_THRESHOLD,
    PROMOTION_THRESHOLD,
    RngStream,
    atom_cumulative,
    immigration_cdf_table,
    rekey_generator,
)

#: Replicates per worker task.  Fixed so the partition of a batch into tasks
#: never depends on the worker count: batch output is a pure function of
#: (environment, n, replicates, master_seed, record, couple, threshold).
_CHUNK = 8192


@dataclass(frozen=True)
class Trajectory:
    """One simulated path, generation by generation (index 0..n).

    ``log_zbar`` is present only for coupled runs and dominates nothing:
    it is the coupled no-immigration path with ``log_zbar <= log_z``
    pathwise.  ``log_w = log_z - s`` holds exactly (it is computed as that
    subtraction).
    """

    master_seed: int
    stream_id: int
    log_z: np.ndarray
    s: np.ndarray
    log_w: np.ndarray
    log_zbar: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.log_z) - 1


@dataclass(frozen=True)
class BatchResult:
    """Columnar batch output: row g of each array holds generation
    ``record[g]`` across all replicates (one column per replicate, in
    stream order: replicate r uses stream_id ``stream_offset + r``)."""

    master_seed: int
    stream_offset: int
    record: tuple[int, ...]
    log_z: np.ndarray
    s: np.ndarray
    log_w: np.ndarray
    log_zbar: np.ndarray | None = None

    @property
    def replicates(self) -> int:
        return self.log_z.shape[1]

    def row(self, generation: int) -> int:
        return self.record.index(generation)

    def log_z_at(self, generation: int) -> np.ndarray:
        return self.log_z[self.row(generation)]

    def log_w_at(self, generation: int) -> np.ndarray:
        return self.log_w[self.row(generation)]

    def s_at(self, generation: int) -> np.ndarray:
        return self.s[self.row(generation)]

    def log_zbar_at(self, generation: int) -> np.ndarray:
        if self.log_zbar is None:
            raise ValueError("batch was not run with couple=True")
        return self.log_zbar[self.row(generation)]


@dataclass(frozen=True)
class WalkBatch:
    """Environment-walk-only batch: ``s[g, r]`` is ``S_{record[g]}`` for
    replicate r.  Uses the first draw block of the trajectory layout."""

    master_seed: int
    stream_offset: int
    record: tuple[int, ...]
    s: np.ndarray

    @property
    def replicates(self) -> int:
        return self.s.shape[1]

    def s_at(self, generation: int) -> np.ndarray:
        return self.s[self.record.index(generation)]


def _walk_tables(env: EnvironmentModel) -> tuple[np.ndarray, np.ndarray]:
    """The atom-inversion CDF and the atoms' log offspring means: all the
    environment walk needs."""
    return atom_cumulative(env), np.array([math.log(a.offspring.mean) for a in env.atoms])


class _EnvTables:
    """Per-environment constants unpacked into loop-friendly lists.  Built
    once per batch and handed to every chunk."""

    def __init__(self, env: EnvironmentModel):
        self.cum, self.logm_np = _walk_tables(env)
        self.logm = self.logm_np.tolist()
        kinds: list[int] = []
        p1: list[float] = []
        for a in env.atoms:
            law = a.offspring
            if isinstance(law, ShiftedPoisson):
                kinds.append(0)
                p1.append(law.lam)
            elif isinstance(law, ShiftedGeometric):
                kinds.append(1)
                p1.append((1.0 - law.q) / law.q)  # gamma mixing scale
            else:
                raise TypeError(f"unknown offspring law {law!r}")
        self.kind = kinds
        self.p1 = p1
        self.m = [a.offspring.mean for a in env.atoms]
        self.sqrt_v = [math.sqrt(a.offspring.variance) for a in env.atoms]
        self.imm_cdfs = [immigration_cdf_table(a.immigration) for a in env.atoms]


def _fresh_generator() -> Generator:
    return Generator(Philox(key=[0, 0]))


def _immigration_counts(tab: _EnvTables, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert per-generation immigration counts from uniforms, vectorised
    per atom.  Every table ends at 1.0 and every uniform is below 1, so each
    inversion lands inside its table."""
    y = np.zeros(len(idx), dtype=np.int64)
    for a, cdf in enumerate(tab.imm_cdfs):
        if len(cdf) == 1:
            continue
        mask = idx == a
        if mask.any():
            y[mask] = np.searchsorted(cdf, u[mask], side="right")
    return y


def _record_positions(record: Sequence[int], n: int) -> list[int]:
    rec = list(record)
    if rec != sorted(set(rec)):
        raise ValueError("record generations must be strictly increasing")
    if rec and (rec[0] < 0 or rec[-1] > n):
        raise ValueError(f"record generations must lie in [0, {n}]")
    return rec


def _population(
    z: int,
    gen: Generator,
    idx_l: list[int],
    g_l: list[float],
    y_l: list[int],
    tab: _EnvTables,
    threshold: int,
    rec: list[int],
) -> list[float]:
    """Grow one population from ``z`` individuals and return its log size
    at each generation in ``rec`` (all >= 1, increasing), ``-inf`` while it
    is empty.

    Step k takes generation k to k+1 under atom ``idx_l[k]`` and adds the
    ``y_l[k]`` immigrants.  Exact phase: the offspring total of z parents is
    ``z + Poisson(z*lam)`` (shifted Poisson) or ``z + Poisson(Gamma(z,
    (1-q)/q))`` (shifted geometric), drawn on demand from ``gen``; a Poisson
    mean at or above ``threshold`` is drawn as ``mean + sqrt(mean) * G``
    instead.  Once the size reaches ``threshold`` the population moves to
    log space for good: with the pre-drawn normal ``g = g_l[k]``,
    ``log Z' = log Z + log m + log1p(g * sqrt(v) * Z**-0.5 / m)``, i.e.
    ``log(Z*m + g*sqrt(Z*v))``, followed by ``log1p(y / Z')`` for immigrants.
    """
    kind_l, p1_l, m_l, logm_l, sv_l = tab.kind, tab.p1, tab.m, tab.logm, tab.sqrt_v
    log, log1p, exp, sqrt = math.log, math.log1p, math.exp, math.sqrt
    pois, norm, gam = gen.poisson, gen.standard_normal, gen.gamma
    out: list[float] = []
    pending = iter(rec)
    nxt = next(pending, 0)
    for k in range(rec[-1] if rec else 0):
        if z:
            a = idx_l[k]
            if kind_l[a]:
                mean = float(gam(z, p1_l[a]))
            else:
                mean = z * p1_l[a]
            if mean < threshold:
                z = z + int(pois(mean)) + y_l[k]
            else:
                val = mean + sqrt(mean) * float(norm())
                if val < 1.0:
                    val = 1.0
                z = z + int(val) + y_l[k]
        else:
            z = y_l[k]
        if k + 1 == nxt:
            out.append(log(z) if z else -math.inf)
            nxt = next(pending, 0)
        if z >= threshold:
            break
    else:
        return out

    zlog = log(z)
    k += 1
    for r in rec[len(out):]:
        for j in range(k, r):
            a = idx_l[j]
            zlog += logm_l[a] + log1p(g_l[j] * sv_l[a] * exp(-0.5 * zlog) / m_l[a])
            yj = y_l[j]
            if yj:
                zlog += log1p(yj * exp(-zlog))
        out.append(zlog)
        k = r
    return out


def _simulate_chunk(
    start_sid: int,
    count: int,
    tab: _EnvTables,
    n: int,
    master_seed: int,
    record: tuple[int, ...],
    couple: bool,
    threshold: int,
) -> dict[str, np.ndarray]:
    """Simulate ``count`` replicates with consecutive stream ids and return
    recorded rows.  This is the unit of work handed to pool workers."""
    rec = [g for g in record if g > 0]
    first = len(record) - len(rec)  # 1 when generation 0 (log Z_0 = 0) is recorded
    walk_at = np.array(rec, dtype=np.int64) - 1
    out_logz = np.zeros((len(record), count))
    out_s = np.zeros((len(record), count))
    out_logzbar = np.zeros((len(record), count)) if couple else None

    gen0 = _fresh_generator()
    gen1 = _fresh_generator() if couple else None
    no_immigrants = [0] * n
    log1p, exp = math.log1p, math.exp

    for col in range(count):
        sid = start_sid + col
        rekey_generator(gen0, master_seed, sid)
        u_atoms = gen0.random(n)
        g1_l = gen0.standard_normal(n).tolist()
        u_imm = gen0.random(n)

        idx = np.searchsorted(tab.cum, u_atoms, side="right")
        out_s[first:, col] = np.cumsum(tab.logm_np[idx])[walk_at]
        idx_l = idx.tolist()
        y_l = _immigration_counts(tab, idx, u_imm).tolist()

        if not couple:
            out_logz[first:, col] = _population(1, gen0, idx_l, g1_l, y_l, tab, threshold, rec)
            continue

        rekey_generator(gen1, master_seed, sid, substream=1)
        g2_l = gen1.standard_normal(n).tolist()
        zbar = _population(1, gen0, idx_l, g1_l, no_immigrants, tab, threshold, rec)
        surplus = _population(0, gen1, idx_l, g2_l, y_l, tab, threshold, rec)
        for i, zbl, dl in zip(range(first, len(record)), zbar, surplus):
            # log(Zbar + D); D = 0 (dl = -inf) leaves zbl unchanged.
            if zbl >= dl:
                lz = zbl + log1p(exp(dl - zbl))
            else:
                lz = dl + log1p(exp(zbl - dl))
            out_logz[i, col] = lz
            out_logzbar[i, col] = zbl

    result = {"log_z": out_logz, "s": out_s}
    if couple:
        result["log_zbar"] = out_logzbar
    return result


def _walk_chunk(
    start_sid: int,
    count: int,
    cum: np.ndarray,
    logm: np.ndarray,
    n: int,
    master_seed: int,
    record: tuple[int, ...],
) -> dict[str, np.ndarray]:
    """Environment walk only: consumes just the atom block of the layout."""
    rec = [g for g in record if g > 0]
    first = len(record) - len(rec)
    walk_at = np.array(rec, dtype=np.int64) - 1
    out_s = np.zeros((len(record), count))
    gen0 = _fresh_generator()
    for col in range(count):
        rekey_generator(gen0, master_seed, start_sid + col)
        idx = np.searchsorted(cum, gen0.random(n), side="right")
        out_s[first:, col] = np.cumsum(logm[idx])[walk_at]
    return {"s": out_s}


def _run_chunks(worker, static_args: tuple, replicates: int, stream_offset: int,
                threads: int, keys: list[str]) -> dict[str, np.ndarray]:
    """Partition ``replicates`` into fixed-size chunks, run them inline or on
    a process pool, and assemble columns in stream order.  The partition is
    independent of ``threads``, so assembled arrays are bit-identical for
    any worker count."""
    starts = list(range(0, replicates, _CHUNK))
    chunks = [(stream_offset + s, min(_CHUNK, replicates - s)) for s in starts]

    if threads == 0:
        threads = os.cpu_count() or 1
    results: list[dict[str, np.ndarray]] = [None] * len(chunks)  # type: ignore[list-item]
    if threads <= 1 or len(chunks) == 1:
        for i, (sid, cnt) in enumerate(chunks):
            results[i] = worker(sid, cnt, *static_args)
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, sid, cnt, *static_args) for sid, cnt in chunks]
            for i, f in enumerate(futures):
                results[i] = f.result()

    return {k: np.concatenate([r[k] for r in results], axis=1) for k in keys}


def simulate_path(
    env: EnvironmentModel,
    n: int,
    rng: RngStream,
    couple_no_immigration: bool = False,
    threshold: int = PROMOTION_THRESHOLD,
) -> Trajectory:
    """Simulate one path of length ``n`` and return every generation.

    The path is the one column of :func:`simulate_batch` with one replicate
    at ``stream_offset = rng.stream_id``: a pure function of
    ``(rng.master_seed, rng.stream_id)`` and the remaining arguments, equal
    to that replicate's column in any batch.
    """
    batch = simulate_batch(
        env, n, 1, rng.master_seed, record=range(n + 1),
        couple_no_immigration=couple_no_immigration, threshold=threshold,
        stream_offset=rng.stream_id,
    )
    return Trajectory(
        master_seed=rng.master_seed,
        stream_id=rng.stream_id,
        log_z=batch.log_z[:, 0],
        s=batch.s[:, 0],
        log_w=batch.log_w[:, 0],
        log_zbar=batch.log_zbar[:, 0] if couple_no_immigration else None,
    )


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

    Replicate r draws from stream ``(master_seed, stream_offset + r)``.
    Output is bit-identical for any ``threads`` value (0 = one worker per
    CPU) because the chunk partition and per-replicate streams are fixed.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if replicates <= 0:
        raise ValueError(f"replicates must be positive, got {replicates}")
    if threshold < MIN_PROMOTION_THRESHOLD:
        raise ValueError(
            f"promotion threshold must be at least {MIN_PROMOTION_THRESHOLD}: below it "
            "the Gaussian log step and tail are not guaranteed a positive argument"
        )
    rec = tuple(_record_positions(record if record is not None else (n,), n))
    keys = ["log_z", "s"] + (["log_zbar"] if couple_no_immigration else [])
    out = _run_chunks(
        _simulate_chunk,
        (_EnvTables(env), n, master_seed, rec, couple_no_immigration, threshold),
        replicates,
        stream_offset,
        threads,
        keys,
    )
    return BatchResult(
        master_seed=master_seed,
        stream_offset=stream_offset,
        record=rec,
        log_z=out["log_z"],
        s=out["s"],
        log_w=out["log_z"] - out["s"],
        log_zbar=out.get("log_zbar"),
    )


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

    Uses the same per-replicate streams and atom draw block as
    :func:`simulate_batch`, so determinism guarantees carry over.
    """
    if replicates <= 0:
        raise ValueError(f"replicates must be positive, got {replicates}")
    rec = tuple(_record_positions(record if record is not None else (n,), n))
    out = _run_chunks(
        _walk_chunk,
        (*_walk_tables(env), n, master_seed, rec),
        replicates,
        stream_offset,
        threads,
        ["s"],
    )
    return WalkBatch(
        master_seed=master_seed,
        stream_offset=stream_offset,
        record=rec,
        s=out["s"],
    )
