"""Path simulation: reproducibility contracts, martingale structure,
coupling, regime promotion consistency."""

import math
import mmap
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import bpire.trajectory as trajectory
from bpire import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    simulate_batch,
    simulate_walk_batch,
)
from bpire.env_model import GEOMETRIC_S_MIN
from bpire.sampler import immigration_cdf_table
from conftest import make_env_a, make_mixed_env, make_skewed_env, without_immigration


# A single path is column 0 of a one-replicate batch that records every
# generation: the chunk keyed (master_seed, 0).


def test_path_generation_zero(env_a):
    path = simulate_batch(env_a, 0, 1, master_seed=1, record=range(1))
    assert path.record == (0,)
    for values in (path.log_z, path.s, path.log_w):
        np.testing.assert_array_equal(values, [[0.0]])


def test_path_is_pure_function_of_key(env_a):
    a = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13))
    b = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13))
    np.testing.assert_array_equal(a.log_z, b.log_z)
    np.testing.assert_array_equal(a.s, b.s)


def test_log_w_identity(env_a):
    path = simulate_batch(env_a, 20, 1, master_seed=2, record=range(21))
    np.testing.assert_array_equal(path.log_w, path.log_z - path.s)


def test_first_generation_mean(env_a):
    # Z_1 = X + Y with E X = .5*2 + .5*3 and E Y = 1, so E Z_1 = 3.5
    batch = simulate_batch(env_a, 1, 20_000, master_seed=5, record=(1,))
    z1 = np.exp(batch.log_z_at(1))
    se = z1.std(ddof=1) / math.sqrt(z1.size)
    assert abs(z1.mean() - 3.5) < 5 * se


def test_normalized_population_is_mean_one_martingale(env_a_pure):
    batch = simulate_batch(
        env_a_pure, 6, 20_000, master_seed=17, record=tuple(range(1, 7))
    )
    for n in range(1, 7):
        w = np.exp(batch.log_w_at(n))
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 5 * se, f"generation {n}"


def test_immigration_lifts_normalized_mean(env_a):
    # with immigration W_n is a submartingale with mean >= 1
    batch = simulate_batch(env_a, 8, 20_000, master_seed=23, record=(8,))
    w = np.exp(batch.log_w_at(8))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert w.mean() > 1.0 + 5 * se


def test_batch_columns_replay_single_paths(monkeypatch, env_a):
    # A replicate is (master_seed, chunk key, column).  With one-column
    # chunks, column r of a batch is the chunk keyed r, i.e. the last
    # column of the (r + 1)-replicate batch.
    monkeypatch.setattr(trajectory, "_CHUNK", 1)
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    for r in range(5):
        path = simulate_batch(env_a, 10, r + 1, master_seed=31, record=range(11))
        assert batch.log_z_at(3)[r] == path.log_z_at(3)[r]
        assert batch.log_z_at(10)[r] == path.log_z_at(10)[r]
        assert batch.s_at(10)[r] == path.s_at(10)[r]


def test_batch_columns_do_not_depend_on_recorded_generations(env_a):
    # at n = 71 the chunk turns quiet before generation 70 and jumps the
    # stretch to it, 19 generations, as one call whether or not 71 is
    # recorded; generation 0 is recorded before any draw
    for n, record, full in ((10, (3, 10), range(11)), (71, (70,), (70, 71)), (1, (0,), (0, 1))):
        batch = simulate_batch(env_a, n, 5, master_seed=31, record=record)
        every = simulate_batch(env_a, n, 5, master_seed=31, record=full)
        for g in record:
            np.testing.assert_array_equal(batch.log_z_at(g), every.log_z_at(g))
            np.testing.assert_array_equal(batch.s_at(g), every.s_at(g))


def _no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_batch_thread_count_does_not_change_bytes(monkeypatch, env_a):
    # chunks of 100: 400 replicates are four chunks, and 350 end on a
    # ragged one; on three CPUs, threads=2 and 3 fork one and two chunk
    # workers
    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    for replicates in (400, 350):
        for run, names in (
            (lambda **kw: simulate_batch(env_a, 12, replicates, 3, record=(6, 12), **kw),
             ("log_z", "s", "log_w")),
            (lambda **kw: simulate_batch(env_a, 12, replicates, 3, record=(6, 12),
                                         couple_no_immigration=True, **kw),
             ("log_z", "s", "log_w", "log_zbar")),
            (lambda **kw: simulate_walk_batch(env_a, 12, replicates, 3, record=(6, 12), **kw),
             ("s",)),
        ):
            inline = run(threads=1)
            for threads in (2, 3):
                forked = run(threads=threads)
                for name in names:
                    assert getattr(forked, name).shape == (2, replicates)
                    np.testing.assert_array_equal(getattr(inline, name), getattr(forked, name))
    assert _no_child_left()


def test_batch_holds_each_row_once(monkeypatch, env_a):
    # Inline or forked, the chunks fill the batch arrays in place: each
    # output is a view of one anonymous mapping of exactly the outputs'
    # bytes, which tracemalloc does not see.  So from one chunk to four the
    # traced peak grows by less than one output's bytes: a list of chunk
    # results joined by a copy, or a stored log W, would take it above.
    monkeypatch.setattr(trajectory, "_CHUNK", 1024)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)

    def traced_peak(replicates, couple, threads):
        tracemalloc.start()
        try:
            batch = simulate_batch(env_a, 64, replicates, 5, record=(16, 32, 64),
                                   couple_no_immigration=couple, threads=threads)
            return tracemalloc.get_traced_memory()[1], batch
        finally:
            tracemalloc.stop()

    for couple in (False, True):
        for threads in (1, 3):
            traced_peak(1024, couple, threads)  # warm up
            one, _ = traced_peak(1024, couple, threads)
            four, batch = traced_peak(4096, couple, threads)
            arrays = [batch.log_z, batch.s] + ([batch.log_zbar] if couple else [])
            assert all(a.shape == (3, 4096) for a in arrays)
            mapping = arrays[0].base.base.obj  # view -> flat array -> memoryview
            assert isinstance(mapping, mmap.mmap)
            assert all(a.base.base.obj is mapping for a in arrays)
            assert len(mapping) == max(1, sum(a.nbytes for a in arrays))
            assert four - one < arrays[0].nbytes
    assert _no_child_left()


def test_chunk_workers_write_the_batch_arrays_in_place(monkeypatch, tmp_path, env_a):
    # Seven chunks of 100 on three workers: the caller runs chunks 0, 3
    # and 6, one child 1 and 4, the other 2 and 5, each in stream order.
    # The children write straight into the batch arrays, which lie in one
    # shared mapping; nothing else carries their columns back.
    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    log = tmp_path / "chunks"
    chunk = trajectory._simulate_chunk

    def logged(key, *args):
        chunk(key, *args)
        with open(log, "a") as f:  # one short append per line: whole lines
            f.write(f"{os.getpid()} {key // 100}\n")

    inline = simulate_batch(env_a, 12, 650, 3, record=(6, 12), couple_no_immigration=True)
    monkeypatch.setattr(trajectory, "_simulate_chunk", logged)
    forked = simulate_batch(env_a, 12, 650, 3, record=(6, 12), couple_no_immigration=True,
                            threads=3)
    assert _no_child_left()
    ran = {}
    for line in log.read_text().splitlines():
        pid, c = map(int, line.split())
        ran.setdefault(pid, []).append(c)
    assert ran.pop(os.getpid()) == [0, 3, 6]
    assert sorted(ran.values()) == [[1, 4], [2, 5]]
    arrays = [forked.s, forked.log_z, forked.log_zbar]
    mappings = {id(a.base.base.obj) for a in arrays}  # view -> flat array -> memoryview
    assert len(mappings) == 1 and isinstance(forked.s.base.base.obj, mmap.mmap)
    for a, b in zip(arrays, (inline.s, inline.log_z, inline.log_zbar)):
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def recording_fork(monkeypatch):
    """Chunks of 100, and ``os.fork`` replaced by a recorder that never
    forks; returns the list it appends each call to.  The recorder hands
    back a pid no process has, which ``os.waitpid`` reports as exit status
    1, as a child whose share did not run would leave.  So the caller runs
    each such share itself, and a batch that forks returns the bytes of
    the inline batch."""
    calls = []
    fake = 2**30  # above any pid_max
    waitpid = os.waitpid

    def fork():
        calls.append(len(calls))
        return fake + len(calls)

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory.os, "fork", fork)
    monkeypatch.setattr(trajectory.os, "waitpid",
                        lambda pid, options: (pid, 1 << 8) if pid > fake else waitpid(pid, options))
    return calls


def test_workers_capped_at_cpus_and_chunks(monkeypatch, recording_fork, env_a):
    # Workers are min(threads, CPUs, chunks), the caller among them: on
    # 64 CPUs a million threads over three chunks fork two children, and
    # on two CPUs one.  No process is started, so the caller runs every
    # share.
    calls = recording_fork
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    inline = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=1)
    assert calls == []
    forked = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=10**6)
    assert calls == [0, 1]
    assert forked.log_z.tobytes() == inline.log_z.tobytes()
    calls.clear()
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1})
    forked = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=10**6)
    assert calls == [0]
    assert forked.log_z.tobytes() == inline.log_z.tobytes()
    calls.clear()
    # one chunk forks nothing, and without os.fork a batch runs inline
    one = simulate_batch(env_a, 12, 100, 3, record=(6, 12), threads=10**6)
    monkeypatch.delattr(trajectory.os, "fork")
    unforked = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=10**6)
    assert calls == []
    assert one.log_z.tobytes() == inline.log_z[:, :100].tobytes()
    assert unforked.log_z.tobytes() == inline.log_z.tobytes()


def test_auto_threads_count_the_cpus_this_process_may_run_on(monkeypatch, recording_fork,
                                                             env_a):
    # threads = 0 on a host of 64 CPUs: pinned to one of them, the batch
    # runs inline with the bytes of threads = 1; allowed two, it forks one
    # worker, whose share the caller runs.
    calls = recording_fork
    monkeypatch.setattr(trajectory.os, "cpu_count", lambda: 64)
    inline = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=1)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=0)
    assert calls == []
    assert one_cpu.log_z.tobytes() == inline.log_z.tobytes()
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1})
    two_cpus = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=0)
    assert calls == [0]
    assert two_cpus.log_z.tobytes() == inline.log_z.tobytes()


def test_auto_threads_fall_back_to_the_cpu_count(monkeypatch, recording_fork, env_a):
    # threads = 0 where the OS reports no affinity mask: os.cpu_count()
    # CPUs, or one when it does not know.  Four chunks on one worker fork
    # nothing; on three CPUs they fork two workers, whose shares the caller
    # runs.
    calls = recording_fork
    inline = simulate_batch(env_a, 12, 350, 3, record=(6, 12), threads=1)
    monkeypatch.delattr(trajectory.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(trajectory.os, "cpu_count", lambda: None)
    unknown = simulate_batch(env_a, 12, 350, 3, record=(6, 12), threads=0)
    assert calls == []
    monkeypatch.setattr(trajectory.os, "cpu_count", lambda: 3)
    three = simulate_batch(env_a, 12, 350, 3, record=(6, 12), threads=0)
    assert calls == [0, 1]
    for batch in (unknown, three):
        assert batch.log_z.tobytes() == inline.log_z.tobytes()
        assert batch.s.tobytes() == inline.s.tobytes()


def test_forked_batch_of_no_recorded_generation_is_empty(env_a):
    # an empty record still has one column per replicate, and its shared
    # arrays hold no byte
    batch = simulate_batch(env_a, 5, 20_000, 1, record=(), threads=2)
    assert batch.log_z.shape == batch.s.shape == (0, 20_000)
    assert _no_child_left()


def _failing(monkeypatch, fail) -> None:
    """Chunks of 100 on two workers, where chunk c calls ``fail(c)``
    before it runs."""
    chunk = trajectory._simulate_chunk

    def failing(key, *args):
        fail(key // 100)
        chunk(key, *args)

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_simulate_chunk", failing)


def test_chunk_error_keeps_its_type_and_the_earliest_chunk_wins(monkeypatch, env_a):
    # the child runs chunks 1 and 3, the caller 0 and 2: whichever worker
    # fails first in time, the error of the earliest failing chunk is
    # raised, with its own type and message
    def fail(c):
        if c >= first:
            raise (ZeroDivisionError if c % 2 else KeyError)(f"chunk {c}")

    _failing(monkeypatch, fail)
    for first, error in ((1, ZeroDivisionError), (2, KeyError)):
        with pytest.raises(error) as info:
            simulate_batch(env_a, 12, 400, 3, record=(6, 12), threads=2)
        assert info.value.args == (f"chunk {first}",)
        assert _no_child_left()


class _TwoArgumentError(Exception):
    """An error whose ``__init__`` takes two arguments but whose ``args``
    hold one, so ``pickle`` cannot rebuild it from its ``args``."""

    def __init__(self, chunk, why):
        super().__init__(f"chunk {chunk}: {why}")


def _error_holding_a_lambda(chunk):
    """An error with an attribute ``pickle`` cannot serialize."""
    error = ValueError(f"chunk {chunk}")
    error.hook = lambda: chunk
    return error


@pytest.mark.parametrize("make", [lambda c: _TwoArgumentError(c, "fails"), _error_holding_a_lambda],
                         ids=["two-argument-init", "holds-a-lambda"])
def test_chunk_error_that_pickle_cannot_carry_raises_as_itself(monkeypatch, env_a, make):
    # chunk 1 is the child's at two threads: its error is raised with its
    # own type and args, as at one thread
    def fail(c):
        if c == 1:
            raise make(c)

    _failing(monkeypatch, fail)
    errors = []
    for threads in (1, 2):
        with pytest.raises(Exception) as info:
            simulate_batch(env_a, 12, 400, 3, record=(6, 12), threads=threads)
        errors.append((type(info.value), info.value.args))
        assert _no_child_left()
    assert errors == [(type(make(1)), make(1).args)] * 2


def test_offspring_overflow_raises_the_same_error_at_any_thread_count(monkeypatch):
    # the first atom's mean total of two parents is beyond the float range
    a, b = make_env_a().atoms
    huge = EnvironmentModel(atoms=(
        EnvAtom(offspring=ShiftedPoisson(lam=1e308), immigration=a.immigration, prob=a.prob), b))
    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    errors = []
    for threads in (1, 2):
        with pytest.raises(ValueError) as info:
            simulate_batch(huge, 4, 60, 0, threads=threads)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(ValueError, "an offspring total overflows a double")] * 2
    assert _no_child_left()


def test_outputs_too_large_to_map_fail_alike_at_any_thread_count(monkeypatch, env_a):
    # 2**63 replicates hold more output bytes than an address space: the
    # mapping is refused before anything is allocated or forked, with the
    # same error at one thread and at two on two CPUs
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    errors = []
    for threads in (1, 2):
        with pytest.raises(Exception) as info:
            simulate_batch(env_a, 1, 2**63, 1, threads=threads)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert _no_child_left()


def test_chunk_worker_killed_by_a_signal_fails_the_batch(monkeypatch, env_a):
    caller = os.getpid()

    def fail(c):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing(monkeypatch, fail)
    with pytest.raises(ChildProcessError, match=f"chunk worker 1 was killed by signal "
                                                f"{int(signal.SIGKILL)}"):
        simulate_batch(env_a, 12, 400, 3, record=(6, 12), threads=2)
    assert _no_child_left()


def test_interrupt_in_the_callers_share_kills_and_reaps_the_children(monkeypatch, env_a):
    # the child would sleep for a minute in its first chunk; the caller's
    # interrupt in chunk 2 kills it at once
    caller = os.getpid()

    def fail(c):
        if os.getpid() != caller:
            time.sleep(60)
        elif c == 2:
            raise KeyboardInterrupt

    _failing(monkeypatch, fail)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        simulate_batch(env_a, 12, 400, 3, record=(6, 12), threads=2)
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_batch_of_whole_chunks_is_a_prefix_of_a_longer_batch(monkeypatch, env_a):
    # chunks of 10: the base batch's chunks are keyed 0, 10 and 20, so a
    # batch of 10 (or 20) replicates replays its first chunk (or first two)
    monkeypatch.setattr(trajectory, "_CHUNK", 10)
    base = simulate_batch(env_a, 6, 30, master_seed=41, record=(6,))
    for replicates in (10, 20):
        prefix = simulate_batch(env_a, 6, replicates, master_seed=41, record=(6,))
        np.testing.assert_array_equal(base.log_z_at(6)[:replicates], prefix.log_z_at(6))


def test_different_seeds_same_distribution(env_a):
    a = simulate_batch(env_a, 10, 4000, master_seed=100, record=(10,))
    b = simulate_batch(env_a, 10, 4000, master_seed=200, record=(10,))
    assert not np.array_equal(a.log_z_at(10), b.log_z_at(10))
    _, pvalue = stats.ks_2samp(a.log_z_at(10), b.log_z_at(10))
    assert pvalue > 1e-4


def test_coupled_batch_dominates_no_immigration_shadow(env_a):
    batch = simulate_batch(
        env_a,
        15,
        2000,
        master_seed=7,
        record=(1, 5, 15),
        couple_no_immigration=True,
    )
    for g in (1, 5, 15):
        assert np.all(batch.log_zbar_at(g) <= batch.log_z_at(g))
    # immigrants arrive with positive probability by generation 5
    assert np.mean(batch.log_zbar_at(5) < batch.log_z_at(5)) > 0.5


def test_coupled_shadow_replays_pure_run_bitwise(env_a, env_a_pure):
    coupled = simulate_batch(
        env_a, 12, 500, master_seed=19, record=(12,), couple_no_immigration=True
    )
    pure = simulate_batch(env_a_pure, 12, 500, master_seed=19, record=(12,))
    np.testing.assert_array_equal(coupled.log_zbar_at(12), pure.log_z_at(12))
    np.testing.assert_array_equal(coupled.s_at(12), pure.s_at(12))


def test_uncoupled_batch_has_no_shadow(env_a):
    batch = simulate_batch(env_a, 3, 10, master_seed=1, record=(3,))
    assert batch.log_zbar is None
    with pytest.raises(ValueError):
        batch.log_zbar_at(3)


def test_promotion_threshold_consistency():
    # The default threshold 2**20 against 2**40, paired by the seed: both
    # runs draw the same atoms and immigrants, and their other draws part
    # only once a column promotes at 2**20, so E log W_30 differs by the
    # Gaussian step's law error (of order 2**-20) within a paired SE of
    # about 1e-5 from sd(a - b).  Seed and R were fixed before the first run.
    for name in ("a", "b"):
        low, high = (simulate_batch(_QUIET_ENVS[name], 30, 200_000, master_seed=3, record=(30,),
                                    threshold=t).log_w_at(30) for t in (2**20, 2**40))
        diff = low - high
        assert np.abs(diff).max() > 0.0  # some path crossed 2^20 and promoted
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 4 * se, (name, diff.mean() / se, se)


def test_record_argument_validation(env_a):
    for run in (simulate_batch, simulate_walk_batch):
        for record in ((3, 3), (4, 2), (-1,), (6,)):
            with pytest.raises(ValueError, match="record generations"):
                run(env_a, 5, 10, master_seed=0, record=record)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            run(env_a, -1, 10, master_seed=0)
        with pytest.raises(ValueError, match="replicates must be positive"):
            run(env_a, 5, 0, master_seed=0)
        with pytest.raises(ValueError, match="threads must be nonnegative"):
            run(env_a, 5, 10, master_seed=0, threads=-3)
        # counts must be integers: a float or a bool would run as another count
        for bad, named in (
            ({"record": (2.5,)}, "record generation must be an integer"),
            ({"record": (True, 3)}, "record generation must be an integer"),
            ({"n": 2.5}, "n must be an integer"),
            ({"replicates": 10.5}, "replicates must be an integer"),
            ({"threads": 1.5}, "threads must be an integer"),
        ):
            with pytest.raises(ValueError, match=named):
                run(env_a, **{"n": 5, "replicates": 10, "master_seed": 0, **bad})
        assert run(env_a, 5, 10, master_seed=0, threads=0).replicates == 10
        assert run(env_a, np.int64(5), 10, master_seed=0,
                   record=np.array([2, 5]), threads=np.int32(1)).record == (2, 5)
    with pytest.raises(ValueError, match="threshold must be an integer"):
        simulate_batch(env_a, 5, 10, master_seed=0, threshold=2**20 + 0.5)


def _binomial_chi_square_p(j: np.ndarray, n: int, p: float) -> float:
    """p-value of visit counts ``j`` against ``Bin(n, p)``, in cells of
    expected count at least 5 (the tails merged into the end cells)."""
    pmf = stats.binom.pmf(np.arange(n + 1), n, p) * j.size
    lo, hi = int(np.argmax(pmf >= 5.0)), n - int(np.argmax(pmf[::-1] >= 5.0))
    observed = np.bincount(np.clip(j, lo, hi) - lo, minlength=hi - lo + 1)
    expected = pmf[lo:hi + 1].copy()
    expected[0] += pmf[:lo].sum()
    expected[-1] += pmf[hi + 1:].sum()
    return float(stats.chisquare(observed, expected).pvalue)


def _visits(s: np.ndarray, n: int) -> np.ndarray:
    """Visits J to the second atom of environment A from ``S_n = n log 2 +
    J log 1.5``."""
    j = (s - n * math.log(2.0)) / math.log(1.5)
    np.testing.assert_allclose(j, np.rint(j), rtol=0, atol=1e-9)
    return np.rint(j).astype(np.int64)


def test_walk_and_quiet_batch_s_follow_exact_law(monkeypatch, env_a):
    # The walk jumps by binomial visit counts from generation 0, and a
    # batch from the generation at which its chunk turns quiet; both S_160
    # must be n log 2 + J log 1.5 with J ~ Bin(160, 1/2).  A chunk turns
    # quiet once its slowest column reaches the quiet log size (about 45
    # here): no sooner than growth at the larger log mean, log 3, allows,
    # and a few generations after growth at the smaller, log 2, would (the
    # slowest column's log W is below 0); about generation 57 here.
    quiet_log_size = trajectory._EnvTables(env_a).quiet_log_size
    jumps = []
    jump = trajectory._Walk.jump
    monkeypatch.setattr(trajectory._Walk, "jump",
                        lambda self, gen, count, t: jumps.append(t) or jump(self, gen, count, t))
    walk = simulate_walk_batch(env_a, 160, 20_000, master_seed=13, record=(40, 160))
    assert jumps == [40, 120, 40, 120, 40, 120]
    jumps.clear()
    batch = simulate_batch(env_a, 160, 20_000, master_seed=14, record=(160,))
    earliest, latest = quiet_log_size / math.log(3.0), quiet_log_size / math.log(2.0) + 8
    assert len(jumps) == 3 and all(160 - latest < t < 160 - earliest for t in jumps), jumps
    for s, n in ((walk.s_at(40), 40), (walk.s_at(160), 160), (batch.s_at(160), 160)):
        p = _binomial_chi_square_p(_visits(s, n), n, 0.5)
        assert p > 1e-3, (n, p)
    # the walk's increments are independent of its past
    j40, j160 = _visits(walk.s_at(40), 40), _visits(walk.s_at(160), 160)
    assert _binomial_chi_square_p(j160 - j40, 120, 0.5) > 1e-3
    assert abs(np.corrcoef(j40, j160 - j40)[0, 1]) < 4 / math.sqrt(j40.size)


def test_walk_jump_follows_multinomial_law():
    # three atoms with log means log 2, log 3, log 5: S_6 fixes the visit
    # counts, whose law is Multinomial(6; .2, .3, .5)
    env = EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=ShiftedPoisson(lam=lam), immigration=NoImmigration(), prob=p)
        for lam, p in ((1.0, 0.2), (2.0, 0.3), (4.0, 0.5))))
    n, draws = 6, 40_000
    s = simulate_walk_batch(env, n, draws, master_seed=15).s_at(n)
    cells = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    sums = np.array([a * math.log(2) + b * math.log(3) + c * math.log(5) for a, b, c in cells])
    cell = np.abs(s[:, None] - sums[None, :]).argmin(axis=1)
    np.testing.assert_allclose(s, sums[cell], rtol=0, atol=1e-12)
    expected = np.array([stats.multinomial.pmf(c, n, [0.2, 0.3, 0.5]) for c in cells]) * draws
    observed = np.bincount(cell, minlength=len(cells))
    rare = expected < 5.0  # merged into one cell
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_walk_batch_step_law(skewed_env):
    # steps are log 2 w.p. .75 and log 8 w.p. .25
    walk = simulate_walk_batch(skewed_env, 1, 20_000, master_seed=29, record=(1,))
    s1 = walk.s_at(1)
    assert set(np.round(s1, 12)) == {
        round(math.log(2.0), 12),
        round(math.log(8.0), 12),
    }
    frac = np.mean(s1 > math.log(4.0))
    assert abs(frac - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 20_000)


def test_growth_rate_matches_log_mean(env_a):
    # S_n / n concentrates near E log m ~ 0.8959; log W stays O(1)
    batch = simulate_batch(env_a, 50, 2000, master_seed=37, record=(50,))
    rate = batch.log_z_at(50) / 50.0
    assert abs(rate.mean() - 0.8958797346140275) < 0.01
    assert np.abs(batch.log_w_at(50)).max() < 10.0


def test_replicate_count_and_rows(env_a):
    batch = simulate_batch(env_a, 4, 7, master_seed=0, record=(0, 2, 4))
    assert batch.replicates == 7
    assert batch.row(0) == 0 and batch.row(2) == 1 and batch.row(4) == 2
    np.testing.assert_array_equal(batch.log_z_at(0), np.zeros(7))
    np.testing.assert_array_equal(batch.s_at(0), np.zeros(7))


def test_run_batch_keeps_the_rows_of_simulate_batch_and_checks_populations(env_a):
    # the identity reduction keeps every recorded row, drawn as a batch draws it
    batch = simulate_batch(env_a, 4, 7, master_seed=0, record=(2, 4))
    identity = trajectory.Reduction(trajectory._copy_rows, ("s", "log_z"))
    *keys, kept = trajectory.run_batch(env_a, 4, 7, 0, (2, 4), identity)
    assert keys == [0, (2, 4)] and kept.keys() == {"s", "log_z"}
    np.testing.assert_array_equal(kept["s"], batch.s)
    np.testing.assert_array_equal(kept["log_z"], batch.log_z)
    for populations in (-1, 3):
        with pytest.raises(ValueError, match="populations must be 0, 1 or 2"):
            trajectory.run_batch(env_a, 4, 7, 0, (2, 4), identity, populations=populations)


@pytest.mark.parametrize("populations", [0, 1, 2])
def test_chunk_hands_each_recorded_generation_once_in_order(monkeypatch, env_a, populations):
    # Chunks of 16: 40 replicates are two full chunks and a ragged one of 8.
    # Every chunk of env_a turns quiet before generation 80, so it reaches
    # 80 and 100 by jumps; generation 0 is handed on before any step.  Each
    # chunk hands every recorded generation to keep once, in order, with
    # its rows of the populations it has and None for the others.
    monkeypatch.setattr(trajectory, "_CHUNK", 16)
    jumps, calls = [], []
    jump = trajectory._Walk.jump

    def logged(self, gen, count, t):
        jumps.append(t)
        return jump(self, gen, count, t)

    def keep(views, g, *rows):
        calls.append((g, rows[0].size, tuple(row is None for row in rows)))

    monkeypatch.setattr(trajectory._Walk, "jump", logged)
    record = (0, 1, 4, 80, 100)
    trajectory.run_batch(env_a, 100, 40, 3, record, trajectory.Reduction(keep, ()),
                         populations=populations)
    absent = (False,) * (populations + 1) + (True,) * (2 - populations)
    assert calls == [(g, size, absent) for size in (16, 16, 8) for g in range(len(record))]
    assert jumps.count(20) == 3  # the stretch from 80 to 100, one jump per chunk


def test_threshold_below_minimum_is_rejected(env_a):
    with pytest.raises(ValueError, match="at least 1024.*log step"):
        simulate_batch(env_a, 5, 10, master_seed=1, threshold=2**10 - 1)
    simulate_batch(env_a, 5, 10, master_seed=1, threshold=2**10)


def test_threshold_at_maximum_keeps_counts_in_int64():
    # offspring mean 31: counts cross 2**61 by generation 13, many through
    # a Gaussian tail value beyond 2**63, and none may wrap around
    env = EnvironmentModel(atoms=(
        EnvAtom(offspring=ShiftedPoisson(lam=30.0), immigration=PoissonImmigration(nu=2.0),
                prob=1.0),
    ))
    batch = simulate_batch(env, 16, 300, master_seed=3, record=range(17), threshold=2**61)
    assert (np.diff(batch.log_z, axis=0) > 0).all()
    assert np.abs(batch.log_w_at(16)).max() < 1.0
    with pytest.raises(ValueError, match="at most"):
        simulate_batch(env, 16, 10, master_seed=3, threshold=2**61 + 1)


def test_tables_are_built_once_per_batch(monkeypatch, env_a):
    calls = []
    build = trajectory.immigration_cdf_table

    def counting(law):
        calls.append(law)
        return build(law)

    monkeypatch.setattr(trajectory, "immigration_cdf_table", counting)
    monkeypatch.setattr(trajectory, "_CHUNK", 4)
    batch = simulate_batch(env_a, 3, 12, master_seed=2, couple_no_immigration=True)
    assert calls == [PoissonImmigration(nu=1.0)]  # one table per distinct law
    # three chunks of 4 replicates: the batches of 4 and 8 replicates are
    # its first one and two chunks
    for replicates in (4, 8):
        prefix = simulate_batch(env_a, 3, replicates, master_seed=2, couple_no_immigration=True)
        np.testing.assert_array_equal(batch.log_z[:, :replicates], prefix.log_z)
        np.testing.assert_array_equal(batch.log_zbar[:, :replicates], prefix.log_zbar)
    calls.clear()
    simulate_walk_batch(env_a, 3, 12, master_seed=2)
    assert calls == []


_OFFSPRING = st.one_of(
    st.builds(ShiftedPoisson, lam=st.floats(0.05, 30.0)),
    st.builds(ShiftedGeometric, q=st.floats(0.03, 0.97)),
)
_IMMIGRATION = st.one_of(
    st.just(NoImmigration()),
    st.builds(PoissonImmigration, nu=st.floats(0.0, 5.0)),
    st.builds(GeometricImmigration, s=st.floats(0.05, 1.0)),
)


@st.composite
def _environments(draw):
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    return EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=draw(_OFFSPRING), immigration=draw(_IMMIGRATION), prob=w / sum(weights))
        for w in weights
    ))


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(
    env=_environments(),
    n=st.integers(0, 14),
    replicates=st.integers(1, 40),
    couple=st.booleans(),
    threshold=st.integers(10, 40).map(lambda k: 2**k),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_array_step_properties(env, n, replicates, couple, threshold, seed, data):
    # mixed offspring kinds, empty surplus columns (z = 0) and columns that
    # promote at different generations all pass through one array step
    record = data.draw(st.lists(st.integers(0, n), min_size=1, unique=True).map(sorted))
    batch = simulate_batch(env, n, replicates, seed, record=record,
                           couple_no_immigration=couple, threshold=threshold)
    assert np.isfinite(batch.log_z).all() and np.isfinite(batch.s).all()
    assert (batch.log_z >= 0.0).all()  # Z_n >= Z_0 = 1
    # S_g of the walk and of the batch lie between g times the least and
    # the largest log mean
    logm = np.log(env.offspring_means)
    gens = np.array(record, dtype=float)[:, None]
    walk = simulate_walk_batch(env, n, replicates, seed, record=record)
    for s in (walk.s, batch.s):
        assert s.shape == (len(record), replicates)
        assert (s >= gens * logm.min() * (1 - 1e-12)).all()
        assert (s <= gens * logm.max() * (1 + 1e-12)).all()
    if couple:
        assert np.isfinite(batch.log_zbar).all()
        assert (batch.log_zbar <= batch.log_z).all()
        pure = simulate_batch(without_immigration(env), n, replicates, seed, record=record,
                              threshold=threshold)
        np.testing.assert_array_equal(batch.log_zbar, pure.log_z)


def _environment(*atoms) -> EnvironmentModel:
    """Equally likely atoms, each an (offspring, immigration) pair."""
    return EnvironmentModel(atoms=tuple(
        EnvAtom(offspring=x, immigration=y, prob=1.0 / len(atoms)) for x, y in atoms
    ))


# Environments A and B of the benchmark, the golden tests' mixed and pure
# environments, and an atom whose offspring mean rounds to 1.0 (log m = 0).
_QUIET_ENVS = {
    "a": make_env_a(),
    "b": EnvironmentModel(atoms=(
        EnvAtom(offspring=ShiftedGeometric(q=0.4), immigration=GeometricImmigration(s=0.5),
                prob=0.6),
        EnvAtom(offspring=ShiftedPoisson(lam=3.0), immigration=PoissonImmigration(nu=2.0),
                prob=0.4),
    )),
    "mixed": make_mixed_env(),
    "pure": make_skewed_env(),
    "mean-one": _environment((ShiftedPoisson(lam=1e-300), PoissonImmigration(nu=1.0)),
                             (ShiftedPoisson(lam=2.0), PoissonImmigration(nu=1.0))),
}


_log_sizes = trajectory._log_sizes  # the default rule, whatever is rebound below


def _layout_3_log_sizes(logm, sd_over_m, y_max):
    """The log sizes of draw layout 3: the immigrants-only size of
    ``_log_sizes``, and a quiet size from which the log step's noise rounds
    away to the last bit, ``|noise| <= 2**-56 log m`` under every atom."""
    immigrants, _ = _log_sizes(logm, sd_over_m, y_max)
    if immigrants == math.inf:
        return immigrants, immigrants
    exact = 2.0 * math.log(float((trajectory._NORMAL_BOUND * 2.0**56 * sd_over_m / logm).max()))
    return immigrants, max(immigrants, exact)


def _with_log_sizes(sizes, run):
    """What ``run()`` returns with ``_log_sizes`` rebound to ``sizes``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trajectory, "_log_sizes", sizes)
        return run()


# The largest |log W| change the quiet switch may make on any path: the
# normals' terms it drops, ``_NORMAL_BOUND`` times the budget's geometric
# sum of SDs, plus log1p's second-order term.
_BUDGET_BOUND = trajectory._NORMAL_BOUND * trajectory._QUIET_BUDGET * (1 + 2.0**-20)


def _assert_within_budget(layout_3, default, quiet_log_size: float) -> None:
    """Check a batch under layout 3's quiet rule against the default one,
    column by column.  Every row
    agrees bitwise until the default turns a population quiet: rows differ
    only where some population of the column's chunk was quiet one row
    earlier, so ``log Z >= quiet_log_size`` there.  From then on layout 3
    still adds the normals' terms and jumps later, so only ``log W`` can
    agree, within ``_BUDGET_BOUND`` plus an ulp of rounding per
    generation."""
    names = ["log_z", "s"] + (["log_zbar"] if default.log_zbar is not None else [])
    differ = np.zeros(default.s.shape, dtype=bool)
    for name in names:
        differ |= getattr(layout_3, name) != getattr(default, name)
    for col in np.flatnonzero(differ.any(axis=0)):
        first = int(np.argmax(differ[:, col]))
        if first and default.record[first] == default.record[first - 1] + 1:
            assert default.log_z[first - 1, col] >= quiet_log_size
    gens = np.array(default.record, dtype=float)[:, None]
    rounding = (gens + 1) * np.spacing(np.maximum(
        np.maximum(np.abs(default.log_z), np.abs(default.s)),
        np.maximum(np.abs(layout_3.log_z), np.abs(layout_3.s))))
    gap = np.abs(layout_3.log_w - default.log_w)
    assert (gap <= _BUDGET_BOUND + rounding).all(), gap.max()


@pytest.mark.parametrize("name", sorted(_QUIET_ENVS))
def test_quiet_state_keeps_log_w_within_budget(monkeypatch, name):
    # chunks of 20: 48 replicates are two full chunks and a ragged one of 8
    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    env = _QUIET_ENVS[name]
    quiet_log_size = trajectory._EnvTables(env).quiet_log_size
    for couple in (False, True):
        for threshold in (2**10, 2**20, 2**40):
            def run():
                return simulate_batch(env, 320, 48, 5, record=range(321),
                                      couple_no_immigration=couple, threshold=threshold)
            _assert_within_budget(_with_log_sizes(_layout_3_log_sizes, run), run(),
                                  quiet_log_size)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    env=_environments(),
    n=st.integers(100, 250),
    replicates=st.integers(1, 24),
    couple=st.booleans(),
    threshold=st.integers(10, 40).map(lambda k: 2**k),
    seed=st.integers(0, 2**64 - 1),
)
def test_quiet_state_keeps_log_w_within_budget_anywhere(env, n, replicates, couple, threshold,
                                                        seed):
    def run():
        return simulate_batch(env, n, replicates, seed, record=(n // 2, n),
                              couple_no_immigration=couple, threshold=threshold)
    _assert_within_budget(_with_log_sizes(_layout_3_log_sizes, run), run(),
                          trajectory._EnvTables(env).quiet_log_size)


def _quiet_never_and_layout_3(run):
    """What ``run()`` returns with the quiet state and the immigrants-only
    stage off (an infinite normal bound), and with the quiet switch at
    layout 3's size, from which both terms of a log step round away."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trajectory, "_NORMAL_BOUND", math.inf)
        never = run()
    return never, _with_log_sizes(_layout_3_log_sizes, run)


def _layout_3_quiet_log_size(env) -> float:
    return _with_log_sizes(_layout_3_log_sizes, lambda: trajectory._EnvTables(env)).quiet_log_size


def _assert_same_until_the_jump(never, quiet, quiet_log_size: float) -> None:
    """Check a quiet-never batch against one whose quiet switch drops
    nothing but rounding, column by column: every row agrees bitwise until
    the chunk turns quiet, and from then on the quiet batch jumps the walk
    by binomial visit counts, a draw the quiet-never batch does not make,
    so only ``log W`` can agree there.  It does within an ulp per
    generation: both runs add the same log means to ``log Z`` and ``S`` and
    differ by rounding alone.  (A jump of one generation may draw the very
    atoms the uniforms would: numpy inverts a binomial of one trial from
    one uniform.)"""
    names = ["log_z", "s"] + (["log_zbar"] if quiet.log_zbar is not None else [])
    differ = np.zeros(quiet.s.shape, dtype=bool)
    for name in names:
        differ |= getattr(never, name) != getattr(quiet, name)
    shadow = quiet.log_z if quiet.log_zbar is None else quiet.log_zbar
    for col in np.flatnonzero(differ.any(axis=0)):
        first = int(np.argmax(differ[:, col]))
        if first and quiet.record[first] == quiet.record[first - 1] + 1:
            assert shadow[first - 1, col] >= quiet_log_size  # quiet one row earlier
    gens = np.array(quiet.record, dtype=float)[:, None]
    bound = (gens + 1) * np.spacing(np.maximum(np.abs(quiet.log_z), np.abs(quiet.s)))
    assert (np.abs(never.log_w - quiet.log_w) <= bound).all()


@pytest.mark.parametrize("name", sorted(_QUIET_ENVS))
def test_quiet_state_leaves_bytes_unchanged(monkeypatch, name):
    # The quiet machinery (normals stop, the walk jumps) itself changes no
    # byte but rounding: checked at layout 3's quiet size, where the
    # dropped terms round away.  Chunks of 20: 48 replicates are two full
    # chunks and a ragged one of 8.
    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    env = _QUIET_ENVS[name]
    quiet_log_size = _layout_3_quiet_log_size(env)
    for couple in (False, True):
        for threshold in (2**10, 2**20, 2**40):
            never, quiet = _quiet_never_and_layout_3(
                lambda: simulate_batch(env, 320, 48, 5, record=range(321),
                                       couple_no_immigration=couple, threshold=threshold))
            _assert_same_until_the_jump(never, quiet, quiet_log_size)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    env=_environments(),
    n=st.integers(100, 250),
    replicates=st.integers(1, 24),
    couple=st.booleans(),
    threshold=st.integers(10, 40).map(lambda k: 2**k),
    seed=st.integers(0, 2**64 - 1),
)
def test_quiet_state_leaves_bytes_unchanged_anywhere(env, n, replicates, couple, threshold,
                                                     seed):
    never, quiet = _quiet_never_and_layout_3(
        lambda: simulate_batch(env, n, replicates, seed, record=(n // 2, n),
                               couple_no_immigration=couple, threshold=threshold))
    _assert_same_until_the_jump(never, quiet, _layout_3_quiet_log_size(env))


@pytest.mark.parametrize("name", sorted(_QUIET_ENVS))
def test_immigrants_cut_leaves_bytes_unchanged(monkeypatch, name):
    # Immigrant uniforms stop at the immigrants-only size; drawing and
    # adding them up to the quiet size instead changes no byte, under the
    # default quiet rule and under layout 3's, whose quiet size is about
    # twice as large.
    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    env = _QUIET_ENVS[name]
    for quiet_rule in (_log_sizes, _layout_3_log_sizes):
        def late(*args, quiet_rule=quiet_rule):
            quiet = quiet_rule(*args)[1]
            return quiet, quiet
        for couple in (False, True):
            for threshold in (2**10, 2**20):
                def run():
                    return simulate_batch(env, 320, 48, 5, record=range(321),
                                          couple_no_immigration=couple, threshold=threshold)
                cut, drawn = _with_log_sizes(quiet_rule, run), _with_log_sizes(late, run)
                for field in ("log_z", "s", "log_zbar"):
                    a, b = getattr(cut, field), getattr(drawn, field)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()


class _CountingGenerator:
    """A generator that counts its calls of ``random``, ``standard_normal``
    and ``binomial``, by substream and method."""

    def __init__(self, gen, calls, index):
        self._gen, self._calls, self._index = gen, calls, index

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in ("random", "standard_normal", "binomial"):
            return attr

        def counted(*args, **kwargs):
            key = (self._index, name)
            self._calls[key] = self._calls.get(key, 0) + 1
            return attr(*args, **kwargs)
        return counted


def _draw_calls(monkeypatch, *args, **kwargs) -> dict:
    """Per substream and method, the number of block draws a one-chunk
    ``simulate_batch(*args, **kwargs)`` makes."""
    calls = {}
    substream = trajectory.substream
    monkeypatch.setattr(
        trajectory, "substream",
        lambda seed, key, index: _CountingGenerator(substream(seed, key, index), calls, index),
    )
    simulate_batch(*args, **kwargs)
    return calls


def test_quiet_population_stops_drawing(monkeypatch, env_a, skewed_env):
    atoms, jumps = (trajectory._ATOMS, "random"), (trajectory._ATOMS, "binomial")
    immigrants = (trajectory._IMMIGRATION, "random")
    normals = (trajectory._NORMALS, "standard_normal")
    surplus_normals = (trajectory._SURPLUS_NORMALS, "standard_normal")
    tab = trajectory._EnvTables(env_a)
    calls = _draw_calls(monkeypatch, env_a, 256, 64, 3)
    # the walk draws uniforms until the chunk is quiet, then one binomial
    # (two atoms) for the stretch to the one recorded generation; normals
    # start at the first promotion; immigrants round away (log size about
    # 41.7) before the population turns quiet (about 45.2), which no
    # column reaches sooner than growth at log 3 a generation allows
    assert calls[jumps] == 1
    assert tab.immigrants_log_size < tab.quiet_log_size
    assert tab.quiet_log_size / math.log(3.0) < calls[atoms] < 256
    assert calls[immigrants] < calls[atoms]
    assert 0 < calls[normals] < calls[atoms]
    # promotion at the default 2**20 needs log Z >= 13.9, more than 10
    # generations at log 3 give (the first of 32768 columns promotes at
    # generation 12): by generation 10 no normal is drawn at all
    calls = _draw_calls(monkeypatch, env_a, 10, 64, 3)
    assert calls[atoms] == calls[immigrants] == 10
    assert normals not in calls and jumps not in calls
    # no immigrants: the surplus stays empty, never promotes and so never
    # turns quiet, and the chunk never jumps, while the coupled path turns
    # quiet and stops drawing normals
    calls = _draw_calls(monkeypatch, skewed_env, 256, 64, 3, couple_no_immigration=True)
    assert calls[atoms] == 256 and jumps not in calls
    assert 0 < calls[normals] < 256
    assert surplus_normals not in calls and immigrants not in calls


@pytest.mark.parametrize("env", [
    *(_QUIET_ENVS[k] for k in ("a", "b", "mixed", "pure")),
    _environment((ShiftedPoisson(lam=0.5), GeometricImmigration(s=GEOMETRIC_S_MIN)),
                 (ShiftedGeometric(q=0.9), NoImmigration())),
], ids=["a", "b", "mixed", "pure", "geometric-s-min"])
def test_quiet_log_size_meets_the_budget(env):
    tab = trajectory._EnvTables(env)
    size = tab.quiet_log_size
    y_max = max(len(immigration_cdf_table(a.immigration)) for a in env.atoms) - 1
    assert tab.immigrants_log_size <= size < math.inf
    assert size < _layout_3_log_sizes(tab.logm, tab.sd_over_m, y_max)[1]
    assert size + np.log1p(y_max * np.exp(-size)) == size
    # from that size a log step under any atom and any normal adds at
    # least c = min(log m) / 4, and the normals' terms of all the steps
    # left, at sizes size + k c at least, sum to within the budget in SD
    c = tab.logm.min() / 4
    for g in (-trajectory._NORMAL_BOUND, trajectory._NORMAL_BOUND):
        step = tab.logm + np.log1p(g * tab.sd_over_m * np.exp(-0.5 * size))
        assert (step >= c).all()
    k = np.arange(100_000)
    sds = tab.sd_over_m.max() * np.exp(-0.5 * (size + k * c))
    assert sds.sum() <= trajectory._QUIET_BUDGET * (1 + 1e-12)
    # and it is the least such size: the budget is tight unless the
    # immigrants-only size is larger
    if size > tab.immigrants_log_size:
        assert sds.sum() == pytest.approx(trajectory._QUIET_BUDGET, rel=1e-9)


def test_quiet_log_size_is_infinite_when_a_mean_rounds_to_one():
    tab = trajectory._EnvTables(_QUIET_ENVS["mean-one"])
    assert tab.quiet_log_size == math.inf
    assert tab.immigrants_log_size == math.inf


@pytest.mark.parametrize("env", [
    *(_QUIET_ENVS[k] for k in ("a", "b", "mixed", "pure")),
    _environment((ShiftedPoisson(lam=0.5), GeometricImmigration(s=GEOMETRIC_S_MIN)),
                 (ShiftedGeometric(q=0.9), NoImmigration())),
    _environment((ShiftedPoisson(lam=30.0), PoissonImmigration(nu=1.0))),
], ids=["a", "b", "mixed", "pure", "geometric-s-min", "mean-31"])
def test_immigrants_log_size_rounds_immigrants_away_for_good(env):
    tab = trajectory._EnvTables(env)
    size = tab.immigrants_log_size
    assert 1.0 <= size <= tab.quiet_log_size < math.inf
    y_max = max(len(immigration_cdf_table(a.immigration)) for a in env.atoms) - 1
    assert size + np.log1p(y_max * np.exp(-size)) == size
    # a log step from that size, under any atom and any normal, cannot
    # take a column below it (at log m = log 31 a bound of log m / 2 on
    # the noise would let log1p go below -log m)
    for g in (-trajectory._NORMAL_BOUND, trajectory._NORMAL_BOUND):
        after = size + (tab.logm + np.log1p(g * tab.sd_over_m * np.exp(-0.5 * size)))
        assert (after >= size).all()
    # and it is the least such size: one of its bounds is tight
    noise = (trajectory._NORMAL_BOUND * tab.sd_over_m / (np.minimum(tab.logm, 1.0) / 2)).max()
    tight = max(noise * math.exp(-size / 2), y_max * math.exp(-size) / 2.0**-56)
    assert size == 1.0 or tight == pytest.approx(1.0)


def test_module_hook_serves_the_pool_class_alone():
    import concurrent.futures

    assert trajectory.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match=r"module 'bpire\.trajectory' has no attribute 'Pool'"):
        trajectory.Pool
