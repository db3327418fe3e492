"""Path simulation: reproducibility contracts, martingale structure,
coupling, regime promotion consistency."""

import math
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
# generation: the chunk keyed (master_seed, stream_offset).


def test_path_generation_zero(env_a):
    path = simulate_batch(env_a, 0, 1, master_seed=1, record=range(1))
    assert path.record == (0,)
    for values in (path.log_z, path.s, path.log_w):
        np.testing.assert_array_equal(values, [[0.0]])


def test_path_is_pure_function_of_key(env_a):
    a = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13), stream_offset=4)
    b = simulate_batch(env_a, 12, 1, master_seed=9, record=range(13), stream_offset=4)
    np.testing.assert_array_equal(a.log_z, b.log_z)
    np.testing.assert_array_equal(a.s, b.s)


def test_log_w_identity(env_a):
    path = simulate_batch(env_a, 20, 1, master_seed=2, record=range(21), stream_offset=7)
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
    # chunks, column r of a batch is the chunk keyed r, i.e. the path of
    # the one-replicate batch at offset r.
    monkeypatch.setattr(trajectory, "_CHUNK", 1)
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    for r in range(5):
        path = simulate_batch(env_a, 10, 1, master_seed=31, record=range(11), stream_offset=r)
        assert batch.log_z_at(3)[r] == path.log_z_at(3)[0]
        assert batch.log_z_at(10)[r] == path.log_z_at(10)[0]
        assert batch.s_at(10)[r] == path.s_at(10)[0]


def test_batch_columns_do_not_depend_on_recorded_generations(env_a):
    batch = simulate_batch(env_a, 10, 5, master_seed=31, record=(3, 10))
    full = simulate_batch(env_a, 10, 5, master_seed=31, record=range(11))
    for g in (3, 10):
        np.testing.assert_array_equal(batch.log_z_at(g), full.log_z_at(g))
        np.testing.assert_array_equal(batch.s_at(g), full.s_at(g))


def test_batch_thread_count_does_not_change_bytes(monkeypatch, env_a):
    # chunks of 100: 400 replicates are four chunks, and 350 end on a
    # ragged one; threads=3 runs them on a pool whose tasks carry only a
    # chunk's key and size
    tasks = []

    class CountingPool(trajectory.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", CountingPool)
    for replicates, sizes in ((400, (100, 100, 100, 100)), (350, (100, 100, 100, 50))):
        for run, names in (
            (lambda **kw: simulate_batch(env_a, 12, replicates, 3, record=(6, 12), **kw),
             ("log_z", "s", "log_w")),
            (lambda **kw: simulate_batch(env_a, 12, replicates, 3, record=(6, 12),
                                         couple_no_immigration=True, **kw),
             ("log_z", "s", "log_w", "log_zbar")),
            (lambda **kw: simulate_walk_batch(env_a, 12, replicates, 3, record=(6, 12), **kw),
             ("s",)),
        ):
            tasks.clear()
            inline = run(threads=1)
            assert tasks == []
            pooled = run(threads=3)
            assert tasks == [(100 * i, size) for i, size in enumerate(sizes)]
            for name in names:
                assert getattr(pooled, name).shape == (2, replicates)
                np.testing.assert_array_equal(getattr(inline, name), getattr(pooled, name))


def test_batch_holds_each_row_once(monkeypatch, env_a):
    # Inline chunks fill the batch arrays in place.  A batch of four
    # chunks peaks above a batch of one by about the three chunks' share of
    # the output (3/4 of its bytes); a list of chunk results joined by a
    # copy, or a stored log W, would take it above the output's size.
    monkeypatch.setattr(trajectory, "_CHUNK", 1024)

    def traced_peak(replicates, couple):
        tracemalloc.start()
        try:
            batch = simulate_batch(env_a, 64, replicates, 5, record=(16, 32, 64),
                                   couple_no_immigration=couple)
            return tracemalloc.get_traced_memory()[1], batch
        finally:
            tracemalloc.stop()

    for couple in (False, True):
        traced_peak(1024, couple)  # warm up
        one, _ = traced_peak(1024, couple)
        four, batch = traced_peak(4096, couple)
        arrays = [batch.log_z, batch.s] + ([batch.log_zbar] if couple else [])
        assert all(a.shape == (3, 4096) for a in arrays)
        assert four - one < sum(a.nbytes for a in arrays)


def test_pool_workers_capped_at_chunk_count(monkeypatch, env_a):
    # A pool may start every worker at its first task, so its size is
    # capped at the number of chunks.  The stub runs tasks inline: no
    # process is started, whatever the thread count asked for.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, /, *args):
            result = fn(*args)
            return type("Done", (), {"result": lambda self: result})()

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(trajectory, "_pool_job", ())
    inline = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=1)
    assert sizes == []
    pooled = simulate_batch(env_a, 12, 300, 3, record=(6, 12), threads=10**6)
    assert sizes == [3]
    assert pooled.log_z.tobytes() == inline.log_z.tobytes()
    assert pooled.s.tobytes() == inline.s.tobytes()


@pytest.fixture
def recording_pool(monkeypatch):
    """Bind a recording pool to ``trajectory.ProcessPoolExecutor`` at a
    chunk size of 100 and return its events: ``("submit", key)`` as each
    chunk is submitted and ``("take", key)`` as its result is taken, when
    the task runs.  No process is started."""
    events = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, /, *args):
            events.append(("submit", args[0]))
            return type("Lazy", (), {"result": lambda _: events.append(("take", args[0]))
                                     or fn(*args)})()

    monkeypatch.setattr(trajectory, "_CHUNK", 100)
    monkeypatch.setattr(trajectory, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(trajectory, "_pool_job", ())
    return events


def test_pool_keeps_two_tasks_per_worker_in_flight(recording_pool, env_a):
    # Eleven chunks (the last ragged) on three workers: at most six are
    # submitted and not yet taken at any time, results are taken in stream
    # order, and the bytes are those of the inline batch.
    events = recording_pool
    for run in (lambda **kw: simulate_batch(env_a, 12, 1050, 3, record=(6, 12), **kw),
                lambda **kw: simulate_walk_batch(env_a, 12, 1050, 3, record=(6, 12), **kw)):
        inline = run(threads=1)
        events.clear()
        pooled = run(threads=3)
        keys = [100 * i for i in range(11)]
        assert [k for e, k in events if e == "submit"] == keys
        assert [k for e, k in events if e == "take"] == keys
        in_flight = np.cumsum([1 if e == "submit" else -1 for e, _ in events])
        assert in_flight.max() == 6 and in_flight[-1] == 0
        assert pooled.s.tobytes() == inline.s.tobytes()
        if isinstance(pooled, trajectory.BatchResult):
            assert pooled.log_z.tobytes() == inline.log_z.tobytes()


def test_auto_threads_count_the_cpus_this_process_may_run_on(monkeypatch, recording_pool, env_a):
    # threads = 0 on a host of 64 CPUs: pinned to one of them, the batch
    # runs inline with no pool; allowed two, it runs on a pool of two, with
    # at most four tasks in flight.  The bytes are those of threads = 1.
    events = recording_pool
    monkeypatch.setattr(trajectory.os, "cpu_count", lambda: 64)
    inline = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=1)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=0)
    assert events == []
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1})
    two_cpus = simulate_batch(env_a, 12, 1050, 3, record=(6, 12), threads=0)
    assert np.cumsum([1 if e == "submit" else -1 for e, _ in events]).max() == 4
    for batch in (one_cpu, two_cpus):
        assert batch.log_z.tobytes() == inline.log_z.tobytes()


def test_batch_stream_offset_shifts_columns(monkeypatch, env_a):
    # chunks of 10: the base batch's chunks are keyed 0, 10 and 20, so a
    # batch at offset 20 (or 10) replays its last chunk (or last two)
    monkeypatch.setattr(trajectory, "_CHUNK", 10)
    base = simulate_batch(env_a, 6, 30, master_seed=41, record=(6,))
    for offset in (10, 20):
        shifted = simulate_batch(
            env_a, 6, 30 - offset, master_seed=41, record=(6,), stream_offset=offset
        )
        np.testing.assert_array_equal(base.log_z_at(6)[offset:], shifted.log_z_at(6))


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
    separate = [
        simulate_batch(env_a, 3, 4, master_seed=2, couple_no_immigration=True, stream_offset=c)
        for c in (0, 4, 8)
    ]
    calls = []
    build = trajectory.immigration_cdf_table

    def counting(law):
        calls.append(law)
        return build(law)

    monkeypatch.setattr(trajectory, "immigration_cdf_table", counting)
    monkeypatch.setattr(trajectory, "_CHUNK", 4)
    batch = simulate_batch(env_a, 3, 12, master_seed=2, couple_no_immigration=True)
    assert calls == [PoissonImmigration(nu=1.0)]  # one table per distinct law
    # three chunks of 4 replicates give the bytes of three one-chunk
    # batches at offsets 0, 4 and 8
    np.testing.assert_array_equal(batch.log_z, np.hstack([b.log_z for b in separate]))
    np.testing.assert_array_equal(batch.log_zbar, np.hstack([b.log_zbar for b in separate]))
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
