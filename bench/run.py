"""Benchmark harness for bpire.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The program is used from source: every
child process gets ``src`` on ``PYTHONPATH``.  With ``--trace 0`` the
workload is run closed loop (one client; each op starts after the previous
one has exited) for ``--seconds`` and the end-to-end metrics are reported.
With ``--trace 1``, untraced and traced workload runs alternate for
``--seconds`` and the per-layer metrics of the traced runs are reported with
the tracing overhead.  ``--workload all`` does both for every workload.

Everything the run writes goes under ``.bench_out/`` in the checkout.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report, which also shows quartiles and run counts.  The full
result with the run header is written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Workload  # noqa: E402

SETUP_REPS_BEFORE = 4
SETUP_SAMPLES = 10
IMPORTTIME_REPS = 3
BASELINE_DIGESTS = BENCH / "baseline_digests.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() \
    else None

SETUP_CODE = "import json, sys, bpire.cli; bpire.cli.parse_config(json.load(open(sys.argv[1])))"


class SetupError(Exception):
    """The program cannot be imported from this checkout."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    code: int | None  # None when the timeout killed it
    wall: float
    cpu: float  # user + sys of the child and of the children it waited for
    rss_mb: float  # largest resident set among those processes
    stdout: str
    stderr: str


def run_child(argv: list[str], timeout: float, cap_bytes: int | None = None) -> Proc:
    """Run one child in its own process group and wait for it; on timeout
    kill the whole group.  ``cap_bytes`` sets RLIMIT_AS in the child.

    The child is reaped with ``os.wait4``, so its CPU time and peak RSS are
    its own (pool workers it joined included) and no other child's.  Any
    process it left behind in its group is killed."""
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    streams = OUT / "child"
    streams.mkdir(parents=True, exist_ok=True)
    timed_out = threading.Event()
    with open(streams / "stdout", "w+") as out, open(streams / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=out,
            stderr=err, start_new_session=True, preexec_fn=limit if cap_bytes else None,
        )

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def on_timeout() -> None:
            timed_out.set()
            kill_group()

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        kill_group()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    code = None if timed_out.is_set() else proc.returncode
    return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                stdout, stderr)


# --------------------------------------------------------------------- ops


@dataclass
class OpResult:
    op: str
    outcome: str  # "ok" | "known_defect" | "failed"
    wall: float
    cpu: float
    rss_mb: float
    probe: bool
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    dump: dict | None = None


def _op_argv(op: Op, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(BENCH / "traced.py"), "--spans", str(spans),
                "--entry", op.entry, "--", *op.args]
    if op.entry == "cli":
        return [sys.executable, "-m", "bpire.cli", *op.args]
    return [sys.executable, str(BENCH / "coupled_lib.py"), *op.args]


def _classify(op: Op, proc: Proc) -> tuple[str, list[str]]:
    tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr.strip() else []
    if op.probe:
        # The known defect: immigration_cdf_table never returns, so the capped
        # child either runs out of address space or hits the timeout.
        if proc.code is None or (proc.code == 1 and "MemoryError" in proc.stderr):
            return "known_defect", []
        if proc.code == 2:  # a documented rejection of the law is a fix
            return "ok", []
    if proc.code is None:
        return "failed", [f"{op.name}: timed out"]
    if proc.code != 0:
        return "failed", [f"{op.name}: exit {proc.code}: {tail}"]
    problems = checks.check_outputs(op, proc.stdout)
    return ("failed" if problems else "ok"), problems


def run_op(op: Op, spans: Path | None = None) -> OpResult:
    shutil.rmtree(op.out_dir, ignore_errors=True)
    if op.probe:
        proc = run_child(_op_argv(op, None), workloads.PROBE_TIMEOUT_S,
                         workloads.PROBE_CAP_BYTES)
    else:
        proc = run_child(_op_argv(op, spans), workloads.OP_TIMEOUT_S)
    outcome, problems = _classify(op, proc)
    result = OpResult(op.name, outcome, proc.wall, proc.cpu, proc.rss_mb, op.probe, problems)
    if outcome == "ok" and op.out_dir.is_dir():
        result.digests = checks.digests(op.out_dir)
    if spans is not None and not op.probe and spans.exists():
        result.dump = json.loads(spans.read_text())
    return result


@dataclass
class WorkloadRun:
    wall: float
    ops: list[OpResult]


def run_workload(wl: Workload, traced: bool) -> WorkloadRun:
    """One workload run: every op once, in order.  Its wall time is the sum
    over the ops other than the probe, without the single-worker replays
    that a traced op runs after its work."""
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for op in wl.ops:
        spans = spans_dir / f"{op.name}.json" if traced else None
        if spans is not None and spans.exists():
            spans.unlink()
        results.append(run_op(op, spans))
    wall = sum(r.wall - (r.dump["replay_s"] if r.dump else 0.0)
               for r in results if not r.probe)
    return WorkloadRun(wall, results)


def check_determinism(runs: list[WorkloadRun]) -> None:
    """An op whose CSV bytes differ from its first successful run fails."""
    first: dict[str, dict[str, str]] = {}
    for run in runs:
        for r in run.ops:
            if r.outcome != "ok":
                continue
            if r.op not in first:
                first[r.op] = r.digests
            elif r.digests != first[r.op]:
                r.outcome = "failed"
                r.problems.append(f"{r.op}: CSV bytes differ from the first run of this set")


# ------------------------------------------------------------------ set-up


def setup_sample(wl: Workload) -> float:
    """Wall time of a fresh interpreter that imports the workload's entry
    module and builds its config, and does nothing else."""
    op = wl.ops[0]
    if op.entry == "cli":
        argv = [sys.executable, "-c", SETUP_CODE, op.args[op.args.index("--config") + 1]]
    else:
        argv = [sys.executable, str(BENCH / "coupled_lib.py"), *op.args, "--setup-only"]
    proc = run_child(argv, workloads.OP_TIMEOUT_S)
    if proc.code != 0:
        raise SetupError(f"cannot import the program: {proc.stderr.strip()[-500:]}")
    return proc.wall


def import_times(wl: Workload) -> list[dict[str, float]]:
    module = "bpire.cli" if wl.ops[0].entry == "cli" else "bpire.trajectory"
    return [
        layers.import_times(run_child([sys.executable, "-X", "importtime", "-c",
                                       f"import {module}"], workloads.OP_TIMEOUT_S).stderr)
        for _ in range(IMPORTTIME_REPS)
    ]


# ------------------------------------------------------------------ header


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def run_header(wl: Workload, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": wl.name, "seed": seed, "threads": wl.threads,
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu_model": model,
        "cache_l2": caches.get("L2"), "cache_l3": caches.get("L3"),
    }


# ------------------------------------------------------------- statistics


def summary(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) with the count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "p25": q1, "p75": q3, "n": len(values)}


def summed_over_ops(runs: list[WorkloadRun], attr: str) -> dict:
    """A workload run's ``wall`` or ``cpu``, as the sum over its ops of each
    op's median (and quartiles) across the runs: one slow op in one run
    moves this less than it moves the median of whole-run totals.  The
    probe is left out: its time is spent filling the benchmark's own cap."""
    per_op = [summary([getattr(run.ops[i], attr) for run in runs])
              for i, op in enumerate(runs[0].ops) if not op.probe]
    return {q: sum(s[q] for s in per_op) for q in ("median", "p25", "p75")} | {"n": len(runs)}


def _why(name: str) -> str:
    return next(w["why"] for w in SPEC["workloads"] if w["name"] == name)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _unit(name: str) -> str:
    """Unit of a reported metric that BENCHMARK.json does not list."""
    if name.endswith("_s") or ".op_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".promoted_share." in name:
        return "ratio"
    return "count"


def _outputs_changed(name: str, seed: int, runs: list[WorkloadRun]) -> int | None:
    """CSVs whose bytes differ from the baseline digests for this workload and
    seed; None when no baseline was recorded for them."""
    baseline = json.loads(BASELINE_DIGESTS.read_text()).get(name, {}).get(str(seed)) \
        if BASELINE_DIGESTS.exists() else None
    if baseline is None:
        return None
    current = _digest_table(runs)
    return sum(current.get(k) != v for k, v in baseline.items()) + len(current.keys() - baseline)


def _digest_table(runs: list[WorkloadRun]) -> dict[str, str]:
    """CSV digests of the first run, keyed ``op/file``."""
    return {f"{r.op}/{f}": d for r in runs[0].ops for f, d in r.digests.items()}


def record_digests(name: str, seed: int, runs: list[WorkloadRun]) -> None:
    table = json.loads(BASELINE_DIGESTS.read_text()) if BASELINE_DIGESTS.exists() else {}
    table.setdefault(name, {})[str(seed)] = _digest_table(runs)
    BASELINE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# -------------------------------------------------------------- measuring


def measure(name: str, seed: int, seconds: float, trace: bool,
            record: bool = False) -> tuple[dict, list[str]]:
    """Run one workload for ``seconds``; return (result line, report lines)."""
    if not (SRC / "bpire" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'bpire'}")
    wl = workloads.build(name, seed, OUT / "work" / name)
    setup_sample(wl)  # warm-up: fails early if the program cannot be imported
    header = run_header(wl, seed)
    report = [f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}",
              f"why: {_why(name)}", "header: " + json.dumps(header)]
    full: dict = {"header": header}

    if not trace:
        # Set-up samples are spread over the run: a few before the loop, one
        # after each workload run and the rest up to SETUP_SAMPLES at the
        # end, so slow drift in machine load averages out instead of landing
        # on all of them.
        setup = [setup_sample(wl) for _ in range(SETUP_REPS_BEFORE)]
        runs: list[WorkloadRun] = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(run_workload(wl, traced=False))
            setup.append(setup_sample(wl))
        setup += [setup_sample(wl) for _ in range(SETUP_SAMPLES - len(setup))]
        untraced, traced_runs = runs, []
    else:
        untraced, traced_runs = [], []
        start = time.perf_counter()
        while not traced_runs or time.perf_counter() - start < seconds:
            untraced.append(run_workload(wl, traced=False))
            traced_runs.append(run_workload(wl, traced=True))
        runs = untraced + traced_runs
    check_determinism(runs)

    ops = [r for run in runs for r in run.ops]
    attempted = len(ops)
    failed = sum(r.outcome == "failed" for r in ops)
    ok = sum(r.outcome == "ok" for r in ops)
    known = attempted - ok - failed
    problems = sorted({p for r in ops for p in r.problems})
    changed = _outputs_changed(name, seed, runs)
    if record:
        record_digests(name, seed, runs)

    stats: dict[str, dict] = {}
    if not trace:
        rg = wl.replicate_gens
        stats["wall_s"] = summed_over_ops(runs, "wall")
        stats["throughput_rgps"] = {
            "median": rg / stats["wall_s"]["median"], "p25": rg / stats["wall_s"]["p75"],
            "p75": rg / stats["wall_s"]["p25"], "n": len(runs)}
        stats["cpu_s"] = summed_over_ops(runs, "cpu")
        stats["setup_s"] = summary(setup)
        for i, op in enumerate(wl.ops):
            stats[f"op.{op.name}.wall_s"] = summary([run.ops[i].wall for run in runs])
        stats["peak_rss_mb"] = summary(
            [max(r.rss_mb for r in run.ops if not r.probe) for run in runs])
        probes = [r for run in runs for r in run.ops if r.probe]
        if probes:  # report only: the probe stops at the benchmark's cap
            stats["probe.peak_rss_mb"] = summary([r.rss_mb for r in probes])
            stats["probe.cpu_s"] = summary([r.cpu for r in probes])
        stats["ok_share"] = summary([ok / attempted])
        section = "end_to_end"
    else:
        per_run = [layers.span_metrics([r.dump for r in run.ops if r.dump])
                   for run in traced_runs]
        imports = import_times(wl)
        stats = {k: summary([m[k] for m in imports]) for k in imports[0]}
        names = sorted({k for m in per_run for k in m})
        stats.update({k: summary([m.get(k, 0.0) for m in per_run]) for k in names})
        stats["tracing.overhead_s"] = summary(
            [t.wall - u.wall for t, u in zip(traced_runs, untraced)])
        section = "per_layer"

    units = _units(section)
    for key, s in stats.items():
        unit = units.get(key) or _unit(key)
        report.append(f"  {key:<44} {s['median']:>14.6g} {unit:<6} "
                      f"(p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, n={s['n']})")
    report.append(f"ops: attempted {attempted}, ok {ok}, known defect {known}, failed {failed}"
                  f"  (failed_share {failed / attempted:.4g}, "
                  f"known_defect_share {known / attempted:.4g})")
    report.append("outputs_changed vs baseline digests: "
                  + ("no baseline for this seed" if changed is None else str(changed)))
    report.extend(f"PROBLEM {p}" for p in problems)

    metrics = {key: {"value": stats[key]["median"], "unit": unit}
               for key, unit in units.items() if key in stats}
    if len(metrics) != len(units):
        missing = sorted(units.keys() - metrics.keys())
        raise SetupError(f"metrics not measured: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full.update(result=result, stats=stats, problems=problems, outputs_changed=changed,
                ops={"ok": ok, "known_defect": known, "failed": failed},
                digests=_digest_table(runs))
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's CSV digests as the baseline for its seed")
    args = parser.parse_args()
    if not (0 <= args.seed < workloads.MAX_SEED):
        parser.error("--seed must lie in [0, 2**63)")
    if SPEC is None:
        print("error: BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.record_digests and not args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, each in a fresh process of this script."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.record_digests and not trace:
                argv.append("--record-digests")
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
