"""Run one benchmark op in-process with spans around every layer boundary.

    python3 traced.py --spans FILE --entry cli|coupled -- ARGS...

The op is ``bpire.cli.main(ARGS)`` or ``coupled_lib.main(ARGS)``, exactly as
the untraced op runs it.  Its entry module is imported first, so the traced
op imports nothing the untraced one does not.  Then every public function
named in ``TARGETS`` whose module that import loaded is rebound to a wrapper
in *every* ``bpire`` module that holds it: ``from x import y`` copies ``y``
into the importing module, so wrapping only the definition would miss
``bpire.cli.clt_rate_experiment`` and ``bpire.mc_verify.simulate_batch``.
``ProcessPoolExecutor`` is rebound in ``bpire.trajectory`` to count pool
starts.  Nothing under ``src/`` changes.

A span records name, start, end, parent and a few attributes.  Spans stay in
memory and are written to FILE as JSON when the op has finished.

Pool workers are opaque from here, so every ``simulate_batch`` call that ran
its chunks on a pool is called once more after the op with ``threads=1``;
its spans are marked ``replay`` and give the per-chunk costs (table builds,
time per chunk) the pool hides.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

TARGETS = {
    "bpire.env_model": ["validate"],
    "bpire.sampler": ["immigration_cdf_table"],
    "bpire.trajectory": ["simulate_batch", "simulate_walk_batch"],
    "bpire.analytics": ["hypothesis_report", "log_mean_moments"],
    "bpire.mc_verify": [
        "empirical_cdf", "clt_rate_experiment", "walk_oracle_rate", "estimate_elogw",
        "increment_decay", "berry_esseen_sup", "laplace_decay", "moment_stability",
    ],
    "bpire.cli": ["parse_config", "run_experiment"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.pool_starts = 0
        self.replaying = False
        self.calls: dict[int, tuple] = {}  # simulate_batch span id -> (args, kwargs)

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1] if self.stack else None,
                    "replay": self.replaying, "attrs": {}, "start": time.perf_counter()}
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if annotate is not None:
                annotate(self, span, fn, args, kwargs, result)
            return result
        return wrapper


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _annotate_batch(tracer, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    threads = a["threads"] or os.cpu_count() or 1
    span["attrs"].update(
        n=a["n"], replicates=a["replicates"], threads=threads,
        atoms=len(a["env"].atoms), replicate_gens=a["n"] * a["replicates"],
    )
    if hasattr(result, "log_z"):  # simulate_batch, not the walk
        log_t = math.log(a["threshold"])
        span["attrs"]["promoted_share"] = {
            str(g): float((result.log_z_at(g) >= log_t).mean()) for g in result.record}
        tracer.calls[span["id"]] = (args, kwargs)


def _annotate_table(tracer, span, fn, args, kwargs, result):
    span["attrs"]["entries"] = len(result)


def _annotate_cdf(tracer, span, fn, args, kwargs, result):
    span["attrs"]["samples"] = int(result.replicates)


def _annotate_run(tracer, span, fn, args, kwargs, result):
    span["attrs"]["kind"] = args[0].kind


ANNOTATE = {
    "simulate_batch": _annotate_batch,
    "simulate_walk_batch": _annotate_batch,
    "immigration_cdf_table": _annotate_table,
    "empirical_cdf": _annotate_cdf,
    "run_experiment": _annotate_run,
}


def install(tracer: Tracer) -> None:
    """Rebind every target of an already loaded module in every loaded
    ``bpire`` module (and the benchmark's own ``coupled_lib``) that holds the
    same function object."""
    holders = [m for name, m in sys.modules.items()
               if name == "bpire" or name.startswith("bpire.") or name == "coupled_lib"]
    for mod_name, names in TARGETS.items():
        if mod_name not in sys.modules:
            continue
        layer = mod_name.split(".")[1]
        for fname in names:
            orig = getattr(sys.modules[mod_name], fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", orig, ANNOTATE.get(fname))
            for m in holders:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    trajectory = sys.modules["bpire.trajectory"]
    base = trajectory.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.pool_starts += 1
            super().__init__(*args, **kwargs)

    trajectory.ProcessPoolExecutor = CountingPool


def _replay_pooled(tracer: Tracer) -> None:
    """Re-run, single-worker, each simulate_batch call whose chunks ran on a
    pool (no table build was seen in this process under its span)."""
    built_under = {s["parent"] for s in tracer.spans
                   if s["name"] == "sampler.immigration_cdf_table"}
    pooled = [s for s in tracer.spans if s["name"] == "trajectory.simulate_batch"
              and s["id"] not in built_under and not s["replay"]]
    simulate_batch = sys.modules["bpire.trajectory"].simulate_batch
    tracer.replaying = True
    for span in pooled:
        args, kwargs = tracer.calls[span["id"]]
        kwargs = dict(kwargs, threads=1)
        first = len(tracer.spans)
        simulate_batch(*args, **kwargs)
        tracer.spans[first]["attrs"]["replay_of"] = span["id"]
    tracer.replaying = False


def _bytes_written(args: list[str]) -> int:
    """Bytes of every file the CLI left in its output directory."""
    out = Path(args[args.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="run one op with spans")
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--entry", required=True, choices=["cli", "coupled"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    if opts.entry == "cli":
        import bpire.cli
        entry, name = bpire.cli.main, "cli.main"
    else:
        import coupled_lib
        entry, name = coupled_lib.main, "coupled_lib.main"
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(name, entry)(args)
    replay_start = time.perf_counter()
    _replay_pooled(tracer)
    replay_s = time.perf_counter() - replay_start
    opts.spans.write_text(json.dumps({
        "exit": code, "replay_s": replay_s,
        "bytes_written": _bytes_written(args) if opts.entry == "cli" else 0,
        "pool_starts": tracer.pool_starts, "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
