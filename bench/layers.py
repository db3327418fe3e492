"""Per-layer metrics: import times from ``python -X importtime`` and layer
timings and counts from the spans that ``traced.py`` records.

Layer names are the ``bpire`` module names.  A span's self time is its
duration minus the durations of its direct children; a layer's self time is
the sum over its spans, except ``cli.self_s``, which is the self time of
``run_experiment`` alone (dispatch, CSV writing, the manifest).
"Single-worker executions" are the ``simulate_batch`` and
``simulate_walk_batch`` calls whose chunks ran in the traced process: calls
at threads = 1, or the replay of a pooled call.
Per-chunk quantities (chunks, table builds, time per replicate-generation)
come only from those, because pool workers are opaque from outside.
"""

from __future__ import annotations

import math
from collections import defaultdict

ESTIMATORS = ("clt_rate_experiment", "walk_oracle_rate", "estimate_elogw", "increment_decay",
              "berry_esseen_sup", "laplace_decay", "moment_stability")

#: Reported on every workload, as 0 where the workload never reaches them.
ALWAYS = (
    "cli.parse_config_s", "cli.run_experiment_s", "cli.self_s", "cli.bytes_written",
    *(f"mc_verify.{name}_s" for name in ESTIMATORS),
    "mc_verify.self_s", "mc_verify.empirical_cdf_s", "mc_verify.empirical_cdf_calls",
    "mc_verify.samples_sorted",
    "trajectory.simulate_batch_s", "trajectory.simulate_walk_batch_s", "trajectory.self_s",
    "trajectory.replicate_gens", "trajectory.chunks", "trajectory.pool_starts",
    "trajectory.pool_overhead_s",
    "sampler.immigration_cdf_table_s", "sampler.table_builds",
    "sampler.immigration_table_entries",
    "env_model.validate_s", "env_model.validate_calls",
    "analytics.hypothesis_report_s", "analytics.log_mean_moments_calls",
)


def import_times(stderr: str) -> dict[str, float]:
    """Sum the ``self`` import time (seconds) of numpy, scipy and bpire
    modules from ``-X importtime`` output."""
    totals = {"numpy": 0.0, "scipy": 0.0, "bpire": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in totals:
            totals[package] += int(self_us) * 1e-6
    return {
        "setup.import_numpy_s": totals["numpy"],
        "setup.import_scipy_s": totals["scipy"],
        "setup.import_bpire_self_s": totals["bpire"],
    }


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def span_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (one dump per op)."""
    m: dict[str, float] = defaultdict(float, dict.fromkeys(ALWAYS, 0.0))
    promoted: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for dump in dumps:
        spans = dump["spans"]
        children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        m["cli.bytes_written"] += dump["bytes_written"]
        m["trajectory.pool_starts"] += dump["pool_starts"]

        for s in spans:
            layer, fname = s["name"].split(".", 1)
            dur = _dur(s)
            self_s = dur - sum(_dur(c) for c in children[s["id"]])
            if not s["replay"]:
                if layer != "cli":
                    m[f"{layer}.self_s"] += self_s
                if s["name"] == "cli.main":
                    kinds = [c["attrs"]["kind"] for c in children[s["id"]]
                             if c["name"] == "cli.run_experiment"]
                    if kinds:
                        m[f"cli.op_s.{kinds[0]}"] += dur
                elif s["name"] == "cli.run_experiment":
                    m["cli.run_experiment_s"] += dur
                    m["cli.self_s"] += self_s  # dispatch, CSV writing, manifest
                elif s["name"] == "cli.parse_config":
                    m["cli.parse_config_s"] += dur
                elif layer == "mc_verify":
                    m[f"{s['name']}_s"] += dur
                    if fname == "empirical_cdf":
                        m["mc_verify.empirical_cdf_calls"] += 1
                        m["mc_verify.samples_sorted"] += s["attrs"]["samples"]
                elif s["name"] == "env_model.validate":
                    m["env_model.validate_s"] += dur
                    m["env_model.validate_calls"] += 1
                elif s["name"] == "analytics.hypothesis_report":
                    m["analytics.hypothesis_report_s"] += dur
                elif s["name"] == "analytics.log_mean_moments":
                    m["analytics.log_mean_moments_calls"] += 1
            if fname not in ("simulate_batch", "simulate_walk_batch"):
                continue
            a = s["attrs"]
            tables = [c for c in children[s["id"]] if c["name"] == "sampler.immigration_cdf_table"]
            if not s["replay"]:
                m[f"{s['name']}_s"] += dur
                if fname == "simulate_batch":
                    m["trajectory.replicate_gens"] += a["replicate_gens"]
                    for gen, share in a["promoted_share"].items():
                        promoted[gen][0] += share * a["replicates"]
                        promoted[gen][1] += a["replicates"]
            if not tables:  # chunks ran on a pool; its replay carries them
                continue
            chunks = len(tables) // a["atoms"]
            m["trajectory.chunks"] += chunks
            m["sampler.immigration_cdf_table_s"] += sum(_dur(t) for t in tables)
            m["sampler.table_builds"] += len(tables)
            m["sampler.immigration_table_entries"] += sum(t["attrs"]["entries"] for t in tables)
            if fname == "simulate_batch":
                m["_single_worker_batch_s"] += dur
                m["_single_worker_replicate_gens"] += a["replicate_gens"]
            if s["replay"]:
                pooled = spans[a["replay_of"]]
                per_worker = math.ceil(chunks / pooled["attrs"]["threads"])
                m["trajectory.pool_overhead_s"] += _dur(pooled) - dur / chunks * per_worker

    rg = m.pop("_single_worker_replicate_gens", 0.0)
    batch_s = m.pop("_single_worker_batch_s", 0.0)
    m["trajectory.us_per_replicate_gen"] = batch_s / rg * 1e6 if rg else 0.0
    for gen, (weighted, total) in sorted(promoted.items(), key=lambda kv: int(kv[0])):
        m[f"trajectory.promoted_share.n{gen}"] = weighted / total
    return dict(m)
