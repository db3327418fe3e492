"""The four benchmark workloads: configs generated from the workload seed.

Every workload is a list of operations ("ops").  An op is one fresh Python
process: either the ``bpire`` CLI on a JSON config, or the library call in
``coupled_lib.py``.  A workload run executes its ops in order, closed loop
(one client, each op starts after the previous one has exited).

The seed becomes the ``master_seed`` of every op, so the same seed gives the
same configs and therefore the same CSV bytes.  ``REFERENCE_SEED`` lies
outside the accepted seed range, so the stored reference means in
``references.json`` never share streams with a workload.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

MAX_SEED = 2**63
REFERENCE_SEED = 2**63 + 7

#: Environment A: offspring means 2 and 3 with probability 1/2 each,
#: Poisson(1) immigration on both atoms (the tests' reference environment).
ENV_A = {
    "atoms": [
        {"offspring": {"kind": "shifted_poisson", "lam": 1.0},
         "immigration": {"kind": "poisson", "nu": 1.0}, "prob": 0.5},
        {"offspring": {"kind": "shifted_poisson", "lam": 2.0},
         "immigration": {"kind": "poisson", "nu": 1.0}, "prob": 0.5},
    ]
}

#: Environment B: gamma-mixed geometric offspring with geometric immigration
#: (prob .6), shifted Poisson offspring with Poisson immigration (prob .4).
ENV_B = {
    "atoms": [
        {"offspring": {"kind": "shifted_geometric", "q": 0.4},
         "immigration": {"kind": "geometric", "s": 0.5}, "prob": 0.6},
        {"offspring": {"kind": "shifted_poisson", "lam": 3.0},
         "immigration": {"kind": "poisson", "nu": 2.0}, "prob": 0.4},
    ]
}


ENV_A_PURE = copy.deepcopy(ENV_A)
for _atom in ENV_A_PURE["atoms"]:
    _atom["immigration"] = {"kind": "none"}

#: Environment B with s = .25: ``immigration_cdf_table`` never returns for
#: this law (its ``1 - cdf`` sticks above the 1e-18 tail), so the list it
#: builds grows until memory runs out.  Only ever run under
#: ``PROBE_CAP_BYTES``.
ENV_PROBE = copy.deepcopy(ENV_B)
ENV_PROBE["atoms"][0]["immigration"]["s"] = 0.25

#: Address-space cap (RLIMIT_AS) and timeout of the probe's child process.
PROBE_CAP_BYTES = 1 << 30
PROBE_TIMEOUT_S = 30.0
#: Timeout of every other op; the slowest op takes a few seconds.
OP_TIMEOUT_S = 90.0

RATE_PAPER_R = 32768  # four full chunks of 8192: two per worker at threads = 2
ELOGW_MIXED_R = 32768
SWEEP_R = 4096
PROBE_R = 256
COUPLED_R = 16384
COUPLED_N = 256
COUPLED_RECORD = (64, 256)
RATE_PAPER_THREADS = 2

RATE_GRID = {"min": -1.0, "max": 1.0, "step": 0.5}
#: Off the lattice of the two-atom walk: (n + x sqrt(n)) / 2 is never an
#: integer for these x and n, so float rounding in the standardisation can
#: never move a sample across a grid point.
WALK_GRID = {"min": -1.1, "max": 0.9, "step": 0.5}
BE_GRID = {"min": -4.0, "max": 4.0, "step": 0.05}  # 161 points
LAPLACE_GRID = {"min": 0.0, "max": 4.0, "step": 0.5}  # t = exp(x)
N_LIST = [16, 64, 256]


def grid_values(grid: dict) -> list[float]:
    """Same arithmetic as ``bpire.cli.GridSpec.values``."""
    count = int((grid["max"] - grid["min"]) / grid["step"] + 1e-9) + 1
    return [grid["min"] + i * grid["step"] for i in range(count)]


@dataclass
class Op:
    """One process of a workload run.

    ``entry`` is ``"cli"`` (``args`` are ``bpire.cli.main`` arguments) or
    ``"coupled"`` (``args`` are ``coupled_lib.main`` arguments).  ``spec``
    is what the correctness check needs to know about the op's config;
    ``replicate_gens`` is R times generations, counted from the config;
    ``reference`` names the entry of ``references.json`` that the op's
    ``E log W`` is checked against.
    """

    name: str
    entry: str
    args: list[str]
    out_dir: Path
    spec: dict
    replicate_gens: int
    reference: str | None = None
    probe: bool = False


@dataclass
class Workload:
    name: str
    threads: int
    ops: list[Op] = field(default_factory=list)

    @property
    def replicate_gens(self) -> int:
        return sum(op.replicate_gens for op in self.ops)


def _cli_op(name: str, doc: dict, work: Path, replicate_gens: int, **kw) -> Op:
    cfg_path = work / "configs" / f"{name}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    out = work / "out" / name
    return Op(
        name=name,
        entry="cli",
        args=["--config", str(cfg_path), "--out", str(out)],
        out_dir=out,
        spec=doc,
        replicate_gens=replicate_gens,
        **kw,
    )


def _rate_paper(seed: int, work: Path) -> list[Op]:
    doc = {
        "kind": "rate", "environment": ENV_A, "x_grid": RATE_GRID, "n_list": N_LIST,
        "replicates": RATE_PAPER_R, "master_seed": seed, "horizon": 30,
        "threads": RATE_PAPER_THREADS,
    }
    gens = RATE_PAPER_R * (N_LIST[-1] + 31)
    return [_cli_op("rate", doc, work, gens, reference="A_logw30")]


def _elogw_mixed(seed: int, work: Path) -> list[Op]:
    doc = {
        "kind": "elogw", "environment": ENV_B, "replicates": ELOGW_MIXED_R,
        "master_seed": seed, "horizon": 30, "threads": 1,
    }
    return [_cli_op("elogw", doc, work, ELOGW_MIXED_R * 31, reference="B_logw30")]


def _kinds_sweep(seed: int, work: Path) -> list[Op]:
    base = {"replicates": SWEEP_R, "master_seed": seed, "threads": 1}
    decay_n = list(range(21))  # 21 increments and a log-linear fit
    kinds = [
        ("rate", {"environment": ENV_A, "x_grid": RATE_GRID, "n_list": N_LIST,
                  "horizon": 30}, N_LIST[-1] + 31),
        ("walk-oracle", {"environment": ENV_A, "x_grid": WALK_GRID, "n_list": N_LIST},
         N_LIST[-1]),
        ("elogw", {"environment": ENV_A, "horizon": 30}, 31),
        ("decay", {"environment": ENV_A, "q": 1.0, "n_list": decay_n}, decay_n[-1] + 1),
        ("berry-esseen", {"environment": ENV_A, "x_grid": BE_GRID, "n_list": [16, 64]}, 64),
        ("laplace", {"environment": ENV_A_PURE, "x_grid": LAPLACE_GRID, "horizon": 30,
                     "r": 2.0}, 30),
        ("moments", {"environment": ENV_A, "r": 2.0, "n_list": [10, 20, 30]}, 30),
        ("validate", {"environment": ENV_A}, 0),
    ]
    ops = [
        _cli_op(kind, {"kind": kind, **base, **extra}, work, SWEEP_R * gens,
                reference="A_logw30" if kind in ("rate", "elogw") else None)
        for kind, extra, gens in kinds
    ]
    probe = {"kind": "elogw", "environment": ENV_PROBE, "replicates": PROBE_R,
             "master_seed": seed, "horizon": 30, "threads": 1}
    # The probe does no generations today: it never gets past the table build.
    ops.append(_cli_op("probe", probe, work, 0, probe=True))
    return ops


def _coupled_lib(seed: int, work: Path) -> list[Op]:
    out = work / "out" / "coupled"
    spec = {"environment": ENV_A, "n": COUPLED_N, "record": list(COUPLED_RECORD),
            "replicates": COUPLED_R, "master_seed": seed}
    args = ["--seed", str(seed), "--replicates", str(COUPLED_R), "--out", str(out)]
    return [Op("coupled", "coupled", args, out, spec, COUPLED_R * COUPLED_N,
               reference="A_coupled_logw256")]


#: name -> (resolved thread count, function making the ops).  Why each
#: workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "rate-paper": (RATE_PAPER_THREADS, _rate_paper),
    "elogw-mixed": (1, _elogw_mixed),
    "kinds-sweep": (1, _kinds_sweep),
    "coupled-lib": (1, _coupled_lib),
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return its ops."""
    if not (0 <= seed < MAX_SEED):
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    threads, make = WORKLOADS[name]
    return Workload(name=name, threads=threads, ops=make(seed, work))
