"""Measure the reference means of ``log W`` that ``checks.py`` compares with.

    PYTHONPATH=src python3 bench/references.py

Each reference is measured once, at ten times the replicates of the
workload that uses it, on ``REFERENCE_SEED`` (outside the seed range any
workload accepts), and written to ``bench/references.json``.  Re-run it only
when the model itself changes meaning; a new draw layout leaves the
references valid, because the checks compare within standard errors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from bpire.cli import parse_config
from bpire.trajectory import simulate_batch
from workloads import (COUPLED_N, COUPLED_R, COUPLED_RECORD, ELOGW_MIXED_R, ENV_A, ENV_B,
                       RATE_PAPER_R, REFERENCE_SEED)

SCALE = 10


def _entry(log_w: np.ndarray, replicates: int, what: str) -> dict:
    sd = float(np.std(log_w, ddof=1))
    return {"mean": float(np.mean(log_w)), "sd": sd, "se": sd / math.sqrt(replicates),
            "replicates": replicates, "master_seed": REFERENCE_SEED, "what": what}


def main() -> int:
    env_a, env_b = (parse_config({"kind": "elogw", "environment": e}).environment
                    for e in (ENV_A, ENV_B))
    refs = {}
    for key, env, r in (("A_logw30", env_a, SCALE * RATE_PAPER_R),
                        ("B_logw30", env_b, SCALE * ELOGW_MIXED_R)):
        batch = simulate_batch(env, 31, r, REFERENCE_SEED, record=(30, 31), threads=0)
        refs[key] = _entry(batch.log_w_at(30), r, "mean of log W_30, as estimate_elogw")
    r = SCALE * COUPLED_R
    batch = simulate_batch(env_a, COUPLED_N, r, REFERENCE_SEED, record=COUPLED_RECORD,
                           couple_no_immigration=True, threads=0)
    refs["A_coupled_logw256"] = _entry(batch.log_w_at(COUPLED_N), r,
                                       "mean of log W_256 on the coupled path")
    path = Path(__file__).parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(refs, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
