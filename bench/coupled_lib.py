"""The ``coupled-lib`` op: one library call of ``simulate_batch`` with the
coupled no-immigration shadow population, reduced to ``coupled.csv``.

No CLI kind reaches the coupled path, so this op calls the library the way a
user script would.  Run ``python3 coupled_lib.py --seed S --replicates R
--out DIR`` with ``src`` on ``PYTHONPATH``; ``--setup-only`` stops after the
import and the environment, which is what the benchmark's set-up time
measures.

``coupled.csv`` has one row per recorded generation: the mean of
``log W_n = log Z_n - S_n`` with its standard error, the smallest
``log Z_n - log Zbar_n`` over all replicates (never negative if the shadow
stays below the full path), and the share of replicates promoted to log
space (``log Z_n >= log threshold``).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from bpire import trajectory
from bpire.env_model import EnvAtom, EnvironmentModel, PoissonImmigration, ShiftedPoisson
from bpire.sampler import PROMOTION_THRESHOLD
from workloads import COUPLED_N, COUPLED_RECORD, ENV_A


def environment() -> EnvironmentModel:
    """Environment A, built from ``workloads.ENV_A`` without the CLI parser."""
    return EnvironmentModel(atoms=tuple(
        EnvAtom(
            offspring=ShiftedPoisson(lam=a["offspring"]["lam"]),
            immigration=PoissonImmigration(nu=a["immigration"]["nu"]),
            prob=a["prob"],
        )
        for a in ENV_A["atoms"]
    ))


def summary_rows(batch: trajectory.BatchResult) -> list[list[str]]:
    rows = []
    log_t = math.log(PROMOTION_THRESHOLD)
    for gen in batch.record:
        log_w = batch.log_w_at(gen)
        log_z = batch.log_z_at(gen)
        rows.append([
            str(gen),
            f"{float(np.mean(log_w)):.17g}",
            f"{float(np.std(log_w, ddof=1)) / math.sqrt(batch.replicates):.17g}",
            f"{float(np.min(log_z - batch.log_zbar_at(gen))):.17g}",
            f"{float(np.mean(log_z >= log_t)):.17g}",
        ])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replicates", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    env = environment()
    if args.setup_only:
        return 0
    batch = trajectory.simulate_batch(
        env, n=COUPLED_N, replicates=args.replicates, master_seed=args.seed,
        record=COUPLED_RECORD, couple_no_immigration=True, threads=1,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "coupled.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "mean_log_w", "se_log_w", "min_log_z_minus_log_zbar",
                         "promoted_share"])
        writer.writerows(summary_rows(batch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
