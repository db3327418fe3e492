"""Correctness checks on the outputs of one op.

Each check returns a list of problems (empty when the op is correct).  The
checks are written so that they survive a change of the draw layout: they
compare statistics with an exact oracle or a stored reference within a
number of standard errors, never bytes.  Byte identity is checked
separately, only between repetitions of one op within one run.

* Every kind: exit code 0, the CSV header, the row count and finite
  values where the schema requires them, and the run manifest.
* ``walk-oracle``: on environment A, ``S_n = n log 2 + K log(3/2)`` with
  ``K ~ Bin(n, 1/2)``, so the standardised walk has the exact CDF
  ``F(x) = P(K <= (n + x sqrt(n)) / 2)``.  Every ``dhat`` lies within 5
  binomial SE of ``sqrt(n) (F(x) - Phi(x))``.
* ``rate``, ``elogw`` and ``coupled``: ``E log W`` lies within 5 combined
  SE of the reference in ``references.json`` (measured by
  ``references.py`` at ten times the workload's replicates, on
  ``REFERENCE_SEED``).
* ``coupled``: ``log Zbar_n <= log Z_n`` for every replicate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

from workloads import Op, grid_values

TOLERANCE_SE = 5.0
REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

_SCHEMAS = {
    "rate": ("rate.csv", ["x", "n", "dhat", "se", "g_pred", "q_pred"]),
    "walk-oracle": ("walk_oracle.csv", ["x", "n", "dhat", "se", "g_pred", "q_pred"]),
    "elogw": ("elogw.csv", ["N", "mean", "se", "last_increment_estimate",
                            "last_increment_se"]),
    "decay": ("decay.csv", ["n", "estimate", "se", "qualifies"]),
    "berry-esseen": ("berry_esseen.csv", ["n", "sup_dev", "se_max", "c_fit"]),
    "laplace": ("laplace.csv", ["t", "phi_hat", "se", "logt_pow_r_times_phi"]),
    "moments": ("moments.csv", ["n", "r", "estimate", "se"]),
    "coupled": ("coupled.csv", ["n", "mean_log_w", "se_log_w",
                                "min_log_z_minus_log_zbar", "promoted_share"]),
}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV the op wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def _binom_half_cdf(k: int, n: int) -> float:
    """P(K <= k) for K ~ Bin(n, 1/2), exactly in integers.  The benchmark
    process imports no scipy: a child's ``ru_maxrss`` includes the parent's
    resident set at the fork, so a large parent would hide the ops' own."""
    return sum(math.comb(n, j) for j in range(k + 1)) / 2**n


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _expected_rows(kind: str, spec: dict) -> int:
    if kind in ("rate", "walk-oracle"):
        return len(grid_values(spec["x_grid"])) * len(spec["n_list"])
    if kind in ("decay", "berry-esseen", "moments"):
        return len(spec["n_list"])
    if kind == "laplace":
        return len(grid_values(spec["x_grid"]))
    if kind == "coupled":
        return len(spec["record"])
    return 1


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _finite_columns(kind: str, header: list[str], row: list[str]) -> list[str]:
    """Columns of ``row`` that must be finite numbers."""
    cols = [c for c in header if c != "qualifies"]
    if kind == "laplace" and _finite(row[0]) and float(row[0]) <= 1.0:
        cols.remove("logt_pow_r_times_phi")  # NaN by definition for t <= 1
    return cols


def _check_reference(what: str, key: str, mean: float, se: float) -> list[str]:
    ref = REFERENCES[key]
    combined = math.hypot(se, ref["se"])
    if abs(mean - ref["mean"]) > TOLERANCE_SE * combined:
        return [f"{what}: E log W {mean:.6g} is {abs(mean - ref['mean']) / combined:.1f} SE "
                f"from the reference {ref['mean']:.6g} ({key})"]
    return []


def _walk_oracle(rows: list[dict], replicates: int) -> list[str]:
    problems = []
    for row in rows:
        x, n, dhat = float(row["x"]), int(row["n"]), float(row["dhat"])
        k = (n + x * math.sqrt(n)) / 2.0
        if abs(k - round(k)) < 1e-6:
            problems.append(f"walk-oracle: grid point x={x} lies on the lattice at n={n}")
            continue
        f_exact = _binom_half_cdf(math.floor(k), n)
        expected = math.sqrt(n) * (f_exact - _phi(x))
        se = math.sqrt(n * f_exact * (1.0 - f_exact) / replicates)
        if abs(dhat - expected) > TOLERANCE_SE * se:
            problems.append(
                f"walk-oracle: dhat {dhat:.6g} at x={x}, n={n} is "
                f"{abs(dhat - expected) / se:.1f} SE from the exact {expected:.6g}"
            )
    return problems


def _statistics(op: Op, kind: str, rows: list[dict], stdout: str) -> list[str]:
    spec, key = op.spec, op.reference
    if kind == "walk-oracle":
        return _walk_oracle(rows, spec["replicates"])
    if kind == "coupled":
        problems = [
            f"coupled: log Zbar exceeds log Z by {-float(r['min_log_z_minus_log_zbar']):.3g} "
            f"at n={r['n']}"
            for r in rows if float(r["min_log_z_minus_log_zbar"]) < 0.0
        ]
        last = rows[-1]
        return problems + _check_reference(
            kind, key, float(last["mean_log_w"]), float(last["se_log_w"]))
    if kind == "elogw" and key:
        return _check_reference(kind, key, float(rows[0]["mean"]), float(rows[0]["se"]))
    if kind == "rate":
        # The CLI prints E log W; it reports no SE for it, so the SE comes
        # from the reference's SD.
        found = re.search(r"E log W = (\S+)", stdout)
        if found is None or not _finite(found.group(1)):
            return ["rate: no finite 'E log W = ...' line on stdout"]
        se = REFERENCES[key]["sd"] / math.sqrt(spec["replicates"])
        return _check_reference(kind, key, float(found.group(1)), se)
    return []


def check_outputs(op: Op, stdout: str) -> list[str]:
    """Schema and statistics of a successful op's outputs."""
    kind = op.spec.get("kind", op.name)
    if kind == "validate":
        return [] if "validation checks:" in stdout and "hypothesis audit:" in stdout else [
            "validate: report missing from stdout"]
    problems = []
    if op.entry == "cli":
        manifest_path = op.out_dir / "run_manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            return [f"{op.name}: unreadable run manifest: {exc}"]
        if manifest.get("exit_status") != 0:
            problems.append(f"{op.name}: manifest exit_status {manifest.get('exit_status')}")
    name, header = _SCHEMAS[kind]
    path = op.out_dir / name
    if not path.exists():
        return problems + [f"{op.name}: {name} missing"]
    got, raw = _read(path)
    if got != header:
        return problems + [f"{op.name}: {name} header {got} != {header}"]
    want = _expected_rows(kind, op.spec)
    if len(raw) != want:
        return problems + [f"{op.name}: {name} has {len(raw)} rows, expected {want}"]
    rows = [dict(zip(header, r)) for r in raw]
    for row, values in zip(rows, raw):
        for col in _finite_columns(kind, header, values):
            if not _finite(row[col]):
                problems.append(f"{op.name}: {name} column {col} is {row[col]!r}")
        if "qualifies" in row and row["qualifies"] not in ("true", "false"):
            problems.append(f"{op.name}: qualifies is {row['qualifies']!r}")
    if kind == "decay":
        try:
            fit_header, fit_rows = _read(op.out_dir / "fit.csv")
        except OSError:
            fit_header, fit_rows = [], []
        if fit_header != ["slope", "rho_hat", "ci_lo", "ci_hi"] or len(fit_rows) != 1 or not all(
                _finite(v) for v in fit_rows[0]):
            problems.append(f"{op.name}: fit.csv malformed")
    if problems:
        return problems
    return _statistics(op, kind, rows, stdout)
