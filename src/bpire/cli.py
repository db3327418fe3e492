"""Configuration-driven command line for running experiments to CSV.

One JSON config document describes the environment and the experiment; the
CLI runs it and writes one CSV per experiment (plus ``fit.csv`` for decay
fits and a ``run_manifest.json`` echoing the config) into the output
directory.  Flags cover only paths, seed override and parallelism -- the
config is the archivable record of what ran.

The forked chunk workers (``threads``) are the only parallelism of a CLI
process.
Imported before numpy, this module sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where they are unset:
no run uses BLAS threads, and an idle OpenBLAS pool costs about 0.13 s of
CPU per process.  A value the user set is kept.

The process entry, :func:`run` (``python -m bpire.cli`` and the ``bpire``
script), calls ``gc.freeze()`` before :func:`main`: the objects the
imports left behind, about 23,000 tracked by the cycle collector, move to
its permanent generation, so neither a collection during the run nor the
interpreter's shutdown traverses them again.  That shutdown pass cost
about 35 ms of every process.  :func:`main` called from Python leaves the
collector as it finds it.

Exit codes:

* 0 -- success;
* 1 -- malformed config (JSON syntax, unknown or missing keys, bad types,
  an integer of more digits than Python converts (4300 by default), arrays
  or objects nested deeper than the interpreter's recursion limit, a
  non-finite number, an ``x_grid`` of more than ``MAX_GRID_POINTS`` =
  10**6 points, a ``horizon`` or ``n_list`` entry above
  ``MAX_GENERATIONS`` = 10**5, a scalar out of its range such as
  ``promotion_threshold`` outside [``MIN_PROMOTION_THRESHOLD`` = 2**10,
  ``MAX_PROMOTION_THRESHOLD`` = 2**61]);
* 2 -- validation failure: a law parameter out of its domain (such as a
  Poisson immigration mean ``nu`` above ``POISSON_NU_MAX``, about 708.4, a
  geometric immigration ``s`` below ``GEOMETRIC_S_MIN`` = 1e-4, or a
  geometric offspring ``q`` below ``GEOMETRIC_Q_MIN``, about 1.492e-154),
  immigration tables past ``MAX_IMMIGRATION_TABLE_ENTRIES`` = 2**22
  entries over the distinct immigration laws, a failed environment check,
  an unmet precondition of any experiment kind (such as a zero-variance
  environment in a rate experiment, an ``n_list`` that is not strictly
  ascending, a laplace grid with fewer than two points ``t >= e``, a
  moments ``n_list`` with fewer than two generations ``n >= 10`` or a
  berry-esseen ``n_list`` of one generation, each of which would leave a
  gate with nothing to compare, ``r <= 0`` for moments, ``q <= 0`` for
  decay, ``p <= 1`` for validate, ``replicates`` = 1 for a kind that
  reports a standard error: rate, elogw, decay, laplace and moments), or
  an arithmetic error in a run (such as a Laplace ``t = exp(x)``, or a
  decay or moments mean of ``|.|^q`` or ``|.|^r`` or its SE, beyond the
  float range);
* 3 -- statistics inconclusive or a statistical gate failed (decay SE gate,
  decay CI including 1, unstable Berry-Esseen constant, exploding Laplace
  column, unbounded moment ratio);
* 4 -- I/O or process failure (unreadable config, unwritable output
  directory, batch outputs larger than the process may map, a refused
  fork, a chunk worker killed by a signal).

The output directory is created after the checks of the config and the
environment and before the run, so a config those checks refuse leaves
none, and an unwritable one fails before any batch runs.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

# Before the first import that loads numpy: its BLAS reads these once, at
# load.  A caller that loaded numpy first keeps its own setting.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import __version__
from .env_model import (
    EnvAtom,
    EnvironmentModel,
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    validate,
)
from .analytics import hypothesis_report
from .mc_verify import (
    berry_esseen_sup,
    clt_rate_experiment,
    estimate_elogw,
    increment_decay,
    laplace_decay,
    moment_stability,
    walk_oracle_rate,
)
from .sampler import MAX_PROMOTION_THRESHOLD, MIN_PROMOTION_THRESHOLD, PROMOTION_THRESHOLD
from .trajectory import DRAW_LAYOUT


class ConfigError(Exception):
    """Structurally invalid config: maps to exit code 1."""


class ValidationFailure(Exception):
    """Semantically invalid model or unmet experiment precondition: exit 2."""


#: Most points an ``x_grid`` may have.
MAX_GRID_POINTS = 10**6

#: Largest ``horizon`` and ``n_list`` entry.  Every generation is one array
#: step per chunk of 8192 replicates, about a millisecond, so 10**5
#: generations already take minutes per chunk: far beyond the generations
#: the rate theory is checked at, and a bound that turns a mistyped
#: ``10**12`` into an error instead of a run of decades.
MAX_GENERATIONS = 10**5


@dataclass(frozen=True)
class GridSpec:
    """Arithmetic grid ``min, min+step, ..., max`` (inclusive within half a
    step of float slack), at most ``MAX_GRID_POINTS`` points."""

    min: float
    max: float
    step: float

    def __post_init__(self) -> None:
        if not (self.step > 0.0):
            raise ConfigError(f"x_grid.step must be positive, got {self.step}")
        if self.max < self.min:
            raise ConfigError("x_grid.max must not be below x_grid.min")
        # counted in float: an int() of an infinite span would overflow
        if not self._steps() < MAX_GRID_POINTS:
            raise ConfigError(f"x_grid must have at most {MAX_GRID_POINTS} points")

    def _steps(self) -> float:
        return (self.max - self.min) / self.step + 1e-9

    def values(self) -> list[float]:
        count = int(math.floor(self._steps())) + 1
        return [self.min + i * self.step for i in range(count)]


class ExperimentConfig(NamedTuple):
    kind: str
    environment: EnvironmentModel
    x_grid: GridSpec | None = None
    n_list: tuple[int, ...] | None = None
    replicates: int = 10**5
    master_seed: int = 0
    horizon: int = 30
    q: float = 1.0
    r: float | None = None
    delta: float = 2.0
    p: float = 2.0
    promotion_threshold: int = PROMOTION_THRESHOLD
    threads: int = 0


#: Law dataclasses of each atom field, keyed by the config ``kind`` string.
#: A law's config keys are ``kind`` plus its dataclass fields.
LAWS: dict[str, dict[str, type]] = {
    "offspring": {"shifted_poisson": ShiftedPoisson, "shifted_geometric": ShiftedGeometric},
    "immigration": {
        "poisson": PoissonImmigration,
        "geometric": GeometricImmigration,
        "none": NoImmigration,
    },
}
_LAW_KIND = {cls: kind for laws in LAWS.values() for kind, cls in laws.items()}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]


def _as_object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    return obj


def _as_number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    # math.isfinite, but exact for integers beyond the float range too
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _as_int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return v


def _parse_fields(cls: type, obj: Any, where: str, extra: frozenset = frozenset()) -> Any:
    """Build dataclass ``cls`` from the numeric keys of object ``obj`` named
    by its fields; ``extra`` names further keys ``obj`` may hold."""
    names = [f.name for f in fields(cls)]
    _check_keys(_as_object(obj, where), extra | set(names), where)
    return cls(**{n: _as_number(_require(obj, n, where), f"{where}.{n}") for n in names})


def _parse_law(atom: dict, role: str, atom_where: str) -> Any:
    where = f"{atom_where}.{role}"
    obj = _as_object(_require(atom, role, atom_where), where)
    laws = LAWS[role]
    kind = _require(obj, "kind", where)
    if not isinstance(kind, str) or kind not in laws:
        *rest, last = (repr(k) for k in laws)
        raise ConfigError(f"{where}.kind must be {', '.join(rest)} or {last}, got {kind!r}")
    try:
        return _parse_fields(laws[kind], obj, where, frozenset({"kind"}))
    except ValueError as exc:  # law parameter out of its domain
        raise ValidationFailure(f"{where}: {exc}") from exc


def _parse_environment(obj: Any, where: str = "environment") -> EnvironmentModel:
    _check_keys(_as_object(obj, where), {"atoms"}, where)
    atoms_obj = _require(obj, "atoms", where)
    if not isinstance(atoms_obj, list) or not atoms_obj:
        raise ConfigError(f"{where}.atoms must be a nonempty array")
    atoms = []
    for i, a in enumerate(atoms_obj):
        aw = f"{where}.atoms[{i}]"
        _check_keys(_as_object(a, aw), {"offspring", "immigration", "prob"}, aw)
        try:
            atoms.append(
                EnvAtom(
                    offspring=_parse_law(a, "offspring", aw),
                    immigration=_parse_law(a, "immigration", aw),
                    prob=_as_number(_require(a, "prob", aw), f"{aw}.prob"),
                )
            )
        except ValueError as exc:  # atom probability out of its domain
            raise ValidationFailure(f"{aw}: {exc}") from exc
    try:
        return EnvironmentModel(atoms=tuple(atoms))
    except ValueError as exc:  # immigration tables past their limit
        raise ValidationFailure(f"{where}: {exc}") from exc


#: Optional scalar config fields, in parse order: how to read each one, the
#: condition its value must meet, and the complaint when it does not.
_SCALARS: dict[str, tuple[Callable[[Any, str], Any], Callable[[Any], bool], str]] = {
    "replicates": (_as_int, lambda v: v >= 1, "must be at least 1"),
    "master_seed": (_as_int, lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer"),
    "horizon": (
        _as_int,
        lambda v: 0 <= v <= MAX_GENERATIONS,
        f"must be nonnegative and at most MAX_GENERATIONS = {MAX_GENERATIONS}",
    ),
    "q": (_as_number, lambda v: True, ""),
    "r": (_as_number, lambda v: True, ""),
    "delta": (_as_number, lambda v: True, ""),
    "p": (_as_number, lambda v: True, ""),
    "promotion_threshold": (
        _as_int,
        lambda v: MIN_PROMOTION_THRESHOLD <= v <= MAX_PROMOTION_THRESHOLD,
        f"must be at least {MIN_PROMOTION_THRESHOLD}: below it the Gaussian log step "
        f"is not guaranteed to stay in its domain; and at most {MAX_PROMOTION_THRESHOLD}: "
        "above it exact counts may overflow int64",
    ),
    "threads": (_as_int, lambda v: v >= 0, "must be nonnegative (0 = auto)"),
}


def _scalar(key: str, value: Any, where: str) -> Any:
    convert, ok, complaint = _SCALARS[key]
    value = convert(value, where)
    if not ok(value):
        raise ConfigError(f"{where} {complaint}")
    return value


_CONFIG_KEYS = set(ExperimentConfig._fields)


def parse_config(doc: Any) -> ExperimentConfig:
    """Strictly parse a decoded JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _CONFIG_KEYS, "config")
    kind = _require(doc, "kind", "config")
    if kind not in KINDS:
        raise ConfigError(f"config.kind must be one of {sorted(KINDS)}, got {kind!r}")
    env = _parse_environment(_require(doc, "environment", "config"))

    x_grid = None
    if "x_grid" in doc:
        x_grid = _parse_fields(GridSpec, doc["x_grid"], "config.x_grid")

    n_list = None
    if "n_list" in doc:
        raw = doc["n_list"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.n_list must be a nonempty array of integers")
        n_list = tuple(_as_int(v, "config.n_list entry") for v in raw)
        if max(n_list) > MAX_GENERATIONS:
            raise ConfigError(
                f"config.n_list entries must be at most MAX_GENERATIONS = {MAX_GENERATIONS}"
            )

    kwargs = {key: _scalar(key, doc[key], f"config.{key}") for key in _SCALARS if key in doc}
    return ExperimentConfig(kind=kind, environment=env, x_grid=x_grid, n_list=n_list, **kwargs)


def _serialize_law(law: Any) -> dict:
    return {"kind": _LAW_KIND[type(law)], **vars(law)}


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Inverse of :func:`parse_config`: parse(serialize(c)) == c."""
    doc: dict[str, Any] = {
        "kind": cfg.kind,
        "environment": {
            "atoms": [
                {**{role: _serialize_law(getattr(a, role)) for role in LAWS}, "prob": a.prob}
                for a in cfg.environment.atoms
            ]
        },
    }
    doc.update((key, getattr(cfg, key)) for key in _SCALARS if getattr(cfg, key) is not None)
    if cfg.x_grid is not None:
        doc["x_grid"] = asdict(cfg.x_grid)
    if cfg.n_list is not None:
        doc["n_list"] = list(cfg.n_list)
    return doc


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cell(v: Any) -> str:
    """CSV text of one value: integers as is, booleans as true/false, floats
    with 17 significant digits (lossless float64 round-trip)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return _fmt(v)


class Csv(NamedTuple):
    """One CSV artifact: file name, comma-separated header, and the rows of
    values a result gives -- by default its ``rows``, whose records are
    their CSV rows."""

    name: str
    header: str
    rows: Callable[[Any], Sequence[tuple]] = attrgetter("rows")


class Kind(NamedTuple):
    """How one experiment kind runs.

    ``run`` maps the config to a result; a ``ValueError`` from it is an
    unmet precondition (exit 2).  ``outcome`` maps the result to the exit
    status (3 when a statistical gate fails) and the text printed on
    stdout.  Every kind but ``validate`` first requires the environment to
    pass the validation checks the simulation relies on; then each field in
    ``requires`` must be set.  The runners name the estimators at call
    time, so a rebound module global reaches them.
    """

    requires: tuple[str, ...]
    run: Callable[[ExperimentConfig], Any]
    csvs: tuple[Csv, ...]
    outcome: Callable[[Any], tuple[int, str]]
    checks_environment: bool = True


def _common_args(cfg: ExperimentConfig) -> dict[str, Any]:
    """Arguments every branching estimator takes from the config."""
    return {
        "env": cfg.environment,
        "replicates": cfg.replicates,
        "master_seed": cfg.master_seed,
        "threads": cfg.threads,
        "threshold": cfg.promotion_threshold,
    }


def _gate(passed: bool, ok_text: str, failed_text: str) -> tuple[int, str]:
    return (0, ok_text) if passed else (3, failed_text)


def _rate_kind(name: str, run: Callable[[ExperimentConfig], Any]) -> Kind:
    return Kind(
        ("x_grid", "n_list"),
        run,
        (Csv(name, "x,n,dhat,se,g_pred,q_pred"),),
        lambda c: (0, f"wrote {name} ({len(c.rows)} rows); E log W = {_fmt(c.e_log_w)}"),
    )


def _decay_outcome(series: Any) -> tuple[int, str]:
    if series.status != "ok":
        return 3, "decay fit inconclusive: fewer than 3 rows pass the 5-SE gate"
    if series.rho_ci[0] <= 1.0:
        return 3, f"decay fit rho CI {series.rho_ci} does not exclude 1"
    return 0, (
        f"wrote decay.csv and fit.csv: rho_hat = {_fmt(series.rho_hat)}, "
        f"99% CI ({_fmt(series.rho_ci[0])}, {_fmt(series.rho_ci[1])})"
    )


def _validate_report(cfg: ExperimentConfig) -> tuple[int, str]:
    """The validation and hypothesis-audit reports (the lattice verdict is
    the audit's ``non_lattice`` entry), and exit 2 when a validation check
    fails."""
    report = validate(cfg.environment)
    hyp = hypothesis_report(
        cfg.environment, p=cfg.p, delta=cfg.delta, r=cfg.r if cfg.r is not None else 3.0
    )
    lines = ["validation checks:"]
    lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.checks]
    lines.append("hypothesis audit:")
    lines += [
        f"  [{'ok' if e.passed else 'FAIL'}] {e.name} = {e.value:.6g} ({e.detail})"
        for e in hyp.entries
    ]
    return (0 if report.ok else 2), "\n".join(lines)


_KINDS: dict[str, Kind] = {
    "rate": _rate_kind(
        "rate.csv",
        lambda cfg: clt_rate_experiment(
            x_grid=cfg.x_grid.values(),
            n_list=cfg.n_list,
            horizon=cfg.horizon,
            **_common_args(cfg),
        ),
    ),
    "walk-oracle": _rate_kind(
        "walk_oracle.csv",
        lambda cfg: walk_oracle_rate(
            cfg.environment,
            cfg.x_grid.values(),
            cfg.n_list,
            cfg.replicates,
            cfg.master_seed,
            threads=cfg.threads,
        ),
    ),
    "elogw": Kind(
        (),
        lambda cfg: estimate_elogw(horizon=cfg.horizon, **_common_args(cfg)),
        (
            Csv(
                "elogw.csv",
                "N,mean,se,last_increment_estimate,last_increment_se",
                lambda e: [(e.horizon, e.mean, e.se, e.increment_estimate, e.increment_se)],
            ),
        ),
        lambda e: (0, f"wrote elogw.csv: mean = {_fmt(e.mean)} +- {_fmt(e.se)}"),
    ),
    "decay": Kind(
        ("n_list",),
        lambda cfg: increment_decay(q=cfg.q, n_list=cfg.n_list, **_common_args(cfg)),
        (
            Csv("decay.csv", "n,estimate,se,qualifies"),
            Csv(
                "fit.csv",
                "slope,rho_hat,ci_lo,ci_hi",
                lambda s: [(s.slope, s.rho_hat, *s.rho_ci)] if s.status == "ok" else [],
            ),
        ),
        _decay_outcome,
    ),
    "berry-esseen": Kind(
        ("n_list", "x_grid"),
        lambda cfg: berry_esseen_sup(
            n_list=cfg.n_list, grid=cfg.x_grid.values(), **_common_args(cfg)
        ),
        (Csv("berry_esseen.csv", "n,sup_dev,se_max,c_fit"),),
        lambda b: _gate(
            b.stable,
            f"wrote berry_esseen.csv: C = {_fmt(b.c)} (stable)",
            "berry-esseen constant not stable within factor 2 across n",
        ),
    ),
    "laplace": Kind(
        ("x_grid",),
        lambda cfg: laplace_decay(
            t_grid=[math.exp(x) for x in cfg.x_grid.values()],
            horizon=cfg.horizon,
            r=cfg.r if cfg.r is not None else 2.0,
            **_common_args(cfg),
        ),
        (Csv("laplace.csv", "t,phi_hat,se,logt_pow_r_times_phi"),),
        lambda lp: _gate(
            lp.bounded,
            f"wrote laplace.csv ({len(lp.rows)} rows), bounded",
            "laplace weighted column explodes across the grid",
        ),
    ),
    "moments": Kind(
        ("n_list",),
        lambda cfg: moment_stability(
            r=cfg.r if cfg.r is not None else 2.0, n_list=cfg.n_list, **_common_args(cfg)
        ),
        (
            Csv(
                "moments.csv",
                "n,r,estimate,se",
                lambda m: [(row.n, m.r, row.estimate, row.se) for row in m.rows],
            ),
        ),
        lambda m: _gate(
            m.bounded,
            f"wrote moments.csv ({len(m.rows)} rows), bounded",
            f"moment ratio {m.ratio:.3g} exceeds 2 beyond SE slack",
        ),
    ),
    "validate": Kind((), _validate_report, (), lambda result: result, checks_environment=False),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run one configured experiment, write artifacts, return the exit code."""
    t0 = time.monotonic()
    kind = _KINDS[cfg.kind]
    if kind.checks_environment:
        required = {"prob_sum", "mean_log_positive"}
        bad = [c for c in validate(cfg.environment).failures() if c.name in required]
        if bad:
            msgs = "; ".join(f"{c.name}: {c.detail}" for c in bad)
            raise ValidationFailure(f"environment failed validation: {msgs}")
    for field in kind.requires:
        if getattr(cfg, field) is None:
            raise ConfigError(f"config.{field} is required for kind {cfg.kind!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = kind.run(cfg)
    except (ValueError, ArithmeticError) as exc:
        raise ValidationFailure(str(exc)) from exc
    for w in getattr(result, "warnings", ()):
        print(f"warning: {w}", file=sys.stderr)
    for spec in kind.csvs:
        with open(out_dir / spec.name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(spec.header.split(","))
            writer.writerows([_cell(v) for v in row] for row in spec.rows(result))
    status, text = kind.outcome(result)
    print(text)

    manifest = {
        "config": serialize_config(cfg),
        "version": __version__,
        "draw_layout": DRAW_LAYOUT,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "exit_status": status,
    }
    with open(out_dir / "run_manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bpire",
        description="Run branching-process-in-random-environment experiments "
        "from a JSON config and write CSV results.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--out", required=True, help="output directory for CSV artifacts")
    parser.add_argument("--seed", type=int, default=None, help="master seed override (u64)")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="chunk workers, the calling process among them (0 = one per CPU this "
        "process may run on; never more than those CPUs or the chunks)",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (ValueError, RecursionError) as exc:  # too many digits, too deep a nesting
        print(f"error: malformed JSON: {str(exc).partition(';')[0]}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(doc)
        if args.seed is not None:
            cfg = cfg._replace(master_seed=_scalar("master_seed", args.seed, "--seed"))
        if args.threads is not None:
            cfg = cfg._replace(threads=_scalar("threads", args.threads, "--threads"))
        return run_experiment(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4


def run() -> NoReturn:
    """Process entry: freeze the import-time heap, run :func:`main` on
    ``sys.argv`` and exit with its code.  The chunk workers a batch forks
    inherit the frozen objects, and their collections leave those pages
    unwritten."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
