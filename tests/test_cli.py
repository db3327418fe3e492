"""Command line: strict config schema, exit codes, CSV artifacts,
byte-level determinism."""

import ast
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpire
import bpire.trajectory as trajectory
from bpire.cli import (
    KINDS,
    MAX_GENERATIONS,
    MAX_GRID_POINTS,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    main,
    parse_config,
    serialize_config,
)
from bpire.env_model import GEOMETRIC_Q_MIN, GEOMETRIC_S_MIN, POISSON_NU_MAX
from bpire.sampler import MAX_PROMOTION_THRESHOLD, MIN_PROMOTION_THRESHOLD
from conftest import BLAS_VARS, make_env_a


def _env_doc(immigration: str = "poisson") -> dict:
    imm = {"kind": immigration}
    if immigration == "poisson":
        imm["nu"] = 1.0
    return {
        "atoms": [
            {
                "offspring": {"kind": "shifted_poisson", "lam": 1.0},
                "immigration": dict(imm),
                "prob": 0.5,
            },
            {
                "offspring": {"kind": "shifted_poisson", "lam": 2.0},
                "immigration": dict(imm),
                "prob": 0.5,
            },
        ]
    }


#: Strings that stand in a config document for JSON text ``json.dumps``
#: cannot write: an integer of 5,000 digits and an array nested 100,000 deep.
_LONG_INT = "<5000-digit integer>"
_DEEP_ARRAY = "<array nested 100000 deep>"
_RAW_JSON = {_LONG_INT: "9" * 5000, _DEEP_ARRAY: "[" * 100_000 + "]" * 100_000}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    text = json.dumps(doc, indent=1)
    for stand_in, raw in _RAW_JSON.items():
        text = text.replace(json.dumps(stand_in), raw)
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ parsing


def test_config_round_trip():
    doc = {
        "kind": "rate",
        "environment": _env_doc(),
        "x_grid": {"min": -1.0, "max": 1.0, "step": 0.5},
        "n_list": [4, 8],
        "replicates": 5000,
        "master_seed": 12,
        "horizon": 18,
        "q": 1.5,
        "r": 2.0,
        "delta": 2.0,
        "p": 2.0,
        "promotion_threshold": 2**30,
        "threads": 2,
    }
    cfg = parse_config(doc)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.environment == make_env_a()


def test_grid_spec_values():
    grid = GridSpec(min=-1.0, max=1.0, step=0.5)
    assert grid.values() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # endpoint reached despite float step accumulation
    dense = GridSpec(min=-4.0, max=4.0, step=0.05)
    vals = dense.values()
    assert len(vals) == 161
    assert vals[-1] == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ConfigError):
        GridSpec(min=0.0, max=1.0, step=0.0)
    with pytest.raises(ConfigError):
        GridSpec(min=1.0, max=0.0, step=0.1)
    assert len(GridSpec(min=0.0, max=MAX_GRID_POINTS - 1.0, step=1.0).values()) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="at most"):
        GridSpec(min=0.0, max=float(MAX_GRID_POINTS), step=1.0)


def test_generation_limit():
    base = {"kind": "moments", "environment": _env_doc()}
    assert parse_config({**base, "horizon": MAX_GENERATIONS}).horizon == MAX_GENERATIONS
    assert parse_config({**base, "n_list": [MAX_GENERATIONS]}).n_list == (MAX_GENERATIONS,)
    for doc in ({"horizon": MAX_GENERATIONS + 1}, {"n_list": [2, MAX_GENERATIONS + 1]}):
        with pytest.raises(ConfigError, match="MAX_GENERATIONS"):
            parse_config({**base, **doc})


@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda d: d.__setitem__("replicats", 5), "replicats"),
        (lambda d: d["environment"].__setitem__("extra", 1), "extra"),
        (lambda d: d["environment"]["atoms"][0].__setitem__("weight", 1), "weight"),
        (
            lambda d: d["environment"]["atoms"][0]["offspring"].__setitem__(
                "rate", 1
            ),
            "rate",
        ),
        (
            lambda d: d["environment"]["atoms"][1]["immigration"].__setitem__(
                "mean", 1
            ),
            "mean",
        ),
        (lambda d: d["x_grid"].__setitem__("count", 3), "count"),
    ],
)

def test_unknown_keys_are_named(mutate, named):
    doc = {
        "kind": "rate",
        "environment": _env_doc(),
        "x_grid": {"min": 0.0, "max": 1.0, "step": 1.0},
        "n_list": [2],
        "replicates": 100,
    }
    mutate(doc)
    with pytest.raises(ConfigError, match=named):
        parse_config(doc)


def test_missing_keys_are_named():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"environment": _env_doc()})
    with pytest.raises(ConfigError, match="environment"):
        parse_config({"kind": "rate"})
    doc = {"kind": "rate", "environment": {"atoms": [{"prob": 1.0}]}}
    with pytest.raises(ConfigError, match="offspring"):
        parse_config(doc)


def test_type_and_domain_errors():
    base = {"kind": "rate", "environment": _env_doc()}
    with pytest.raises(ConfigError, match="kind"):
        parse_config({**base, "kind": "ratez"})
    with pytest.raises(ConfigError, match="replicates"):
        parse_config({**base, "replicates": "many"})
    with pytest.raises(ConfigError, match="replicates"):
        parse_config({**base, "replicates": 0})
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({**base, "master_seed": 2**64})
    with pytest.raises(ConfigError, match="n_list"):
        parse_config({**base, "n_list": [2.5]})
    with pytest.raises(ConfigError, match="threads"):
        parse_config({**base, "threads": -1})


def test_defaults_applied():
    cfg = parse_config({"kind": "validate", "environment": _env_doc()})
    assert cfg.replicates == 10**5
    assert cfg.master_seed == 0
    assert cfg.horizon == 30
    assert cfg.r is None
    assert cfg.promotion_threshold == 2**20


# --------------------------------------------------------------- exit codes


#: A config for each of exit codes 0 to 3 (code 4, an unreadable config, is
#: a missing path), shared by the in-process tests and the process entry's.
_VALIDATE_DOC = {"kind": "validate", "environment": _env_doc()}
_UNKNOWN_KEY_DOC = {**_VALIDATE_DOC, "bogus": 1}
_BAD_LAW_DOC = {"kind": "validate", "environment": _env_doc()}
_BAD_LAW_DOC["environment"]["atoms"][0]["offspring"]["lam"] = -1.0
_INCONCLUSIVE_DECAY_DOC = {
    "kind": "decay",
    "environment": _env_doc(),
    "q": 1.0,
    "n_list": [20, 22, 24],
    "replicates": 8,
    "master_seed": 2,
}


def test_validate_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, _VALIDATE_DOC)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "validation checks" in out
    assert "hypothesis audit" in out


def test_validate_ten_thousand_atoms_reports_non_lattice_fast(tmp_path, capsys):
    rng = random.Random(7)
    atoms = [
        {"offspring": {"kind": "shifted_poisson", "lam": 0.5 + 6.0 * rng.random()},
         "immigration": {"kind": "none"}, "prob": 1e-4}
        for _ in range(10**4)
    ]
    cfg = _write(tmp_path, {"kind": "validate", "environment": {"atoms": atoms}})
    start = time.perf_counter()
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 5.0
    assert "  [ok] non_lattice = nan (no lattice span" in capsys.readouterr().out


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "rate",\n  "oops,\n}\n')
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_unknown_key_exits_one(tmp_path, capsys):
    code = main(["--config", _write(tmp_path, _UNKNOWN_KEY_DOC), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def _atom0(**fields) -> dict:
    """``_VALIDATE_DOC`` with ``fields`` set on its first atom."""
    env = _env_doc()
    env["atoms"][0].update(fields)
    return {**_VALIDATE_DOC, "environment": env}


@pytest.mark.parametrize(
    "text, named",
    [
        ("[1, 2]", "config root must be a JSON object"),
        (json.dumps({**_VALIDATE_DOC, "environment": []}), "environment must be an object"),
        (json.dumps({**_VALIDATE_DOC, "x_grid": 3}), "config.x_grid must be an object"),
        (json.dumps({**_VALIDATE_DOC, "environment": {"atoms": [1]}}),
         "environment.atoms[0] must be an object"),
        (json.dumps(_atom0(prob="half")), "environment.atoms[0].prob must be a number"),
        (json.dumps(_atom0(prob=math.nan)), "environment.atoms[0].prob must be a finite number"),
        (json.dumps(_atom0(offspring={"kind": "binomial", "lam": 1.0})),
         "environment.atoms[0].offspring.kind must be"),
        (json.dumps({**_VALIDATE_DOC, "environment": {"atoms": []}}),
         "environment.atoms must be a nonempty array"),
        (json.dumps({**_VALIDATE_DOC, "n_list": []}), "config.n_list must be a nonempty array"),
        (json.dumps({**_VALIDATE_DOC, "kind": "moments"}),
         "config.n_list is required for kind 'moments'"),
        ('{"kind": "validate",', "malformed JSON at line 1"),
    ],
    ids=["non-object-root", "non-object-environment", "non-object-grid", "non-object-atom",
         "non-number", "non-finite", "unknown-law-kind", "empty-atoms", "empty-n-list",
         "missing-required-field", "bad-json"],
)
def test_parser_refusal_exits_one_without_traceback(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_degenerate_variance_exits_two_naming_requirement(tmp_path, capsys):
    doc = {
        "kind": "rate",
        "environment": {
            "atoms": [
                {
                    "offspring": {"kind": "shifted_poisson", "lam": 1.0},
                    "immigration": {"kind": "none"},
                    "prob": 1.0,
                }
            ]
        },
        "x_grid": {"min": -1.0, "max": 1.0, "step": 1.0},
        "n_list": [2],
        "replicates": 100,
    }
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Var(log m0) > 0" in err
    assert "Theorem" not in err  # the requirement is named, not cited


def test_bad_law_parameter_exits_two(tmp_path, capsys):
    code = main(["--config", _write(tmp_path, _BAD_LAW_DOC), "--out", str(tmp_path / "o")])
    assert code == 2


def test_immigration_tables_past_their_limit_exit_two(tmp_path, capsys):
    # 20 distinct geometric immigration laws near GEOMETRIC_S_MIN: about
    # 5.8 million table entries, refused before any table is built
    atom = {"offspring": {"kind": "shifted_poisson", "lam": 1.0}, "prob": 0.05}
    doc = {"kind": "elogw", "replicates": 50, "horizon": 2, "environment": {"atoms": [
        {**atom, "immigration": {"kind": "geometric", "s": GEOMETRIC_S_MIN * (1 + k / 100)}}
        for k in range(20)]}}
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: environment: ") and "MAX_IMMIGRATION_TABLE_ENTRIES" in err
    assert not (tmp_path / "o").exists()


def test_bad_probability_mass_exits_two(tmp_path, capsys):
    doc = {
        "kind": "elogw",
        "environment": _env_doc(),
        "replicates": 50,
        "horizon": 2,
    }
    doc["environment"]["atoms"][0]["prob"] = 0.4
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "prob_sum" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_UNIT_GRID = {"min": -1.0, "max": 1.0, "step": 1.0}


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"kind": "moments", "r": -1.0, "n_list": [2]}, "r must be positive"),
        ({"kind": "decay", "q": 0.0, "n_list": [2, 3, 4]}, "q must be positive"),
        ({"kind": "validate", "p": 1.0}, "p must exceed 1"),
        ({"kind": "berry-esseen", "n_list": [4, 2], "x_grid": _UNIT_GRID}, "n_list must be"),
        ({"kind": "moments", "r": 2.0, "n_list": [2, 2]}, "n_list must be ascending"),
        ({"kind": "decay", "q": 1.0, "n_list": [3, 2]}, "n_list must be ascending"),
        # gates that would pass on no data
        ({"kind": "moments", "r": 2.0, "n_list": [2, 10]}, "two generations n >= 10"),
        ({"kind": "laplace", "x_grid": {"min": 0.0, "max": 1.0, "step": 0.5}},
         "two points t >= e"),
        ({"kind": "berry-esseen", "n_list": [4], "x_grid": _UNIT_GRID}, "two generations"),
    ],
    ids=["moments-r", "decay-q", "validate-p", "berry-esseen-unsorted",
         "moments-repeated", "decay-unsorted", "moments-one-generation-from-10",
         "laplace-one-point-from-e", "berry-esseen-one-generation"],
)
def test_failed_precondition_exits_two_without_traceback(tmp_path, doc, named):
    env = _env_doc("none" if doc["kind"] == "laplace" else "poisson")
    proc = _run_cli(tmp_path, {**doc, "environment": env, "replicates": 50})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert named in proc.stderr
    # the config's key, not the estimator's argument
    assert "n_range" not in proc.stderr
    assert "Traceback" not in proc.stderr


def _with_lam(lam) -> dict:
    env = _env_doc()
    env["atoms"][0]["offspring"]["lam"] = lam
    return env


#: The refusals of numbers the JSON parser accepts, by test id: the config
#: keys over those of ``_REFUSAL_BASE``, the exit code and a part of the
#: one-line message.
_REFUSALS = {
    "grid-min-inf": ({"x_grid": {"min": -math.inf, "max": 1.0, "step": 1.0}}, 1, "x_grid.min"),
    "grid-step-underflow": ({"x_grid": {"min": -1.0, "max": 1.0, "step": 1e-320}}, 1, "x_grid"),
    "grid-too-many-points": ({"x_grid": {"min": -4.0, "max": 4.0, "step": 1e-12}}, 1, "x_grid"),
    "moments-r-inf": ({"kind": "moments", "r": math.inf}, 1, "config.r"),
    "lam-nan": ({"kind": "validate", "environment": _with_lam(math.nan)}, 1, "offspring.lam"),
    "lam-beyond-float": ({"kind": "validate", "environment": _with_lam(10**400)}, 1,
                         "offspring.lam"),
    "laplace-t-overflow": (
        {
            "kind": "laplace",
            "environment": _env_doc("none"),
            "x_grid": {"min": 1.0, "max": 1000.0, "step": 999.0},
        },
        2,
        "range",
    ),
    "geometric-s-too-small": (
        {
            "kind": "validate",
            "environment": {"atoms": [{**_env_doc()["atoms"][0], "prob": 1.0,
                                       "immigration": {"kind": "geometric", "s": 1e-5}}]},
        },
        2,
        "s >= 0.0001",
    ),
    "atom-probability-negative": (
        {"kind": "validate", "environment": {"atoms": [{**_env_doc()["atoms"][0],
                                                        "prob": -0.5}]}},
        2,
        "environment.atoms[0]: atom probability must lie in (0, 1], got -0.5",
    ),
    "atom-probability-above-one": (
        {"kind": "validate", "environment": {"atoms": [{**_env_doc()["atoms"][0],
                                                        "prob": 1.5}]}},
        2,
        "environment.atoms[0]: atom probability must lie in (0, 1], got 1.5",
    ),
    "integer-beyond-digit-limit": ({"replicates": _LONG_INT}, 1, "4300 digits"),
    "array-beyond-recursion-limit": ({"replicates": _DEEP_ARRAY}, 1, "recursion depth"),
    "horizon-beyond-max-generations": ({"kind": "elogw", "horizon": 10**12}, 1,
                                       "config.horizon"),
    "n-list-beyond-max-generations": ({"kind": "moments", "n_list": [10**12]}, 1,
                                      "config.n_list"),
    "threshold-beyond-int64-counts": ({"kind": "elogw", "promotion_threshold": 2**62}, 1,
                                      "at most 2305843009213693952"),
    "elogw-one-replicate": ({"kind": "elogw", "replicates": 1}, 2,
                            "at least 2 replicates, got 1"),
    "replicates-beyond-the-key-range": ({"kind": "elogw", "replicates": 2**64 + 1}, 2,
                                        "replicates must be at most 2**64"),
    "offspring-total-beyond-float": ({"kind": "elogw", "environment": _with_lam(1e308)}, 2,
                                     "overflows a double"),
    "geometric-q-too-small": (
        {
            "kind": "elogw",
            "environment": {"atoms": [{**_env_doc()["atoms"][0], "prob": 1.0,
                                       "offspring": {"kind": "shifted_geometric",
                                                     "q": 1e-200}}]},
        },
        2,
        "atoms[0].offspring: ShiftedGeometric requires q >= 1.492e-154",
    ),
    "decay-power-overflow": (
        {"kind": "decay", "q": 10000.0, "n_list": [0, 1, 2], "replicates": 200},
        2,
        "overflows a double for q = 10000.0",
    ),
    "moments-power-overflow": (
        {"kind": "moments", "r": 1000.0, "n_list": [10, 20], "replicates": 200},
        2,
        "overflows a double for r = 1000.0",
    ),
}
_REFUSAL_BASE = {"kind": "walk-oracle", "environment": _env_doc(), "n_list": [2],
                 "replicates": 50, "horizon": 2}


@pytest.mark.parametrize("doc, code, named", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_accepted_number_exits_with_its_code_without_traceback(tmp_path, doc, code, named):
    proc = _run_cli(tmp_path, {**_REFUSAL_BASE, **doc})
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "stream_offset" not in proc.stderr


@pytest.mark.parametrize("case", ["integer-beyond-digit-limit", "array-beyond-recursion-limit",
                                  "atom-probability-negative", "atom-probability-above-one"])
def test_refusal_exits_in_process_with_one_error_line(tmp_path, capsys, case):
    # cli.main's handlers of malformed JSON and of an atom's probability,
    # run in this process as well as in a fresh one
    doc, code, named = _REFUSALS[case]
    cfg, out = _write(tmp_path, {**_REFUSAL_BASE, **doc}), tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err
    assert not out.exists()



def test_offspring_overflow_exits_two_alike_at_any_thread_count(monkeypatch, tmp_path, capsys):
    # chunks of 20: the 60 replicates are three chunks, and on two CPUs
    # threads = 2 forks a worker, whose chunk fails like the caller's
    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _write(tmp_path, {"kind": "elogw", "environment": _with_lam(1e308), "replicates": 60,
                            "horizon": 4})
    seen = []
    for threads in ("1", "2"):
        code = main(["--config", cfg, "--out", str(tmp_path / threads), "--threads", threads])
        seen.append((code, capsys.readouterr().err))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2 and "overflows a double" in seen[0][1]


def test_chunk_worker_killed_by_a_signal_exits_four(monkeypatch, tmp_path, capsys):
    caller, chunk = os.getpid(), trajectory._simulate_chunk

    def killed_in_a_child(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        chunk(*args)

    monkeypatch.setattr(trajectory, "_CHUNK", 20)
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(trajectory, "_simulate_chunk", killed_in_a_child)
    cfg = _write(tmp_path, {"kind": "elogw", "environment": _env_doc(), "replicates": 60,
                            "horizon": 4, "threads": 2})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "chunk worker 1 was killed by signal 9" in err


def test_outputs_too_large_to_map_exit_four_alike_at_any_thread_count(tmp_path):
    # 2**40 replicates hold more bytes of batch output than a process capped
    # at 2 GiB of address space may map; the cap, set by the child on
    # itself, makes the refusal deterministic whatever the host's overcommit
    # policy, and the refusal comes before any chunk runs or forks
    capped = ("import resource, runpy\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
              "runpy.run_module('bpire.cli', run_name='__main__')\n")
    cfg = _write(tmp_path, {"kind": "elogw", "environment": _env_doc(), "replicates": 2**40})
    seen = []
    for threads in ("1", "2"):
        proc = _python("-c", capped, "--config", cfg, "--out", str(tmp_path / threads),
                       "--threads", threads)
        seen.append((proc.returncode, proc.stderr))
    assert seen == [(4, "error: I/O failure: [Errno 12] Cannot allocate memory\n")] * 2

_OFFSPRING_DOCS = st.one_of(
    st.builds(lambda lam: {"kind": "shifted_poisson", "lam": lam},
              st.floats(0.0, sys.float_info.max, exclude_min=True)),
    st.builds(lambda q: {"kind": "shifted_geometric", "q": q},
              st.one_of(st.just(GEOMETRIC_Q_MIN),
                        st.floats(GEOMETRIC_Q_MIN, 1.0, exclude_max=True))),
)
_IMMIGRATION_DOCS = st.one_of(
    st.just({"kind": "none"}),
    st.builds(lambda nu: {"kind": "poisson", "nu": nu},
              st.one_of(st.just(POISSON_NU_MAX), st.floats(0.0, POISSON_NU_MAX))),
    st.builds(lambda s: {"kind": "geometric", "s": s},
              st.one_of(st.just(GEOMETRIC_S_MIN), st.floats(GEOMETRIC_S_MIN, 1.0))),
)
_SCALAR = st.floats(-1e3, 1e3)


@st.composite
def _configs(draw, kind: str) -> dict:
    """A config of ``kind`` that the parser accepts, at small sizes."""
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    atoms = [
        {"offspring": draw(_OFFSPRING_DOCS), "immigration": draw(_IMMIGRATION_DOCS),
         "prob": w / sum(weights)}
        for w in weights
    ]
    x_min, step = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-3, 1e2))
    return {
        "kind": kind,
        "environment": {"atoms": atoms},
        "x_grid": {"min": x_min, "max": x_min + step * draw(st.integers(0, 4)), "step": step},
        "n_list": draw(st.lists(st.integers(0, 8), min_size=1, max_size=4)),
        "replicates": draw(st.integers(1, 64)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "horizon": draw(st.integers(0, 8)),
        "q": draw(_SCALAR),
        "r": draw(_SCALAR),
        "delta": draw(_SCALAR),
        "p": draw(_SCALAR),
        "promotion_threshold": draw(st.one_of(
            st.sampled_from([MIN_PROMOTION_THRESHOLD, MAX_PROMOTION_THRESHOLD]),
            st.integers(MIN_PROMOTION_THRESHOLD, MAX_PROMOTION_THRESHOLD),
        )),
        "threads": 1,
    }


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6, deadline=10_000, derandomize=True, database=None)
@given(data=st.data())
def test_every_accepted_config_exits_with_a_documented_code(kind, data):
    # 6 examples for each of the 8 kinds; in-process, so an exception
    # escaping main fails the example
    doc = data.draw(_configs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["--config", _write(Path(tmp), doc), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3, 4)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's ``bpire``."""
    src = str(Path(bpire.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def _run_cli(tmp_path, doc) -> subprocess.CompletedProcess:
    """Run the CLI's process entry on ``doc`` in a fresh interpreter."""
    return _python(
        "-m", "bpire.cli", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")
    )


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats would cost most of the CLI's start-up; no run needs scipy
    proc = _python("-c", "import sys, bpire.cli; print('scipy.stats' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def _blas_after(imports: str) -> dict:
    """The BLAS variables and the OS thread count (None without /proc) of a
    fresh interpreter after ``imports``."""
    proc = _python("-c", (
        f"import json, os\n{imports}\n"
        "task = '/proc/self/task'\n"
        f"print(json.dumps({{'env': {{v: os.environ.get(v) for v in {BLAS_VARS!r}}},\n"
        "                   'threads': len(os.listdir(task)) if os.path.isdir(task) else None}))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def blas_unset(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def test_cli_import_starts_no_blas_thread(blas_unset):
    # numpy's OpenBLAS starts a pool at import that spins on idle CPUs, and
    # no run uses BLAS threads: imported before numpy, the command line pins
    # it to one thread, so the chunk pool is a process's only parallelism
    seen = _blas_after("import bpire.cli")
    assert seen["env"] == dict.fromkeys(BLAS_VARS, "1")
    if seen["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["threads"] == 1


def test_cli_import_keeps_a_user_blas_setting(blas_unset):
    blas_unset.setenv("OPENBLAS_NUM_THREADS", "2")
    env = _blas_after("import bpire.cli")["env"]
    assert env == {**dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": "2"}


def test_cli_import_after_numpy_leaves_the_environment_alone(blas_unset):
    # a library caller that loaded numpy first keeps the pool it has
    env = _blas_after("import numpy, bpire.cli")["env"]
    assert env == dict.fromkeys(BLAS_VARS)


#: One small config of each kind, run by ``test_start_up_loads_no_scipy``
#: (decay's is ``_DECAY_DOC``, which reaches its fit): every kind reads the
#: keys it needs.
_KIND_DOCS = {
    kind: {"kind": kind, "environment": _env_doc("none" if kind == "laplace" else "poisson"),
           "x_grid": {"min": -1.0, "max": 1.0, "step": 1.0}, "n_list": [2, 4], "horizon": 4,
           "replicates": 200, "q": 1.0, "r": 3.0, "threads": 1}
    for kind in KINDS
}
# the moments and Laplace gates compare at least two generations n >= 10
# and two points t >= e
_KIND_DOCS["moments"]["n_list"] = [10, 12]
_KIND_DOCS["laplace"]["x_grid"] = {"min": -1.0, "max": 2.0, "step": 1.0}


#: Source, for a fresh interpreter, of ``watched()``: the loaded modules a run
#: may not need, which are scipy (about half of a process's start-up),
#: concurrent.futures (multiprocessing, socket, logging and subprocess, for a
#: pool alone) and the estimator layers.
_WATCHED = (
    "import sys\n"
    "def watched():\n"
    "    return sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'concurrent')\n"
    "                  or m in ('bpire.analytics', 'bpire.mc_verify'))\n"
)


def test_package_import_loads_no_estimator_layer_and_no_pool():
    proc = _python("-c", _WATCHED + (
        "import json\n"
        "import bpire\n"
        "loaded = {'import bpire': watched()}\n"
        "import bpire.trajectory\n"
        "loaded['import bpire.trajectory'] = watched()\n"
        "print(json.dumps(loaded))\n"
    ))
    assert json.loads(proc.stdout) == {"import bpire": [], "import bpire.trajectory": []}, \
        proc.stderr


#: The classes of ``bpire`` that stay frozen dataclasses (see the
#: ``bpire.env_model`` docstring for why each needs a dataclass feature).
_DATACLASSES = [
    "cli.GridSpec",
    "env_model.EnvAtom", "env_model.EnvironmentModel", "env_model.GeometricImmigration",
    "env_model.NoImmigration", "env_model.PoissonImmigration", "env_model.ShiftedGeometric",
    "env_model.ShiftedPoisson",
    "trajectory.BatchResult", "trajectory.WalkBatch",
]


def test_only_records_that_use_a_dataclass_feature_are_dataclasses():
    proc = _python("-c", (
        "import dataclasses, json, sys, bpire.cli\n"
        "print(json.dumps(sorted(\n"
        "    f'{name[6:]}.{attr}' for name, m in list(sys.modules.items())\n"
        "    if name.startswith('bpire.') for attr, v in vars(m).items()\n"
        "    if isinstance(v, type) and v.__module__ == name and dataclasses.is_dataclass(v))))\n"
    ))
    assert json.loads(proc.stdout) == _DATACLASSES, (
        "a record is a NamedTuple unless it validates its fields, is told apart from other "
        "types by value, or inherits fields; only these stay frozen dataclasses",
        proc.stderr,
    )


def test_every_public_name_imports():
    proc = _python("-c", (
        "import importlib, json, bpire\n"
        "from bpire import *\n"
        "wrong = [n for n in bpire.__all__ if globals()[n] is not\n"
        "         getattr(importlib.import_module('bpire.' + bpire._MODULE_OF[n]), n)]\n"
        "print(json.dumps([len(bpire.__all__), wrong, sorted(set(bpire.__all__) - set(dir(bpire)))]))\n"
    ))
    assert json.loads(proc.stdout) == [28, [], []], proc.stderr


def test_dir_lists_every_public_name():
    # the same check in this interpreter, where bpire.__dir__ runs traced
    assert set(bpire.__all__) <= set(dir(bpire))


def test_start_up_loads_no_scipy(tmp_path):
    # every kind at threads = 1, one after another in one fresh interpreter:
    # none loads scipy, and none starts a pool, so none loads
    # concurrent.futures
    docs = {**_KIND_DOCS, "decay": {**_DECAY_DOC, "threads": 1}}
    runs = {
        kind: ["--config", _write(tmp_path, doc, f"{kind}.json"), "--out", str(tmp_path / kind)]
        for kind, doc in docs.items()
    }
    proc = _python("-c", _WATCHED + (
        "import json\n"
        "import bpire.cli\n"
        "loaded = {'import bpire.cli': watched()}\n"
        f"for kind, argv in {runs!r}.items():\n"
        "    loaded[kind] = [bpire.cli.main(argv), watched()]\n"
        "print(json.dumps(loaded))\n"
    ))
    loaded = json.loads(proc.stdout.splitlines()[-1])
    layers = ["bpire.analytics", "bpire.mc_verify"]  # the command line's own imports
    assert loaded.pop("import bpire.cli") == layers
    assert loaded == {kind: [0, layers] for kind in KINDS}, proc.stderr
    assert (tmp_path / "decay" / "fit.csv").exists()



def test_forked_batch_loads_no_pool_and_leaves_no_child(tmp_path):
    # a rate run at threads = 2 on two CPUs: its main batch of three chunks
    # forks a chunk worker, which loads nothing and is reaped before main
    # returns
    argv = ["--config", _write(tmp_path, {**_rate_doc(), "replicates": 20_000, "threads": 2}),
            "--out", str(tmp_path / "o")]
    proc = _python("-c", _WATCHED + (
        "import json, os\n"
        "import bpire.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"code = bpire.cli.main({argv!r})\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    left = True\n"
        "except ChildProcessError:\n"
        "    left = False\n"
        "print(json.dumps([code, len(forks) > 0, watched(), left]))\n"
    ))
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        0, True, ["bpire.analytics", "bpire.mc_verify"], False], proc.stderr

#: Source, for a fresh interpreter, of ``entry(argv)``: the exit code of the
#: command line's process entry on ``argv``, run as ``__main__`` the way
#: ``python -m bpire.cli`` runs it, the collector's freeze count as ``main``
#: parses its arguments, and the count at exit.
_ENTRY = (
    "import argparse, gc, runpy, sys\n"
    "def entry(argv):\n"
    "    at_parse = []\n"
    "    parse = argparse.ArgumentParser.parse_args\n"
    "    def spy(self, *args):\n"
    "        at_parse.append(gc.get_freeze_count())\n"
    "        return parse(self, *args)\n"
    "    argparse.ArgumentParser.parse_args = spy\n"
    "    sys.argv = ['bpire', *argv]\n"
    "    try:\n"
    "        runpy.run_module('bpire.cli', run_name='__main__')\n"
    "    except SystemExit as exc:\n"
    "        return [exc.code, at_parse, gc.get_freeze_count()]\n"
)


def test_process_entry_freezes_the_import_time_heap_before_main(tmp_path):
    # the objects the imports left behind move to the collector's permanent
    # generation before main runs, so the interpreter's shutdown no longer
    # traverses them
    argv = ["--config", _write(tmp_path, _VALIDATE_DOC), "--out", str(tmp_path / "o")]
    proc = _python("-c", _ENTRY + f"import json\nprint(json.dumps(entry({argv!r})))\n")
    code, at_parse, at_exit = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert len(at_parse) == 1 and at_parse[0] > 0
    assert at_exit > 0


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    # every kind through main in one fresh interpreter, every other one with
    # the collector disabled: none freezes the heap or switches the
    # collector.  The process entry then freezes it in the same interpreter,
    # so a zero count is one the probe could have seen otherwise.
    docs = {**_KIND_DOCS, "decay": {**_DECAY_DOC, "threads": 1}}
    runs = {
        kind: ["--config", _write(tmp_path, doc, f"{kind}.json"), "--out", str(tmp_path / kind)]
        for kind, doc in docs.items()
    }
    proc = _python("-c", (
        "import gc, json, sys\n"
        "import bpire.cli\n"
        "seen = {}\n"
        f"for i, (kind, argv) in enumerate({runs!r}.items()):\n"
        "    (gc.enable if i % 2 == 0 else gc.disable)()\n"
        "    code = bpire.cli.main(argv)\n"
        "    seen[kind] = [code, gc.get_freeze_count(), gc.isenabled()]\n"
        "gc.enable()\n"
        f"sys.argv = ['bpire', *{runs['validate']!r}]\n"
        "try:\n"
        "    bpire.cli.run()\n"
        "except SystemExit as exc:\n"
        "    seen['run'] = [exc.code, gc.get_freeze_count() > 0, gc.isenabled()]\n"
        "print(json.dumps(seen))\n"
    ))
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("run") == [0, True, True], proc.stderr
    assert seen == {kind: [0, 0, i % 2 == 0] for i, kind in enumerate(KINDS)}


def test_console_script_takes_the_process_entry():
    # both ways a user starts the command line, the ``bpire`` script and
    # ``python -m bpire.cli``, go through run; pyproject.toml is read as
    # text, since tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
    assert dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts, re.M)) == {"bpire": "bpire.cli:run"}
    guard = ast.parse(Path(bpire.__file__).with_name("cli.py").read_text()).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"


@pytest.mark.parametrize(
    "doc, code",
    [(_VALIDATE_DOC, 0), (_UNKNOWN_KEY_DOC, 1), (_BAD_LAW_DOC, 2),
     (_INCONCLUSIVE_DECAY_DOC, 3), (None, 4)],
    ids=["ok", "unknown-key", "bad-law", "inconclusive-decay", "unreadable-config"],
)
def test_process_entry_exits_with_the_code_main_returns(tmp_path, capsys, doc, code):
    config = _write(tmp_path, doc) if doc is not None else str(tmp_path / "missing.json")
    argv = ["--config", config, "--out", str(tmp_path / "o")]
    proc = _python("-m", "bpire.cli", *argv)
    assert main(argv) == code
    here = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, here.out, here.err)
    assert "Traceback" not in proc.stderr


def test_threshold_below_minimum_exits_one_with_reason(tmp_path):
    doc = {"kind": "elogw", "environment": _env_doc(), "replicates": 50, "horizon": 40}
    proc = _run_cli(tmp_path, {**doc, "promotion_threshold": 3})
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "promotion_threshold must be at least 1024" in proc.stderr
    assert "log step" in proc.stderr
    assert "Traceback" not in proc.stderr
    with pytest.raises(ConfigError, match="promotion_threshold"):
        parse_config({**doc, "promotion_threshold": 2**10 - 1})
    assert parse_config({**doc, "promotion_threshold": 2**10}).promotion_threshold == 2**10


def test_unreadable_config_exits_four(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 4


def test_output_directory_below_a_file_exits_four_before_any_batch(monkeypatch, tmp_path,
                                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch ran before the output directory was made")

    monkeypatch.setattr("bpire.mc_verify.run_batch", refuse)
    (tmp_path / "file").write_text("")
    doc = {"kind": "elogw", "environment": _env_doc(), "replicates": 50, "horizon": 2}
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "file" / "o")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: I/O failure: ")


def test_inconclusive_decay_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--config", _write(tmp_path, _INCONCLUSIVE_DECAY_DOC), "--out", str(out)])
    assert code == 3
    # decay.csv written, fit.csv is header-only
    assert (out / "decay.csv").exists()
    assert (out / "fit.csv").read_text() == "slope,rho_hat,ci_lo,ci_hi\n"


def test_unstable_berry_esseen_constant_exits_three(tmp_path, capsys):
    # offspring means 2 and 2 + 1e-6 make sigma about 2.5e-7, while Poisson(5)
    # immigrants keep log W far from 0: at n = 64 every standardized sample
    # lies outside the grid [-4, 4], so sup_dev >= (Phi(4) - Phi(-4)) / 2 and
    # c_fit >= 4, where at n = 1 c_fit = sup_dev <= 1.  The constants are a
    # factor 2 apart whatever the draws.
    doc = {
        "kind": "berry-esseen",
        "environment": {"atoms": [
            {"offspring": {"kind": "shifted_poisson", "lam": lam},
             "immigration": {"kind": "poisson", "nu": 5.0}, "prob": 0.5}
            for lam in (1.0, 1.0 + 1e-6)]},
        "x_grid": {"min": -4.0, "max": 4.0, "step": 0.05},
        "n_list": [1, 64],
        "replicates": 200,
    }
    for seed in range(5):
        out = tmp_path / str(seed)
        code = main(["--config", _write(tmp_path, {**doc, "master_seed": seed}),
                     "--out", str(out)])
        assert code == 3
        assert "not stable within factor 2" in capsys.readouterr().out
        c_fits = [float(line.split(",")[3])
                  for line in (out / "berry_esseen.csv").read_text().split("\n")[1:-1]]
        assert c_fits[0] <= 1.0 and c_fits[1] >= 4.0 * 0.9999


# ------------------------------------------------------------ CSV artifacts


def _rate_doc(seed=12):
    return {
        "kind": "rate",
        "environment": _env_doc(),
        "x_grid": {"min": -1.0, "max": 1.0, "step": 1.0},
        "n_list": [2, 4],
        "replicates": 4000,
        "master_seed": seed,
        "horizon": 6,
    }


def test_rate_csv_schema_and_precision(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, _rate_doc()), "--out", str(out)]) == 0
    lines = (out / "rate.csv").read_text().split("\n")
    assert lines[0] == "x,n,dhat,se,g_pred,q_pred"
    assert lines[-1] == ""  # trailing newline
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 6  # 3 grid points x 2 generations
    for row in rows:
        assert len(row) == 6
        floats = [float(v) for v in row]
        # 17 significant digits round-trip float64 exactly
        for printed, value in zip(row[2:], floats[2:]):
            assert float(printed) == value
            assert f"{value:.17g}" == printed
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 12
    assert manifest["config"]["kind"] == "rate"
    assert "version" in manifest and "wall_time_s" in manifest


def test_rerun_and_thread_override_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, _rate_doc())
    outs = []
    for name, threads in [("a", None), ("b", None), ("c", "2")]:
        out = tmp_path / name
        argv = ["--config", cfg, "--out", str(out)]
        if threads:
            argv += ["--threads", threads]
        assert main(argv) == 0
        outs.append((out / "rate.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, _rate_doc())
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["--config", cfg, "--out", str(out_a)]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "--seed", "999"]) == 0
    assert (out_a / "rate.csv").read_bytes() != (out_b / "rate.csv").read_bytes()
    manifest = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 999


def test_walk_oracle_csv(tmp_path):
    doc = {
        "kind": "walk-oracle",
        "environment": _env_doc(),
        "x_grid": {"min": -1.0, "max": 1.0, "step": 1.0},
        "n_list": [4],
        "replicates": 4000,
        "master_seed": 5,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "walk_oracle.csv").read_text().split("\n")
    assert lines[0] == "x,n,dhat,se,g_pred,q_pred"
    assert len(lines) == 5  # header + 3 rows + trailing empty


def test_elogw_csv(tmp_path):
    doc = {
        "kind": "elogw",
        "environment": _env_doc(),
        "replicates": 3000,
        "horizon": 8,
        "master_seed": 4,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "elogw.csv").read_text().split("\n")
    assert lines[0] == "N,mean,se,last_increment_estimate,last_increment_se"
    fields = lines[1].split(",")
    assert fields[0] == "8"
    assert 0.3 < float(fields[1]) < 0.5


_DECAY_DOC = {
    "kind": "decay",
    "environment": _env_doc(),
    "q": 1.0,
    "n_list": list(range(5, 16)),
    "replicates": 4000,
    "master_seed": 21,
}


def test_decay_csv_and_fit(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, _DECAY_DOC), "--out", str(out)]) == 0
    lines = (out / "decay.csv").read_text().split("\n")
    assert lines[0] == "n,estimate,se,qualifies"
    assert all(line.split(",")[3] in ("true", "false") for line in lines[1:-1])
    fit = (out / "fit.csv").read_text().split("\n")
    assert fit[0] == "slope,rho_hat,ci_lo,ci_hi"
    slope, rho, lo, hi = (float(v) for v in fit[1].split(","))
    assert slope < 0 and lo > 1.0 and lo < rho < hi


def test_decay_fit_in_a_fresh_interpreter_matches_in_process(tmp_path):
    # a fresh interpreter loads no scipy, and the fit's t quantile needs none;
    # this process has loaded scipy for other tests
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, _DECAY_DOC), "--out", str(out)]) == 0
    proc = _run_cli(tmp_path, _DECAY_DOC)
    assert proc.returncode == 0, proc.stderr
    for name in ("decay.csv", "fit.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (out / name).read_bytes()


def test_berry_esseen_csv(tmp_path):
    doc = {
        "kind": "berry-esseen",
        "environment": _env_doc(),
        "x_grid": {"min": -4.0, "max": 4.0, "step": 0.05},
        "n_list": [4, 8],
        "replicates": 4000,
        "master_seed": 6,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "berry_esseen.csv").read_text().split("\n")
    assert lines[0] == "n,sup_dev,se_max,c_fit"
    assert len(lines) == 4


def test_laplace_csv_uses_log_scale_grid(tmp_path):
    doc = {
        "kind": "laplace",
        "environment": _env_doc(immigration="none"),
        "x_grid": {"min": 2.0, "max": 8.0, "step": 2.0},
        "horizon": 10,
        "replicates": 3000,
        "master_seed": 9,
        "r": 2.0,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "laplace.csv").read_text().split("\n")
    assert lines[0] == "t,phi_hat,se,logt_pow_r_times_phi"
    ts = [float(line.split(",")[0]) for line in lines[1:-1]]
    assert ts == pytest.approx([math.e**2, math.e**4, math.e**6, math.e**8])


def test_laplace_with_immigration_exits_two(tmp_path, capsys):
    doc = {
        "kind": "laplace",
        "environment": _env_doc(),
        "x_grid": {"min": 2.0, "max": 4.0, "step": 2.0},
        "horizon": 5,
        "replicates": 100,
    }
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2


def test_moments_csv(tmp_path):
    doc = {
        "kind": "moments",
        "environment": _env_doc(),
        "r": 2.0,
        "n_list": [10, 20],
        "replicates": 3000,
        "master_seed": 14,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "moments.csv").read_text().split("\n")
    assert lines[0] == "n,r,estimate,se"
    assert lines[1].startswith("10,2,")
    assert lines[2].startswith("20,2,")
