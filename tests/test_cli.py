"""Command line: strict config schema, exit codes, CSV artifacts,
byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpire
from bpire.cli import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    main,
    parse_config,
    serialize_config,
)
from conftest import make_env_a


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


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
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
    assert cfg.promotion_threshold == 2**40


# --------------------------------------------------------------- exit codes


def test_validate_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, {"kind": "validate", "environment": _env_doc()})
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "validation checks" in out
    assert "hypothesis audit" in out


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "rate",\n  "oops,\n}\n')
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_unknown_key_exits_one(tmp_path, capsys):
    doc = {"kind": "validate", "environment": _env_doc(), "bogus": 1}
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


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
    doc = {"kind": "validate", "environment": _env_doc()}
    doc["environment"]["atoms"][0]["offspring"]["lam"] = -1.0
    code = main(["--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2


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


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "moments", "r": -1.0, "n_list": [2]},
        {"kind": "decay", "q": 0.0, "n_list": [2, 3, 4]},
        {"kind": "validate", "p": 1.0},
    ],
    ids=["moments-r", "decay-q", "validate-p"],
)
def test_failed_precondition_exits_two_without_traceback(tmp_path, doc):
    proc = _run_cli(tmp_path, {**doc, "environment": _env_doc(), "replicates": 50})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _run_cli(tmp_path, doc) -> subprocess.CompletedProcess:
    """Run the CLI on ``doc`` in a fresh interpreter."""
    src = str(Path(bpire.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "bpire.cli", "--config", _write(tmp_path, doc),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )


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


def test_inconclusive_decay_exits_three(tmp_path, capsys):
    doc = {
        "kind": "decay",
        "environment": _env_doc(),
        "q": 1.0,
        "n_list": [20, 22, 24],
        "replicates": 8,
        "master_seed": 2,
    }
    out = tmp_path / "out"
    code = main(["--config", _write(tmp_path, doc), "--out", str(out)])
    assert code == 3
    # decay.csv written, fit.csv is header-only
    assert (out / "decay.csv").exists()
    assert (out / "fit.csv").read_text() == "slope,rho_hat,ci_lo,ci_hi\n"


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


def test_decay_csv_and_fit(tmp_path):
    doc = {
        "kind": "decay",
        "environment": _env_doc(),
        "q": 1.0,
        "n_list": list(range(5, 16)),
        "replicates": 4000,
        "master_seed": 21,
    }
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "decay.csv").read_text().split("\n")
    assert lines[0] == "n,estimate,se,qualifies"
    assert all(line.split(",")[3] in ("true", "false") for line in lines[1:-1])
    fit = (out / "fit.csv").read_text().split("\n")
    assert fit[0] == "slope,rho_hat,ci_lo,ci_hi"
    slope, rho, lo, hi = (float(v) for v in fit[1].split(","))
    assert slope < 0 and lo > 1.0 and lo < rho < hi


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
