"""Golden outputs: every CLI kind, run through ``cli.main`` at small R, must
reproduce recorded sha256 digests of its CSVs, its stdout and stderr, and its
``run_manifest.json`` (with the value of ``wall_time_s`` removed).  The library
cases cover the simulator paths no CLI kind reaches (the coupled shadow
population, low promotion thresholds, single paths) and pin the laws'
inversion tables, table bounds and moment series bit for bit; their digests
are of the raw bytes of every array they return.

A change that alters outputs on purpose updates ``GOLDEN`` and gives the
reason in CHANGES.md.  The digests depend on numpy's SIMD dispatch as well
as on the code: the array step computes ``exp``, ``log`` and ``log1p``
with numpy's vectorised kernels, which are not correctly rounded and differ
between instruction sets.  On an AVX-512 Xeon, ``np.exp`` differed from
``math.exp`` on about 4.6% of uniform arguments in [-50, 0] and
``np.log1p`` from ``math.log1p`` on 1.1% of arguments in [-1e-3, 1e-3]
(7.7% in [-0.5, 1]), so a host with another dispatch target may print
other digests from the same tree.  To print the digests of the current
tree::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bpire
from bpire import (
    GeometricImmigration,
    NoImmigration,
    PoissonImmigration,
    ShiftedGeometric,
    ShiftedPoisson,
    simulate_batch,
)
from bpire.analytics import _immigration_power_moment, _offspring_power_moment
from bpire.cli import KINDS, _parse_environment, main
from bpire.env_model import GEOMETRIC_S_MIN, immigration_table_entries
from bpire.sampler import immigration_cdf_table
from conftest import BLAS_VARS, make_env_a

# Two atoms that between them use every law kind but "none": geometric
# offspring with geometric immigration, Poisson offspring with Poisson
# immigration.
_MIXED_ENV = {
    "atoms": [
        {
            "offspring": {"kind": "shifted_geometric", "q": 0.4},
            "immigration": {"kind": "geometric", "s": 0.5},
            "prob": 0.3,
        },
        {
            "offspring": {"kind": "shifted_poisson", "lam": 1.0},
            "immigration": {"kind": "poisson", "nu": 2.0},
            "prob": 0.7,
        },
    ]
}

# Offspring means 2 and 8: lattice log-means, span log 4.
_PURE_ENV = {
    "atoms": [
        {
            "offspring": {"kind": "shifted_poisson", "lam": 1.0},
            "immigration": {"kind": "none"},
            "prob": 0.75,
        },
        {
            "offspring": {"kind": "shifted_poisson", "lam": 7.0},
            "immigration": {"kind": "none"},
            "prob": 0.25,
        },
    ]
}

_R = 512

CASES = {
    "rate": {
        "kind": "rate",
        "environment": _MIXED_ENV,
        "x_grid": {"min": -1.0, "max": 1.0, "step": 0.5},
        "n_list": [2, 5],
        "horizon": 6,
    },
    "walk-oracle": {
        "kind": "walk-oracle",
        "environment": _MIXED_ENV,
        "x_grid": {"min": -1.0, "max": 1.0, "step": 0.5},
        "n_list": [4, 8],
    },
    "elogw": {"kind": "elogw", "environment": _MIXED_ENV, "horizon": 8},
    "decay": {"kind": "decay", "environment": _MIXED_ENV, "q": 1.0, "n_list": [3, 4, 5, 6, 7]},
    # Too few replicates for three rows to pass the 5-SE gate: exit 3.
    "decay-inconclusive": {
        "kind": "decay",
        "environment": _MIXED_ENV,
        "n_list": [20, 22, 24],
        "replicates": 8,
    },
    "berry-esseen": {
        "kind": "berry-esseen",
        "environment": _MIXED_ENV,
        "x_grid": {"min": -4.0, "max": 4.0, "step": 0.05},
        "n_list": [4, 8],
    },
    # One grid point, so both grid warnings.  Whether the implied constants
    # at n = 1 and n = 30 differ by more than a factor 2 depends on the
    # draws at R = 512: the gate failed (exit 3) under draw layout 2,
    # passed under layout 3 and fails again under layout 4, whose default
    # threshold of 2**20 promotes columns by n = 30.
    "berry-esseen-unstable": {
        "kind": "berry-esseen",
        "environment": _PURE_ENV,
        "x_grid": {"min": 0.0, "max": 0.0, "step": 1.0},
        "n_list": [1, 30],
    },
    "laplace": {
        "kind": "laplace",
        "environment": _PURE_ENV,
        "x_grid": {"min": 2.0, "max": 8.0, "step": 2.0},
        "horizon": 8,
        "r": 2.0,
    },
    "moments": {"kind": "moments", "environment": _MIXED_ENV, "r": 1.5, "n_list": [10, 12]},
    "validate": {"kind": "validate", "environment": _PURE_ENV, "p": 2.5, "delta": 1.5},
    # One atom: sigma_positive fails, so validate exits 2 after its report.
    "validate-one-atom": {
        "kind": "validate",
        "environment": {"atoms": [{**_MIXED_ENV["atoms"][1], "prob": 1.0}]},
    },
}


def _batch(env, threshold: int = 2**40):
    batch = simulate_batch(
        env, 48, 256, master_seed=11, record=(0, 1, 7, 20, 48),
        couple_no_immigration=True, threshold=threshold,
    )
    return {"log_z": batch.log_z, "s": batch.s, "log_zbar": batch.log_zbar}


def _long(env, couple: bool, threshold: int):
    # long enough for every column to grow far past the promotion threshold
    batch = simulate_batch(
        env, 320, 256, master_seed=11, record=(100, 200, 320),
        couple_no_immigration=couple, threshold=threshold,
    )
    return {"log_z": batch.log_z, "s": batch.s, "log_zbar": batch.log_zbar}


def _path(couple: bool):
    # one path: column 0 of a one-replicate batch recording every generation
    batch = simulate_batch(
        _parse_environment(_MIXED_ENV), 40, 1, master_seed=5, record=range(41),
        couple_no_immigration=couple, threshold=2**10, stream_offset=3,
    )
    return {"log_z": batch.log_z[:, 0], "s": batch.s[:, 0],
            "log_zbar": batch.log_zbar[:, 0] if couple else None}


def _laws():
    # every law's inversion table (concatenated; ``table_sizes`` splits it),
    # its bound and the audit's moment series, across each family's range
    # and at the degenerate laws
    imm = ([GeometricImmigration(s=s) for s in np.geomspace(GEOMETRIC_S_MIN, 1.0, 40).tolist()]
           + [PoissonImmigration(nu=nu) for nu in np.geomspace(1e-12, 708.0, 40).tolist()]
           + [PoissonImmigration(nu=0.0), NoImmigration()])
    off = ([ShiftedPoisson(lam=lam) for lam in np.geomspace(1e-3, 5000.0, 20).tolist()]
           + [ShiftedGeometric(q=q) for q in np.geomspace(1e-3, 0.999, 20).tolist()])
    tables = [immigration_cdf_table(law) for law in imm]
    return {
        "cdf_tables": np.concatenate(tables),
        "table_sizes": np.array([t.size for t in tables]),
        "table_entries": np.array([immigration_table_entries(law) for law in imm]),
        "immigration_moments": np.array(
            [[_immigration_power_moment(law, p) for p in (0.5, 2.0, 3.0)] for law in imm]),
        "offspring_moments": np.array(
            [[_offspring_power_moment(law, p) for p in (1.5, 2.0, 4.0)] for law in off]),
    }


# Library cases: each returns the arrays whose raw bytes are digested.  At
# threshold 2**10 the exact regime uses its Gaussian tail before promotion.
CASES.update({
    "lib-coupled-env-a": lambda: _batch(make_env_a()),
    "lib-coupled-env-a-t1024": lambda: _batch(make_env_a(), 2**10),
    "lib-coupled-mixed": lambda: _batch(_parse_environment(_MIXED_ENV)),
    "lib-coupled-mixed-t1024": lambda: _batch(_parse_environment(_MIXED_ENV), 2**10),
    "lib-long-env-a": lambda: _long(make_env_a(), False, 2**40),
    "lib-long-coupled-mixed": lambda: _long(_parse_environment(_MIXED_ENV), True, 2**10),
    "lib-path": lambda: _path(False),
    "lib-path-coupled": lambda: _path(True),
    "lib-laws": _laws,
})

# Recorded with draw layout 4 (``bpire.trajectory.DRAW_LAYOUT``).
GOLDEN = {
    "berry-esseen": {
        "exit": 0,
        "stdout": "71a5dee9d287c248d3790700978d4a2bbd61f5de3a150e4d3d636ba555743ad5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "berry_esseen.csv": "6d1248b7a53060601a27290fc85a2dd33c7b6bef76a1349b4411e594d40d8ccb",
            "run_manifest.json": "21ce284f270579a780d120e6accfc3d248e049986dfc69718b4c06dc6ef9e694"
        }
    },
    "berry-esseen-unstable": {
        "exit": 3,
        "stdout": "39520f79518a9ca27dc58242e630821bb2d9787394ec936755c9f0aef2077864",
        "stderr": "f5370521fb66614cdc0fc9e903fa92f76c5996484b73b8be1912e04276203536",
        "files": {
            "berry_esseen.csv": "7974a570db381347c0d0f455715681a471deae52d8c117b6f1fd7672df5a30bf",
            "run_manifest.json": "f4cf8503908d7ba8ad41e1a01d314b975bf6b9265a7766f87b0653e4709a382e"
        }
    },
    "decay": {
        "exit": 0,
        "stdout": "4f9bcf293b5a87d98ee31b27e57d91333ac2bde0ab8653655b7da98dde8184cb",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "fb64683b5203649a735359674e5a8f4f54538faa6e02ac7c6dbdc8015e4effb2",
            "fit.csv": "f2414f5934812629166cf357eb3d8c3c190d4ff5fa836e6cab38c87c5872e0d8",
            "run_manifest.json": "b23d44b81719a6b4c9977c28b72233766522fa9bf2304c4dec56a9bc1cbede63"
        }
    },
    "decay-inconclusive": {
        "exit": 3,
        "stdout": "57e787e1a68472983ed242cc19f3ca788f2c09510b07d21dab82a3128984e445",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "22c90e114486c8888941c730346b5f7ddb6d0b18b10b4b24609526673d00d81a",
            "fit.csv": "ff2760e717e0c2cf06306af1f31195eda5955df08de3a1b59ff95be46fc305f0",
            "run_manifest.json": "c4e19bf2af6b3ff1eed29e744c75a3bd2fd8a6160057c7d09a9134ddf293e1ee"
        }
    },
    "elogw": {
        "exit": 0,
        "stdout": "94ccb98f8d4f39fe29cadc54074d21ff24e20f4f27b7373243b7cb76adfee690",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "elogw.csv": "b7e87199e07c72a7c912e3d360d91c557cd86e0b1fe245aa7a3b63921fedec81",
            "run_manifest.json": "c68696f101b91886a79f46d0d324798f4f206b63f1a2f23c2d9353ea25e78ab2"
        }
    },
    "laplace": {
        "exit": 0,
        "stdout": "30d01b08dfc3dd473781dd09526c6db599e85b22e5290deca92a78f8442eac28",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "laplace.csv": "5d21d0643adad505579952c9389562b121772ff68a566fb43eb623c7b2e73bd2",
            "run_manifest.json": "70005ccb65811c15b728268b8d8953d3cc1659d2cdbb8ed7622d3b5b8659fed9"
        }
    },
    "lib-coupled-env-a": {
        "log_z": "dea65433393333064ca6e4d37ee7c0d3d258d7b28fc98ba83afbffe71b585887",
        "log_zbar": "3904f0853b772c964c55eaa693c243521dfa7e09bfe127aa4cf229190c4dcb03",
        "s": "e6a830e9170b14ea2fa3a173581112421277c100b34cdaf43b778a15ed24c12d"
    },
    "lib-coupled-env-a-t1024": {
        "log_z": "4b7ba43a1a5bd07e3358c643c3b040366c6ce75ef1d20b473368ad975d141c9e",
        "log_zbar": "17b90d0c3b7cd7818312c5f0440dfd420742c4d2dc8c7cca3721dafb302aebe3",
        "s": "e6a830e9170b14ea2fa3a173581112421277c100b34cdaf43b778a15ed24c12d"
    },
    "lib-coupled-mixed": {
        "log_z": "0e5ff023fe72afff3b55e77b6d0a711e4d0c9e02200005b8051a3fad43abdbcf",
        "log_zbar": "78b720c0e75d9dbf04c99a0aad7ed44d449965ce640e580803eeb05605b6c4a3",
        "s": "6dbf62f533511ec31819304bfe09cbeb70b88b5a7e64bbe88cc418f8dc2d00ae"
    },
    "lib-coupled-mixed-t1024": {
        "log_z": "48b46e10351596ae137e262c04ab602caf2e043b3b4c39a079a56c2c2ff80291",
        "log_zbar": "d6b485e2648aff9ea8aae2531f232757faf2214b177c553b025cef648599d0b9",
        "s": "6dbf62f533511ec31819304bfe09cbeb70b88b5a7e64bbe88cc418f8dc2d00ae"
    },
    "lib-laws": {
        "cdf_tables": "067ae07ca36ee9894834c7b8a9beab47df6e3aeca5ae227aec5d94c9f75590d7",
        "immigration_moments": "c833a24a90d85a0d395ad8769fb9d01e81deef8fac42f7479f67513fd6f57557",
        "offspring_moments": "c47f55777d0639d54c90860958382f6ad9032445e482cc8d992eb1a6b8ded268",
        "table_entries": "759da6950d4c5f90dd278b76f516f640f3d5abf5cd923785b002ba2209c2e4ee",
        "table_sizes": "daf6f72af284207bac9414fe8bc1ac966ad176496d44c2905f326068ed5f8f7d"
    },
    "lib-long-coupled-mixed": {
        "log_z": "a9ee7339577c4be3a7275a7099f7a1a0f7f7a489d6cf3dffc510b4f59fcc76e1",
        "log_zbar": "55d5d3e3fa67b93f32456b32e8d6aca6dfbf747fde9d5517d3862d6a74af07da",
        "s": "9ee6cbbe56ab610dac5dc9e6badcad71fde4038af4481856151a497da8780d12"
    },
    "lib-long-env-a": {
        "log_z": "70f8abd8d838a75d1e41709f032d685b95845981e497a24334e43deed6101d05",
        "s": "ae6711c503c710b7d50b9f0593aa7a6970589278cc3edc448ea56a6f937b46a2"
    },
    "lib-path": {
        "log_z": "825dc81bae74b149d4c88346a478fbe064f75da5406e34f4dba561f6256712d2",
        "s": "c38bc95b86d97afd25af822aabbf82ddacfd3ab7525fdead227d51a208867c30"
    },
    "lib-path-coupled": {
        "log_z": "e8c17e3dcf69c7f7f0106dcb0d7c92fd66ef812bf35304f640189389bd872445",
        "log_zbar": "b7d8b48748fd74d38592fadb8cfa168fce4e8c9f881fe2b8b59ca3c07c021168",
        "s": "c38bc95b86d97afd25af822aabbf82ddacfd3ab7525fdead227d51a208867c30"
    },
    "moments": {
        "exit": 0,
        "stdout": "85dca0da4772387b9dae1fd18cfd6229bc2a2bd4a718ab8dc4a5f71f96caf231",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "moments.csv": "07a1b72d8bf380d0641c39014fd22418a8b4f7da7cef1fcb2711d81002cb0e59",
            "run_manifest.json": "8a6161e18110cc78fd21eb9c924b62b5764dce9df0689dce0083c59c4ac1c58d"
        }
    },
    "rate": {
        "exit": 0,
        "stdout": "a50258482b571eb200f49681a532373ceba081bd6330b3ed4d41e8d844c37587",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "rate.csv": "0bc8b7bdf5162c75eb3a410e94fd7adfe21c6d2bd83d42e95c6aca459e6ddb9c",
            "run_manifest.json": "be353cf64a7bc02492189baf968aa5e7d92b8727e62b50f8f2a36b6c252b0857"
        }
    },
    "validate": {
        "exit": 0,
        "stdout": "722b9eeeee16236447f9b598e6b98134fbc9cb01862941260cae9b4ee05376b8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "f901bb5a53ee259764acc584a810da228583ad79f815a3379552bb3e2de7a002"
        }
    },
    "validate-one-atom": {
        "exit": 2,
        "stdout": "1f83639628234f3d969a354f114ace2fe01feec8ad9b04b498a469bb197da396",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "d8a5976e96e50f552a608c25061fd0f25ed5dfad6d7b47223b4df962e1e1103c"
        }
    },
    "walk-oracle": {
        "exit": 0,
        "stdout": "e9c7b4a6c5ff15b39bfe53cb5707430b3373307162a35c3eaaddcd9e25a16e64",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "run_manifest.json": "a4b6db016f11e53f3c66e585e7117183623894037fd2df2f022f97acb3998f5c",
            "walk_oracle.csv": "1021285bf02e2fd00646fecd37fb9da3ef25f6140175f4b3193d624fc46fa544"
        }
    }
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(case: str, tmp_path: Path) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"replicates": _R, "master_seed": 7, "threads": 1, **CASES[case]}))
    return str(cfg)


def _outputs(out: Path) -> dict[str, bytes]:
    """The bytes of every file in ``out``; the manifest without the value
    of its ``wall_time_s`` key."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            data, found = re.subn(rb'("wall_time_s": )[^,}]+', rb"\1", data)
            assert found == 1
        files[path.name] = data
    return files


def _digests(case: str, tmp_path: Path) -> dict:
    if callable(CASES[case]):
        arrays = CASES[case]()
        return {
            name: _sha(np.ascontiguousarray(a).tobytes())
            for name, a in sorted(arrays.items()) if a is not None
        }
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", _config(case, tmp_path), "--out", str(out)])
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": {name: _sha(data) for name, data in _outputs(out).items()},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    assert _digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KINDS))
def test_golden_runs_need_numpy_alone(case, tmp_path):
    # a fresh interpreter that cannot import scipy, and whose BLAS the
    # command line pins to one thread, writes the bytes of this process,
    # which has loaded scipy for other tests and numpy with its own BLAS
    # pool (decay's fit is the one BLAS call)
    cfg = _config(case, tmp_path)
    argv = ["--config", cfg, "--out", str(tmp_path / "fresh")]
    src = str(Path(bpire.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\nsys.modules['scipy'] = None\nfrom bpire.cli import main\n"
         f"assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\nsys.exit(main({argv!r}))\n"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--config", cfg, "--out", str(tmp_path / "here")])
    assert (proc.returncode, proc.stdout) == (code, stdout.getvalue()), proc.stderr
    assert _outputs(tmp_path / "fresh") == _outputs(tmp_path / "here")


if __name__ == "__main__":
    import tempfile

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = _digests(case, Path(tmp))
    print(json.dumps(table, indent=4))
