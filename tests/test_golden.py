"""Golden outputs: every CLI kind, run through ``cli.main`` at small R, must
reproduce recorded sha256 digests of its CSVs, its stdout and stderr, and its
``run_manifest.json`` (with the ``wall_time_s`` line removed).  The library
cases cover the simulator paths no CLI kind reaches (the coupled shadow
population, low promotion thresholds, single paths); their digests are
of the raw bytes of every array they return.

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
from pathlib import Path

import numpy as np
import pytest

from bpire import simulate_batch
from bpire.cli import _parse_environment, main
from conftest import make_env_a

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

# Offspring means 2 and 8: log-means in ratio 1:3, flagged as lattice.
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
    # One grid point: the implied constant at n = 1 and n = 30 differ by
    # more than a factor 2, so the gate fails (exit 3) after both grid
    # warnings.
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
})

# Recorded with draw layout 2 (``bpire.trajectory.DRAW_LAYOUT``).
GOLDEN = {
    "berry-esseen": {
        "exit": 0,
        "stdout": "50150c61f3c592f9a97542ad813b71958987142824ae95197ff96e7453d169bd",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "berry_esseen.csv": "43112f23accf62e0114bfb84301ad76472f5dc384b16d5559dbe3b6076274ced",
            "run_manifest.json": "5a34511a07e850026343929ba14bb69316296434f4fab2034cfa2da26661891b"
        }
    },
    "berry-esseen-unstable": {
        "exit": 3,
        "stdout": "39520f79518a9ca27dc58242e630821bb2d9787394ec936755c9f0aef2077864",
        "stderr": "f5370521fb66614cdc0fc9e903fa92f76c5996484b73b8be1912e04276203536",
        "files": {
            "berry_esseen.csv": "4f09dbe77d81e938bee782542e299d3cee9fa9b40b60378992a8ffff72afc6d0",
            "run_manifest.json": "b275e1c6e19e9f02dbe3e67d6de7dce9a6750e67d839ece3da061752de3721ff"
        }
    },
    "decay": {
        "exit": 0,
        "stdout": "67c3f9a5f3352738bf98d2667eddfd42fa498d229d423470a774f1fefc73c7b7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "84117a8e1a8aa414b1bdf976452740566e93eaf30e6405323d9922fd94946d44",
            "fit.csv": "7a947e419754764f57f9a54902407dee7fc0856c61acadbc81e3835c0e4eb012",
            "run_manifest.json": "d83715f47d1cf79d6f19216334db49e7e672b57d300c556029fb3e68115ecbb9"
        }
    },
    "decay-inconclusive": {
        "exit": 3,
        "stdout": "57e787e1a68472983ed242cc19f3ca788f2c09510b07d21dab82a3128984e445",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "e3384292362a6803a3aedef05b3546068bff5bd37e9167f1717567168d362241",
            "fit.csv": "ff2760e717e0c2cf06306af1f31195eda5955df08de3a1b59ff95be46fc305f0",
            "run_manifest.json": "a4496a78cea19e9da9ed0e3c7c1b7f46c8ab2d48f60db2af8d184f8e620208c9"
        }
    },
    "elogw": {
        "exit": 0,
        "stdout": "186a7ef3d6a86b2364d34fc9695142d7e15a153e2e242ce7f509f05952ea1ba4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "elogw.csv": "17e05be2222a857c69119f84f1ea1e5a39e7ae4e3fb41f3f2e88473b9908ed7a",
            "run_manifest.json": "009c97107b48c3ec66d2c09513fff0ffeb27793220667480132bfee8ac8d23f7"
        }
    },
    "laplace": {
        "exit": 0,
        "stdout": "30d01b08dfc3dd473781dd09526c6db599e85b22e5290deca92a78f8442eac28",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "laplace.csv": "3f031532beca77dbae36e3f63eb49a6a6dd692c9b2e4e048682e1414c857ae6e",
            "run_manifest.json": "52b87732f1c5f38704261e6c4af1cb062094205e0d405e95fb54266a903f5929"
        }
    },
    "lib-coupled-env-a": {
        "log_z": "b11a8057d36dae8ee03758d8e5d13f84b1e63fb7950604ecce7ffb9bf910d2e6",
        "log_zbar": "6fa29aac35642598871e1dafe44ed786358b1c5e6277b48a7eb973933bd0cfe8",
        "s": "43f2b045fcdfe1f480b3ada70a9af7821c5712658bc08d428776400919f2e1f7"
    },
    "lib-coupled-env-a-t1024": {
        "log_z": "39741c9a2b68a10a3e9a7043c8025abfca9d476cbbd773af22ddf3d967f1aa50",
        "log_zbar": "98803fe05ea3e9b6793ea8c819c4902608ca134b65f23e80d233bd1690efa5af",
        "s": "43f2b045fcdfe1f480b3ada70a9af7821c5712658bc08d428776400919f2e1f7"
    },
    "lib-coupled-mixed": {
        "log_z": "e9160af236f98e25cd3734614a51c63a05171353fb78503db1de004b763ac01d",
        "log_zbar": "f811fc8e6b792bd37badee633af9060eab335b99986049103c31ff753d684588",
        "s": "f7e221d5f9c99fd485fc8bc905493b0c0f4d6cb33d003490e328c26de93a66d4"
    },
    "lib-coupled-mixed-t1024": {
        "log_z": "01b523a92253f048bed9ed142d6a333a45e9e418391182afa7a8ddf7fc16e127",
        "log_zbar": "1de04f4203f044a0600b693104372f9ad5c4713729abe1b95bf9860f459683a9",
        "s": "f7e221d5f9c99fd485fc8bc905493b0c0f4d6cb33d003490e328c26de93a66d4"
    },
    "lib-long-coupled-mixed": {
        "log_z": "1341a91d79f9660ebadcd32aa59b40cd44dfd276becb79572ac8d4368e6d0c01",
        "log_zbar": "897caa7afaa7ceb692d93aef60f78df0b8f5852b4f3363c0ac4edea42e6a81a7",
        "s": "30af619d01df91e9f2bb8b6e6dfc8651eac40b9648edd59361458ce2719e9d17"
    },
    "lib-long-env-a": {
        "log_z": "edda19400cdaabf89016930c56d1b61ef9b58565453c36df9be2762d1f3dcd24",
        "s": "4ca40962d4d123cabaf6b0d18e3ffebbab297421c901a6e9644a2e1b49c69a88"
    },
    "lib-path": {
        "log_z": "ee705c8b12b0f2acbae79c5a673160efbfe8141f3a551eb423a5f241dda863f0",
        "s": "d24bd40687f6da901f7399fd7462fd76e727a931ac0b6f347e14e7c88d31da13"
    },
    "lib-path-coupled": {
        "log_z": "4c2604006db60ed37b9046dba3a0bd3829faf5460148899b064bd9865c7eaa7a",
        "log_zbar": "d281593150a2af49c4eaf1c91e5d2eb121492d556505f274bbf05c826f7b02ae",
        "s": "d24bd40687f6da901f7399fd7462fd76e727a931ac0b6f347e14e7c88d31da13"
    },
    "moments": {
        "exit": 0,
        "stdout": "85dca0da4772387b9dae1fd18cfd6229bc2a2bd4a718ab8dc4a5f71f96caf231",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "moments.csv": "51f3e53aa71c2b7a912d4deefd67edc4fb395bf3084f4fc83907ac101ec46817",
            "run_manifest.json": "fc4bf97e4b449bac970ff0b240753264c876a54c99a9df9c8df3fec22c86c45d"
        }
    },
    "rate": {
        "exit": 0,
        "stdout": "55773137def9772b4a6d8ce622c8d7fbc7299917e54e3b3db47aeb98fa81b5b6",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "rate.csv": "87e3339be292c730c89778e15df666c44705c58ed42993204bec914082c017f5",
            "run_manifest.json": "4d429d702399527cfd371ef8a6102ae74015138f6bd00c33be6756a15f8ab7ab"
        }
    },
    "validate": {
        "exit": 0,
        "stdout": "502f0578e30fc79f3cba8ce3540a551808c3d941e48a7037e56dc1caa759f997",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "9b5020fe6b7af8708f7eca40ea9cb9497f5dc58f36da0e36172678fd830a648f"
        }
    },
    "validate-one-atom": {
        "exit": 2,
        "stdout": "8179f4bbba92c78d633e0891ae1ebee45d146048b276b83c2c024b494e452f33",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "d4a5e0e4ca40ae8d485a00b9d2c85f5e4b4883ad8cf435d3bb13bb64df1ea495"
        }
    },
    "walk-oracle": {
        "exit": 0,
        "stdout": "e9c7b4a6c5ff15b39bfe53cb5707430b3373307162a35c3eaaddcd9e25a16e64",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "run_manifest.json": "7d30ebb9c79b277ff976b3346adce0d1a57bbacfd7c1a3dfb64b301a95623387",
            "walk_oracle.csv": "580cdbabd86802372d2d0a2bfb1d41840d1b9cd9ca47f6cdaa5eddfac270fa22"
        }
    }
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(case: str, tmp_path: Path) -> dict:
    if callable(CASES[case]):
        arrays = CASES[case]()
        return {
            name: _sha(np.ascontiguousarray(a).tobytes())
            for name, a in sorted(arrays.items()) if a is not None
        }
    doc = {"replicates": _R, "master_seed": 7, "threads": 1, **CASES[case]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(cfg), "--out", str(out)])
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if b'"wall_time_s"' not in line
            )
        files[path.name] = _sha(data)
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": files,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    assert _digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = _digests(case, Path(tmp))
    print(json.dumps(table, indent=4))
