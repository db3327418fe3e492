"""Golden outputs: every CLI kind, run through ``cli.main`` at small R, must
reproduce recorded sha256 digests of its CSVs, its stdout and stderr, and its
``run_manifest.json`` (with the ``wall_time_s`` line removed).

A change that alters outputs on purpose updates ``GOLDEN`` and gives the
reason in CHANGES.md.  To print the digests of the current tree::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bpire.cli import main

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

# Recorded before the CLI was rebuilt around one table of kinds.
GOLDEN = {
    "berry-esseen": {
        "exit": 0,
        "stdout": "d33973fcf9fd398cfc13f58b95a6661c60a1d4e7936c2aeb74646685f084dba8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "berry_esseen.csv": "c85cf8d4f2848db5d547b8b9c4778c24f05bfd05c508b289665916bc35321c10",
            "run_manifest.json": "f0172657466f7525ddd4df5c65d509a919b1391912c666bfb11beb370d93a28c"
        }
    },
    "berry-esseen-unstable": {
        "exit": 3,
        "stdout": "39520f79518a9ca27dc58242e630821bb2d9787394ec936755c9f0aef2077864",
        "stderr": "f5370521fb66614cdc0fc9e903fa92f76c5996484b73b8be1912e04276203536",
        "files": {
            "berry_esseen.csv": "de146392755b04c293875ee9ae49b942787f921e0babbc8ddec86d8bafd9ca85",
            "run_manifest.json": "9cb26c563971d910a21f9a2aa34d77747ae35c3185085519dba629cd5e4b5b44"
        }
    },
    "decay": {
        "exit": 0,
        "stdout": "9a26b9547d4235e724632f0fcea0187dc5a08b8a9263b85d1446997260dc4c6a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "c1a0756fbd7f643727ecad027b0690b71a731510548861e035cd2906f53232c9",
            "fit.csv": "0fb37887fcd7d013d1a6c26692470fa391306bd241b2fd7037b1b5263399fb08",
            "run_manifest.json": "56acc01959bc206bcff4ee6278cccae20add62699ddac806ab3c5395b4b7a9d6"
        }
    },
    "decay-inconclusive": {
        "exit": 3,
        "stdout": "57e787e1a68472983ed242cc19f3ca788f2c09510b07d21dab82a3128984e445",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "decay.csv": "d014586272a4f3b8c4b8ee9d24a88e570b0f74cfc9a4a7f8eb3e1cd8098a842c",
            "fit.csv": "ff2760e717e0c2cf06306af1f31195eda5955df08de3a1b59ff95be46fc305f0",
            "run_manifest.json": "d683343603547eeefbc1487c85bd01a54a014376979af67ce13458f3842e12b4"
        }
    },
    "elogw": {
        "exit": 0,
        "stdout": "1e3b5e323763ad8def787b4913475fcd76f481c38d1c8ff136c3a68ad1db6ce8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "elogw.csv": "a957d7f816830adabe7113841b9504af30333f18143047e370f3ca1f84232382",
            "run_manifest.json": "1f8f35cf4911891466c655a9eb3fb633fbaf7b04b231615606a3c9f0b527fa04"
        }
    },
    "laplace": {
        "exit": 0,
        "stdout": "30d01b08dfc3dd473781dd09526c6db599e85b22e5290deca92a78f8442eac28",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "laplace.csv": "cce6d826df06a2aa253dc228dc32b43bda032dd163e1ad2eb2b58f97676a0767",
            "run_manifest.json": "695decc1f8c1cb821d84190f1032b6c34e7e001ae8abd7d10d52b777886ab15e"
        }
    },
    "moments": {
        "exit": 0,
        "stdout": "85dca0da4772387b9dae1fd18cfd6229bc2a2bd4a718ab8dc4a5f71f96caf231",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "moments.csv": "6cfa4845e620f74a82f79d37ad5cb2dd2d8193dfab800e8b9beb1c39bc29e282",
            "run_manifest.json": "8593bd51bc900f1b5f003472b09ab9f739dce2dcde33877bf3be7f324a99d368"
        }
    },
    "rate": {
        "exit": 0,
        "stdout": "82ba580de12fcf61683aa1b98d2b793f517c7e96d8ea47933c304731953a8cfc",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "rate.csv": "f552255aa540760e42a969b083276980db52184d14b3b9c9d6471b346d77a888",
            "run_manifest.json": "ee42699039fc5567afe1176d8fea2b968b20bab4a86f65e0da60463ad01ebc96"
        }
    },
    "validate": {
        "exit": 0,
        "stdout": "502f0578e30fc79f3cba8ce3540a551808c3d941e48a7037e56dc1caa759f997",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "d6475b1a92f41633afccac35330a8b47dd1b747d4e3677772874725455ecee96"
        }
    },
    "validate-one-atom": {
        "exit": 2,
        "stdout": "8179f4bbba92c78d633e0891ae1ebee45d146048b276b83c2c024b494e452f33",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "run_manifest.json": "2ca240a4646255056abc6079c735ec90510adcf02b326dd46e0938a2beebc201"
        }
    },
    "walk-oracle": {
        "exit": 0,
        "stdout": "e9c7b4a6c5ff15b39bfe53cb5707430b3373307162a35c3eaaddcd9e25a16e64",
        "stderr": "7a3f17010d97734b732c09b6d4ab15edd33e83bedd2635b93af162d11576352b",
        "files": {
            "run_manifest.json": "8b4026019921f3dda754fccaa02c4aff44241df2291652f1d6b5330cb082d6af",
            "walk_oracle.csv": "aeb361ac77e5eb68f4abb6864e64b559e90fed03e8bc228110b5bef9a42f5df1"
        }
    }
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(case: str, tmp_path: Path) -> dict:
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
