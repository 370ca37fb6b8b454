"""Byte guard on the figure and sweep commands.

Each case pins the SHA-256 of stdout and of the CSV for a small run.  The
hashes were recorded before the even-spectrum and thermal-concurrence
formulas were merged into one place each; a refactor that changes any
output byte fails here and must explain the change.  The two nonzero
graphene-thermal CSVs were re-pinned when the curve moved to the shared,
overflow-safe closed form: their C cells moved by at most 4e-16.
"""

import contextlib
import hashlib
import io
import json

import pytest

from su2pair.cli import main

SETS = {
    "entangled": {
        "upsilon": 0.0,
        "alpha": [0, 0, 1],
        "beta": [0, 0, 0],
        "omega": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    },
    # A canonical alpha-branch set conjugated by two local rotations.
    "rotated": {
        "upsilon": 0.25,
        "alpha": [0.31579183853903986, -0.0571139995343007, 0.7328120535098539],
        "beta": [0.020229527849986773, 0.594573599114236, 0.1614713641464344],
        "omega": [
            [-0.43023415292805034, 0.11555341664480702, -0.2991419237007545],
            [0.11843483888432492, 0.44942693039927706, -0.3849232235097961],
            [0.19463206262122687, -0.014768120074404974, 0.09890949925581673],
        ],
    },
    "general": {
        "upsilon": 0.3,
        "alpha": [1, 2, 3],
        "beta": [3, 1, 2],
        "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
    },
    # (2 I + s_x) (x) (0.5 I + s_z)
    "dyadic": {
        "upsilon": 1.0,
        "alpha": [0.5, 0, 0],
        "beta": [0, 0, 2.0],
        "omega": [[0, 0, 1.0], [0, 0, 0], [0, 0, 0]],
    },
}

_SWEEP = ["--tmax", "100", "--steps", "40"]
_THERMO_STDOUT = "12ee11467bf27fb9be116b75a1183c060a0a4587125b1cf35759d83a5f4ebcfa"

CASES = [
    (
        ["graphene-bands", "--bias", "0.1", "--grid", "21"],
        "46d648a638b7c687144b9c35a033bca4bd2660f96825b2d7dbbb6cb11abfc747",
        "6ce83a78a84b013da466639449ba46d19a3063ad49a3e272a91b153eaae9a4a0",
    ),
    (
        ["graphene-concurrence", "--bias", "1", "--mask", "hex", "--branch-n", "2",
         "--grid", "21"],
        "edd4a055324565b3f75d0fd55d46ac3a276f440506b58430ff9dbfc69a768720",
        "34467e765cf022ac2b5696971ae1a578495f8f91ccaf07fb1787912a23bca4fe",
    ),
    (
        ["graphene-thermal", "--steps", "40"],
        "625d2daad591dcc06dca5d223cdabfa6f71d1beafa50fb54c7618f6e281b6b6d",
        "bfec9e0fa29084bc9c07e45d7700af339b41d885202f39dfe266590d656c4f7f",
    ),
    (
        ["graphene-thermal", "--bias", "0.5", "--kx", "0.3", "--ky", "2.2", "--steps", "40"],
        "4ae41f6360cf2b2c93a7273325cc446982169ebf817c8c85fe917034e0c117a7",
        "191bd6a5babd4afe92a45aea77dbbcfad707704b58935d7466d89e43f5a989d3",
    ),
    (
        # tperp <= t3 |G|: the curve's documented zero.
        ["graphene-thermal", "--kx", "0", "--ky", "0", "--tperp", "0.3", "--steps", "40"],
        "ba88d7d9b65702723d93ab7dc69daef2eeff577fbc58caf41e9e468bddc2bb18",
        "4e43149199d8a22b19a4f1cf39c363d4d52a0a3d95f2eda10690e5d3a4efde11",
    ),
    (
        ["thermo", "--input", "entangled.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "53de405c1b371fada31579d92cee592445ffc8f1bc1c3168e726270346b22e37",
    ),
    (
        ["thermo", "--input", "entangled.json", "--tmin", "0.01", *_SWEEP,
         "--branch", "positive"],
        _THERMO_STDOUT,
        "a6648dbfb2093f4f23e60d7f93235152c36d602c4b17ef8cd8fd778cda9bc595",
    ),
    (
        ["thermo", "--input", "rotated.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "8f63c307344f0899550a67ffd957dd6467f274b3d2113089548b9d2b3542cf9b",
    ),
    (
        ["thermo", "--input", "general.json", "--tmin", "0.1", *_SWEEP],
        _THERMO_STDOUT,
        "43ca8a15ab0088d5027deebd01883f021531d6ac24bdcd4d162831600a8ea3e9",
    ),
    (
        ["thermo", "--input", "dyadic.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "f6a6e1584f2eb5c5921c4b89b79ee2891d56326b49d81cda5331402862209b14",
    ),
]


@pytest.mark.parametrize(
    "argv, stdout_sha, csv_sha", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_output_bytes_pinned(argv, stdout_sha, csv_sha, tmp_path, monkeypatch):
    # Relative paths keep the temporary directory out of stdout.
    monkeypatch.chdir(tmp_path)
    for name, payload in SETS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--output", "out.csv"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == csv_sha
