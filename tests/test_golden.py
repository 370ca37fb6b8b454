"""Byte guard on the figure and sweep commands.

Each case pins the SHA-256 of stdout and of the CSV for a small run.  The
hashes were recorded before the even-spectrum and thermal-concurrence
formulas were merged into one place each; a refactor that changes any
output byte fails here and must explain the change.  The two nonzero
graphene-thermal CSVs were re-pinned when the curve moved to the shared,
overflow-safe closed form: their C cells moved by at most 4e-16.

The five thermo CSVs and the ``--bias 0.5`` graphene-thermal CSV were
re-pinned when the sweeps became array code over T: numpy's exp, log1p and
expm1 differ from libm's in the last bit on a few percent of arguments, and
the definition route now takes sqrt(rho) from the eigenvectors of H.  Each
moved cell was checked against a 50-digit evaluation.  These bytes follow
numpy's SIMD level (the AVX-512 builds of those functions are the ones that
differ from libm), as the T column of log-spaced sweeps already did; the
hashes were recorded on an AVX-512 host.

The graphene-bands and graphene-concurrence CSVs were re-pinned when
``derive_arrays`` became a straight-line elementwise kernel: its sums no
longer round like BLAS's fused kernels.  At 21^2, 119 E1 cells (at most
1.3e-14), 28 E2 cells (8.9e-16) and 75 C cells (2.3e-15) moved, and no
flag; the moved cells of the 201^2 grids were checked against 50-digit
eigensystems (CHANGES.md).

The general-set thermo CSV was re-pinned when the definition route took the
Wootters lambdas as singular values of D^1/2 V^T (sy (x) sy) V D^1/2 instead
of square roots of eigenvalues: 25 of its 40 C cells moved, by at most 6.9e-9,
and every C cell is now within 2.6e-16 of a 50-digit evaluation (CHANGES.md).

The rotated-set thermo CSV was re-pinned when the thermal closed form
stopped rotating sets into block form and took x+- from |omega|_F^2 and
|adj omega|_F in the given frame: 18 of its 40 C cells moved, by at most
1.7e-16, and the worst C error against a 50-digit evaluation fell from
1.2e-16 to 6.4e-17 (CHANGES.md).

The five thermo CSVs and the three graphene-thermal CSVs were re-pinned when
Z, purity and the closed-form concurrence's denominator came from one set
of Gibbs weights exp(-(e_k - e_min)/T): the purity became sum p^2 instead of
Z(T/2)/Z(T)^2, and the graphene curve became the thermal_sweep columns of
the mapped set.  On the thermo sweeps the worst purity error against a
60-digit evaluation fell from 7.4e-15 to 4.7e-16 relative, the worst Z error
from 1.8e-14 to 8.1e-15, and C stayed within 3.5e-16; the general set's C
column did not move.  The graphene-thermal C cells at the Dirac point and at
--bias 0.5 moved by the last bit (2 and 1 cells).  At k = 0 with
--tperp 0.3 the old curve wrote the zero of one branch of the closed form;
25 of its 40 C cells now hold the closed form with x+ = t3 |G|, within
6.3e-17 of a 60-digit evaluation (CHANGES.md).

The three graphene-concurrence CSVs were re-pinned when the closed-form
concurrence became one radical without a division by |v|^2, v the
constrained vector, and the Bloch-modulus route that had served v = 0 (both
bias-0 CSVs, alpha = 0 at every point) was deleted.  Against a 40-digit
evaluation of each point's eigenstate, on the points' double coefficients:
at bias 1 (hex) 68 of 257 C cells moved and the worst error stayed
8.9e-15; at bias 0, 419 of 441 moved and the worst error fell from 1.08e-12
to 1.9e-16; at bias 0, m 0.2 (hex), 233 of 257 moved and it fell from
8.8e-15 to 2.2e-16.  No flag moved (CHANGES.md).
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
        "ebe69fb5a254b52c72291c9aad6522c5ec3ad1f7e5b608c3c57cff96ceff29d6",
    ),
    (
        ["graphene-concurrence", "--bias", "1", "--mask", "hex", "--branch-n", "2",
         "--grid", "21"],
        "edd4a055324565b3f75d0fd55d46ac3a276f440506b58430ff9dbfc69a768720",
        "06742c6f6fe3cfe9fdefdc231a4dc73bf80cacd5c7c2420624d3cb90448e18ab",
    ),
    # Bias 0 leaves alpha = 0: the constrained vector vanishes at every point.
    (
        ["graphene-concurrence", "--grid", "21"],
        "d5709d3ee12a24a4fbd05ffea26fcb7207ee71d350ea1c9a4aa16add40361d75",
        "bc7605a7cab3e6abf7d8bd62fda2aa3b9579e944a2a1a270bd6a7b3c4539d62a",
    ),
    (
        ["graphene-concurrence", "--bias", "0", "--m", "0.2", "--branch-m", "1",
         "--branch-n", "2", "--mask", "hex", "--grid", "21"],
        "edd4a055324565b3f75d0fd55d46ac3a276f440506b58430ff9dbfc69a768720",
        "1d20aeacdfd173ea72a0ac4cf55490beda648ce488ee6dd550662afa2af7e476",
    ),
    (
        ["graphene-thermal", "--steps", "40"],
        "625d2daad591dcc06dca5d223cdabfa6f71d1beafa50fb54c7618f6e281b6b6d",
        "f233690e3ce6851bc41b900a9192be777ade5697dfa91205c87982ad3ac936f4",
    ),
    (
        ["graphene-thermal", "--bias", "0.5", "--kx", "0.3", "--ky", "2.2", "--steps", "40"],
        "4ae41f6360cf2b2c93a7273325cc446982169ebf817c8c85fe917034e0c117a7",
        "3337855995a8dc665379169ae18b01af34a24d95db291332edb7716c9c7fc801",
    ),
    (
        # tperp < t3 |G|: x+ = t3 |G| and x- = tperp.
        ["graphene-thermal", "--kx", "0", "--ky", "0", "--tperp", "0.3", "--steps", "40"],
        "ba88d7d9b65702723d93ab7dc69daef2eeff577fbc58caf41e9e468bddc2bb18",
        "ec4b7f75a2d4b8ffaff29f150d9941b432fac07595cb331fb48d1f3a5a7bed9a",
    ),
    (
        ["thermo", "--input", "entangled.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "19a0c094ffd808629d10b8ff45dffd4923bc0ccbcfc246a394cf6e7f7bd2ad1a",
    ),
    (
        ["thermo", "--input", "entangled.json", "--tmin", "0.01", *_SWEEP,
         "--branch", "positive"],
        _THERMO_STDOUT,
        "21cf0de370c84b1a09474d240d319d81af4c7c729d879afd4b8dff97a87966a1",
    ),
    (
        ["thermo", "--input", "rotated.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "33fdb739dc246b4c9e8e1245792151612cfa64e08b41d6f78b272a640fa52679",
    ),
    (
        ["thermo", "--input", "general.json", "--tmin", "0.1", *_SWEEP],
        _THERMO_STDOUT,
        "5a05bf1a25e7e3bcc1dc4403923f1fea1260819af7c2dea420bfa1271a32fb21",
    ),
    (
        ["thermo", "--input", "dyadic.json", "--tmin", "0.01", *_SWEEP],
        _THERMO_STDOUT,
        "2ac59e3c31d18107c4a5d44fa92607f23a78166e44b685c7889012700ae66cba",
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
