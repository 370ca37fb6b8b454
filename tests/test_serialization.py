"""The CSV writer against a per-cell reference writer.

``write_csv`` formats each distinct value of a chunk's column once; these
tests hold its bytes to the plain definition of the format: every cell on
its own, ``format_float`` for floats and ``%d`` for integer and boolean
columns, joined by ``,`` with a trailing newline.
"""

import json

import numpy as np
import pytest

from su2pair import cli, graphene
from su2pair.serialization import format_float, load_coefficient_set, write_csv
from su2pair.thermo import EnsembleBranch, thermal_sweep


def reference_csv(header, chunks) -> str:
    lines = [",".join(header)]
    for columns in chunks:
        cells = [
            ["%d" % v for v in col.tolist()] if col.dtype.kind in "iub"
            else [format_float(v) for v in col.tolist()]
            for col in map(np.asarray, columns)
        ]
        lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def assert_writes_reference(path, header, chunks):
    rows = write_csv(path, header, chunks)
    assert rows == sum(len(columns[0]) for columns in chunks)
    assert path.read_text() == reference_csv(header, chunks)


# Floats whose formatting a value-keyed table would get wrong (the zeros) or
# that sit at the ends of the format: non-finite, subnormal and huge values.
SPECIALS = np.array([
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1e300, -1e300, 1e-300, -1e-300, np.finfo(float).max, 0.1, 1.0, -1.0,
])


def random_chunk(rng, n):
    """Float columns with many repeats, with specials and all-distinct
    values, and integer and boolean columns."""
    pool = np.concatenate([SPECIALS, rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, 5)])
    return [
        rng.choice(pool, n),
        rng.choice([0.0, -0.0], n),
        rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
        rng.integers(-3, 3, n),
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n),
        rng.random(n) < 0.5,
    ]


HEADER = ["repeats", "zeros", "distinct", "small_int", "int", "flag"]


@pytest.mark.parametrize("seed", range(8))
def test_bytes_equal_the_per_cell_writer(seed, tmp_path):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(0, 300)) for _ in range(4)] + [0, 1]
    chunks = [random_chunk(rng, n) for n in rng.permutation(sizes)]
    assert_writes_reference(tmp_path / "out.csv", HEADER, chunks)


def test_signed_zeros_in_one_column(tmp_path):
    col = np.array([0.0, -0.0, 0.0, -0.0])
    assert_writes_reference(tmp_path / "z.csv", ["x"], [[col]])
    assert (tmp_path / "z.csv").read_text() == "x\n0\n-0\n0\n-0\n"


def test_specials_and_an_empty_file(tmp_path):
    flags = np.arange(SPECIALS.size) % 3
    assert_writes_reference(tmp_path / "s.csv", ["x", "flag"], [[SPECIALS, flags]])
    assert_writes_reference(tmp_path / "e.csv", ["x", "flag"], [[np.empty(0), np.empty(0, int)]])
    assert write_csv(tmp_path / "none.csv", ["x"], []) == 0
    assert (tmp_path / "none.csv").read_text() == "x\n"


# The 101^2 figure grids span several chunks (three for the bands, two for
# the hex-masked concurrence), so chunk boundaries are crossed here as they
# are not in the 21^2 golden cases.
GRIDS = [
    (["graphene-bands", "--bias", "0.1"], ["kx", "ky", "E1", "E2"],
     graphene.band_grid, ("kx", "ky", "e1", "e2")),
    (["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex"],
     ["kx", "ky", "C", "flag"],
     lambda p, g: graphene.concurrence_grid(p, g, 2, 2), ("kx", "ky", "c", "flag")),
]


@pytest.mark.parametrize("argv, header, build, keys", GRIDS, ids=["bands", "concurrence"])
def test_multi_chunk_grid_csv_equals_the_reference(argv, header, build, keys, tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main([*argv, "--grid", "101", "--output", str(out)]) == 0
    args = cli.build_parser().parse_args([*argv, "--grid", "101", "--output", str(out)])
    p = cli._graphene_params(args)
    data = build(p, graphene.default_grid(p, 101, args.mask))
    assert data["kx"].size > graphene.CHUNK_POINTS
    assert out.read_text() == reference_csv(header, [[data[k] for k in keys]])


def test_thousand_step_thermo_csv_equals_the_reference(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps({
        "upsilon": 0.3,
        "alpha": [1, 2, 3],
        "beta": [3, 1, 2],
        "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
    }))
    out = tmp_path / "thermo.csv"
    argv = ["thermo", "--input", str(path), "--tmin", "0.01", "--tmax", "100",
            "--steps", "1000", "--output", str(out)]
    assert cli.main(argv) == 0
    s = thermal_sweep(load_coefficient_set(path), cli._temperatures(0.01, 100.0, 1000),
                      EnsembleBranch.FULL)
    columns = [s[k] for k in ("t", "z", "purity", "concurrence", "flag")]
    assert out.read_text() == reference_csv(["T", "Z", "purity", "concurrence", "flag"], [columns])
