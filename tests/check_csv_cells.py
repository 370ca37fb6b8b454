"""Every CSV cell against ``format_float`` of its value, at volume.

Runs the paper's two 201^2 figure commands and a 10000-step ``thermo`` sweep
of each golden set through the CLI (and so ``write_csv``), recomputes the
same columns through the library, and compares each cell with
``format_float`` of its value (``%d`` for integer columns).  A round trip
through ``float()`` would pass a cell that is the valid text of a
neighbouring double; this comparison does not.

    PYTHONPATH=src python tests/check_csv_cells.py

Exits 1 and names the first mismatches when a cell differs.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from su2pair import cli, graphene
from su2pair.serialization import format_float, load_coefficient_set
from su2pair.thermo import EnsembleBranch, thermal_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden import SETS  # noqa: E402

STEPS = 10_000


def grid_columns(argv, build, keys):
    args = cli.build_parser().parse_args([*argv, "--output", "-"])
    p = cli._graphene_params(args)
    data = build(p, graphene.default_grid(p, args.grid, args.mask))
    return [data[k] for k in keys]


def cases(workdir: Path):
    """(name, argv, columns) of every command checked."""
    bands = ["graphene-bands", "--bias", "0.1", "--grid", "201"]
    yield "bands", bands, grid_columns(bands, graphene.band_grid, ("kx", "ky", "e1", "e2"))
    conc = ["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex",
            "--grid", "201"]
    yield "concurrence", conc, grid_columns(
        conc, lambda p, g: graphene.concurrence_grid(p, g, 2, 2), ("kx", "ky", "c", "flag"))
    temps = cli._temperatures(0.01, 100.0, STEPS)
    for name, payload in SETS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        argv = ["thermo", "--input", str(path), "--tmin", "0.01", "--tmax", "100",
                "--steps", str(STEPS)]
        s = thermal_sweep(load_coefficient_set(path), temps, EnsembleBranch.FULL)
        yield f"thermo-{name}", argv, [s[k] for k in ("t", "z", "purity", "concurrence", "flag")]


def mismatches(text: str, columns) -> list[str]:
    rows = text.splitlines()[1:]
    if len(rows) != len(columns[0]):
        return [f"{len(rows)} rows written, {len(columns[0])} expected"]
    cells = [row.split(",") for row in rows]
    bad = []
    for j, col in enumerate(columns):
        fmt = (lambda v: "%d" % v) if col.dtype.kind in "iub" else format_float
        for i, v in enumerate(col.tolist()):
            if cells[i][j] != fmt(v):
                bad.append(f"row {i} column {j}: {cells[i][j]!r} != {fmt(v)!r}")
    return bad


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, argv, columns in cases(workdir):
            out = workdir / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--output", str(out)]) == 0
            bad = mismatches(out.read_text(), columns)
            cells = len(columns) * len(columns[0])
            print(f"{name}: {cells} cells, {len(bad)} mismatched")
            for line in bad[:5]:
                print("  " + line)
            failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
