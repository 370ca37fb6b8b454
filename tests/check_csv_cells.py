"""Every CSV cell against ``format_float`` of its value, at volume.

Runs the paper's two 201^2 figure commands, the 201^2 concurrence grid at
bias 0 (where the constrained vector alpha vanishes at every point), the
two figure commands again at t3 = 1.01, tperp = 0.99 and lattice 2.46,
a 10000-step ``thermo`` sweep of each golden set, the same sweeps from
T = 1e-4, and a 10000-step ``graphene-thermal`` sweep at the Dirac point
through the CLI (and so ``write_csv``), recomputes the same columns through
the library, and compares each cell with
``format_float`` of its value (``%d`` for integer columns).  The last two
kinds hold long runs of equal values (Z reads inf, the purity 1 and C one
value over thousands of rows), which ``write_csv`` formats once a run;
each must keep a float column with a run of at least ``MIN_RUN`` rows, or
the check fails, so that they go on exercising runs.  The grid
columns are recomputed on every point at once through
``lattice_layer_arrays``, ``derive_arrays`` and
``concurrence_closed_form_arrays``, so the commands' per-axis structure
factor, scalar components, axis-indexed k columns and value tables of the
distinct lattice-layer sets are checked against a path that shares none
of them.  A round trip
through ``float()`` would pass a cell that is the valid text of a
neighbouring double; this comparison does not.  Each command runs twice in
the process, and the second CSV must repeat the first byte for byte:
``write_csv`` keeps its buffers from one command to the next, and nothing
may carry over.

    PYTHONPATH=src python tests/check_csv_cells.py

Exits 1 and names the first mismatches when a cell differs.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from su2pair import cli, graphene
from su2pair.entanglement import CLOSED_FORM, concurrence_closed_form_arrays
from su2pair._invariants import even_spectrum
from su2pair.hamiltonian import derive_arrays
from su2pair.serialization import format_float, load_coefficient_set
from su2pair.thermo import EnsembleBranch, thermal_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden import SETS  # noqa: E402

STEPS = 10_000
MIN_RUN = 100


def grid_columns(argv, values):
    """kx, ky and the ``values`` columns of a grid command, every point at
    once through the generic array path (``lattice_layer_arrays`` and the
    public array functions), not through the grid commands' own."""
    args = cli.build_parser().parse_args([*argv, "--output", "-"])
    p = cli._graphene_params(args)
    xs, ys = graphene.default_grid(p, args.grid, args.mask).axes()
    kx, ky = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    if args.mask == "hex":
        inside = graphene.first_zone_mask(p, kx, ky)
        kx, ky = kx[inside], ky[inside]
    return [kx, ky, *values(*graphene.lattice_layer_arrays(p, kx, ky))]


def bands(alpha, beta, omega):
    _, e1, e2 = even_spectrum(derive_arrays(alpha, beta, omega))
    return e1, e2


def concurrence(m, n):
    def columns(alpha, beta, omega):
        c, cause, _ = concurrence_closed_form_arrays(alpha, beta, omega, m, n)
        return c, (cause != CLOSED_FORM).astype(int)
    return columns


def cases(workdir: Path):
    """(name, argv, columns, least run) of every command checked: the
    longest run of a float column must reach the least run."""
    argv = ["graphene-bands", "--bias", "0.1", "--grid", "201"]
    yield "bands", argv, grid_columns(argv, bands), 0
    argv = ["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex",
            "--grid", "201"]
    yield "concurrence", argv, grid_columns(argv, concurrence(2, 2)), 0
    # Bias 0: alpha = 0 at every point, branch (2, 1).
    argv = ["graphene-concurrence", "--bias", "0", "--grid", "201"]
    yield "concurrence-bias0", argv, grid_columns(argv, concurrence(2, 1)), 0
    # Jittered couplings and another lattice constant: the y axis splits
    # into classes of equal cos(sqrt(3) ky lattice/2) other than the default.
    jitter = ["--t3", "1.01", "--tperp", "0.99", "--lattice", "2.46", "--grid", "201"]
    argv = ["graphene-bands", "--bias", "0.1", *jitter]
    yield "bands-jittered", argv, grid_columns(argv, bands), 0
    argv = ["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex", *jitter]
    yield "concurrence-jittered", argv, grid_columns(argv, concurrence(2, 2)), 0
    for tmin, suffix, least in (("0.01", "", 0), ("1e-4", "-runs", MIN_RUN)):
        temps = cli._temperatures(float(tmin), 100.0, STEPS)
        for name, payload in SETS.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(payload))
            argv = ["thermo", "--input", str(path), "--tmin", tmin, "--tmax", "100",
                    "--steps", str(STEPS)]
            s = thermal_sweep(load_coefficient_set(path), temps, EnsembleBranch.FULL)
            yield (f"thermo{suffix}-{name}", argv,
                   [s[k] for k in ("t", "z", "purity", "concurrence", "flag")], least)
    argv = ["graphene-thermal", "--steps", str(STEPS)]
    args = cli.build_parser().parse_args([*argv, "--output", "-"])
    p = cli._graphene_params(args)
    s = thermal_sweep(graphene.map_to_su2su2(p, *graphene.find_dirac_point(p)),
                      cli._temperatures(args.tmin, args.tmax, STEPS))
    yield "graphene-thermal-runs", argv, [s["t"], s["concurrence"], s["flag"]], MIN_RUN


def longest_run(columns) -> int:
    """The most rows in one run of equal bits among the float columns."""
    longest = 0
    for col in columns:
        if col.dtype.kind == "f":
            keys = col.view(np.int64)
            heads = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1], [True]]))
            longest = max(longest, int(np.diff(heads).max()))
    return longest


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
        for name, argv, columns, least in cases(workdir):
            out = workdir / f"{name}.csv"
            texts = []
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([*argv, "--output", str(out)]) == 0
                texts.append(out.read_bytes())
            bad = mismatches(texts[0].decode(), columns)
            if texts[1] != texts[0]:
                bad.insert(0, "the second run wrote other bytes")
            run = longest_run(columns)
            if run < least:
                bad.insert(0, f"longest run {run} rows, fewer than {least}")
            cells = len(columns) * len(columns[0])
            print(f"{name}: {cells} cells, longest run {run}, {len(bad)} mismatched")
            for line in bad[:5]:
                print("  " + line)
            failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
