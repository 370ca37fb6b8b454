"""The three workloads: inputs, one timed pass, and the check of its outputs.

Every operation runs in-process: the CLI workloads through
``su2pair.cli.main(argv)``, solve-mix through ``su2pair.solve``.  A pass
returns the time of each operation and, when given an ``ItemClock``, the
times of the per-item calls within it; ``check`` compares the pass's
outputs with the dense reference in ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from reference import (
    MIN_GAP,
    TOL_CONCURRENCE,
    TOL_ENERGY,
    TOL_PROJECTOR,
    Tally,
    compose,
    decompose,
    pure_concurrence,
    relative_gap,
    temperatures,
    thermal_reference,
)

# Coordinates and temperatures are recomputed by the same formula on both
# sides, so they must agree to round-off.
TOL_COORD = 1e-12
# k-points per block when the reference solves the grids, to keep the
# benchmark's own memory below the program's.
REF_BLOCK = 4096
NO_PIECES = np.empty(0)


@dataclass
class PassResult:
    """One pass: the time, per-item call times and item count of each operation."""

    op_seconds: np.ndarray
    op_pieces: list
    op_items: np.ndarray
    outputs: object
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return float(self.op_seconds.sum())

    @property
    def items(self) -> int:
        return int(self.op_items.sum())


def read_csv(path: Path, ncols: int) -> np.ndarray:
    """Data rows of a CSV as floats; an unreadable cell makes its row NaN."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, ncols)
    except ValueError:
        pass
    rows = []
    for line in path.read_text().splitlines()[1:]:
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            vals = []
        rows.append(vals if len(vals) == ncols else [np.nan] * ncols)
    return np.array(rows, dtype=float).reshape(-1, ncols)


def _aligned(rows: np.ndarray, n: int) -> np.ndarray:
    """``rows`` padded with NaN (or cut) to ``n`` rows, so missing rows fail."""
    out = np.full((n, rows.shape[1]), np.nan)
    m = min(n, rows.shape[0])
    out[:m] = rows[:m]
    return out


def _rel(x, ref) -> np.ndarray:
    return np.abs(x - ref) / (1.0 + np.abs(ref))


class CliWorkload:
    """A list of CLI commands, each writing one CSV into ``workdir``.

    ``ITEM_FUNCTIONS`` are the package functions the commands call once per
    item, timed one by one in the untraced passes.  ``PASS_SECONDS`` is one
    pass at the first baseline; it fixes the number of passes a run makes.
    """

    name = ""
    ITEM_FUNCTIONS: tuple[str, ...] = ()
    PASS_SECONDS = 1.0

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.commands: list[tuple[str, list[str], int]] = []  # (key, argv, items)

    def load(self, sp):
        """Nothing to build: the CLI reads its inputs from files."""

    def output(self, key: str) -> Path:
        return self.workdir / f"{key}.csv"

    def items(self) -> int:
        return sum(n for _, _, n in self.commands)

    def op_labels(self) -> list[str]:
        return [key for key, _, _ in self.commands]

    @staticmethod
    def call(sp, argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return sp.cli.main(argv)
            except Exception:  # an escaped exception fails the command's items
                return -1

    def run_pass(self, sp, clock=None) -> PassResult:
        codes, op_s, pieces = {}, [], []
        for key, argv, _ in self.commands:
            if clock:
                clock.take()
            c0 = time.perf_counter()
            codes[key] = self.call(sp, argv)
            op_s.append(time.perf_counter() - c0)
            pieces.append(clock.take() if clock else NO_PIECES)
        op_items = np.array([n for _, _, n in self.commands])
        return PassResult(np.array(op_s), pieces, op_items, codes)

    def rows(self, codes: dict, key: str, n: int, ncols: int) -> np.ndarray:
        """The command's output rows, all NaN if it failed or wrote nothing."""
        path = self.output(key)
        if codes.get(key) != 0 or not path.is_file():
            return np.full((n, ncols), np.nan)
        return _aligned(read_csv(path, ncols), n)

    def bytes_out(self) -> int:
        return sum(self.output(k).stat().st_size for k, _, _ in self.commands if self.output(k).is_file())


class FigureGrids(CliWorkload):
    """The paper's band and concurrence figures, on 101 x 101 k-grids.

    The paper's 201 x 201 grids take 6.5 s a pass, so a run of 20 s gets
    only four samples of each k-point and cannot find the quiet moments
    of a shared host; a quarter of the grid costs the same per k-point
    and gives thirteen.
    """

    name = "figure-grids"
    ITEM_FUNCTIONS = (
        "graphene.positive_bands",
        "graphene.in_first_zone",
        "graphene.map_to_su2su2",
        "entanglement.eigenstate_concurrence_closed_form",
    )
    PASS_SECONDS = 1.65

    def __init__(self, seed: int, workdir: Path, samples: int = 101):
        super().__init__(workdir)
        self.bands = inputs.graphene_params(seed, "figure-grids", bias=0.1)
        self.conc = inputs.graphene_params(seed, "figure-grids", bias=1.0)
        self.bands_k = self.bands.k_grid(samples, hex_mask=False)
        self.conc_k = self.conc.k_grid(samples, hex_mask=True)
        grid = ["--grid", str(samples)]
        self.commands = [
            ("bands", ["graphene-bands", *self.bands.argv(), *grid,
                       "--output", str(self.output("bands"))], self.bands_k[0].size),
            ("concurrence", ["graphene-concurrence", *self.conc.argv(), *grid,
                             "--branch-n", "2", "--mask", "hex",
                             "--output", str(self.output("concurrence"))], self.conc_k[0].size),
        ]
        self.input_hash = inputs.digest(self.bands, self.conc, samples)

    def warmup(self, sp):
        self.call(sp, ["graphene-concurrence", *self.conc.argv(), "--grid", "11",
                       "--branch-n", "2", "--mask", "hex",
                       "--output", str(self.output("warmup"))])

    def prepare_reference(self):
        kx, ky = self.bands_k
        self.ref_bands = np.concatenate([
            np.linalg.eigvalsh(self.bands.hamiltonian(kx[i:i + REF_BLOCK], ky[i:i + REF_BLOCK]))
            for i in range(0, kx.size, REF_BLOCK)
        ])
        kx, ky = self.conc_k
        self.ref_conc, self.ref_conc_gap = np.empty(kx.size), np.empty(kx.size)
        for i in range(0, kx.size, REF_BLOCK):
            block = slice(i, i + REF_BLOCK)
            w, v = np.linalg.eigh(self.conc.hamiltonian(kx[block], ky[block]))
            # Branch (m, n) = (2, 2) is the top level upsilon + E2.
            self.ref_conc[block] = pure_concurrence(v[:, :, 3])
            self.ref_conc_gap[block] = relative_gap(w)

    def check(self, result: PassResult) -> Tally:
        tally = Tally()
        codes = result.outputs
        kx, ky = self.bands_k
        rows = self.rows(codes, "bands", kx.size, 4)
        w = self.ref_bands
        k_dev = np.maximum(_rel(rows[:, 0], kx), _rel(rows[:, 1], ky))
        e_dev = np.maximum(np.abs(rows[:, 2] - w[:, 2]), np.abs(rows[:, 3] - w[:, 3])) / (
            1.0 + w[:, 3]
        )
        tally.add((k_dev <= TOL_COORD) & (e_dev <= TOL_ENERGY), dev_energy=e_dev)

        kx, ky = self.conc_k
        rows = self.rows(codes, "concurrence", kx.size, 4)
        k_dev = np.maximum(_rel(rows[:, 0], kx), _rel(rows[:, 1], ky))
        checked = self.ref_conc_gap >= MIN_GAP
        c_dev = np.abs(rows[:, 2] - self.ref_conc)
        # A flagged point reports C = 0; where the reference state is well
        # defined the closed form must not have been flagged.
        state_ok = (c_dev <= TOL_CONCURRENCE) & (rows[:, 3] == 0)
        readable = ~np.isnan(rows).any(axis=1)
        ok = (k_dev <= TOL_COORD) & np.where(checked, state_ok, readable)
        tally.add(ok, dev_state=np.where(checked, c_dev, 0.0), skipped=int(np.sum(~checked)))

        result.counts = {
            "graphene.flagged": int(np.nansum(rows[:, 3] == 1)),
            "serialization.bytes_out": self.bytes_out(),
        }
        return tally


class ThermalSweeps(CliWorkload):
    """1000-step temperature sweeps, one per thermal_report case."""

    name = "thermal-sweeps"
    ITEM_FUNCTIONS = ("thermo.thermal_report",)
    PASS_SECONDS = 2.5
    TMIN, TMAX = 0.01, 100.0

    def __init__(self, seed: int, workdir: Path, steps: int = 1000):
        super().__init__(workdir)
        self.steps = steps
        self.sets = inputs.thermal_sets(seed)
        self.graphene = inputs.graphene_params(seed, "thermal-sweeps-graphene")
        for case, coef in self.sets.items():
            (self.workdir / f"{case}.json").write_text(inputs.coefficient_json(coef))
        self.temps = temperatures(self.TMIN, self.TMAX, steps)
        sweep = ["--tmin", repr(self.TMIN), "--tmax", repr(self.TMAX), "--steps", str(steps)]
        runs = [(c, c, "full") for c in inputs.THERMAL_CASES]
        runs.insert(2, ("canonical-positive", "canonical", "positive"))
        self.runs = runs
        self.commands = [
            (key, ["thermo", "--input", str(self.workdir / f"{case}.json"), *sweep,
                   "--branch", branch, "--output", str(self.output(key))], steps)
            for key, case, branch in runs
        ]
        self.commands.append(
            ("graphene-thermal", ["graphene-thermal", *self.graphene.argv(), *sweep,
                                  "--output", str(self.output("graphene-thermal"))], steps)
        )
        self.input_hash = inputs.digest(*self.sets.values(), self.graphene, steps)

    def warmup(self, sp):
        self.call(sp, ["thermo", "--input", str(self.workdir / "rotated.json"),
                       "--tmin", "0.1", "--tmax", "1", "--steps", "2",
                       "--output", str(self.output("warmup"))])

    def prepare_reference(self):
        self.ref = {
            key: thermal_reference(self.sets[case], case, self.temps, branch == "positive")
            for key, case, branch in self.runs
        }
        h = self.graphene.hamiltonian(*self.graphene.dirac_point())[0]
        self.ref_graphene = thermal_reference(decompose(h), "constrained", self.temps)

    def check(self, result: PassResult) -> Tally:
        tally = Tally()
        codes = result.outputs
        flags = np.zeros(3, dtype=int)
        for key, _, _ in self.runs:
            ref = self.ref[key]
            rows = self.rows(codes, key, self.steps, 5)
            t_dev = _rel(rows[:, 0], self.temps)
            z_dev = np.abs(np.log(rows[:, 1]) - ref.log_z)
            p_dev = np.abs(rows[:, 2] / ref.purity - 1.0)
            c_dev = np.abs(rows[:, 3] - ref.concurrence)
            ok = (
                (t_dev <= TOL_COORD)
                & (z_dev <= TOL_ENERGY)
                & (p_dev <= TOL_ENERGY)
                & (c_dev <= TOL_CONCURRENCE)
                & (rows[:, 4] == ref.flag)
            )
            tally.add(ok, dev_energy=np.maximum(z_dev, p_dev), dev_state=c_dev)
            for f in range(3):
                flags[f] += int(np.sum(rows[:, 4] == f))

        ref = self.ref_graphene
        rows = self.rows(codes, "graphene-thermal", self.steps, 3)
        c_dev = np.abs(rows[:, 1] - ref.concurrence)
        ok = (_rel(rows[:, 0], self.temps) <= TOL_COORD) & (c_dev <= TOL_CONCURRENCE)
        tally.add(ok & (rows[:, 2] == ref.flag), dev_state=c_dev)

        result.counts = {
            "thermo.flag0": int(flags[0]),
            "thermo.flag1": int(flags[1]),
            "thermo.flag2": int(flags[2]),
            "graphene.flagged": int(np.sum(rows[:, 2] != 0)),
            "serialization.bytes_out": self.bytes_out(),
        }
        return tally


METHODS = {
    "separable-closed-form": "separable",
    "entangled-closed-form": "entangled",
    "quartic-plus-oracle-vectors": "quartic",
    "oracle-numeric": "oracle",
}


class SolveMix:
    """``su2pair.solve`` on 2000 seeded sets, every dispatch route in equal shares.

    Each operation is one ``solve`` call, and so already one item.
    """

    name = "solve-mix"
    ITEM_FUNCTIONS: tuple[str, ...] = ()
    PASS_SECONDS = 0.72

    def __init__(self, seed: int, workdir: Path, count: int = 2000):
        self.coefs, self.kinds = inputs.solve_mix(seed, count)
        self.input_hash = inputs.digest(self.coefs, self.kinds)

    def load(self, sp):
        """Build the package's coefficient objects (part of input generation)."""
        self.sets = [
            sp.CoefficientSet(c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:]) for c in self.coefs
        ]

    def warmup(self, sp):
        sp.solve(self.sets[0])

    def op_labels(self) -> list[str]:
        return self.kinds

    def run_pass(self, sp, clock=None) -> PassResult:
        solve = sp.solve
        out, op_s = [], np.empty(len(self.sets))
        now = time.perf_counter
        for i, c in enumerate(self.sets):
            c0 = now()
            try:
                out.append(solve(c))
            except Exception:  # a raised error fails this item
                out.append(None)
            op_s[i] = now() - c0
        return PassResult(op_s, [NO_PIECES] * len(out), np.ones(len(out), dtype=int), out)

    def prepare_reference(self):
        w, v = np.linalg.eigh(compose(self.coefs))
        self.ref_w, self.ref_v = w, v
        self.ref_gap = relative_gap(w)

    def check(self, result: PassResult) -> Tally:
        n = len(self.coefs)
        values = np.full((n, 4), np.nan)
        states = np.full((n, 4, 4, 4), np.nan, dtype=complex)
        routes = {r: 0 for r in METHODS.values()}
        for i, es in enumerate(result.outputs):
            if es is not None:
                values[i] = es.values.ravel()
                states[i] = es.states.reshape(4, 4, 4)
                routes[METHODS[es.method.value]] += 1
        w, v = self.ref_w, self.ref_v
        scale = 1.0 + np.max(np.abs(w), axis=1)
        e_dev = np.max(np.abs(np.sort(values, axis=1) - w), axis=1) / scale
        # Each labelled state must be the projector onto the reference level
        # nearest to its labelled eigenvalue.
        nearest = np.argmin(np.abs(values[:, :, None] - w[:, None, :]), axis=2)
        vec = np.take_along_axis(v, nearest[:, None, :], axis=2)  # (n, 4, label)
        proj = np.einsum("nal,nbl->nlab", vec, vec.conj())
        s_dev = np.max(np.abs(states - proj), axis=(1, 2, 3))
        checked = self.ref_gap >= MIN_GAP
        ok = (e_dev <= TOL_ENERGY) & ((s_dev <= TOL_PROJECTOR) | ~checked)
        tally = Tally()
        tally.add(ok, dev_energy=e_dev, dev_state=np.where(checked, s_dev, 0.0),
                  skipped=int(np.sum(~checked)))

        kinds = np.array(self.kinds)
        methods = np.array([METHODS[es.method.value] if es else "" for es in result.outputs])
        closed = np.isin(methods, ("separable", "entangled"))
        n_diag = int(np.sum(np.isin(kinds, inputs.DIAGONAL_SHARES)))
        n_closed = int(np.sum(np.isin(kinds, inputs.CLOSED_FORM_SHARES)))
        result.counts = {f"solver.route.{r}": c for r, c in routes.items()}
        result.counts["solver.quartic_accept_ratio"] = routes["quartic"] / n_diag
        result.counts["solver.closed_form_ratio"] = int(np.sum(closed)) / n_closed
        return tally


WORKLOADS = {w.name: w for w in (FigureGrids, ThermalSweeps, SolveMix)}
