"""Tests of the benchmark itself: its checks can fail, spans nest, inputs repeat.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import ItemClock, Tracer  # noqa: E402
from workloads import FigureGrids, PassResult, SolveMix, ThermalSweeps  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def sp():
    return run.import_package()


def _checked(wl, sp):
    wl.load(sp)
    wl.prepare_reference()
    result = wl.run_pass(sp)
    return result, wl.check(result)


def _edit_cell(path: Path, row: int, col: int, text: str):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    assert inputs.digest(*inputs.solve_mix(7, 16)) == inputs.digest(*inputs.solve_mix(7, 16))
    assert inputs.digest(*inputs.solve_mix(7, 16)) != inputs.digest(*inputs.solve_mix(8, 16))
    a = ThermalSweeps(7, tmp_path / "a", steps=4).input_hash
    assert a == ThermalSweeps(7, tmp_path / "b", steps=4).input_hash
    assert a != ThermalSweeps(8, tmp_path / "c", steps=4).input_hash
    assert FigureGrids(7, tmp_path / "d", 5).input_hash == FigureGrids(7, tmp_path / "e", 5).input_hash


def test_solve_mix_reaches_every_route_in_equal_shares():
    _, kinds = inputs.solve_mix(3, 80)
    assert sorted(set(kinds)) == sorted(inputs.SOLVE_SHARES)
    assert all(kinds.count(k) == 10 for k in inputs.SOLVE_SHARES)


def test_figure_grid_check_counts_a_corrupted_cell_and_swapped_bands(tmp_path, sp):
    wl = FigureGrids(3, tmp_path, samples=21)
    result, tally = _checked(wl, sp)
    assert (tally.attempted, tally.failed) == (wl.items(), 0)

    bands = wl.output("bands")
    original = bands.read_text()
    _edit_cell(bands, 5, 2, "garbage")
    assert wl.check(result).failed == 1

    bands.write_text(original)
    rows = bands.read_text().splitlines()
    e1, e2 = rows[8].split(",")[2:4]
    _edit_cell(bands, 7, 2, e2)
    _edit_cell(bands, 7, 3, e1)
    assert wl.check(result).failed == 1

    bands.write_text(original)
    conc = wl.output("concurrence")
    c = float(conc.read_text().splitlines()[4].split(",")[2])
    _edit_cell(conc, 3, 2, repr(c + 1e-6))
    assert wl.check(result).failed == 1


def test_failed_command_fails_all_its_items(tmp_path, sp):
    wl = FigureGrids(3, tmp_path, samples=11)
    key, argv, n = wl.commands[1]
    wl.commands[1] = (key, argv + ["--grid", "1"], n)  # rejected: exit code 3
    _, tally = _checked(wl, sp)
    assert tally.failed == n


def test_thermal_check_counts_a_wrong_partition_function_and_flag(tmp_path, sp):
    wl = ThermalSweeps(3, tmp_path, steps=20)
    result, tally = _checked(wl, sp)
    assert (tally.attempted, tally.failed) == (wl.items(), 0)
    assert result.counts["thermo.flag0"] > 0 and result.counts["thermo.flag2"] > 0

    path = wl.output("rotated")
    z = float(path.read_text().splitlines()[3].split(",")[1])
    _edit_cell(path, 2, 1, repr(z * (1 + 1e-8)))
    _edit_cell(path, 9, 4, "2")
    assert wl.check(result).failed == 2


def test_solve_check_counts_a_swapped_eigenvalue_and_an_exception(tmp_path, sp):
    wl = SolveMix(3, tmp_path, count=16)
    result, tally = _checked(wl, sp)
    assert (tally.attempted, tally.failed) == (16, 0)

    es = result.outputs[0]
    swapped = es.values.copy()
    swapped[0, 0], swapped[1, 1] = es.values[1, 1], es.values[0, 0]
    result.outputs[0] = dataclasses.replace(es, values=swapped)
    result.outputs[1] = None
    assert wl.check(result).failed == 2


def test_spans_nest_and_self_times_sum_to_the_traced_pass(tmp_path, sp):
    wl = FigureGrids(3, tmp_path, samples=9)
    wl.load(sp)
    original = sp.solve
    tracer = Tracer()
    tracer.install()
    try:
        assert sp.solve is not original
        with tracer.root("bench.pass"):
            wl.run_pass(sp)
            for c in SolveMix(3, tmp_path, count=8).coefs:
                sp.solve(sp.CoefficientSet(c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:]))
    finally:
        tracer.uninstall()
    assert sp.solve is original

    a = tracer.arrays()
    names = np.array(tracer.names)[a["name_id"]]
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert np.all(a["start"][child] >= a["start"][parent])
    assert np.all(a["end"][child] <= a["end"][parent])
    # Every span below an operation's first call shares that call's operation id.
    below = child & (a["parent"] > 0)
    assert np.array_equal(a["op"][below], a["op"][a["parent"][below]])
    assert len(set(a["op"][a["parent"] == 0])) == len(wl.commands) + 8

    root_s = a["end"][0] - a["start"][0]
    assert tracer.self_times().sum() == pytest.approx(root_s, rel=1e-9)
    derive_parents = set(names[a["parent"][names == "hamiltonian.derive"]])
    assert "graphene.positive_bands" in derive_parents
    assert "cli.main" in names and "solver.solve" in names


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _pass(op_seconds, pieces):
    return PassResult(np.array(op_seconds), [np.array(p) for p in pieces],
                      np.ones(len(op_seconds), dtype=int), None)


def test_fastest_takes_each_piece_at_its_fastest():
    fastest = run.Fastest()
    fastest.add(_pass([1.0, 0.5], [[0.2, 0.5], []]))
    fastest.add(_pass([1.1, 0.4], [[0.4, 0.3], []]))
    # Op 0: pieces 0.2 + 0.3, rest min(0.3, 0.4); op 1 has no pieces.
    assert fastest.seconds() == pytest.approx([0.8, 0.4])
    assert fastest.whole == pytest.approx([1.0, 0.4])
    fastest.add(_pass([0.9, 0.6], [[0.1], []]))
    assert fastest.seconds() == pytest.approx([0.9, 0.4])  # pieces changed: whole time


def test_item_clock_times_outermost_calls_and_restores_the_package(tmp_path, sp):
    wl = ThermalSweeps(3, tmp_path, steps=7)
    wl.load(sp)
    original = sp.cli.thermal_report
    clock = ItemClock(ThermalSweeps.ITEM_FUNCTIONS + ("thermo.no_such_function",))
    clock.install()
    try:
        assert sp.cli.thermal_report is not original
        result = wl.run_pass(sp, clock)
    finally:
        clock.uninstall()
    assert sp.cli.thermal_report is original
    sizes = [p.size for p in result.op_pieces]
    assert sizes == [7] * (len(wl.commands) - 1) + [0]  # graphene-thermal has no thermal_report
    assert all(p.sum() < t for p, t in zip(result.op_pieces, result.op_seconds))
