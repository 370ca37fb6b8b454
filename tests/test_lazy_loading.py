"""What each entry point executes: the package registers its modules in
sys.modules and executes each on first use.  Each probe runs in a fresh
interpreter.  A module counts as executed when ``type(m) is
types.ModuleType``: ``type()`` does not trigger a lazy load, where
``m.__class__`` would.  The probe reads whether the command imported
``json`` before it imports ``json`` itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import su2pair

SRC = str(Path(su2pair.__file__).resolve().parent.parent)

# The modules that ``import su2pair.cli`` loaded before they were registered
# lazily, cli aside.
REGISTERED = {
    f"su2pair.{name}" for name in (
        "errors", "_invariants", "pauli", "hamiltonian", "oracle", "quartic",
        "solver", "thermo", "entanglement", "graphene", "serialization",
    )
}

PROBE = """\
import contextlib, io, sys, types
from su2pair.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "su2pair"}
json_imported = "json" in sys.modules
import json
print(json.dumps({
    "code": code,
    "json": json_imported,
    "registered": sorted(ours),
    "executed": sorted(n for n, m in ours.items() if type(m) is types.ModuleType),
}))
"""


def run(args=(), cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )


def probe(argv=(), cwd=None) -> dict:
    done = run(["-c", PROBE, *argv], cwd=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_executes_only_cli_and_errors():
    seen = probe()
    assert seen["executed"] == ["su2pair", "su2pair.cli", "su2pair.errors"]
    assert not seen["json"]
    assert REGISTERED <= set(seen["registered"])


# One set per thermo route: the product levels, the even closed forms and
# the dense spectrum of the definition route.
THERMO_SETS = {
    "product": {
        "upsilon": 3.0, "alpha": [0, 0, 6], "beta": [1, 0, 0],
        "omega": [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
    },
    "constrained": {
        "upsilon": 0.3, "alpha": [0, 0, 1], "beta": [0.2, 0.1, 0.4],
        "omega": [[1, 0.5, 0], [0.5, 2, 0], [0, 0, 0]],
    },
    "general": {
        "upsilon": 0.3, "alpha": [1, 2, 3], "beta": [3, 1, 2],
        "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
    },
}


def thermo_probe(case: str, tmp_path) -> dict:
    (tmp_path / "set.json").write_text(json.dumps(THERMO_SETS[case]))
    argv = ["thermo", "--input", "set.json", "--tmin", "0.1", "--tmax", "10",
            "--steps", "20", "--output", "out.csv"]
    seen = probe(argv, cwd=tmp_path)
    assert seen["code"] == 0
    assert "su2pair.thermo" in seen["executed"]
    # The coefficient set is read as JSON.
    assert seen["json"]
    return seen


def test_thermo_command_executes_no_graphene_entanglement_or_quartic(tmp_path):
    seen = thermo_probe("general", tmp_path)
    unused = {"su2pair.graphene", "su2pair.entanglement", "su2pair.quartic"}
    assert not unused & set(seen["executed"])


@pytest.mark.parametrize("case", ["product", "constrained"])
def test_closed_form_thermo_executes_no_solver_or_oracle(case, tmp_path):
    seen = thermo_probe(case, tmp_path)
    assert not {"su2pair.solver", "su2pair.oracle"} & set(seen["executed"])


def test_definition_route_thermo_executes_the_oracle_and_no_solver(tmp_path):
    seen = thermo_probe("general", tmp_path)
    assert "su2pair.oracle" in seen["executed"]
    assert "su2pair.solver" not in seen["executed"]


def test_graphene_thermal_at_the_dirac_point_executes_no_solver_oracle_or_entanglement(tmp_path):
    seen = probe(["graphene-thermal", "--steps", "20", "--output", "out.csv"], cwd=tmp_path)
    assert seen["code"] == 0
    assert {"su2pair.graphene", "su2pair.thermo"} <= set(seen["executed"])
    assert not {"su2pair.solver", "su2pair.oracle"} & set(seen["executed"])
    assert "su2pair.entanglement" not in seen["executed"]
    assert not seen["json"]


# What a grid command executes: the grid layer, the derived-record kernel
# and the CSV writer, and for the concurrence the closed-form radical.
GRID_LAYER = {
    "su2pair", "su2pair.cli", "su2pair.errors", "su2pair._invariants", "su2pair.graphene",
    "su2pair.serialization",
}


@pytest.mark.parametrize("command", ["graphene-bands", "graphene-concurrence"])
def test_graphene_grid_commands_execute_only_the_grid_layer(command, tmp_path):
    seen = probe([command, "--grid", "11", "--output", "out.csv"], cwd=tmp_path)
    assert seen["code"] == 0
    assert "su2pair.graphene" in seen["executed"]
    unused = {"su2pair.thermo", "su2pair.solver", "su2pair.oracle", "su2pair.quartic"}
    assert not unused & set(seen["executed"])
    # CoefficientSet and derive are for one wave vector; a grid needs neither.
    assert not {"su2pair.hamiltonian", "su2pair.pauli"} & set(seen["executed"])
    if command == "graphene-bands":
        assert "su2pair.entanglement" not in seen["executed"]
    radical = {"su2pair.entanglement"} if command == "graphene-concurrence" else set()
    assert set(seen["executed"]) == GRID_LAYER | radical
    assert not seen["json"]


# Four threads make their first call into a freshly imported package at
# once, with the interpreter switching threads as often as it can, in 20
# rounds; prints every exception a thread raised.
RACE = """\
import json, sys, threading
sys.setswitchinterval(1e-6)
failures = []
for _ in range(20):
    for name in [n for n in sys.modules if n.split(".")[0] == "su2pair"]:
        del sys.modules[name]
    import su2pair
    barrier = threading.Barrier(4)

    def first_call():
        barrier.wait()
        try:
            su2pair.classify(su2pair.CoefficientSet(
                0.3, [1, 2, 3], [3, 1, 2], [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]]))
        except Exception as exc:
            failures.append(repr(exc))

    threads = [threading.Thread(target=first_call) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        if thread.is_alive():
            failures.append("a thread did not finish")
print(json.dumps(failures))
"""


def test_threads_that_first_touch_a_module_together_wait_for_one_execution():
    done = run(["-c", RACE])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_module_run_writes_nothing_to_stderr():
    """cli is not registered ahead of its run, so runpy does not warn."""
    done = run(["-m", "su2pair.cli", "quartic", "--coeffs", "1", "0", "0", "0", "-1"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 4
