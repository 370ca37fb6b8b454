"""What each entry point executes: the package registers its modules in
sys.modules and executes each on first use.  Each probe runs in a fresh
interpreter.  A module counts as executed when ``type(m) is
types.ModuleType``: ``type()`` does not trigger a lazy load, where
``m.__class__`` would."""

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
import contextlib, io, json, sys, types
from su2pair.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
ours = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "su2pair"}
print(json.dumps({
    "code": code,
    "registered": sorted(ours),
    "executed": sorted(n for n, m in ours.items() if type(m) is types.ModuleType),
}))
"""


def run(args=(), cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def probe(argv=(), cwd=None) -> dict:
    done = run(["-c", PROBE, *argv], cwd=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_executes_only_cli_and_errors():
    seen = probe()
    assert seen["executed"] == ["su2pair", "su2pair.cli", "su2pair.errors"]
    assert REGISTERED <= set(seen["registered"])


def test_thermo_command_executes_no_graphene_entanglement_or_quartic(tmp_path):
    (tmp_path / "set.json").write_text(json.dumps({
        "upsilon": 0.3, "alpha": [1, 2, 3], "beta": [3, 1, 2],
        "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
    }))
    argv = ["thermo", "--input", "set.json", "--tmin", "0.1", "--tmax", "10",
            "--steps", "20", "--output", "out.csv"]
    seen = probe(argv, cwd=tmp_path)
    assert seen["code"] == 0
    assert "su2pair.thermo" in seen["executed"]
    unused = {"su2pair.graphene", "su2pair.entanglement", "su2pair.quartic"}
    assert not unused & set(seen["executed"])


@pytest.mark.parametrize("command", ["graphene-bands", "graphene-concurrence"])
def test_graphene_grid_commands_execute_no_thermo_solver_oracle_or_quartic(command, tmp_path):
    seen = probe([command, "--grid", "11", "--output", "out.csv"], cwd=tmp_path)
    assert seen["code"] == 0
    assert "su2pair.graphene" in seen["executed"]
    unused = {"su2pair.thermo", "su2pair.solver", "su2pair.oracle", "su2pair.quartic"}
    assert not unused & set(seen["executed"])


def test_module_run_writes_nothing_to_stderr():
    """cli is not registered ahead of its run, so runpy does not warn."""
    done = run(["-m", "su2pair.cli", "quartic", "--coeffs", "1", "0", "0", "0", "-1"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 4
