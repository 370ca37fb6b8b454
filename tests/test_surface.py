"""The package's public surface: the names ``su2pair`` exports."""

import inspect
import re
from pathlib import Path

import su2pair

PUBLIC = [
    "BlochPair", "Branch", "CaseKind", "Classification",
    "CoefficientSet", "ConcurrenceDomainError", "ConstraintError",
    "DegenerateBranchError", "DensityMatrixError", "DerivedCoefficients",
    "Eigensystem", "EnsembleBranch", "FactorizationError", "GrapheneParams",
    "GridSpec", "InputFormatError", "InvariantViolation", "NonHermitianError",
    "SolveMethod", "SpectralDecomposition", "Su2Factor",
    "ThermalConcurrenceResult", "ThermalReport", "band_grid", "bloch_vectors",
    "classify", "concurrence_closed_form_arrays", "concurrence_grid",
    "default_grid", "derive", "derive_arrays", "eig_hermitian",
    "eigenstate_bloch_closed_form", "eigenstate_concurrence_closed_form",
    "factor_dyadic", "fano_compose", "fano_decompose", "find_dirac_point",
    "map_to_su2su2", "pauli", "pauli_word", "pure_concurrence", "rotate_set",
    "secular_coefficients", "solve", "solve_entangled", "solve_quartic",
    "solve_separable", "thermal_concurrence", "thermal_death_temperature",
    "thermal_report", "thermal_state", "thermal_sweep", "wootters_concurrence",
]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_public_list():
    assert sorted(su2pair.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(su2pair, name).__module__.startswith("su2pair.")


def test_all_is_what_the_package_exports():
    """Every public name bound in the package, submodules aside, is in __all__.
    Names resolve on first use, so each name dir() lists is resolved first."""
    for name in dir(su2pair):
        getattr(su2pair, name)
    exported = [
        name for name, value in vars(su2pair).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(exported) == PUBLIC


def test_pauli_is_the_function_not_the_module():
    assert inspect.isfunction(su2pair.pauli)
    assert su2pair.pauli.__module__ == "su2pair.pauli"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from su2pair import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(su2pair.__all__)


def test_dir_lists_every_public_name():
    assert set(su2pair.__all__) <= set(dir(su2pair))


def test_no_public_callable_takes_a_search_or_tolerance_knob():
    """Tolerances, brackets and iteration counts are the package's fixed
    constants, not per-call settings.  Exceptions take a message only."""
    knobs = {"tol", "seed", "steps", "t_low", "t_high", "iters", "compare"}
    for name in PUBLIC:
        value = getattr(su2pair, name)
        if not (inspect.isclass(value) and issubclass(value, Exception)):
            assert not knobs & set(inspect.signature(value).parameters), name


def test_samplers_take_no_one_value_parameter():
    """The spectral gap and the draw scale are fixed: MIN_GAP, and unit
    normal coefficients that a caller scales itself."""
    from su2pair import sampling

    for name, value in vars(sampling).items():
        if inspect.isfunction(value) and value.__module__ == sampling.__name__:
            assert not {"min_gap", "scale"} & set(inspect.signature(value).parameters), name


def test_default_tol_is_defined_once():
    """The gates are decided in _invariants at DEFAULT_TOL; hamiltonian
    re-exports that one value, and no other module binds its own."""
    from su2pair import _invariants, hamiltonian

    assert hamiltonian.DEFAULT_TOL is _invariants.DEFAULT_TOL == 1e-9
    src = Path(su2pair.__file__).resolve().parent
    binders = sorted(
        path.name for path in src.glob("*.py")
        if re.search(r"^\s*DEFAULT_TOL\s*(:[^=]*)?=", path.read_text(), re.M)
    )
    assert binders == ["_invariants.py"]


def test_argument_rules_are_defined_once():
    """The index rule, the branch-label check and the real-number rule (of
    the graphene parameters, grid bounds, wave vectors and upsilon) are
    defined only in _invariants, the density-matrix check only in oracle,
    the coefficient-array rule and the unchecked Pauli projection only in
    hamiltonian, and cli re-wraps
    no error of the graphene records, which raise the usage error
    themselves."""
    from su2pair import cli

    src = Path(su2pair.__file__).resolve().parent
    texts = {path.name: path.read_text() for path in src.glob("*.py")}

    def definers(pattern):
        return sorted(name for name, text in texts.items() if re.search(pattern, text, re.M))

    assert definers(r"^\s*def _is_index\b") == ["_invariants.py"]
    assert definers(r"^\s*def _check_mn\b") == ["_invariants.py"]
    assert definers(r"^\s*def require_density\b") == ["oracle.py"]
    assert definers(r"4x4 density matrix") == ["oracle.py"]
    assert definers(r"trace \{tr\} is not 1") == ["oracle.py"]
    assert definers(r"must be a real number, not") == ["_invariants.py"]
    assert definers(r"^\s*def _real\b") == ["_invariants.py"]
    assert definers(r"^\s*def _real_array\b") == ["hamiltonian.py"]
    assert definers(r"^\s*def _pauli_projection\b") == ["hamiltonian.py"]
    for function in (cli._graphene_params, cli._grid_spec):
        assert "except" not in inspect.getsource(function), function.__name__


def test_readme_library_sketch_uses_only_public_names():
    text = README.read_text()
    sketch = text.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bsp\.(\w+)", sketch))
    assert {"fano_decompose", "concurrence_grid", "band_grid", "thermal_report"} <= used
    assert used <= set(PUBLIC)
