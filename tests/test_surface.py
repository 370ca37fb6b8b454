"""The package's public surface: the names ``su2pair`` exports."""

import ast
import inspect
import re
from pathlib import Path

import su2pair

PUBLIC = [
    "BlochPair", "Branch", "CaseKind", "Classification", "CoefficientSet",
    "ConcurrenceDomainError", "ConstraintError", "DegenerateBranchError",
    "DensityMatrixError", "DerivedCoefficients", "Eigensystem",
    "EnsembleBranch", "GrapheneParams", "GridSpec", "InputFormatError",
    "InvariantViolation", "NonHermitianError", "SolveMethod",
    "SpectralDecomposition", "ThermalConcurrenceResult", "ThermalReport",
    "bloch_vectors", "classify", "concurrence_closed_form_arrays",
    "default_grid", "derive", "derive_arrays", "eig_hermitian",
    "eigenstate_bloch_closed_form", "eigenstate_concurrence_closed_form",
    "fano_compose", "fano_decompose", "find_dirac_point", "map_to_su2su2",
    "pauli", "pauli_word", "pure_concurrence", "rotate_set",
    "secular_coefficients", "solve", "solve_quartic", "thermal_concurrence",
    "thermal_death_temperature", "thermal_report", "thermal_state",
    "thermal_sweep", "wootters_concurrence",
]

# Public names that no module but their own, no perfbench/ code and no line
# of README's library sketch refers to, each with the reason it is public.
TYPES_ONLY_RETURNED = {
    "BlochPair": "the record bloch_vectors and eigenstate_bloch_closed_form return",
    "Branch": "the type of a Classification's branch field",
    "Classification": "the record classify returns",
    "ThermalConcurrenceResult": "the record thermal_concurrence returns",
    "ThermalReport": "the record thermal_report returns",
}

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def _readme_section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _sketch() -> str:
    return _readme_section("Library sketch").split("```python", 1)[1].split("```", 1)[0]


def _code_names(source: str) -> set[str]:
    """The names that Python code refers to, as a Name or an Attribute:
    docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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
    used = set(re.findall(r"\bsp\.(\w+)", _sketch()))
    assert {"fano_decompose", "secular_coefficients", "thermal_report"} <= used
    assert used <= set(PUBLIC)


def test_readme_api_section_lists_all_by_module():
    rows = re.findall(r"^\| (\w+) \| (`.+) \|$", _readme_section("API"), re.M)
    listed = {module: re.findall(r"`(\w+)`", names) for module, names in rows}
    assert listed == {module: list(names) for module, names in su2pair._NAMES.items()}


def test_every_public_name_has_a_caller_outside_the_tests():
    """Nothing is public for the tests alone: every name in __all__ is
    referred to by the code of a package module other than its own, of the
    benchmark in perfbench/ or of README's library sketch, or is one of the
    types in TYPES_ONLY_RETURNED."""
    src = Path(su2pair.__file__).resolve().parent
    modules = {path.stem: _code_names(path.read_text()) for path in src.glob("*.py")}
    outside = set().union(
        _code_names(_sketch()),
        *(_code_names(path.read_text()) for path in (REPO / "perfbench").glob("*.py")),
    )
    unreferenced = sorted(
        name for name, own in su2pair._MODULE_OF.items()
        if name not in outside
        and not any(name in names for module, names in modules.items() if module != own)
    )
    assert unreferenced == sorted(TYPES_ONLY_RETURNED)
