"""Two-qubit SU(2)xSU(2) Hamiltonian toolkit.

Closed-form eigensystems (separable and constrained-entangled cases),
quartic secular equations, pure-state concurrence, and thermal sweeps of
the partition function, purity and concurrence, all verified against a
dense numerical oracle, plus the Bernal-stacked bilayer graphene
specialization.

Importing the package executes none of its modules.  Each module in
``_LAZY`` is registered in ``sys.modules`` as a :class:`_LazyModule` and
is compiled and executed on its first attribute access, so a process pays
only for the modules it uses: a graphene grid command never executes
``hamiltonian``, ``pauli``, ``thermo``, ``solver``, ``oracle`` or
``quartic``.  A module executes under
one package-wide reentrant lock and becomes a plain module only after its
code has run, so threads that first touch it together wait for one
execution.  ``_NAMES`` maps each module to the public names it exports;
``__all__`` is built from it, and a module ``__getattr__`` (PEP 562)
resolves each name on first use and keeps it in the package namespace.
Public names win over submodule names, so ``su2pair.pauli`` is the
function.  ``cli``, ``verify`` and ``sampling`` are imported the usual way.
"""

import importlib.util
import sys
import threading
import types

# The public names, one group per module; tests/test_surface.py pins them.
_NAMES = {
    "entanglement": (
        "BlochPair", "bloch_vectors", "concurrence_closed_form_arrays",
        "eigenstate_bloch_closed_form", "eigenstate_concurrence_closed_form",
        "pure_concurrence",
    ),
    "errors": (
        "ConcurrenceDomainError", "ConstraintError", "DegenerateBranchError",
        "DensityMatrixError", "FactorizationError", "InputFormatError",
        "InvariantViolation", "NonHermitianError",
    ),
    "graphene": (
        "GrapheneParams", "GridSpec", "band_grid", "concurrence_grid",
        "default_grid", "find_dirac_point", "map_to_su2su2",
        "thermal_death_temperature",
    ),
    "hamiltonian": (
        "Branch", "CaseKind", "Classification", "CoefficientSet",
        "DerivedCoefficients", "classify", "derive", "derive_arrays",
        "fano_compose", "fano_decompose", "rotate_set",
    ),
    "oracle": ("SpectralDecomposition", "eig_hermitian", "wootters_concurrence"),
    "pauli": ("pauli", "pauli_word"),
    "quartic": ("solve_quartic",),
    "solver": (
        "Eigensystem", "SolveMethod", "Su2Factor", "factor_dyadic",
        "secular_coefficients", "solve", "solve_entangled", "solve_separable",
    ),
    "thermo": (
        "EnsembleBranch", "ThermalConcurrenceResult", "ThermalReport",
        "thermal_concurrence", "thermal_report", "thermal_state",
        "thermal_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE_OF)

# Every module that ``import su2pair.cli`` used to execute, cli aside: a
# lazily registered cli would make ``python -m su2pair.cli`` warn that it
# was in sys.modules before it ran.
_LAZY = (*_NAMES, "_invariants", "serialization")


# Held while a registered module executes.  One lock for the package
# cannot deadlock on lock order, and a reentrant one lets a module's code
# touch the modules it imports.
_EXECUTING = threading.RLock()


class _LazyModule(types.ModuleType):
    """A registered module whose code has not run: its first attribute
    access, ``__dict__`` included, executes it.  ``type(m)`` reads no
    attribute, so ``type(m) is types.ModuleType`` tells an executed module
    without executing one."""

    def __getattribute__(self, attr):
        with _EXECUTING:
            if type(self) is _LazyModule:
                self.__class__ = _ExecutingModule
                spec = types.ModuleType.__getattribute__(self, "__spec__")
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


class _ExecutingModule(_LazyModule):
    """A module whose code is running: the thread running it reads what is
    there so far, as in any import, and every other thread waits for the
    lock, which is released once the code has run."""


def _register(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    lazy = importlib.util.module_from_spec(spec)
    lazy.__class__ = _LazyModule
    sys.modules[spec.name] = lazy


for _module in _LAZY:
    _register(_module)
del _module


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(sys.modules[f"{__name__}.{_MODULE_OF[name]}"], name)
    elif name in _LAZY:
        value = sys.modules[f"{__name__}.{name}"]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys() | set(_LAZY))


__version__ = "0.1.0"
