"""Every public callable that takes an index, an (m, n) label, a density
matrix, a graphene parameter, a coefficient or a quartic coefficient
refuses a bad one by the one rule that owns that kind of argument, with
the package's own error class and message: ``_invariants._is_index`` for
indices, ``_invariants._check_mn`` for labels, ``oracle.require_density``
for density matrices, ``_invariants._real`` for the bilayer's parameters,
the bounds of a ``GridSpec``, the wave vector of ``map_to_su2su2`` and
``thermal_death_temperature``, a ``CoefficientSet``'s upsilon and, through
``hamiltonian._real_array``, each entry of its alpha, beta and omega unless
they come as an integer or float array (no bool, string, complex number or
None), which ``derive_arrays`` and ``concurrence_closed_form_arrays``
apply to every entry of their batches before refusing a non-finite one,
and ``solve_quartic``'s own check, which refuses bool, string, complex and
None coefficients.
"""

import re
import warnings

import numpy as np
import pytest

import su2pair as sp
from su2pair.errors import DensityMatrixError, InputFormatError

from references import concurrence_columns

# A constrained set on the alpha branch with a non-degenerate spectrum.
ENTANGLED = sp.CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
PARAMS = sp.GrapheneParams(bias=1.0)
GRID = sp.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
ES = sp.solve(ENTANGLED)
DEC = sp.eig_hermitian(sp.fano_compose(ENTANGLED))
STACK = tuple(np.array([x]) for x in (ENTANGLED.alpha, ENTANGLED.beta, ENTANGLED.omega))
NOT_NUMBERS = [True, False, "1", None]


def index_message(bad):
    return f"must be an integer in 0..3, got {bad!r}"


def label_message(m, n):
    return f"branch indices must be 1 or 2, got ({m!r}, {n!r})"


def trace_message(rho):
    return f"density matrix trace {float(np.trace(rho).real)} is not 1"


def shape_message(rho):
    return f"expected a 4x4 density matrix, not of shape {np.shape(rho)}"


def off_trace(excess):
    """I/4 with its first diagonal entry moved by ``excess``."""
    rho = np.eye(4) / 4
    rho[0, 0] += excess
    return rho


# Bad values of each kind.  Indices are integers in 0..3, labels 1 or 2;
# a bool is neither, though True == 1, and neither is a float.
BAD_INDICES = [-1, 4, *NOT_NUMBERS, 1.0, 2.0]
BAD_LABELS = [0, -1, 3, *NOT_NUMBERS, 1.0, 2.0]
BAD_DENSITIES = [np.eye(3) / 3, np.eye(2) / 2, np.ones((4, 4, 2)) / 4, np.ones(16) / 4,
                 None, "1", off_trace(2e-10), off_trace(-2e-10)]

# x^4 - 1, whose coefficients the solve_quartic rows replace one at a time.
QUARTIC = [1, 0, 0, 0, -1]


def coefficients_with(at, value):
    """(upsilon, alpha, beta, omega) of ENTANGLED as nested lists, with
    ``value`` put at the path ``at``: (1,) for all of alpha, (1, 0) for
    its first entry, (3, 1, 2) for omega's entry (1, 2)."""
    fields = [0.0, *(c.tolist() for c in (ENTANGLED.alpha, ENTANGLED.beta, ENTANGLED.omega))]
    *outer, last = at
    target = fields
    for i in outer:
        target = target[i]
    target[last] = value
    return fields


def stack_with(k, entry):
    """STACK as nested lists, with the first entry of its field ``k`` (0
    alpha, 1 beta, 2 omega) replaced by ``entry``."""
    fields = [x.tolist() for x in STACK]
    target = fields[k][0]
    while isinstance(target[0], list):
        target = target[0]
    target[0] = entry
    return fields


def array_message(name, bad):
    """The refusal of a batch whose ``name`` holds ``bad``: the entry rule
    of a CoefficientSet's arrays, then finiteness."""
    if bad is None:
        return f"each {name} entry must be a real number, not None"
    return f"{name} must be finite"


# (name, call with the bad value, bad values, error class, expected message,
# numpy integers the call accepts, with the int each stands for).
TABLE = [
    ("pauli", sp.pauli, BAD_INDICES, IndexError,
     lambda i: f"pauli index {index_message(i)}", [(np.int64(2), 2), (np.uint8(3), 3)]),
    ("pauli_word[i]", lambda i: sp.pauli_word(i, 1), BAD_INDICES, IndexError,
     lambda i: f"pauli word indices must be integers in 0..3, got ({i!r}, 1)",
     [(np.int32(0), 0)]),
    ("pauli_word[j]", lambda j: sp.pauli_word(2, j), BAD_INDICES, IndexError,
     lambda j: f"pauli word indices must be integers in 0..3, got (2, {j!r})",
     [(np.int16(3), 3)]),
    ("projector", DEC.projector, BAD_INDICES, IndexError,
     lambda k: f"projector index {index_message(k)}", [(np.int64(3), 3)]),
    ("eigenvalue[m]", lambda m: ES.eigenvalue(m, 1), BAD_LABELS, ValueError,
     lambda m: label_message(m, 1), [(np.int64(2), 2)]),
    ("eigenvalue[n]", lambda n: ES.eigenvalue(1, n), BAD_LABELS, ValueError,
     lambda n: label_message(1, n), [(np.int8(2), 2)]),
    ("state", lambda m: ES.state(m, 2), BAD_LABELS, ValueError,
     lambda m: label_message(m, 2), [(np.int64(1), 1)]),
    ("bloch_closed_form", lambda n: sp.eigenstate_bloch_closed_form(ENTANGLED, 1, n),
     BAD_LABELS, ValueError, lambda n: label_message(1, n), [(np.int64(2), 2)]),
    ("concurrence_closed_form",
     lambda m: sp.eigenstate_concurrence_closed_form(ENTANGLED, m, 2), BAD_LABELS, ValueError, lambda m: label_message(m, 2), [(np.int64(1), 1)]),
    ("concurrence_arrays", lambda n: sp.concurrence_closed_form_arrays(*STACK, 2, n),
     BAD_LABELS, ValueError, lambda n: label_message(2, n), [(np.int32(1), 1)]),
    ("concurrence_chunks", lambda m: concurrence_columns(PARAMS, GRID, m, 1),
     BAD_LABELS, ValueError, lambda m: label_message(m, 1), [(np.int64(2), 2)]),
    ("wootters_concurrence", sp.wootters_concurrence, BAD_DENSITIES, DensityMatrixError,
     None, []),
    ("bloch_vectors", sp.bloch_vectors, BAD_DENSITIES, DensityMatrixError, None, []),
    ("pure_concurrence", sp.pure_concurrence, BAD_DENSITIES, DensityMatrixError, None, []),
] + [
    (f"GrapheneParams.{name}", lambda v, name=name: sp.GrapheneParams(**{name: v}),
     [*NOT_NUMBERS, 1j, np.True_], InputFormatError,
     lambda v, name=name: f"{name} must be a real number, not {v!r}", [(np.int64(2), 2)])
    for name in ("t", "t3", "tperp", "m", "bias", "lattice")
] + [
    (f"GridSpec.{name}", lambda v, name=name: sp.GridSpec(-1, 1, -1, 1, **{name: v}),
     [*NOT_NUMBERS, 2.0, 3.5], InputFormatError,
     lambda v, name=name: f"{name} must be an integer, not {v!r}", [(np.int64(3), 3)])
    for name in ("nx", "ny")
] + [
    (f"GridSpec.{name}",
     lambda v, name=name: sp.GridSpec(**{**dict(kx_min=-1, kx_max=1, ky_min=-1, ky_max=1), name: v}),
     [*NOT_NUMBERS, 1j, np.True_], InputFormatError,
     lambda v, name=name: f"{name} must be a real number, not {v!r}",
     [(np.int64(-2 if name.endswith("min") else 2), -2 if name.endswith("min") else 2)])
    for name in ("kx_min", "kx_max", "ky_min", "ky_max")
] + [
    (f"{f.__name__}.{name}",
     lambda v, f=f, name=name: f(PARAMS, **{"kx": 0.5, "ky": 1.0, name: v}),
     [*NOT_NUMBERS, 1j, np.True_], InputFormatError,
     lambda v, name=name: f"{name} must be a real number, not {v!r}", [(np.int64(2), 2)])
    for f in (sp.map_to_su2su2, sp.thermal_death_temperature) for name in ("kx", "ky")
] + [
    ("CoefficientSet.upsilon", lambda v: sp.CoefficientSet(*coefficients_with((0,), v)),
     [*NOT_NUMBERS, 1j, np.True_, np.array(0.5)], ValueError,
     lambda v: f"upsilon must be a real number, not {v!r}", [(np.int64(2), 2)]),
] + [
    (f"CoefficientSet.{name}", lambda v, at=at: sp.CoefficientSet(*coefficients_with(at, v)),
     [*NOT_NUMBERS, 1j, np.True_], ValueError,
     lambda v, name=name: f"each {name} entry must be a real number, not {v!r}",
     [(np.int64(2), 2)])
    for name, at in (("alpha", (1, 0)), ("beta", (2, 2)), ("omega", (3, 1, 2)))
] + [
    (f"CoefficientSet.{name}-array", lambda a, k=k: sp.CoefficientSet(*coefficients_with((k,), a)),
     [np.full(shape, v) for v in (False, "1", 1j, None)], ValueError,
     lambda a, name=name: f"each {name} entry must be a real number, not {a.ravel().tolist()[0]!r}",
     [(np.ones(shape, np.int8), np.ones(shape).tolist())])
    for k, (name, shape) in enumerate((("alpha", (3,)), ("beta", (3,)), ("omega", (3, 3))), 1)
] + [
    (f"solve_quartic.{name}", lambda v, k=k: sp.solve_quartic(*QUARTIC[:k], v, *QUARTIC[k + 1:]),
     [True, False, "1", b"1", 1j, np.True_, np.array([True, False]), None], ValueError,
     lambda v, name=name: f"{name} must be a real number or array, not {v!r}",
     [(np.int64(2), 2), (np.float32(2.0), 2.0)])
    for k, name in enumerate(("c4", "c3", "c2", "c1", "c0"))
] + [
    (f"{label}.{name}", lambda v, f=f, k=k: f(*stack_with(k, v)),
     [None, np.nan, np.inf, -np.inf], ValueError,
     lambda v, name=name: array_message(name, v), [])
    for label, f in (("derive_arrays", sp.derive_arrays),
                     ("concurrence_arrays",
                      lambda a, b, w: sp.concurrence_closed_form_arrays(a, b, w, 2, 1)))
    for k, name in enumerate(("alpha", "beta", "omega"))
]


def density_message(rho):
    return shape_message(rho) if np.shape(rho) != (4, 4) else trace_message(rho)


@pytest.mark.parametrize(
    "call, bad, error, message",
    [pytest.param(call, bad, error, message or density_message, id=f"{name}-{k}")
     for name, call, bads, error, message, _ in TABLE for k, bad in enumerate(bads)],
)
def test_each_kind_of_argument_is_refused_by_its_one_rule(call, bad, error, message):
    with pytest.raises(error, match=f"^{re.escape(message(bad))}$"):
        call(bad)


@pytest.mark.parametrize(
    "call, good",
    [pytest.param(call, good, id=name) for name, call, _, _, _, good in TABLE if good],
)
def test_numpy_integers_stand_for_their_ints(call, good):
    for value, plain in good:
        got, want = call(value), call(plain)
        assert type(got) is type(want)
        assert all(map(np.array_equal, parts(got), parts(want)))


def parts(result):
    """The arrays and values of a call's result: a dict's columns, a tuple's
    items, a record's fields, or the result itself."""
    if isinstance(result, dict):
        return list(result.values())
    if isinstance(result, tuple):
        return list(result)
    if hasattr(type(result), "__match_args__"):
        return [getattr(result, name) for name in type(result).__match_args__]
    return [result]


def test_densities_within_the_trace_bound_pass():
    for excess in (5e-11, -5e-11):
        rho = off_trace(excess)
        assert sp.wootters_concurrence(rho) == 0.0
        assert sp.bloch_vectors(rho).a_modulus <= 1e-10


def test_grid_bounds_are_stored_as_python_floats():
    g = sp.GridSpec(np.float32(-0.5), np.int64(1), -1, 1.0, 3, 3)
    assert [type(getattr(g, f)) for f in ("kx_min", "kx_max", "ky_min", "ky_max")] == [float] * 4
    assert g == sp.GridSpec(-0.5, 1.0, -1.0, 1.0, 3, 3)


@pytest.mark.parametrize("call", [sp.bloch_vectors, sp.pure_concurrence])
def test_a_density_matrix_is_checked_once_a_call(call, monkeypatch):
    """One require_density and one Hermiticity check a call: pure_concurrence
    ran require_density twice, and bloch_vectors checked Hermiticity in it
    and again in fano_decompose."""
    from su2pair import hamiltonian, oracle

    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "require_density", counted("density", oracle.require_density))
    for module in (oracle, hamiltonian):
        monkeypatch.setattr(module, "require_hermitian", counted("hermitian", module.require_hermitian))
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    call(np.outer(psi, psi.conj()))
    assert sorted(calls) == ["density", "hermitian"]


def test_graphene_parameters_are_stored_as_python_floats():
    """A numpy float32 or integer parameter is read as the float it holds,
    with no cast warning; equal parameters make equal records."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sp.GrapheneParams(t=np.float32(0.5), t3=np.int64(2), tperp=1, bias=np.float32(1e30))
    assert [type(getattr(p, f)) for f in ("t", "t3", "tperp", "bias")] == [float] * 4
    assert (p.t, p.t3, p.tperp, p.bias) == (0.5, 2.0, 1.0, float(np.float32(1e30)))
    assert sp.GrapheneParams(t=1) == sp.GrapheneParams(t=1.0)


@pytest.mark.parametrize(
    "argv, message",
    [(["--t", "nan"], "t must be finite"),
     (["--grid", "1"], "grid needs at least 2 samples per axis"),
     (["--lattice", "0"], "lattice constant must be positive")],
)
def test_graphene_records_raise_the_usage_error(argv, message, tmp_path, capsys):
    """The records raise InputFormatError themselves, which the CLI maps to
    exit code 2 with the record's message."""
    from su2pair.cli import main

    out = tmp_path / "x.csv"
    assert main(["graphene-bands", *argv, "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
