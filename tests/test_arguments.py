"""Every public callable that takes an index, an (m, n) label, a density
matrix or a graphene parameter refuses a bad one by the one rule that owns
that kind of argument, with the package's own error class and message:
``_invariants._is_index`` for indices, ``_invariants._check_mn`` for
labels, ``oracle.require_density`` for density matrices and
``GrapheneParams`` for the bilayer's parameters.
"""

import re
import warnings

import numpy as np
import pytest

import su2pair as sp
from su2pair.errors import DensityMatrixError, InputFormatError

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
    ("concurrence_grid", lambda m: sp.concurrence_grid(PARAMS, GRID, m, 1),
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
