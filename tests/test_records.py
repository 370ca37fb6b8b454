"""The package's immutable records: the constructor, validation, immutability,
equality, hashing and repr that each keeps without being a dataclass, the
dataclass contract of the two that stay dataclasses, and no method of any
record generated as source."""

import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import su2pair
from su2pair.entanglement import BlochPair
from su2pair.graphene import GrapheneParams, GridSpec
from su2pair.hamiltonian import (
    Branch,
    CaseKind,
    Classification,
    CoefficientSet,
    DerivedCoefficients,
    derive,
)
from su2pair.oracle import SpectralDecomposition
from su2pair.solver import Eigensystem, SolveMethod, Su2Factor, solve
from su2pair.thermo import EnsembleBranch, ThermalConcurrenceResult, ThermalReport
from su2pair.verify import SuiteResult

# name: (class, field names, values of the required fields, defaults, a
# check of the class's own properties and methods, and pairs of bad keyword
# values and the message they raise).
RECORDS = {
    "CoefficientSet": (
        CoefficientSet, ("upsilon", "alpha", "beta", "omega"),
        (0.5, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], np.eye(3)), {},
        lambda r: r.scale() == math.hypot(0.5, 1.0, 2.0, 1.0, 1.0, 1.0)
        and r.upsilon == 0.5 and not r.packed.flags.writeable
        and np.shares_memory(r.omega, r.packed),
        [({"upsilon": math.nan}, "upsilon must be finite"),
         ({"alpha": [math.inf, 0, 0]}, "coefficients must be finite")],
    ),
    "Classification": (
        Classification, ("kind", "branch", "residuals"), (CaseKind.ENTANGLED_CONSTRAINED,),
        {"branch": None, "residuals": {}},
        lambda r: str(r) == "entangled-constrained"
        and str(Classification(CaseKind.ENTANGLED_CONSTRAINED, Branch.BOTH))
        == "entangled-constrained(both)",
        [],
    ),
    "BlochPair": (
        BlochPair, ("a_bloch", "b_bloch"), ([0.0, 0.0, 0.6], [0.8, 0.0, 0.0]), {},
        lambda r: r.a_modulus == 0.6 and r.b_modulus == 0.8
        and not r.a_bloch.flags.writeable and not r.b_bloch.flags.writeable,
        [({"a_bloch": [1.0, 2.0]}, "cannot reshape")],
    ),
    "SpectralDecomposition": (
        SpectralDecomposition, ("eigenvalues", "eigenvectors"),
        (np.array([2.0, 1.0, 0.0, -1.0]), np.eye(4)), {},
        lambda r: np.array_equal(r.projector(1), np.diag([0.0, 1.0, 0.0, 0.0])),
        [],
    ),
    "Su2Factor": (
        Su2Factor, ("a0", "vec"), (1, [0.0, 0.0, 2.0]), {},
        lambda r: type(r.a0) is float and r.norm == 2.0 and not r.vec.flags.writeable,
        [({"vec": [1.0]}, "cannot reshape")],
    ),
    "ThermalConcurrenceResult": (
        ThermalConcurrenceResult, ("value", "commutator_norm", "reliable", "wootters"),
        (0.25, 0.0, True, 0.5), {},
        lambda r: r.deviation == 0.25,
        [],
    ),
    "ThermalReport": (
        ThermalReport, ("temperature", "z_value", "purity", "concurrence", "branch", "flag"),
        (1.0, 4.0, 0.25, 0.0, EnsembleBranch.FULL, 0), {},
        lambda r: r.flag == 0,
        [],
    ),
    "GrapheneParams": (
        GrapheneParams, ("t", "t3", "tperp", "m", "bias", "lattice"), (),
        {"t": 1.0, "t3": 1.0, "tperp": 1.0, "m": 0.0, "bias": 0.0, "lattice": 1.0},
        lambda r: r.lattice == 1.0,
        [({"t": math.nan}, "t must be finite"),
         ({"bias": 1e61}, r"bias = 1e\+61 exceeds 1e\+60 in magnitude"),
         ({"lattice": -1.0}, "lattice constant must be positive"),
         ({"lattice": 1e-310}, "lattice = 1e-310 is below"),
         ({"lattice": 1e308}, "lattice = 1e\\+308 is above")],
    ),
    "GridSpec": (
        GridSpec, ("kx_min", "kx_max", "ky_min", "ky_max", "nx", "ny", "mask"),
        (-1.0, 1.0, -2.0, 2.0), {"nx": 201, "ny": 201, "mask": "none"},
        lambda r: [a.size for a in r.axes()] == [201, 201] and r.axes()[1][-1] == 2.0,
        [({"nx": 1}, "at least 2 samples"),
         ({"ky_max": math.inf}, "ky_max must be finite"),
         ({"kx_max": -1.0}, "must be ordered"),
         ({"mask": "square"}, "unknown mask 'square'")],
    ),
    "SuiteResult": (
        SuiteResult, ("name", "samples", "max_deviation", "tolerance", "passed", "detail"),
        ("demo", 10, 1e-13, 1e-12, True), {"detail": ""},
        lambda r: r.summary().startswith("demo") and r.summary().endswith("PASS"),
        [],
    ),
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _fields(record, names):
    return [getattr(record, name) for name in names]


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, names, required, defaults, check, invalid = RECORDS[name]
    assert not dataclasses.is_dataclass(cls)
    # One set of values for every field, by position and by keyword.
    given = dict(zip(names, required), **defaults)
    by_position = cls(*given.values())
    by_keyword = cls(**given)
    assert list(vars(by_position))[:len(names)] == list(names)
    assert all(map(_same, _fields(by_position, names), _fields(by_keyword, names)))
    assert check(by_position)
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(names)
    assert {n: p.default for n, p in parameters.items() if p.default is not p.empty} == defaults

    # Defaults fill what is not given; a mutable default is fresh per record.
    short = cls(*required)
    assert all(_same(getattr(short, n), v) for n, v in defaults.items())
    for n, v in defaults.items():
        if isinstance(v, dict):
            assert getattr(short, n) is not getattr(cls(*required), n)

    for kwargs, message in invalid:
        with pytest.raises(ValueError, match=message):
            cls(**{**given, **kwargs})
    for bad in (lambda: cls(*given.values(), None), lambda: cls(**given, spam=1),
                lambda: cls(*given.values(), **{names[0]: required[0] if required else 1.0})):
        with pytest.raises(TypeError):
            bad()
    if required:
        with pytest.raises(TypeError, match=repr(names[len(required) - 1])):
            cls(*required[:-1])

    # Assignment and deletion raise FrozenInstanceError, an AttributeError.
    before = dict(vars(by_position))
    frozen = dataclasses.FrozenInstanceError
    assert issubclass(frozen, AttributeError)
    for attr in (names[0], "spam"):
        with pytest.raises(frozen, match=f"cannot assign to field '{attr}'"):
            setattr(by_position, attr, 0)
        with pytest.raises(frozen, match=f"cannot delete field '{attr}'"):
            delattr(by_position, attr)
    assert vars(by_position).keys() == before.keys()

    assert repr(by_position) == f"{name}(" + ", ".join(
        f"{n}={getattr(by_position, n)!r}" for n in names) + ")"
    assert by_position == by_position
    assert by_position != object() and by_position != given
    arrays = any(isinstance(v, np.ndarray) for v in _fields(by_position, names))
    if cls is CoefficientSet or not (arrays or isinstance(given.get("residuals"), dict)):
        assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
        assert len({by_position, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)


def test_unequal_records_compare_unequal():
    assert GrapheneParams(bias=0.1) != GrapheneParams(bias=0.2)
    assert GridSpec(0.0, 1.0, 0.0, 1.0) != GridSpec(0.0, 1.0, 0.0, 1.0, nx=3)
    a = SuiteResult("demo", 10, 1e-13, 1e-12, True)
    assert a != SuiteResult("demo", 10, 1e-13, 1e-12, False)
    assert ThermalReport(1.0, 4.0, 0.25, 0.0, EnsembleBranch.FULL, 0) != ThermalReport(
        1.0, 4.0, 0.25, 0.0, EnsembleBranch.POSITIVE_ONLY, 0)
    assert CoefficientSet(0.0, [0, 0, 1], [0, 0, 0], np.eye(3)) != CoefficientSet(
        0.0, [0, 0, 1], [0, 0, 0], 2 * np.eye(3))


def test_cli_import_defines_only_the_two_kept_dataclasses():
    """DerivedCoefficients and Eigensystem stay dataclasses (both are
    documented with dataclasses.replace); every other record the CLI
    loads is built without generated code."""
    probe = (
        "import dataclasses, inspect, sys, su2pair.cli; "
        "print(sorted(name for module, m in list(sys.modules.items()) "
        "if module.split('.')[0] == 'su2pair' for name, obj in vars(m).items() "
        "if inspect.isclass(obj) and obj.__module__ == module "
        "and dataclasses.is_dataclass(obj)))"
    )
    src = str(Path(su2pair.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "['DerivedCoefficients', 'Eigensystem']"


# A constrained set: solve takes the entangled closed form.
CONSTRAINED = CoefficientSet(0.3, [0, 0, 1], [0.2, 0.1, 0.4], [[1, 0.5, 0], [0.5, 2, 0], [0, 0, 0]])

# name: (class, field names, a record from the package, keyword changes for
# replace, and whether the record hashes: arrays do not).
KEPT_DATACLASSES = {
    "DerivedCoefficients": (
        DerivedCoefficients,
        ("v_quad", "theta", "phi", "theta_phi", "s_cubic", "beta_adj_alpha", "det_omega",
         "adj_norm", "singular_residual", "alpha_null", "beta_null", "alpha_residual",
         "beta_residual", "alpha_sq", "beta_sq", "omega_sq"),
        lambda: derive(CONSTRAINED), {"theta": 0.5, "alpha_null": False}, True,
    ),
    "Eigensystem": (
        Eigensystem, ("values", "states", "method", "degenerate"),
        lambda: solve(CONSTRAINED), {"degenerate": True}, False,
    ),
}


@pytest.mark.parametrize("name", KEPT_DATACLASSES)
def test_kept_dataclass_contract(name):
    cls, names, make, changes, hashable = KEPT_DATACLASSES[name]
    record = make()
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert list(vars(record)) == list(names)
    assert list(inspect.signature(cls).parameters) == list(names)
    given = [getattr(record, n) for n in names]

    # Positional, keyword and replace construction keep the fields in order.
    for copy in (cls(*given), cls(**dict(zip(names, given))), dataclasses.replace(record)):
        assert type(copy) is cls and list(vars(copy)) == list(names)
        assert all(a is b for a, b in zip(_fields(copy, names), given))
        assert copy == record
    changed = dataclasses.replace(record, **changes)
    assert list(vars(changed)) == list(names)
    assert all(getattr(changed, n) is changes.get(n, getattr(record, n)) for n in names)
    assert changed != record
    with pytest.raises(TypeError):
        dataclasses.replace(record, spam=1)
    if cls is Eigensystem:
        short = Eigensystem(record.values, record.states, SolveMethod.ORACLE_NUMERIC)
        assert short.degenerate is False
        assert dataclasses.replace(short, method=record.method) == record

    # Assignment and deletion raise FrozenInstanceError, an AttributeError.
    frozen = dataclasses.FrozenInstanceError
    for attr in (names[0], "spam"):
        with pytest.raises(frozen, match=f"cannot assign to field '{attr}'"):
            setattr(record, attr, 0)
        with pytest.raises(frozen, match=f"cannot delete field '{attr}'"):
            delattr(record, attr)
    assert list(vars(record)) == list(names)

    assert repr(record) == f"{name}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, given)) + ")"
    assert record == record and record != object() and record != vars(record)
    if hashable:
        assert hash(record) == hash(dataclasses.replace(record))
        assert len({record, cls(*given)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_no_record_carries_a_method_compiled_from_generated_source():
    """A frozen dataclass compiles its generated methods from source text,
    whose code reads the file name "<string>", on every execution of its
    module.  Every class of every su2pair module takes its methods from
    ordinary definitions or _record's closures instead."""
    for info in pkgutil.iter_modules(su2pair.__path__, "su2pair."):
        importlib.import_module(info.name)
    generated = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "su2pair" or type(module) is not types.ModuleType:
            continue
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module_name:
                continue
            for attr, value in vars(cls).items():
                value = getattr(value, "__func__", value)
                parts = (value.fget, value.fset, value.fdel) if isinstance(value, property) else (value,)
                generated += [f"{cls.__qualname__}.{attr}" for part in parts
                              if getattr(getattr(part, "__code__", None), "co_filename", "") == "<string>"]
    assert generated == []
