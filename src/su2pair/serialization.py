"""File formats: coefficient-set JSON, eigensystem JSON, and CSV emitters.

Floats are written with 17 significant digits so every emitted file
round-trips to the exact in-memory double.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .hamiltonian import CoefficientSet
from .solver import Eigensystem


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def coefficient_set_to_dict(c) -> dict:
    return {
        "upsilon": c.upsilon,
        "alpha": [float(v) for v in c.alpha],
        "beta": [float(v) for v in c.beta],
        "omega": [[float(v) for v in row] for row in c.omega],
    }


def coefficient_set_from_dict(data) -> CoefficientSet:
    if not isinstance(data, dict):
        raise InputFormatError("coefficient set must be a JSON object")
    missing = {"upsilon", "alpha", "beta", "omega"} - set(data)
    if missing:
        raise InputFormatError(f"coefficient set is missing keys: {sorted(missing)}")
    try:
        upsilon = float(data["upsilon"])
        alpha = np.asarray(data["alpha"], dtype=float)
        beta = np.asarray(data["beta"], dtype=float)
        omega = np.asarray(data["omega"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"non-numeric coefficient entry: {exc}") from exc
    if alpha.shape != (3,) or beta.shape != (3,):
        raise InputFormatError("alpha and beta must have 3 entries")
    if omega.shape != (3, 3):
        raise InputFormatError("omega must be 3 rows of 3 numbers")
    try:
        return CoefficientSet(upsilon, alpha, beta, omega)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_coefficient_set(path) -> CoefficientSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    return coefficient_set_from_dict(data)


def eigensystem_to_dict(es: Eigensystem) -> dict:
    """Wire format: labelled eigenvalues plus states as (re, im) entry pairs."""
    eigenvalues = [
        {"m": m, "n": n, "value": e} for (m, n), e, _ in es.items()
    ]
    states = [
        [[[float(z.real), float(z.imag)] for z in row] for row in s]
        for _, _, s in es.items()
    ]
    return {
        "method": es.method.value,
        "degenerate": es.degenerate,
        "eigenvalues": eigenvalues,
        "states": states,
    }


def write_eigensystem(path, es: Eigensystem):
    Path(path).write_text(json.dumps(eigensystem_to_dict(es), indent=2) + "\n")


def _column_cells(col: np.ndarray) -> np.ndarray:
    """The CSV cell of each entry of ``col``; see ``write_csv``."""
    if col.dtype.kind in "iub":
        distinct, inverse = np.unique(col, return_inverse=True)
        template = "%d\n"
    else:
        bits = np.asarray(col, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        distinct, template = distinct.view(np.float64), "%.17g\n"
    text = template * distinct.size % tuple(distinct.tolist())
    return np.array(text.split("\n")[:-1], dtype=object)[inverse]


def write_csv(path, header: list[str], chunks) -> int:
    """Stream column chunks to a CSV and return the number of rows written.

    Each chunk holds one 1-D array per header column.  Integer and boolean
    columns print as integers, the rest with 17 significant digits, the
    bytes of ``format_float`` per cell.

    Each distinct value of a chunk's column is formatted once, by one ``%``
    over a repeated template, and the rows are joined from an interleaved
    grid of cells and separators.  Float columns are keyed on their bit
    pattern (the ``int64`` view), never on their value: ``0.0 == -0.0``,
    but they print as ``0`` and ``-0``.  Integer and boolean columns are
    keyed on their values.  A 201^2 band grid has a third as many distinct
    values as cells; formatting them, about 1 us a k-point, is still two
    thirds of ``graphene-bands``.  A column of all-distinct values, such as
    a ``thermo`` sweep's, costs up to a fifth more than per-row formatting.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for columns in chunks:
            columns = [np.asarray(col) for col in columns]
            n = len(columns[0])
            grid = np.empty((n, 2 * len(columns)), dtype=object)
            grid[:, 1::2] = ","
            grid[:, -1] = "\n"
            for j, col in enumerate(columns):
                grid[:, 2 * j] = _column_cells(col)
            fh.write("".join(grid.ravel().tolist()))
            rows += n
    return rows
