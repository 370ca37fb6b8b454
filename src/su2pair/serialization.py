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


def write_csv(path, header: list[str], chunks) -> int:
    """Stream column chunks to a CSV and return the number of rows written.

    Each chunk holds one 1-D array per header column.  Integer and boolean
    columns print as integers, the rest with 17 significant digits; each
    row is formatted by one ``%`` template, which gives the bytes of
    ``format_float`` per cell.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for columns in chunks:
            columns = [np.asarray(col) for col in columns]
            template = ",".join(
                "%d" if col.dtype.kind in "iub" else "%.17g" for col in columns
            ) + "\n"
            fh.write("".join(map(template.__mod__, zip(*(col.tolist() for col in columns)))))
            rows += len(columns[0])
    return rows
