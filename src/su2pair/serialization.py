"""File formats: coefficient-set JSON, eigensystem JSON, and CSV emitters.

Floats are written with 17 significant digits so every emitted file
round-trips to the exact in-memory double.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# A module import for the annotations: writing a CSV executes no solver.
from . import solver
from .errors import InputFormatError
from .hamiltonian import CoefficientSet


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _require_numbers(key: str, value) -> None:
    """Raise InputFormatError naming ``key`` unless ``value`` is a JSON
    number or nested lists of them.  A JSON number parses to an int or a
    float; a bool is an int to Python but true or false in JSON, and a
    string such as "0.5" is text, so both are refused."""
    if isinstance(value, list):
        for item in value:
            _require_numbers(key, item)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{key} entries must be JSON numbers, not {value!r}")


def _floats(data: dict, key: str, shape: tuple, expected: str) -> np.ndarray:
    """The JSON numbers ``data[key]`` as a float array of ``shape``; any
    other nesting, a ragged one included, raises InputFormatError naming
    ``key`` and the ``expected`` layout."""
    try:
        value = np.asarray(data[key], dtype=float)
    except OverflowError as exc:
        # A JSON integer beyond the largest double.
        raise InputFormatError(f"coefficients must be finite: {exc}") from exc
    except ValueError:
        pass
    else:
        if value.shape == shape:
            return value
    raise InputFormatError(f"{key} must be {expected}")


def coefficient_set_from_dict(data) -> CoefficientSet:
    if not isinstance(data, dict):
        raise InputFormatError("coefficient set must be a JSON object")
    missing = {"upsilon", "alpha", "beta", "omega"} - set(data)
    if missing:
        raise InputFormatError(f"coefficient set is missing keys: {sorted(missing)}")
    for key in ("upsilon", "alpha", "beta", "omega"):
        _require_numbers(key, data[key])
    upsilon = _floats(data, "upsilon", (), "a number")
    alpha = _floats(data, "alpha", (3,), "3 numbers")
    beta = _floats(data, "beta", (3,), "3 numbers")
    omega = _floats(data, "omega", (3, 3), "3 rows of 3 numbers")
    try:
        return CoefficientSet(float(upsilon), alpha, beta, omega)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_coefficient_set(path) -> CoefficientSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} is not valid JSON: nested too deeply") from exc
    return coefficient_set_from_dict(data)


def eigensystem_to_dict(es: solver.Eigensystem) -> dict:
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


def write_eigensystem(path, es: solver.Eigensystem):
    """Write :func:`eigensystem_to_dict` of ``es`` as indented JSON; a path
    that cannot be written raises InputFormatError."""
    text = json.dumps(eigensystem_to_dict(es), indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


# --- the '%.17g' kernel ------------------------------------------------------------
#
# A double's '%.17g' text is its 17-digit decimal rounding D * 10^(k - 16),
# laid out by printf's %g rules.  The kernel finds D for a whole array from
# the double-double product |x| * 10^(16 - k) and accepts it only where the
# product's error bound decides the rounding; every other value goes through
# format_float.  Each text is built as three little-endian uint64 words,
# whose bytes are a row of the grid the kernel returns.

_CELL = 24  # bytes of the longest text, '-d.dddddddddddddddde-XXX'
_WORD = np.dtype("<u8")
# The array path takes 1e-250 <= |x| <= 1e250: there every split and
# partial product below is a normal double.
_KMAX = 250
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# A rounding this close to a tie goes to format_float; the product's error
# is below 2^-104 * 10^17 < 5e-15.
_TIE_WINDOW = 1e-12
_ONE, _BYTE, _TOP = np.uint64(1), np.uint64(8), np.uint64(63)


def _ascii_words(texts) -> np.ndarray:
    """NUL-padded ASCII ``texts`` as a (len(texts), 3) array of words."""
    return np.array(texts, f"S{_CELL}").view(_WORD).reshape(len(texts), _CELL // 8)


def _group_tables():
    """The 4-digit groups 0000-9999 as words, and their trailing zero counts."""
    chars = np.arange(ord("0"), ord("9") + 1, dtype=_WORD)
    pairs = (chars[:, None] | chars << _BYTE).ravel()
    zero = np.arange(10) == 0
    pair_zeros = (zero + np.outer(zero, zero).astype(np.int8)).ravel()
    groups = (pairs[:, None] | pairs << np.uint64(16)).ravel()
    zeros = (pair_zeros + np.outer(pair_zeros, np.arange(100) == 0)).ravel()
    return groups, zeros


def _exponent_table() -> np.ndarray:
    """'e', the sign and the two or three digits of k for |k| <= 250, NUL
    padded to 5 bytes."""
    k = np.arange(-_KMAX, _KMAX + 1)
    digits = _GROUPS[np.abs(k)].view(np.uint8).reshape(k.size, 8)
    table = np.empty((k.size, 5), np.uint8)
    table[:, 0] = ord("e")
    table[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    table[:, 2:] = np.where(np.abs(k)[:, None] < 100, digits[:, 2:5], digits[:, 1:4])
    return table


_GROUPS, _TRAILING = _group_tables()
_EXPONENT = _exponent_table()
# [word, n]: the low n bytes set, and a '.' at byte n (none at n = 24).
_MASK = _ascii_words([b"\xff" * n for n in range(_CELL + 1)]).T.copy()
_DOT = _ascii_words([b"\0" * n + b"." for n in range(_CELL)] + [b""]).T.copy()
# Sign and leading '0.000' of fixed notation below 1, at 5 * sign + zeros.
_PREFIXES = [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")]
_PREFIX = _ascii_words(_PREFIXES)[:, 0].copy()
_PREFIX_LEN = np.array([len(t) for t in _PREFIXES])
_SPECIAL = _ascii_words(["0", "-0", "inf", "-inf", "nan"]).view(np.uint8)


def _pow10_pair(q: int) -> tuple[float, float]:
    """10^q as hi + lo: hi rounded to a double, lo the rounded remainder."""
    if q >= 0:
        n = 10**q
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-q
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _split(x):
    """Veltkamp's split x = head + tail exactly, into halves of 26 and 27 bits."""
    c = _SPLITTER * x
    head = c - (c - x)
    return head, x - head


# The exponents q = 16 - k that _times_pow10 takes, and 10^q for each as the
# rows hi, lo, head(hi) and tail(hi) of one table, built from Python integers.
_Q_LOW, _Q_HIGH = 16 - _KMAX, 16 + _KMAX
_POW10 = np.array([_pow10_pair(q) for q in range(_Q_LOW, _Q_HIGH + 1)]).T
_POW10 = np.vstack([_POW10, *_split(_POW10[0])])


def _shift_left(words: np.ndarray, bits) -> np.ndarray:
    """Strings of 3 little-endian words, a (3, n) array, moved up by
    ``bits`` < 64 bits."""
    out = words << bits
    out[1:] |= (words[:-1] >> _ONE) >> (_TOP - bits)  # w >> (64 - bits), also at 0
    return out


def _times_pow10(a: np.ndarray, q: np.ndarray):
    """y = a * 10^q as (hi, lo) with |y - hi - lo| < 2^-104 y, for doubles
    ``a`` in [1e-250, 1e250] and -234 <= q <= 266.

    10^q = p + r to 2^-106 10^q, with p and r from the table.  a p = hi + e
    exactly by Dekker's two-product, from the Veltkamp halves of a and the
    tabled halves of p (numpy has no FMA), and lo = e + a r.  The pair's own
    rounding, that of a r and that of the sum, at most 2^-106 y, 2^-106 y
    and 2^-105 y, add up to less than 2^-104 y.
    """
    p, r, p_head, p_tail = _POW10.take(q - _Q_LOW, axis=1)
    hi = a * p
    a_head, a_tail = _split(a)
    e = ((a_head * p_head - hi) + a_head * p_tail + a_tail * p_head) + a_tail * p_tail
    return hi, e + a * r


def _scaled_decimal(a: np.ndarray):
    """(k, D, certain) for doubles ``a`` in [1e-250, 1e250]: the decade
    k = floor(log10 a), and the 17-digit rounding D of y = a * 10^(16 - k)
    as int64 wherever ``certain`` (else 10^16)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - k)
    # Where y >= 10^16 - 16, hi >= 2^53 is an integer, so floor(y) is
    # exactly hi + floor(lo) and y's fraction is lo's.
    whole = np.floor(lo)
    frac = lo - whole
    floor_y = hi.astype(np.int64) + whole.astype(np.int64)
    d = floor_y + (frac > 0.5)
    # 10^16 <= y < 10^17 - 1/2 on the unrounded pair: at exact powers of
    # ten, log10 may overstate the decade by one.
    certain = (np.abs(frac - 0.5) > _TIE_WINDOW) & (floor_y >= 10**16) & (d < 10**17)
    return k, np.where(certain, d, 10**16), certain


def _digit_words(d: np.ndarray):
    """(words, significant) of 17-digit integers: the digits as a 3-word
    string, and their count up to the last nonzero one."""
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    g1, g3 = upper // 10**4, lower // 10**4
    g2, g4 = upper - g1 * 10**4, lower - g3 * 10**4
    t = _TRAILING
    significant = 17 - (t[g4] + (g4 == 0) * (t[g3] + (g3 == 0) * (t[g2] + (g2 == 0) * t[g1])))
    w1, w2, w3, w4 = _GROUPS[g1], _GROUPS[g2], _GROUPS[g3], _GROUPS[g4]
    words = np.empty((3, d.size), _WORD)
    words[0] = (lead + ord("0")).astype(_WORD) | (w1 << _BYTE) | (w2 << np.uint64(40))
    words[1] = (w2 >> np.uint64(24)) | (w3 << _BYTE) | (w4 << np.uint64(40))
    words[2] = w4 >> np.uint64(24)
    return words, significant


def _layout(digits, significant, k, neg) -> np.ndarray:
    """The (n, 24) text grid of %g's layout of the digit strings, the
    (3, n) words of :func:`_digit_words`, which it overwrites.

    Fixed notation for -4 <= k <= 16, with a '0.000' prefix below 1;
    else d.ddd and an exponent of at least two digits.  Trailing zeros are
    dropped, and the point with them.
    """
    fixed = (k >= -4) & (k <= 16)
    below_one = fixed & (k < 0)
    above_one = fixed & (k >= 0)
    length = np.where(above_one, np.maximum(significant, k + 1), significant)
    point = np.where(above_one, k + 1, np.where(fixed, _CELL, 1))
    point = np.where(point < length, point, _CELL)
    # The digits up to the point, the point, and the rest one byte up.
    digits &= _MASK.take(length, axis=1)
    low = digits & _MASK.take(point, axis=1)
    digits ^= low
    words = low | _shift_left(digits, _BYTE) | _DOT.take(point, axis=1)
    prefix = 5 * neg + np.where(below_one, -k, 0)
    size = _PREFIX_LEN[prefix]
    words = _shift_left(words, (8 * size).astype(_WORD))
    words[0] |= _PREFIX[prefix]
    grid = np.ascontiguousarray(words.T).view(np.uint8)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        # 'e', the sign and the exponent's digits right after the mantissa.
        at = size[sci] + length[sci] + (point[sci] < _CELL)
        grid[sci[:, None], at[:, None] + np.arange(5)] = _EXPONENT[k[sci] + _KMAX]
    return grid


def _format_17g(x: np.ndarray) -> np.ndarray:
    """``format_float`` of each entry of the float64 array ``x``, as the rows
    of a NUL-padded (x.size, 24) uint8 grid.

    Values with 1e-250 <= |x| <= 1e250 are converted as arrays wherever the
    rounding is certain; zeros, infinities and NaN are table rows; every
    other value (ties and near-ties of the 17th digit, decades that log10
    misjudged, huge, tiny and subnormal magnitudes) goes through
    ``format_float`` one at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    exact = (a >= 10.0**-_KMAX) & (a <= 10.0**_KMAX)
    k, d, certain = _scaled_decimal(np.where(exact, a, 1.0))
    exact &= certain
    grid = _layout(*_digit_words(d), k, np.signbit(x))
    odd = np.flatnonzero(~exact)
    if odd.size:
        v = x[odd]
        special = (v == 0) | ~np.isfinite(v)
        code = np.where(np.isnan(v), 4, 2 * np.isinf(v) + np.signbit(v))
        grid[odd[special]] = _SPECIAL[code[special]]
        rest = odd[~special]
        grid[rest] = _ascii_words([format_float(v) for v in x[rest].tolist()]).view(np.uint8)
    return grid


def _int_cells(distinct: np.ndarray) -> np.ndarray:
    """'%d' of each distinct integer or boolean as rows of a NUL-padded grid,
    as wide as the longest."""
    text = ("%d\n" * distinct.size % tuple(distinct.tolist())).split("\n")[:-1]
    width = max(map(len, text), default=1)
    return np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width)


def _strictly_monotone(x: np.ndarray) -> bool:
    """Whether the float column ``x`` strictly rises or falls, so that no
    value repeats; NaN, and 0 next to -0, make it not."""
    if x.size < 2:
        return True
    if x[1] > x[0]:
        return bool(np.all(x[1:] > x[:-1]))
    return bool(x[1] < x[0] and np.all(x[1:] < x[:-1]))


def _table(col):
    """(values, index) of a column, such that values[index] are its cells;
    ``index`` None stands for every row in order."""
    if isinstance(col, tuple):
        values, index = col
        return np.asarray(values), np.asarray(index)
    col = np.asarray(col)
    if col.dtype.kind in "iub":
        return np.unique(col, return_inverse=True)
    col = np.asarray(col, dtype=np.float64)
    if _strictly_monotone(col):
        return col, None
    distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return distinct.view(np.float64), inverse


def _rows(col) -> int:
    return len(col[1] if isinstance(col, tuple) else col)


def _chunk_text(columns) -> np.ndarray:
    """The CSV lines of one chunk as a 1-D array of ASCII bytes; see
    ``write_csv``."""
    tables, indices, floats = [], [], []
    for col in columns:
        values, index = _table(col)
        if values.dtype.kind in "iub":
            tables.append(_int_cells(values))
        else:
            floats.append(np.asarray(values, dtype=np.float64))
            tables.append(None)
        indices.append(index)
    if floats:
        grid = _format_17g(np.concatenate(floats))
        parts = iter(np.split(grid, np.cumsum([f.size for f in floats])[:-1]))
        tables = [next(parts) if t is None else t for t in tables]
    # One row of cells, each followed by its separator, per CSV line.
    widths = [t.shape[1] + 1 for t in tables]
    lines = np.empty((_rows(columns[0]), sum(widths)), np.uint8)
    ends = np.cumsum(widths).tolist()
    for table, index, end in zip(tables, indices, ends):
        cells = table if index is None else np.take(table, index, axis=0)
        lines[:, end - table.shape[1] - 1:end - 1] = cells
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    lines = lines.ravel()
    return lines[lines != 0]


def write_csv(path, header: list[str], chunks) -> int:
    """Stream column chunks to a CSV and return the number of rows written.

    Each chunk holds one column per header column: a 1-D array, or a tuple
    ``(values, index)`` of 1-D arrays that stands for ``values[index]``.
    Integer and boolean columns print as integers, the rest with 17
    significant digits, the bytes of ``format_float`` per cell.

    Each column of a chunk is formatted through a table of values and an
    index into it.  A ``(values, index)`` column is its own table, and so is
    a strictly rising or falling float column, which cannot repeat a value.
    Every other column keeps a table of its distinct values, so each is
    formatted once.  Float columns are keyed on their bit pattern (the
    ``int64`` view), never on their value: ``0.0 == -0.0``, but they print
    as ``0`` and ``-0``.  Integer and boolean columns are keyed on their
    values and formatted by ``%d``.  The table floats of all columns go
    through one call of an array kernel, ``_format_17g``: it
    rounds |x| * 10^(16 - k) to 17 digits from a double-double product and
    lays out the text as %g does, for less than half the cost of a
    ``format`` call a value.  Where the product cannot decide the rounding
    (within 1e-12 of a tie, at a misjudged decade, and for |x| outside
    [1e-250, 1e250]), the value goes through ``format_float`` itself.  The
    cells are gathered from the tables into one byte grid of cells, commas
    and newlines per chunk, whose padding is dropped before its bytes are
    written to the file opened in binary mode: lines end in ``\n`` on
    every platform.  A path that cannot be opened or written raises
    InputFormatError.
    """
    rows = 0
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for columns in chunks:
                fh.write(_chunk_text(columns))
                rows += _rows(columns[0])
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc
    return rows
