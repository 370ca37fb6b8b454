"""File formats: coefficient-set JSON, eigensystem JSON, and CSV emitters.

Floats are written with 17 significant digits so every emitted file
round-trips to the exact in-memory double.
"""

from __future__ import annotations

import binascii
import math
import threading
from pathlib import Path

import numpy as np

# Module imports: writing a CSV executes no solver and no hamiltonian.
from . import hamiltonian, solver
from .errors import InputFormatError


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


def coefficient_set_from_dict(data) -> hamiltonian.CoefficientSet:
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
        return hamiltonian.CoefficientSet(float(upsilon), alpha, beta, omega)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_coefficient_set(path) -> hamiltonian.CoefficientSet:
    import json

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
    import json

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
# whose bytes are a row of the grid the kernel returns.  For n values the
# kernel works in the rows of one (11, n) block of doubles; row 0 is eight
# rows of flags, and each stage names the rows it reads and writes.

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
_SCRATCH = threading.local()


def _scratch(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A view of the calling thread's buffer ``name``, as last written; one too
    small is replaced, and kept, with an eighth more than the view."""
    size = np.dtype(dtype).itemsize * math.prod(shape)
    if len(buf := getattr(_SCRATCH, name, b"")) < size:
        setattr(_SCRATCH, name, buf := np.empty(size + size // 8, np.uint8))
    return buf[:size].view(dtype).reshape(shape)


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


def _decade_tables():
    """By j = 250 - k for the decades |k| <= 250: %g's point byte (24: none)
    and least digit count (-1: scientific); at j, and j + 501 for a minus,
    the sign and '0.000' prefix word and its width in bits, and 'e', the
    sign and the two or three digits of k, NUL padded to 5 bytes."""
    k = _KMAX - np.arange(2 * _KMAX + 1)
    above, below = (0 <= k) & (k <= 16), (-4 <= k) & (k < 0)
    places = np.array([np.where(above, k + 1, np.where(below, _CELL, 1)), np.where(above, k + 1, below - 1)])
    texts = [sign + "0.000"[:zeros + 1 if zeros else 0] for sign in ("", "-") for zeros in range(5)]
    index = np.concatenate([-k * below, 5 - k * below])
    prefixes = np.array([_ascii_words(texts)[index, 0], [8 * len(texts[i]) for i in index]], _WORD)
    digits = _GROUPS[np.abs(k)].view(np.uint8).reshape(k.size, 8)
    exponent = np.empty((k.size, 5), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    exponent[:, 2:] = np.where(np.abs(k)[:, None] < 100, digits[:, 2:5], digits[:, 1:4])
    return places, prefixes, np.tile(exponent, (2, 1))


_GROUPS, _TRAILING = _group_tables()
_PLACES, _PREFIX, _EXPONENT = _decade_tables()
# [word, n]: the low n bytes set, and a '.' at byte n (none at n = 24).
_MASK = _ascii_words([b"\xff" * n for n in range(_CELL + 1)]).T.copy()
_DOT = _ascii_words([b"\0" * n + b"." for n in range(_CELL)] + [b""]).T.copy()


def _split(x, head=None, tail=None):
    """Veltkamp's split x = head + tail exactly (26 and 27 bits), into ``head`` and ``tail`` if given."""
    c = np.multiply(_SPLITTER, x, out=head)
    head = np.subtract(c, np.subtract(c, x, out=tail), out=c)
    return head, np.subtract(x, head, out=tail)


# The exponents q = 16 - k of the array path, and 10^q for each as the rows
# hi, lo, head(hi) and tail(hi) of one table, _POW10, at the module's end,
# whose column j = 250 - k is that of the decade tables.
_Q_LOW, _Q_HIGH = 16 - _KMAX, 16 + _KMAX


def _shift_left(words: np.ndarray, bits, down, carry):
    """Move strings of 3 little-endian words, a (3, n) array, up by ``bits``
    < 64 bits, with ``down`` = 63 - bits and a row ``carry`` of scratch."""
    for i in (2, 1):
        words[i] <<= bits  # and | w >> (64 - bits), also at bits = 0
        words[i] |= np.right_shift(np.right_shift(words[i - 1], _ONE, out=carry), down, out=carry)
    words[0] <<= bits


def _scaled_decimal(rows, flags):
    """For doubles a in [1e-250, 1e250], row 1: j = 250 - k for the decade
    k = floor(log10 a) in row 2, and the 17-digit rounding D of
    y = a * 10^(16 - k) as int64 in row 6 where the flags returned are set
    (else 10^16).

    y = hi + lo, rows 7 and 9, to |y - hi - lo| < 2^-104 y.  With q = 16 - k,
    10^q = p + r to 2^-106 10^q, with p and r from the table.  a p = hi + e
    exactly by Dekker's two-product, from the Veltkamp halves of a and the
    tabled halves of p (numpy has no FMA), and lo = e + a r.  The pair's own
    rounding, that of a r and that of the sum, at most 2^-106 y, 2^-106 y
    and 2^-105 y, add up to less than 2^-104 y.
    """
    a, (hi, a_tail, lo) = rows[1], rows[7:10]
    j, _, whole, floor_y, d = rows[2:7].view(np.int64)
    np.copyto(j, np.floor(np.log10(a, out=hi), out=hi), casting="unsafe")
    p, r, p_head, p_tail = _POW10.take(
        np.subtract(_KMAX, j, out=j), axis=1, out=rows[3:7], mode="clip")
    np.multiply(a, p, out=hi)
    a_head, _ = _split(a, p, a_tail)
    # e = ((a_head p_head - hi) + a_head p_tail + a_tail p_head) + a_tail p_tail, in lo
    np.subtract(np.multiply(a_head, p_head, out=lo), hi, out=lo)
    lo += np.multiply(a_head, p_tail, out=a_head)
    lo += np.multiply(a_tail, p_head, out=p_head)
    lo += np.multiply(a_tail, p_tail, out=p_tail)
    lo += np.multiply(a, r, out=r)
    # Where y >= 10^16 - 16, hi >= 2^53 is an integer, so floor(y) is
    # exactly hi + floor(lo) and y's fraction is lo's.
    np.copyto(whole, np.floor(lo, out=rows[3]), casting="unsafe")
    frac = np.subtract(lo, rows[3], out=lo)
    np.copyto(floor_y, hi, casting="unsafe")
    floor_y += whole
    np.add(floor_y, np.greater(frac, 0.5, out=flags[1]), out=d)
    # 10^16 <= y < 10^17 - 1/2 on the unrounded pair: at exact powers of
    # ten, log10 may overstate the decade by one.
    certain = np.greater(np.abs(np.subtract(frac, 0.5, out=frac), out=frac), _TIE_WINDOW, out=flags[2])
    certain &= np.greater_equal(floor_y, 10**16, out=flags[1])
    certain &= np.less(d, 10**17, out=flags[1])
    np.putmask(d, np.logical_not(certain, out=flags[1]), 10**16)
    return certain


def _digit_words(rows, flags):
    """For 17-digit integers in row 6: the digits as 3-word strings in rows
    8-10, and their count up to the last nonzero one as int8 in flag 2."""
    lead, _, upper, lower, g1, g2, scratch = rows[1:8].view(np.int64)
    # divmod by 10^8 and 10^4; numpy floor-divides by a constant far faster.
    for x, m, q, r in ((rows[6].view(np.int64), 10**8, upper, lower), (upper, 10**8, lead, upper),
                       (upper, 10**4, g1, g2), (lower, 10**4, upper, lower)):
        np.subtract(x, np.multiply(np.floor_divide(x, m, out=q), m, out=scratch), out=r)
    g3, g4 = upper, lower
    t, (significant, trailing) = _TRAILING, flags[2:4].view(np.int8)
    t.take(g1, out=significant, mode="clip")
    for g in (g2, g3, g4):  # 17 - (t[g4] + (g4 == 0) * (t[g3] + (g3 == 0) * (...)))
        significant *= np.equal(g, 0, out=flags[1]).view(np.int8)
        significant += t.take(g, out=trailing, mode="clip")
    np.subtract(17, significant, out=significant)
    # The lead digit, then 4-digit groups at bytes 1, 5, 9 and 13.
    words, w = rows[8:11].view(_WORD), rows[1].view(_WORD)
    np.add(lead.view(_WORD), np.uint64(ord("0")), out=words[0])
    for i, (low, high) in enumerate([(g1, g2), (g3, g4)]):
        words[i] |= np.left_shift(_GROUPS.take(low, out=w, mode="clip"), _BYTE, out=w)
        np.right_shift(_GROUPS.take(high, out=w, mode="clip"), np.uint64(24), out=words[i + 1])
        words[i] |= np.left_shift(w, np.uint64(40), out=w)


def _layout(rows, flags, neg) -> np.ndarray:
    """The (n, 24) text grid, rows 5-7, of %g's layout of the digit strings
    of :func:`_digit_words` at the decades j of row 2, signed by ``neg``.

    Fixed notation for -4 <= k <= 16, with a '0.000' prefix below 1;
    else d.ddd and an exponent of at least two digits.  Trailing zeros are
    dropped, and the point with them.
    """
    j, point, length = rows[2:5].view(np.int64)
    digits, mask, carry, scratch = rows[8:11].view(_WORD), rows[5:8].view(_WORD), rows[1].view(_WORD), flags[1]
    _PLACES.take(j, axis=1, out=rows[3:5].view(np.int64), mode="clip")
    sci = np.flatnonzero(np.less(length, 0, out=scratch))
    np.maximum(length, flags[2].view(np.int8), out=length)
    np.putmask(point, np.greater_equal(point, length, out=scratch), _CELL)
    # The digits up to the point, the point, and the rest one byte up.
    digits &= _MASK.take(length, axis=1, out=mask, mode="clip")
    low = np.bitwise_and(digits, _MASK.take(point, axis=1, out=mask, mode="clip"), out=mask)
    digits ^= low
    _shift_left(digits, _BYTE, _TOP - _BYTE, carry)
    digits |= low
    digits |= _DOT.take(point, axis=1, out=mask, mode="clip")
    # All of it up by the width of the prefix, which goes in front.
    np.add(j, 2 * _KMAX + 1, out=j, where=neg)
    prefix, bits, down = mask
    _PREFIX.take(j, axis=1, out=mask[:2], mode="clip")
    _shift_left(digits, bits, np.subtract(_TOP, bits, out=down), carry)
    digits[0] |= prefix
    grid = mask.view(np.uint8).reshape(-1, _CELL)
    np.copyto(grid.view(_WORD), digits.T)
    # 'e', the sign and the exponent's digits right after the mantissa.
    at = length[sci] + neg[sci] + (length[sci] > 1)
    grid[sci[:, None], at[:, None] + np.arange(5)] = _EXPONENT[j[sci]]
    return grid


def _format_17g(x: np.ndarray) -> np.ndarray:
    """``format_float`` of each entry of the float64 array ``x``, as the rows
    of a NUL-padded (x.size, 24) uint8 grid, in the thread's scratch memory
    until its next call.

    Values with 1e-250 <= |x| <= 1e250 are converted as arrays wherever the
    rounding is certain; every other value (zeros, infinities and NaN, ties
    and near-ties of the 17th digit, decades that log10 misjudged, huge,
    tiny and subnormal magnitudes) goes through ``format_float`` one at a
    time.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = _scratch("kernel", (11, x.size))
    flags = rows[0].view(np.bool_).reshape(8, x.size)
    exact, scratch = flags[:2]
    a = np.abs(x, out=rows[1])
    np.greater_equal(a, 10.0**-_KMAX, out=exact)
    exact &= np.less_equal(a, 10.0**_KMAX, out=scratch)
    np.putmask(a, np.logical_not(exact, out=scratch), 1.0)
    exact &= _scaled_decimal(rows, flags)
    _digit_words(rows, flags)
    grid = _layout(rows, flags, np.signbit(x, out=flags[3]))
    odd = np.flatnonzero(np.logical_not(exact, out=scratch))
    grid[odd] = _ascii_words([format_float(v) for v in x[odd].tolist()]).view(np.uint8)
    return grid


def _int_cells(distinct: np.ndarray) -> np.ndarray:
    """'%d' of each distinct integer or boolean as rows of a NUL-padded grid,
    as wide as the longest."""
    text = ("%d\n" * distinct.size % tuple(distinct.tolist())).split("\n")[:-1]
    width = max(map(len, text), default=1)
    return np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width)


def _table(col):
    """(values, index) of a column, such that values[index] are its cells;
    ``index`` None stands for every row in order.

    A plain column's table holds the head of each run of equal bits (floats
    keyed on their int64 view, so that -0.0 stays apart from 0.0), and
    ``index`` the running count of heads; a column with no equal neighbours
    is its own table."""
    if isinstance(col, tuple):
        values, index = col
        return np.asarray(values), np.asarray(index)
    col = np.asarray(col)
    if col.dtype.kind not in "iub":
        col = np.asarray(col, dtype=np.float64)
    keys = col.view(np.int64) if col.dtype.kind == "f" else col
    heads = np.concatenate([[True], keys[1:] != keys[:-1]])
    if heads.all():
        return col, None
    return col[heads], np.cumsum(heads) - 1


def _rows(col) -> int:
    return len(col[1] if isinstance(col, tuple) else col)


def _chunk_text(columns):
    """The CSV lines of one block as 1-D arrays of ASCII bytes of up to
    _PIECE_ROWS lines, the only arrays a block allocates; see ``write_csv``."""
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
        sizes = np.cumsum([f.size for f in floats])
        grid = _format_17g(np.concatenate(floats, out=_scratch("floats", (sizes[-1],))))
        parts = iter(np.split(grid, sizes[:-1]))
        tables = [next(parts) if t is None else t for t in tables]
    # One row of cells, each followed by its separator, per CSV line.
    widths = [t.shape[1] + 1 for t in tables]
    rows = _rows(columns[0])
    lines = _scratch("lines", (rows, sum(widths)), np.uint8)
    ends = np.cumsum(widths).tolist()
    for table, index, end in zip(tables, indices, ends):
        # The kernel is done with its input, which the gathered cells reuse.
        cells = table if index is None else table.take(
            index, axis=0, out=_scratch("floats", (rows, table.shape[1]), np.uint8), mode="clip")
        lines[:, end - table.shape[1] - 1:end - 1] = cells
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    text = np.not_equal(lines, 0, out=_scratch("kernel", lines.shape, np.bool_))
    for piece in (slice(i, i + _PIECE_ROWS) for i in range(0, rows, _PIECE_ROWS)):
        yield lines[piece][text[piece]]


_BLOCK_ROWS, _PIECE_ROWS = 4096, 1024  # rows formatted, and rows compacted, at once


def write_csv(path, header: list[str], chunks) -> int:
    """Stream column chunks to a CSV and return the number of rows written.

    Each chunk holds one column per header column: a 1-D array, or a tuple
    ``(values, index)`` of 1-D arrays that stands for ``values[index]``.
    Integer and boolean columns print as integers, the rest with 17
    significant digits, the bytes of ``format_float`` per cell.

    A chunk goes through in blocks of at most 4096 rows, which moves no
    byte: every row's text stands alone.  Each column of a block is
    formatted through a table of its values: a ``(values, index)`` column
    is its own, and any other keeps the first value of each run of rows with
    equal bits, so that ``-0.0`` prints as ``-0``; a column with no equal
    neighbours is its own table.  All table floats of a block go through one
    ``_format_17g`` call, and the cells into one byte grid of cells, commas
    and newlines, written with its NUL padding dropped to the file opened in
    binary mode (``\n`` line ends on every platform).  The kernel, the grid
    and its mask are views of the calling thread's workspace, grown to the
    largest block it served and held until the thread ends (for the main
    thread, the life of the process); threads may write at once, each in its
    own.  A path that cannot be opened or written raises InputFormatError.
    """
    rows = 0
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for columns in chunks:
                n = _rows(columns[0])
                for block in (slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)):
                    fh.writelines(_chunk_text(
                        [(c[0], c[1][block]) if isinstance(c, tuple) else c[block] for c in columns]))
                rows += n
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc
    return rows


# 10^q for _Q_LOW <= q <= _Q_HIGH as two rows of little-endian doubles in
# base64: hi, 10^q rounded to a double, and lo, the rounded remainder, as
# pow10_pair in tests/references.py computes them from Python integers.
_POW10 = np.frombuffer(binascii.a2b_base64("""
tE20m7tvWQ8hYaGCqsuPD7XcpJFK38MP4hMONh3X+A/bmJGD5AwvEIn/OtIOaGMQa7/JhhJCmBBF
L3wol1LOEIudTXme8wIR7gShF4awNxEqRomdp5xtEdrLdcLogaIR0T4T82Ii1xGFDtiv++oMEhMJ
503dEkISWMtgoZSXdhIu/rjJeT2sEt2eEx5spuESlIaYJQcQFhM5qP7uCJRLEyMpX5WFPIETbPO2
+qaLtRNHsGS5kO7qEy3u3nMa1SAUuKnWEGEKVRQmVAxV+UyKFJi0J9UbcMAUvaFxyiKM9BQtCg59
K68pFVzGKC57DWAV8/ey+dkQlBXwtR94EBXJFWyjJ5ZUWv8VI8bY3XSYMxas904Vkn5oFpe1opo2
np4WfrGlIOIi0xbeHc+omusHF1blAlOB5j0XVs/h0xCwchcrQ9oIFVynF/bTEEsaM90XeoTqbvA/
EhiYJaWK7M9GGP5uTq3ng3wYXwVRzHDSsRi2RmX/DEfmGGSYPj/Q2BsZPh+HJ4JnURkO52ixYsGF
GdIgw127MbsZg/SZGhX/8BmkcUBh2j4lGg2OkPmQjloayFj6mxqZkBr67vhCYb/EGrgqt5M57/ka
s3pS/IM1MBtgGWf75EJkG7jfQDqeU5kbphfRyIWozxvIroKdU8kDHHpa44SouzgcGDEcppLqbhyv
ntGnm1KjHFsGxpFCJ9gc8oc3NhMxDh33tOIBrN5CHTViWwJXlncdwjrywux7rR25ZNf5c23iHec9
TfjQCBceYY1gNgXLTB5dWPxB4/6BHnRuexKcfrYeEUoaF0Me7B5LbnDu6ZIhH92JDGqk91UfVayP
hI11ix+1y9lyeCnBH6I+kI/Wc/UfS050M8zQKiDvsCigf8JgICrdMogf85QgdZQ/aucvyiDJvGei
8F0AIfurActsdTQh+hbC/ceSaSG5nDL9efefIfOhPz6s+tMhcIrPTVf5CCIMbUMhrTc/IigkyjTM
gnMiMq38QX9jqCJ+2HsSX3zeIk9njWu7DRMjI8FwRirRRyNr8QzYdMV9I+MWCAdpm7IjnBzKSENC
5yPDo/wa1BIdJFrm3ZDEK1Ik8F8VtbW2hiTst1oiY2S8JPSyePW9vvEksN/Wcm0uJiWdl4zPCLpb
JcLet4FFVJElctYl4lapxSUPTK+arBP7JYmPreBL7DAmbPPY2F4nZSZHMA+PNnGaJix+aRnChtAm
t93Dn3KoBCcl1bRHj9I5JzcF0YyZI3AnhUYF8H8spCcmmAbsnzfZJzA+COeHhQ8o3iZl8HSzQyiV
cH4sUqB4KLoMnrdmyK4o9cfCMkA94yjyeXM/kAwYKW5YUE+0D04pRTeSsdDJgikWxfbdRHy3KVt2
dBVWW+0p+clozRVZIip3/MJAW+9WKpW78xAyq4wqPVWYSv/qwSqNaj4dv2X2KjAFjuQu/ysrPsPY
Tn1/YSsN9I6iXN+VKxGxMsszV8srqq7/XoAWASxVmr92IFw1LOqAb5Qos2oskrDFXPmvoCy3HPez
99vULOXj9KD1Egotbw6ZhNlLQC0LUr/lz150LY0mL9+DdqktMfD61iTU3y0f1lwGl+QTLqYL9Me8
3UgukA7x+SsVfy4aqTZ8O22zLmBTRFuKSOguOGgV8qxaHi8jYU0XrPhSL2y5IB3Xtocvx+do5Iyk
vS/ckMEO2IbyLxP1cRKOKCcwWHIOl7HyXDB3B2n+rheSMFVJA76ancYwqhuEbQFF/DBKkXLkIKsx
MZ01jx3pFWYxBAPzZGObmzHj4RcfHkHRMVva3aZlkQUy8lCVEL/1OjKXUl1ql9lwMj2n9ET9D6Uy
DdExlvxT2jKoIt/dfXQQM1LrVlWdkUQzJqasqgS2eTPY56vqwhGwM87hVqUzFuQzQZqsjsAbGTTS
wFeysGJPNIPYdm+unYM0pI5UCxqFuDRNsimOYKbuNHAP2lj8JyM1TJMQb/vxVzUfuNRKeu6NNRPz
xG4MtcI12C92ik9i9zXOuxNt4zotNmFVLCTORGI2uWo3rQHWljZnRYUYgovMNmFLU08x1wE3OR4o
o/1MNjfHJfILPeBrN5xXdycmbKE3gy1VsS/H1TfkeKqd+zgLOI+LikKdA0E4ci4tk4REdTgPevi3
pZWqOElM+5KHneA4XB+6d+nEFDkzp6jVI/ZJOYBoiWXWOYA5oMLr/ktItDlHs6b+XlrpORlgUL72
sB86EDzyNprOUzoUy67EQMKIOtl92vXQ8r46p46omcJX8zpRshJAsy0oO+ZeFxAgOV47T5sOCrTj
kjsjQpIMoZzHO6zStk/Jg/07rEPS0V1yMjyX1EZG9Q5nPLyJ2Jey0pw8Flbnnq8D0jybK6GGm4QG
PYJ2SWjCJTw9EeotgZmXcT2VZHnhf/2lPbu919nffNs9ldYm6AsuET46jDDijnlFPkivvJry13o+
je21oPfGsD7xaOOItfjkPi1DHOviNho//Knx0k1iUD97FK5H4XqEP5qZmZmZmbk/AAAAAAAA8D8A
AAAAAAAkQAAAAAAAAFlAAAAAAABAj0AAAAAAAIjDQAAAAAAAavhAAAAAAICELkEAAAAA0BJjQQAA
AACE15dBAAAAAGXNzUEAAAAgX6ACQgAAAOh2SDdCAAAAopQabUIAAEDlnDCiQgAAkB7EvNZCAAA0
JvVrDEMAgOA3ecNBQwCg2IVXNHZDAMhOZ23Bq0MAPZFg5FjhQ0CMtXgdrxVEUO/i1uQaS0SS1U0G
z/CARPZK4ccCLbVEtJ3ZeUN46kSRAigsKosgRTUDMrf0rVRFAoT+5HHZiUWBEh8v5yfARSHX5vrg
MfRF6oygOVk+KUYksAiI741fRhduBbW1uJNGnMlGIuOmyEYDfNjqm9D+RoJNx3JhQjNH4yB5z/kS
aEcbaVdDuBeeR7GhFirTztJHHUqc9IeCB0ilXMPxKWM9SOcZGjf6XXJIYaDgxHj1pkh5yBj21rLc
SEx9z1nG7xFJnlxD8LdrRknGM1TspQZ8SVygtLMnhLFJc8ihoDHl5UmPOsoIfl4bSppkfsUOG1FK
wP3ddtJhhUowfZUUR7q6Sj5u3WxstPBKzskUiIfhJEtB/Blq6RlaS6k9UOIxUJBLE03kWj5kxEtX
YJ3xTX35S224BG6h3C9MRPPC5OTpY0wVsPMdXuSYTBuccKV1Hc9MkWFmh2lyA031+T/pA084TXL4
j+PEYm5NR/s5Drv9ok0ZesjRKb3XTZ+YOkZ0rA1OZJ/kq8iLQk49x93Wui53Tgw5lYxp+qxOp0Pd
94Ec4k6RlNR1oqMWT7W5SROLTExPERQO7NavgU8WmRGnzBu2T1v/1dC/outPmb+F4rdFIVB/Lyfb
JZdVUF/78FHv/IpQG502kxXewFBiRAT4mhX1UHtVBbYBWypRbVXDEeF4YFHIKjRWGZeUUXo1wavf
vMlRbMFYywsWAFLH8S6+jhs0Ujmuum1yImlSx1kpCQ9rn1Id2Lll6aLTUiROKL+jiwhTrWHyroyu
PlMMfVftFy1zU09crehd+KdTY7PYYnX23VMecMddCboSVCVMObWLaEdULp+Hoq5CfVR9w5QlrUmy
VFz0+W4Y3OZUc3G4ih6THFXoRrMW89tRVaIYYNzvUoZVyh5406vnu1U/Eytky3DxVQ7YNT3+zCVW
Ek6DzD1AW1bLENKfJgiRVv6UxkcwSsVWPTq4Wbyc+lZmJBO49aEwV4DtFyZzymRX4Oid7w/9mVeM
scL1KT7QV+9dM3O0TQRYazUAkCFhOVjFQgD0ablvWLspgDji06NYKjSgxtrI2Fg1QUh4EfsOWcEo
LevqXENZ8XL4pSU0eFmtj3YPL0GuWcwZqmm96OJZP6AUxOyiF1pPyBn1p4tNWjIdMPlId4JafiR8
NxsVt1qeLVsFYtrsWoL8WEN9CCJbozsvlJyKVluMCju5Qy2MW5fmxFNKnMFbPSC26FwD9ltNqOMi
NIQrXDBJzpWgMmFcfNtBu0h/lVxbUhLqGt/KXHlzS9JwywBdV1DeBk3+NF1t5JVI4D1qXcSuXS2s
ZqBddRq1OFeA1F0SYeIGbaAJXqt8TSREBEBe1ttgLVUFdF7MErl4qgapXn9X5xZVSN9er5ZQLjWN
E19bvOR5gnBIX3LrXRijjH5fJ7M67+UXs1/xXwlr393nX+23y0VX1R1g9FKfi1alUmCxJ4curE6H
YJ3xKDpXIr1gApdZhHY18mDD/G8l1MImYfT7yy6Jc1xheH0/vTXIkWHWXI8sQzrGYQw0s/fTyPth
hwDQeoRdMWKpAISZ5bRlYtQA5f8eIptihCDvX1P10GKl6Oo3qDIFY8+i5UVSfzpjwYWva5OPcGMy
Z5tGeLOkY/5AQlhW4Nljn2gp9zUsEGTGwvN0QzdEZHizMFIURXlkVuC8ZlmWr2Q2DDbg973jZEOP
Q9h1rRhlFHNUTtPYTmXsx/QQhEeDZej5MRVlGbhlYXh+Wr4f7mU9C4/41tMiZgzOsrbMiFdmj4Ff
5P9qjWb5sLvu32LCZjidauqX+/ZmhkQF5X26LGfUSiOvjvRhZ4kd7FqycZZn6ySn8R4OzGcTdwhX
04gBaNeUyiwI6zVoDTr9N8pla2hIRP5inh+haFrVvfuFZ9VosUqtemfBCmmvTqys4LhAaVpi19cY
53Rp8TrNDd8gqmnWRKBoi1TgaQxWyEKuaRRqj2t60xmESWpzBllIIOV/agikNy0077NqCo2FOAHr
6GpM8KaGwSUfazBWKPSYd1Nru2syMX9ViGuqBn/93mq+aypkb17LAvNrNT0LNn7DJ2yCDI7DXbRd
bNHHOJq6kJJsxvnGQOk0x2w3uPiQIwL9bCNzmzpWITJt609CyaupZm3m45K7FlScbXDOOzWOtNFt
DMKKwrEhBm6Pci0zHqo7bpln/N9SSnFuf4H7l+ecpW7fYfp9IQTbbix9vO6U4hBvdpxrKjobRW+U
gwa1CGJ6bz0SJHFFfbBvzBZtzZac5G9/XMiAvMMZcM85fdBVGlBwQ4icROsghHBUqsMVJim5cOmU
NJtvc+9wEd0AwSWoI3FWFEExL5JYcWtZkf26to5x49d63jQyw3HcjRkWwv73cVPxn5ty/i1y1PZD
oQe/YnKJ9JSJyW6Xcqsx+ut7Ss1yC198c41OAnPNdlvQMOI2c4FUcgS9mmxz0HTHIrbgoXMEUnmr
41jWc4amV5Yc7wt0FMj23XF1QXQYenRVztJ1dJ6Y0eqBR6t0Y//CMrEM4XQ8v3N/3U8VdQuvUN/U
o0p1Z22SC2WmgHXACHdO/s+0dfHKFOL9A+p11v5MrX5CIHaMPqBYHlNUdi9OyO7lZ4l2u2F6at/B
v3YVfYyiK9nzdlqcL4t2zyh3fO56oUxF8wsbqtnJnxYoDF7rr0O441GMlDPIVrNGcwzib+H05/nJ
jO3lDPkwPAiN0T6gbnqWLI2+2Nt68yFuDXZnySw41aoNVMH7N4aK0Q2unAp0sCX0jRNeebdxaDMO
NCVU7bjec44CXVJRzqyRjnwXsjT8z7MOqViILwHPCY9qN7W9YCFAj6JCkXbcFIqPS5M1lBOasI8d
+EJ5mMDkj+4kNrSgBysQKa5D4YjJURCzmZQZ6zuGEPAfAxCNGsqQ7OcDVDCh8JDn4QRpfMkkkTAN
o8Ht/WyRhC/0zZbCmxE3iR39hpm6kUm4TsaL/qORXGbity7+2JEAbJfp9nxgkgBH/aM0nJSSoLOB
GV8e0xIhgoh/25fvElVRtS/pviMTaqno3qgrfhMUT4taTNqGE0p3tCPI29iTjspQFl2JH5TG9JNv
0a4tlH483nKhRnmUz+XK5yTMv5QKffaGuPzOlCYOWlTzXQOVbCRcClwNVpV50gzzTG+EFaLjv0B/
05mVbwTiHfT2+xVSLNQqiaX3FRPZTpEiTlyWwHoUrVkNW5aXmYUBCx3Clv3/5sFNpPaW+H/BZMKa
GJf23/H9csFOlwNqpBCMY5YXhITNFG/8yxcoLQfQVtzHF3L4CIRs0/0XR5uF0iOkMhi9HxtnWhad
mNbzcID4LdKYaZ7lvhKN8hgDBp9uVzAnGT6c3FrJgWGZp+HJ2B3xqpkHocXvVNaamUq4XVFfDBGa
c5nUltw9JZoMkN0Qq1x5Ggd6iurq2b8aiRgtpWXQ5xpUoYfxgDsSm63sLKQ9azIb2Cc4DQ0GZxvG
Oe/1DWfEm8j3lIwuf/YbRspF0AXhI5yuea6IjrJBnPPzkupm8IQciCdkrb/pwpy1mF7MF9IDnR7B
iUBiOTcd13SeeinCN519e64JU5OIHZeGBvMJrtcdelCQ3xgz+x1om4voIAAunm9fVLf1n34eS3cp
JfNHph4e1XPu79nbHpo17xWULw2fgIG1jbw9Qp8/PLqdqGViH1maa512gKSfd0BjIkrQ7J/W3geq
RvcHIKlLsVs9VwCg9eyUZWijgKAyKPp+Qsy0oB9ZXI+p//SgZUIyM7ABByH+0v4/HMI8IQgvAJar
gZuhNsV/hOmdzSF9SWAanPr6odxb+CBDuSGilsZkCzbsZCIRHwjH8WJ3oiW75jiKWNQiEZbfOFOR
BqOWexcHqDU8owpLRe7beVkjzZ3W6VLYjyPAurNbmDG4o0irr8YA4fAj8zTSg19zNaRB9+RsIr9E
JF45/J4iwqyk26Ndo1X54aRd5pXnqRADJfqvvTBq6kslBHKJoX2NjqWEzusJ3TC2pWr3ZM6uC8El
r3KAX1msGqar9Qh2+3YFpmemYy1aKY8mAZC8uLDztiYB2nVzTlj+JoFQUxBi7iUnURI0Sv20ZScb
6T5jw92Up8RGHXhoKrSndZgklgI16adbkBQxbx84KI5LpgK12GGoxxBY3o7YrCjlU7hXyjqwKDia
aTtfEgUpYwAihXsrTSntAaqZadlRKcy+9f8d2JSpBkYzAGrHpykP/fdv10gMqtcBBVp5Uk4qaHvz
ntAxZKqQFqwxkU++qpfH0QMVOdQqQuOc3VJcE6sSHASVZzNIq3Vu3ULf34ArEsqUE9cXtSuW/HnY
zF3qK4R3D9MBqM4rsqrpIwEpAyxVkLMFzV+YLGt0IEfAd84shpHoWLAV9izntSJvHJsrLQYbW1cc
DyQtHB7TNi6RkS3S8kPivPraLWP4Tq3BlsstaCuKIccnMi7fpAmLI6d0runxM5ITL6Yux9yB7bB1
xy7+lDhKx1QXL3t0jTnyUzovM5cHnIiLf68AfQnDam6nr0Dcy3MFSt2vsCxBL3ljCzAjiO6EqMM9
sBYVFVNJmnKw0tISLJJftDB5eOhIiYjmsENL6yajqu4wPjzrgVY1S7GmBTMRVgGBsUAc/1WuBpWx
UeN+61lIyrESTi8zOG0Ass2bADjvbmUygYUBDFaVhTLh5gGPq/q6MmefPY2pRu6ywPhyD6wnGjO8
7dPEZSxoM2uL+2RA5Kizitx0/KA6zrO0TkjuJCXXs9pZYh0ZMUY0UPC6ZF+9ezRlrOk9t6yiNEH0
TXkNVOS0r45eKO+WFjUvbU5sqBoetXjfidfqpYU1qqiTcprwtLXUkjgPwSzqtcRbg6n4Wyi2tjLk
0/ZyXradwCJ3S/CJNsRw61RebLA2C7PZFYp467bnD6hNVisht+ATEuErdlW3lLNUkySWmjd54Cm4
rTvBN2mny9lmdfq3Xrfgt592Pzg25dilR1RnOAc9nh6zUoo47oxuBijG17gpMAoIsrcNuZmH5uvC
tCU5oPVHFoM3ebnnPYMJCadOOZXfoKV5zc65huj28Cd/+TmqKE17vPdHOiyN32VUCnK6O7irv3RG
s7qUTC3fIzDQuiOwg5Tp4RU7LJyk+WNaSztkHvmDgeeOu/5l9+Rhoba7+n5qvHST2Lu4HoXrUbgO
vJqZmZmZmVm8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA
AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA
AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA
AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAGBBAAAAAAAAcEEAAAAAAADLwQAAAAAAwPHBAAAA
AADACMIAAAAAAERYQgAAAACAKp9CAAAAAMAVssIAAAAAaLL0QgAAAAB/EDPDAAAAQGEraEMAAACQ
OTaeQwAAAPTHw8VDAACAB6NlAsQAAKA29AA5RAAAkIhigl5EAACtyr6IqUQAwKeCERXQxADARo1X
aeDEAA4TrnWQQsUARl9mTNJcxfDi/u/bgLzFVGQBFO1e7EVI6w3IQrXrRT3TvZCtq0vGBqR2ekxL
gcb5sutm4GG6RiWwrL/TgvfGkR5Bg7rj9EY2ZhEkqRwqR+LfirbpUWBHBU16ezNzzccYgWNpAUDT
xyyMdzgAAjvIN2+VRoDCYcj8NMWn38yZSDuCtpEXQMBIZRESuw4oAkm+ldZpErI2SdPEs/tooWPJ
BFtQneFEpMmJ40gJNKzCySnHyeh9UeFJHodfrLu0QkqYo91dqoddSh9DVT1lOqlKDLaquYA76MqP
YxXoYEoey3O8GiL53EXLOEqvSuRVgksYc2x1da2bS/fjsbQ0puhLey7v8OBnJ0znBdXSJr5SzD9x
6/CeJHFM4mSzpXIklcx58DcsnGTpTBDahC4yj7DM79lFAU3rZ03XoC6DQMyLTfS2BVyvQL3NLMnB
zDYkAc7d7cj/EbUVzlQpu39WIkvOFoMV+ESFl07b4xo2lmbNTkhzhg7vANNOAwJFWiX4Mk++3pSn
6CR8z24WetEiLqPPCZzYhav5188Whp3OLPD7z85zIgEcdjHQYYi1gNHpetA8dXHwItK40I+uRW6K
Kp9Q0rhOaKk3EVH0MTt72PQ00ccA+7L45nJR+cC537agp1FDdr5C27ij0dMTbhMSp9jROrM9S3kJ
X1L8b/kwFJqc0gpokIXNfrhS+r6FjL+w8NKQorEgIUYWU2b6kEsrFFLTgGPF8GSzlFMwXnsWH/DU
Uw8pl49kT+fTU/N8sz0jHdQUGC6QBjZS1BmeOTSIw4bUaAFSkBod19Q+fpnLnhsDVefuPz9D8UNV
QdUfHijbYVW3GiztBtek1cpC7lCRGcTVQhZrLQVwA1bp7WI8AyZMVrLUvQXCl4lW3kkth7L9v1ZW
nPgoH/3nVkqeZIbMASnXXURHAAu4B1dUN/2RzxKP12u9wUQ+lMxXMWaRr27KzVcRkCJpvbAW2Psy
Jc/E6GhYc//cBexFjlhY4FV8TBTN2G5Ya5tfWfTYii5GgrdvKdksutdipctf2S5q466j76HZ5RJx
ajKuudnoVUPBbwYI2sNWKGMXECzaOjb5nQ6KYdpv+BB12yaEWtGmSkoSJuNaF0J1c1u+/1pZW+tr
gxRG2y8y5kakmXvbioLATuX/mlvTXI9dIUDO2wLNPG0KdBnczN7/uXt511tTAK9KUMV/3J8Ba3WR
2o7cfo9Oi7Jb1lxeMyIun/ILXQ2war7Ru1hdCK4CF2N1l12tM+UZIWqV3RPQCyyVWPPd9J14xKLo
M15xxZZ1y+JoXlEmcaA1kEzeQMrd8y5x317RPNWwek0HX/tz9aIm3zLfg5cm2oc0dF9kPbDQqUGp
X0OzI7vrbdDf7F8TVpl2C2AN5DMq4NVO4EB0A9NgLVrgKor4IBcXtOBMU8kWI+PmYAy/IhyhIOvg
aLeVsWT0IOGoZL+7L6aC4VyEoaqIYKFhGzVsVaqOxOG0F6ditcksYl8ir0TdA1ziCRUlaiv7jGJq
S6N2E4yn4t7w2dVzSOFiFW1Qy5CaFWMXIok/TcBuY8cqKeE+H4PjeXVzmQ7nt+O2FPSPNHgH5OMZ
8bNBVj3kXGDtINKrZOQ6XJRUY+uk5LiMRtbD2dVkzF+wl2mg9mTgO87+QSQ+ZWzlQD+p1nJlc8Ld
4VjnkOXETJXGS0jt5RbAio9CywZm8kdJZvbAQeYJMxIAZueMZiz/WgD+hJBm975xgD2mxGam6LiP
GRgD52iR0/kP70vn4Tok/Gl1gefObKUJd1qkZwBO/My6o/nngJ7Ef1bzL2ghxrUfLPBXaNSb0ZMb
9p5oJgsY44nOqmh8g/cWi2D4aC2yWu5WPD9pj0IdrCbpUelntm3UR86UaQBuOxsT/9rpAW3rO1CC
/GkIQjJXIhf9adcSMFExum3qxwu+0l6Uouq4jm2HdjnX6poNt9Yr+AJrgGgyZhvbS2ugAr8/4tFy
a1yeKJjSPLzrDTrNwfiz7GuCRASStwfva6aql6hlk13sT5W9Ej/4hOyj+mzXTja67GiNb+U6eN5s
Po80YbbpCe3DbGD+CBlY7fSH+D1LH47tB6tE+XAsxW03KmrIcoj17e8s7RXCVQRu68NLsmZKQ+45
rbcXQAeW7oiYpR0QicvuVX+HEqo1Ce8qXymXFIM/7/W287zZY2fvWVIYFmiepu8RmWHk/bnTb6sA
hqKCVwfwlT9sWk5pSXB7TwfxocN/cKfctpJ1S6jw6Emyeykv7/CeI2ElDAUZcYVsuS5PRk9xmR6f
6YtfXHFwRv5GJCKn8QzYvVit6tzxhFO7K1YJIfKb11VJVLRacn6yVKSWno7ycRBL2eHcxHLJrYjB
lq/X8jzZ6nF8mw3z42OZ45ZAWfNu3j9OXsiX8xKsn8PrdLvz
"""), "<f8").reshape(2, _Q_HIGH - _Q_LOW + 1)
_POW10 = np.vstack([_POW10, *_split(_POW10[0])])
