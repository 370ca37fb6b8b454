"""Bernal-stacked bilayer graphene as a two-qubit coefficient problem.

The tight-binding Hamiltonian in the {A1, B1, A2, B2} basis (layer (x)
sublattice) maps one-to-one onto a coefficient set that satisfies the
alpha-side contraction constraint at every wave vector, so the closed-form
band energies, eigenstate concurrence and thermal quantities all apply.

The mapping lives in one place, :func:`_lattice_layer`: the set's
components at a batch of wave vectors, with the k-independent ones (alpha,
beta's third entry, omega's third row and column) as Python floats;
:func:`map_to_su2su2` builds one wave vector's set from them.  Grid
sweeps over the Brillouin zone take the structure factor from per-axis
factors gathered by axis indices, run the derive kernel and the
concurrence radical once per distinct set of a chunk on these components
without staging coefficient arrays, and feed the CSV emitters with the k
columns as (axis, index) pairs and the value columns as (values, index)
pairs.  On a grid the seven components that vanish by construction
(alpha_1, alpha_2, omega's third row and column) are the structural zero of
:mod:`su2pair._invariants`, so the kernel and the radical skip every term
in them.  :class:`GrapheneParams` refuses parameters beyond
STRUCTURAL_SCALE, below which no intermediate overflows, so every value has
the bits of the array functions on the staged sets of
:func:`lattice_layer_arrays`, the array reference, and a grid raises where
they raise.

The thermal curve at one wave vector is
``thermal_sweep(map_to_su2su2(p, kx, ky), temps)``, with no wrapper here,
so the closed form exists once; on the lattice its
x+- = sqrt(|w|_F^2 +- 2 |adj w|_F) are max/min(tperp, t3 |G|), from which
:func:`thermal_death_temperature` reads them as well.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

# Module imports: a grid command executes no hamiltonian, graphene-bands no
# entanglement, and only thermal_death_temperature executes thermo.
from . import entanglement, hamiltonian, thermo
from ._invariants import _ZERO, _derive_components, _is_index, _record, even_spectrum
from .errors import InputFormatError


# Largest magnitude GrapheneParams accepts for t, t3, tperp, m and bias.
# The lattice components are then at most 3 S and the derive kernel's terms
# at most quartic in them, so every intermediate is finite and each term the
# grids' structural zero drops is an exact zero; the kernel first overflows
# near 1e77.
STRUCTURAL_SCALE = 1e60

# Smallest lattice constant GrapheneParams accepts: the smallest double at
# which the default window's width, twice 4 pi / (3 lattice), is finite, so
# that np.linspace gives finite axes.  The k vectors themselves overflow only
# further down, near 4.04e-308: the reciprocal shell b1 - b2 and sqrt(3) k_y
# at the window's edge, both 4 pi / (sqrt(3) lattice).
SMALLEST_LATTICE = 8.0 * math.pi / 3.0 / sys.float_info.max

# Largest lattice constant GrapheneParams accepts: the largest double at
# which 3 sqrt(3) lattice, the denominator of the zone corner K that
# find_dirac_point returns, is finite (the rounded quotient is that double).
LARGEST_LATTICE = sys.float_info.max / (3.0 * math.sqrt(3.0))


def _real(name: str, value) -> float:
    """``value`` as a Python float; InputFormatError naming ``name`` unless
    it is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputFormatError(f"{name} must be a real number, not {value!r}")
    return float(value)


@_record
class GrapheneParams:
    """Hopping and gap parameters of the AB-stacked bilayer.

    ``t`` is the intralayer nearest-neighbor hopping, ``t3`` the
    non-dimer-to-non-dimer interlayer hopping, ``tperp`` the dimer coupling,
    ``m`` a sublattice mass, ``bias`` the interlayer bias voltage and
    ``lattice`` the lattice constant.  The dimer-to-non-dimer hopping t4 is
    fixed to zero, which also makes the matrix traceless.  Every parameter
    must be a finite real number, not a bool, and is stored as a Python
    float; the lattice constant must lie between SMALLEST_LATTICE and
    LARGEST_LATTICE, and the others at most STRUCTURAL_SCALE in magnitude.
    InputFormatError, a ValueError, names the one that does not.
    """

    t: float = 1.0
    t3: float = 1.0
    tperp: float = 1.0
    m: float = 0.0
    bias: float = 0.0
    lattice: float = 1.0

    def __post_init__(self):
        for name in ("t", "t3", "tperp", "m", "bias", "lattice"):
            value = self.__dict__[name] = _real(name, getattr(self, name))
            if not math.isfinite(value):
                raise InputFormatError(f"{name} must be finite")
            if name != "lattice" and abs(value) > STRUCTURAL_SCALE:
                raise InputFormatError(
                    f"{name} = {value!r} exceeds {STRUCTURAL_SCALE:g} in magnitude"
                )
        if not self.lattice > 0:
            raise InputFormatError("lattice constant must be positive")
        if self.lattice < SMALLEST_LATTICE:
            raise InputFormatError(
                f"lattice = {self.lattice!r} is below {SMALLEST_LATTICE!r}, "
                "where the k-space window overflows"
            )
        if self.lattice > LARGEST_LATTICE:
            raise InputFormatError(
                f"lattice = {self.lattice!r} is above {LARGEST_LATTICE!r}, "
                "where the Dirac point overflows"
            )


def _y_factor(p: GrapheneParams, ky):
    """cos(sqrt(3) ky lam/2), the one factor of G that depends on ky."""
    return np.cos(np.sqrt(3.0) * ky * p.lattice / 2.0)


def _structure_factor(p: GrapheneParams, kx, ky, at=None):
    """G = 2 e^{-i kx lam/2} cos(sqrt(3) ky lam/2) + e^{-i kx lam} at the
    wave vectors (kx, ky), or at the grid points (kx[ix], ky[iy]) when
    ``at`` = (ix, iy) indexes the axes kx and ky.  Each factor is evaluated
    on its own axis and gathered; its bits do not depend on which."""
    lam = p.lattice
    half = 2.0 * np.exp(-1j * kx * lam / 2.0)
    full = np.exp(-1j * kx * lam)
    cos_y = _y_factor(p, ky)
    if at is not None:
        ix, iy = at
        half, full, cos_y = half[ix], full[ix], cos_y[iy]
    return half * cos_y + full


def _lattice_layer(p: GrapheneParams, kx, ky, at=None):
    """The components (a, b, w) of the lattice-layer sets' alpha, beta and
    omega rows, in the form ``_derive_kernel`` takes, at the points of
    :func:`_structure_factor`.

    alpha = (0, 0, bias/2); beta = (-t Re G, t Im G, m); omega is the
    symmetric 2x2 block built from tperp and t3 G.  The third row and
    column of omega vanish, so alpha . omega = 0 identically.  The entries
    that do not depend on k are Python floats; the others carry the shape
    of the points.  upsilon is 0.

    On a grid (``at`` given) alpha_1, alpha_2 and omega's third row and
    column are the structural zero ``_ZERO``, for
    :func:`~su2pair._invariants._derive_components` and the concurrence
    radical only; they are 0.0 where the components are staged.
    """
    g = _structure_factor(p, kx, ky, at)
    re, im = g.real, g.imag
    w12 = -p.t3 * im / 2.0
    z = _ZERO if at is not None else 0.0
    return (
        [z, z, p.bias / 2.0],
        [-p.t * re, p.t * im, p.m],
        [[(p.tperp - p.t3 * re) / 2.0, w12, z],
         [w12, (p.tperp + p.t3 * re) / 2.0, z],
         [z, z, z]],
    )


def lattice_layer_arrays(p: GrapheneParams, kx, ky):
    """(alpha, beta, omega) of the lattice-layer sets at wave vectors kx, ky.

    The components of :func:`_lattice_layer` as arrays that carry the
    shape of ``kx`` and ``ky`` as leading axes: the array reference for
    the bits of the grids and of :func:`map_to_su2su2`.
    """
    a, b, w = _lattice_layer(p, kx, ky)
    shape = np.shape(b[0])
    stack = lambda items: np.stack([np.broadcast_to(x, shape) for x in items], axis=-1)
    return stack(a), stack(b), stack(w[0] + w[1] + w[2]).reshape(shape + (3, 3))


def map_to_su2su2(p: GrapheneParams, kx: float, ky: float) -> hamiltonian.CoefficientSet:
    """The lattice-layer coefficient set at one wave vector, from
    :func:`_lattice_layer`; ``kx`` and ``ky`` are refused as the
    parameters of :class:`GrapheneParams` are."""
    return hamiltonian.CoefficientSet(0.0, *_lattice_layer(p, _real("kx", kx), _real("ky", ky)))


def find_dirac_point(p: GrapheneParams) -> tuple[float, float]:
    """The zone corner K = (0, 4 pi / (3 sqrt(3) lattice)), a zero of the
    structure factor: 2 cos(2 pi / 3) + 1 = 0."""
    return 0.0, float(4.0 * np.pi / (3.0 * np.sqrt(3.0) * p.lattice))


@_record
class GridSpec:
    """Rectangular k-space sampling window, optionally masked to the first zone.

    The bounds must be real numbers, not bools, finite and ordered, and
    are stored as Python floats; the sample counts must be integers of at
    least 2 and the mask "none" or "hex".  InputFormatError, a ValueError,
    names what is not.
    """

    kx_min: float
    kx_max: float
    ky_min: float
    ky_max: float
    nx: int = 201
    ny: int = 201
    mask: str = "none"

    def __post_init__(self):
        for name in ("nx", "ny"):
            if not _is_index(getattr(self, name), -math.inf, math.inf):
                raise InputFormatError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.nx < 2 or self.ny < 2:
            raise InputFormatError("grid needs at least 2 samples per axis")
        for name in ("kx_min", "kx_max", "ky_min", "ky_max"):
            value = self.__dict__[name] = _real(name, getattr(self, name))
            if not math.isfinite(value):
                raise InputFormatError(f"{name} must be finite")
        if self.kx_max <= self.kx_min or self.ky_max <= self.ky_min:
            raise InputFormatError("grid ranges must be ordered")
        if self.mask not in ("none", "hex"):
            raise InputFormatError(f"unknown mask {self.mask!r}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.kx_min, self.kx_max, self.nx),
            np.linspace(self.ky_min, self.ky_max, self.ny),
        )


def default_grid(p: GrapheneParams, samples: int = 201, mask: str = "none") -> GridSpec:
    """Window |kx|, |ky| <= 4 pi / (3 lattice), containing every zone corner."""
    lim = 4.0 * np.pi / (3.0 * p.lattice)
    return GridSpec(-lim, lim, -lim, lim, samples, samples, mask)


def _reciprocal_shells(lattice: float) -> np.ndarray:
    # Exact translation periods of the structure factor; the three shell
    # vectors share the length 4 pi / (sqrt(3) lattice), and with their
    # negations make the six nearest reciprocal lattice points.
    b1 = 2.0 * np.pi / lattice * np.array([1.0, 1.0 / np.sqrt(3.0)])
    b2 = 2.0 * np.pi / lattice * np.array([1.0, -1.0 / np.sqrt(3.0)])
    return np.array([b1, b2, b1 - b2])


def first_zone_mask(p: GrapheneParams, kx, ky) -> np.ndarray:
    """Wigner-Seitz test: k belongs iff it is no farther from 0 than from any G,
    2 k.G <= |G|^2 (1 + 1e-12) for each of the six shell vectors G.

    The six are three vectors and their exact negations, whose 2 k.G and
    |G|^2 round to the negated and to the same bits, so each pair is one
    test, |2 k.G| <= |G|^2 (1 + 1e-12).  k and G are first scaled by one
    power of two that brings max|G| into [1/2, 1), so |G|^2 stays finite
    at tiny lattices.  The scaling is exact: wherever nothing overflows or
    goes subnormal, the comparison keeps its bits.
    """
    shells = _reciprocal_shells(p.lattice)
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(shells))))[1])
    kx, ky = kx * scale, ky * scale
    outside = False
    for gx, gy in (shells * scale).tolist():
        outside = outside | (np.abs(2.0 * (kx * gx + ky * gy)) > (gx * gx + gy * gy) * (1.0 + 1e-12))
    return np.logical_not(outside)


# k-points evaluated at a time: bounds a grid command's memory whatever the
# grid size, and leaves each chunk large enough to keep numpy's per-call cost
# small.
CHUNK_POINTS = 4096


def _grid_chunks(p: GrapheneParams, g: GridSpec, xs, ys):
    """Axis indices (ix, iy) of the grid points (xs[ix], ys[iy]) that the
    mask keeps, in row-major order, in chunks of CHUNK_POINTS points; only
    the last may hold fewer.  The mask runs on blocks of CHUNK_POINTS grid
    points, and the kept points wait for the next block until they fill a
    chunk, so at most one chunk of them is held."""
    total = g.nx * g.ny
    held_x = held_y = np.empty(0, np.intp)
    for start in range(0, total, CHUNK_POINTS):
        ix, iy = np.divmod(np.arange(start, min(start + CHUNK_POINTS, total)), g.ny)
        if g.mask == "hex":
            inside = first_zone_mask(p, xs[ix], ys[iy])
            ix, iy = ix[inside], iy[inside]
        if held_x.size:
            ix, iy = np.concatenate([held_x, ix]), np.concatenate([held_y, iy])
        if ix.size >= CHUNK_POINTS:
            yield ix[:CHUNK_POINTS], iy[:CHUNK_POINTS]
            ix, iy = ix[CHUNK_POINTS:], iy[CHUNK_POINTS:]
        held_x, held_y = ix, iy
    if held_x.size:
        yield held_x, held_y


def _grid_sets(p: GrapheneParams, g: GridSpec, xs, ys):
    """Per chunk of :func:`_grid_chunks`: its points' indices (ix, iy), the
    axis indices ``at`` of one point of each distinct lattice-layer set
    among them, and each point's ``index`` into those sets.

    G, and so the set, depends on ky only through the bits of the y factor
    cos(sqrt(3) ky lam/2), so the y axis is sorted once into classes of
    equal bits, and a set is a pair (ix, class).  A chunk's pairs are
    scattered into a bool table of its rows by the classes, whose running
    sum numbers them in row-major order: no sort.  Every value of a set is
    the same elementwise arithmetic on the same bits as at each of its
    points."""
    _, first, classes = np.unique(
        _y_factor(p, ys).view(np.int64), return_index=True, return_inverse=True)
    for ix, iy in _grid_chunks(p, g, xs, ys):
        pair = (ix - ix[0]) * first.size + classes[iy]
        seen = np.zeros((ix[-1] - ix[0] + 1) * first.size, bool)
        seen[pair] = True
        index = np.cumsum(seen)[pair] - 1
        rows, cls = np.divmod(np.flatnonzero(seen), first.size)
        yield ix, iy, (rows + ix[0], first[cls]), index


def band_chunks(p: GrapheneParams, g: GridSpec):
    """Positive band energies on the grid, row-major in (kx, ky), one dict
    per chunk of :func:`_grid_sets`, in the column form ``write_csv``
    takes: ``kx`` and ``ky`` as (axis, index) pairs, and ``e1`` and ``e2``
    as (values, index) pairs, the values those of the chunk's distinct
    lattice-layer sets, each of them referenced."""
    xs, ys = g.axes()
    for ix, iy, at, index in _grid_sets(p, g, xs, ys):
        _, e1, e2 = even_spectrum(_derive_components(*_lattice_layer(p, xs, ys, at)))
        yield {"kx": (xs, ix), "ky": (ys, iy), "e1": (e1, index), "e2": (e2, index)}


def concurrence_chunks(p: GrapheneParams, g: GridSpec, m: int = 2, n: int = 1):
    """Eigenstate concurrence of branch (m, n) on the grid, one dict per
    chunk: ``c`` as a (values, index) pair and ``flag`` as an int array,
    and ``kx`` and ``ky``, as in :func:`band_chunks`.

    The closed form of ``concurrence_closed_form_arrays`` on the components
    of the chunk's distinct sets and their derived record.  Points where
    the closed form degenerates or leaves its real domain are reported as
    zero with flag = 1, matching the separable-state reading of those
    regions.
    """
    xs, ys = g.axes()
    for ix, iy, at, index in _grid_sets(p, g, xs, ys):
        a, b, w = _lattice_layer(p, xs, ys, at)
        d = _derive_components(a, b, w)
        c, cause, _ = entanglement._concurrence_from_derived(d, a, b, w, m, n)
        flag = (cause != entanglement.CLOSED_FORM).astype(int)[index]
        yield {"kx": (xs, ix), "ky": (ys, iy), "c": (c, index), "flag": flag}


def _joined(chunks, columns) -> dict[str, np.ndarray]:
    chunks = list(chunks)
    gathered = lambda col: col[0][col[1]] if isinstance(col, tuple) else col
    return {
        col: np.concatenate([gathered(ch[col]) for ch in chunks]) if chunks else np.empty(0)
        for col in columns
    }


def band_grid(p: GrapheneParams, g: GridSpec) -> dict[str, np.ndarray]:
    """Positive band energies on the grid, row-major in (kx, ky)."""
    return _joined(band_chunks(p, g), ("kx", "ky", "e1", "e2"))


def concurrence_grid(
    p: GrapheneParams, g: GridSpec, m: int = 2, n: int = 1
) -> dict[str, np.ndarray]:
    """Eigenstate concurrence of branch (m, n) on the grid; see concurrence_chunks."""
    return _joined(concurrence_chunks(p, g, m, n), ("kx", "ky", "c", "flag"))


def thermal_death_temperature(p: GrapheneParams, kx: float, ky: float) -> float | None:
    """Bisection, 200 geometric halvings of the bracket [1e-6, 1e6], for the
    temperature where the curve's numerator sinh(x+/T) - cosh(x-/T) changes
    sign, x+- = max/min(tperp, t3 |G|).

    Returns None when it keeps one sign over the bracket, as it does at
    every T when x+ = x- (tperp = t3 |G|).
    """
    x_plus, x_minus = thermo._x_pm(hamiltonian.derive(map_to_su2su2(p, kx, ky)))

    def gap(t):
        return thermo.sinh_cosh_gap(x_plus / t, x_minus / t, x_plus / t)

    lo, hi = 1e-6, 1e6
    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
