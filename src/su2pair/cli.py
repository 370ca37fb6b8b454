"""Command-line surface.

Subcommands: solve, classify, quartic, verify, thermo, graphene-bands,
graphene-concurrence, graphene-thermal.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error, 3 numeric invariant
violation.  Identical options and seed produce byte-identical outputs.

A process compiles and executes only the code its commands run.  ``main``
parses with one complete parser, built by :func:`build_parser` on the first
call and kept for the process.  The package's modules are imported as
modules, and each executes when a command first uses it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

import numpy as np

# Modules, not names: each is executed only when a command first uses it.
from . import graphene, hamiltonian, quartic, serialization, solver, thermo
from .errors import ConstraintError, InputFormatError, InvariantViolation

# Largest accepted --grid and --steps, refused before any work.  On a 2-CPU
# Xeon host a grid command costs about 0.8 us a k-point at 201^2 (more than
# half of it CSV formatting, 0.09-0.11 us the derive kernel) and runs in
# chunks of graphene.CHUNK_POINTS, so --grid 1001 takes about a second in
# flat memory; a thermo sweep is
# evaluated as arrays over T at 2-5 us a step, 1.2-1.6 us of it CSV
# formatting, so --steps 10000 takes well under a second.
MAX_GRID = 1001
MAX_STEPS = 10_000
# Largest accepted verify --samples, refused before any suite runs.  All
# suites take about 2.5 ms a draw on the same host (--samples 10000 takes
# 24-28 s), so 100 000 draws, five times CI's largest run, take 4-5 minutes.
MAX_SAMPLES = 100_000

# A sweep's exponents are energies over T: the Gibbs weights' level gaps
# (e_k - e_min)/T, the lowest level over T in log Z, and the closed-form
# concurrence's x+-/T and E2/T, doubled in its exp(-2x) terms.  Every energy
# is at most |upsilon| + |alpha| + |beta| + sqrt(3) |omega|_F <= sqrt(6) S
# for the coefficient scale S, so every exponent is at most 2 sqrt(6) S/T,
# below 5 S/T.  A lowest temperature at which 16 S/T (this factor times S
# over T/2) overflows is refused, which keeps every exponent finite with room
# to spare.  So is one below twice the smallest normal double, which keeps
# every T of a sweep a normal double: a subnormal T carries fewer
# significant bits, and the T cells of a log-spaced sweep would no longer be
# its points to double precision.
_EXPONENT_BOUND = 8.0
_LOWEST_TEMPERATURE = 2.0 * sys.float_info.min


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="coefficient-set JSON file")
    p.add_argument("--output", help="eigensystem JSON output path")


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="coefficient-set JSON file")


def _quartic_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--coeffs", nargs=5, type=float, required=True, metavar=("C4", "C3", "C2", "C1", "C0")
    )


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--suite", action="append", help="restrict to named suites")


def _thermo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="coefficient-set JSON file")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument(
        "--branch", choices=["full", "positive"], default="full",
        help="full ensemble or positive-energy restriction",
    )
    p.add_argument("--output", required=True, help="CSV output path")


def _graphene_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=1.0, help="intralayer hopping")
    p.add_argument("--t3", type=float, default=1.0, help="non-dimer interlayer hopping")
    p.add_argument("--tperp", type=float, default=1.0, help="dimer coupling")
    p.add_argument("--m", type=float, default=0.0, help="sublattice mass")
    p.add_argument("--bias", type=float, default=0.0, help="interlayer bias voltage")
    p.add_argument("--lattice", type=float, default=1.0, help="lattice constant")
    p.add_argument("--output", required=True, help="CSV output path")


def _grid_arguments(p: argparse.ArgumentParser) -> None:
    _graphene_arguments(p)
    p.add_argument("--grid", type=int, default=201, help="samples per axis")
    p.add_argument("--mask", choices=["none", "hex"], default="none")


def _concurrence_arguments(p: argparse.ArgumentParser) -> None:
    _grid_arguments(p)
    p.add_argument("--branch-m", type=int, choices=[1, 2], default=2)
    p.add_argument("--branch-n", type=int, choices=[1, 2], default=1)


def _graphene_thermal_arguments(p: argparse.ArgumentParser) -> None:
    _graphene_arguments(p)
    p.add_argument("--kx", type=float, default=None, help="defaults to a Dirac point")
    p.add_argument("--ky", type=float, default=None)
    p.add_argument("--tmin", type=float, default=0.01)
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=50)


def _graphene_params(args) -> graphene.GrapheneParams:
    return graphene.GrapheneParams(
        t=args.t, t3=args.t3, tperp=args.tperp, m=args.m, bias=args.bias, lattice=args.lattice
    )


def _grid_spec(p: graphene.GrapheneParams, args) -> graphene.GridSpec:
    if args.grid > MAX_GRID:
        raise InputFormatError(f"--grid {args.grid} exceeds the limit of {MAX_GRID}")
    return graphene.default_grid(p, args.grid, args.mask)


def _nonempty(chunks, args):
    """The grid's chunks, refused as a usage error before any output is
    written when the mask leaves no k-point; the first chunk is only peeked."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        raise InputFormatError(
            f"--mask {args.mask} leaves no k-point on a {args.grid}x{args.grid} grid"
        )
    return itertools.chain([first], chunks)


def _temperatures(tmin: float, tmax: float, steps: int) -> np.ndarray:
    if not (0 < tmin <= tmax < math.inf) or steps < 1:
        raise InputFormatError("need 0 < tmin <= tmax < inf and steps >= 1")
    if steps > MAX_STEPS:
        raise InputFormatError(f"--steps {steps} exceeds the limit of {MAX_STEPS}")
    if steps == 1 or tmin == tmax:
        return np.array([tmin])
    # Log spacing: sweeps span decades and both endpoints are sampled exactly.
    temps = np.exp(np.linspace(np.log(tmin), np.log(tmax), steps))
    temps[0], temps[-1] = tmin, tmax
    return temps


def _check_lowest_temperature(tmin: float, c: hamiltonian.CoefficientSet) -> None:
    """Refuse a sweep of the set ``c`` at a lowest temperature T below twice
    the smallest normal double, or at which 16 S/T is not finite for the
    coefficient scale S = ``c.scale()``, which does not overflow.
    16 S/T is formed as 8 S over T/2, which is exact at every accepted T, so
    a set whose 8 S overflows is refused at every T."""
    scale = c.scale()
    if tmin < _LOWEST_TEMPERATURE or not math.isfinite(_EXPONENT_BOUND * scale / (tmin / 2.0)):
        raise InputFormatError(
            f"--tmin {tmin!r} is too low for a set of coefficient scale "
            f"{serialization.format_float(scale)}: 16 S/T overflows, or T is below twice "
            "the smallest normal double"
        )


def cmd_solve(args) -> int:
    es = solver.solve(serialization.load_coefficient_set(args.input))
    # Written first, so that an unwritable path prints nothing.
    if args.output:
        serialization.write_eigensystem(args.output, es)
    print(f"method: {es.method.value}" + (" (degenerate)" if es.degenerate else ""))
    for (m, n), e, _ in es.items():
        print(f"eigenvalue[{m},{n}] = {serialization.format_float(e)}")
    if args.output:
        print(f"eigensystem written to {args.output}")
    return 0


def cmd_classify(args) -> int:
    label = hamiltonian.classify(serialization.load_coefficient_set(args.input))
    print(f"case: {label}")
    for key in sorted(label.residuals):
        print(f"residual {key} = {label.residuals[key]:.6e}")
    return 0


def cmd_quartic(args) -> int:
    if not all(map(math.isfinite, args.coeffs)):
        raise InputFormatError("--coeffs must be finite")
    if args.coeffs[0] == 0:
        raise InputFormatError("--coeffs: leading coefficient is zero: not a quartic")
    roots = quartic.solve_quartic(*args.coeffs)
    fmt = serialization.format_float
    for z in roots:
        print(f"{fmt(z.real)} {'+' if z.imag >= 0 else '-'} {fmt(abs(z.imag))}i")
    return 0


def cmd_verify(args) -> int:
    # Imported here so that no other subcommand pays for loading the suites
    # and their samplers.
    from .verify import DISPATCH_MIN_SAMPLES, report_lines, run_suites

    if args.samples < 1:
        raise InputFormatError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise InputFormatError(f"--samples {args.samples} exceeds the limit of {MAX_SAMPLES}")
    dispatch = args.suite is None or "solver-dispatch" in args.suite
    if dispatch and args.samples < DISPATCH_MIN_SAMPLES:
        raise InputFormatError(
            f"--samples {args.samples} is below {DISPATCH_MIN_SAMPLES}, the fewest that "
            "reach every solver-dispatch route"
        )
    if args.seed < 0:
        raise InputFormatError("--seed must be non-negative")
    try:
        results = run_suites(args.samples, args.seed, args.suite)
    except KeyError as exc:
        # args[0], not str(exc), which would print KeyError's quotes.
        raise InputFormatError(exc.args[0]) from exc
    for line in report_lines(results, args.samples, args.seed):
        print(line)
    return 0 if all(r.passed for r in results) else 1


def cmd_thermo(args) -> int:
    c = serialization.load_coefficient_set(args.input)
    branches = thermo.EnsembleBranch
    branch = branches.FULL if args.branch == "full" else branches.POSITIVE_ONLY
    temps = _temperatures(args.tmin, args.tmax, args.steps)
    _check_lowest_temperature(args.tmin, c)
    try:
        s = thermo.thermal_sweep(c, temps, branch)
    except ConstraintError as exc:
        # Only the positive branch needs a constraint.
        raise InputFormatError(f"--branch positive: {exc}") from exc
    columns = [s[name] for name in ("t", "z", "purity", "concurrence", "flag")]
    header = ["T", "Z", "purity", "concurrence", "flag"]
    rows = serialization.write_csv(args.output, header, [columns])
    print(f"{rows} temperatures written to {args.output}")
    return 0


def cmd_graphene_bands(args) -> int:
    p = _graphene_params(args)
    spec = _grid_spec(p, args)
    chunks = _nonempty(graphene.band_chunks(p, spec), args)
    e1_mins = []

    def columns():
        for ch in chunks:
            e1_mins.append(np.min(ch["e1"]))
            yield ch["kx"], ch["ky"], ch["e1"], ch["e2"]

    rows = serialization.write_csv(args.output, ["kx", "ky", "E1", "E2"], columns())
    print(
        f"{rows} points written to {args.output}; "
        f"min E1 = {serialization.format_float(float(np.min(e1_mins)))}"
    )
    return 0


def cmd_graphene_concurrence(args) -> int:
    p = _graphene_params(args)
    spec = _grid_spec(p, args)
    chunks = _nonempty(graphene.concurrence_chunks(p, spec, args.branch_m, args.branch_n), args)
    flagged = 0

    def columns():
        nonlocal flagged
        for ch in chunks:
            flagged += int(np.sum(ch["flag"]))
            yield ch["kx"], ch["ky"], ch["c"], ch["flag"]

    rows = serialization.write_csv(args.output, ["kx", "ky", "C", "flag"], columns())
    print(f"{rows} points written to {args.output}; {flagged} flagged")
    return 0


def cmd_graphene_thermal(args) -> int:
    p = _graphene_params(args)
    temps = _temperatures(args.tmin, args.tmax, args.steps)
    if (args.kx is None) != (args.ky is None):
        raise InputFormatError("provide both --kx and --ky or neither")
    if args.kx is None:
        kx, ky = graphene.find_dirac_point(p)
    elif not np.isfinite([args.kx, args.ky]).all():
        raise InputFormatError("--kx and --ky must be finite")
    else:
        kx, ky = args.kx, args.ky
    # One mapping serves the check and the curve.
    c = graphene.map_to_su2su2(p, kx, ky)
    _check_lowest_temperature(args.tmin, c)
    s = thermo.thermal_sweep(c, temps)
    columns = (s["t"], s["concurrence"], s["flag"])
    serialization.write_csv(args.output, ["T", "C", "flag"], [columns])
    print(
        f"{s['t'].size} temperatures written to {args.output} "
        f"at k = ({serialization.format_float(kx)}, {serialization.format_float(ky)})"
    )
    return 0


# Each subcommand once: its name, its help line, the function that adds its
# arguments to its parser, and its handler.
_COMMANDS = (
    ("solve", "solve a coefficient set for its eigensystem", _solve_arguments, cmd_solve),
    ("classify", "report the solvable case of a coefficient set", _classify_arguments,
     cmd_classify),
    ("quartic", "roots of a quartic polynomial", _quartic_arguments, cmd_quartic),
    ("verify", "run the seeded verification suites", _verify_arguments, cmd_verify),
    ("thermo", "temperature sweep: Z, purity, concurrence", _thermo_arguments, cmd_thermo),
    ("graphene-bands", "positive band energies on a k grid", _grid_arguments,
     cmd_graphene_bands),
    ("graphene-concurrence", "eigenstate concurrence on a k grid", _concurrence_arguments,
     cmd_graphene_concurrence),
    ("graphene-thermal", "thermal concurrence curve at one k point",
     _graphene_thermal_arguments, cmd_graphene_thermal),
)
_HANDLERS = {name: handler for name, _, _, handler in _COMMANDS}


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A new ``parser_class`` with every subcommand and its arguments."""
    parser = parser_class(
        prog="su2pair",
        description="Closed-form eigensystems, entanglement and thermodynamics "
        "of two-qubit Hamiltonians, with a bilayer-graphene front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, add_arguments, _ in _COMMANDS:
        add_arguments(sub.add_parser(name, help=text))
    return parser


# The parser main uses: built on the first call and kept for the process.
# parse_args leaves a parser as it was, and cache_clear() starts over.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    # Only an argv with a negative number in exponent form, such as -5e0,
    # compiles the module that reads it as a value.
    if any(a[:1] == "-" and a[1:2] in "0123456789." and "e" in a.lower() for a in argv):
        from ._negative_numbers import parse

        args = parse(argv, build_parser)
    try:
        args = args or _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
