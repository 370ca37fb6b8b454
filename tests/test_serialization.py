"""The CSV writer against a per-cell reference writer, and its array
'%.17g' kernel against ``format_float``.

``write_csv`` formats each distinct value of a chunk's column once, the
floats with ``_format_17g``; these tests hold its bytes to the plain
definition of the format: every cell on its own, ``format_float`` for floats
and ``%d`` for integer and boolean columns, joined by ``,`` with a trailing
newline.  The kernel is held to ``format_float`` byte for byte, padding
included, on seeded bit patterns of every exponent, at every power of ten,
at the ends of its range and on exact ties of the 17th digit.
"""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import su2pair
from su2pair import cli, graphene, serialization
from su2pair.serialization import _format_17g, format_float, load_coefficient_set, write_csv
from su2pair.thermo import EnsembleBranch, thermal_sweep

from references import pow10_pair
from test_golden import SETS


def reference_csv(header, chunks) -> str:
    lines = [",".join(header)]
    for columns in chunks:
        cells = [
            ["%d" % v for v in col.tolist()] if col.dtype.kind in "iub"
            else [format_float(v) for v in col.tolist()]
            for col in map(np.asarray, columns)
        ]
        lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def assert_writes_reference(path, header, chunks):
    rows = write_csv(path, header, chunks)
    assert rows == sum(len(columns[0]) for columns in chunks)
    assert path.read_text() == reference_csv(header, chunks)


# Floats whose formatting a value-keyed table would get wrong (the zeros) or
# that sit at the ends of the format: non-finite, subnormal and huge values.
SPECIALS = np.array([
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1e300, -1e300, 1e-300, -1e-300, np.finfo(float).max, 0.1, 1.0, -1.0,
])


def random_chunk(rng, n):
    """Float columns with many repeats, with specials and all-distinct
    values, and integer and boolean columns."""
    pool = np.concatenate([SPECIALS, rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, 5)])
    return [
        rng.choice(pool, n),
        rng.choice([0.0, -0.0], n),
        rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
        rng.integers(-3, 3, n),
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n),
        rng.random(n) < 0.5,
    ]


HEADER = ["repeats", "zeros", "distinct", "small_int", "int", "flag"]


@pytest.mark.parametrize("seed", range(8))
def test_bytes_equal_the_per_cell_writer(seed, tmp_path):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(0, 300)) for _ in range(4)] + [0, 1]
    chunks = [random_chunk(rng, n) for n in rng.permutation(sizes)]
    assert_writes_reference(tmp_path / "out.csv", HEADER, chunks)


def test_signed_zeros_in_one_column(tmp_path):
    col = np.array([0.0, -0.0, 0.0, -0.0])
    assert_writes_reference(tmp_path / "z.csv", ["x"], [[col]])
    assert (tmp_path / "z.csv").read_text() == "x\n0\n-0\n0\n-0\n"


def test_axis_index_pairs_write_the_gathered_column(tmp_path):
    """A (values, index) column writes values[index]; the values hold
    signed zeros, infinities, NaN, format_float fallbacks (subnormal, huge,
    17th-digit ties) and repeats, and the index repeats and skips them."""
    rng = np.random.default_rng(19)
    floats = np.concatenate([SPECIALS, [0.0, -0.0, 1e-260, -1e260, 1000000000000000.25],
                             rng.normal(size=20)])
    ints = np.array([3, -1, 0, 7, -1])
    chunks = []
    for n in (0, 1, 40, 300):
        fi, ii = rng.integers(0, floats.size, n), rng.integers(0, ints.size, n)
        chunks.append(([floats[fi], (floats, fi), (ints, ii), ints[ii]], [(floats, fi), (ints, ii)]))
    path = tmp_path / "pairs.csv"
    assert write_csv(path, ["x", "x_pair", "i_pair", "i"], [c for c, _ in chunks]) == 341
    plain = [[c[0], c[0], c[3], c[3]] for c, _ in chunks]
    assert path.read_text() == reference_csv(["x", "x_pair", "i_pair", "i"], plain)
    assert write_csv(path, ["x", "i"], [c for _, c in chunks]) == 341
    assert path.read_text() == reference_csv(["x", "i"], [[c[0], c[3]] for c, _ in chunks])


MONOTONE = [
    np.linspace(-3.0, 3.0, 7),
    np.geomspace(1e-300, 1e300, 50),
    np.array([-np.inf, -1e260, -0.0, 5e-324, 1000000000000000.25, 1e300, np.inf]),
    np.array([1.0, 0.0, -1e-260]),
    np.array([2.5]),
]


@pytest.mark.parametrize("col", MONOTONE, ids=["linear", "geometric", "fallbacks",
                                              "falling", "single"])
def test_strictly_monotone_columns_are_their_own_table(col, tmp_path):
    assert serialization._table(col)[1] is None
    assert_writes_reference(tmp_path / "m.csv", ["x", "y"], [[col, col[::-1]]])


@pytest.mark.parametrize("col", [
    [0.0, -0.0], [-0.0, 0.0], [1.0, 2.0, 2.0], [1.0, np.nan, 2.0], [np.nan, 1.0], [3.0, 1.0, 2.0],
])
def test_columns_that_can_repeat_are_deduplicated(col, tmp_path):
    col = np.array(col)
    assert serialization._table(col)[1] is not None
    assert_writes_reference(tmp_path / "r.csv", ["x"], [[col]])


def test_specials_and_an_empty_file(tmp_path):
    flags = np.arange(SPECIALS.size) % 3
    assert_writes_reference(tmp_path / "s.csv", ["x", "flag"], [[SPECIALS, flags]])
    assert_writes_reference(tmp_path / "e.csv", ["x", "flag"], [[np.empty(0), np.empty(0, int)]])
    assert write_csv(tmp_path / "none.csv", ["x"], []) == 0
    assert (tmp_path / "none.csv").read_text() == "x\n"


# The 101^2 figure grids span several chunks (three for the bands, two for
# the hex-masked concurrence), so chunk boundaries are crossed here as they
# are not in the 21^2 golden cases.
GRIDS = [
    (["graphene-bands", "--bias", "0.1"], ["kx", "ky", "E1", "E2"],
     graphene.band_grid, ("kx", "ky", "e1", "e2")),
    (["graphene-concurrence", "--bias", "1", "--branch-n", "2", "--mask", "hex"],
     ["kx", "ky", "C", "flag"],
     lambda p, g: graphene.concurrence_grid(p, g, 2, 2), ("kx", "ky", "c", "flag")),
]


@pytest.mark.parametrize("argv, header, build, keys", GRIDS, ids=["bands", "concurrence"])
def test_multi_chunk_grid_csv_equals_the_reference(argv, header, build, keys, tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main([*argv, "--grid", "101", "--output", str(out)]) == 0
    args = cli.build_parser().parse_args([*argv, "--grid", "101", "--output", str(out)])
    p = cli._graphene_params(args)
    data = build(p, graphene.default_grid(p, 101, args.mask))
    assert data["kx"].size > graphene.CHUNK_POINTS
    assert out.read_text() == reference_csv(header, [[data[k] for k in keys]])


def test_thousand_step_thermo_csv_equals_the_reference(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps({
        "upsilon": 0.3,
        "alpha": [1, 2, 3],
        "beta": [3, 1, 2],
        "omega": [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]],
    }))
    out = tmp_path / "thermo.csv"
    argv = ["thermo", "--input", str(path), "--tmin", "0.01", "--tmax", "100",
            "--steps", "1000", "--output", str(out)]
    assert cli.main(argv) == 0
    s = thermal_sweep(load_coefficient_set(path), cli._temperatures(0.01, 100.0, 1000),
                      EnsembleBranch.FULL)
    columns = [s[k] for k in ("t", "z", "purity", "concurrence", "flag")]
    assert out.read_text() == reference_csv(["T", "Z", "purity", "concurrence", "flag"], [columns])


def assert_kernel_matches(x):
    x = np.asarray(x, dtype=np.float64)
    want = np.array([format_float(v) for v in x.tolist()], "S24").view(np.uint8)
    got = _format_17g(x)
    assert got.shape == (x.size, 24) and got.dtype == np.uint8
    bad = np.flatnonzero((got != want.reshape(x.size, 24)).any(axis=1))
    assert bad.size == 0, [(repr(x[i]), got[i].tobytes()) for i in bad[:5]]


def test_stored_pow10_table_is_built_from_python_integers():
    """The stored hi and lo rows and the Veltkamp halves of hi, bit for bit,
    for every exponent q = 16 - k of the array path."""
    q = range(serialization._Q_LOW, serialization._Q_HIGH + 1)
    assert (q.start, q.stop) == (-234, 267)
    hi, lo = np.array([pow10_pair(k) for k in q]).T
    c = 134217729.0 * hi
    head = c - (c - hi)
    expected = np.vstack([hi, lo, head, hi - head])
    table = serialization._POW10
    assert table.dtype == np.float64 and table.shape == (4, 501)
    assert table.tobytes() == expected.tobytes()


def test_kernel_on_a_million_bit_patterns():
    """2^20 patterns, each biased exponent 0-2047 (subnormals, inf and NaN
    included) 512 times, with random signs and mantissas."""
    rng = np.random.default_rng(15)
    n = 1 << 20
    exponent = np.arange(n, dtype=np.uint64) % np.uint64(2048)
    bits = (
        (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
        | (exponent << np.uint64(52))
        | rng.integers(0, 1 << 52, n, dtype=np.uint64)
    )
    for block in np.split(bits.view(np.float64), 16):
        assert_kernel_matches(block)


def test_kernel_on_signed_zeros_infinities_and_nans():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    assert_kernel_matches(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans]))
    assert _format_17g(nans).view("S24").ravel().tolist() == [b"nan"] * 4


def test_kernel_at_powers_of_ten_and_their_neighbours():
    """log10 misjudges the decade at some exact powers of ten (1e23 is
    9.9999999999999992e+22); both neighbours sit on either side of each
    decade boundary."""
    powers = np.array([float("1e%d" % e) for e in range(-320, 309)])
    for x in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)):
        assert_kernel_matches(np.concatenate([x, -x]))


def test_kernel_at_the_ends_of_its_range():
    edges = np.array([1e-250, 1e250])
    steps = [np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    assert_kernel_matches(np.concatenate([edges, *steps, -edges]))


def exact_ties():
    """odd / 2^m in [10^(17-m), 10^(18-m)): 18 significant digits, the last
    a 5, so the 17-digit rounding is an exact tie.  Every such double lies at
    2 <= m <= 25."""
    rng = np.random.default_rng(7)
    out = [1000000000000000.25, 1000000000000000.75]
    for m in range(2, 26):
        lo = math.ceil(10.0 ** (17 - m) * 2**m)
        hi = min(math.floor(10.0 ** (18 - m) * 2**m), 2**53)
        odds = range(lo | 1, hi, 2)
        picks = odds if len(odds) <= 64 else [odds[i] for i in rng.integers(0, len(odds), 64)]
        out.extend(o / 2**m for o in picks)
    return np.array(out)


def near_ties():
    """x = M 2^-(s+q) with 2^52 <= M < 2^53, so that y = x 10^q = M 5^q / 2^s
    has the fraction 1/2 + t / 2^s for a small t != 0: the 17-digit rounding
    of x lies within 1e-12 of a tie without being one."""
    out = []
    for q in range(18, 23):
        p = 5**q
        for s in range(40, 53):
            for t in (-2, -1, 1, 3):
                if abs(t) >= 1e-12 * 2**s:
                    continue
                m = (2 ** (s - 1) + t) * pow(p, -1, 2**s) % 2**s
                m += -(-(2**52 - m) // 2**s) * 2**s  # the first M >= 2^52 in its class
                if m < 2**53 and 10**16 <= m * p >> s < 10**17 - 1:
                    out.append(m / 2 ** (s + q))
    return np.array(out)


def test_kernel_on_exact_ties():
    ties = exact_ties()
    assert format_float(1000000000000000.25) == "1000000000000000.2"
    assert format_float(1000000000000000.75) == "1000000000000000.8"
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in ties.tolist())
    assert_kernel_matches(np.concatenate([ties, -ties]))


def test_kernel_leaves_ties_and_near_ties_to_format_float(monkeypatch):
    """Exact ties and roundings within 1e-12 of one are decided by
    format_float, never by the double-double product."""
    near = near_ties()
    assert near.size >= 40
    for v in near.tolist():
        k = math.floor(math.log10(v))
        y = Fraction(v) * Fraction(10) ** (16 - k)
        assert 10**16 <= y < 10**17 and 0 < abs(y % 1 - Fraction(1, 2)) < 1e-12
    values = np.concatenate([exact_ties(), near, -near])
    calls = []

    def counted(v):
        calls.append(v)
        return format_float(v)

    monkeypatch.setattr(serialization, "format_float", counted)
    assert_kernel_matches(values)
    assert sorted(calls) == sorted(values.tolist())


def test_zero_row_one_row_and_all_fallback_chunks(tmp_path):
    """Chunks of no rows, of one row, and of floats that all leave the
    kernel's array path: exact ties, |x| outside [1e-250, 1e250] and
    subnormals."""
    rng = np.random.default_rng(3)
    fallback = np.concatenate([exact_ties()[:40], [1e-300, -2e280, 5e-324, np.finfo(float).max]])
    fallback = rng.permutation(fallback)
    flags = rng.integers(0, 3, fallback.size)
    chunks = [
        [np.empty(0), np.empty(0, int)],
        [np.array([0.1]), np.array([1])],
        [fallback, flags],
        [np.empty(0), np.empty(0, int)],
        [-fallback, flags],
    ]
    assert_writes_reference(tmp_path / "f.csv", ["x", "flag"], chunks)


# --- the per-thread scratch buffers -------------------------------------------------
#
# write_csv formats a block in buffers that the calling thread keeps from one
# block, chunk and call to the next.  Long texts followed by short ones show
# any byte a block leaves behind for the next one.

LONG = [np.full(4, -1.2345678901234567e-100), np.full(4, np.iinfo(np.int64).min)]
SHORT = [np.array([0.0, 1.0, -0.0]), np.array([0, 1, 0])]


def test_short_cells_after_long_ones_in_one_call(tmp_path):
    assert_writes_reference(tmp_path / "one.csv", ["x", "i"], [LONG, SHORT, LONG, SHORT])


def test_short_cells_after_long_ones_across_calls(tmp_path):
    assert_writes_reference(tmp_path / "long.csv", ["x", "i"], [LONG])
    assert_writes_reference(tmp_path / "short.csv", ["x", "i"], [SHORT])


def test_short_chunk_after_a_chunk_of_several_blocks(tmp_path):
    """A 10000-row chunk goes through in blocks of 4096 rows, each with a
    table of distinct long texts; a 3-row chunk follows it."""
    rng = np.random.default_rng(46)
    x = -rng.uniform(1, 2, 10000) * 1e-100
    ints = rng.integers(np.iinfo(np.int64).min, -10**18, 10000)
    chunks = [[x, ints, np.sort(x)], [*SHORT, SHORT[0]]]
    assert_writes_reference(tmp_path / "blocks.csv", ["x", "i", "t"], chunks)


def test_threads_writing_at_once_each_get_their_own_bytes(tmp_path):
    """Chunks of two shapes and texts, each written 50 times by two threads
    at once, more threads than a 2-CPU host has, switching every
    microsecond: every file must be its reference."""
    rng = np.random.default_rng(47)
    jobs = [
        (["x", "y", "i"], [[rng.normal(size=3000) * 1e-120, rng.normal(size=3000),
                            LONG[1][:1].repeat(3000)]]),
        (["x", "flag"], [[rng.normal(size=700), rng.integers(0, 3, 700)], SHORT]),
    ]
    failures, done, barrier = [], [], threading.Barrier(2 * len(jobs))

    def write(name, header, chunks):
        want = reference_csv(header, chunks)
        barrier.wait(timeout=60)
        for i in range(50):
            path = tmp_path / f"{name}-{i}.csv"
            write_csv(path, header, chunks)
            if path.read_text() != want:
                failures.append((name, i))
        done.append(name)

    threads = [threading.Thread(target=write, args=(f"{j}{copy}", *job))
               for j, job in enumerate(jobs) for copy in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(done) == len(threads)
    assert failures == []


def in_a_fresh_thread(job):
    """``job()`` in a new thread, whose scratch buffers start empty."""
    out = []
    t = threading.Thread(target=lambda: out.append(job()))
    t.start()
    t.join()
    return out[0]


def first_write_peak(header, chunks, path) -> int:
    """The tracemalloc peak of a thread's first write_csv."""
    def job():
        tracemalloc.start()
        try:
            write_csv(path, header, chunks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return in_a_fresh_thread(job)


def test_first_write_peaks_below_the_per_chunk_arrays_it_replaced(tmp_path):
    """The peaks of writing with fresh arrays a block (807 KB and 1457 KB
    when the workspace came in; it reads 607 KB and 1388 KB): the 1000-step
    sweep of the golden entangled set, a canonical alpha-branch set, and
    the ten chunks of the 201^2 bias-0.1 band grid."""
    c = serialization.coefficient_set_from_dict(SETS["entangled"])
    s = thermal_sweep(c, cli._temperatures(0.01, 100.0, 1000), EnsembleBranch.FULL)
    sweep = [[s[k] for k in ("t", "z", "purity", "concurrence", "flag")]]
    header = ["T", "Z", "purity", "concurrence", "flag"]
    assert first_write_peak(header, sweep, tmp_path / "s.csv") <= 807_000
    args = cli.build_parser().parse_args(["graphene-bands", "--bias", "0.1", "--output", "-"])
    p = cli._graphene_params(args)
    bands = [(ch["kx"], ch["ky"], ch["e1"], ch["e2"])
             for ch in graphene.band_chunks(p, graphene.default_grid(p, 201, args.mask))]
    assert len(bands) == 10
    assert first_write_peak(["kx", "ky", "E1", "E2"], bands, tmp_path / "b.csv") <= 1_457_000


def test_a_longer_chunk_needs_no_larger_buffers(tmp_path):
    x = np.random.default_rng(48).normal(size=10000)
    flags = np.arange(10000) % 3

    def held(n):
        write_csv(tmp_path / "c.csv", ["x", "flag"], [[x[:n], flags[:n]]])
        return sum(b.nbytes for b in vars(serialization._SCRATCH).values())

    shorter, longer = (in_a_fresh_thread(lambda: held(n)) for n in (4096, 10000))
    assert 0 < longer <= shorter


FAULT_PROBE = """\
import contextlib, io, json, resource, statistics, sys
from su2pair.cli import main
thermo = ["thermo", "--input", sys.argv[1], "--tmin", "0.01", "--tmax", "100", "--steps", "1000",
          "--output", sys.argv[2]]
bands = ["graphene-bands", "--bias", "0.1", "--grid", "101", "--output", sys.argv[2]]
medians = []
for argv in (thermo, bands):
    faults = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(11):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    medians.append(statistics.median(faults[1:]))
print(json.dumps(medians))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux reports them")
def test_repeated_commands_take_almost_no_page_faults(tmp_path):
    """A repeated command writes its CSV in the buffers of its first run, so
    it takes no memory from the kernel: minor page faults per repeat, median
    of 10 after a warm-up, in a process without MALLOC_* tuning.  On a 2-CPU
    Linux host the sweep reads 0 and the bands 0 or 125, taken by the grid's
    own arrays; with fresh arrays for every stage of the CSV they read 42-109
    and 473-902."""
    (tmp_path / "set.json").write_text(json.dumps(SETS["entangled"]))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(su2pair.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(tmp_path / "set.json"), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    thermo, bands = json.loads(done.stdout)
    assert thermo <= 20 and bands <= 250, (thermo, bands)
