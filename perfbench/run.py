"""su2pair benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload figure-grids --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it adds traced passes, interleaved with the untraced
ones, and the microbenchmarks, and reports the per-layer metrics.  Every output is checked against the
benchmark's own dense reference.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One thread throughout: pin BLAS before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import micro  # noqa: E402
from reference import Tally  # noqa: E402
from tracer import ItemClock, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# setup_s is the fastest of this many complete set-ups, spread over the run
# so that they meet more than one state of a shared host.
SETUP_REPEATS = 30
# Traced passes of a --trace 1 run, each right after an untraced pass.
TRACED_PASSES = 4

# Figures of the run itself, printed as info lines: the peak memory before
# the first timed pass (the benchmark's own floor under peak_rss_mb), and
# items_per_s from each operation's fastest whole time, not piece by piece.
RUN_INFO = {"harness_rss_mb": "MB", "items_per_s_whole": "1/s"}

# Calls counted per item in the traced pass.
PER_ITEM = (
    "hamiltonian.derive",
    "hamiltonian.classify",
    "hamiltonian.fano_compose",
    "hamiltonian.frame_reduce",
    "oracle.eig_hermitian",
    "pauli.pauli_word",
)


# Per-layer counts a workload may not produce: reported as 0, with the reason.
ABSENT = {
    "solver.route.separable": "no su2pair.solve calls",
    "solver.route.entangled": "no su2pair.solve calls",
    "solver.route.quartic": "no su2pair.solve calls",
    "solver.route.oracle": "no su2pair.solve calls",
    "solver.quartic_accept_ratio": "no diagonal-omega sets",
    "solver.closed_form_ratio": "no su2pair.solve calls",
    "solve.p50_us": "no su2pair.solve calls",
    "solve.p99_us": "no su2pair.solve calls",
    "solve.latency_samples": "no su2pair.solve calls",
    "thermo.flag0": "no thermo sweeps",
    "thermo.flag1": "no thermo sweeps",
    "thermo.flag2": "no thermo sweeps",
    "graphene.flagged": "no graphene commands",
    "serialization.bytes_out": "no CSV output",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "su2pair" or n.startswith("su2pair.")}


def import_package():
    """Import su2pair afresh from the checkout's src/, dropping any earlier copy."""
    for name in package_modules():
        del sys.modules[name]
    sp = importlib.import_module("su2pair")
    importlib.import_module("su2pair.cli")
    if Path(sp.__file__).resolve().parent != (SRC / "su2pair").resolve():
        fail(f"su2pair was imported from {sp.__file__}, not from {SRC}")
    return sp


class Fastest:
    """Each operation's fastest time over the run, taken piece by piece.

    An operation's pieces are its timed per-item calls (``ItemClock``) and
    the rest of the operation.  Each piece keeps its fastest time over the
    passes, so a slowdown of the host that covers a whole pass still leaves
    the quiet moments within it.  An operation whose number of pieces
    changes between passes keeps its fastest whole time instead.
    """

    def __init__(self):
        self.whole = self.rest = None
        self.pieces: list[np.ndarray] = []
        self.regular: np.ndarray | None = None

    def add(self, result):
        total = result.op_seconds
        rest = total - np.array([p.sum() for p in result.op_pieces])
        if self.whole is None:
            self.whole, self.rest = total.copy(), rest
            self.pieces = [p.copy() for p in result.op_pieces]
            self.regular = np.ones(total.size, dtype=bool)
            return
        np.minimum(self.whole, total, out=self.whole)
        np.minimum(self.rest, rest, out=self.rest)
        for i, p in enumerate(result.op_pieces):
            if p.size == self.pieces[i].size:
                np.minimum(self.pieces[i], p, out=self.pieces[i])
            else:
                self.regular[i] = False

    def seconds(self) -> np.ndarray:
        pieced = np.array([p.sum() for p in self.pieces]) + self.rest
        return np.where(self.regular, pieced, self.whole)


def setup(workload_cls, seed: int, workdir: Path):
    """Import the package, generate the inputs and run one warm-up operation."""
    t0 = time.perf_counter()
    sp = import_package()
    wl = workload_cls(seed, workdir)
    wl.load(sp)
    wl.warmup(sp)
    return time.perf_counter() - t0, sp, wl


def setup_again(workload_cls, seed: int, workdir: Path) -> float:
    """Time one more complete set-up and discard it; the package in use stays loaded."""
    kept = package_modules()
    t, _, _ = setup(workload_cls, seed, workdir)
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return t


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    if not (SRC / "su2pair" / "__init__.py").is_file():
        fail(f"no su2pair package under {SRC}; run from a full checkout")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")

    workload_cls = WORKLOADS[args.workload]
    # A fixed number of passes, enough for --seconds at the first baseline's
    # speed, so that every commit takes its fastest times over as many samples.
    n_passes = max(2, math.ceil(args.seconds / workload_cls.PASS_SECONDS))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        t, sp, wl = setup(workload_cls, args.seed, workdir)
        setup_s = [t]
        # The other set-ups, in equal shares before each pass.
        setups_before = [a.size for a in np.array_split(np.arange(SETUP_REPEATS - 1), n_passes)]
        wl.prepare_reference()
        gc.collect()
        harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tally, fastest, clock = Tally(), Fastest(), ItemClock(workload_cls.ITEM_FUNCTIONS)
        pass_s, traced, trace_ratio = [], None, []
        for p in range(n_passes):
            setup_s += [setup_again(workload_cls, args.seed, workdir) for _ in range(setups_before[p])]
            clock.install()
            try:
                result = wl.run_pass(sp, clock)
            finally:
                clock.uninstall()
            fastest.add(result)
            pass_s.append(result.seconds)
            with np.errstate(all="ignore"):
                tally.merge(wl.check(result))
            result.outputs = None
            if args.trace and p < TRACED_PASSES:
                t = traced_pass(sp, wl, tally)
                # The untraced pass just before shares the state of the host.
                trace_ratio.append(t[0] / result.seconds)
                traced = t if traced is None or t[0] < traced[0] else traced
        op_items = result.op_items
        op_s = fastest.seconds()
        labels = np.array(wl.op_labels())
        best_by_label = {
            label: round(float(op_s[labels == label].sum()), 7) for label in dict.fromkeys(labels)
        }

        values = {
            "setup_s": min(setup_s),
            "items_per_s": float(op_items.sum() / op_s.sum()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "harness_rss_mb": harness_rss_mb,
            "items_per_s_whole": float(op_items.sum() / fastest.whole.sum()),
        }
        if wl.name == "solve-mix":
            latency_us = op_s * 1e6
            values["solve.p50_us"] = float(np.percentile(latency_us, 50))
            values["solve.p99_us"] = float(np.percentile(latency_us, 99))
            values["solve.latency_samples"] = int(latency_us.size)
        notes = []
        if args.trace:
            values.update(traced_metrics(*traced[1:], args.workload))
            values["trace_overhead_frac"] = float(np.median(trace_ratio)) - 1.0
            values.update(micro.run(sp, args.seed))
            for name, why in ABSENT.items():
                if name not in values:
                    values[name] = 0
                    notes.append(f"{name} = 0 on {args.workload}: {why}")
        values["fail_frac"] = tally.failed / max(tally.attempted, 1)
        values["check.max_dev_energy"] = tally.max_dev_energy
        values["check.max_dev_state"] = tally.max_dev_state
        values["check.skipped"] = tally.skipped
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_hash": wl.input_hash,
        "passes": n_passes,
        "pass_s": [round(t, 4) for t in pass_s],
        "setup_s": [round(t, 4) for t in setup_s],
        "operations_per_pass": int(op_items.size),
        "items_per_pass": int(op_items.sum()),
        "op_fastest_s": best_by_label,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }
    print("stamp " + json.dumps(stamp))
    for note in notes:
        print("note " + note)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} is listed in BENCHMARK.json but not computed")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    # Figures the run has that its metric list leaves out, for the reader.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(RUN_INFO)
    for name in sorted(units.keys() & values.keys() - metrics.keys()):
        print(f"info {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def traced_pass(sp, wl, tally) -> tuple:
    """One traced pass, checked like the others: (seconds, tracer, result)."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("bench.pass"):
            result = wl.run_pass(sp)
    finally:
        tracer.uninstall()
    with np.errstate(all="ignore"):
        tally.merge(wl.check(result))
    result.outputs = None
    return result.seconds, tracer, result


def traced_metrics(tracer, result, workload: str) -> dict:
    """Per-layer calls and self time, per-item counts and outcomes of one traced pass."""
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload}.npz")

    out = {}
    for layer, (calls, self_s) in tracer.by_layer().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    by_name = tracer.by_name()
    for name in PER_ITEM:
        out[f"{name}.per_item"] = by_name.get(name, (0, 0.0))[0] / result.items

    out.update(result.counts)
    return out


if __name__ == "__main__":
    sys.exit(main())
