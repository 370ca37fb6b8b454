"""Per-call microbenchmarks of the package layers, plus numpy hardware references.

Inputs are one coefficient set per kind, fixed by the seed.  Each figure is
the median over repeats of a batch's mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import inputs
from reference import compose

BATCH_SECONDS = 0.02
REPEATS = 7
EIGH_STACK = 10_000


def per_call_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    n = max(1, int(BATCH_SECONDS / max(once, 1e-7)))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def run(sp, seed: int) -> dict[str, float]:
    rng = inputs.rng_for(seed, "micro")
    kinds = ("general", "dyadic", "canonical", "rotated", "diag-zero")
    coefs = {k: inputs.coefficient_set(rng, k) for k in kinds}
    sets = {
        k: sp.CoefficientSet(c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:]) for k, c in coefs.items()
    }
    general, canonical = sets["general"], sets["canonical"]
    cases = {
        "micro.fano_compose_us": lambda: sp.fano_compose(general),
        "micro.derive_us": lambda: sp.derive(general),
        "micro.classify_us": lambda: sp.classify(general),
        "micro.solve_dyadic_us": lambda: sp.solve(sets["dyadic"]),
        "micro.solve_entangled_us": lambda: sp.solve(canonical),
        "micro.solve_rotated_us": lambda: sp.solve(sets["rotated"]),
        "micro.solve_diagonal_us": lambda: sp.solve(sets["diag-zero"]),
        "micro.solve_general_us": lambda: sp.solve(general),
        "micro.concurrence_closed_form_us": lambda: sp.eigenstate_concurrence_closed_form(
            canonical, 2, 2
        ),
        "micro.thermal_concurrence_us": lambda: sp.thermal_concurrence(canonical, 1.0),
        "micro.thermal_report_us": lambda: sp.thermal_report(canonical, 1.0),
    }
    out = {name: per_call_us(fn) for name, fn in cases.items()}

    h = compose(coefs["general"])
    out["micro.eigvalsh_us"] = per_call_us(lambda: np.linalg.eigvalsh(h))
    stack = compose(rng.normal(size=(EIGH_STACK, 4, 4)))
    out["micro.eigh_batched_us"] = per_call_us(lambda: np.linalg.eigh(stack)) / EIGH_STACK
    return out
