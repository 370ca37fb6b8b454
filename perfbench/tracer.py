"""Outside-in wrappers around the package's functions.

The benchmark wraps functions of the layer modules and rebinds each wrapper
in every ``su2pair`` module namespace that holds the function (including
module-level dispatch tables), so calls between modules go through it
without any change to the package.

``Tracer`` wraps every public function of the ten layers.  Each span records
its name, start, end, parent span and operation id; spans stay in compact
in-memory arrays and are written out once, at the end of the run.

``ItemClock`` wraps only the few functions a workload calls once per item
and keeps the duration of each outermost call, so that the untraced passes
can take each item's fastest time over the run (see ``run.Fastest``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "cli",
    "graphene",
    "thermo",
    "solver",
    "hamiltonian",
    "entanglement",
    "oracle",
    "quartic",
    "pauli",
    "serialization",
)


def _package_modules(package: str) -> list:
    return [
        m for n, m in list(sys.modules.items())
        if n == package or n.startswith(package + ".")
    ]


class _Rebinding:
    """Puts wrappers in place of functions throughout a package, and back."""

    def __init__(self):
        self._patches: list[tuple[dict, str, object]] = []

    def _rebind(self, wrappers: dict[int, object], package: str):
        """Replace each function whose id is a key of ``wrappers`` wherever it is bound."""
        for mod in _package_modules(package):
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._patch(namespace, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patch(obj, key, wrappers[id(val)])

    def _patch(self, container: dict, key, value):
        self._patches.append((container, key, container[key]))
        container[key] = value

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()


class ItemClock(_Rebinding):
    """Durations of the outermost calls of named per-item functions.

    ``names`` are ``layer.function`` names; a name the package no longer has
    is skipped, and its items are then timed only as part of the whole
    operation.  A call made while another timed call is open is not timed
    on its own.
    """

    def __init__(self, names, package: str = "su2pair"):
        super().__init__()
        self.names, self.package = tuple(names), package
        self.durations = array("d")
        self._busy = False

    def install(self):
        wrappers = {}
        for name in self.names:
            layer, attr = name.split(".")
            fn = getattr(sys.modules.get(f"{self.package}.{layer}"), attr, None)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = self._wrap(fn)
        self._rebind(wrappers, self.package)

    def _wrap(self, fn):
        clock, sink, state = time.perf_counter, self.durations, self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if state._busy:
                return fn(*args, **kwargs)
            state._busy = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(clock() - t0)
                state._busy = False

        return timed

    def take(self) -> np.ndarray:
        """The durations recorded since the last take, in call order."""
        out = np.array(self.durations, dtype=float)
        del self.durations[:]
        return out


class Tracer(_Rebinding):
    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._root = None
        self._op = -1

    # --- recording -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        parent = self._stack[-1]
        if parent == self._root:
            self._op += 1  # each call made directly by the root starts an operation
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """The benchmark's own span around a pass; each call it makes is one operation."""
        idx = self._open(self._intern(name))
        self._root = idx
        try:
            yield
        finally:
            self._close(idx)
            self._root = None

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # --- installation ------------------------------------------------------------

    def install(self, package: str = "su2pair", layers=LAYERS):
        """Wrap each layer's public functions and rebind them package-wide."""
        wrappers = {}
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        self._rebind(wrappers, package)

    # --- analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - child

    def by_name(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        a = self.arrays()
        self_t = self.self_times()
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        total = np.bincount(a["name_id"], weights=self_t, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def by_layer(self, layers=LAYERS) -> dict[str, tuple[int, float]]:
        out = {layer: (0, 0.0) for layer in layers}
        for name, (calls, self_s) in self.by_name().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                c, s = out[layer]
                out[layer] = (c + calls, s + self_s)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
