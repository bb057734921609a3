"""In-memory span tracer that instruments chancap from outside the package.

A traced pass wraps every public function and class constructor of the layer
modules, plus the numpy kernels the package spends its time in.  Each call
records one span: name, start, end, parent span and operation id.  Spans live
in typed arrays while the pass runs and are summarised (and optionally saved)
after it ends, so the pass itself only pays for the appends.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("qmath", "channels", "capacity", "wiretap", "verify", "cli", "output")

# numpy entry points the package calls through attribute lookup at call time;
# each span also records how many matrices the call decomposed.
EIG_KERNELS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "svd"))
EINSUM_KERNEL = ("numpy", "einsum")

# output writers whose returned text counts as bytes produced by the output layer
_TEXT_WRITERS = ("output.sweep_csv", "output.sweep_json", "output.seq_csv", "output.seq_json",
                 "output.simulate_csv", "output.simulate_json", "output.gnuplot_script")


def _matrix_count(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


class Tracer:
    """Records spans for wrapped callables; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array.array("i")
        self._parent = array.array("i")
        self._depth = array.array("i")
        self._op = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._matrices = array.array("q")
        self._raised = array.array("b")
        self._stack = [-1]
        self.current_op = -1
        self.bytes_out = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def next_op(self) -> int:
        """Start a new operation: spans opened from now on carry its id."""
        self.current_op += 1
        return self.current_op

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, kernel: bool = False):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._name_id(name)
        stack, perf = self._stack, time.perf_counter
        cols = (self._name, self._parent, self._depth, self._op, self._matrices, self._raised,
                self._end)
        names, parents, depths, ops, matrices, raised, ends = cols
        starts = self._start
        counts_text = name in _TEXT_WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            depths.append(len(stack) - 1)
            ops.append(self.current_op)
            matrices.append(_matrix_count(args[0]) if kernel and args else 0)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if counts_text and isinstance(out, str):
                self.bytes_out += len(out.encode("utf-8"))
            return out

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` (for operation roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "chancap") -> None:
        """Wrap the public callables of every layer module and the numpy kernels.

        A function imported by name into another module (``capacity`` imports
        ``channel_N``, ``channels`` imports ``von_neumann_entropy``) is one
        object bound to several module attributes; every binding is patched.
        Class constructors are wrapped on the class, which covers every
        reference to it.
        """
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    self._patch(obj, "__init__", self.wrap(f"{layer}.{attr}", obj.__init__))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        for modname, attr in EIG_KERNELS + (EINSUM_KERNEL,):
            mod = sys.modules[modname]
            self._patch(mod, attr, self.wrap(f"{modname}.{attr}", getattr(mod, attr), kernel=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "depth": np.frombuffer(self._depth, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "matrices": np.frombuffer(self._matrices, dtype=np.int64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span as columns of an .npz file; ``names`` maps name ids."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self, pass_s: float) -> dict:
        """Per-name calls, inclusive and self time, and kernel counts.

        Self time is a span's duration minus the durations of its direct
        children; children never outlive their parent, so that is the part
        of the interval the children cover.
        """
        c = self.columns()
        n, k = c["name"].size, len(self.names)
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        kernel_ids = {self._ids[f"{m}.{a}"] for m, a in EIG_KERNELS if f"{m}.{a}" in self._ids}
        is_eig = np.isin(c["name"], list(kernel_ids))
        # inclusive count of eig kernel calls below each span, folded leaf-to-root
        eig_below = is_eig.astype(np.int64)
        for d in range(int(c["depth"].max(initial=0)), 0, -1):
            at = c["depth"] == d
            np.add.at(eig_below, c["parent"][at], eig_below[at])
        calls = np.bincount(c["name"], minlength=k)
        total = np.bincount(c["name"], weights=dur, minlength=k)
        self_sum = np.bincount(c["name"], weights=self_t, minlength=k)
        eig_sum = np.bincount(c["name"], weights=eig_below, minlength=k)
        mats = np.bincount(c["name"], weights=c["matrices"], minlength=k)
        returned = c["raised"] == 0
        functions = {}
        for i, name in enumerate(self.names):
            if calls[i] == 0:
                continue
            per_call = np.unique(eig_below[(c["name"] == i) & returned], return_counts=True)
            functions[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_sum[i]),
                "us_per_call": float(total[i] / calls[i] * 1e6),
                "eig_calls": int(eig_sum[i]),
                "matrices": int(mats[i]),
                # eig kernel count per call -> number of returned calls with that count
                "eig_per_call": {str(e): int(n) for e, n in zip(*per_call)},
            }
        return {
            "spans": int(n),
            "pass_s": pass_s,
            "covered_s": float(dur[~has_parent].sum()),
            "bytes_out": self.bytes_out,
            "functions": functions,
        }
