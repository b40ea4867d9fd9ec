"""Per-layer tracing from outside the package: wrappers around the public
functions of each ``qsqg`` module and around the 2-D FFT entry points of
``numpy.fft`` and ``scipy.fft``, feeding an in-memory span recorder.

A span is (name, start, end, parent).  Spans stay in memory while the pass
runs and are written out by ``Recorder.dump`` afterwards.  A span's self
time is its duration minus the durations of its child spans and of the
speed probes (``speed.py``) that ran inside it but in no child; spans nest
strictly because the pass is single-threaded.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer -> public functions whose calls are spans.  The module name is the
# layer name, and the span name is "<layer>.<function>".
LAYER_FUNCTIONS = {
    "corpus": ("band_limited_corpus",),
    "operators": ("riesz_transform",),
    "sweep": ("box_sums",),
    "norms": ("q_norm_semigroup", "caloric_minus1_norm", "x_norm"),
    "solver": ("picard_solve", "duhamel_bilinear", "nonlinear_density",
               "reference_solve", "linear_flow"),
    "fields": ("write_field", "read_field"),
    "experiments": ("persist",),
}
# The 2-D transform entry points counted by the "fft" layer, in both the
# numpy.fft and the scipy.fft namespaces.
FFT_ENTRY_POINTS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
ROOT_SPAN = "experiments.driver"

_clock = time.perf_counter


def fft_planes(a: np.ndarray, args: tuple, kwargs: dict, default_axes) -> int:
    """Number of 2-D slices a call transforms: the array size over the
    extent of its last two transformed axes, so a batched call over k
    slices counts k however the batch is laid out."""
    axes = args[2] if len(args) > 2 else kwargs.get("axes", default_axes)
    if axes is None:
        s = args[1] if len(args) > 1 else kwargs.get("s")
        axes = range(-len(s), 0) if s is not None else range(a.ndim)
    plane = math.prod([a.shape[ax] for ax in axes][-2:])
    return a.size // plane if plane else 0


class Recorder:
    """Span store plus the patches that route calls through it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []      # [span index, child seconds]
        self._self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.probes = np.empty((0, 2))

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        t = _clock()
        self.end[idx] = t
        top, child = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        dur = t - self.start[idx]
        self._self_s[self.name_id[idx]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def discount_probes(self, intervals: list[tuple[float, float]]) -> None:
        """Charge each (start, end) interval of the speed probe to itself
        rather than to the innermost span it ran in.  A probe runs between
        bytecodes, so it lies wholly inside or wholly outside every span."""
        starts = np.frombuffer(self.start, dtype=np.float64)
        for p0, p1 in intervals:
            k = int(np.searchsorted(starts, p0, side="right")) - 1
            while k >= 0 and self.end[k] < p1:
                k = self.parent[k]
            if k >= 0:
                self._self_s[self.name_id[k]] -= p1 - p0
        self.probes = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
        self.count("trace.probe_s", float(np.sum(self.probes[:, 1] - self.probes[:, 0])))

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, result)``
        runs once the span has closed, to add counters."""
        self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, wrapper, namespaces) -> None:
        """Replace every binding of ``original`` in ``namespaces``."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        """Patch every binding site: the defining module, each ``qsqg``
        module that imported the name, and the package namespace."""
        import scipy.fft

        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qsqg" or n.startswith("qsqg."))]
        counters = {
            "fields.write_field": self._count_written,
            "fields.read_field": self._count_read,
            "experiments.persist": self._count_persisted,
            "solver.picard_solve": self._count_picard,
        }
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"qsqg.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(module, fname)
                self._rebind(original, self.wrap(name, original, counters.get(name)), package)
        for fft_module in (np.fft, scipy.fft):
            for fname in FFT_ENTRY_POINTS:
                original = getattr(fft_module, fname, None)
                if original is None:
                    continue
                default_axes = (-2, -1) if fname.endswith("2") else None
                self._rebind(original, self.wrap("fft", original, self._fft_counter(default_axes)),
                             [fft_module] + package)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- counters ------------------------------------------------------------

    def _fft_counter(self, default_axes):
        def after(args, kwargs, result):
            a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
            self.count("fft.transforms", fft_planes(a, args, kwargs, default_axes))
            self.count("fft.bytes_computed", a.nbytes + np.asarray(result).nbytes)
        return after

    def _count_written(self, args, kwargs, result):
        self.count("fields.write_field.bytes", Path(args[1]).stat().st_size)

    def _count_read(self, args, kwargs, result):
        self.count("fields.read_field.bytes", Path(args[0]).stat().st_size)

    def _count_persisted(self, args, kwargs, result):
        size = sum(p.stat().st_size for p in Path(result).rglob("*") if p.is_file())
        self.count("experiments.persist.bytes", size)

    def _count_picard(self, args, kwargs, result):
        self.count("solver.picard.iterations", result[1].iterations)
        self.count("solver.picard.converged", int(result[1].converged))

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid))

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return self._self_s[nid] if nid is not None else 0.0

    def dump(self, path: Path) -> None:
        """Write every span (name, start, end, parent index) and every
        probe interval to an .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            probes=self.probes,
        )
