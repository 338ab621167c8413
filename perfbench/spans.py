"""Per-layer spans recorded from outside the package.

`install` wraps every public function of the package's layer modules except
the elementwise kernels in INLINE, and the methods of
`pipelines.SpectrumCache`, then rebinds every module attribute that held the
original function. Modules import each other's functions by name
(`from .hilbert import apply_local_rotations`), so wrapping only the defining
module would silently miss those calls.

A span's self time is its duration minus the time of its direct child spans.
Counts are computed from the arguments and results of the wrapped calls:
they are work as the inputs define it, not hardware counters. With
`memory=True` the recorder also runs tracemalloc inside the spans of
PEAK_LAYERS only (mpmath allocates so many small objects that tracing
everywhere distorts the run) and checks eigensolver accuracy after each
diagonalization; its times are then not reported.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import qensembles
from qensembles import ensembles, hilbert, pipelines, rmt, scrooge, spectral, stats

MODULES = (hilbert, spectral, ensembles, scrooge, stats, rmt, pipelines)
PEAK_LAYERS = frozenset(
    {"spectral.diagonalize", "stats.trace_distance", "ensembles.moment_k", "ensembles.haar_moment"}
)
# Elementwise kernels whose time belongs to their caller's layer.
INLINE = frozenset({"ensembles.stable_sinc"})
RESIDUAL_COLUMNS = 16


class Recorder:
    """Collects span times and per-layer counts while `active` is true."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.active = False
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, set()]  # child time, child names
            self._stack.append(frame)
            traced = self.memory and name in PEAK_LAYERS and not tracemalloc.is_tracing()
            if traced:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.keep_max(f"{name}.peak_mb", peak / 2**20)
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                    self._stack[-1][1].add(name)
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, out, frame[1])
            return out

        wrapper.perfbench_span = name
        return wrapper

    def add(self, metric: str, value: float) -> None:
        self.sums[metric] += value

    def keep_max(self, metric: str, value: float) -> None:
        self.maxima[metric] = max(self.maxima[metric], float(value))

    def headroom(self, caps, cap: str, needed: int) -> None:
        self.keep_max(f"caps.{cap}.headroom", needed / getattr(caps, cap))

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<stat>` metrics of every layer that was called."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.sums)
        out.update(self.maxima)
        return out


# ---------------------------------------------------------------------------
# counts computed from each layer's inputs and outputs
# ---------------------------------------------------------------------------


def _scrooge_moment(rec, a, out, children):
    d, k = np.shape(getattr(a["rho"], "entries", a["rho"]))[0], a["k"]
    rec.add("scrooge.scrooge_moment.multisets", math.comb(d + k - 1, k))
    if k > 1:
        rec.headroom(a["caps"], "max_moment_entries", (d**k) ** 2)


def _generalized(rec, a, out, children):
    rec.headroom(a["caps"], "max_moment_entries", (a["table"].d_a ** a["k"]) ** 2)


def _diagonalize(rec, a, out, children):
    h = a["h"]
    rec.keep_max("spectral.diagonalize.dim", h.dim)
    rec.headroom(a["caps"], "max_spectrum_dim", h.dim)
    if rec.memory:
        cols = np.unique(np.linspace(0, h.dim - 1, RESIDUAL_COLUMNS).astype(int))
        v = out.eigenvectors[:, cols]
        resid = np.abs(h.entries @ v - v * out.eigenvalues[cols]).max()
        orth = np.abs(v.conj().T @ v - np.eye(cols.size)).max()
        rec.keep_max("spectral.diagonalize.residual_max", resid)
        rec.keep_max("spectral.diagonalize.orth_defect", orth)


def _build_hamiltonian(rec, a, out, children):
    rec.headroom(a["caps"], "max_moment_entries", out.dim**2)


def _apply_local_rotations(rec, a, out, children):
    rows, d = np.shape(a["m"])
    k = len(a["unitaries"])
    # one read and one write of a complex128 (rows, 2^k) array per qubit pass
    rec.add("hilbert.apply_local_rotations.bytes_computed", 2 * 16 * rows * d * k)


def _trace_distance(rec, a, out, children):
    rec.keep_max("stats.trace_distance.dim", a["m1"].space_dim ** a["m1"].k)


def _moment_k(rec, a, out, children):
    entries = (a["ens"].dim ** a["k"]) ** 2
    rec.add("ensembles.moment_k.entries", entries)
    rec.headroom(a["caps"], "max_moment_entries", entries)


def _haar_moment(rec, a, out, children):
    rec.headroom(a["caps"], "max_moment_entries", (a["d"] ** a["k"]) ** 2)


def _frobenius(rec, a, out, children):
    ms = math.comb(a["sd"].dim + a["k"] - 1, a["k"])
    rec.add("ensembles.finite_time_frobenius_distances.sinc_terms", ms**2 * len(a["taus"]))
    rec.headroom(a["caps"], "max_sinc_terms", ms**2)


def _conditional_states(rec, a, out, children):
    rec.add("scrooge.conditional_states.dropped_outcomes", out.dropped_outcomes)


def _projected_ensemble(rec, a, out, children):
    rec.add("ensembles.projected_ensemble.dropped_members", out.dropped_members)


def _spectrum(rec, a, out, children):
    miss = "spectral.diagonalize" in children
    rec.add("pipelines.SpectrumCache.misses" if miss else "pipelines.SpectrumCache.hits", 1)


_OBSERVERS = {
    "scrooge.scrooge_moment": _scrooge_moment,
    "scrooge.generalized_scrooge_moment": _generalized,
    "spectral.diagonalize": _diagonalize,
    "hilbert.build_hamiltonian": _build_hamiltonian,
    "hilbert.apply_local_rotations": _apply_local_rotations,
    "stats.trace_distance": _trace_distance,
    "ensembles.moment_k": _moment_k,
    "ensembles.haar_moment": _haar_moment,
    "ensembles.finite_time_frobenius_distances": _frobenius,
    "scrooge.conditional_states": _conditional_states,
    "ensembles.projected_ensemble": _projected_ensemble,
    "pipelines.SpectrumCache.spectrum": _spectrum,
}


def install(recorder: Recorder):
    """Wrap the layers and rebind every alias; returns a function that undoes it."""
    wrappers = {}
    for module in MODULES:
        for attr, obj in vars(module).items():
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            public = not attr.startswith("_") and name not in INLINE
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and public:
                wrappers[obj] = recorder.wrap(name, obj)
    undo = []
    for module in MODULES + (qensembles,):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                undo.append((module, attr, obj))
    cache = pipelines.SpectrumCache
    for attr in ("spectrum", "bound"):
        original = vars(cache)[attr]
        setattr(cache, attr, recorder.wrap(f"pipelines.SpectrumCache.{attr}", original))
        undo.append((cache, attr, original))

    def restore():
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    return restore
