"""Shared plumbing: error types, resource caps, RNG streams, deterministic parallelism."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

THREADS_ENV = "QENSEMBLES_THREADS"


class QEnsemblesError(Exception):
    """Base class for all package errors."""


class CapacityError(QEnsemblesError):
    """A configured work or memory cap would be exceeded.

    Caps are never silently truncated; the offending cap is named in the message.
    """

    def __init__(self, cap_name: str, needed, cap):
        super().__init__(f"cap '{cap_name}' exceeded: needed {needed}, cap {cap}")
        self.cap_name = cap_name
        self.needed = needed
        self.cap = cap


class InvalidModelError(QEnsemblesError):
    """Malformed Hamiltonian/model specification."""


class InvalidMatrixError(QEnsemblesError):
    """Matrix input violates a structural requirement (e.g. not Hermitian)."""


class NumericalFailureError(QEnsemblesError):
    """A numerical routine failed to converge; details carried in the message."""


class DegenerateWeightError(QEnsemblesError):
    """A weight required to be positive vanished."""


class FitError(QEnsemblesError):
    """A least-squares fit failed; residual diagnostics in the message."""


@dataclass(frozen=True)
class Caps:
    """Resource caps for dense operations.

    All ops check the relevant cap before allocating and raise CapacityError
    when exceeded. `max_moment_entries` bounds k-copy operators: D^2 entries
    for a moment, stored on the symmetric subspace with D = C(d+k-1, k), and
    (d^k)^2 for a full-space operator (`MomentOperator.dense()`, `twirl2`);
    `max_multiset_terms` bounds exact multiset enumerations; `max_sinc_terms`
    bounds the finite-interval double sums.
    """

    max_spectrum_dim: int = 2**14          # full diagonalization
    max_state_dim: int = 2**22             # state-only vectors
    max_moment_entries: int = 2**26        # k-copy moment entries
    max_multiset_terms: int = 2_500_000    # multiset sums (random-phase moments)
    max_sinc_terms: int = 40_000_000       # finite-interval double multiset sums
    max_resonance_sums: int = 2_000_000    # k-multiset sums in resonance checks

    def with_overrides(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()


def check_cap(caps: Caps, name: str, needed) -> None:
    cap = getattr(caps, name)
    if needed > cap:
        raise CapacityError(name, needed, cap)


def thread_count() -> int:
    """Task-level worker count, from QENSEMBLES_THREADS (default 1)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


def task_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based per-task RNG stream.

    Streams are keyed by (master seed, stream indices) so any parallel
    schedule reproduces identical data.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def _tree_reduce(parts: list, combine: Callable):
    """Fixed-shape pairwise reduction; order independent of worker schedule."""
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(combine(parts[i], parts[i + 1]))
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def parallel_block_reduce(
    items: Sequence,
    block_size: int,
    block_fn: Callable,
    combine: Callable,
    workers: int | None = None,
):
    """Map fixed blocks of `items` through `block_fn` and tree-reduce the results.

    The block decomposition and the reduction tree depend only on
    (len(items), block_size), never on the worker count, so results are
    bit-reproducible for any thread setting.
    """
    blocks = [items[i : i + block_size] for i in range(0, len(items), block_size)]
    if not blocks:
        raise ValueError("empty input")
    workers = thread_count() if workers is None else workers
    if workers <= 1 or len(blocks) == 1:
        parts = [block_fn(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(block_fn, blocks))
    return _tree_reduce(parts, combine)
