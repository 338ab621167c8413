"""Shared plumbing: error types, resource caps, RNG streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    for a moment, stored on the symmetric subspace with D = C(d+k-1, k),
    checked when its D x D `matrix` is built (for the ensemble forms of
    `moment_k` and `weighted_projected_moment` and the scalar form of
    `haar_moment`, on the first read of `.matrix`); r^2 for the Gram matrix of
    r ensemble members that `trace_distance` diagonalizes in place of the moment;
    (d^k)^2 for a full-space operator (`MomentOperator.dense()`, `twirl2`);
    and the pairwise tables of `rmt.gap_histograms` (d^2 gaps, d^4 sum-gaps);
    `max_state_dim` bounds state vectors and the d entries per term that a
    sparse Hamiltonian assembles; `max_multiset_terms` bounds exact multiset
    enumerations; `max_sinc_terms` bounds the finite-interval double sums.
    """

    max_spectrum_dim: int = 2**14          # eigensolves: full or basis-state measure
    max_state_dim: int = 2**22             # state vectors, sparse Hamiltonian entries
    max_moment_entries: int = 2**26        # k-copy moment entries
    max_multiset_terms: int = 2_500_000    # multiset sums (random-phase moments)
    max_sinc_terms: int = 40_000_000       # finite-interval double multiset sums
    max_resonance_sums: int = 2_000_000    # k-multiset sums in resonance checks


DEFAULT_CAPS = Caps()


def check_cap(caps: Caps, name: str, needed) -> None:
    cap = getattr(caps, name)
    if needed > cap:
        raise CapacityError(name, needed, cap)


# Rows per block of `hermiticity_defect`: a 64-row block of a d = 2048 matrix
# (2 MiB) stays in cache.
HERMITICITY_BLOCK = 64


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m^dagger| over a square matrix or a stack (..., d, d) of them; NaN if any is NaN.

    |m_ij - conj(m_ji)| is symmetric in (i, j), so each row block is compared
    with its transpose on and right of the diagonal only, and no full-size
    temporary is formed. The value is exactly that of the full comparison.
    """
    defect = np.float64(0.0)
    for lo in range(0, m.shape[-1], HERMITICITY_BLOCK):
        hi = lo + HERMITICITY_BLOCK
        block = np.abs(m[..., lo:hi, lo:] - np.swapaxes(m[..., lo:, lo:hi], -1, -2).conj())
        defect = np.maximum(defect, block.max())  # np.maximum keeps a NaN
    return float(defect)


def task_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based per-task RNG stream.

    Streams are keyed by (master seed, stream indices) so any execution
    order reproduces identical data.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))

