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


@dataclass(frozen=True)
class Caps:
    """Resource caps for dense operations.

    All ops check the relevant cap before allocating and raise CapacityError
    when exceeded. `max_moment_entries` bounds k-copy operators: D^2 entries
    for a moment, stored on the symmetric subspace with D = C(d+k-1, k),
    checked when its D x D `matrix` is built (for the ensemble form of
    `moment_k` and the scalar form of `haar_moment`, on the first read of
    `.matrix`); and r^2 for the Gram matrix of r ensemble members that
    `trace_distance` diagonalizes in place of the moment.
    `max_state_dim` bounds state vectors and the row table of every chain
    Hamiltonian build, one entry per row built and flip mask (2^n rows for
    the dense matrix, 2^w for a window, the m reflection-even rows for the
    sparse matrix), doubled for the realified form of a real one; for mfim
    the default admits the sparse matrix up to n = 17.
    `max_multiset_terms` bounds exact multiset enumerations: the random-phase
    moment and the Frobenius kernel's sorted sums; `max_sinc_terms` bounds
    the finite-interval double sums.
    """

    max_spectrum_dim: int = 2**14          # eigensolves: dense or tridiagonal
    max_state_dim: int = 2**22             # state vectors, chain row-table entries
    max_moment_entries: int = 2**26        # k-copy moment entries
    max_multiset_terms: int = 2_500_000    # multiset sums (moments, Frobenius kernel)
    max_sinc_terms: int = 40_000_000       # finite-interval double multiset sums


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

