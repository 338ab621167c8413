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
    for a moment, stored on the symmetric subspace with D = C(d+k-1, k), and
    (d^k)^2 for a full-space operator (`MomentOperator.dense()`, `twirl2`),
    and the pairwise tables of `rmt.gap_histograms` (d^2 gaps, d^4 sum-gaps);
    `max_multiset_terms` bounds exact multiset enumerations; `max_sinc_terms`
    bounds the finite-interval double sums.
    """

    max_spectrum_dim: int = 2**14          # full diagonalization
    max_state_dim: int = 2**22             # state-only vectors
    max_moment_entries: int = 2**26        # k-copy moment entries
    max_multiset_terms: int = 2_500_000    # multiset sums (random-phase moments)
    max_sinc_terms: int = 40_000_000       # finite-interval double multiset sums
    max_resonance_sums: int = 2_000_000    # k-multiset sums in resonance checks


DEFAULT_CAPS = Caps()


def check_cap(caps: Caps, name: str, needed) -> None:
    cap = getattr(caps, name)
    if needed > cap:
        raise CapacityError(name, needed, cap)


def task_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based per-task RNG stream.

    Streams are keyed by (master seed, stream indices) so any execution
    order reproduces identical data.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))

