"""Ensemble construction and k-copy moment machinery.

Weighted and projected ensembles of pure states, and their k-th moments
stored on the symmetric subspace Sym^k(C^d) (see `MomentOperator`), where
psi^(x)k has monomial coordinates: empirical moments are blocked Gram
products of monomial panels, the Haar moment is I/D, the exact random-phase
(infinite-interval) moment is diagonal, the finite-interval moment is an outer
product times the sinc kernel, and product forms are symmetric powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, DegenerateWeightError, check_cap
from .hilbert import (
    Bipartition,
    HermitianOperator,
    MeasurementBasis,
    PureState,
    n_qubit_dims,
    projection_table,
    tensor_power,
)
from .spectral import SpectralData

ZERO_OUTCOME_CUTOFF = 1e-14
PANEL_WIDTH = 64
# Pairs per block of the Frobenius kernel: its arrays stay in cache (64 KiB each),
# and np.sin, not memory, sets the speed. Blocks of 16k pairs or more gain no wall
# time, and OpenBLAS threads their dot products, which nearly doubles the CPU time.
SINC_CHUNK = 8192


@dataclass(frozen=True)
class WeightedEnsemble:
    """Finite list of (weight, state) pairs.

    normalized convention: states are unit vectors and weights sum to one.
    unnormalized convention: weights are uniform 1/len(members); the measure
    is carried by the state norms.
    """

    members: tuple
    convention: str = "normalized"
    label: str = ""
    dropped_members: int = 0

    def __post_init__(self):
        members = tuple((float(w), s) for w, s in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        ws = np.array([w for w, _ in members])
        if np.any(ws < 0):
            raise ValueError("weights must be nonnegative")
        if self.convention == "normalized":
            total = float(ws.sum())
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"normalized ensemble weights sum to {total}")
            for _, s in members:
                if abs(s.norm() - 1.0) > 1e-10:
                    raise ValueError("normalized ensemble contains a non-unit state")
        elif self.convention == "unnormalized":
            if np.abs(ws - 1.0 / len(members)).max() > 1e-12:
                raise ValueError("unnormalized ensemble weights must be uniform")
        else:
            raise ValueError(f"unknown convention {self.convention!r}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim


@dataclass(frozen=True)
class MomentOperator:
    """Hermitian k-copy moment, stored on the symmetric subspace Sym^k(C^d).

    `matrix` is D x D, D = C(d+k-1, k), in the orthonormal occupation basis
    |n> = N_n^(-1/2) sum_t |t> over the N_n = k!/prod_m n_m! orderings t of the
    multiset n, rows in `multisets(d, k)` order. Its embedding V into
    (C^d)^(x)k is an isometry: trace, spectrum and unitarily invariant norms
    are those of the full operator V matrix V^dagger that `dense()` returns.
    """

    k: int
    space_dim: int
    matrix: np.ndarray
    convention: str  # "normalized" | "unnormalized" | "weighted-projected"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = comb(self.space_dim + self.k - 1, self.k)
        if m.shape != (dim, dim):
            raise ValueError("moment matrix has the wrong shape")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > 1e-9 * max(1.0, float(np.abs(np.trace(m)))):
            raise ValueError(f"moment deviates from Hermitian by {herm:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def dense(self) -> np.ndarray:
        """The d^k x d^k operator V matrix V^dagger on the full k-copy space."""
        d, k = self.space_dim, self.k
        check_cap(DEFAULT_CAPS, "max_moment_entries", (d**k) ** 2)
        idx, counts = _occupation_basis(d, k)
        v = np.zeros((d**k, counts.size))
        for sigma in permutations(range(k)):
            v[_flat_index(idx[:, list(sigma)], d), np.arange(counts.size)] = counts**-0.5
        return v @ self.matrix @ v.T


def moment_defects(m: MomentOperator) -> dict:
    """Measured convention invariants: PSD margin, trace and Hermiticity.

    Copy-permutation symmetry holds by construction on the symmetric subspace.
    """
    eigs = np.linalg.eigvalsh(m.matrix)
    return {
        "min_eigenvalue": float(eigs[0]),
        "trace": m.trace,
        "hermiticity": float(np.abs(m.matrix - m.matrix.conj().T).max()),
    }


# ---------------------------------------------------------------------------
# the occupation basis of the symmetric subspace
# ---------------------------------------------------------------------------


def multisets(d: int, k: int) -> list[tuple[int, ...]]:
    """Non-decreasing index tuples (odometer order)."""
    return list(combinations_with_replacement(range(d), k))


def _occupation_basis(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index tuples of Sym^k(C^d) as a (D, k) array in `multisets` order,
    and the number of distinct orderings N_n = k!/prod_m n_m! of each."""
    idx = np.array(multisets(d, k), dtype=np.int64).reshape(-1, k)
    run = np.ones(len(idx))
    fact = np.ones(len(idx))  # prod_m n_m!, one factor per repeated digit
    for i in range(1, k):
        run = np.where(idx[:, i] == idx[:, i - 1], run + 1, 1.0)
        fact *= run
    return idx, math.factorial(k) / fact


def _flat_index(idx: np.ndarray, d: int) -> np.ndarray:
    """Tensor-power index of each row of copy digits, copy 0 most significant."""
    return idx @ d ** np.arange(idx.shape[1] - 1, -1, -1)


def _symmetric_power(a: np.ndarray, k: int) -> np.ndarray:
    """Sym^k(A): the matrix of A^(x)k between the occupation bases of A's two sides.

    Entry (n', n) is perm(A[t', t]) / sqrt(prod_m n'_m! prod_m n_m!), a k!-term
    permanent over the sorted index tuples t' and t; A may be rectangular.
    """
    rows, row_counts = _occupation_basis(a.shape[0], k)
    cols, col_counts = _occupation_basis(a.shape[1], k)
    out = 0
    for sigma in permutations(range(k)):
        term = 1
        for i, j in enumerate(sigma):
            term = term * a[rows[:, i, None], cols[None, :, j]]
        out = out + term
    return out * np.sqrt(np.outer(row_counts, col_counts)) / math.factorial(k)


# ---------------------------------------------------------------------------
# moment accumulation
# ---------------------------------------------------------------------------


def _moment_from_columns(
    columns: np.ndarray, weights: np.ndarray, k: int, caps: Caps
) -> np.ndarray:
    """sum_j w_j |col_j><col_j|^(x)k via blocked panel Grams.

    col^(x)k has coordinates sqrt(N_n) prod_i col[t_i] over the sorted tuples t.
    """
    d, n = columns.shape
    check_cap(caps, "max_moment_entries", comb(d + k - 1, k) ** 2)
    idx, counts = _occupation_basis(d, k)
    flat = _flat_index(idx, d)
    scale = np.sqrt(counts)
    sqrt_w = np.sqrt(weights)

    acc = np.zeros((flat.size, flat.size), dtype=complex)
    for start in range(0, n, PANEL_WIDTH):
        cols = range(start, min(start + PANEL_WIDTH, n))
        panel = np.empty((flat.size, len(cols)), dtype=complex)
        for out_col, j in enumerate(cols):
            panel[:, out_col] = (sqrt_w[j] * scale) * tensor_power(columns[:, j], k, caps)[flat]
        acc += panel @ panel.conj().T
    return (acc + acc.conj().T) / 2


def moment_k(ens: WeightedEnsemble, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """k-th statistical moment sum_j w_j |psi_j><psi_j|^(x)k."""
    d = ens.dim
    cols = np.stack([s.amplitudes for _, s in ens.members], axis=1)
    w = np.array([w for w, _ in ens.members])
    m = _moment_from_columns(cols, w, k, caps)
    return MomentOperator(k, d, m, ens.convention)


def haar_moment(d: int, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Closed-form Haar moment: the identity on Sym^k(C^d) over its dimension."""
    dim = comb(d + k - 1, k)
    check_cap(caps, "max_moment_entries", dim**2)
    return MomentOperator(k, d, np.eye(dim) / dim, "normalized")


def random_phase_moment_exact(
    populations: Sequence[float], k: int, caps: Caps = DEFAULT_CAPS
) -> MomentOperator:
    """Exact k-th moment of the fixed-magnitude random-phase ensemble.

    Expressed in the basis whose populations are given (the energy eigenbasis
    for temporal ensembles). Phase averaging keeps only pairs of orderings of
    one multiset, so the moment is diagonal in the occupation basis, with
    entry N_n prod_m p_m^n_m.
    """
    p = np.asarray(populations, dtype=float)
    d = p.size
    dim = comb(d + k - 1, k)
    check_cap(caps, "max_multiset_terms", dim)
    check_cap(caps, "max_moment_entries", dim**2)
    idx, counts = _occupation_basis(d, k)
    return MomentOperator(k, d, np.diag(counts * np.prod(p[idx], axis=1)), "normalized")


class ProductFormMoment(NamedTuple):
    moment: MomentOperator
    error_bound: float

    @property
    def vacuous(self) -> bool:
        """Bounds at or above unit trace distance carry no information."""
        return self.error_bound >= 1.0


def product_form_moment(rho_d, k: int, caps: Caps = DEFAULT_CAPS) -> ProductFormMoment:
    """Product approximation k! Sym^k(rho_d), with its trace-norm error bound.

    The bound on the distance to the exact random-phase moment is
    k! * exp(pi sqrt(2k/3)) * tr(rho_d^2); it is vacuous for nearly pure
    rho_d (flagged via .vacuous).
    """
    rho = rho_d.entries if isinstance(rho_d, HermitianOperator) else np.asarray(rho_d, dtype=complex)
    d = rho.shape[0]
    check_cap(caps, "max_moment_entries", comb(d + k - 1, k) ** 2)
    m = math.factorial(k) * _symmetric_power(rho, k)
    m = (m + m.conj().T) / 2
    purity = float(np.trace(rho @ rho).real)
    bound = math.factorial(k) * math.exp(math.pi * math.sqrt(2 * k / 3)) * purity
    return ProductFormMoment(MomentOperator(k, d, m, "unnormalized"), bound)


def product_vs_random_phase_distance_k2(populations: Sequence[float]) -> float:
    """Trace distance between the k=2 product form and the exact random-phase moment.

    Both operators share the multiset sparsity pattern in the populations'
    basis; their difference is sum_E p_E^2 |E,E><E,E|, so the distance is
    computable at any dimension without densifying.
    """
    p = np.asarray(populations, dtype=float)
    return 0.5 * float(np.sum(p**2))


def stable_sinc(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with a series branch below 1e-4 and sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.sin(safe) / safe
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return np.where(small, series, out)


def finite_time_temporal_moment(
    sd: SpectralData, k: int, tau: float, caps: Caps = DEFAULT_CAPS
) -> MomentOperator:
    """k-th moment of the trajectory over a time interval of width tau.

    Expressed in the occupation basis over energy eigenstates: entry (n, n') is
    w_n conj(w_n') sinc((E_n - E_n') tau / 2), with w_n = sqrt(N_n) prod_m c_m^n_m
    and E_n = sum_m n_m E_m.
    tau = 0 reproduces |psi0><psi0|^(x)k exactly; tau -> infinity kills all
    off-shell terms and approaches the random-phase moment.
    """
    if sd.overlaps is None:
        raise ValueError("spectral data must be bound to an initial state")
    d = sd.dim
    check_cap(caps, "max_sinc_terms", comb(d + k - 1, k) ** 2)
    idx, counts = _occupation_basis(d, k)
    w = np.sqrt(counts) * np.prod(sd.overlaps[idx], axis=1)
    s = sd.eigenvalues[idx].sum(axis=1)
    kernel = stable_sinc((s[:, None] - s[None, :]) * (tau / 2.0))
    m = (w[:, None] * w[None, :].conj()) * kernel
    return MomentOperator(k, d, m, "normalized")


def finite_time_frobenius_distances(
    sd: SpectralData, k: int, taus: Sequence[float], caps: Caps = DEFAULT_CAPS
) -> np.ndarray:
    """Frobenius distance between the finite-interval and infinite-interval moments.

    Both moments have the diagonal |w_n|^2 = v_n = N_n prod_m p_m^n_m, so the
    squared distance is exactly the off-diagonal pair sum
        2 sum_{n<n'} v_n v_n' sinc^2((s_n - s_n') tau / 2),  s_n = sum_m n_m E_m,
    a sum of nonnegative terms with no subtraction. It is evaluated over the
    strict upper triangle in row blocks of about SINC_CHUNK pairs, all taus per
    block. Zero arguments (resonant pairs, tau = 0, underflow) give kernel 1.
    """
    if sd.overlaps is None:
        raise ValueError("spectral data must be bound to an initial state")
    d = sd.dim
    dim = comb(d + k - 1, k)
    check_cap(caps, "max_multiset_terms", dim)
    check_cap(caps, "max_sinc_terms", dim**2)
    idx, counts = _occupation_basis(d, k)
    v = counts * np.prod(sd.populations[idx], axis=1)
    s = sd.eigenvalues[idx].sum(axis=1)
    halves = np.abs(np.asarray(taus, dtype=float)) / 2.0  # the kernel is even in tau
    sq = np.zeros(halves.size)
    tiny = np.finfo(float).tiny  # sin(tiny)/tiny == 1: the kernel's value at 0
    lo = 0
    while lo < dim - 1:
        hi = min(dim - 1, lo + max(1, SINC_CHUNK // (dim - 1 - lo)))
        upper = np.arange(lo + 1, dim) > np.arange(lo, hi)[:, None]
        gaps = np.abs(s[lo:hi, None] - s[None, lo + 1 :])[upper]
        weights = (v[lo:hi, None] * v[None, lo + 1 :])[upper]
        y, kern = np.empty_like(gaps), np.empty_like(gaps)
        for i, half in enumerate(halves):
            np.multiply(gaps, half, out=y)
            np.maximum(y, tiny, out=y)
            np.sin(y, out=kern)
            np.divide(kern, y, out=kern)
            np.square(kern, out=kern)
            sq[i] += kern @ weights
        lo = hi
    return np.sqrt(2.0 * sq)


# ---------------------------------------------------------------------------
# projected ensembles
# ---------------------------------------------------------------------------


def projected_ensemble(
    state: PureState, part: Bipartition, basis: MeasurementBasis
) -> WeightedEnsemble:
    """Measure B in a complete basis; outcomes weight the normalized A states.

    Outcomes with probability below 1e-14 are dropped and counted in
    dropped_members.
    """
    table = projection_table(state, part, basis)
    probs = np.sum(np.abs(table) ** 2, axis=0)
    dims_a = n_qubit_dims(len(part.sites_A))
    members = []
    dropped = 0
    for z in range(table.shape[1]):
        if probs[z] < ZERO_OUTCOME_CUTOFF:
            dropped += 1
            continue
        amps = table[:, z] / math.sqrt(probs[z])
        members.append((float(probs[z]), PureState(amps, dims_a, "normalized")))
    return WeightedEnsemble(
        tuple(members), "normalized", label="outcome basis", dropped_members=dropped
    )


def weighted_projected_moment(
    state: PureState,
    part: Bipartition,
    basis: MeasurementBasis,
    p_d: Sequence[float],
    k: int,
    caps: Caps = DEFAULT_CAPS,
) -> MomentOperator:
    """Projected k-th moment with outcome weights 1 / p_d(x)^(k-1).

    p_d holds the per-outcome time-averaged probabilities; outcomes whose
    instantaneous weight is nonzero but whose p_d vanishes are an error.
    """
    table = projection_table(state, part, basis)
    p_d = np.asarray(p_d, dtype=float)
    if p_d.shape != (table.shape[1],):
        raise ValueError("p_d must have one entry per outcome")
    inst = np.sum(np.abs(table) ** 2, axis=0)
    bad = (p_d <= 0) & (inst > ZERO_OUTCOME_CUTOFF)
    if np.any(bad):
        raise DegenerateWeightError(
            f"{int(bad.sum())} outcomes have zero time-averaged probability but "
            "nonzero instantaneous amplitude"
        )
    keep = p_d > 0
    weights = p_d[keep] ** (1 - k)
    m = _moment_from_columns(table[:, keep], weights, k, caps)
    return MomentOperator(k, table.shape[0], m, "weighted-projected")
