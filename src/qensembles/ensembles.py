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
from .spectral import SpectralData, SpectralMeasure

ZERO_OUTCOME_CUTOFF = 1e-14
PANEL_WIDTH = 64
# Pairs per block of the Frobenius kernel, in its direct sum over near pairs and
# in each row block of its far-pair weight matrix: the arrays stay in cache
# (64 KiB each), and OpenBLAS runs the row block's matrix product on one thread.
# Blocks of 32k pairs or more gain no wall time, and the threaded product nearly
# doubles the CPU time on two cores.
SINC_CHUNK = 8192
# Multiset phases per tau block of the Frobenius kernel (2 MiB), so that its peak
# memory does not grow with the number of taus.
PHASE_CHUNK = 1 << 17
# A pair is near when its phase gap at the smallest positive tau is below this:
# far pairs then have 1 - cos(2 g h) >= 1 - cos(0.2), which bounds the
# cancellation of the kernel's product form (see finite_time_frobenius_distances).
NEAR_PHASE = 0.1


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
    kernel = stable_sinc((s[:, None] - s[None, :]) * (_finite_taus(tau) / 2.0))
    m = (w[:, None] * w[None, :].conj()) * kernel
    return MomentOperator(k, d, m, "normalized")


def finite_time_frobenius_distances(
    sd: SpectralData | SpectralMeasure, k: int, taus: Sequence[float], caps: Caps = DEFAULT_CAPS
) -> np.ndarray:
    """Frobenius distance between the finite-interval and infinite-interval moments.

    Both moments have the diagonal |w_n|^2 = v_n = N_n prod_m p_m^n_m, so the
    squared distance is exactly the off-diagonal pair sum
        2 sum_{n<n'} v_n v_n' sinc^2(g h),  g = s_n' - s_n,  h = |tau| / 2,
    with s_n = sum_m n_m E_m, a sum of nonnegative terms with no subtraction.

    With the multisets sorted by s, a pair is near when g h_min < NEAR_PHASE,
    h_min being the smallest positive h: resonant pairs, clustered levels and
    every pair when no tau is positive. Near pairs form a narrow band and are
    summed directly with `stable_sinc`. Every other pair is far and goes through
        sinc^2(g h) = (1 - cos 2gh) / (2 g^2 h^2),  cos 2gh = Re(z_n' conj(z_n)),
    with z_n = exp(2i s_n h), so the far sum at each h is
        (sum W - Re(z^dagger W z)) / (2 h^2),  W_nn' = v_n v_n' / g^2,
    one weight matrix shared by all taus: each row block of W takes one matrix
    product with the phase table of a block of taus, and no transcendental is
    computed per pair. tau = 0 gives kernel 1 for every pair.

    The phases are exact to rounding at any tau: each E_m h = p + e is formed
    exactly (Dekker's two-product), z_m = exp(2ip) exp(2ie), and z_n is the
    product of its levels' z_m, not exp(2i s_n h) of the rounded s_n. An error
    delta of a few eps in cos 2gh moves a far term by delta / (2 (g h)^2) of
    v_n v_n', at most 50 delta since g h >= NEAR_PHASE. The gaps g, in W and in
    the direct sum, carry the rounding of s_n.

    Only the eigenvalues and populations of `sd` are read, so a bound
    `SpectralData` and a `SpectralMeasure` serve equally.
    """
    d = sd.dim
    dim = comb(d + k - 1, k)
    check_cap(caps, "max_multiset_terms", dim)
    check_cap(caps, "max_sinc_terms", dim**2)
    halves = np.abs(_finite_taus(taus)) / 2.0  # the kernel is even in tau
    idx, counts = _occupation_basis(d, k)
    v = counts * np.prod(sd.populations[idx], axis=1)
    s = sd.eigenvalues[idx].sum(axis=1)
    order = np.argsort(s)
    idx, v, s = idx[order], v[order], s[order]
    positive = halves[halves > 0]
    far_gap = NEAR_PHASE / positive.min() if positive.size else np.inf
    # row n pairs with m in (n, first_far[n]) directly and with m >= first_far[n] as far
    first_far = np.searchsorted(s, s + far_gap, side="right")
    sq = _near_pair_sums(s, v, first_far, halves)
    sq += _far_pair_sums(sd.eigenvalues, idx, s, v, first_far, halves)
    return np.sqrt(2.0 * sq)


def _finite_taus(taus) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("interval widths tau must be finite")
    return taus


def _near_pair_sums(s, v, first_far, halves) -> np.ndarray:
    """sum over n < m < first_far[n] of v_n v_m sinc^2((s_m - s_n) h), per h."""
    per_row = first_far - np.arange(1, s.size + 1)
    starts = np.cumsum(per_row) - per_row
    total = int(per_row.sum())
    sq = np.zeros(halves.size)
    for lo in range(0, total, SINC_CHUNK):
        pair = np.arange(lo, min(total, lo + SINC_CHUNK))
        rows = np.searchsorted(starts, pair, side="right") - 1
        cols = rows + 1 + (pair - starts[rows])
        gaps = s[cols] - s[rows]
        weights = v[rows] * v[cols]
        for i, half in enumerate(halves):
            sq[i] += weights @ stable_sinc(gaps * half) ** 2
    return sq


def _far_pair_sums(energies, idx, s, v, first_far, halves) -> np.ndarray:
    """sum over m >= first_far[n] of v_n v_m sinc^2((s_m - s_n) h), per h."""
    dim = s.size
    tail = np.append(np.cumsum(v[::-1])[::-1], 0.0)
    sq = np.full(halves.size, v @ tail[first_far])  # kernel 1 at h = 0
    positive = np.flatnonzero(halves > 0)
    step = max(1, PHASE_CHUNK // dim)
    for t in range(0, positive.size, step):
        cols = positive[t : t + step]
        z = _exact_phases(energies, idx, halves[cols])
        w_sum, re_zwz = 0.0, np.zeros(2 * cols.size)
        lo = 0
        while lo < dim and first_far[lo] < dim:
            c0 = first_far[lo]
            hi = min(dim, lo + max(1, SINC_CHUNK // (dim - c0)))
            far = np.arange(c0, dim) >= first_far[lo:hi, None]
            gaps = s[c0:] - s[lo:hi, None]
            w = np.divide(
                v[lo:hi, None] * v[c0:], gaps * gaps, out=np.zeros(far.shape), where=far
            )
            w_sum += w.sum()
            # Re(conj(z_n) (W z)_n), its real and imaginary products interleaved
            re_zwz += np.einsum("ij,ij->j", z[lo:hi].view(float), w @ z[c0:].view(float))
            lo = hi
        sq[cols] = (w_sum - re_zwz.reshape(-1, 2).sum(axis=1)) / halves[cols] / (2.0 * halves[cols])
    return sq


def _exact_phases(energies, idx, halves) -> np.ndarray:
    """exp(2i s_n h) for each multiset row of idx and each h, exact to rounding."""
    # E 2^64 times h 2^-64 is E h: the scaling keeps the split of h < 1.8e308 finite
    p, e = _two_product(energies[:, None] * 2.0**64, halves[None, :] * 2.0**-64)
    level = np.exp(2j * p) * np.exp(2j * e)
    z = level[idx[:, 0]]
    for j in range(1, idx.shape[1]):
        z *= level[idx[:, j]]
    return z


def _two_product(a, b):
    """p + e == a * b exactly, p = fl(a * b) (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    """a == hi + lo with hi holding the upper 26 bits of the significand."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


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
