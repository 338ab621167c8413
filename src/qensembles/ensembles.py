"""Ensemble construction and k-copy moment machinery.

Weighted ensembles of pure states as one d x r array of columns with r weights
(a projected ensemble is one slice of the projection table), and their k-th
moments stored on the symmetric subspace Sym^k(C^d) (see `MomentOperator`),
where psi^(x)k has monomial coordinates: ensemble moments are blocked Gram
products of monomial panels, the Haar moment is I/D, the exact random-phase
(infinite-interval) moment is diagonal, the finite-interval moment is an outer
product times the sinc kernel, and product forms are symmetric powers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, DegenerateWeightError, check_cap, hermiticity_defect
from .hilbert import (
    Bipartition,
    HermitianOperator,
    MeasurementBasis,
    PureState,
    projection_table,
)
from .spectral import SpectralData, SpectralMeasure

# Outcomes of smaller probability are dropped from projected ensembles and tables.
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
    """Pure states as the d x r columns of `states`, with their r `weights`.

    normalized convention: columns are unit vectors and weights sum to one.
    unnormalized convention: weights are uniform 1/r; the measure is carried
    by the column norms. Both arrays are stored as read-only views.
    """

    states: np.ndarray
    weights: np.ndarray
    convention: str = "normalized"
    dropped_members: int = 0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex).view()
        ws = np.asarray(self.weights, dtype=float).view()
        if states.ndim != 2 or ws.shape != (states.shape[1],):
            raise ValueError(f"need one weight per column of a 2-D state array, got {ws.shape}")
        if not ws.size:
            raise ValueError("ensemble needs at least one member")
        # each test is written so that a NaN fails it
        if not np.all(np.isfinite(ws) & (ws >= 0)):
            raise ValueError("weights must be finite and nonnegative")
        if self.convention == "normalized":
            total = float(ws.sum())
            if not abs(total - 1.0) <= 1e-10:
                raise ValueError(f"normalized ensemble weights sum to {total}")
            if not np.all(np.abs(np.linalg.norm(states, axis=0) - 1.0) <= 1e-10):
                raise ValueError("normalized ensemble contains a non-unit state")
        elif self.convention == "unnormalized":
            if not np.abs(ws - 1.0 / ws.size).max() <= 1e-12:
                raise ValueError("unnormalized ensemble weights must be uniform")
        else:
            raise ValueError(f"unknown convention {self.convention!r}")
        states.flags.writeable = ws.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.states.shape[0]


class MomentOperator:
    """Hermitian k-copy moment, stored on the symmetric subspace Sym^k(C^d).

    `matrix` is D x D, D = C(d+k-1, k), in the orthonormal occupation basis
    |n> = N_n^(-1/2) sum_t |t> over the N_n = k!/prod_m n_m! orderings t of the
    multiset n, rows in `multisets(d, k)` order. Its embedding V into
    (C^d)^(x)k is an isometry: trace, spectrum and unitarily invariant norms
    are those of the full operator V matrix V^dagger that `dense()` returns.

    A moment has one of three forms:
      * dense: `MomentOperator(k, d, matrix, convention)` checks the shape and
        Hermiticity of `matrix` and keeps it;
      * ensemble (`moment_k`, `weighted_projected_moment`): `columns` holds
        the d x r member vectors c_j and `weights` their w_j, both read-only,
        for sum_j w_j |c_j><c_j|^(x)k;
      * scalar (`haar_moment`): `scalar` holds c, for c * I.
    The unused attributes are None. A structured form builds its dense
    `matrix` on the first read, once, after checking D^2 against the
    `max_moment_entries` of the caps it was made with; `stats.trace_distance`
    reads the structure and may never build it.
    """

    k: int
    space_dim: int
    convention: str  # "normalized" | "unnormalized" | "weighted-projected"
    columns: np.ndarray | None = None
    weights: np.ndarray | None = None
    scalar: float | None = None
    caps: Caps  # structured forms only

    def __init__(self, k: int, space_dim: int, matrix, convention: str):
        self.k, self.space_dim, self.convention = k, space_dim, convention
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError("moment matrix has the wrong shape")
        herm = hermiticity_defect(m)
        if not herm <= 1e-9 * max(1.0, float(np.abs(np.trace(m)))):  # NaN fails this test
            raise ValueError(f"moment deviates from Hermitian by {herm:.3e}")
        self.matrix = m

    @classmethod
    def _structured(
        cls, k, space_dim, convention, caps, columns=None, weights=None, scalar=None
    ) -> "MomentOperator":
        """An ensemble (`columns`, `weights`) or scalar (`scalar`) moment."""
        self = cls.__new__(cls)
        self.k, self.space_dim, self.convention, self.caps = k, space_dim, convention, caps
        self.columns, self.weights, self.scalar = columns, weights, scalar
        return self

    @property
    def dim(self) -> int:
        """D = C(d+k-1, k), the dimension of Sym^k(C^d)."""
        return comb(self.space_dim + self.k - 1, self.k)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The D x D moment; the dense form sets it, the structured forms build it here."""
        if self.scalar is None:
            return _moment_from_columns(self.columns, self.weights, self.k, self.caps)
        check_cap(self.caps, "max_moment_entries", self.dim**2)
        return np.eye(self.dim, dtype=complex) * self.scalar

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
        "hermiticity": hermiticity_defect(m.matrix),
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
    permanent over the sorted index tuples t' and t; A may be rectangular, and
    a stack of matrices (..., rows, cols) gives the stack of their powers.
    """
    rows, row_counts = _occupation_basis(a.shape[-2], k)
    cols, col_counts = _occupation_basis(a.shape[-1], k)
    out = 0
    for sigma in permutations(range(k)):
        term = 1
        for i, j in enumerate(sigma):
            term = term * a[..., rows[:, i, None], cols[None, :, j]]
        out = out + term
    return out * np.sqrt(np.outer(row_counts, col_counts)) / math.factorial(k)


# ---------------------------------------------------------------------------
# moment accumulation
# ---------------------------------------------------------------------------


def _moment_from_columns(
    columns: np.ndarray, weights: np.ndarray, k: int, caps: Caps
) -> np.ndarray:
    """sum_j w_j |col_j><col_j|^(x)k via blocked panel Grams.

    col^(x)k has coordinates sqrt(N_n) prod_i col[t_i] over the sorted tuples t;
    each panel of columns gets all its coordinates from one gather and product.
    """
    d, n = columns.shape
    check_cap(caps, "max_moment_entries", comb(d + k - 1, k) ** 2)
    idx, counts = _occupation_basis(d, k)
    scale = np.sqrt(counts)[:, None]
    sqrt_w = np.sqrt(weights)
    columns = np.asarray(columns, dtype=complex)

    acc = np.zeros((counts.size, counts.size), dtype=complex)
    for start in range(0, n, PANEL_WIDTH):
        cols = columns[:, start : start + PANEL_WIDTH]
        panel = cols[idx[:, 0]]
        for i in range(1, k):
            panel = panel * cols[idx[:, i]]
        panel = (sqrt_w[start : start + PANEL_WIDTH] * scale) * panel
        acc += panel @ panel.conj().T
    return (acc + acc.conj().T) / 2


def moment_k(ens: WeightedEnsemble, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """k-th statistical moment sum_j w_j |psi_j><psi_j|^(x)k, in ensemble form.

    Wraps the ensemble's read-only `states` and `weights` without copying.
    The D x D matrix is built by `_moment_from_columns` under `caps` when
    `.matrix` is first read, and `caps` bounds the Gram matrix of
    `stats.trace_distance` too.
    """
    return MomentOperator._structured(
        k, ens.dim, ens.convention, caps, columns=ens.states, weights=ens.weights
    )


def haar_moment(d: int, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Closed-form Haar moment I/D on Sym^k(C^d), D = C(d+k-1, k), in scalar form.

    Keeps c = 1/D; the D x D matrix is built under `caps` when `.matrix` is
    first read.
    """
    return MomentOperator._structured(k, d, "normalized", caps, scalar=1.0 / comb(d + k - 1, k))


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

    One slice of the projection table: the kept columns divided by the
    square roots of their probabilities. Outcomes with probability below
    ZERO_OUTCOME_CUTOFF are dropped and counted in dropped_members.
    """
    table = projection_table(state, part, basis)
    probs = np.sum(np.abs(table) ** 2, axis=0)
    keep = probs >= ZERO_OUTCOME_CUTOFF
    cols = table[:, keep] / np.sqrt(probs[keep])
    return WeightedEnsemble(cols, probs[keep], dropped_members=int(np.sum(~keep)))


def weighted_projected_moment(
    state: PureState,
    part: Bipartition,
    basis: MeasurementBasis,
    p_d: Sequence[float],
    k: int,
    caps: Caps = DEFAULT_CAPS,
) -> MomentOperator:
    """Projected k-th moment with outcome weights 1 / p_d(x)^(k-1), in ensemble form.

    p_d holds the per-outcome time-averaged probabilities; outcomes whose
    instantaneous weight is nonzero but whose p_d vanishes are an error. The
    moment keeps the unnormalized table columns of the outcomes with p_d > 0
    and their weights p_d^(1-k), under the convention "weighted-projected";
    its D x D matrix is built under `caps` when `.matrix` is first read.
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
    cols, weights = table[:, keep], p_d[keep] ** (1 - k)
    cols.flags.writeable = weights.flags.writeable = False
    return MomentOperator._structured(
        k, table.shape[0], "weighted-projected", caps, columns=cols, weights=weights
    )
