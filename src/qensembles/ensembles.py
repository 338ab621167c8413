"""Ensemble construction and k-copy moment machinery.

Weighted ensembles of pure states as one d x r array of columns with r weights
(a projected ensemble is one slice of the projection table), and their k-th
moments stored on the symmetric subspace Sym^k(C^d) (see `MomentOperator`),
where psi^(x)k has monomial coordinates: ensemble moments are blocked Gram
products of monomial panels, the Haar moment is I/D, the exact random-phase
(infinite-interval) moment is diagonal, the finite-interval moment is an outer
product times the sinc kernel, and product forms are symmetric powers.

Multisets of energy levels are enumerated and sorted by their sums
(`_sorted_sums`) for the Frobenius kernel of the finite-interval moment alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, check_cap, hermiticity_defect
from .hilbert import Bipartition, MeasurementBasis, PureState, _as_density, projection_table
from .spectral import SpectralData, SpectralMeasure, _finite_times

# Outcomes of smaller probability are dropped from projected ensembles and tables.
ZERO_OUTCOME_CUTOFF = 1e-14
PANEL_WIDTH = 64
# Terms per block of the Frobenius kernel: pair-tau terms of one offset diagonal of its
# near band, pairs of one row block of its far-pair weight matrix. Arrays stay in cache
# (64 KiB each) and OpenBLAS runs the row block's product, with 2T + 1 columns for T
# taus, on one thread: 8,192 x 61 = 499,712 multiply-adds at the default 30 taus, under
# the 2^20 up to which OpenBLAS 0.3.31 keeps a product on one thread. On two cores,
# 32k pairs or more gain no wall time and nearly double the CPU time.
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
    """Pure states as the d x r unit columns of `states`, with their r `weights`
    summing to one. Both arrays are stored as read-only views.
    """

    states: np.ndarray
    weights: np.ndarray
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
        total = float(ws.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"normalized ensemble weights sum to {total}")
        if not np.all(np.abs(np.linalg.norm(states, axis=0) - 1.0) <= 1e-10):
            raise ValueError("normalized ensemble contains a non-unit state")
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
    multiset n, rows in `_occupation_basis(d, k)` order. Its embedding V into
    (C^d)^(x)k is an isometry: trace, spectrum and unitarily invariant norms
    are those of the full operator V matrix V^dagger.

    A moment has one of three forms:
      * dense: `MomentOperator(k, d, matrix)` checks the shape and
        Hermiticity of `matrix` and keeps it;
      * ensemble (`moment_k`): `columns` holds the d x r member vectors c_j
        and `weights` their w_j, both read-only, for sum_j w_j |c_j><c_j|^(x)k;
      * scalar (`haar_moment`): `scalar` holds c, for c * I.
    Every form checks k >= 1 and stores `dim` = D (`_sym_dim`), and its unused
    attributes are None. No label tells a normalized moment (trace 1) from the
    product form k! Sym^k(rho) (`product_form_moment`): its trace does. A
    structured form builds its dense `matrix` on the first read, once, after
    checking D^2 against the `max_moment_entries` of the caps it was made
    with; `stats.trace_distance` reads the structure and may never build it.
    """

    k: int
    space_dim: int
    dim: int
    columns: np.ndarray | None = None
    weights: np.ndarray | None = None
    scalar: float | None = None
    caps: Caps  # structured forms only

    def __init__(self, k: int, space_dim: int, matrix):
        self.k, self.space_dim, self.dim = k, space_dim, _sym_dim(space_dim, k)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError("moment matrix has the wrong shape")
        herm = hermiticity_defect(m)
        if not herm <= 1e-9 * max(1.0, float(np.abs(np.trace(m)))):  # NaN fails this test
            raise ValueError(f"moment deviates from Hermitian by {herm:.3e}")
        self.matrix = m

    @classmethod
    def _structured(cls, k, space_dim, caps, columns=None, weights=None, scalar=None) -> "MomentOperator":
        """An ensemble (`columns`, `weights`) or scalar (`scalar`) moment."""
        self = cls.__new__(cls)
        self.k, self.space_dim, self.dim, self.caps = k, space_dim, _sym_dim(space_dim, k), caps
        self.columns, self.weights, self.scalar = columns, weights, scalar
        return self

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


def _sym_dim(d: int, k: int) -> int:
    """D = C(d+k-1, k), the dimension of Sym^k(C^d), after the one rule on the
    order of every moment and distance kernel: k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.comb(d + k - 1, k)


# ---------------------------------------------------------------------------
# the occupation basis of the symmetric subspace
# ---------------------------------------------------------------------------


def _occupation_basis(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-decreasing index tuples of Sym^k(C^d) as a (D, k) array in odometer
    order (that of `itertools.combinations_with_replacement`), and the number
    of distinct orderings N_n = k!/prod_m n_m! of each.

    The tuples are built one leading digit at a time, without Python tuples:
    in odometer order, the j-tuples that start with digit a are a followed
    by the (j-1)-tuples whose first digit is at least a, which form a suffix
    of the (j-1)-tuples.
    """
    idx = np.zeros((1, 0), dtype=np.int64)  # the one empty tuple
    for _ in range(k):
        start = np.searchsorted(idx[:, 0], np.arange(d)) if idx.shape[1] else np.zeros(d, np.int64)
        per_lead = len(idx) - start
        rows = np.arange(per_lead.sum())
        rows += np.repeat(start - (np.cumsum(per_lead) - per_lead), per_lead)
        nxt = np.empty((rows.size, idx.shape[1] + 1), dtype=np.int64)
        nxt[:, 0] = np.repeat(np.arange(d), per_lead)
        nxt[:, 1:] = idx[rows]
        idx = nxt
    run = np.ones(len(idx))
    fact = np.ones(len(idx))  # prod_m n_m!, one factor per repeated digit
    for i in range(1, k):
        run = np.where(idx[:, i] == idx[:, i - 1], run + 1, 1.0)
        fact *= run
    return idx, math.factorial(k) / fact


def _sorted_sums(levels: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """`_occupation_basis(levels.size, k)` and the level sums s_n = sum_i levels[t_i]
    of its multisets as unevaluated pairs hi + lo, exact to about eps^2 |s_n|
    (Knuth's two-sum over the k levels; lo = 0 at k = 1), in ascending order of hi."""
    idx, counts = _occupation_basis(levels.size, k)
    hi, lo = levels[idx[:, 0]], np.zeros(counts.size)
    for j in range(1, k):
        level, prev = levels[idx[:, j]], hi
        hi = prev + level
        virtual = hi - prev
        lo += (prev - (hi - virtual)) + (level - virtual)  # the rounding error of hi
    order = np.argsort(hi)
    return idx[order], counts[order], hi[order], lo[order]


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
    check_cap(caps, "max_moment_entries", _sym_dim(d, k) ** 2)
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
    return MomentOperator._structured(k, ens.dim, caps, columns=ens.states, weights=ens.weights)


def haar_moment(d: int, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Closed-form Haar moment I/D on Sym^k(C^d), D = C(d+k-1, k), in scalar form.

    Keeps c = 1/D; the D x D matrix is built under `caps` when `.matrix` is
    first read.
    """
    return MomentOperator._structured(k, d, caps, scalar=1.0 / _sym_dim(d, k))


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
    dim = _sym_dim(d, k)
    check_cap(caps, "max_multiset_terms", dim)
    check_cap(caps, "max_moment_entries", dim**2)
    idx, counts = _occupation_basis(d, k)
    return MomentOperator(k, d, np.diag(counts * np.prod(p[idx], axis=1)))


class ProductFormMoment(NamedTuple):
    moment: MomentOperator
    error_bound: float

    @property
    def vacuous(self) -> bool:
        """Bounds at or above unit trace distance carry no information."""
        return self.error_bound >= 1.0


def product_form_moment(rho_d, k: int, caps: Caps = DEFAULT_CAPS) -> ProductFormMoment:
    """Product approximation k! Sym^k(rho_d) of a density matrix rho_d, with its
    trace-norm error bound.

    The moment is not normalized (its trace is 1 + tr(rho_d^2) at k = 2) and
    compares with the exact random-phase moment of the diagonal of rho_d. The
    bound on that distance is k! * exp(pi sqrt(2k/3)) * tr(rho_d^2); it is
    vacuous for nearly pure rho_d (flagged via .vacuous).
    """
    rho = _as_density(rho_d)
    d = rho.shape[0]
    check_cap(caps, "max_moment_entries", _sym_dim(d, k) ** 2)
    m = math.factorial(k) * _symmetric_power(rho, k)
    m = (m + m.conj().T) / 2
    purity = float(np.trace(rho @ rho).real)
    bound = math.factorial(k) * math.exp(math.pi * math.sqrt(2 * k / 3)) * purity
    return ProductFormMoment(MomentOperator(k, d, m), bound)


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
    dim = _sym_dim(d, k)
    check_cap(caps, "max_sinc_terms", dim**2)
    check_cap(caps, "max_moment_entries", dim**2)
    idx, counts = _occupation_basis(d, k)
    w = np.sqrt(counts) * np.prod(sd.overlaps[idx], axis=1)
    s = sd.eigenvalues[idx].sum(axis=1)
    kernel = stable_sinc((s[:, None] - s[None, :]) * (_finite_times(tau) / 2.0))
    m = (w[:, None] * w[None, :].conj()) * kernel
    return MomentOperator(k, d, m)


def _check_frobenius_caps(d: int, k: int, caps: Caps) -> None:
    """The input checks of `finite_time_frobenius_distances` on d levels: k >= 1,
    and the caps on C(d+k-1, k) multiset sums and their square of pairs."""
    dim = _sym_dim(d, k)
    check_cap(caps, "max_multiset_terms", dim)
    check_cap(caps, "max_sinc_terms", dim**2)


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
    every pair when no tau is positive. The near band is summed with
    `stable_sinc`, one offset diagonal n' = n + j at a time. Far pairs use
        sinc^2(g h) = (1 - cos 2gh) / (2 g^2 h^2),  cos 2gh = Re(z_n' conj(z_n)),
    with z_n = exp(2i s_n h), so the far sum at each h is
        (sum W - Re(z^dagger W z)) / (2 h^2),  W_nn' = v_n v_n' / g^2:
    each row block of W takes one matrix product with the phases of a block of
    taus, and no transcendental is computed per pair. tau = 0 gives kernel 1.

    Gaps and far phases are exact to rounding at any tau. Every gap, near or
    far, is (hi_n' - hi_n) + (lo_n' - lo_n) of the two-sums s_n = hi_n + lo_n
    (`_sorted_sums`), so clustered sums keep their gaps. E_m h = p + e exactly
    (Dekker's two-product), z_m = exp(2ip) exp(2ie), and z_n is the product of
    its levels' z_m. An error delta of a few eps in cos 2gh moves a far term by
    delta / (2 (g h)^2) of v_n v_n', at most 50 delta since g h >= NEAR_PHASE.
    A near term's argument g h is one rounded product, off by up to eps g h,
    and g h reaches NEAR_PHASE h / h_min: at h = 1e6 h_min this puts a d = 8,
    k = 2 GUE distance 8.9e-13 relative off the exact pair sum.

    Only the eigenvalues and populations of `sd` are read, so a bound
    `SpectralData` and a `SpectralMeasure` serve equally.
    """
    _check_frobenius_caps(sd.dim, k, caps)
    halves = np.abs(_finite_times(taus)) / 2.0  # the kernel is even in tau
    idx, counts, hi, lo = _sorted_sums(sd.eigenvalues, k)
    v = counts * np.prod(sd.populations[idx], axis=1)
    positive = halves[halves > 0]
    far_gap = NEAR_PHASE / positive.min() if positive.size else np.inf
    # row n pairs with m in (n, first_far[n]) directly and with m >= first_far[n] as far
    first_far = np.searchsorted(hi, hi + far_gap, side="right")
    sq = np.zeros(halves.size)
    reach = first_far - np.arange(1, v.size + 1)
    for j in range(1, reach.max() + 1):  # the near pairs on the offset diagonal m = n + j
        n = np.flatnonzero(reach >= j)
        gaps, weights = (hi[n + j] - hi[n]) + (lo[n + j] - lo[n]), v[n] * v[n + j]
        step = max(1, SINC_CHUNK // n.size)
        for t in range(0, halves.size, step):
            sq[t : t + step] += weights @ stable_sinc(gaps[:, None] * halves[t : t + step]) ** 2
    sq += _far_pair_sums(sd.eigenvalues, idx, hi, lo, v, far_gap, first_far, halves)
    return np.sqrt(2.0 * sq)


def _far_pair_sums(energies, idx, hi, lo, v, far_gap, first_far, halves) -> np.ndarray:
    """sum over m >= first_far[n] of v_n v_m sinc^2(g_nm h), per h.

    Each row block of W' = v_m / g^2 (rows n, columns m) takes one matrix
    product with the phase block z and a column of ones, which gives the
    block's (W' z)_n and its row sums together; v_n is applied to those small
    results, not to the block. Only the columns below first_far of the block's
    last row can hold a near or lower-triangle pair, so only they are masked.
    """
    dim = v.size
    tail = np.append(np.cumsum(v[::-1])[::-1], 0.0)
    sq = np.full(halves.size, v @ tail[first_far])  # kernel 1 at h = 0
    positive = np.flatnonzero(halves > 0)
    step = max(1, PHASE_CHUNK // dim)
    any_lo = lo.any()  # lo = 0 at k = 1, where its pass adds exact zeros
    for t in range(0, positive.size, step):
        cols = positive[t : t + step]
        # the real and imaginary parts of z, interleaved, then a column of ones
        z = np.ones((dim, 2 * cols.size + 1))
        z[:, :-1] = _exact_phases(energies, idx, halves[cols]).view(float)
        w_sum, re_zwz = 0.0, np.zeros(2 * cols.size)
        r0 = 0
        while r0 < dim and first_far[r0] < dim:
            c0 = first_far[r0]
            r1 = min(dim, r0 + max(1, SINC_CHUNK // (dim - c0)))
            c1 = first_far[r1 - 1]
            w = np.subtract(hi[c0:], hi[r0:r1, None])
            if any_lo:
                w += lo[c0:] - lo[r0:r1, None]
            w *= w
            # m < first_far[n], the searchsorted test: diagonal, lower triangle and band
            np.copyto(w[:, : c1 - c0], np.inf, where=hi[c0:c1] <= hi[r0:r1, None] + far_gap)
            wz = np.divide(v[c0:], w, out=w) @ z[c0:]
            w_sum += v[r0:r1] @ wz[:, -1]
            # Re(conj(z_n) v_n (W' z)_n), its real and imaginary products interleaved
            re_zwz += np.einsum("i,ij,ij->j", v[r0:r1], z[r0:r1, :-1], wz[:, :-1])
            r0 = r1
        sq[cols] = (w_sum - re_zwz.reshape(-1, 2).sum(axis=1)) / halves[cols] / (2.0 * halves[cols])
    return sq


def _exact_phases(energies, idx, halves) -> np.ndarray:
    """exp(2i s_n h) for each multiset row of idx and each h, exact to rounding."""
    # E 2^64 times h 2^-64 is E h: the scaling keeps the split of h < 1.8e308 finite
    p, e = _two_product(energies[:, None] * 2.0**64, halves[None, :] * 2.0**-64)
    level = np.exp(2j * p) * np.exp(2j * e)
    return np.prod(level[idx], axis=1)


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

    Each kept column of the (d_A, d_B) projection table is divided by the
    square root of its probability, its squared norm, which becomes its
    weight. Outcomes with probability below ZERO_OUTCOME_CUTOFF are dropped
    and counted in dropped_members.
    """
    table = projection_table(state, part, basis)
    probs = np.sum(np.abs(table) ** 2, axis=0)
    keep = probs >= ZERO_OUTCOME_CUTOFF
    cols = table[:, keep] / np.sqrt(probs[keep])
    return WeightedEnsemble(cols, probs[keep], dropped_members=int(np.sum(~keep)))
