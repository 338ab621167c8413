"""The Scrooge family: subentropy, exact moments, conditional-state tables.

The Scrooge ensemble attached to a density matrix rho is the rho-distortion of
the Haar ensemble (draw |psi> Haar, keep sqrt(rho)|psi> with weight equal to
its squared norm). Equivalently, draw g ~ CN(0, rho) and keep g/|g| with
weight |g|^2, so its k-th moment is E[(g g^dagger)^(x)k / |g|^(2(k-1))].
Writing |g|^(-2(k-1)) as a Laplace integral over s turns each eigenbasis
coefficient into one smooth integral over s of Gaussian moments, which the
trapezoid rule on a uniform grid in ln s evaluates to machine precision for
any k and any spectrum, degenerate or not.

The generalized Scrooge reference mixes one such moment per measurement
outcome. It is evaluated as one batch over the stack of outcome states: one
stacked eigendecomposition, one quadrature over every (outcome, multiset)
row on a grid that spans every outcome's support, with zero modes masked
instead of dropped, one Sym^k of the stacked eigenvectors and one matrix
product per block of outcomes. `scrooge_moment` is the one-state case.

Every input is a density matrix, checked by `hilbert._as_density` for unit
trace and Hermiticity, so a NaN or a non-Hermitian input raises instead of
being read off one triangle. Its support is one rule (`_in_support`): the
eigenvalues above SUPPORT_CUTOFF times the largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from ._util import Caps, DEFAULT_CAPS, check_cap
from .ensembles import ZERO_OUTCOME_CUTOFF, MomentOperator, _occupation_basis, _sym_dim, _symmetric_power
from .hilbert import (
    Bipartition,
    MeasurementBasis,
    _as_density,
    _require_sites,
    _subsystem_indices,
    apply_local_rotations,
)
from .spectral import SpectralData

LN2 = math.log(2.0)
SUPPORT_CUTOFF = 1e-13
CLUSTER_RTOL = 1e-9
GRID_STEP = 0.25  # trapezoid step in t = ln s
GRID_MARGIN = 40.0  # reach in ln s past 1/lam_max and 1/lam_min; cut tails < e^-35 relative
# Eigenvectors per block in conditional_states. Its transient memory is two complex
# (D_A, chunk, D_B) tensors plus a few rotation row blocks (hilbert.ROTATION_BLOCK_ENTRIES).
EIGENVECTOR_CHUNK = 2048
OUTCOME_BLOCK_ENTRIES = 2**20  # entries per outcome-block array in _scrooge_mixture; bounds its memory


def _in_support(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues w above SUPPORT_CUTOFF times the largest on the last axis."""
    return w > SUPPORT_CUTOFF * w.max(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# subentropy
# ---------------------------------------------------------------------------


def _harmonics(n: int) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])


def _poly_log_derivative(x: float, n: int, r: int, harm: np.ndarray) -> float:
    """g^(n)(x)/n! for g(t) = t^r ln t, evaluated in log space."""
    lx = math.log(x)
    bracket = lx + harm[r] - harm[r - n]
    if bracket == 0.0:
        return 0.0
    log_binom = math.lgamma(r + 1) - math.lgamma(n + 1) - math.lgamma(r - n + 1)
    log_mag = log_binom + (r - n) * lx + math.log(abs(bracket))
    if log_mag < -745.0:
        return 0.0
    return math.copysign(math.exp(log_mag), bracket)


def _confluent_divided_difference(nodes: np.ndarray, r: int) -> float:
    """Top entry of the Newton table of g(t) = t^r ln t with repeated nodes.

    Equal nodes must be adjacent; their entries use the exact derivative
    limit, which is the epsilon -> 0 limit of splitting them apart.
    """
    n = nodes.size
    harm = _harmonics(r)
    table = np.zeros((n, n))
    table[:, 0] = [nd**r * math.log(nd) for nd in nodes]
    for j in range(1, n):
        for i in range(n - j):
            if nodes[i + j] == nodes[i]:
                table[i, j] = _poly_log_derivative(nodes[i], j, r, harm)
            else:
                table[i, j] = (table[i + 1, j - 1] - table[i, j - 1]) / (nodes[i + j] - nodes[i])
    return float(table[0, n - 1])


def subentropy(rho) -> float:
    """Subentropy in bits of a density matrix rho: the measurement-basis-averaged
    mutual information of rho.

    Eigenvalues outside the support (`_in_support`) contribute nothing.
    Evaluates the divided difference of t^r ln t with exact confluent limits
    for degenerate eigenvalues.
    """
    lam = np.sort(np.linalg.eigvalsh(_as_density(rho)))[::-1]
    lam = lam[_in_support(lam)]
    r = lam.size
    if r == 1:
        return 0.0
    nodes = np.concatenate([[lam[list(c)].mean()] * len(c) for c in _cluster_plain(lam)])
    return -_confluent_divided_difference(nodes, r) / LN2


def _cluster_plain(lam: np.ndarray) -> list[list[int]]:
    mean = float(lam.mean())
    clusters: list[list[int]] = [[0]]
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] <= CLUSTER_RTOL * mean:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


# ---------------------------------------------------------------------------
# Gaussian-integral engine
# ---------------------------------------------------------------------------


def _gaussian_quadrature(lam: np.ndarray, occ: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """E[prod_m |x_m|^(2 n_m) / |x|^(2(k-1))] for independent complex Gaussians
    x_m with E|x_m|^2 = lam_m, one value per row of occ.

    With |x|^(-2(k-1)) = (1/(k-2)!) int_0^inf s^(k-2) e^(-s|x|^2) ds each value is
        (1/(k-2)!) int_0^inf s^(k-2) prod_m n_m! lam_m^n_m (1 + s lam_m)^-(n_m + 1) ds.
    In t = ln s the integrand is analytic within |Im t| < pi of the real axis
    and decays exponentially at both ends, so the trapezoid rule converges
    geometrically; it is summed over all rows at once, each row scaled by its
    largest term. Needs k = sum n_m >= 2.

    lam may be a stack of spectra (..., r); the values then have shape
    (..., rows). A zero in lam marks a mode outside the support: it leaves the
    product, and every row that occupies it gets 0. `grid` holds the nodes in
    t, `_log_grid` of lam or of a stack that holds it.
    """
    k = int(occ[0].sum())
    support = lam > 0.0
    # a zero mode stands in at the largest eigenvalue, so the rows that occupy it stay finite
    lam = np.where(support, lam, lam.max(axis=-1, keepdims=True))
    log_factors = np.logaddexp(0.0, grid + np.log(lam)[..., None])  # ln(1 + s lam_m)
    const = (scipy.special.gammaln(occ + 1.0) + occ * np.log(lam)[..., None, :]).sum(axis=-1)
    const -= math.lgamma(k - 1)
    # every support mode carries one factor (1 + s lam_m)^-1, occupied modes n_m more
    base = (k - 1) * grid - np.where(support[..., None], log_factors, 0.0).sum(axis=-2)
    integrand = occ @ log_factors  # rows x nodes, turned in place into the integrand
    np.subtract(base[..., None, :], integrand, out=integrand)
    integrand += const[..., None]
    top = integrand.max(axis=-1)
    integrand -= top[..., None]
    np.exp(integrand, out=integrand)
    values = GRID_STEP * np.exp(top) * integrand.sum(axis=-1)
    return np.where((~support).astype(float) @ occ.T > 0.0, 0.0, values)


def _log_grid(lam: np.ndarray) -> np.ndarray:
    """Trapezoid nodes in t = ln s spanning the support of every spectrum in lam."""
    return np.arange(
        -math.log(lam.max()) - GRID_MARGIN, -math.log(lam[lam > 0.0].min()) + GRID_MARGIN, GRID_STEP
    )


def _scrooge_mixture(states: np.ndarray, weights: np.ndarray, k: int, caps: Caps) -> np.ndarray:
    """sum_x w_x Scrooge_k[states[x]] / sum_x w_x on Sym^k for a stack of density matrices.

    One stacked eigh gives every spectrum. Eigenvalues outside an outcome's
    support (`_in_support`) are set to 0, so the full eigenbasis serves
    every outcome and multisets that occupy a zero mode get coefficient 0.
    The outcome axis is walked in blocks whose (outcome, multiset, grid node)
    and (outcome, multiset, multiset) arrays hold at most OUTCOME_BLOCK_ENTRIES
    entries; each block makes one quadrature on the grid shared by all
    outcomes, one Sym^k of its stacked eigenvectors and one matrix product
    into the sum.
    """
    n_states, d, _ = states.shape
    dim = _sym_dim(d, k)
    check_cap(caps, "max_moment_entries", dim**2)
    if k == 1:
        total = np.einsum("x,xab->ab", weights, states)
    else:
        check_cap(caps, "max_multiset_terms", dim)
        w, v = np.linalg.eigh(states)
        lam = np.where(_in_support(w), w, 0.0)
        grid = _log_grid(lam)
        idx, counts = _occupation_basis(d, k)
        occ = (idx[:, :, None] == np.arange(d)).sum(axis=1).astype(float)
        step = max(1, OUTCOME_BLOCK_ENTRIES // (dim * max(dim, grid.size)))
        total = np.zeros((dim, dim), dtype=complex)
        for lo in range(0, n_states, step):
            hi = min(lo + step, n_states)
            coeffs = _gaussian_quadrature(lam[lo:hi], occ, grid)
            s = np.moveaxis(_symmetric_power(v[lo:hi], k), 0, 1).reshape(dim, -1)
            scale = (weights[lo:hi, None] * counts * coeffs).ravel()
            total += (s * scale) @ s.conj().T
    total /= weights.sum()
    return (total + total.conj().T) / 2


def scrooge_moment(rho, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Exact k-th moment of the Scrooge ensemble of the density matrix rho.

    In the eigenbasis W of rho the moment is diagonal in the occupation
    basis: it is S diag(N_n c(n)) S^dagger with S = Sym^k(W) and
    c(n) = E[prod_m |g_m|^(2 n_m) / |g|^(2(k-1))] for g ~ CN(0, rho), evaluated
    by `_gaussian_quadrature` for all multisets at once; c(n) = 0 when n
    occupies a mode outside the support. Any k >= 1 is accepted; degenerate
    spectra need no special case. This is the one-state case of
    `_scrooge_mixture`.
    """
    m = _as_density(rho)
    return MomentOperator(k, m.shape[0], _scrooge_mixture(m[None], np.ones(1), k, caps))


# ---------------------------------------------------------------------------
# conditional-state tables and the generalized moment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalStateTable:
    """Per-outcome time-averaged weights p_d(x) and states rho_bar(x) on A."""

    outcomes: np.ndarray            # kept outcome indices
    probabilities: np.ndarray       # p_d per kept outcome
    states: np.ndarray              # (n_kept, D_A, D_A)
    dropped_outcomes: int = 0
    basis: MeasurementBasis | None = None  # the B basis the table was built for

    @property
    def d_a(self) -> int:
        return self.states.shape[1]

    def mixture(self) -> np.ndarray:
        """sum_x p_d(x) rho_bar(x); equals the reduced time-averaged state."""
        return np.einsum("x,xab->ab", self.probabilities, self.states)


def conditional_states(
    sd: SpectralData, part: Bipartition, basis: MeasurementBasis
) -> ConditionalStateTable:
    """Time-averaged projected states built exactly from the diagonal ensemble.

    rho_bar(x) is the B-projection of the dephased density matrix, normalized
    per outcome; no time quadrature is involved. Eigenvectors are walked in
    blocks of EIGENVECTOR_CHUNK as tensors T[a, e, x] = <a, x | E_e> sqrt(p_E),
    gathered straight into the layout the B rotation and the contraction
    read, so no whole-size transpose is made. Outcomes with weight below
    ZERO_OUTCOME_CUTOFF are dropped and counted. The returned table records
    `basis`.
    """
    _require_sites(basis, part.sites_B)
    v = sd.eigenvectors
    weights = np.sqrt(sd.populations)
    a_idx = _subsystem_indices(part.n_sites, part.sites_A)
    b_idx = _subsystem_indices(part.n_sites, part.sites_B)
    d_a, d_b = part.d_a, part.d_b
    raw = np.zeros((d_b, d_a, d_a), dtype=complex)
    for lo in range(0, sd.dim, EIGENVECTOR_CHUNK):
        hi = min(lo + EIGENVECTOR_CHUNK, sd.dim)
        t = np.zeros((d_a, hi - lo, d_b), dtype=complex)
        t[a_idx, :, b_idx] = v[:, lo:hi] * weights[lo:hi]
        flat = apply_local_rotations(t.reshape(d_a * (hi - lo), d_b), basis.factors)
        t = np.moveaxis(flat.reshape(d_a, hi - lo, d_b), 2, 1)
        raw += np.einsum("axe,cxe->xac", t, t.conj(), optimize=True)
    p_d = np.einsum("xaa->x", raw).real
    keep = np.flatnonzero(p_d >= ZERO_OUTCOME_CUTOFF)
    states = raw[keep] / p_d[keep, None, None]
    states = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    return ConditionalStateTable(
        outcomes=keep,
        probabilities=p_d[keep],
        states=states,
        dropped_outcomes=int(d_b - keep.size),
        basis=basis,
    )


def generalized_scrooge_moment(
    table: ConditionalStateTable, k: int, caps: Caps = DEFAULT_CAPS
) -> MomentOperator:
    """Outcome-weighted mixture sum_x p_d(x) Scrooge_k[rho_bar(x)] / sum_x p_d(x).

    Every outcome is evaluated in one batch (`_scrooge_mixture`); the result
    is a dense moment.
    """
    total = _scrooge_mixture(_as_density(table.states), table.probabilities, k, caps)
    return MomentOperator(k, table.d_a, total)
