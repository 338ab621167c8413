"""The Scrooge family: samplers, subentropy, exact moments, conditional-state tables.

The Scrooge ensemble attached to a density matrix rho is the rho-distortion of
the Haar ensemble (draw |psi> Haar, keep sqrt(rho)|psi> with weight equal to
its squared norm). Equivalently, draw g ~ CN(0, rho) and keep g/|g| with
weight |g|^2, so its k-th moment is E[(g g^dagger)^(x)k / |g|^(2(k-1))].
Writing |g|^(-2(k-1)) as a Laplace integral over s turns each eigenbasis
coefficient into one smooth integral over s of Gaussian moments, which the
trapezoid rule on a uniform grid in ln s evaluates to machine precision for
any k and any spectrum, degenerate or not. The real-vector ensemble uses the
same grid with real Gaussian moments.

The generalized Scrooge reference mixes one such moment per measurement
outcome. It is evaluated as one batch over the stack of outcome states: one
stacked eigendecomposition, one quadrature over every (outcome, multiset)
row on a grid that spans every outcome's support, with zero modes masked
instead of dropped, one Sym^k of the stacked eigenvectors and one matrix
product per block of outcomes. `scrooge_moment` is the one-state case. Every
density matrix is checked for unit trace and Hermiticity, so a NaN or a
non-Hermitian input raises instead of being read off one triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from ._util import Caps, DEFAULT_CAPS, InvalidMatrixError, check_cap, hermiticity_defect
from .ensembles import ZERO_OUTCOME_CUTOFF, MomentOperator, _occupation_basis, _symmetric_power
from .hilbert import (
    HERMITICITY_TOL,
    Bipartition,
    HermitianOperator,
    MeasurementBasis,
    PureState,
    _require_sites,
    _subsystem_indices,
    apply_local_rotations,
    qubit_or_flat_dims,
)
from .spectral import SpectralData

LN2 = math.log(2.0)
SUBENTROPY_LIMIT_BITS = (1.0 - np.euler_gamma) / LN2  # large-D maximally mixed value
SUPPORT_CUTOFF = 1e-13
CLUSTER_RTOL = 1e-9
SPLIT_EPSILONS = (1e-4, 5e-5)  # relative to the mean eigenvalue; ratio 2 for Richardson
GRID_STEP = 0.25  # trapezoid step in t = ln s
GRID_MARGIN = 40.0  # reach in ln s past 1/lam_max and 1/lam_min; cut tails < e^-35 relative
EIGENVECTOR_CHUNK = 2048  # eigenvectors per block in conditional_states; bounds its memory
OUTCOME_BLOCK_ENTRIES = 2**20  # entries per outcome-block array in _scrooge_mixture; bounds its memory


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending support eigenvalues of a density matrix and their eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        return self.eigenvalues.size


def _as_density(rho) -> np.ndarray:
    """Entries of a density matrix or a stack of them, checked for unit trace and Hermiticity."""
    m = rho.entries if isinstance(rho, HermitianOperator) else np.asarray(rho, dtype=complex)
    tr = np.einsum("...aa->...", m).real
    if not np.all(np.abs(tr - 1.0) <= 1e-8):
        raise ValueError(f"density matrix trace is {tr}")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise InvalidMatrixError(f"density matrix deviates from Hermitian by {defect:.3e}")
    return m


def eigen_spectrum(rho) -> EigenSpectrum:
    """Eigen-decomposition restricted to the support, eigenvalues descending."""
    w, v = np.linalg.eigh(_as_density(rho))
    w, v = w[::-1], v[:, ::-1]
    keep = w > SUPPORT_CUTOFF * max(w[0], 1e-300)
    return EigenSpectrum(w[keep], v[:, keep])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def scrooge_sample_batch(
    rho, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n states; returns (normalized, unnormalized) as (dim, n) column stacks.

    Unnormalized draws are independent complex Gaussians with variance lambda_m
    along each eigenvector of rho (support only). The squared norm of an
    unnormalized draw is the ensemble weight of its normalized state.
    """
    spec = eigen_spectrum(rho)
    r = spec.rank
    scale = np.sqrt(spec.eigenvalues / 2.0)
    g = scale[:, None] * (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
    raw = spec.eigenvectors @ g
    norms = np.linalg.norm(raw, axis=0)
    return raw / norms, raw


def scrooge_sample(rho, rng: np.random.Generator) -> tuple[PureState, np.ndarray]:
    """One draw from Scrooge[rho]; returns the normalized state and the raw vector."""
    normed, raw = scrooge_sample_batch(rho, 1, rng)
    return PureState(normed[:, 0], qubit_or_flat_dims(normed.shape[0]), "normalized"), raw[:, 0]


# ---------------------------------------------------------------------------
# subentropy
# ---------------------------------------------------------------------------


def _support_eigenvalues(rho_or_eigs) -> np.ndarray:
    if isinstance(rho_or_eigs, HermitianOperator) or (
        isinstance(rho_or_eigs, np.ndarray) and rho_or_eigs.ndim == 2
    ):
        lam = np.linalg.eigvalsh(_as_density(rho_or_eigs))
    else:
        lam = np.asarray(rho_or_eigs, dtype=float)
        if not abs(lam.sum() - 1.0) <= 1e-8:  # NaN fails this test
            raise ValueError("eigenvalues must sum to 1")
    lam = np.sort(lam)[::-1]
    return lam[lam > SUPPORT_CUTOFF]


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


def subentropy(rho_or_eigs, method: str = "stable") -> float:
    """Subentropy in bits: the measurement-basis-averaged mutual information of rho.

    Zero eigenvalues contribute nothing (the value restricts to the support).
    method "stable" evaluates the divided difference of t^r ln t with exact
    confluent limits for degenerate eigenvalues; "split-extrapolate" resolves
    degeneracies by symmetric epsilon-splitting with two-point Richardson
    extrapolation (the oracle form; small ranks only).
    """
    lam = _support_eigenvalues(rho_or_eigs)
    r = lam.size
    if r == 1:
        return 0.0
    if method == "stable":
        spec_clusters = _cluster_plain(lam)
        nodes = np.concatenate([[lam[list(c)].mean()] * len(c) for c in spec_clusters])
        return -_confluent_divided_difference(nodes, r) / LN2
    if method == "split-extrapolate":
        clusters = _cluster_plain(lam)
        if all(len(c) == 1 for c in clusters):
            return -_plain_sum_subentropy(lam) / LN2
        vals = []
        for eps in SPLIT_EPSILONS:
            split = _split_values(lam, clusters, eps)
            vals.append(-_plain_sum_subentropy(split) / LN2)
        return vals[1] + (vals[1] - vals[0]) / 3.0
    raise ValueError(f"unknown method {method!r}")


def _cluster_plain(lam: np.ndarray) -> list[list[int]]:
    mean = float(lam.mean())
    clusters: list[list[int]] = [[0]]
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] <= CLUSTER_RTOL * mean:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _split_values(lam: np.ndarray, clusters: list[list[int]], eps_rel: float) -> np.ndarray:
    out = lam.astype(float).copy()
    eps = eps_rel * float(lam.mean())
    for c in clusters:
        if len(c) == 1:
            continue
        center = float(lam[c].mean())
        out[c] = center + eps * np.linspace(1.0, -1.0, len(c))
    return out


def _plain_sum_subentropy(lam: np.ndarray) -> float:
    """Direct rational sum over distinct eigenvalues (natural log units)."""
    inv = 1.0 / lam
    total = 0.0
    for j in range(lam.size):
        a_j = 1.0
        for k in range(lam.size):
            if k != j:
                a_j /= inv[k] - inv[j]
        total += a_j * lam[j] ** 2 * math.log(lam[j])
    return float(np.prod(inv)) * total


# ---------------------------------------------------------------------------
# Gaussian-integral engine
# ---------------------------------------------------------------------------


def _gaussian_quadrature(
    lam: np.ndarray, occ: np.ndarray, real: bool = False, grid: np.ndarray | None = None
) -> np.ndarray:
    """E[prod_m x_m^(2 n_m) / |x|^(2(k-1))] for independent Gaussians x_m, one per row of occ.

    x_m is complex with E|x_m|^2 = lam_m, or real with E x_m^2 = lam_m. With
    |x|^(-2(k-1)) = (1/(k-2)!) int_0^inf s^(k-2) e^(-s|x|^2) ds each value is
        (1/(k-2)!) int_0^inf s^(k-2) prod_m a(n_m) lam_m^n_m (1 + w s lam_m)^-(n_m + b) ds
    with (a(n), w, b) = (n!, 1, 1) complex and ((2n-1)!!, 2, 1/2) real. In t = ln s
    the integrand is analytic within |Im t| < pi of the real axis and decays
    exponentially at both ends, so the trapezoid rule converges geometrically;
    it is summed over all rows at once, each row scaled by its largest term.
    Needs k = sum n_m >= 2.

    lam may be a stack of spectra (..., r); the values then have shape
    (..., rows). A zero in lam marks a mode outside the support: it leaves the
    product, and every row that occupies it gets 0. `grid` defaults to
    `_log_grid(lam)`.
    """
    k = int(occ[0].sum())
    width, shift = (2.0, 0.5) if real else (1.0, 1.0)
    t = _log_grid(lam) if grid is None else grid
    support = lam > 0.0
    # a zero mode stands in at the largest eigenvalue, so the rows that occupy it stay finite
    lam = np.where(support, lam, lam.max(axis=-1, keepdims=True))
    log_factors = np.logaddexp(0.0, t + np.log(width * lam)[..., None])  # ln(1 + w s lam_m)
    log_moments = scipy.special.gammaln(occ + 1.0)
    if real:
        log_moments = scipy.special.gammaln(2.0 * occ + 1.0) - occ * LN2 - log_moments
    const = (log_moments + occ * np.log(lam)[..., None, :]).sum(axis=-1) - math.lgamma(k - 1)
    # every support mode carries the power shift, occupied modes n_m more
    base = (k - 1) * t - shift * np.where(support[..., None], log_factors, 0.0).sum(axis=-2)
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

    One stacked eigh gives every spectrum. Eigenvalues below SUPPORT_CUTOFF
    times an outcome's largest are set to 0, so the full eigenbasis serves
    every outcome and multisets that occupy a zero mode get coefficient 0.
    The outcome axis is walked in blocks whose (outcome, multiset, grid node)
    and (outcome, multiset, multiset) arrays hold at most OUTCOME_BLOCK_ENTRIES
    entries; each block makes one quadrature on the grid shared by all
    outcomes, one Sym^k of its stacked eigenvectors and one matrix product
    into the sum.
    """
    n_states, d, _ = states.shape
    dim = math.comb(d + k - 1, k)
    check_cap(caps, "max_moment_entries", dim**2)
    if k == 1:
        total = np.einsum("x,xab->ab", weights, states)
    else:
        check_cap(caps, "max_multiset_terms", dim)
        w, v = np.linalg.eigh(states)
        lam = np.where(w > SUPPORT_CUTOFF * np.maximum(w[:, -1:], 1e-300), w, 0.0)
        grid = _log_grid(lam)
        idx, counts = _occupation_basis(d, k)
        occ = (idx[:, :, None] == np.arange(d)).sum(axis=1).astype(float)
        step = max(1, OUTCOME_BLOCK_ENTRIES // (dim * max(dim, grid.size)))
        total = np.zeros((dim, dim), dtype=complex)
        for lo in range(0, n_states, step):
            hi = min(lo + step, n_states)
            coeffs = _gaussian_quadrature(lam[lo:hi], occ, grid=grid)
            s = np.moveaxis(_symmetric_power(v[lo:hi], k), 0, 1).reshape(dim, -1)
            scale = (weights[lo:hi, None] * counts * coeffs).ravel()
            total += (s * scale) @ s.conj().T
    total /= weights.sum()
    return (total + total.conj().T) / 2


def scrooge_moment(rho, k: int, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Exact k-th moment of the Scrooge ensemble of rho (normalized convention).

    In the eigenbasis W of rho the moment is diagonal in the occupation
    basis: it is S diag(N_n c(n)) S^dagger with S = Sym^k(W) and
    c(n) = E[prod_m |g_m|^(2 n_m) / |g|^(2(k-1))] for g ~ CN(0, rho), evaluated
    by `_gaussian_quadrature` for all multisets at once; c(n) = 0 when n
    occupies a mode outside the support. Any k >= 1 is accepted; degenerate
    spectra need no special case. This is the one-state case of
    `_scrooge_mixture`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = _as_density(rho)
    return MomentOperator(k, m.shape[0], _scrooge_mixture(m[None], np.ones(1), k, caps), "normalized")


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
    blocks of EIGENVECTOR_CHUNK as tensors T[a, x, e] = <a, x | E_e> sqrt(p_E).
    Outcomes with weight below ZERO_OUTCOME_CUTOFF are dropped and counted.
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
        t = np.zeros((d_a, d_b, hi - lo), dtype=complex)
        t[a_idx, b_idx, :] = v[:, lo:hi] * weights[lo:hi]
        flat = np.moveaxis(t, 1, 2).reshape(d_a * (hi - lo), d_b)
        flat = apply_local_rotations(flat, basis.factors, conjugate=True)
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
    )


def generalized_scrooge_moment(
    table: ConditionalStateTable, k: int, caps: Caps = DEFAULT_CAPS
) -> MomentOperator:
    """Outcome-weighted mixture sum_x p_d(x) Scrooge_k[rho_bar(x)] / sum_x p_d(x).

    Every outcome is evaluated in one batch (`_scrooge_mixture`); the result
    is a dense moment in the normalized convention.
    """
    total = _scrooge_mixture(_as_density(table.states), table.probabilities, k, caps)
    return MomentOperator(k, table.d_a, total, "normalized")


# ---------------------------------------------------------------------------
# real Scrooge second moment
# ---------------------------------------------------------------------------


def real_haar_moment2(d: int) -> MomentOperator:
    """Second moment of uniformly random real unit vectors.

    (I + SWAP + |Phi><Phi|) / (d (d+2)) with Phi = sum_a |aa>; on Sym^2,
    I + SWAP is 2 I and Phi is the indicator of the multisets {a, a}.
    """
    idx, counts = _occupation_basis(d, 2)
    phi = (idx[:, 0] == idx[:, 1]).astype(float)
    m = (2.0 * np.eye(counts.size) + np.outer(phi, phi)) / (d * (d + 2))
    return MomentOperator(2, d, m, "normalized")


def real_scrooge_moment2(rho, caps: Caps = DEFAULT_CAPS) -> MomentOperator:
    """Second moment of the real-vector Scrooge ensemble of a real density matrix.

    With v(n, m) = E[x_n^2 x_m^2 / |x|^2] for x ~ N(0, rho), the moment on
    Sym^2 over the support eigenvectors W has entry v(n, m) between {n, n} and
    {m, m}, 2 v(n, m) on the diagonal at {n, m} for n < m, and zeros elsewhere;
    the stored matrix is S M S^T with S = Sym^2(W). The values come from the
    same log-grid quadrature as the complex moments, with real Gaussian factors.
    """
    m = _as_density(rho)
    if float(np.abs(m.imag).max()) > 1e-10:
        raise ValueError("real Scrooge moments need a real density matrix")
    spec = eigen_spectrum(m.real.astype(complex))
    d = m.shape[0]
    check_cap(caps, "max_moment_entries", math.comb(d + 1, 2) ** 2)
    lam = spec.eigenvalues
    r = lam.size
    eye = np.eye(r)
    occ = (eye[:, None, :] + eye[None, :, :]).reshape(r * r, r)  # row n*r + m: x_n^2 x_m^2
    vals = _gaussian_quadrature(lam, occ, real=True).reshape(r, r)
    idx, _ = _occupation_basis(r, 2)
    ms_mat = np.diag(2.0 * vals[idx[:, 0], idx[:, 1]])
    doubles = np.flatnonzero(idx[:, 0] == idx[:, 1])
    ms_mat[np.ix_(doubles, doubles)] = vals
    s = _symmetric_power(spec.eigenvectors.real, 2)
    full = s @ ms_mat @ s.T
    return MomentOperator(2, d, (full + full.T) / 2, "normalized")
