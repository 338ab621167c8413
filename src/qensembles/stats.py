"""Distances, Porter-Thomas statistics, and information-theoretic functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.special

from ._util import FitError, check_cap
from .ensembles import MomentOperator
from .hilbert import (
    Bipartition,
    HermitianOperator,
    MeasurementBasis,
    PureState,
    _require_sites,
    apply_local_rotations,
    basis_matrix,
    projection_table,
)
from .scrooge import ConditionalStateTable, conditional_states, subentropy
from .spectral import SpectralData, evolve, evolve_grid

LN2 = math.log(2.0)
EULER_GAMMA = float(np.euler_gamma)


def shannon_entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy with the 0 log 0 := 0 convention; base-2 output.

    Terms are summed in sorted order so the value is bit-exact under any
    relabeling of the outcomes.
    """
    p = np.asarray(p, dtype=float)
    nz = np.sort(p[p > 0])
    return float(-(nz * np.log(nz)).sum() / LN2)


def von_neumann_entropy_bits(rho) -> float:
    m = rho.entries if isinstance(rho, HermitianOperator) else np.asarray(rho)
    lam = np.linalg.eigvalsh(m)
    return shannon_entropy_bits(np.clip(lam.real, 0.0, None))


def trace_distance(m1: MomentOperator, m2: MomentOperator) -> float:
    """Half the trace norm of the difference of two moments of one k, d and convention.

    When one side is c * I (`haar_moment`) and the other an ensemble moment of
    r < D members (`moment_k`; `weighted_projected_moment` against a c * I of
    its own "weighted-projected" convention), the distance comes from the
    r x r Gram matrix G_zw = sqrt(w_z w_w) <c_z|c_w>^k: the moment's spectrum
    on Sym^k is that of G padded with D - r zeros, so the distance is
    (sum_i |g_i - c| + (D - r) |c|) / 2 over the eigenvalues g_i of G. That
    path checks r^2 against the ensemble's `max_moment_entries` and builds no
    D x D matrix. Every other pair diagonalizes the D x D difference, so the
    cost is O(min(r, D)^3).
    """
    if (m1.k, m1.space_dim, m1.convention) != (m2.k, m2.space_dim, m2.convention):
        raise ValueError(
            f"moment shapes differ: ({m1.k},{m1.space_dim},{m1.convention}) vs "
            f"({m2.k},{m2.space_dim},{m2.convention})"
        )
    for ens, iso in ((m1, m2), (m2, m1)):
        if iso.scalar is not None and ens.columns is not None and ens.weights.size < ens.dim:
            return _gram_distance(ens, iso.scalar)
    diff = m1.matrix - m2.matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _gram_distance(ens: MomentOperator, c: float) -> float:
    """Trace distance of an ensemble moment of r < D members to c * I on Sym^k."""
    r = ens.weights.size
    check_cap(ens.caps, "max_moment_entries", r**2)
    sqrt_w = np.sqrt(ens.weights)
    gram = np.outer(sqrt_w, sqrt_w) * (ens.columns.conj().T @ ens.columns) ** ens.k
    g = np.linalg.eigvalsh(gram)
    return 0.5 * float(np.abs(g - c).sum() + (ens.dim - r) * abs(c))


# ---------------------------------------------------------------------------
# Porter-Thomas tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTReport:
    """Weighted moments and KS distance of nonnegative samples to a target law."""

    sample_count: int
    moments: tuple[float, float, float]  # weighted E[x], E[x^2], E[x^3]
    ks_statistic: float
    target: str
    histogram_edges: np.ndarray = field(repr=False, default=None)
    histogram_density: np.ndarray = field(repr=False, default=None)

    @property
    def m1(self) -> float:
        return self.moments[0]

    @property
    def m2(self) -> float:
        return self.moments[1]

    @property
    def m3(self) -> float:
        return self.moments[2]


def _target_cdf(target):
    """CDF callable and a label for a PT-style target distribution."""
    if isinstance(target, str):
        name, param = target, None
    else:
        name, param = target
    if name == "exponential":
        mu = 1.0 if param is None else float(param)
        return (lambda x: 1.0 - np.exp(-x / mu)), f"exponential(mean={mu:g})"
    if name == "real-pt":
        return (lambda x: scipy.special.erf(np.sqrt(np.clip(x, 0, None) / 2.0))), "real-pt"
    if name == "erlang":
        n = int(param)
        return (lambda x: scipy.special.gammainc(n, n * np.clip(x, 0, None))), f"erlang({n})"
    raise ValueError(f"unknown target {target!r}")


def pt_test(
    values: Sequence[float],
    weights: Sequence[float] | None = None,
    target="exponential",
    bins: int = 50,
) -> PTReport:
    """Weighted moments m^(r) and KS statistic of `values` against a target CDF.

    The KS statistic is the maximum over sample points of the absolute
    difference between the right-continuous weighted empirical CDF and the
    target CDF (a point mass at 1 scores 1/e against the unit exponential).
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if np.any(x < 0):
        raise ValueError("values must be nonnegative")
    if weights is None:
        w = np.full(x.size, 1.0 / x.size)
    else:
        w = np.asarray(weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
    cdf, label = _target_cdf(target)
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    cum = np.cumsum(ws)
    # right-continuous ECDF: at each sample, the total weight of values <= it
    last = np.searchsorted(xs, xs, side="right") - 1
    ks = float(np.abs(cum[last] - cdf(xs)).max())
    moments = tuple(float(np.sum(w * x**r)) for r in (1, 2, 3))
    hi = max(float(x.max()), 1e-12)
    edges = np.linspace(0.0, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges, weights=w)
    density = counts / (edges[1] - edges[0])
    return PTReport(x.size, moments, ks, label, edges, density)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfoReport:
    """A mutual-information-like quantity in bits, plus grid/prediction metadata."""

    kind: str
    bits: float
    prediction_bits: float | None = None
    metadata: dict = field(default_factory=dict)


def mutual_information_time(
    sd: SpectralData,
    psi0: PureState,
    basis: MeasurementBasis,
    tau: float,
    grid_points: int | None = None,
    t_start: float | None = None,
) -> InfoReport:
    """Information between measurement outcomes and the (uniform) evolution time.

    Estimated on a uniform grid over [t_start, t_start + tau]: the entropy of
    the grid-averaged outcome distribution minus the mean per-time entropy.
    The report carries the late-time prediction
    (1 - gamma - sqrt(pi)/(2 sigma_H tau)) / ln 2.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    _require_sites(basis, range(psi0.n_sites))
    p_pop = sd.populations
    e_mean = float(np.dot(p_pop, sd.eigenvalues))
    sigma_h = math.sqrt(max(float(np.dot(p_pop, sd.eigenvalues**2)) - e_mean**2, 0.0))
    if t_start is None:
        t_start = 20.0 / sigma_h if sigma_h > 0 else 0.0
    if grid_points is None:
        grid_points = max(int(math.ceil(5.0 * sigma_h * tau)) + 1, 64)
    times = t_start + np.linspace(0.0, tau, grid_points)
    if times.size < 2:
        raise ValueError("degenerate time grid")
    states = evolve_grid(sd, psi0, times)
    amps = apply_local_rotations(states.T, basis.factors, conjugate=True).T
    probs = np.abs(amps) ** 2  # (outcomes, times)
    h_mean = float(np.mean([shannon_entropy_bits(probs[:, i]) for i in range(times.size)]))
    p_bar = probs.mean(axis=1)
    value = shannon_entropy_bits(p_bar) - h_mean
    if sigma_h > 0:
        prediction = (1.0 - EULER_GAMMA - math.sqrt(math.pi) / (2.0 * sigma_h * tau)) / LN2
    else:
        prediction = None  # stationary state: no trajectory to resolve
    return InfoReport(
        kind="I(Z;T)",
        bits=value,
        prediction_bits=prediction,
        metadata={
            "tau": float(tau),
            "sigma_h": sigma_h,
            "sigma_h_tau": sigma_h * tau,
            "grid_points": int(grid_points),
            "t_start": float(t_start),
            "asymptote_bits": (1.0 - EULER_GAMMA) / LN2,
        },
    )


def joint_outcome_distribution(
    state: PureState,
    part: Bipartition,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
) -> np.ndarray:
    """p(o_A, z_B) for measurements in basis_a on A and basis_b on B; shape (D_A, D_B)."""
    _require_sites(basis_a, part.sites_A)
    m = projection_table(state, part, basis_b)
    return np.abs(apply_local_rotations(m.T, basis_a.factors, conjugate=True).T) ** 2


def mutual_information_of_joint(p: np.ndarray) -> float:
    """I(row; column) of a joint distribution, in bits."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-8):
        raise ValueError(f"joint distribution sums to {total}")
    return (
        shannon_entropy_bits(p.sum(axis=1))
        + shannon_entropy_bits(p.sum(axis=0))
        - shannon_entropy_bits(p.ravel())
    )


def conditional_mutual_information(
    state: PureState,
    part: Bipartition,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
) -> InfoReport:
    """I(O_A; Z_B) of the outcome distribution of a single fixed-time state."""
    joint = joint_outcome_distribution(state, part, basis_a, basis_b)
    value = mutual_information_of_joint(joint)
    return InfoReport(kind="I(O_A;Z_B|T)", bits=value)


def _joint_from_table(table: ConditionalStateTable, basis_a: MeasurementBasis) -> np.ndarray:
    """p_d(x) [U_A^dagger rho_bar(x) U_A]_oo, scattered to (D_A, D_B); dropped x give zeros."""
    u = basis_matrix(basis_a)
    diag = np.einsum("ao,xab,bo->ox", u.conj(), table.states, u).real
    out = np.zeros((table.d_a, table.outcomes.size + table.dropped_outcomes))
    out[:, table.outcomes] = diag * table.probabilities
    return out


def time_averaged_joint_distribution(
    sd: SpectralData,
    part: Bipartition,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
) -> np.ndarray:
    """E_t[p(o_A, x_B, t)], read off the conditional-state table of the B basis.

    p_avg(o, x) = sum_E p_E |<o, x|E>|^2 = p_d(x) <o|rho_bar(x)|o>: the
    dephased state's diagonal in the product basis is each outcome's weight
    times the A-basis diagonal of its conditional state.
    """
    _require_sites(basis_a, part.sites_A)
    return _joint_from_table(conditional_states(sd, part, basis_b), basis_a)


def interaction_information(
    sd: SpectralData,
    psi0: PureState,
    part: Bipartition,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
    t: float,
    conditional_table: ConditionalStateTable | None = None,
) -> InfoReport:
    """I(O_A;X_B;T): fixed-time mutual information minus its time-averaged part.

    The report carries the weighted-subentropy prediction
    sum_x p_d(x) Q(rho_bar(x)) and the concavity bound Q(rho_A); the fixed-time
    and time-averaged mutual informations ride along in the metadata.
    """
    state_t = evolve(sd, psi0, t)
    i_fixed = conditional_mutual_information(state_t, part, basis_a, basis_b).bits
    table = conditional_table
    if table is None:
        table = conditional_states(sd, part, basis_b)
    i_avg = mutual_information_of_joint(_joint_from_table(table, basis_a))
    weighted_q = float(
        np.sum(table.probabilities * np.array([subentropy(s) for s in table.states]))
    )
    rho_a = table.mixture()
    return InfoReport(
        kind="I(O_A;X_B;T)",
        bits=i_fixed - i_avg,
        prediction_bits=weighted_q,
        metadata={
            "t": float(t),
            "fixed_time_bits": i_fixed,
            "time_averaged_bits": i_avg,
            "subentropy_bound_bits": subentropy(rho_a.astype(complex)),
            "weighted_subentropy_bits": weighted_q,
        },
    )


def holevo_sandwich(rho_a) -> tuple[float, float]:
    """(subentropy, von Neumann entropy) of a reduced state, in bits."""
    m = rho_a.entries if isinstance(rho_a, HermitianOperator) else np.asarray(rho_a)
    return subentropy(m.astype(complex)), von_neumann_entropy_bits(m)


# ---------------------------------------------------------------------------
# ensemble entropies
# ---------------------------------------------------------------------------


def ensemble_entropy(kind: str, arg) -> float:
    """Entropy of a maximally-entropic ensemble relative to its reference measure.

    kind "scrooge": arg is a density matrix; value sum_j log2(D lambda_j)
    (zero modes give -inf). kind "temporal-finite-part": arg is the vector of
    energy populations; value sum_E log2(D |c_E|^2), the finite part of the
    fixed-magnitude ensemble entropy.
    """
    if kind == "scrooge":
        m = arg.entries if isinstance(arg, HermitianOperator) else np.asarray(arg)
        lam = np.linalg.eigvalsh(m).real
        d = lam.size
        if np.any(lam < 1e-15):
            return float("-inf")
        return float(np.sum(np.log2(d * lam)))
    if kind == "temporal-finite-part":
        p = np.asarray(arg, dtype=float)
        d = p.size
        if np.any(p < 1e-300):
            return float("-inf")
        return float(np.sum(np.log2(d * p)))
    raise ValueError(f"unknown ensemble entropy kind {kind!r}")


# ---------------------------------------------------------------------------
# eigenstate-overlap analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapAnalysis:
    """Smooth-envelope fit and fluctuation statistics of initial-state overlaps."""

    beta_fit: float
    log_prefactor: float
    pt_report: PTReport
    participation_ratio_times_dim: float  # D * sum |c_E|^4
    window: tuple[float, float]
    n_fit_bins: int

    @property
    def ratio(self) -> float:
        return self.participation_ratio_times_dim


def eigenstate_overlap_analysis(
    sd: SpectralData, n_bins: int = 50, weight_fraction: float = 0.98
) -> OverlapAnalysis:
    """Fit ln|c_E|^2 against E on energy-binned means and test the residuals.

    The fit window covers the central `weight_fraction` of the spectral
    weight; binned means are fit by weighted least squares to
    f(E) = exp(a + b E), and |c_E|^2 / f(E) inside the window is tested
    against the unit exponential law. Also reports D * sum |c_E|^4.
    """
    p = sd.populations
    e = sd.eigenvalues
    d = e.size
    ratio = float(d * np.sum(p**2))
    cum = np.cumsum(p)
    tail = (1.0 - weight_fraction) / 2.0
    lo_i = int(np.searchsorted(cum, tail))
    hi_i = int(np.searchsorted(cum, 1.0 - tail))
    hi_i = min(max(hi_i, lo_i + 2), d - 1)
    e_lo, e_hi = float(e[lo_i]), float(e[hi_i])
    mask = (e >= e_lo) & (e <= e_hi)
    if mask.sum() < 4:
        raise FitError("too few eigenstates in the fit window")
    edges = np.linspace(e_lo, e_hi, n_bins + 1)
    which = np.clip(np.digitize(e[mask], edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins).astype(float)
    sums = np.bincount(which, weights=p[mask], minlength=n_bins)
    good = (counts > 0) & (sums > 0)
    if good.sum() < 2:
        raise FitError(f"only {int(good.sum())} populated bins; cannot fit a slope")
    centers = 0.5 * (edges[:-1] + edges[1:])[good]
    y = np.log(sums[good] / counts[good])
    wts = counts[good]
    design = np.stack([np.ones_like(centers), centers], axis=1)
    sw = np.sqrt(wts)
    sol, residuals, rank, _ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    if rank < 2:
        raise FitError(f"degenerate envelope fit (rank {rank}); residuals {residuals}")
    a_fit, b_fit = float(sol[0]), float(sol[1])
    f = np.exp(a_fit + b_fit * e[mask])
    rescaled = p[mask] / f
    rescaled = rescaled / rescaled.mean()
    report = pt_test(rescaled, target="exponential")
    return OverlapAnalysis(
        beta_fit=b_fit,
        log_prefactor=a_fit,
        pt_report=report,
        participation_ratio_times_dim=ratio,
        window=(e_lo, e_hi),
        n_fit_bins=int(good.sum()),
    )
