"""Random-matrix laboratory: GUE sampling, finite-interval convergence, gap statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, FitError, check_cap, task_rng
from .ensembles import finite_time_frobenius_distances
from .hilbert import HermitianOperator, qubit_or_flat_dims
from .spectral import basis_state_measure


def sample_gue(d: int, rng: np.random.Generator) -> HermitianOperator:
    """Gaussian unitary ensemble with off-diagonal variance 1/d.

    The eigenvalue density converges to the semicircle on [-2, 2].
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(d)
    h = (g + g.conj().T) / 2
    return HermitianOperator(h, qubit_or_flat_dims(d))


def sample_real_symmetric(d: int, rng: np.random.Generator) -> HermitianOperator:
    """Real-symmetric Gaussian matrix with the same semicircle normalization."""
    if d < 2:
        raise ValueError("d must be >= 2")
    g = rng.standard_normal((d, d)) * math.sqrt(2.0 / d)
    h = (g + g.T) / 2
    return HermitianOperator(h.astype(complex), qubit_or_flat_dims(d))


def semicircle_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of the radius-2 semicircle law."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


@dataclass(frozen=True)
class ConvergenceCurve:
    """Distance between finite- and infinite-interval moments across interval widths."""

    k: int
    tau_grid: np.ndarray
    frobenius: np.ndarray                    # aggregated distance per tau
    squared_frobenius_mean: np.ndarray | None  # mean of d^2 (ensemble mean only)
    aggregation: str                         # single-instance | ensemble-mean
    sample_count: int

    def __post_init__(self):
        if np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        if not np.all(np.isfinite(self.frobenius) & (self.frobenius >= 0)):
            raise ValueError("distances must be finite and nonnegative")


def default_tau_grid(d: int, points: int = 30, decades: tuple[float, float] = (0.0, 6.0)) -> np.ndarray:
    """Log-spaced interval widths in units of the inverse mean level spacing.

    The mean level spacing of the radius-2 semicircle at dimension d is 4/d.
    """
    spacing = 4.0 / d
    return np.logspace(decades[0], decades[1], points) / spacing


def convergence_experiment(
    d: int,
    k: int,
    tau_grid: Sequence[float] | None = None,
    n_samples: int = 1,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> ConvergenceCurve:
    """Distance of finite-interval k-th moments to their infinite-interval limit.

    One matrix per sample is drawn from the GUE with a counter-based stream
    keyed by (seed, sample), so any execution order reproduces the data. The
    initial state is the basis state |0>, whose `SpectralMeasure` (eigenvalues
    and populations, no eigenvectors) is all the distance kernel reads. One
    sample gives a single-instance curve; more give the ensemble mean of the
    distance and of its square.
    """
    taus = default_tau_grid(d) if tau_grid is None else np.asarray(tau_grid, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau grid must be finite")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    all_d = np.empty((n_samples, taus.size))
    for i in range(n_samples):
        sm = basis_state_measure(sample_gue(d, task_rng(seed, i)), caps)
        all_d[i] = finite_time_frobenius_distances(sm, k, taus, caps)
    if n_samples == 1:
        return ConvergenceCurve(k, taus, all_d[0], None, "single-instance", 1)
    return ConvergenceCurve(
        k, taus, all_d.mean(axis=0), (all_d**2).mean(axis=0), "ensemble-mean", n_samples
    )


@dataclass(frozen=True)
class GapHistogram:
    order: str
    edges: np.ndarray
    density: np.ndarray  # normalized so the integral is 1

    def density_at_zero(self) -> float:
        mid = np.searchsorted(self.edges, 0.0) - 1
        return float(self.density[mid])

    def peak_density(self) -> float:
        return float(self.density.max())


def gap_histograms(
    spectra: Sequence[np.ndarray],
    order: str = "gaps",
    bins: int = 201,
    half_range: float | None = None,
) -> GapHistogram:
    """Histogram of eigenvalue gaps E_i - E_j, or of sum-gaps E_i + E_j - E_k - E_l.

    For "gaps" the i = j diagonal is excluded; for "gap-of-gaps" the trivially
    vanishing pair combinations ((i,j) equal to (k,l) or to (l,k)) are
    excluded. The histogram is accumulated per spectrum over a fixed symmetric
    range and normalized to unit area.
    """
    if order not in ("gaps", "gap-of-gaps"):
        raise ValueError("order must be 'gaps' or 'gap-of-gaps'")
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    d_max = max(s.size for s in spectra)
    check_cap(DEFAULT_CAPS, "max_moment_entries", d_max**2 if order == "gaps" else d_max**4)
    if half_range is None:
        w = max(float(s.max() - s.min()) for s in spectra)
        half_range = w if order == "gaps" else 2.0 * w
    edges = np.linspace(-half_range, half_range, bins + 1)
    counts = np.zeros(bins)
    total = 0
    for s in spectra:
        d = s.size
        if order == "gaps":
            diff = s[:, None] - s[None, :]
            vals = diff[~np.eye(d, dtype=bool)]
        else:
            sums = (s[:, None] + s[None, :]).ravel()
            pair = np.arange(d * d)
            swap = (pair % d) * d + (pair // d)
            diff = sums[:, None] - sums[None, :]
            mask = np.ones((d * d, d * d), dtype=bool)
            mask[pair, pair] = False
            mask[pair, swap] = False
            vals = diff[mask]
        c, _ = np.histogram(vals, bins=edges)
        counts += c
        total += vals.size
    density = counts / (total * (edges[1] - edges[0]))
    return GapHistogram(order, edges, density)


class PowerLawFit(NamedTuple):
    slope: float
    stderr: float
    n_points: int


def fit_power_law(
    tau: Sequence[float], values: Sequence[float], window: tuple[float, float]
) -> PowerLawFit:
    """Least-squares slope of ln(values) against ln(tau) inside a tau window."""
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (tau >= window[0]) & (tau <= window[1]) & (values > 0)
    if sel.sum() < 4:
        raise FitError(f"only {int(sel.sum())} points in window {window}; need >= 4")
    x = np.log(tau[sel])
    y = np.log(values[sel])
    design = np.stack([np.ones_like(x), x], axis=1)
    sol, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ sol
    dof = max(x.size - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    return PowerLawFit(float(sol[1]), float(math.sqrt(cov[1, 1])), int(sel.sum()))


def fit_curve_slope(curve: ConvergenceCurve, window: tuple[float, float], squared: bool = False) -> PowerLawFit:
    """Power-law slope of a convergence curve (optionally of the mean squared distance)."""
    y = curve.squared_frobenius_mean if squared else curve.frobenius
    if y is None:
        raise ValueError("curve carries no squared-mean data")
    return fit_power_law(curve.tau_grid, y, window)
