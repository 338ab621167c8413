"""Random-matrix laboratory: GUE sampling and finite-interval convergence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, FitError, check_cap, task_rng
from .ensembles import _check_frobenius_caps, finite_time_frobenius_distances
from .hilbert import HermitianOperator, qubit_or_flat_dims
from .spectral import _tridiagonal_measure, _tridiagonalize


# Rows per drawn block of `sample_gue`, and side of the square tiles it
# symmetrizes: temporaries stay at GUE_BLOCK rows of h.
GUE_BLOCK = 64


def sample_gue(d: int, rng: np.random.Generator) -> HermitianOperator:
    """Gaussian unitary ensemble with off-diagonal variance 1/d.

    The eigenvalue density converges to the semicircle on [-2, 2]. h is
    (g + g^dagger)/2 for g = (a + i b)/sqrt(d) with a and b standard normal,
    drawn in that order; its real and imaginary parts are formed separately,
    each scaled by 1/sqrt(d) as numpy's complex-by-real division does.

    h is drawn where it lies: the scaled a, then b, are written into its real
    and imaginary parts GUE_BLOCK rows at a time, and each pair of tiles
    (I, J), (J, I) with I <= J takes (a + a^T)/2 and (b - b^T)/2 once, written
    to both triangles. The lower triangle's imaginary part is 0.0 - t, which
    keeps the +0.0 of b_ij - b_ji when the two are equal. The peak is h plus
    temporaries of GUE_BLOCK rows (the draw's buffer, `HermitianOperator`'s
    Hermiticity check): 1.2 d x d complex matrices at d = 1024.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    scale = 1.0 / math.sqrt(d)
    h = np.empty((d, d), dtype=complex)
    re, im = h.real, h.imag
    buf = np.empty((min(GUE_BLOCK, d), d))
    for part in (re, im):
        for lo in range(0, d, GUE_BLOCK):
            rows = buf[: min(GUE_BLOCK, d - lo)]
            rng.standard_normal(out=rows)
            np.multiply(rows, scale, out=part[lo : lo + GUE_BLOCK])
    for lo in range(0, d, GUE_BLOCK):
        ti = slice(lo, lo + GUE_BLOCK)
        for jlo in range(lo, d, GUE_BLOCK):
            tj = slice(jlo, jlo + GUE_BLOCK)
            t = re[ti, tj] + re[tj, ti].T
            t *= 0.5
            re[ti, tj] = t
            re[tj, ti] = t.T
            t = im[ti, tj] - im[tj, ti].T
            t *= 0.5
            im[ti, tj] = t
            np.subtract(0.0, t.T, out=im[tj, ti])
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
    frobenius: np.ndarray                    # one instance's distance, or the mean, per tau
    squared_frobenius_mean: np.ndarray | None  # mean of d^2 (sample_count > 1 only)
    sample_count: int

    def __post_init__(self):
        if np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        if not np.all(np.isfinite(self.frobenius) & (self.frobenius >= 0)):
            raise ValueError("distances must be finite and nonnegative")


def default_tau_grid(d: int) -> np.ndarray:
    """30 log-spaced interval widths from 1 to 1e6 inverse mean level spacings.

    The mean level spacing of the radius-2 semicircle at dimension d is 4/d.
    """
    return np.logspace(0.0, 6.0, 30) / (4.0 / d)


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
    sample gives its own curve; more give the mean of the distance and of its
    square. The curve's `sample_count` tells which.

    Each matrix is tridiagonalized in the array it was drawn in (as
    `spectral.basis_state_measure` does on a copy), so one sample holds one
    d x d complex matrix at a time, and 1.2 such matrices at its peak at
    d = 1024, k = 1. `max_spectrum_dim` (d), `max_multiset_terms` (C(d+k-1, k))
    and `max_sinc_terms` (its square) are checked before the first draw.
    """
    taus = default_tau_grid(d) if tau_grid is None else np.asarray(tau_grid, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau grid must be finite")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    check_cap(caps, "max_spectrum_dim", d)
    _check_frobenius_caps(d, k, caps)
    all_d = np.empty((n_samples, taus.size))
    for i in range(n_samples):
        h = sample_gue(d, task_rng(seed, i)).entries
        diag, off = _tridiagonalize(h)
        del h  # the draw is freed before T's eigenvectors are allocated
        sm = _tridiagonal_measure(diag, off)
        all_d[i] = finite_time_frobenius_distances(sm, k, taus, caps)
    if n_samples == 1:
        return ConvergenceCurve(k, taus, all_d[0], None, 1)
    return ConvergenceCurve(k, taus, all_d.mean(axis=0), (all_d**2).mean(axis=0), n_samples)


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
