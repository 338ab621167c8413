"""Random-matrix laboratory: GUE sampling and finite-interval convergence.

GUE matrices are drawn in the tridiagonal form of Dumitriu and Edelman: O(d)
Gaussian and chi draws whose eigenvalues, and spectral measure of |0>, have
the GUE law. `convergence_experiment` reads only that measure, so it solves
the tridiagonal matrix directly, for its eigenvalues and the first components
of its eigenvectors only; `sample_gue` gives the same draw as a dense matrix,
for dense second methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, FitError, check_cap, task_rng
from .ensembles import _check_frobenius_caps, finite_time_frobenius_distances
from .hilbert import HermitianOperator, qubit_or_flat_dims
from .spectral import _tridiagonal_measure


def _gue_tridiagonal(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Dumitriu-Edelman beta = 2 matrix at dimension d.

    The diagonal is N(0, 1/d) and off-diagonal entry i (i = 1 ... d-1) is
    chi_{2(d-i)} / sqrt(2d), drawn in that order, in O(d). This is the law of
    the real tridiagonal matrix that Householder reduction yields from the
    dense GUE matrix (g + g^dagger)/2, g = (a + i b)/sqrt(d) with a and b
    standard normal (Dumitriu and Edelman, J. Math. Phys. 43, 5830 (2002)).
    The reflections fix |0>, so the reduction keeps its spectral measure.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    diag = rng.standard_normal(d) / math.sqrt(d)
    off = np.sqrt(rng.chisquare(2.0 * np.arange(d - 1, 0, -1)) / (2.0 * d))
    return diag, off


def sample_gue(d: int, rng: np.random.Generator) -> HermitianOperator:
    """Dense Hermitian form of one `_gue_tridiagonal` draw.

    Its eigenvalues, and the spectral measure of basis state |0> (eigenvalues
    and populations |<E|0>|^2), follow the GUE law exactly; the eigenvalue
    density converges to the semicircle on [-2, 2]. Its entries do not: they
    are tridiagonal and real, so only unitarily invariant quantities and those
    of |0> keep their GUE law.
    """
    diag, off = _gue_tridiagonal(d, rng)
    h = np.zeros((d, d), dtype=complex)
    h.flat[:: d + 1] = diag
    h.flat[1 :: d + 1] = h.flat[d :: d + 1] = off
    return HermitianOperator(h, qubit_or_flat_dims(d))


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

    One GUE spectrum per sample is drawn with a counter-based stream keyed by
    (seed, sample), so any execution order reproduces the data. The initial
    state is the basis state |0>, whose `SpectralMeasure` (eigenvalues and
    populations, no eigenvectors) is all the distance kernel reads. One
    sample gives its own curve; more give the mean of the distance and of its
    square. The curve's `sample_count` tells which.

    Each sample is the tridiagonal matrix of `_gue_tridiagonal`, whose
    measure of |0> has the GUE law, so no d x d matrix is formed and no
    Householder reduction runs: `_tridiagonal_measure` needs O(d) memory, and
    the peak is the distance kernel's row blocks, 2 MB at d = 1024, k = 1.
    A draw outside the solver's certified domain raises NumericalFailureError,
    with no fallback; none of about 2,000 draws at d = 2 to 4096 did.
    `max_spectrum_dim` (d),
    `max_multiset_terms` (C(d+k-1, k)) and `max_sinc_terms` (its square) are
    checked before the first draw.
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
        sm = _tridiagonal_measure(*_gue_tridiagonal(d, task_rng(seed, i)))
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
