"""Random-matrix laboratory: GUE sampling and finite-interval convergence.

For beta = 2 the spectral measure of |0> is the GUE levels with weights
|<E|0>|^2 that are Dirichlet(1, ..., 1) and independent of the levels, since
GUE eigenvectors are Haar. `_gue_measure` draws it directly: the levels of
the tridiagonal model of Dumitriu and Edelman by LAPACK ?sterf, in O(d), and
the weights from d exponential draws. `convergence_experiment` reads only
that measure, and draws its samples' measures in parallel threads, since the
level solve releases the GIL; `sample_gue` gives the same draw as a dense
matrix, for dense second methods.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import Caps, DEFAULT_CAPS, check_cap, task_rng
from .ensembles import _check_frobenius_caps, finite_time_frobenius_distances
from .hilbert import HermitianOperator, qubit_or_flat_dims
from .spectral import SpectralMeasure, _finite_times, _tridiagonal_levels


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


def _gue_measure(d: int, rng: np.random.Generator) -> SpectralMeasure:
    """The spectral measure of |0> for one GUE draw at dimension d.

    The levels are the eigenvalues of one `_gue_tridiagonal` draw, by LAPACK
    ?sterf (`spectral._tridiagonal_levels`); each lies within a few
    eps ||T|| of the exact one, about 3e-15 at ||T|| = 2. The populations
    are e / sum(e) for d standard exponential draws e, taken next from the
    same stream: the Dirichlet(1, ..., 1) law of |<E|0>|^2 for Haar
    eigenvectors, independent of the levels. Memory is O(d).
    """
    levels = _tridiagonal_levels(*_gue_tridiagonal(d, rng))
    e = rng.standard_exponential(d)
    return SpectralMeasure(levels, e / e.sum())


# Rows per block in which `sample_gue` writes its matrix.
SAMPLE_ROWS = 64


def sample_gue(d: int, rng: np.random.Generator) -> HermitianOperator:
    """Dense Hermitian form of one `_gue_measure` draw (E, p).

    The matrix is R diag(E) R, where R = I - 2 v v^T / (v^T v) with
    v = sqrt(p) + |0> is the Householder reflection that takes |0> to
    -sqrt(p): its eigenvalues are E, and the population of |0> on level E_j
    is p_j. Its levels and spectral measure of |0> therefore follow the GUE
    law exactly, and the eigenvalue density converges to the semicircle on
    [-2, 2]. Its entries do not: they are real, so only unitarily invariant
    quantities and those of |0> keep their GUE law. The entries are
    E_i delta_ij - (u_i v_j + v_i u_j) for a vector u, so the matrix is
    exactly symmetric; it is written SAMPLE_ROWS rows at a time, and the
    only d x d array is the complex result.
    """
    levels, p = _gue_measure(d, rng)
    v = np.sqrt(p)
    v[0] += 1.0
    scale = 2.0 / (v @ v)
    w = scale * levels * v
    u = w - (0.5 * scale * (w @ v)) * v  # R diag(E) R = diag(E) - u v^T - v u^T
    h = np.empty((d, d), dtype=complex)
    for lo in range(0, d, SAMPLE_ROWS):
        i = np.arange(lo, min(lo + SAMPLE_ROWS, d))
        block = -(np.outer(u[i], v) + np.outer(v[i], u))
        block[i - lo, i] += levels[i]
        h[lo : lo + i.size] = block
    return HermitianOperator(h, qubit_or_flat_dims(d))


@dataclass(frozen=True)
class ConvergenceCurve:
    """Distance between finite- and infinite-interval moments across interval widths:
    its mean and the mean of its square over `sample_count` samples, per tau."""

    k: int
    tau_grid: np.ndarray
    frobenius: np.ndarray
    squared_frobenius_mean: np.ndarray
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
    (seed, sample), so any execution order reproduces the data. The draws run
    in a pool of min(n_samples, usable cores) threads, which solve their
    levels in parallel (`spectral._tridiagonal_levels` releases the GIL). The
    distance kernel runs on the calling thread, on each measure as it
    arrives: run in the pool too, the kernels took up to 20 % more CPU time
    on two cores for little wall time. The initial state is the basis state
    |0>, whose `SpectralMeasure` (eigenvalues and populations, no
    eigenvectors) is all the distance kernel reads. The curve holds the mean
    of the distance and of its square over the samples; for one sample these
    are its own distance and that distance squared.

    Each sample is drawn by `_gue_measure`, so no d x d matrix is formed, no
    Householder reduction runs and no eigenvector is computed. Each draw
    needs O(d) memory, and the measures held until the kernel reads them
    O(n_samples d); the peak is the distance kernel's row blocks, 2 MB at
    d = 1024, k = 1. A level error dE moves the distance at width tau by a
    relative amount of order tau dE: with the ?sterf levels about 3e-15 off,
    the curves at d = 32 and 64 are up to 4e-9 off, relative, at the largest
    default tau, against the same draws with 30-digit levels.
    `max_spectrum_dim` (d),
    `max_multiset_terms` (C(d+k-1, k)) and `max_sinc_terms` (its square) are
    checked before the first draw.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    taus = default_tau_grid(d) if tau_grid is None else _finite_times(tau_grid)
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    check_cap(caps, "max_spectrum_dim", d)
    _check_frobenius_caps(d, k, caps)
    all_d = np.empty((n_samples, taus.size))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(min(n_samples, cores)) as pool:
        draws = [pool.submit(_gue_measure, d, task_rng(seed, i)) for i in range(n_samples)]
        for i, draw in enumerate(draws):
            all_d[i] = finite_time_frobenius_distances(draw.result(), k, taus, caps)
    return ConvergenceCurve(k, taus, all_d.mean(axis=0), (all_d**2).mean(axis=0), n_samples)
