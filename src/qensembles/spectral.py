"""Eigen-engine: diagonalization, state binding, and Chebyshev propagation of
one state without a spectrum.

`_eigh` is the one call of the dense eigensolver. `model_spectrum` runs it in
the Hamiltonian it has just built, `diagonalize` on a copy of the caller's.
`_tridiagonal_levels` gives the eigenvalues alone of a real tridiagonal
matrix in O(d) memory, which are the levels of `rmt._gue_measure`. It calls
LAPACK dsterf through ctypes, at the address that scipy's `cython_lapack`
exports: the same routine from the same library as scipy's f2py `dsterf` and
`eigh_tridiagonal`, so the levels are bit-identical, but a ctypes call
releases the GIL, which those hold. The GUE draws of
`rmt.convergence_experiment` therefore solve their levels in parallel threads.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import cython_lapack

# y += A x for a CSR matrix A, into the caller's y. The products of `propagate` call
# it directly: at d = 1024, scipy's `@` spends longer on dispatch and on a new
# result array than on the product itself.
from scipy.sparse._sparsetools import csr_matvec

from ._util import Caps, DEFAULT_CAPS, NumericalFailureError, check_cap
from .hilbert import (
    HermitianOperator,
    PureState,
    build_hamiltonian,
    model_terms,
)


@dataclass(frozen=True)
class SpectralData:
    """Eigen-decomposition of a Hermitian operator, optionally bound to an initial state.

    Eigenvalues ascend; eigenvectors are columns with a deterministic phase
    gauge (largest-magnitude component real positive). `overlaps` holds
    c_E = <E|psi0> when bound; a bound spectrum's degenerate groups are
    rotated, not phase-fixed, so that psi0 overlaps one vector of each
    (`bind_state`).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    overlaps: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def populations(self) -> np.ndarray:
        if self.overlaps is None:
            raise ValueError("spectral data is not bound to an initial state")
        return np.abs(self.overlaps) ** 2

    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


# Columns per block of `_fix_eigenvector_phases`, so that its |v| is never d x d.
PHASE_COLUMNS = 64


def _fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive, in place."""
    idx = np.empty(v.shape[1], dtype=np.intp)
    for lo in range(0, v.shape[1], PHASE_COLUMNS):
        idx[lo : lo + PHASE_COLUMNS] = np.abs(v[:, lo : lo + PHASE_COLUMNS]).argmax(axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.abs(np.where(np.abs(lead) > 0, lead, 1)), 1.0)
    v *= np.conj(phases)
    return v


def _eigh(a: np.ndarray) -> SpectralData:
    """Eigenpairs of the Hermitian, Fortran-ordered complex matrix a, which is destroyed.

    LAPACK ?heevd works in a itself, so no copy of it is made. It overwrites a
    with the eigenvectors and needs d^2 + 2d complex and 1 + 5d + 2d^2 real
    workspace, so the peak is about 3.5 d x d complex matrices. Phases are
    then fixed in place, PHASE_COLUMNS columns at a time, which adds no d x d
    temporary.
    """
    try:
        w, v = scipy.linalg.eigh(a, driver="evd", overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"eigensolver failed (dim={a.shape[0]}): {exc}") from exc
    return SpectralData(w, _fix_eigenvector_phases(v))


def diagonalize(h: HermitianOperator, caps: Caps = DEFAULT_CAPS) -> SpectralData:
    """Full eigen-decomposition with ascending eigenvalues and fixed phases.

    h is left unchanged: the solver runs on a Fortran-ordered copy of it, so
    the peak is h plus the solver's own (see `_eigh`).
    """
    check_cap(caps, "max_spectrum_dim", h.dim)
    return _eigh(np.array(h.entries, order="F"))


def model_spectrum(model: Mapping, caps: Caps = DEFAULT_CAPS) -> SpectralData:
    """`diagonalize(build_hamiltonian(model))`, bit for bit, without a copy of H.

    The chain's dimension is checked against `max_spectrum_dim` before its
    Hamiltonian is built, and the solver then runs in the Fortran-ordered
    matrix that `build_hamiltonian` allocated, so the peak is that of `_eigh`
    alone.
    """
    check_cap(caps, "max_spectrum_dim", 2 ** model_terms(model)[0])
    return _eigh(build_hamiltonian(model, caps).entries)


# Levels form one degenerate group in `bind_state` while each gap to the next is
# within this fraction of the spectral width. xxz's exact degeneracies lie below
# 1e-16 of the width; mfim's smallest gap is 1.9e-8 of it at n = 10, 1.1e-10 at n = 11.
DEGENERACY_RTOL = 1e-12


def bind_state(sd: SpectralData, psi0: PureState) -> SpectralData:
    """Attach initial-state overlaps c_E = <E|psi0>, one nonzero per eigenspace.

    Sorted levels form one group while each gap to the next is within
    DEGENERACY_RTOL of the spectral width. The eigenvectors V_G of each group
    are rotated by a unitary whose first column is c_G / |c_G|: the first
    rotated vector is P_G psi0 / |P_G psi0| with overlap |c_G|, and the rest
    have overlap 0. Every time average of the bound spectrum, which dephases
    vector by vector, then dephases each eigenspace as a whole: the
    diagonal ensemble is sum_E P_E rho0 P_E. Evolution is unchanged,
    V_G c_G being kept. A spectrum with no group returns the parent's
    eigenvalue and eigenvector arrays.
    """
    if psi0.dim != sd.dim:
        raise ValueError("state dimension does not match the spectrum")
    c = sd.eigenvectors.conj().T @ psi0.amplitudes
    joined = np.diff(sd.eigenvalues) <= DEGENERACY_RTOL * sd.spectral_width()
    if not joined.any():
        return SpectralData(sd.eigenvalues, sd.eigenvectors, c)
    v = sd.eigenvectors.copy()
    # each run of joined gaps, lo .. hi - 1, joins the levels lo .. hi
    for lo, hi in np.flatnonzero(np.diff(np.r_[False, joined, False])).reshape(-1, 2):
        g = slice(lo, hi + 1)
        norm = np.linalg.norm(c[g])
        if norm == 0:
            continue
        first = c[g] / norm
        u, _ = np.linalg.qr(np.column_stack([first, np.eye(hi + 1 - lo)]))
        u[:, 0] = first  # Householder QR gives it up to a phase
        v[:, g] = v[:, g] @ u
        c[g] = 0.0
        c[lo] = norm
    return SpectralData(sd.eigenvalues, v, c)


class SpectralMeasure(NamedTuple):
    """Ascending eigenvalues E and the populations |<E|0>|^2 of basis state |0>.

    Everything the Frobenius distance kernel reads of a spectrum bound to
    |0>, with no eigenvector; `rmt._gue_measure` draws one for the GUE.
    """

    eigenvalues: np.ndarray
    populations: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _lapack_function(name: str, *argtypes):
    """The LAPACK routine `name` of scipy's `cython_lapack`, as a ctypes function.

    The capsule's name and pointer are read with prototypes of our own over
    `ctypes.pythonapi`, so no attribute of the shared `pythonapi` functions is set.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
# dsterf(n, d, e, info): the eigenvalues of the tridiagonal (d, e) into d, ascending
_dsterf = _lapack_function("dsterf", _INT, ctypes.c_void_p, ctypes.c_void_p, _INT)


def _tridiagonal_levels(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real tridiagonal matrix by LAPACK dsterf, in O(d) memory.

    dsterf overwrites its arrays, so it runs on float64 copies of `diag` and
    `off`. The ctypes call releases the GIL for the solve, so threads that
    draw spectra solve them in parallel.
    """
    d = np.array(diag, dtype=np.float64)
    e = np.array(off, dtype=np.float64)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError(f"off must have length diag.size - 1, got shapes {d.shape} and {e.shape}")
    info = ctypes.c_int(0)
    _dsterf(ctypes.c_int(d.size), d.ctypes.data, e.ctypes.data, info)
    if info.value != 0:
        raise NumericalFailureError(f"tridiagonal eigensolver failed (dim={d.size}): dsterf info = {info.value}")
    return d


def _finite_times(times) -> np.ndarray:
    """times (evolution times or interval widths) as a float array; ValueError unless all are finite."""
    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"times must be finite, got {t}")
    return t


def evolve_grid(sd: SpectralData, times: Sequence[float]) -> np.ndarray:
    """Column t of the result is exp(-i H t)|psi0> for the state sd is bound to;
    one BLAS call for the grid. Raises ValueError on an unbound spectrum."""
    if sd.overlaps is None:
        raise ValueError("spectral data must be bound to an initial state")
    t = _finite_times(times)
    phases = np.exp(-1j * np.outer(sd.eigenvalues, t))
    return sd.eigenvectors @ (sd.overlaps[:, None] * phases)


# Truncation target of `propagate`: the Bessel tail left out of the Chebyshev sum.
CHEBYSHEV_TAIL = 2.0**-53


def _bessel_j(orders: int, x: float) -> np.ndarray:
    """J_k(x) for k < orders by Miller's backward recurrence
    J_{k-1} = (2k / x) J_k - J_{k+1}, started from J_orders = 0 and
    J_{orders-1} = 1 and normalized by J_0 + 2 sum_k J_2k = 1.

    The recurrence runs down from where the J_k are negligible, the direction
    in which J is the dominant solution, so the start's error dies out. Values
    that would overflow are scaled down by 1e-250 with everything above them.
    J_k(-x) = (-1)^k J_k(x). Below |x| = 1e-30, where the factors 2k / |x|
    could overflow, J_k(x) is its leading term (x/2)^k / k! to double
    precision, and exactly delta_k0 at x = 0.
    """
    if abs(x) < 1e-30:
        return np.cumprod(np.concatenate(([1.0], x / (2.0 * np.arange(1, orders)))))
    j = np.zeros(orders)
    ax, after, cur = abs(x), 0.0, 1.0
    for k in range(orders - 1, 0, -1):
        j[k] = cur
        after, cur = cur, (2.0 * k / ax) * cur - after
        if abs(cur) > 1e250:
            j[k:] *= 1e-250
            after, cur = after * 1e-250, cur * 1e-250
    j[0] = cur
    j /= j[0] + 2.0 * j[2::2].sum()
    if x < 0:
        j[1::2] *= -1.0
    return j


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(x) for k < K, the first order whose tail
    2 sum_{k>=K} |J_k(x)| is below CHEBYSHEV_TAIL.

    J_k is evaluated up to order |x| + 20 |x|^(1/3) + 40 (`_bessel_j`). Past
    the turning point k = |x| the Bessel values fall off like an Airy
    function of (k - |x|) / |x|^(1/3), so the orders left out lie below 1e-30.
    """
    orders = np.arange(int(abs(x) + 20.0 * np.cbrt(abs(x) + 1.0) + 40.0))
    j = _bessel_j(orders.size, x)
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]  # tail[k] = 2 sum_{i>=k} |J_i(x)|
    below = np.flatnonzero(tail < CHEBYSHEV_TAIL)
    if below.size == 0:
        raise NumericalFailureError(f"Chebyshev series of exp(-i x y) did not converge at x = {x}")
    terms = int(below[0])  # >= 1: the weights 2|J_k| of all orders sum to at least 1
    c = 2.0 * j[:terms] * (-1j) ** (orders[:terms] % 4)
    c[0] = j[0]
    return c


def _interleaved(h: scipy.sparse.csr_matrix, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of scale H (x) I_2 for a real CSR matrix H: scale H acting on
    the interleaved real and imaginary parts of a complex vector."""
    p, j = h.indptr, h.indices
    counts = np.diff(p)
    even = np.repeat(p[:-1], counts) + np.arange(h.nnz, dtype=p.dtype)  # row 2i
    odd = even + np.repeat(counts, counts)  # row 2i + 1, right after it
    indptr = np.empty(2 * p.size - 1, dtype=p.dtype)
    indptr[0::2], indptr[1::2] = 2 * p, 2 * p[:-1] + counts
    indices, data = np.empty(2 * h.nnz, dtype=j.dtype), np.empty(2 * h.nnz)
    indices[even], indices[odd] = 2 * j, 2 * j + 1
    data[even] = data[odd] = scale * h.data
    return indptr, indices, data


def propagate(h: scipy.sparse.csr_matrix, interval: tuple[float, float], psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi0 by the Chebyshev expansion of Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967 (1984).

    h is a real or complex CSR matrix (from `hilbert.sparse_hamiltonian`, say)
    whose spectrum lies in interval = [lo, hi], and psi0 a vector of its
    size. With centre c = (lo + hi) / 2 and half-width r = (hi - lo) / 2 the
    spectrum of S = (H - c) / r lies in [-1, 1], and the result is
    exp(-i c t) sum_{k<K} (2 - delta_k0) (-i)^k J_k(r t) T_k(S) psi0, with
    T_k(S) psi0 from the three-term recurrence, one sparse product per term:
    (2/r) H v is added into a vector that already holds -(2c/r) v minus the
    previous term. The scaled matrix is formed once per call; for a real h
    it is the real CSR matrix (2/r) H (x) I_2, which acts on the interleaved
    real and imaginary parts of a complex vector, so every product is real
    arithmetic. A zero-width interval, or t = 0, leaves one term: the result
    is exp(-i c t) psi0, and r is never divided by.

    Error: ||T_k(S)|| <= 1, so the left-out terms move the result by at most
    the Bessel tail 2 sum_{k>=K} |J_k(r t)| ||psi0||, and K is the first order
    that makes this tail smaller than 2^-53 ||psi0||. Rounding in the
    recurrence and in the Bessel values adds about 2^-53 per term; any
    double-precision method errs at this level, since rounding H by a relative
    eps moves the state by up to eps ||H|| |t|. Altogether the result lies
    within 2 K 2^-53 ||psi0|| of exp(-iHt) psi0: against exact and 40-digit
    references (n = 3 to 8, t = 100 and 1e3) the error norm was 0.9 to 1.2
    K 2^-53, and no entry was off by more than K 2^-53.

    Cost: K is about r |t| + 11 (r |t|)^(1/3) sparse products, so the cost
    grows linearly in |t|. On a 2-core host, mfim at t = 20 takes K = 399
    terms at n = 10, 471 at n = 12 and 542 at n = 14. With a full-space
    matrix of 2^n rows the sum takes about 12 ms, 43 ms and 0.32 s; with the
    reflection-even sector of `hilbert.sparse_hamiltonian`, whose 528, 2,080
    and 8,256 rows are about half as many, 5.7 ms, 23 ms and 0.14 s. A dense
    diagonalization takes 1.0 s at n = 10. For long times diagonalizing is
    cheaper: at n = 8 and t = 1e3 the sum takes 13,000 terms and 0.12 s, the
    diagonalization 0.024 s; the package's pipelines and benchmark quench to
    t <= 20. Raises ValueError for a non-finite t, or for a psi0 whose shape
    is not (h.shape[1],), since the sparse products check no bounds.
    """
    _finite_times(t)
    psi = np.ascontiguousarray(psi0, dtype=complex)
    if psi.shape != (h.shape[1],):
        raise ValueError(f"state of shape {psi.shape} does not fit a matrix of shape {h.shape}")
    lo, hi = interval
    centre, r = (lo + hi) / 2.0, (hi - lo) / 2.0
    c = _chebyshev_coefficients(r * t)
    out = c[0] * psi
    if c.size > 1:
        arrays, view = (h.indptr, h.indices, (2.0 / r) * h.data), complex
        if h.dtype.kind == "f":
            arrays, view = _interleaved(h, 2.0 / r), np.float64
        size = arrays[0].size - 1
        shift = -2.0 * centre / r

        def add_product(v, acc):  # acc += (2/r) H v; acc holds the rest of the step
            csr_matvec(size, size, *arrays, v.view(view), acc.view(view))

        prev, cur, nxt = psi.copy(), shift * psi, np.empty_like(psi)
        add_product(psi, cur)
        cur *= 0.5
        out += c[1] * cur
        for ck in c[2:]:
            np.multiply(cur, shift, out=nxt)
            nxt -= prev
            add_product(cur, nxt)
            prev, cur, nxt = cur, nxt, prev
            out += ck * cur
    return np.exp(-1j * centre * t) * out
