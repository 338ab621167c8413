"""Eigen-engine: diagonalization, evolution, diagonal ensemble, resonance checks, twirling,
and Chebyshev propagation of one state without a spectrum."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.special

from ._util import Caps, DEFAULT_CAPS, NumericalFailureError, check_cap
from .hilbert import (
    HermitianOperator,
    MeasurementBasis,
    PureState,
    _require_sites,
    apply_local_rotations,
    qubit_or_flat_dims,
)


@dataclass(frozen=True)
class SpectralData:
    """Eigen-decomposition of a Hermitian operator, optionally bound to an initial state.

    Eigenvalues ascend; eigenvectors are columns with a deterministic phase
    gauge (largest-magnitude component real positive). `overlaps` holds
    c_E = <E|psi0> when bound.
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


class FactoredTwoCopy(NamedTuple):
    """Sum_E w_E |E,E><E,E| kept factored: weights w_E and the energy order."""

    weights: np.ndarray
    eigenvalues: np.ndarray


def _fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    idx = np.abs(v).argmax(axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.abs(np.where(np.abs(lead) > 0, lead, 1)), 1.0)
    return v * np.conj(phases)


def diagonalize(h: HermitianOperator, caps: Caps = DEFAULT_CAPS) -> SpectralData:
    """Full eigen-decomposition with ascending eigenvalues and fixed phases."""
    d = h.dim
    check_cap(caps, "max_spectrum_dim", d)
    # 'evr' keeps the workspace ~O(n) instead of zheevd's extra ~2 n^2,
    # which matters for the largest chains on small-memory hosts.
    driver = "evr" if d >= 8192 else "evd"
    try:
        w, v = scipy.linalg.eigh(h.entries, driver=driver, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        norm = float(np.linalg.norm(h.entries))
        raise NumericalFailureError(
            f"eigensolver failed (dim={d}, frobenius={norm:.3e}): {exc}"
        ) from exc
    return SpectralData(w, _fix_eigenvector_phases(v))


def bind_state(sd: SpectralData, psi0: PureState) -> SpectralData:
    """Attach initial-state overlaps c_E = <E|psi0>."""
    if psi0.dim != sd.dim:
        raise ValueError("state dimension does not match the spectrum")
    c = sd.eigenvectors.conj().T @ psi0.amplitudes
    return SpectralData(sd.eigenvalues, sd.eigenvectors, c)


class SpectralMeasure(NamedTuple):
    """Ascending eigenvalues E of an operator and the populations |<E|0>|^2 of basis state |0>."""

    eigenvalues: np.ndarray
    populations: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def basis_state_measure(h: HermitianOperator, caps: Caps = DEFAULT_CAPS) -> SpectralMeasure:
    """Spectral measure of basis state |0> from one tridiagonalization, without eigenvectors of h.

    The Householder reduction T = Q^dag H Q (LAPACK ?hetrd, uplo="L") builds Q
    from reflectors that all leave e_0 fixed, so Q e_0 = e_0 and |<E|0>|^2 is
    the squared first component of the matching eigenvector of the real
    tridiagonal T. No d x d eigenvector matrix of h is formed.
    """
    d = h.dim
    check_cap(caps, "max_spectrum_dim", d)
    lapack = scipy.linalg.lapack
    work, info = lapack.zhetrd_lwork(d, lower=1)
    if info == 0:
        _, diag, off, _, info = lapack.zhetrd(h.entries, lower=1, lwork=int(work.real))
    if info != 0:
        raise NumericalFailureError(f"Householder tridiagonalization failed (dim={d}): info={info}")
    try:
        w, y = scipy.linalg.eigh_tridiagonal(diag, off, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        norm = float(np.linalg.norm(h.entries))
        raise NumericalFailureError(
            f"tridiagonal eigensolver failed (dim={d}, frobenius={norm:.3e}): {exc}"
        ) from exc
    return SpectralMeasure(w, y[0] ** 2)


def _require_finite_times(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError(f"evolution times must be finite, got {t}")


def evolve_grid(sd: SpectralData, psi0: PureState, times: Sequence[float]) -> np.ndarray:
    """Column t of the result is exp(-i H t)|psi0>; one BLAS call for the grid.

    A bound spectrum must be bound to psi0: its stored overlaps are used, and
    ValueError is raised when they differ from <E|psi0> by more than 1e-12.
    """
    if psi0.dim != sd.dim:
        raise ValueError("state dimension does not match the spectrum")
    t = np.asarray(times, dtype=float)
    _require_finite_times(t)
    c = np.conj(psi0.amplitudes.conj() @ sd.eigenvectors)
    if sd.overlaps is not None:
        if not np.abs(c - sd.overlaps).max() <= 1e-12:  # NaN fails this test
            raise ValueError("the spectrum is bound to another initial state than psi0")
        c = sd.overlaps
    phases = np.exp(-1j * np.outer(sd.eigenvalues, t))
    return sd.eigenvectors @ (c[:, None] * phases)


def evolve(sd: SpectralData, psi0: PureState, t: float) -> PureState:
    amps = evolve_grid(sd, psi0, [float(t)])[:, 0]
    amps = amps / np.linalg.norm(amps)
    return PureState(amps, psi0.dims, "normalized")


# Truncation target of `propagate`: the Bessel tail left out of the Chebyshev sum.
CHEBYSHEV_TAIL = 2.0**-53


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(x) for k < K, the first order whose tail
    2 sum_{k>=K} |J_k(x)| is below CHEBYSHEV_TAIL.

    J_k is evaluated up to order |x| + 20 |x|^(1/3) + 40. Past the turning
    point k = |x| the Bessel values fall off like an Airy function of
    (k - |x|) / |x|^(1/3), so the orders left out lie below 1e-30.
    """
    orders = np.arange(int(abs(x) + 20.0 * np.cbrt(abs(x) + 1.0) + 40.0))
    j = scipy.special.jv(orders, x)
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]  # tail[k] = 2 sum_{i>=k} |J_i(x)|
    below = np.flatnonzero(tail < CHEBYSHEV_TAIL)
    if below.size == 0:
        raise NumericalFailureError(f"Chebyshev series of exp(-i x y) did not converge at x = {x}")
    terms = int(below[0])  # >= 1: the weights 2|J_k| of all orders sum to at least 1
    c = 2.0 * j[:terms] * (-1j) ** (orders[:terms] % 4)
    c[0] = j[0]
    return c


def propagate(h, a: float, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi0 by the Chebyshev expansion of Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967 (1984).

    h is any matrix with a `@` product (a CSR matrix from
    `hilbert.sparse_hamiltonian`, say) and a >= ||h|| a bound on its norm, so
    the spectrum of H/a lies in [-1, 1]. The result is
    sum_{k<K} (2 - delta_k0) (-i)^k J_k(a t) T_k(H/a) psi0, with T_k(H/a) psi0
    from the three-term recurrence, one product with h per term.

    Error: ||T_k(H/a)|| <= 1, so the left-out terms move the result by at most
    the Bessel tail 2 sum_{k>=K} |J_k(a t)| ||psi0||, and K is the first order
    that makes this tail smaller than 2^-53 ||psi0||. Rounding in the
    recurrence and in `scipy.special.jv` adds about 2^-53 per term; any
    double-precision method errs at this level, since rounding H by a relative
    eps moves the state by up to eps ||H|| |t|. Altogether the result lies
    within 2 K 2^-53 ||psi0|| of exp(-iHt) psi0: against exact and 40-digit
    references (n = 3 to 8, t = 100 and 1e3) the error norm was 0.9 to 1.2
    K 2^-53, and no entry was off by more than K 2^-53.

    Cost: K is about a |t| + 11 (a |t|)^(1/3) products with h, so the cost
    grows linearly in |t|; at t = 0 the result is psi0 itself. On a 2-core
    host, mfim at n = 10 and t = 20 takes K = 612 terms and about 45 ms,
    against 1.2 s for a dense diagonalization. For long times diagonalizing
    is cheaper: at n = 8 and t = 1e3 the sum takes 21,000 terms and 0.6 s,
    the diagonalization 0.03 s; the package's pipelines and benchmark quench
    to t <= 20. Raises ValueError for a non-finite t.
    """
    _require_finite_times(np.asarray(t, dtype=float))
    psi = np.asarray(psi0, dtype=complex)
    c = _chebyshev_coefficients(a * t)
    out = c[0] * psi
    if c.size == 1:
        return out
    h2 = h * (2.0 / a)
    prev, cur = psi, 0.5 * (h2 @ psi)
    out += c[1] * cur
    for ck in c[2:]:
        prev, cur = cur, h2 @ cur - prev
        out += ck * cur
    return out


def diagonal_ensemble(
    sd: SpectralData, caps: Caps = DEFAULT_CAPS
) -> tuple[HermitianOperator, FactoredTwoCopy, float]:
    """Infinite-time average of |psi0(t)><psi0(t)| plus its two-copy diagonal part.

    Returns (rho_d, factored sum_E |c_E|^4 |E,E><E,E|, purity tr rho_d^2).
    The two-copy part stays factored; it is never densified at D^2 size.
    """
    p = sd.populations
    check_cap(caps, "max_moment_entries", sd.dim**2)
    rho = (sd.eigenvectors * p) @ sd.eigenvectors.conj().T
    rho = (rho + rho.conj().T) / 2
    op = HermitianOperator(rho, qubit_or_flat_dims(sd.dim))
    return op, FactoredTwoCopy(p**2, sd.eigenvalues.copy()), float(np.sum(p**2))


def dephase(sd: SpectralData, a: np.ndarray) -> np.ndarray:
    """Energy-basis dephasing of a single-copy operator (infinite-time twirl, k=1)."""
    at = sd.eigenvectors.conj().T @ a @ sd.eigenvectors
    return (sd.eigenvectors * np.diag(at).real) @ sd.eigenvectors.conj().T


def energy_moments(psi0: PureState, h: HermitianOperator) -> tuple[float, float]:
    """Mean energy and energy uncertainty of a state under h."""
    hv = h.entries @ psi0.amplitudes
    e = float(np.vdot(psi0.amplitudes, hv).real)
    e2 = float(np.vdot(hv, hv).real)
    var = max(e2 - e * e, 0.0)
    return e, var**0.5


def basis_overlap_matrix(sd: SpectralData, basis: MeasurementBasis) -> np.ndarray:
    """<z|E> for a complete basis on sites 0, ..., n-1 of the full space."""
    _require_sites(basis, range(sd.dim.bit_length() - 1))
    return apply_local_rotations(sd.eigenvectors.T, basis.factors, conjugate=True).T


@dataclass(frozen=True)
class EffectiveDimensionReport:
    inverse: float
    skipped_outcomes: int

    def __float__(self) -> float:
        return self.inverse


def effective_dimension(sd: SpectralData, basis: MeasurementBasis) -> EffectiveDimensionReport:
    """Inverse effective dimension sum_{z,E} |<z|E>|^4 |c_E|^4 / p_avg(z).

    p_avg(z) = <z|rho_d|z>. Outcomes with p_avg below 1e-300 are skipped and
    counted.
    """
    p = sd.populations
    w = np.abs(basis_overlap_matrix(sd, basis)) ** 2
    p_avg = w @ p
    num = (w * w) @ (p * p)
    keep = p_avg >= 1e-300
    val = float(np.sum(num[keep] / p_avg[keep]))
    return EffectiveDimensionReport(val, int(np.sum(~keep)))


# ---------------------------------------------------------------------------
# no-resonance diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoResonanceReport:
    """Result of scanning k-fold eigenvalue sums for coincidences."""

    k: int
    tolerance: float
    violations: tuple
    verdict: str  # "pass" | "fail" | "pass-modulo-degeneracies"
    degenerate_clusters: int

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "pass-modulo-degeneracies")


def _cluster_eigenvalues(values: np.ndarray, tol: float) -> np.ndarray:
    """Representative values after merging eigenvalues within tol."""
    reps = [values[0]]
    for v in values[1:]:
        if v - reps[-1] <= tol:
            continue
        reps.append(v)
    return np.array(reps)


def check_no_resonance(
    eigenvalues: Sequence[float],
    k: int,
    tolerance: float | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> NoResonanceReport:
    """Scan all k-multiset eigenvalue sums for non-permutation coincidences.

    Exact degeneracies (within the same tolerance) are merged first; a clean
    scan after merging yields the verdict "pass-modulo-degeneracies". Sums are
    bucketed by sorting, and adjacent sums closer than the tolerance are
    reported as violations.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    width = float(ev[-1] - ev[0]) if ev.size > 1 else 1.0
    tol = 1e-8 * width if tolerance is None else float(tolerance)
    reps = _cluster_eigenvalues(ev, tol)
    n_deg = ev.size - reps.size
    n_sums = comb(reps.size + k - 1, k)
    check_cap(caps, "max_resonance_sums", n_sums)

    tuples = np.array(list(combinations_with_replacement(range(reps.size), k)), dtype=np.int64)
    sums = reps[tuples].sum(axis=1)
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    tuples = tuples[order]
    gaps = np.diff(sums)
    hits = np.flatnonzero(gaps <= tol)
    violations = tuple(
        (tuple(tuples[i]), tuple(tuples[i + 1]), float(gaps[i])) for i in hits[:1000]
    )
    if violations:
        verdict = "fail"
    else:
        verdict = "pass-modulo-degeneracies" if n_deg else "pass"
    return NoResonanceReport(k, tol, violations, verdict, n_deg)


# ---------------------------------------------------------------------------
# exact dephasing/twirling channel on two copies
# ---------------------------------------------------------------------------


def twirl2(
    sd: SpectralData,
    a: np.ndarray,
    caps: Caps = DEFAULT_CAPS,
) -> np.ndarray:
    """Infinite-time average of U_t^(x)2 A U_t^(x)2-dagger.

    Exact dephasing form: keep the two-copy energy-diagonal of A, add the
    swap-coupled diagonal times the swap, and subtract the doubly-diagonal
    block once (it is double counted by the first two pieces). Requires the
    second no-resonance condition; a warning is emitted when the spectrum
    violates it.
    """
    d = sd.dim
    d2 = d * d
    check_cap(caps, "max_moment_entries", d2 * d2)
    if a.shape != (d2, d2):
        raise ValueError("operator must act on two copies of the space")
    rep = check_no_resonance(sd.eigenvalues, 2, caps=caps)
    if rep.verdict == "fail":
        warnings.warn(
            f"spectrum violates the 2nd no-resonance condition "
            f"({len(rep.violations)} coincidences); twirl formula is inexact",
            stacklevel=2,
        )

    v2 = np.kron(sd.eigenvectors, sd.eigenvectors)
    at = v2.conj().T @ a @ v2

    idx = np.arange(d2)
    swap = (idx % d) * d + (idx // d)
    out = np.zeros_like(at)
    out[idx, idx] = at[idx, idx]
    out[idx, swap] += at[idx, swap]
    both = np.arange(d) * d + np.arange(d)  # (E,E) pairs
    out[both, both] -= at[both, both]
    return v2 @ out @ v2.conj().T
