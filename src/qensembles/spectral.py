"""Eigen-engine: diagonalization, evolution, diagonal ensemble, resonance checks, twirling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

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


def evolve_grid(sd: SpectralData, psi0: PureState, times: Sequence[float]) -> np.ndarray:
    """Column t of the result is exp(-i H t)|psi0>; one BLAS call for the grid."""
    if psi0.dim != sd.dim:
        raise ValueError("state dimension does not match the spectrum")
    c = sd.overlaps if sd.overlaps is not None else sd.eigenvectors.conj().T @ psi0.amplitudes
    t = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(sd.eigenvalues, t))
    return sd.eigenvectors @ (c[:, None] * phases)


def evolve(sd: SpectralData, psi0: PureState, t: float) -> PureState:
    amps = evolve_grid(sd, psi0, [float(t)])[:, 0]
    amps = amps / np.linalg.norm(amps)
    return PureState(amps, psi0.dims, "normalized")


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
