"""Shared, cached computation pipelines used by experiments and acceptance checks.

A quenched state |psi(t)> = exp(-iHt)|psi0> needs no spectrum: `quench_state`
propagates the product state with the sparse Hamiltonian
(`spectral.propagate`), so fixed-time pipelines never diagonalize. Full
spectra (dense diagonalization up to D = 2^14) are built only for the paths
that read eigenpairs: bound states, conditional-state tables, time averages
and the eigenstate pipelines. The process cache keys spectra by the model
specification, quenched states by the model, the initial-state angle and the
time, and conditional-state tables by the model, the angle, the bipartition
and the measurement basis (its sites and the bytes of each factor): a table
does not depend on time, so every pipeline that needs one asks the cache.
The cache can be released explicitly, per model or whole; large-chain
workflows should group their uses and then drop it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import ensembles as en
from . import hilbert as hb
from . import scrooge as sc
from . import spectral as sp
from . import stats as st
from ._util import Caps, DEFAULT_CAPS


class SpectrumCache:
    """Process-level cache of quenched states, diagonalized model Hamiltonians
    and their conditional-state tables.

    States are keyed by the model specification, theta and t, and are built by
    propagation, never from a spectrum. Spectra are keyed by the model
    specification and built only when a caller reads eigenpairs. Tables are
    keyed by the model, theta, the chain length and A sites of the
    bipartition, and the basis sites and factor bytes; `release(model)` drops
    a model's states, spectrum and tables together.
    """

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self._store: dict[str, sp.SpectralData] = {}
        self._states: dict[str, dict[tuple, hb.PureState]] = {}
        self._tables: dict[str, dict[tuple, sc.ConditionalStateTable]] = {}
        self.caps = caps

    @staticmethod
    def _key(model: dict) -> str:
        spec = dict(model)
        if "matrix" in spec:
            m = np.ascontiguousarray(spec["matrix"], dtype=complex)
            spec["matrix"] = [m.shape, hashlib.sha256(m.tobytes()).hexdigest()]
        return json.dumps(spec, sort_keys=True, default=str)

    def spectrum(self, model: dict) -> sp.SpectralData:
        key = self._key(model)
        if key not in self._store:
            h = hb.build_hamiltonian(model, self.caps)
            self._store[key] = sp.diagonalize(h, self.caps)
        return self._store[key]

    def bound(self, model: dict, theta: float) -> sp.SpectralData:
        sd = self.spectrum(model)
        return sp.bind_state(sd, hb.product_state(theta, _n_sites(sd.dim)))

    def conditional_states(
        self, model: dict, theta: float, part: hb.Bipartition, basis: hb.MeasurementBasis
    ) -> sc.ConditionalStateTable:
        """`scrooge.conditional_states` of the model quenched from angle theta, built once."""
        tables = self._tables.setdefault(self._key(model), {})
        factors = tuple((u.shape, u.dtype.str, u.tobytes()) for u in basis.factors)
        key = (float(theta), part.n_sites, part.sites_A, basis.sites, factors)
        if key not in tables:
            tables[key] = sc.conditional_states(self.bound(model, theta), part, basis)
        return tables[key]

    def release(self, model: dict | None = None) -> None:
        if model is None:
            self._store.clear()
            self._states.clear()
            self._tables.clear()
        else:
            for store in (self._store, self._states, self._tables):
                store.pop(self._key(model), None)


def _n_sites(dim: int) -> int:
    """Chain length of a qubit-chain space (explicit models carry no "n")."""
    return dim.bit_length() - 1


def quench_state(cache: SpectrumCache, model: dict, theta: float, t: float) -> hb.PureState:
    """exp(-iHt) of the product state at angle theta, memoized in the cache.

    Propagated with the sparse Hamiltonian (`spectral.propagate`), never read
    off a spectrum, so the result does not depend on what the cache holds.
    The amplitudes are read-only: every caller shares them.
    """
    states = cache._states.setdefault(cache._key(model), {})
    key = (float(theta), float(t))
    if key not in states:
        h, a = hb.sparse_hamiltonian(model, cache.caps)
        psi0 = hb.product_state(theta, _n_sites(h.shape[0]))
        amps = sp.propagate(h, a, psi0.amplitudes, t)
        amps /= np.linalg.norm(amps)
        amps.flags.writeable = False
        states[key] = hb.PureState(amps, psi0.dims)
    return states[key]


@dataclass(frozen=True)
class ProjectedComparison:
    """Trace distances of a projected k-th moment to its reference ensembles."""

    n: int
    k: int
    t: float
    basis_letter: str
    dist_scrooge: float
    dist_haar: float
    dist_generalized: float | None = None


def projected_moment_comparison(
    cache: SpectrumCache,
    model: dict,
    theta: float,
    t: float,
    subsystem_width: int,
    basis_letter: str,
    k: int,
    include_generalized: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> ProjectedComparison:
    """Distance of the projected moment to Scrooge[rho_A], Haar and optionally
    the outcome-conditioned (generalized) prediction, at one (N, k, t)."""
    n = int(model["n"])
    part = hb.Bipartition(n, hb.central_sites(n, subsystem_width))
    basis = hb.pauli_basis(part.sites_B, basis_letter)
    state = quench_state(cache, model, theta, t)
    ens = en.projected_ensemble(state, part, basis)
    proj = en.moment_k(ens, k, caps)
    rho_a = hb.partial_trace(state, part, "A").entries
    d_scr = st.trace_distance(proj, sc.scrooge_moment(rho_a, k, caps))
    d_haar = st.trace_distance(proj, en.haar_moment(part.d_a, k, caps))
    d_gen = None
    if include_generalized:
        table = cache.conditional_states(model, theta, part, basis)
        gen = sc.generalized_scrooge_moment(table, k, caps)
        d_gen = st.trace_distance(proj, gen)
    return ProjectedComparison(n, k, t, basis_letter, d_scr, d_haar, d_gen)


def basis_information_scan(
    cache: SpectrumCache,
    model: dict,
    theta: float,
    t: float,
    subsystem_width: int,
    letters: tuple[str, ...] = ("X", "Y", "Z"),
    basis_b_letter: str = "Z",
):
    """I(O_A; Z_B) at a fixed time for several A bases, plus the entropy bounds.

    Returns (rows, q_bits, s_bits, energy_density) with one row per A basis.
    """
    n = int(model["n"])
    part = hb.Bipartition(n, hb.central_sites(n, subsystem_width))
    state = quench_state(cache, model, theta, t)
    rho_a = hb.partial_trace(state, part, "A")
    q_bits, s_bits = st.holevo_sandwich(rho_a)
    h, _ = hb.sparse_hamiltonian(model, cache.caps)
    psi0 = hb.product_state(theta, n).amplitudes
    energy = float(np.vdot(psi0, h @ psi0).real)
    basis_b = hb.pauli_basis(part.sites_B, basis_b_letter)
    rows = []
    for letter in letters:
        rep = st.conditional_mutual_information(
            state, part, hb.pauli_basis(part.sites_A, letter), basis_b
        )
        rows.append((letter, rep.bits))
    return rows, q_bits, s_bits, energy / n


def interaction_information_scan(
    cache: SpectrumCache,
    model: dict,
    theta: float,
    t: float,
    subsystem_width: int,
    letters: tuple[str, ...] = ("X", "Y", "Z"),
    basis_b_letter: str = "X",
):
    """Interaction information per A basis against the weighted-subentropy value."""
    n = int(model["n"])
    part = hb.Bipartition(n, hb.central_sites(n, subsystem_width))
    bound = cache.bound(model, theta)
    psi0 = hb.product_state(theta, n)
    basis_b = hb.pauli_basis(part.sites_B, basis_b_letter)
    table = cache.conditional_states(model, theta, part, basis_b)
    rows = []
    for letter in letters:
        rep = st.interaction_information(
            bound, psi0, part, hb.pauli_basis(part.sites_A, letter), basis_b, t,
            conditional_table=table,
        )
        rows.append(
            {
                "basis": letter,
                "interaction_bits": rep.bits,
                "weighted_subentropy_bits": rep.prediction_bits,
                "fixed_time_bits": rep.metadata["fixed_time_bits"],
                "time_averaged_bits": rep.metadata["time_averaged_bits"],
                "subentropy_bound_bits": rep.metadata["subentropy_bound_bits"],
            }
        )
    return rows


def rescaled_joint_probability_ks(
    cache: SpectrumCache,
    model: dict,
    theta: float,
    t: float,
    subsystem_width: int,
    basis_letter: str = "X",
) -> dict:
    """KS statistics of joint outcome probabilities, raw vs time-average-rescaled.

    Raw probabilities are scaled by the full dimension D (unit mean); the
    rescaled ones divide by the dephased time average per (o_A, x_B) pair.
    """
    n = int(model["n"])
    part = hb.Bipartition(n, hb.central_sites(n, subsystem_width))
    basis_a = hb.pauli_basis(part.sites_A, basis_letter)
    basis_b = hb.pauli_basis(part.sites_B, basis_letter)
    state = quench_state(cache, model, theta, t)
    joint = st.joint_outcome_distribution(state, part, basis_a, basis_b)
    bound = cache.bound(model, theta)
    avg = st.time_averaged_joint_distribution(bound, part, basis_a, basis_b)
    keep = avg > en.ZERO_OUTCOME_CUTOFF
    rescaled = (joint[keep] / avg[keep]).ravel()
    raw = (joint * joint.size).ravel()
    rep_rescaled = st.pt_test(rescaled / rescaled.mean())
    rep_raw = st.pt_test(raw)
    return {
        "ks_rescaled": rep_rescaled.ks_statistic,
        "ks_raw": rep_raw.ks_statistic,
        "m2_rescaled": rep_rescaled.m2,
        "sample_count": int(rescaled.size),
    }


def eigenstate_projected_comparison(
    sd: sp.SpectralData,
    index: int,
    part: hb.Bipartition,
    basis: hb.MeasurementBasis,
    k: int = 2,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Projected-moment distances for one energy eigenstate (complex references)."""
    n = part.n_sites
    eig = hb.PureState(sd.eigenvectors[:, index], (2,) * n)
    ens = en.projected_ensemble(eig, part, basis)
    proj = en.moment_k(ens, k, caps)
    rho_a = hb.partial_trace(eig, part, "A").entries
    return {
        "index": index,
        "energy_density": float(sd.eigenvalues[index]) / n,
        "dist_scrooge": st.trace_distance(proj, sc.scrooge_moment(rho_a, k, caps)),
        "dist_haar": st.trace_distance(proj, en.haar_moment(part.d_a, k, caps)),
    }


# Takagi factor of the single-site X operator: W W^T = X. In a chain mapped to
# its complex conjugate by prod_j X_j, projecting onto X-ray outcomes on B and
# expressing A in the W frame leaves every projected state real up to a
# per-outcome global phase.
TAKAGI_X_FRAME = ((1.0 - 1.0j) / 2.0) * np.array([[1.0, 1.0j], [1.0j, 1.0]])


def real_projected_table(
    sd: sp.SpectralData, index: int, part: hb.Bipartition
) -> tuple[np.ndarray, float]:
    """Projected states of one eigenstate, as real columns in the A Takagi frame.

    Measures B in the X basis; returns the (D_A, D_B) real table (per-outcome
    phases fixed) and the worst relative imaginary leak before discarding it.
    """
    n = part.n_sites
    eig = hb.PureState(sd.eigenvectors[:, index], (2,) * n)
    basis = hb.pauli_basis(part.sites_B, "X")
    table = hb.projection_table(eig, part, basis)
    us_a = [TAKAGI_X_FRAME] * len(part.sites_A)
    rotated = hb.apply_local_rotations(table.T, us_a, conjugate=True).T
    norms = np.linalg.norm(rotated, axis=0)
    kept = norms >= 1e-12
    cols = rotated[:, kept]
    phases = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    cols = cols * (np.conj(phases) / np.abs(phases))
    out = np.zeros(rotated.shape)
    out[:, kept] = cols.real
    return out, float(np.max(np.abs(cols.imag).max(axis=0) / norms[kept], initial=0.0))


def eigenstate_real_projected_comparison(
    sd: sp.SpectralData,
    index: int,
    part: hb.Bipartition,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Real-ensemble distances for one eigenstate of a time-reversal-symmetric chain.

    The projected second moment (built from the real projected states) is
    compared against the real Scrooge ensemble of the reduced state and the
    uniform real-vector reference.
    """
    n = part.n_sites
    table, imag_leak = real_projected_table(sd, index, part)
    probs = np.sum(table**2, axis=0)
    keep = probs > en.ZERO_OUTCOME_CUTOFF
    cols = table[:, keep] / np.sqrt(probs[keep])
    proj = en.moment_k(en.WeightedEnsemble(cols, probs[keep]), 2, caps)
    rho_a = (table @ table.T).astype(complex)
    d_scr = st.trace_distance(proj, sc.real_scrooge_moment2(rho_a, caps))
    d_haar = st.trace_distance(proj, sc.real_haar_moment2(part.d_a))
    return {
        "index": index,
        "energy_density": float(sd.eigenvalues[index]) / n,
        "dist_real_scrooge": d_scr,
        "dist_real_haar": d_haar,
        "imag_leak": imag_leak,
    }


def eigenstate_window_rescaled_probabilities(
    sd: sp.SpectralData,
    part: hb.Bipartition,
    center_energy: float,
    window_eigenstates: int = 100,
    basis_letter: str = "X",
) -> np.ndarray:
    """Joint outcome probabilities of windowed eigenstates, rescaled by the window mean.

    For each eigenstate in the window, p_E(o_A, x_B) is divided by the
    eigenstate-averaged probability of the same outcome pair; the pooled
    values have unit mean and are PT-distributed when the window states form
    outcome-conditioned maximum-entropy ensembles.
    """
    n = part.n_sites
    order = np.argsort(np.abs(sd.eigenvalues - center_energy), kind="stable")
    sel = np.sort(order[:window_eigenstates])
    basis_a = hb.pauli_basis(part.sites_A, basis_letter)
    basis_b = hb.pauli_basis(part.sites_B, basis_letter)
    joints = []
    for idx in sel:
        eig = hb.PureState(sd.eigenvectors[:, idx], (2,) * n)
        joints.append(st.joint_outcome_distribution(eig, part, basis_a, basis_b))
    joints = np.stack(joints)
    mean = joints.mean(axis=0)
    keep = mean > en.ZERO_OUTCOME_CUTOFF
    vals = (joints[:, keep] / mean[keep]).ravel()
    return vals / vals.mean()
