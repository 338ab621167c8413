"""Shared, cached computation pipelines used by experiments and acceptance checks.

Every pipeline, and the cache, takes a chain model, which
`hilbert.model_terms` reads as a table of Pauli-string terms. A quenched
state |psi(t)> = exp(-iHt)|psi0> is only ever built one way: `quench_state`
propagates the product state with the sparse Hamiltonian
(`spectral.propagate`), on its reflection-even sector and in its site-local
frame, as `hilbert.sparse_hamiltonian` describes; so no pipeline reads a
state off a spectrum. `basis_information_scan` reads its quench energy off
the term table. The dense Hamiltonian and every spectrum stay in the
computational basis. Full spectra (`spectral.model_spectrum`, a dense
diagonalization in the matrix the Hamiltonian was built in) are built only
for conditional-state tables, which read the spectrum bound to the product
state. Chains stop at D = 2^13, where the dense build's D^2 entries reach
`Caps.max_moment_entries` (2^26); `max_spectrum_dim` (2^14) is checked first
and binds only when it is set lower. The process cache holds one memo per
term table, so two specifications of the same Hamiltonian share it, and each
entry is keyed within it by what else it depends on: the spectrum by nothing,
a bound spectrum by the initial-state angle, a quenched state by the angle
and the time, and a conditional-state table by the angle, the bipartition and
the measurement basis (its sites and the bytes of each factor).

A table does not depend on time, so every time average is read off the
cached table of its B basis: the generalized Scrooge reference, the
rescaled joint probabilities and the interaction information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ensembles as en
from . import hilbert as hb
from . import scrooge as sc
from . import spectral as sp
from . import stats as st
from ._util import Caps, DEFAULT_CAPS


class SpectrumCache:
    """Process-level memo of quenched states, diagonalized chain Hamiltonians
    and their conditional-state tables.

    One dict per term table (`hilbert.model_terms`) holds every entry of that
    Hamiltonian, whichever specification spelled it, keyed
    ("spectrum",), ("bound", theta), ("state", theta, t) or ("table", theta,
    n, sites_A, basis.key()). `_get` is the one lookup, and each public call
    makes one; a nested build goes through `spectrum` and `bound`. States are
    built by propagation, never from a spectrum; the spectrum is built only
    when a caller reads eigenpairs, and `bound` binds it to the product state
    at theta once per angle. Tables are the one source of every time average
    the pipelines report.
    """

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self._memo: dict[str, dict[tuple, object]] = {}
        self.caps = caps

    def _get(self, model: dict, key: tuple, build):
        entries = self._memo.setdefault(repr(hb.model_terms(model)), {})  # the repr of a float round-trips
        if key not in entries:
            entries[key] = build()
        return entries[key]

    def spectrum(self, model: dict) -> sp.SpectralData:
        return self._get(model, ("spectrum",), lambda: sp.model_spectrum(model, self.caps))

    def bound(self, model: dict, theta: float) -> sp.SpectralData:
        def build():
            return sp.bind_state(self.spectrum(model), hb.product_state(theta, hb.model_terms(model)[0]))

        return self._get(model, ("bound", float(theta)), build)

    def conditional_states(
        self, model: dict, theta: float, part: hb.Bipartition, basis: hb.MeasurementBasis
    ) -> sc.ConditionalStateTable:
        """`scrooge.conditional_states` of the model quenched from angle theta, built once."""
        key = ("table", float(theta), part.n_sites, part.sites_A, basis.key())
        return self._get(model, key, lambda: sc.conditional_states(self.bound(model, theta), part, basis))


def quench_state(cache: SpectrumCache, model: dict, theta: float, t: float) -> hb.PureState:
    """exp(-iHt) of the product state at angle theta, memoized in the cache.

    Propagated on the sparse Hamiltonian's reflection-even sector and in its
    site-local frame (`hilbert.sparse_hamiltonian`, `spectral.propagate`),
    never read off a spectrum, so the result does not depend on what the
    cache holds. The amplitudes are read-only: every caller shares them.
    """
    key = ("state", float(theta), float(t))
    return cache._get(model, key, lambda: _propagated(model, theta, t, cache.caps))


def _propagated(model: dict, theta: float, t: float, caps: Caps) -> hb.PureState:
    h, interval = hb.sparse_hamiltonian(model, caps)
    n = hb.model_terms(model)[0]
    psi0 = hb.product_state(theta, n, hb.CHAIN_FRAME)
    reps, orbit, sizes = hb.reflection_orbits(n)
    root = np.sqrt(sizes)
    amps = sp.propagate(h, interval, root * psi0.amplitudes[reps], t)
    amps = (amps / root)[orbit]
    amps = hb.apply_local_rotations(amps[None, :], [hb.CHAIN_FRAME] * n)[0]
    amps /= np.linalg.norm(amps)
    amps.flags.writeable = False
    return hb.PureState(amps, psi0.dims)


def _central(state: hb.PureState, width: int) -> hb.Bipartition:
    """The `width` central sites of the state's chain against the rest."""
    return hb.Bipartition(state.n_sites, hb.central_sites(state.n_sites, width))


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
) -> ProjectedComparison:
    """Distance of the projected moment to Scrooge[rho_A], Haar and optionally
    the outcome-conditioned (generalized) prediction, at one (N, k, t).

    Every moment is built under `cache.caps`.
    """
    state = quench_state(cache, model, theta, t)
    part = _central(state, subsystem_width)
    basis = hb.pauli_basis(part.sites_B, basis_letter)
    proj = en.moment_k(en.projected_ensemble(state, part, basis), k, cache.caps)
    rho_a = hb.partial_trace(state, part).entries
    d_scr = st.trace_distance(proj, sc.scrooge_moment(rho_a, k, cache.caps))
    d_haar = st.trace_distance(proj, en.haar_moment(part.d_a, k, cache.caps))
    d_gen = None
    if include_generalized:
        table = cache.conditional_states(model, theta, part, basis)
        d_gen = st.trace_distance(proj, sc.generalized_scrooge_moment(table, k, cache.caps))
    return ProjectedComparison(state.n_sites, k, t, basis_letter, d_scr, d_haar, d_gen)


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
    state = quench_state(cache, model, theta, t)
    part = _central(state, subsystem_width)
    q_bits, s_bits = st.holevo_sandwich(hb.partial_trace(state, part))
    # <psi0|H|psi0> term by term, from <X>, <Y>, <Z> in the site vector of `hilbert.product_state`
    site = {"X": 0.0, "Y": math.sin(theta), "Z": math.cos(theta)}
    _, terms = hb.model_terms(model)
    energy = sum(c * math.prod(site[letter] for letter in ops.values()) for c, ops in terms)
    basis_b = hb.pauli_basis(part.sites_B, basis_b_letter)
    rows = []
    for letter in letters:
        basis_a = hb.pauli_basis(part.sites_A, letter)
        joint = st.joint_outcome_distribution(state, part, basis_a, basis_b)
        rows.append((letter, st.mutual_information_of_joint(joint)))
    return rows, q_bits, s_bits, energy / state.n_sites


def interaction_information_scan(
    cache: SpectrumCache,
    model: dict,
    theta: float,
    t: float,
    subsystem_width: int,
    letters: tuple[str, ...] = ("X", "Y", "Z"),
    basis_b_letter: str = "X",
):
    """Interaction information per A basis against the weighted-subentropy value.

    The state at time t is propagated (`quench_state`), and the time-averaged
    part and the subentropy values of every letter come from one cached table.
    """
    state = quench_state(cache, model, theta, t)
    part = _central(state, subsystem_width)
    basis_b = hb.pauli_basis(part.sites_B, basis_b_letter)
    table = cache.conditional_states(model, theta, part, basis_b)
    bases_a = [hb.pauli_basis(part.sites_A, letter) for letter in letters]
    rows = st.interaction_information(state, table, part, bases_a)
    return [{"basis": letter, **row} for letter, row in zip(letters, rows)]


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
    state = quench_state(cache, model, theta, t)
    part = _central(state, subsystem_width)
    basis_a = hb.pauli_basis(part.sites_A, basis_letter)
    basis_b = hb.pauli_basis(part.sites_B, basis_letter)
    joint = st.joint_outcome_distribution(state, part, basis_a, basis_b)
    table = cache.conditional_states(model, theta, part, basis_b)
    avg = st.time_averaged_joint_distribution(table, part, basis_a)
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

