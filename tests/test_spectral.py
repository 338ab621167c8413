import numpy as np
import pytest
import scipy.linalg
import scipy.special
from scipy.stats import unitary_group

from qensembles import CapacityError, Caps, NumericalFailureError
from qensembles import hilbert as hb
from qensembles import spectral as sp
from qensembles import ensembles as en
from qensembles import rmt
from qensembles._util import task_rng


def random_state(d, rng, real=False):
    amps = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
    return hb.PureState(amps / np.linalg.norm(amps), hb.qubit_or_flat_dims(d))


class TestDiagonalize:
    def test_diagonal_matrix(self):
        h = hb.HermitianOperator(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), (2, 2))
        sd = sp.diagonalize(h)
        assert np.allclose(sd.eigenvalues, [1, 2, 3, 4])
        assert np.allclose(np.abs(sd.eigenvectors), np.eye(4))

    def test_pauli_x(self):
        h = hb.HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex), (2,))
        sd = sp.diagonalize(h)
        assert np.allclose(sd.eigenvalues, [-1, 1])

    def test_mfim_n2_against_characteristic_polynomial(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 2})
        sd = sp.diagonalize(h)
        coeffs = np.poly(h.entries)  # characteristic polynomial, highest power first
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(sd.eigenvalues, roots, atol=1e-8)

    def test_reconstruction_and_orthonormality(self, rng):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 4)
        sd = sp.diagonalize(h)
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.abs(gram - np.eye(16)).max() <= 1e-10
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - h.entries) / np.linalg.norm(h.entries)
        assert rel <= 1e-10

    def test_phase_gauge_deterministic(self, rng):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 3)
        v1 = sp.diagonalize(h).eigenvectors
        v2 = sp.diagonalize(h).eigenvectors
        assert np.array_equal(v1, v2)
        lead = np.take_along_axis(v1, np.abs(v1).argmax(axis=0)[None, :], axis=0)[0]
        assert np.all(np.abs(lead.imag) <= 1e-12)
        assert np.all(lead.real > 0)


def _dense_measure(h):
    """The oracle: populations of |0> through the full eigendecomposition."""
    e0 = hb.PureState(np.eye(h.dim, dtype=complex)[0], h.dims)
    return sp.bind_state(sp.diagonalize(h), e0)


class TestBasisStateMeasure:
    @pytest.mark.parametrize(
        "sample, d",
        [(rmt.sample_gue, 2), (rmt.sample_gue, 3), (rmt.sample_gue, 48), (rmt.sample_gue, 256),
         (rmt.sample_real_symmetric, 16)],
    )
    def test_matches_full_eigendecomposition(self, sample, d):
        h = sample(d, task_rng(31, d))
        sm = sp.basis_state_measure(h)
        ref = _dense_measure(h)
        assert sm.dim == d
        assert np.abs(sm.eigenvalues - ref.eigenvalues).max() <= 1e-12
        assert np.abs(sm.populations - ref.populations).max() <= 1e-14

    def test_block_diagonal_coupling(self):
        # |0> couples to the 3-level block on basis states {0, 2, 5} only; the other
        # block's eigenvalues are shifted off so each eigenvalue names its block
        rng = task_rng(32)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = (a + a.conj().T) / 2, (b + b.conj().T) / 2 + 20.0 * np.eye(4)
        m = np.zeros((7, 7), dtype=complex)
        on, off = [0, 2, 5], [1, 3, 4, 6]
        m[np.ix_(on, on)] = a
        m[np.ix_(off, off)] = b
        sm = sp.basis_state_measure(hb.HermitianOperator(m, (7,)))
        wa, va = np.linalg.eigh(a)
        assert np.abs(sm.eigenvalues[:3] - wa).max() <= 1e-12
        assert np.abs(sm.populations[:3] - np.abs(va[0]) ** 2).max() <= 1e-14
        assert sm.populations[3:].max() <= 1e-28  # zero up to squared rounding
        assert sm.populations.sum() == pytest.approx(1.0, abs=1e-14)

    def test_repeated_eigenvalue_cluster_weights(self):
        # eigenvectors inside the triple cluster are gauge-dependent; the
        # cluster's total weight sum_j |U_0j|^2 is not
        levels = np.array([-1.0, 0.3, 0.3, 0.3, 1.2, 2.0])
        u = unitary_group.rvs(6, random_state=33)
        h = hb.HermitianOperator((u * levels) @ u.conj().T, (6,))
        sm = sp.basis_state_measure(h)
        ref = _dense_measure(h)
        assert np.abs(sm.eigenvalues - levels).max() <= 1e-12
        for level in np.unique(levels):
            expected = float(np.sum(np.abs(u[0, levels == level]) ** 2))
            got = sm.populations[np.abs(sm.eigenvalues - level) <= 1e-8].sum()
            dense = ref.populations[np.abs(ref.eigenvalues - level) <= 1e-8].sum()
            assert got == pytest.approx(expected, abs=1e-14)
            assert got == pytest.approx(dense, abs=1e-14)

    def test_capacity_guard(self):
        h = rmt.sample_gue(16, task_rng(34))
        with pytest.raises(CapacityError):
            sp.basis_state_measure(h, Caps(max_spectrum_dim=8))

    @pytest.mark.parametrize("failure", ["zhetrd", "eigh_tridiagonal"])
    def test_solver_failure_is_named(self, monkeypatch, failure):
        if failure == "zhetrd":
            real = scipy.linalg.lapack.zhetrd
            monkeypatch.setattr(
                scipy.linalg.lapack, "zhetrd", lambda *a, **kw: (*real(*a, **kw)[:4], 3)
            )
        else:
            def fail(*a, **kw):
                raise scipy.linalg.LinAlgError("no convergence")

            monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(NumericalFailureError):
            sp.basis_state_measure(rmt.sample_gue(8, task_rng(35)))


class TestEvolve:
    def test_time_zero_identity(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        psi = random_state(8, rng)
        out = sp.evolve(sd, psi, 0.0)
        assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-12

    def test_two_level_precession(self):
        h = hb.HermitianOperator(np.diag([1.0, -1.0]).astype(complex), (2,))
        sd = sp.diagonalize(h)
        plus = hb.qubit_state([1, 1] / np.sqrt(2))
        for t in (0.3, np.pi / 2, 1.7):
            out = sp.evolve(sd, plus, t)
            overlap = abs(np.vdot(plus.amplitudes, out.amplitudes)) ** 2
            assert abs(overlap - np.cos(t) ** 2) <= 1e-12
        y = np.array([[0, -1j], [1j, 0]])
        y_expect = lambda s: np.vdot(s.amplitudes, y @ s.amplitudes).real
        assert y_expect(sp.evolve(sd, plus, np.pi / 4)) == pytest.approx(1.0, abs=1e-12)
        assert y_expect(sp.evolve(sd, plus, 3 * np.pi / 4)) == pytest.approx(-1.0, abs=1e-12)

    @staticmethod
    def _bound_at(theta):
        sd = sp.diagonalize(hb.build_hamiltonian({"model": "mfim", "n": 6}))
        return sd, sp.bind_state(sd, hb.product_state(theta, 6))

    def test_evolve_grid_rejects_a_state_the_spectrum_is_not_bound_to(self):
        _, bound = self._bound_at(0.3)
        with pytest.raises(ValueError, match="bound to another initial state"):
            sp.evolve_grid(bound, hb.product_state(1.2, 6), [0.0, 2.0])

    def test_evolve_rejects_a_state_the_spectrum_is_not_bound_to(self):
        _, bound = self._bound_at(0.3)
        with pytest.raises(ValueError, match="bound to another initial state"):
            sp.evolve(bound, hb.product_state(1.2, 6), 2.0)

    def test_bound_spectrum_uses_its_stored_overlaps(self):
        sd, bound = self._bound_at(0.3)
        psi0, times = hb.product_state(0.3, 6), [0.0, 2.0]
        out = sp.evolve_grid(bound, psi0, times)
        phases = np.exp(-1j * np.outer(bound.eigenvalues, times))
        assert np.array_equal(out, bound.eigenvectors @ (bound.overlaps[:, None] * phases))
        assert np.abs(out - sp.evolve_grid(sd, psi0, times)).max() <= 1e-12

    def test_eigenstate_is_stationary(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 2], (2,) * 3)
        for t in (0.0, 1.3, 50.0):
            out = sp.evolve(sd, eig, t)
            assert abs(abs(np.vdot(eig.amplitudes, out.amplitudes)) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_rejected(self, t):
        sd = sp.diagonalize(hb.build_hamiltonian({"model": "mfim", "n": 3}))
        psi = hb.product_state(0.2, 3)
        with pytest.raises(ValueError, match="finite"):
            sp.evolve_grid(sd, psi, [0.0, t])
        with pytest.raises(ValueError, match="finite"):
            sp.evolve(sd, psi, t)

    def test_populations_conserved(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        psi = random_state(16, rng)
        bound = sp.bind_state(sd, psi)
        for t in (0.7, 13.9):
            out = sp.evolve(sd, psi, t)
            pops = np.abs(sd.eigenvectors.conj().T @ out.amplitudes) ** 2
            assert np.abs(pops - bound.populations).max() <= 1e-12
            assert abs(out.norm() - 1.0) <= 1e-10


PROPAGATION_MODELS = [
    {"model": "mfim", "n": 8},
    {"model": "tfim", "n": 7},
    {"model": "mfim_broken_trs", "n": 6},
    {"model": "xxz", "n": 8},
    {"model": "explicit", "matrix": rmt.sample_gue(32, task_rng(11)).entries},
]


class TestPropagate:
    @pytest.mark.parametrize("model", PROPAGATION_MODELS, ids=lambda m: m["model"])
    def test_matches_spectral_evolution(self, model, rng):
        h, a = hb.sparse_hamiltonian(model)
        sd = sp.diagonalize(hb.build_hamiltonian(model))
        psi = random_state(h.shape[0], rng)
        for t in (0.0, 1e-3, 3.0, 20.0, 100.0, -7.0):
            out = sp.propagate(h, a, psi.amplitudes, t)
            assert np.abs(out - sp.evolve(sd, psi, t).amplitudes).max() <= 1e-12, t

    def test_long_time_within_the_stated_bound(self):
        n, t = 8, 1e3
        psi0 = hb.product_state(0.3, n).amplitudes
        # field-only chain: exp(-iHt) is a product of exact single-site rotations
        h, a = hb.sparse_hamiltonian({"model": "mfim", "n": n, "hx": 1.0, "hy": 0.0, "j": 0.0})
        site = np.cos(t) * np.eye(2) - 1j * np.sin(t) * np.array([[0.0, 1.0], [1.0, 0.0]])
        exact = np.array([[1.0]])
        for _ in range(n):
            exact = np.kron(site, exact)
        terms = sp._chebyshev_coefficients(a * t).size
        out = sp.propagate(h, a, psi0, t)
        assert np.linalg.norm(out - exact @ psi0) <= 2 * terms * 2.0**-53
        # the interacting chain, against the eigendecomposition
        model = {"model": "mfim", "n": n}
        h, a = hb.sparse_hamiltonian(model)
        terms = sp._chebyshev_coefficients(a * t).size
        out = sp.propagate(h, a, psi0, t)
        sd = sp.diagonalize(hb.build_hamiltonian(model))
        expected = sp.evolve_grid(sd, hb.PureState(psi0, (2,) * n), [t])[:, 0]
        assert np.abs(out - expected).max() <= terms * 2.0**-53

    def test_time_zero_returns_the_input(self, rng):
        h, a = hb.sparse_hamiltonian({"model": "xxz", "n": 5})
        psi = random_state(32, rng).amplitudes
        assert np.array_equal(sp.propagate(h, a, psi, 0.0), psi)

    def test_series_stops_below_the_bessel_tail(self):
        for x in (0.0, 0.5, 30.0, -250.0, 3000.0):
            c = sp._chebyshev_coefficients(x)
            orders = np.arange(c.size, c.size + 400)
            tail = 2 * np.abs(scipy.special.jv(orders, x)).sum()
            assert tail < 2.0**-53
            assert 2 * np.abs(scipy.special.jv(orders[0] - 1, x)) + tail >= 2.0**-53
            # the series sums to exp(-ix) at H = 1, where every T_k is 1
            assert abs(c.sum() - np.exp(-1j * x)) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_rejected(self, t):
        h, a = hb.sparse_hamiltonian({"model": "mfim", "n": 3})
        with pytest.raises(ValueError, match="finite"):
            sp.propagate(h, a, hb.product_state(0.2, 3).amplitudes, t)


class TestDiagonalEnsemble:
    def test_eigenstate_gives_pure_diagonal(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 1], (2,) * 3)
        bound = sp.bind_state(sd, eig)
        rho, two_copy, purity = sp.diagonal_ensemble(bound)
        assert purity == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.matrix_rank(rho.entries, tol=1e-8) == 1

    def test_uniform_overlaps(self):
        h = hb.HermitianOperator(np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex), (2, 2))
        sd = sp.diagonalize(h)
        psi = hb.qubit_state(np.ones(4) / 2)
        bound = sp.bind_state(sd, psi)
        _, _, purity = sp.diagonal_ensemble(bound)
        assert purity == pytest.approx(0.25, abs=1e-12)

    def test_purity_matches_survival_probability_average(self, spectrum_factory):
        bound = spectrum_factory("mfim", 10, 0.6)
        _, _, purity = sp.diagonal_ensemble(bound)
        psi0 = hb.product_state(0.6, 10)
        times = np.linspace(100.0, 30100.0, 5000)
        states = sp.evolve_grid(bound, psi0, times)
        survival = np.abs(psi0.amplitudes.conj() @ states) ** 2
        avg = float(survival.mean())
        assert abs(avg - purity) / purity <= 0.02

    def test_diagonal_ensemble_is_k1_dephasing(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        psi = random_state(8, rng)
        bound = sp.bind_state(sd, psi)
        rho, _, _ = sp.diagonal_ensemble(bound)
        dephased = sp.dephase(sd, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert np.abs(rho.entries - dephased).max() <= 1e-10


    def test_dimension_off_powers_of_two(self, rng):
        bound = sp.bind_state(sp.diagonalize(rmt.sample_gue(48, rng)), random_state(48, rng))
        rho, _, purity = sp.diagonal_ensemble(bound)
        p = bound.populations
        assert rho.dims == (48,)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert purity == pytest.approx(np.sum(p**2), abs=1e-15)
        assert np.sum(np.abs(rho.entries) ** 2) == pytest.approx(purity, abs=1e-12)  # tr rho^2


class TestEnergyMoments:
    def test_eigenstate_has_zero_width(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 4], (2,) * 3)
        e, sigma = sp.energy_moments(eig, h)
        assert e == pytest.approx(sd.eigenvalues[4], abs=1e-10)
        assert sigma <= 1e-6

    def test_plus_under_z(self):
        h = hb.HermitianOperator(np.diag([1.0, -1.0]).astype(complex), (2,))
        plus = hb.qubit_state([1, 1] / np.sqrt(2))
        e, sigma = sp.energy_moments(plus, h)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_energy_density_of_standard_quench(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 12})
        psi = hb.product_state(0.6, 12)
        e, _ = sp.energy_moments(psi, h)
        assert e / 12 == pytest.approx(0.51, abs=0.02)


class TestEffectiveDimension:
    def test_eigenstate_in_its_eigenbasis(self):
        h = hb.HermitianOperator(np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex), (2, 2))
        sd = sp.diagonalize(h)
        psi = hb.qubit_state([0, 1, 0, 0])
        bound = sp.bind_state(sd, psi)
        basis = hb.pauli_basis((0, 1), "ZZ")  # the eigenbasis of a diagonal matrix
        rep = sp.effective_dimension(bound, basis)
        assert rep.inverse == pytest.approx(1.0, abs=1e-10)

    def test_unbiased_basis_closed_form(self):
        d, n = 16, 4
        h = hb.HermitianOperator(np.diag(np.arange(d, dtype=float)).astype(complex), (2,) * n)
        sd = sp.diagonalize(h)
        psi = hb.PureState(np.ones(d) / np.sqrt(d), (2,) * n)
        bound = sp.bind_state(sd, psi)
        basis = hb.pauli_basis(tuple(range(n)), "X")  # mutually unbiased with Z
        rep = sp.effective_dimension(bound, basis)
        assert rep.inverse == pytest.approx(1.0 / d, rel=1e-10)

    def test_explicit_basis_matches_dense_basis_matrix(self, spectrum_factory, rng):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        basis = hb.explicit_basis(range(n), unitary_group.rvs(2**n, random_state=rng))
        overlaps = hb.basis_matrix(basis).conj().T @ bound.eigenvectors
        assert np.abs(sp.basis_overlap_matrix(bound, basis) - overlaps).max() <= 1e-12
        w, p = np.abs(overlaps) ** 2, bound.populations
        expected = float(np.sum(((w * w) @ (p * p)) / (w @ p)))
        assert sp.effective_dimension(bound, basis).inverse == pytest.approx(expected, abs=1e-12)

    def test_basis_on_permuted_sites_is_rejected(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        basis = hb.pauli_basis((1, 0, 2, 3, 4, 5), "XZZZZZ")
        with pytest.raises(ValueError):
            sp.basis_overlap_matrix(bound, basis)
        with pytest.raises(ValueError):
            sp.effective_dimension(bound, basis)

    @pytest.mark.slow
    def test_monotone_decrease_with_system_size(self, spectrum_factory):
        values = []
        for n in (8, 10, 12):
            bound = spectrum_factory("mfim", n, 0.6)
            basis = hb.pauli_basis(tuple(range(n)), "Z")
            values.append(sp.effective_dimension(bound, basis).inverse)
        assert values[0] > values[1] > values[2]


class TestNoResonance:
    def test_generic_four_level_pass(self):
        rep = sp.check_no_resonance([0.0, 1.0, 3.0, 7.0], 2, tolerance=1e-9)
        assert rep.verdict == "pass"
        assert not rep.violations

    def test_arithmetic_progression_fails(self):
        rep = sp.check_no_resonance([0.0, 1.0, 2.0, 3.0], 2, tolerance=1e-9)
        assert rep.verdict == "fail"
        assert any(abs(gap) <= 1e-9 for _, _, gap in rep.violations)

    def test_tfim_free_fermion_resonances(self):
        h = hb.build_hamiltonian({"model": "tfim", "n": 6})
        sd = sp.diagonalize(h)
        rep = sp.check_no_resonance(sd.eigenvalues, 2)
        assert rep.verdict == "fail"

    def test_shift_invariance_and_scale_covariance(self, rng):
        ev = np.sort(rng.standard_normal(12))
        base = sp.check_no_resonance(ev, 2, tolerance=1e-7)
        shifted = sp.check_no_resonance(ev + 5.0, 2, tolerance=1e-7)
        scaled = sp.check_no_resonance(3.0 * ev, 2, tolerance=3e-7)
        assert base.verdict == shifted.verdict == scaled.verdict
        assert len(base.violations) == len(shifted.violations) == len(scaled.violations)

    def test_degeneracy_reported_modulo(self):
        rep = sp.check_no_resonance([0.0, 0.0, 1.0, 3.0, 7.0], 2, tolerance=1e-9)
        assert rep.verdict == "pass-modulo-degeneracies"
        assert rep.degenerate_clusters == 1


class TestTwirl2:
    def test_identity_is_invariant(self, rng):
        h = (lambda g: hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 2))(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        sd = sp.diagonalize(h)
        out = sp.twirl2(sd, np.eye(16, dtype=complex))
        assert np.abs(out - np.eye(16)).max() <= 1e-10

    def test_initial_state_twirl_matches_random_phase_moment(self, rng):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 3)
        sd = sp.diagonalize(h)
        psi = random_state(8, rng)
        bound = sp.bind_state(sd, psi)
        a = np.outer(psi.amplitudes, psi.amplitudes.conj())
        a2 = np.kron(a, a)
        out = sp.twirl2(sd, a2)
        v2 = np.kron(sd.eigenvectors, sd.eigenvectors)
        out_eig = v2.conj().T @ out @ v2
        expected = en.random_phase_moment_exact(bound.populations, 2).dense()
        assert np.abs(out_eig - expected).max() <= 1e-10

    def test_resonance_check_uses_the_callers_caps(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sd = sp.diagonalize(hb.HermitianOperator((g + g.conj().T) / 2, (2, 2)))
        # 10 two-multisets of 4 eigenvalues exceed a cap of 3 resonance sums
        with pytest.raises(CapacityError) as info:
            sp.twirl2(sd, np.eye(16, dtype=complex), caps=Caps(max_resonance_sums=3))
        assert info.value.cap_name == "max_resonance_sums"

    def test_commutes_with_two_copy_evolution(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2, 2))
        sd = sp.diagonalize(h)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        out = sp.twirl2(sd, a)
        for t in (0.37, 2.11):
            u = sd.eigenvectors @ np.diag(np.exp(-1j * sd.eigenvalues * t)) @ sd.eigenvectors.conj().T
            u2 = np.kron(u, u)
            comm = out @ u2 - u2 @ out
            assert np.linalg.norm(comm) <= 1e-8

    def test_finite_interval_average_converges_to_twirl(self, rng):
        # oracle: exact average over [0, T] in the energy two-copy basis,
        # entry (i, j) damped by exp(-i dE T / 2) sinc(dE T / 2)
        d = 8
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 3)
        sd = sp.diagonalize(h)
        a = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        v2 = np.kron(sd.eigenvectors, sd.eigenvectors)
        at = v2.conj().T @ a @ v2
        s = np.add.outer(sd.eigenvalues, sd.eigenvalues).ravel()
        de = s[:, None] - s[None, :]
        tw = v2.conj().T @ sp.twirl2(sd, a) @ v2
        spacing = sd.spectral_width() / (d - 1)
        ts = np.logspace(3, 6, 10) / spacing
        residuals = []
        for t_max in ts:
            x = de * t_max / 2.0
            kernel = np.exp(-1j * x) * en.stable_sinc(x)
            avg = at * kernel
            residuals.append(np.linalg.norm(avg - tw) / np.linalg.norm(tw))
        from qensembles import rmt

        fit = rmt.fit_power_law(ts, residuals, (ts[0], ts[-1]))
        assert abs(fit.slope + 1.0) < 0.35
        at_1e4 = np.interp(1e4 / spacing, ts, residuals)
        assert at_1e4 <= 1e-2
