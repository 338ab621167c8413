import numpy as np
import pytest
from scipy.stats import unitary_group

from qensembles import CapacityError, Caps
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

    def test_eigenstate_is_stationary(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 2], (2,) * 3)
        for t in (0.0, 1.3, 50.0):
            out = sp.evolve(sd, eig, t)
            assert abs(abs(np.vdot(eig.amplitudes, out.amplitudes)) ** 2 - 1.0) <= 1e-12

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
