import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special

from qensembles import CapacityError, Caps, NumericalFailureError
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import spectral as sp
from qensembles import ensembles as en
from qensembles import rmt
from qensembles._util import task_rng

import moment_oracles as mo


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

    def test_phases_are_fixed_in_place(self, rng):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        _, v = np.linalg.eigh((g + g.conj().T) / 2)
        lead = v[np.abs(v).argmax(axis=0), np.arange(8)]
        expected = v * np.conj(lead / np.abs(lead))
        out = sp._fix_eigenvector_phases(v)
        assert out is v
        assert np.array_equal(out, expected)

    def test_phases_are_fixed_column_block_by_column_block(self, rng):
        d = 2 * sp.PHASE_COLUMNS + 22  # three blocks, the last one partial
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        _, v = np.linalg.eigh((g + g.conj().T) / 2)
        lead = v[np.abs(v).argmax(axis=0), np.arange(d)]
        expected = v * np.conj(lead / np.abs(lead))
        assert np.array_equal(sp._fix_eigenvector_phases(v), expected)

    def test_input_is_left_unchanged(self, rng):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        for entries in ((g + g.conj().T) / 2, hb.build_hamiltonian({"model": "mfim", "n": 5}).entries):
            h = hb.HermitianOperator(entries, hb.qubit_or_flat_dims(entries.shape[0]))
            before = h.entries.copy()
            sp.diagonalize(h)
            assert np.array_equal(h.entries, before)


def _old_route(model):
    """The earlier `diagonalize`: LAPACK ?heevd on scipy's own copy of a C-ordered H."""
    h = np.ascontiguousarray(hb.build_hamiltonian(model).entries)
    w, v = scipy.linalg.eigh(h, driver="evd", check_finite=False)
    return w, sp._fix_eigenvector_phases(v)


class TestModelSpectrum:
    @pytest.mark.parametrize("name", ["mfim", "tfim", "xxz", "mfim_broken_trs"])
    def test_bit_identical_to_diagonalize_of_the_built_matrix(self, name):
        for n in range(1, 9):
            model = {"model": name, "n": n}
            sd = sp.model_spectrum(model)
            ref = sp.diagonalize(hb.build_hamiltonian(model))
            old_w, old_v = _old_route(model)
            for w, v in ((ref.eigenvalues, ref.eigenvectors), (old_w, old_v)):
                assert np.array_equal(sd.eigenvalues, w)
                assert np.array_equal(sd.eigenvectors, v)

    # H, overwritten by V, plus about two matrices of workspace (4.01 when H
    # was copied first), with no d x d |V| while phases are fixed
    def test_peak_memory_in_matrices(self):
        n = 9
        unit = (2**n) ** 2 * 16
        model = {"model": "mfim", "n": n}
        sp.model_spectrum(model)  # warm up lazily created module state
        tracemalloc.start()
        try:
            sp.model_spectrum(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * unit

    def test_spectrum_cap_is_checked_before_the_build(self):
        n = 6
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as err:
                sp.model_spectrum({"model": "mfim", "n": n}, Caps(max_spectrum_dim=2**5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.cap_name == "max_spectrum_dim"
        assert peak < (2**n) ** 2 * 16


def _tridiagonal(d):
    if d == 1:
        return np.array([0.7]), np.empty(0)
    return rmt._gue_tridiagonal(d, task_rng(36, d))


class TestTridiagonalLevels:
    @pytest.mark.parametrize("d", [1, 2, 48, 1024])
    def test_bit_identical_to_scipy_sterf(self, d):
        diag, off = _tridiagonal(d)
        kept = diag.copy(), off.copy()
        levels = sp._tridiagonal_levels(diag, off)
        expected = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")
        assert np.array_equal(levels, expected)
        # dsterf overwrites its arrays: the inputs must be left as they were
        assert np.array_equal(diag, kept[0]) and np.array_equal(off, kept[1])

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_off_of_the_wrong_length_is_rejected_before_the_solve(self, monkeypatch, length):
        def dsterf(*args):
            raise AssertionError("dsterf called")

        monkeypatch.setattr(sp, "_dsterf", dsterf)
        with pytest.raises(ValueError, match="length"):
            sp._tridiagonal_levels(np.ones(3), np.ones(length))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sp._tridiagonal_levels(*rmt._gue_tridiagonal(8, task_rng(35))),
            lambda: rmt.convergence_experiment(8, 1),
        ],
        ids=["eigh_tridiagonal", "eigh_tridiagonal-convergence_experiment"],
    )
    def test_solver_failure_is_named(self, monkeypatch, call):
        def fail(n, d, e, info):  # dsterf's info > 0: that many off-diagonals did not converge
            info.value = 1

        monkeypatch.setattr(sp, "_dsterf", fail)
        with pytest.raises(NumericalFailureError, match="tridiagonal eigensolver failed"):
            call()


class TestEvolve:
    def test_time_zero_identity(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        psi = random_state(8, rng)
        sd = sp.bind_state(sp.diagonalize(h), psi)
        out = sp.evolve_grid(sd, [0.0])[:, 0]
        assert np.abs(out - psi.amplitudes).max() <= 1e-12

    def test_two_level_precession(self):
        h = hb.HermitianOperator(np.diag([1.0, -1.0]).astype(complex), (2,))
        plus = hb.PureState([1, 1] / np.sqrt(2), (2,))
        sd = sp.bind_state(sp.diagonalize(h), plus)
        for t in (0.3, np.pi / 2, 1.7):
            out = sp.evolve_grid(sd, [t])[:, 0]
            overlap = abs(np.vdot(plus.amplitudes, out)) ** 2
            assert abs(overlap - np.cos(t) ** 2) <= 1e-12
        y = np.array([[0, -1j], [1j, 0]])
        y_expect = lambda s: np.vdot(s, y @ s).real
        at_quarter, at_three_quarters = sp.evolve_grid(sd, [np.pi / 4, 3 * np.pi / 4]).T
        assert y_expect(at_quarter) == pytest.approx(1.0, abs=1e-12)
        assert y_expect(at_three_quarters) == pytest.approx(-1.0, abs=1e-12)

    def test_unbound_spectrum_is_rejected(self):
        sd = sp.diagonalize(hb.build_hamiltonian({"model": "mfim", "n": 3}))
        with pytest.raises(ValueError, match="bound to an initial state"):
            sp.evolve_grid(sd, [0.0, 2.0])

    def test_bound_spectrum_uses_its_stored_overlaps(self):
        sd = sp.diagonalize(hb.build_hamiltonian({"model": "mfim", "n": 6}))
        psi0, times = hb.product_state(0.3, 6), [0.0, 2.0]
        bound = sp.bind_state(sd, psi0)
        out = sp.evolve_grid(bound, times)
        phases = np.exp(-1j * np.outer(bound.eigenvalues, times))
        assert np.array_equal(out, bound.eigenvectors @ (bound.overlaps[:, None] * phases))
        # the dense propagator exp(-iHt) = V exp(-iEt) V^dagger, applied to psi0
        for col, t in zip(out.T, times):
            u = (sd.eigenvectors * np.exp(-1j * sd.eigenvalues * t)) @ sd.eigenvectors.conj().T
            assert np.abs(col - u @ psi0.amplitudes).max() <= 1e-12

    def test_eigenstate_is_stationary(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 2], (2,) * 3)
        bound = sp.bind_state(sd, eig)
        for out in sp.evolve_grid(bound, [0.0, 1.3, 50.0]).T:
            assert abs(abs(np.vdot(eig.amplitudes, out)) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_rejected(self, t):
        sd = sp.diagonalize(hb.build_hamiltonian({"model": "mfim", "n": 3}))
        bound = sp.bind_state(sd, hb.product_state(0.2, 3))
        with pytest.raises(ValueError, match="finite"):
            sp.evolve_grid(bound, [0.0, t])

    def test_populations_conserved(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        psi = random_state(16, rng)
        bound = sp.bind_state(sd, psi)
        for out in sp.evolve_grid(bound, [0.7, 13.9]).T:
            pops = np.abs(sd.eigenvectors.conj().T @ out) ** 2
            assert np.abs(pops - bound.populations).max() <= 1e-12
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


PROPAGATION_MODELS = [
    {"model": "mfim", "n": 8},
    {"model": "tfim", "n": 7},
    {"model": "mfim_broken_trs", "n": 6},
    {"model": "xxz", "n": 8},
]


def into_sector(psi):
    """The R-even state psi on n qubits, taken from the computational basis into
    the frame of `hilbert.sparse_hamiltonian` and then into its sector."""
    n = psi.size.bit_length() - 1
    framed = hb.apply_local_rotations(psi[None, :], [hb.CHAIN_FRAME.conj().T] * n)[0]
    reps, _, sizes = hb.reflection_orbits(n)
    return np.sqrt(sizes) * framed[reps]


def out_of_sector(psi_s, n):
    """The inverse of `into_sector`: out of the sector, then out of the frame."""
    _, orbit, sizes = hb.reflection_orbits(n)
    framed = (psi_s / np.sqrt(sizes))[orbit]
    return hb.apply_local_rotations(framed[None, :], [hb.CHAIN_FRAME] * n)[0]


class TestPropagate:
    @pytest.mark.parametrize("model", PROPAGATION_MODELS, ids=lambda m: m["model"])
    def test_matches_spectral_evolution(self, model, rng):
        h, interval = hb.sparse_hamiltonian(model)
        n = model["n"]
        psi_s = random_state(h.shape[0], rng).amplitudes  # a random R-even state, in the sector
        psi = hb.PureState(out_of_sector(psi_s, n), (2,) * n)
        sd = sp.bind_state(sp.diagonalize(hb.build_hamiltonian(model)), psi)
        for t in (0.0, 1e-3, 3.0, 20.0, 100.0, -7.0):
            out = out_of_sector(sp.propagate(h, interval, psi_s, t), n)
            assert np.abs(out - sp.evolve_grid(sd, [t])[:, 0]).max() <= 1e-12, t

    def test_dense_complex_matrix_matches_spectral_evolution(self, rng):
        m = mo.sample_gue_complex(32, task_rng(11))
        levels = np.linalg.eigvalsh(m)
        psi = random_state(32, rng)
        sd = sp.bind_state(sp.diagonalize(hb.HermitianOperator(m, (2,) * 5)), psi)
        h = scipy.sparse.csr_matrix(m)
        for t in (0.0, 1e-3, 3.0, 20.0, 100.0, -7.0):
            out = sp.propagate(h, (levels[0], levels[-1]), psi.amplitudes, t)
            assert np.abs(out - sp.evolve_grid(sd, [t])[:, 0]).max() <= 1e-12, t

    @pytest.mark.parametrize("model", PROPAGATION_MODELS, ids=lambda m: m["model"])
    def test_quench_state_matches_the_complex_route_and_evolution(self, model):
        theta = 0.7
        cache = pl.SpectrumCache()
        bound = cache.bound(model, theta)
        psi0 = hb.product_state(theta, bound.dim.bit_length() - 1).amplitudes
        for t in (0.0, 1e-3, 3.0, 20.0, 100.0, -7.0):
            out = pl.quench_state(cache, model, theta, t).amplitudes
            assert np.abs(out - mo.complex_chebyshev_propagate(model, psi0, t)).max() <= 1e-12, t
            assert np.abs(out - sp.evolve_grid(bound, [t])[:, 0]).max() <= 1e-12, t

    def test_long_time_within_the_stated_bound(self):
        n, t = 8, 1e3
        psi0 = hb.product_state(0.3, n).amplitudes
        # field-only chain: exp(-iHt) is a product of exact single-site rotations
        h, interval = hb.sparse_hamiltonian({"model": "mfim", "n": n, "hx": 1.0, "hy": 0.0, "j": 0.0})
        site = np.cos(t) * np.eye(2) - 1j * np.sin(t) * np.array([[0.0, 1.0], [1.0, 0.0]])
        exact = np.array([[1.0]])
        for _ in range(n):
            exact = np.kron(site, exact)
        terms = sp._chebyshev_coefficients((interval[1] - interval[0]) / 2 * t).size
        out = out_of_sector(sp.propagate(h, interval, into_sector(psi0), t), n)
        assert np.linalg.norm(out - exact @ psi0) <= 2 * terms * 2.0**-53
        # the interacting chain, against the eigendecomposition
        model = {"model": "mfim", "n": n}
        h, interval = hb.sparse_hamiltonian(model)
        terms = sp._chebyshev_coefficients((interval[1] - interval[0]) / 2 * t).size
        out = out_of_sector(sp.propagate(h, interval, into_sector(psi0), t), n)
        sd = sp.diagonalize(hb.build_hamiltonian(model))
        sd = sp.bind_state(sd, hb.PureState(psi0, (2,) * n))
        expected = sp.evolve_grid(sd, [t])[:, 0]
        assert np.abs(out - expected).max() <= terms * 2.0**-53

    def test_time_zero_returns_the_input(self, rng):
        h, interval = hb.sparse_hamiltonian({"model": "xxz", "n": 5})
        psi = random_state(20, rng).amplitudes  # the sector of 5 sites has 20 states
        assert np.array_equal(sp.propagate(h, interval, psi, 0.0), psi)

    @pytest.mark.parametrize("t", [0.0, 2.5, -40.0])
    def test_zero_width_interval_is_a_phase(self, t, rng):
        psi = random_state(6, rng).amplitudes  # the sector of 3 sites has 6 states
        h, interval = hb.sparse_hamiltonian({"model": "mfim", "n": 3, "hx": 0, "hy": 0, "j": 0})
        assert interval == (0.0, 0.0)
        assert np.array_equal(sp.propagate(h, interval, psi, t), psi)
        # one term: the phase times psi0, with no division by the zero half-width
        h = scipy.sparse.csr_matrix(1.5 * np.eye(6, dtype=complex))
        assert np.array_equal(sp.propagate(h, (1.5, 1.5), psi, t), np.exp(-1.5j * t) * psi)

    def test_input_is_left_unchanged(self, rng):
        for model in ({"model": "mfim", "n": 5}, {"model": "mfim_broken_trs", "n": 5}):
            h, interval = hb.sparse_hamiltonian(model)
            psi = random_state(20, rng).amplitudes
            kept = psi.copy()
            sp.propagate(h, interval, psi, 3.0)
            assert np.array_equal(psi, kept)

    def test_series_stops_below_the_bessel_tail(self):
        for x in (0.0, 0.5, 30.0, -250.0, 3000.0):
            c = sp._chebyshev_coefficients(x)
            orders = np.arange(c.size, c.size + 400)
            tail = 2 * np.abs(scipy.special.jv(orders, x)).sum()
            assert tail < 2.0**-53
            assert 2 * np.abs(scipy.special.jv(orders[0] - 1, x)) + tail >= 2.0**-53
            # the series sums to exp(-ix) at H = 1, where every T_k is 1
            assert abs(c.sum() - np.exp(-1j * x)) <= 1e-12

    # J_k(x) to 40 digits, computed with mpmath 1.3.0 (mp.dps = 45) at the
    # doubles 322.3 and 1000.0; orders 92-218 are where scipy.special.jv errs most
    BESSEL_REFERENCE = {
        322.3: (
            (0, "2.126969119373036889126133325055957365028e-2"),
            (1, "3.905659563143419517746933712384030751343e-2"),
            (92, "-7.078679203423263425397279077397164023839e-3"),
            (102, "-3.287240289603742150187692072031289419777e-3"),
            (145, "1.308278712143510360781298996017844255701e-2"),
            (250, "5.019038017528089385900099539630668125435e-2"),
            (322, "6.786904223510857519529715804971401788626e-2"),
            (360, "1.765100512568998337528372651653940583196e-7"),
            (398, "3.665882379538860899587754132133085472879e-17"),
        ),
        1000.0: (
            (0, "2.478668615242017456133073111569370878617e-2"),
            (1, "4.728311907089523917576071901216916285418e-3"),
            (111, "-1.812468065247174682919421780978330297525e-3"),
            (193, "5.454510302244698632137622296482055861069e-4"),
            (218, "-1.187390423702704857809849926402943193647e-2"),
            (600, "-1.67618744308700328112341387350918126537e-2"),
            (999, "4.883022877022178131882249909385918388947e-2"),
            (1000, "4.473067294796404088059758056821565457325e-2"),
            (1080, "1.163790853732394957829756375386870509073e-11"),
            (1110, "2.518858656616893165018048162798055344811e-17"),
        ),
    }

    @pytest.mark.parametrize("x", sorted(BESSEL_REFERENCE))
    def test_coefficients_match_forty_digit_bessel_values(self, x):
        c = sp._chebyshev_coefficients(x)
        for k, value in self.BESSEL_REFERENCE[x]:
            expected = (1 if k == 0 else 2) * (1, -1j, -1, 1j)[k % 4] * float(value)
            assert abs(c[k] - expected) <= 2e-15, k
        # J_k(-x) = (-1)^k J_k(x), so the series at -x is the conjugate one
        assert np.array_equal(sp._chebyshev_coefficients(-x), np.conj(c))

    def test_tiny_arguments_keep_the_leading_bessel_term(self):
        # below |x| = 1e-30 the recurrence's factors 2k / |x| could overflow
        for x in (1e-300, -1e-40, 1e-29, -1e-20):
            expected = [(x / 2) ** k / math.factorial(k) for k in range(6)]
            assert sp._bessel_j(6, x) == pytest.approx(expected, rel=1e-14, abs=0), x
            assert np.array_equal(sp._chebyshev_coefficients(x), [1.0]), x

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_rejected(self, t):
        h, interval = hb.sparse_hamiltonian({"model": "mfim", "n": 3})
        with pytest.raises(ValueError, match="finite"):
            sp.propagate(h, interval, into_sector(hb.product_state(0.2, 3).amplitudes), t)

    @pytest.mark.parametrize("model", [{"model": "mfim", "n": 5}, {"model": "mfim_broken_trs", "n": 5}])
    @pytest.mark.parametrize("size", [40, 12])
    def test_state_of_the_wrong_length_is_rejected(self, model, size, rng):
        # the sparse products check no bounds: a longer state would be read in
        # part, a shorter one past its end
        h, interval = hb.sparse_hamiltonian(model)
        assert h.shape == (20, 20) and h.dtype == (np.float64 if model["model"] == "mfim" else complex)
        with pytest.raises(ValueError, match="does not fit"):
            sp.propagate(h, interval, random_state(size, rng).amplitudes, 3.0)
        with pytest.raises(ValueError, match="does not fit"):
            sp.propagate(h, interval, random_state(20, rng).amplitudes[None, :], 3.0)


class TestDiagonalEnsemble:
    def test_eigenstate_gives_pure_diagonal(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 1], (2,) * 3)
        bound = sp.bind_state(sd, eig)
        rho = mo.dephase(bound, np.outer(eig.amplitudes, eig.amplitudes.conj()))
        assert np.sum(bound.populations**2) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.matrix_rank(rho, tol=1e-8) == 1

    def test_uniform_overlaps(self):
        h = hb.HermitianOperator(np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex), (2, 2))
        sd = sp.diagonalize(h)
        psi = hb.PureState(np.ones(4) / 2, (2, 2))
        bound = sp.bind_state(sd, psi)
        assert np.sum(bound.populations**2) == pytest.approx(0.25, abs=1e-12)

    def test_purity_matches_survival_probability_average(self, spectrum_factory):
        bound = spectrum_factory("mfim", 10, 0.6)
        purity = np.sum(bound.populations**2)
        psi0 = hb.product_state(0.6, 10)
        times = np.linspace(100.0, 30100.0, 5000)
        states = sp.evolve_grid(bound, times)
        survival = np.abs(psi0.amplitudes.conj() @ states) ** 2
        avg = float(survival.mean())
        assert abs(avg - purity) / purity <= 0.02

    def test_dimension_off_powers_of_two(self, rng):
        h = hb.HermitianOperator(mo.sample_gue_complex(48, rng), (48,))
        psi = random_state(48, rng)
        bound = sp.bind_state(sp.diagonalize(h), psi)
        rho = mo.dephase(bound, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        purity = np.sum(bound.populations**2)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(rho) ** 2) == pytest.approx(purity, abs=1e-12)  # tr rho^2


class TestDegenerateBinding:
    """`bind_state` dephases each degenerate eigenspace as a whole."""

    def test_xxz_time_average_is_the_projector_sum(self, spectrum_factory):
        # the open xxz chain is spin-flip symmetric: 22 degenerate groups at n = 6
        sd, psi0 = spectrum_factory("xxz", 6), hb.product_state(0.6, 6)
        bound = sp.bind_state(sd, psi0)
        rho0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
        rho = mo.dephase(bound, rho0)
        expected = mo.eigenspace_dephase(sd, rho0)
        assert np.abs(rho - expected).max() <= 1e-14
        assert np.sum(bound.populations**2) == pytest.approx(np.sum(np.abs(expected) ** 2), abs=1e-14)

    def test_planted_degeneracy(self, rng):
        levels = np.array([-1.3, 0.2, 0.2, 0.2, 0.7, 1.1, 1.1, 2.0])
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        h = hb.HermitianOperator((q * levels) @ q.conj().T, (2,) * 3)
        psi0 = random_state(8, rng)
        bound = sp.bind_state(sp.diagonalize(h), psi0)
        rho0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
        expected = np.zeros((8, 8), dtype=complex)
        for group in ([0], [1, 2, 3], [4], [5, 6], [7]):
            p = q[:, group] @ q[:, group].conj().T
            expected += p @ rho0 @ p
        rho = mo.dephase(bound, rho0)
        assert np.abs(rho - expected).max() <= 1e-14
        # one vector of each group carries its overlap, and evolution is unchanged
        assert np.count_nonzero(bound.overlaps) == 5
        for t in (0.0, 3.0, -40.0):
            u = (q * np.exp(-1j * levels * t)) @ q.conj().T
            assert np.abs(sp.evolve_grid(bound, [t])[:, 0] - u @ psi0.amplitudes).max() <= 1e-12

    def test_xxz_first_moment_reaches_the_random_phase_moment(self, spectrum_factory):
        bound = spectrum_factory("xxz", 6, 0.6)
        assert en.finite_time_frobenius_distances(bound, 1, [1e8])[0] < 1e-5

    def test_spectrum_without_groups_keeps_its_arrays(self, spectrum_factory):
        sd, psi0 = spectrum_factory("mfim", 6), hb.product_state(0.6, 6)
        bound = sp.bind_state(sd, psi0)
        assert bound.eigenvalues is sd.eigenvalues and bound.eigenvectors is sd.eigenvectors
        assert np.array_equal(bound.overlaps, sd.eigenvectors.conj().T @ psi0.amplitudes)

    def test_group_the_state_misses_is_left_as_it_is(self):
        sd = sp.diagonalize(hb.HermitianOperator(np.diag([0.0, 0.0, 1.0, 2.0]), (2, 2)))
        bound = sp.bind_state(sd, hb.PureState(np.eye(4)[2], (2, 2)))
        assert np.array_equal(bound.populations, [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(bound.eigenvectors, sd.eigenvectors)


class TestEnergyMoments:
    def test_eigenstate_has_zero_width(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 4], (2,) * 3)
        e, sigma = mo.energy_moments(eig, h)
        assert e == pytest.approx(sd.eigenvalues[4], abs=1e-10)
        assert sigma <= 1e-6

    def test_plus_under_z(self):
        h = hb.HermitianOperator(np.diag([1.0, -1.0]).astype(complex), (2,))
        plus = hb.PureState([1, 1] / np.sqrt(2), (2,))
        e, sigma = mo.energy_moments(plus, h)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_energy_density_of_standard_quench(self):
        h, _ = hb.sparse_hamiltonian({"model": "mfim", "n": 12})
        psi = into_sector(hb.product_state(0.6, 12).amplitudes)  # the product state in h's sector
        e = float(np.vdot(psi, h @ psi).real)
        assert e / 12 == pytest.approx(0.51, abs=0.02)


class TestTwirl2:
    def test_identity_is_invariant(self, rng):
        h = (lambda g: hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 2))(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        sd = sp.diagonalize(h)
        assert mo.resonance_tuple_scan(sd.eigenvalues, 2)[0] != "fail"
        out = mo.twirl2(sd, np.eye(16, dtype=complex))
        assert np.abs(out - np.eye(16)).max() <= 1e-10

    def test_initial_state_twirl_matches_random_phase_moment(self, rng):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * 3)
        sd = sp.diagonalize(h)
        psi = random_state(8, rng)
        bound = sp.bind_state(sd, psi)
        a = np.outer(psi.amplitudes, psi.amplitudes.conj())
        a2 = np.kron(a, a)
        assert mo.resonance_tuple_scan(sd.eigenvalues, 2)[0] != "fail"
        out = mo.twirl2(sd, a2)
        v2 = np.kron(sd.eigenvectors, sd.eigenvectors)
        out_eig = v2.conj().T @ out @ v2
        expected = mo.dense(en.random_phase_moment_exact(bound.populations, 2))
        assert np.abs(out_eig - expected).max() <= 1e-10

    def test_commutes_with_two_copy_evolution(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2, 2))
        sd = sp.diagonalize(h)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert mo.resonance_tuple_scan(sd.eigenvalues, 2)[0] != "fail"
        out = mo.twirl2(sd, a)
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
        assert mo.resonance_tuple_scan(sd.eigenvalues, 2)[0] != "fail"
        tw = v2.conj().T @ mo.twirl2(sd, a) @ v2
        spacing = sd.spectral_width() / (d - 1)
        ts = np.logspace(3, 6, 10) / spacing
        residuals = []
        for t_max in ts:
            x = de * t_max / 2.0
            kernel = np.exp(-1j * x) * en.stable_sinc(x)
            avg = at * kernel
            residuals.append(np.linalg.norm(avg - tw) / np.linalg.norm(tw))
        slope = np.polyfit(np.log(ts), np.log(residuals), 1)[0]
        assert abs(slope + 1.0) < 0.35
        at_1e4 = np.interp(1e4 / spacing, ts, residuals)
        assert at_1e4 <= 1e-2
