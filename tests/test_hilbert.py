import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from scipy.stats import unitary_group

from qensembles import CapacityError, Caps, InvalidMatrixError, InvalidModelError
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import spectral as sp
from qensembles._util import HERMITICITY_BLOCK, hermiticity_defect

import moment_oracles as mo

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def kron_chain(*ops):
    """Little-endian embedding: first argument acts on site 0 (least significant)."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(op, out)
    return out


class TestBuildHamiltonian:
    def test_single_site_field_matrix(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 1, "hx": 0.890, "hy": 0.9045, "j": 1})
        assert np.allclose(h.entries, 0.890 * X + 0.9045 * Y)

    def test_zero_couplings_give_zero_matrix(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3, "hx": 0, "hy": 0, "j": 0})
        assert np.all(h.entries == 0)

    def test_two_site_hand_expansion(self):
        # X_0 + X_1 + X_0 X_1, expanded entrywise by hand
        h = hb.build_hamiltonian({"model": "mfim", "n": 2, "hx": 1, "hy": 0, "j": 1})
        expected = kron_chain(X, np.eye(2)) + kron_chain(np.eye(2), X) + kron_chain(X, X)
        assert np.allclose(h.entries, expected)
        assert np.allclose(np.diag(h.entries), 0)
        assert np.allclose(h.entries - np.diag(np.diag(h.entries)), 1 - np.eye(4))

    def test_default_parameters_are_the_standard_point(self):
        # (h_x, h_y) = (0.8090, 0.9045): Kim & Huse, PRL 111, 127205 (2013)
        h = hb.build_hamiltonian({"model": "mfim", "n": 2})
        href = hb.build_hamiltonian({"model": "mfim", "n": 2, "hx": 0.8090, "hy": 0.9045, "j": 1})
        assert np.allclose(h.entries, href.entries)

    def test_tfim_is_mfim_without_x_field(self):
        h = hb.build_hamiltonian({"model": "tfim", "n": 3})
        href = hb.build_hamiltonian({"model": "mfim", "n": 3, "hx": 0.0})
        assert np.allclose(h.entries, href.entries)

    def test_broken_trs_extra_terms(self):
        h = hb.build_hamiltonian({"model": "mfim_broken_trs", "n": 2})
        base = hb.build_hamiltonian({"model": "mfim", "n": 2})
        extra = 0.5 * (kron_chain(Z, np.eye(2)) + kron_chain(np.eye(2), Z)) + 0.4 * kron_chain(Y, Y)
        assert np.allclose(h.entries, base.entries + extra)

    def test_xxz_couplings(self):
        j, delta, delta2 = np.sqrt(2.0), (np.sqrt(5.0) + 1) / 4, 1.0
        h = hb.build_hamiltonian({"model": "xxz", "n": 3})
        expected = np.zeros((8, 8), dtype=complex)
        for s, ops in [(0, (X, X, np.eye(2))), (1, (np.eye(2), X, X))]:
            expected += j / 4 * kron_chain(*ops)
        for s, ops in [(0, (Y, Y, np.eye(2))), (1, (np.eye(2), Y, Y))]:
            expected += j / 4 * kron_chain(*ops)
        for s, ops in [(0, (Z, Z, np.eye(2))), (1, (np.eye(2), Z, Z))]:
            expected += delta / 4 * kron_chain(*ops)
        expected += delta2 / 4 * kron_chain(Z, np.eye(2), Z)
        assert np.allclose(h.entries, expected)

    def test_every_model_is_hermitian(self):
        for spec in (
            {"model": "mfim", "n": 4},
            {"model": "mfim_broken_trs", "n": 4},
            {"model": "xxz", "n": 4},
            {"model": "tfim", "n": 4},
        ):
            h = hb.build_hamiltonian(spec)
            assert np.abs(h.entries - h.entries.conj().T).max() <= 1e-12

    def test_parity_symmetry_of_x_only_chain(self):
        # with h_y = 0 the chain commutes with the product of all X
        h = hb.build_hamiltonian({"model": "mfim", "n": 4, "hy": 0.0}).entries
        parity = kron_chain(X, X, X, X)
        assert np.linalg.norm(h @ parity - parity @ h) <= 1e-10

    def test_gue_is_not_a_model_name(self):
        # models are chains; a random matrix goes through the spectral layers
        # (`spectral.diagonalize`, `spectral.propagate`), never through a model
        builds = (
            hb.build_hamiltonian,
            hb.sparse_hamiltonian,
            sp.model_spectrum,
            lambda model: pl.quench_state(pl.SpectrumCache(), model, 0.3, 1.0),
        )
        cases = [
            ({"model": "gue", "n": 2, "matrix": np.eye(4)}, "unknown model 'gue'"),
            ({"model": "explicit", "matrix": np.eye(4)}, "unknown model 'explicit'"),
            ({"model": "mfim", "n": 6.7}, "needs an integer n, not 6.7"),
        ]
        for model, message in cases:
            for build in builds:
                with pytest.raises(InvalidModelError, match=message):
                    build(model)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidModelError):
            hb.build_hamiltonian({"model": "mfim", "n": 0})
        with pytest.raises(InvalidModelError):
            hb.build_hamiltonian({"model": "unknown", "n": 2})
        with pytest.raises(InvalidModelError):
            hb.build_hamiltonian({"model": "mfim", "n": 2, "boundary": "periodic"})
        with pytest.raises(InvalidModelError):
            hb.build_hamiltonian({"model": "tfim", "n": 4, "hx": 0.5})
        with pytest.raises(InvalidMatrixError):
            hb.HermitianOperator(np.array([[0, 1], [0, 0]]), (2,))


CHAIN_MODELS = {
    "mfim": {"hx": 0.53, "hy": -1.1, "j": 0.7},
    "tfim": {"hy": 1.3, "j": -0.6},
    "mfim_broken_trs": {"hx": 0.2, "hy": 0.9, "j": 1.4, "hz": -0.3, "jp": 0.25},
    "xxz": {"j": 0.9, "delta": 0.45, "delta2": -0.7},
}


def in_frame(m, n):
    """CHAIN_FRAME^(x n) m CHAIN_FRAME^dag(x n), by one 2 x 2 contraction per
    site on each side, in extended precision so that its own rounding stays
    far below that of a float64 matrix."""
    u = np.array([[1, 1], [1j, -1j]], dtype=np.clongdouble) / np.sqrt(np.longdouble(2))
    # each site contracts with the conjugate of the factor passed
    right = hb.apply_local_rotations(m.astype(np.clongdouble), [u.T] * n)  # m U^dag
    return hb.apply_local_rotations(right.T, [u.conj().T] * n).T  # U (m U^dag)


def sector_isometry(n):
    """The dense 2^n x m isometry P of `reflection_orbits`, column o = sum_{i in o} |i> / sqrt(|o|)."""
    reps, orbit, sizes = hb.reflection_orbits(n)
    p = np.zeros((2**n, reps.size))
    p[np.arange(2**n), orbit] = 1.0 / np.sqrt(sizes[orbit])
    return p


class TestModelTerms:
    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    @pytest.mark.parametrize("overridden", [False, True])
    def test_dense_matrix_is_bit_identical_to_the_frozen_builder(self, name, overridden):
        params = CHAIN_MODELS[name] if overridden else {}
        for n in range(1, 11):
            spec = dict(params, model=name, n=n)
            h = hb.build_hamiltonian(spec).entries
            # bytes, so that the sign of every zero is pinned too
            assert h.tobytes() == mo.dense_hamiltonian_reference(spec).tobytes(), (name, n)

    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    @pytest.mark.parametrize("overridden", [False, True])
    def test_interval_is_bit_identical_to_the_frozen_builder(self, name, overridden):
        params = CHAIN_MODELS[name] if overridden else {}
        for n in range(1, 11):
            spec = dict(params, model=name, n=n)
            _, interval = hb.sparse_hamiltonian(spec)
            assert interval == mo.window_interval_reference(*hb.model_terms(spec)), (name, n)

    def test_mfim_table_order(self):
        n, terms = hb.model_terms({"model": "mfim", "n": 2, "hx": 0.5, "hy": 0.25, "j": 2.0})
        assert n == 2
        assert terms == (
            (0.5, {0: "X"}), (0.25, {0: "Y"}), (0.5, {1: "X"}), (0.25, {1: "Y"}),
            (2.0, {0: "X", 1: "X"}),
        )

    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    @pytest.mark.parametrize("overridden", [False, True])
    def test_sparse_matrix_and_norm_bound(self, name, overridden):
        params = CHAIN_MODELS[name] if overridden else {}
        for n in range(1, 9):
            spec = dict(params, model=name, n=n)
            h, (lo, hi) = hb.sparse_hamiltonian(spec)
            dense = hb.build_hamiltonian(spec).entries
            # the framed H projected onto the R-even sector, which it leaves invariant
            p = sector_isometry(n)
            framed = in_frame(dense, n)
            assert h.shape == (p.shape[1],) * 2, n
            assert np.abs(h.toarray() - p.T @ framed @ p).max() <= 1e-14, n
            assert np.abs(framed @ p - p @ h.toarray()).max() <= 1e-14, n
            # a mapped string is real when it holds an even number of Y
            assert h.dtype == (complex if name == "mfim_broken_trs" else np.float64)
            levels = np.linalg.eigvalsh(dense)  # the full spectrum holds the sector's
            # where one window is the whole chain, or every window a lone site
            # field, both sides are the same number up to rounding
            slack = 4 * 2.0**-53 * (hi - lo)
            assert lo <= levels[0] + slack and levels[-1] <= hi + slack, n
            # the earlier symmetric bound: sum |c| over couplings plus each site's field norm
            _, terms = hb.model_terms(spec)
            fields = {}
            for c, ops in terms:
                if len(ops) == 1:
                    fields[next(iter(ops))] = fields.get(next(iter(ops)), 0.0) + c * c
            couplings = sum(abs(c) for c, ops in terms if len(ops) > 1)
            assert (hi - lo) / 2 <= couplings + sum(math.sqrt(f) for f in fields.values()) + slack, n

    def test_mfim_interval_is_within_four_percent_of_the_spectrum(self):
        _, (lo, hi) = hb.sparse_hamiltonian({"model": "mfim", "n": 10})
        assert lo == pytest.approx(-13.48, abs=1e-2)
        assert hi == pytest.approx(18.74, abs=1e-2)

    def test_one_site_interval_is_its_spectrum(self):
        spec = {"model": "mfim_broken_trs", "n": 1, "hx": 0.3, "hy": -0.4, "hz": 1.2}
        h, interval = hb.sparse_hamiltonian(spec)  # one site: the sector is the whole space
        assert interval == pytest.approx((-1.3, 1.3), rel=1e-15)
        assert np.linalg.eigvalsh(h.toarray()) == pytest.approx([-1.3, 1.3], rel=1e-15)

    def test_zero_chain_has_no_terms(self):
        spec = {"model": "mfim", "n": 3, "hx": 0, "hy": 0, "j": 0}
        assert hb.model_terms(spec) == (3, ())
        h, interval = hb.sparse_hamiltonian(spec)
        assert h.shape == (6, 6) and h.count_nonzero() == 0 and interval == (0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    def test_non_finite_coefficient_is_an_invalid_model(self, name, value):
        for param in CHAIN_MODELS[name]:
            spec = {"model": name, "n": 3, param: value}
            for build in (hb.model_terms, hb.build_hamiltonian, hb.sparse_hamiltonian):
                with pytest.raises(InvalidModelError, match="non-finite"):
                    build(spec)

    @pytest.mark.parametrize(
        "name, entries",
        [
            ("mfim", 36 * 7 * 2),  # 36 sector rows, diagonal + 6 masks per row, realified
            ("mfim_broken_trs", 36 * 12),  # 36 sector rows, diagonal + 11 masks per row, complex
        ],
    )
    def test_sparse_assembly_is_capped(self, name, entries):
        spec = {"model": name, "n": 6}
        h, _ = hb.sparse_hamiltonian(spec, Caps(max_state_dim=entries))
        assert h.nnz * (2 if h.dtype == np.float64 else 1) == entries
        with pytest.raises(CapacityError, match="max_state_dim"):
            hb.sparse_hamiltonian(spec, Caps(max_state_dim=entries - 1))
        # refused before the 2^n-entry orbit tables of the sector are built
        with pytest.raises(CapacityError, match="max_state_dim"):
            hb.sparse_hamiltonian({"model": name, "n": 40})

    def test_dense_row_table_is_capped(self):
        # mfim in the computational basis: diagonal + 6 one-site + 5 bond masks, complex
        spec, entries = {"model": "mfim", "n": 6}, 2**6 * 12
        hb.build_hamiltonian(spec, Caps(max_state_dim=entries))
        with pytest.raises(CapacityError, match="max_state_dim"):
            hb.build_hamiltonian(spec, Caps(max_state_dim=entries - 1))


class TestNonFiniteEntries:
    def test_hermitian_operator_rejects_nan_entries(self):
        with pytest.raises(InvalidMatrixError):
            hb.HermitianOperator(np.array([[math.nan, 0], [0, 1]]), (2,))
        with pytest.raises(InvalidMatrixError):
            hb.HermitianOperator(np.array([[0, math.nan], [math.nan, 1]]), (2,))

    def test_normalized_state_rejects_nan(self):
        with pytest.raises(ValueError, match="norm"):
            hb.PureState(np.array([math.nan, 0]), (2,))
        with pytest.raises(ValueError, match="norm"):
            hb.PureState(np.array([1.0, math.nan]), (2,))


def full_hermiticity_defect(m):
    """The comparison over the whole matrix at once."""
    return float(np.abs(m - m.conj().T).max())


class TestHermiticityDefect:
    @pytest.mark.parametrize("d", [1, 5, HERMITICITY_BLOCK - 1, HERMITICITY_BLOCK + 1, 2 * HERMITICITY_BLOCK + 37])
    def test_equals_the_full_comparison(self, rng, d):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        near = (m + m.conj().T) / 2 + 1e-13 * rng.standard_normal((d, d))
        for a in (m, near, m.real):
            assert hermiticity_defect(a) == full_hermiticity_defect(a)

    @pytest.mark.parametrize("value", [math.nan, complex(0, math.nan), math.inf])
    def test_non_finite_entry_in_the_last_block(self, rng, value):
        d = 2 * HERMITICITY_BLOCK + 37
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m[d - 1, 3] = value  # below the diagonal, seen only through its transpose
        defect = hermiticity_defect(m)
        assert np.array_equal(defect, full_hermiticity_defect(m), equal_nan=True)
        assert not defect <= 1.0


    def test_stack_gives_the_largest_defect_of_its_matrices(self, rng):
        d = HERMITICITY_BLOCK + 3
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        stack = (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2
        stack[1, 5, d - 1] += 1e-9
        assert hermiticity_defect(stack) == max(full_hermiticity_defect(m) for m in stack) > 0
        stack[2, d - 1, 0] = math.nan
        assert math.isnan(hermiticity_defect(stack))


class TestProductState:
    def test_theta_zero_is_all_zeros(self):
        s = hb.product_state(0.0, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(s.amplitudes, expected)

    def test_full_flip(self):
        s = hb.product_state(np.pi, 1)
        assert abs(abs(s.amplitudes[1]) ** 2 - 1.0) < 1e-12

    def test_single_site_vector(self):
        s = hb.product_state(0.6, 1)
        assert np.allclose(s.amplitudes, [np.cos(0.3), 1j * np.sin(0.3)])

    def test_normalized(self):
        assert abs(np.linalg.norm(hb.product_state(1.234, 5).amplitudes) - 1.0) < 1e-12


class TestProjection:
    def test_bell_state_z_outcome(self):
        bell = hb.PureState([1, 0, 0, 1] / np.sqrt(2), (2, 2))
        part = hb.Bipartition(2, (0,))
        basis = hb.pauli_basis(part.sites_B, "Z")
        amp, p = mo.project_outcome(bell, part, basis, 0)
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(amp, [1 / np.sqrt(2), 0])

    def test_product_state_projection_is_outcome_independent(self):
        s = hb.product_state(0.7, 3)
        part = hb.Bipartition(3, (0,))
        basis = hb.pauli_basis(part.sites_B, "XY")
        states = []
        for z in range(4):
            amp, p = mo.project_outcome(s, part, basis, z)
            if p > 1e-12:
                states.append(amp / np.linalg.norm(amp))
        ref = states[0] / states[0][np.abs(states[0]).argmax()]
        for st in states[1:]:
            st = st / st[np.abs(st).argmax()]
            assert np.allclose(st, ref)

    def test_ghz_x_measurement(self):
        ghz = hb.PureState([1, 0, 0, 0, 0, 0, 0, 1] / np.sqrt(2), (2,) * 3)
        part = hb.Bipartition(3, (0,))
        basis = hb.pauli_basis(part.sites_B, "XX")
        amp, p = mo.project_outcome(ghz, part, basis, 0)
        assert abs(p - 0.25) < 1e-12
        normed = amp / np.linalg.norm(amp)
        target = np.array([1, 1]) / np.sqrt(2)
        overlap = abs(np.vdot(target, normed))
        assert abs(overlap - 1.0) < 1e-12

    def test_probabilities_sum_to_one_and_reconstruct(self, rng):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = hb.PureState(amps / np.linalg.norm(amps), (2,) * 4)
        part = hb.Bipartition(4, (1, 3))
        basis = hb.pauli_basis(part.sites_B, "XZ")
        table = hb.projection_table(state, part, basis)
        probs = np.sum(np.abs(table) ** 2, axis=0)
        assert abs(probs.sum() - 1.0) <= 1e-10
        # reconstruction: sum_z |psi(z)> (x) |z> recovers the state
        u = hb.basis_matrix(basis)
        m = np.zeros((part.d_a, part.d_b), dtype=complex)
        for z in range(part.d_b):
            m += np.outer(table[:, z], u[:, z])
        rebuilt = m[hb._subsystem_indices(4, part.sites_A), hb._subsystem_indices(4, part.sites_B)]
        assert np.abs(rebuilt - state.amplitudes).max() <= 1e-10

    def test_explicit_basis_matches_dense_basis_matrix(self, rng):
        n = 7
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = hb.PureState(amps / np.linalg.norm(amps), (2,) * n)
        part = hb.Bipartition(n, (4, 1))
        basis = hb.explicit_basis(part.sites_B, unitary_group.rvs(part.d_b, random_state=rng))
        expected = hb.split_bipartite(state, part) @ np.conj(hb.basis_matrix(basis))
        table = hb.projection_table(state, part, basis)
        assert np.abs(table - expected).max() <= 1e-12
        for z in (0, 5, part.d_b - 1):
            projected, p = mo.project_outcome(state, part, basis, z)
            assert np.abs(projected - expected[:, z]).max() <= 1e-12
            assert p == pytest.approx(np.sum(np.abs(expected[:, z]) ** 2), abs=1e-12)

    def test_basis_on_other_sites_is_rejected(self):
        state = hb.product_state(0.4, 4)
        part = hb.Bipartition(4, (1, 2))
        for basis in (hb.pauli_basis((3, 0), "Z"), hb.pauli_basis((0, 1), "Z")):
            with pytest.raises(ValueError):
                hb.projection_table(state, part, basis)
            with pytest.raises(ValueError):
                mo.project_outcome(state, part, basis, 0)

    def test_out_of_range_outcome(self):
        bell = hb.PureState([1, 0, 0, 1] / np.sqrt(2), (2, 2))
        part = hb.Bipartition(2, (0,))
        basis = hb.pauli_basis(part.sites_B, "Z")
        with pytest.raises(IndexError):
            mo.project_outcome(bell, part, basis, 2)


class TestSubsystemIndices:
    def test_cached_indices_are_read_only(self):
        first = hb._subsystem_indices(4, (1, 2))
        original = first.copy()
        with pytest.raises(ValueError):
            first[0] = 3
        again = hb._subsystem_indices(4, (1, 2))
        assert np.array_equal(again, original)
        assert np.array_equal(again, [0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3])


class TestReflectionSector:
    def test_orbit_table(self):
        for n in range(1, 13):
            reps, orbit, sizes = hb.reflection_orbits(n)
            mirror = np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)])
            assert reps.size == (2**n + 2 ** math.ceil(n / 2)) // 2, n
            assert np.array_equal(reps, np.flatnonzero(np.arange(2**n) <= mirror)), n
            assert np.array_equal(orbit[reps], np.arange(reps.size)) and np.array_equal(orbit[mirror], orbit), n
            assert np.array_equal(sizes, np.where(mirror[reps] == reps, 1, 2)), n
            assert np.array_equal(np.bincount(orbit), sizes), n
            assert all(not a.flags.writeable for a in (reps, orbit, sizes))
            if n <= 10:
                p = sector_isometry(n)
                assert np.abs(p.T @ p - np.eye(reps.size)).max() <= 1e-15, n
                assert np.array_equal(p[mirror], p), n  # R P = P: every column is R-even


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        bell = hb.PureState([1, 0, 0, 1] / np.sqrt(2), (2, 2))
        part = hb.Bipartition(2, (0,))
        rho = hb.partial_trace(bell, part)
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_product_state_gives_rank_one_projector(self):
        s = hb.product_state(0.9, 3)
        part = hb.Bipartition(3, (1,))
        rho = hb.partial_trace(s, part).entries
        local = np.array([np.cos(0.45), 1j * np.sin(0.45)])
        assert np.allclose(rho, np.outer(local, local.conj()))

    def test_trace_preserved_on_random_state(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 3)
        part = hb.Bipartition(3, (0, 2))
        rho = hb.partial_trace(s, part)
        assert abs(np.trace(rho.entries).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-12

    def test_projection_resolves_partial_trace(self, rng):
        # sum_z |psi(z)><psi(z)| over a complete B basis equals tr_B
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 5)
        part = hb.Bipartition(5, (0, 2))
        basis = hb.pauli_basis(part.sites_B, "YXZ")
        table = hb.projection_table(s, part, basis)
        mix = table @ table.conj().T
        rho = hb.partial_trace(s, part).entries
        assert np.abs(mix - rho).max() <= 1e-10


class TestBases:
    def test_gram_defect_product(self):
        basis = hb.pauli_basis((0, 1, 2), "XYZ")
        assert mo.basis_gram_defect(basis) <= 1e-12

    def test_explicit_basis_columns(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        basis = hb.explicit_basis((0, 1), q)
        assert mo.basis_gram_defect(basis) <= 1e-12

    def test_explicit_basis_must_be_unitary(self):
        # diag(1, 2, 1, 1) would give conditional-state weights summing to 1.43
        with pytest.raises(InvalidMatrixError, match="unitary"):
            hb.explicit_basis((0, 1), np.diag([1.0, 2.0, 1.0, 1.0]))
        nan = np.eye(4)
        nan[2, 1] = math.nan
        with pytest.raises(InvalidMatrixError, match="unitary"):
            hb.explicit_basis((0, 1), nan)

    def test_a_basis_is_its_sites_and_local_factors(self, rng):
        assert [f.name for f in dataclasses.fields(hb.MeasurementBasis)] == ["sites", "factors"]
        pauli = hb.pauli_basis((3, 1), "XY")
        assert [u.shape for u in pauli.factors] == [(2, 2), (2, 2)]
        q = unitary_group.rvs(4, random_state=rng)
        explicit = hb.explicit_basis((3, 1), q)
        assert len(explicit.factors) == 1
        assert np.array_equal(hb.basis_matrix(explicit), q)

    def test_basis_matrix_little_endian(self):
        basis = hb.pauli_basis((0, 1), "XZ")
        u = hb.basis_matrix(basis)
        # outcome z=1 flips the X-basis site (bit 0): |-> on site 0, |0> on site 1
        minus = np.array([1, -1]) / np.sqrt(2)
        expected = np.kron(np.array([1.0, 0.0]), minus)
        assert np.allclose(u[:, 1], expected)

    def test_central_sites(self):
        assert hb.central_sites(8, 4) == (2, 3, 4, 5)
        assert hb.central_sites(14, 4) == (5, 6, 7, 8)
        assert hb.central_sites(6, 6) == (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("width", [-1, 0, 7])
    def test_central_sites_reject_a_width_outside_the_chain(self, width):
        with pytest.raises(ValueError, match="width must be between 1 and n = 6"):
            hb.central_sites(6, width)


@st_h.composite
def bipartitions(draw, max_sites=6):
    n = draw(st_h.integers(1, max_sites))
    order = draw(st_h.permutations(range(n)))
    width = draw(st_h.integers(0, n))
    return hb.Bipartition(n, tuple(order[:width]))


class TestBipartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(part=bipartitions(), seed=st_h.integers(0, 2**16))
    def test_split_then_merge_round_trips(self, part, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(2**part.n_sites) + 1j * rng.standard_normal(2**part.n_sites)
        amps /= np.linalg.norm(amps)
        state = hb.PureState(amps, (2,) * part.n_sites)
        m = hb.split_bipartite(state, part)
        # entry (a, b) sits at the full index with bit i of a on sites_A[i], bit j of b on sites_B[j]
        for a in range(part.d_a):
            for b in range(part.d_b):
                full = sum(((a >> i) & 1) << s for i, s in enumerate(part.sites_A))
                full += sum(((b >> j) & 1) << s for j, s in enumerate(part.sites_B))
                assert m[a, b] == amps[full]
        n = part.n_sites
        rebuilt = m[hb._subsystem_indices(n, part.sites_A), hb._subsystem_indices(n, part.sites_B)]
        assert np.array_equal(rebuilt, amps)


def rotate(m, us, conjugate):
    """Contract with each conj(u) (conjugate=True) or, by passing conj(u), with each u itself."""
    return hb.apply_local_rotations(m, us if conjugate else [np.conj(u) for u in us])


@settings(max_examples=40, deadline=None)
@given(
    blocks=st_h.one_of(
        st_h.integers(1, 6).map(lambda k: [2] * k),  # one qubit per block
        st_h.lists(st_h.sampled_from([2, 4, 8]), min_size=1, max_size=3),  # mixed block sizes
    ),
    rows=st_h.integers(1, 3),
    conjugate=st_h.booleans(),
    seed=st_h.integers(0, 2**16),
)
def test_apply_local_rotations_matches_kron(blocks, rows, conjugate, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(blocks))
    m = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    us = [rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b)) for b in blocks]
    out = rotate(m, us, conjugate)
    # unitaries[j] acts on the j-th block of the column index: factor j of kron_chain
    full = kron_chain(*[np.conj(u) if conjugate else u for u in us])
    assert np.abs(out - m @ full).max() <= 1e-12 * max(1.0, np.abs(m @ full).max())


@pytest.mark.parametrize(
    "factors",
    [
        lambda rng: hb.pauli_basis(range(5), "Z").factors,
        lambda rng: hb.pauli_basis(range(5), "ZXZYZ").factors,
        lambda rng: hb.pauli_basis(range(4), "YXXY").factors,
        lambda rng: hb.explicit_basis(range(3), unitary_group.rvs(8, random_state=rng)).factors,
        lambda rng: (np.eye(4, dtype=complex), unitary_group.rvs(2, random_state=rng), np.eye(2)),
    ],
    ids=["all-Z", "mixed-XYZ", "no-Z", "explicit", "identity-blocks"],
)
@pytest.mark.parametrize("conjugate", [False, True])
def test_identity_blocks_are_skipped_bit_for_bit(rng, factors, conjugate):
    us = factors(rng)
    d = math.prod(u.shape[0] for u in us)
    m = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    out = rotate(m, us, conjugate)
    assert np.array_equal(out, mo.rotations_single_pass(m, us, conjugate))
    assert out.dtype == complex
    assert not np.shares_memory(out, m)


@pytest.mark.parametrize("dtype", [complex, float])
def test_all_identity_rotation_returns_a_new_array(dtype):
    m = np.arange(12.0).reshape(3, 4).astype(dtype)
    for view in (m, m[:, :], m[::2]):  # the whole array, a view of it, a strided view
        out = hb.apply_local_rotations(view, hb.pauli_basis((0, 1), "Z").factors)
        assert not np.shares_memory(out, m)
        assert out.dtype == complex
        assert np.array_equal(out, view)
        out[0, 0] = 99.0
        assert m[0, 0] == 0.0


ROTATION_CASES = {
    "qubits": [2] * 5,
    "pairs": [4, 4, 4],
    "mixed": [2, 4, 2, 8],
}


@pytest.mark.parametrize("blocks", list(ROTATION_CASES.values()), ids=list(ROTATION_CASES))
@pytest.mark.parametrize("rows", [1, 5, 23])
@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("real", [False, True], ids=["complex-input", "real-input"])
def test_row_blocks_match_the_single_pass_bit_for_bit(monkeypatch, rng, blocks, rows, conjugate, real):
    d = math.prod(blocks)
    m = rng.standard_normal((rows, d))
    if not real:
        m = m + 1j * rng.standard_normal((rows, d))
    us = [unitary_group.rvs(b, random_state=rng) for b in blocks]
    us[1] = np.eye(blocks[1], dtype=complex)  # an identity factor among them
    expected = mo.rotations_single_pass(m, us, conjugate, skip_identity=True)
    for block_rows in (1, 2, 4, rows):  # 23 rows are no multiple of 2 or 4
        monkeypatch.setattr(hb, "ROTATION_BLOCK_ENTRIES", block_rows * d)
        out = rotate(m, us, conjugate)
        assert out.dtype == expected.dtype == complex
        assert np.array_equal(out, expected)
    monkeypatch.setattr(hb, "ROTATION_BLOCK_ENTRIES", d // 2)  # smaller than a row: one row per block
    assert np.array_equal(rotate(m, us, conjugate), expected)


@pytest.mark.parametrize("conjugate", [False, True])
def test_row_blocks_at_the_default_size(rng, conjugate):
    # 5,000 rows of 16 entries span two blocks of 2^16 entries, the second one partial
    m = rng.standard_normal((5000, 16)) + 1j * rng.standard_normal((5000, 16))
    us = [unitary_group.rvs(2, random_state=rng) for _ in range(4)]
    out = rotate(m, us, conjugate)
    assert m.size > hb.ROTATION_BLOCK_ENTRIES and m.size % hb.ROTATION_BLOCK_ENTRIES != 0
    assert np.array_equal(out, mo.rotations_single_pass(m, us, conjugate, skip_identity=True))


def test_real_factors_keep_a_real_result(rng):
    m = rng.standard_normal((9, 8))
    us = [np.array([[0.6, 0.8], [-0.8, 0.6]]), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    out = hb.apply_local_rotations(m, us)
    assert out.dtype == float
    assert np.array_equal(out, mo.rotations_single_pass(m, us, skip_identity=True))
