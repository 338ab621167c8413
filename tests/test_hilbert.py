import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from scipy.stats import unitary_group

from qensembles import CapacityError, Caps, InvalidMatrixError, InvalidModelError
from qensembles import hilbert as hb
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
            hb.build_hamiltonian({"model": "explicit", "matrix": np.array([[0, 1], [0, 0]])})

    def test_explicit_matrix_roundtrip(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        h = hb.build_hamiltonian({"model": "explicit", "matrix": m})
        assert np.allclose(h.entries, m)


CHAIN_MODELS = {
    "mfim": {"hx": 0.53, "hy": -1.1, "j": 0.7},
    "tfim": {"hy": 1.3, "j": -0.6},
    "mfim_broken_trs": {"hx": 0.2, "hy": 0.9, "j": 1.4, "hz": -0.3, "jp": 0.25},
    "xxz": {"j": 0.9, "delta": 0.45, "delta2": -0.7},
}


class TestModelTerms:
    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    @pytest.mark.parametrize("overridden", [False, True])
    def test_dense_matrix_is_bit_identical_to_the_frozen_builder(self, name, overridden):
        params = CHAIN_MODELS[name] if overridden else {}
        for n in range(1, 11):
            spec = dict(params, model=name, n=n)
            h = hb.build_hamiltonian(spec).entries
            assert np.array_equal(h, mo.dense_hamiltonian_reference(spec)), (name, n)

    def test_mfim_table_order(self):
        n, terms = hb.model_terms({"model": "mfim", "n": 2, "hx": 0.5, "hy": 0.25, "j": 2.0})
        assert n == 2
        assert terms == (
            (0.5, {0: "X"}), (0.25, {0: "Y"}), (0.5, {1: "X"}), (0.25, {1: "Y"}),
            (2.0, {0: "X", 1: "X"}),
        )

    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    def test_sparse_matrix_and_norm_bound(self, name):
        spec = dict(CHAIN_MODELS[name], model=name, n=6)
        h, a = hb.sparse_hamiltonian(spec)
        dense = hb.build_hamiltonian(spec).entries
        assert np.abs(h.toarray() - dense).max() <= 1e-14
        _, terms = hb.model_terms(spec)
        assert a == sum(abs(c) for c, _ in terms)
        assert np.abs(np.linalg.eigvalsh(dense)).max() <= a

    def test_sparse_explicit_matrix_uses_the_row_sum_bound(self):
        m = np.array([[1.0, 2.0j], [-2.0j, -0.5]])
        h, a = hb.sparse_hamiltonian({"model": "explicit", "matrix": m})
        assert np.array_equal(h.toarray(), m)
        assert a == 3.0
        with pytest.raises(InvalidMatrixError):
            hb.sparse_hamiltonian({"model": "explicit", "matrix": np.array([[0, 1], [0, 0]])})

    def test_zero_chain_has_no_terms(self):
        spec = {"model": "mfim", "n": 3, "hx": 0, "hy": 0, "j": 0}
        assert hb.model_terms(spec) == (3, ())
        h, a = hb.sparse_hamiltonian(spec)
        assert h.shape == (8, 8) and h.nnz == 0 and a == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(CHAIN_MODELS))
    def test_non_finite_coefficient_is_an_invalid_model(self, name, value):
        for param in CHAIN_MODELS[name]:
            spec = {"model": name, "n": 3, param: value}
            for build in (hb.model_terms, hb.build_hamiltonian, hb.sparse_hamiltonian):
                with pytest.raises(InvalidModelError, match="non-finite"):
                    build(spec)

    def test_sparse_assembly_is_capped(self):
        with pytest.raises(CapacityError, match="max_state_dim"):
            hb.sparse_hamiltonian({"model": "mfim", "n": 6}, Caps(max_state_dim=2**6 * 16))


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
        assert abs(hb.product_state(1.234, 5).norm() - 1.0) < 1e-12


class TestProjection:
    def test_bell_state_z_outcome(self):
        bell = hb.qubit_state([1, 0, 0, 1] / np.sqrt(2))
        part = hb.Bipartition(2, (0,))
        basis = hb.pauli_basis(part.sites_B, "Z")
        st, p = hb.project_outcome(bell, part, basis, 0)
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(st.amplitudes, [1 / np.sqrt(2), 0])

    def test_product_state_projection_is_outcome_independent(self):
        s = hb.product_state(0.7, 3)
        part = hb.Bipartition(3, (0,))
        basis = hb.pauli_basis(part.sites_B, "XY")
        states = []
        for z in range(4):
            st, p = hb.project_outcome(s, part, basis, z)
            if p > 1e-12:
                states.append(st.amplitudes / np.linalg.norm(st.amplitudes))
        ref = states[0] / states[0][np.abs(states[0]).argmax()]
        for st in states[1:]:
            st = st / st[np.abs(st).argmax()]
            assert np.allclose(st, ref)

    def test_ghz_x_measurement(self):
        ghz = hb.qubit_state([1, 0, 0, 0, 0, 0, 0, 1] / np.sqrt(2))
        part = hb.Bipartition(3, (0,))
        basis = hb.pauli_basis(part.sites_B, "XX")
        st, p = hb.project_outcome(ghz, part, basis, 0)
        assert abs(p - 0.25) < 1e-12
        normed = st.amplitudes / np.linalg.norm(st.amplitudes)
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
        rebuilt = hb.merge_bipartite(m, part)
        assert np.abs(rebuilt.amplitudes - state.amplitudes).max() <= 1e-10

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
            projected, p = hb.project_outcome(state, part, basis, z)
            assert np.abs(projected.amplitudes - expected[:, z]).max() <= 1e-12
            assert p == pytest.approx(np.sum(np.abs(expected[:, z]) ** 2), abs=1e-12)

    def test_basis_on_other_sites_is_rejected(self):
        state = hb.product_state(0.4, 4)
        part = hb.Bipartition(4, (1, 2))
        for basis in (hb.pauli_basis((3, 0), "Z"), hb.pauli_basis((0, 1), "Z")):
            with pytest.raises(ValueError):
                hb.projection_table(state, part, basis)
            with pytest.raises(ValueError):
                hb.project_outcome(state, part, basis, 0)

    def test_out_of_range_outcome(self):
        bell = hb.qubit_state([1, 0, 0, 1] / np.sqrt(2))
        part = hb.Bipartition(2, (0,))
        basis = hb.pauli_basis(part.sites_B, "Z")
        with pytest.raises(IndexError):
            hb.project_outcome(bell, part, basis, 2)


class TestSubsystemIndices:
    def test_cached_indices_are_read_only(self):
        first = hb._subsystem_indices(4, (1, 2))
        original = first.copy()
        with pytest.raises(ValueError):
            first[0] = 3
        again = hb._subsystem_indices(4, (1, 2))
        assert np.array_equal(again, original)
        assert np.array_equal(again, [0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3])


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        bell = hb.qubit_state([1, 0, 0, 1] / np.sqrt(2))
        part = hb.Bipartition(2, (0,))
        rho = hb.partial_trace(bell, part, "A")
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_product_state_gives_rank_one_projector(self):
        s = hb.product_state(0.9, 3)
        part = hb.Bipartition(3, (1,))
        rho = hb.partial_trace(s, part, "A").entries
        local = np.array([np.cos(0.45), 1j * np.sin(0.45)])
        assert np.allclose(rho, np.outer(local, local.conj()))

    def test_trace_preserved_on_random_state(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 3)
        part = hb.Bipartition(3, (0, 2))
        for keep in ("A", "B"):
            rho = hb.partial_trace(s, part, keep)
            assert abs(np.trace(rho.entries).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho.entries).min() >= -1e-12

    def test_operator_and_state_paths_agree(self, rng):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 4)
        part = hb.Bipartition(4, (0, 3))
        dm = hb.HermitianOperator(np.outer(s.amplitudes, s.amplitudes.conj()), (2,) * 4)
        a1 = hb.partial_trace(s, part, "A").entries
        a2 = hb.partial_trace(dm, part, "A").entries
        assert np.abs(a1 - a2).max() <= 1e-12

    def test_projection_resolves_partial_trace(self, rng):
        # sum_z |psi(z)><psi(z)| over a complete B basis equals tr_B
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 5)
        part = hb.Bipartition(5, (0, 2))
        basis = hb.pauli_basis(part.sites_B, "YXZ")
        table = hb.projection_table(s, part, basis)
        mix = table @ table.conj().T
        rho = hb.partial_trace(s, part, "A").entries
        assert np.abs(mix - rho).max() <= 1e-10


class TestBases:
    def test_gram_defect_product(self):
        basis = hb.pauli_basis((0, 1, 2), "XYZ")
        assert hb.basis_gram_defect(basis) <= 1e-12

    def test_explicit_basis_columns(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        basis = hb.explicit_basis((0, 1), q)
        assert hb.basis_gram_defect(basis) <= 1e-12

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
        state = hb.PureState(amps, (2,) * part.n_sites, "unnormalized")
        m = hb.split_bipartite(state, part)
        # entry (a, b) sits at the full index with bit i of a on sites_A[i], bit j of b on sites_B[j]
        for a in range(part.d_a):
            for b in range(part.d_b):
                full = sum(((a >> i) & 1) << s for i, s in enumerate(part.sites_A))
                full += sum(((b >> j) & 1) << s for j, s in enumerate(part.sites_B))
                assert m[a, b] == amps[full]
        rebuilt = hb.merge_bipartite(m, part, "unnormalized")
        assert np.array_equal(rebuilt.amplitudes, amps)


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
    out = hb.apply_local_rotations(m, us, conjugate=conjugate)
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
    out = hb.apply_local_rotations(m, us, conjugate=conjugate)
    assert np.array_equal(out, mo.rotations_unskipped(m, us, conjugate))
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
