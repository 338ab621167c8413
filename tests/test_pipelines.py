import math

import numpy as np
import pytest
import scipy.linalg

from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st

import moment_oracles as mo


def explicit(matrix):
    return {"model": "explicit", "matrix": np.asarray(matrix, dtype=complex)}


class TestSpectrumCache:
    def test_explicit_models_with_different_matrices_get_their_own_entries(self):
        cache = pl.SpectrumCache()
        first = cache.spectrum(explicit(np.diag([0.0, 1.0, 2.0, 3.0])))
        second = cache.spectrum(explicit(np.diag([0.0, 10.0, 20.0, 30.0])))
        assert np.allclose(first.eigenvalues, [0, 1, 2, 3])
        assert np.allclose(second.eigenvalues, [0, 10, 20, 30])

    def test_equal_matrices_share_one_entry_until_released(self):
        cache = pl.SpectrumCache()
        model = explicit(np.diag([0.0, 1.0, 2.0, 3.0]))
        first = cache.spectrum(model)
        assert cache.spectrum(explicit(np.diag([0, 1, 2, 3]))) is first
        cache.release(model)
        assert cache.spectrum(model) is not first

    def test_bound_and_quench_state_accept_explicit_models(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 3}).entries
        model = explicit(h)
        cache = pl.SpectrumCache()
        theta, t = 0.4, 1.7
        psi0 = hb.product_state(theta, 3).amplitudes
        bound = cache.bound(model, theta)
        assert np.abs(bound.eigenvectors @ bound.overlaps - psi0).max() <= 1e-12
        state = pl.quench_state(cache, model, theta, t)
        assert state.dims == (2, 2, 2)
        expected = scipy.linalg.expm(-1j * h * t) @ psi0
        assert np.abs(state.amplitudes - expected).max() <= 1e-10


MFIM6 = {"model": "mfim", "n": 6, "hx": 0.8090, "hy": 0.9045, "j": 1.0}


def central(n, width, letter):
    part = hb.Bipartition(n, hb.central_sites(n, width))
    return part, hb.pauli_basis(part.sites_B, letter)


@pytest.fixture()
def table_builds(monkeypatch):
    """Arguments of every `scrooge.conditional_states` call, in order."""
    calls, build = [], sc.conditional_states

    def spy(sd, part, basis):
        calls.append((part, basis))
        return build(sd, part, basis)

    monkeypatch.setattr(sc, "conditional_states", spy)
    return calls


class TestConditionalStateCache:
    def test_repeated_call_is_a_hit(self, table_builds):
        cache = pl.SpectrumCache()
        part, basis = central(6, 2, "Z")
        first = cache.conditional_states(MFIM6, 0.3, part, basis)
        again = cache.conditional_states(dict(MFIM6), 0.3, *central(6, 2, "Z"))
        assert again is first
        assert len(table_builds) == 1
        direct = sc.conditional_states(cache.bound(MFIM6, 0.3), part, basis)
        assert np.array_equal(first.states, direct.states)
        assert np.array_equal(first.probabilities, direct.probabilities)

    def test_every_input_is_part_of_the_key(self, table_builds):
        cache = pl.SpectrumCache()
        other_model = dict(MFIM6, hx=0.5)
        part, basis = central(6, 2, "Z")
        u = scipy.linalg.qr(np.arange(256.0).reshape(16, 16) + np.eye(16))[0]
        explicit_b = [hb.explicit_basis(part.sites_B, m) for m in (u, u[:, ::-1])]
        inputs = [
            (MFIM6, 0.3, part, basis),
            (MFIM6, 0.4, part, basis),  # theta
            (MFIM6, 0.3, *central(6, 3, "Z")),  # width
            (MFIM6, 0.3, *central(6, 2, "X")),  # basis letter
            (MFIM6, 0.3, part, hb.pauli_basis(part.sites_B, "ZZXZ")),  # one factor
            (MFIM6, 0.3, part, explicit_b[0]),  # explicit factor bytes
            (MFIM6, 0.3, part, explicit_b[1]),
            (other_model, 0.3, part, basis),  # model
        ]
        tables = [cache.conditional_states(*args) for args in inputs]
        assert len(table_builds) == len(inputs)
        assert len({id(t) for t in tables}) == len(inputs)
        for (model, theta, part_i, basis_i), table in zip(inputs, tables):
            direct = sc.conditional_states(cache.bound(model, theta), part_i, basis_i)
            assert np.array_equal(table.states, direct.states)
        assert cache.conditional_states(*inputs[3]) is tables[3]

    def test_release_rebuilds_that_model_only(self, table_builds):
        cache = pl.SpectrumCache()
        other_model = dict(MFIM6, hx=0.5)
        part, basis = central(6, 2, "Z")
        first = cache.conditional_states(MFIM6, 0.3, part, basis)
        kept = cache.conditional_states(other_model, 0.3, part, basis)
        cache.release(MFIM6)
        rebuilt = cache.conditional_states(MFIM6, 0.3, part, basis)
        assert rebuilt is not first
        assert np.array_equal(rebuilt.states, first.states)
        assert cache.conditional_states(other_model, 0.3, part, basis) is kept
        cache.release()
        assert cache.conditional_states(other_model, 0.3, part, basis) is not kept
        assert len(table_builds) == 4

    def test_pipelines_share_one_table(self, table_builds):
        cache = pl.SpectrumCache()
        for k in (2, 3):
            pl.projected_moment_comparison(
                cache, MFIM6, 0.0, 3.0, 2, "Z", k, include_generalized=True
            )
        assert len(table_builds) == 1
        pl.interaction_information_scan(cache, MFIM6, 0.0, 3.0, 2, ("Z",), basis_b_letter="Z")
        pl.interaction_information_scan(cache, MFIM6, 0.0, 5.0, 2, ("X",), basis_b_letter="Z")
        assert len(table_builds) == 1


@pytest.fixture()
def no_diagonalize(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("diagonalize was called")

    monkeypatch.setattr(sp, "diagonalize", fail)


@pytest.fixture()
def propagations(monkeypatch):
    """Times of every `spectral.propagate` call, in order."""
    calls, propagate = [], sp.propagate

    def spy(h, a, psi0, t):
        calls.append(t)
        return propagate(h, a, psi0, t)

    monkeypatch.setattr(sp, "propagate", spy)
    return calls


class TestQuenchStateCache:
    def test_repeated_call_is_a_hit_with_read_only_amplitudes(self, propagations):
        cache = pl.SpectrumCache()
        first = pl.quench_state(cache, MFIM6, 0.3, 2.5)
        assert pl.quench_state(cache, dict(MFIM6), 0.3, 2.5) is first
        assert propagations == [2.5]
        assert not first.amplitudes.flags.writeable
        expected = sp.evolve(cache.bound(MFIM6, 0.3), hb.product_state(0.3, 6), 2.5)
        assert np.abs(first.amplitudes - expected.amplitudes).max() <= 1e-12

    def test_theta_time_and_model_get_their_own_entries(self, propagations):
        cache = pl.SpectrumCache()
        inputs = [(MFIM6, 0.3, 2.5), (MFIM6, 0.4, 2.5), (MFIM6, 0.3, 3.5), (dict(MFIM6, hx=0.5), 0.3, 2.5)]
        states = [pl.quench_state(cache, *args) for args in inputs]
        assert len(propagations) == len(inputs)
        assert len({id(s) for s in states}) == len(inputs)
        assert pl.quench_state(cache, *inputs[2]) is states[2]
        assert len(propagations) == len(inputs)

    def test_release_drops_the_state_of_that_model_only(self, propagations):
        cache = pl.SpectrumCache()
        other = dict(MFIM6, hx=0.5)
        first = pl.quench_state(cache, MFIM6, 0.3, 2.5)
        kept = pl.quench_state(cache, other, 0.3, 2.5)
        cache.release(MFIM6)
        again = pl.quench_state(cache, MFIM6, 0.3, 2.5)
        assert again is not first
        assert np.array_equal(again.amplitudes, first.amplitudes)
        assert pl.quench_state(cache, other, 0.3, 2.5) is kept
        cache.release()
        assert pl.quench_state(cache, other, 0.3, 2.5) is not kept
        assert len(propagations) == 4

    def test_large_chain_state_without_a_spectrum(self, no_diagonalize):
        cache = pl.SpectrumCache()
        state = pl.quench_state(cache, {"model": "mfim", "n": 10}, 0.0, 20.0)
        assert state.dims == (2,) * 10

    def test_non_finite_time_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pl.quench_state(pl.SpectrumCache(), MFIM6, 0.3, math.nan)


def gram_haar_distance(table, k):
    """Haar distance of the projected k-th moment from its Gram matrix alone.

    G_zw = sqrt(p_z p_w) <phi_z|phi_w>^k has the nonzero spectrum of the
    projected moment; on the symmetric subspace the Haar moment is I/D.
    """
    p = np.sum(np.abs(table) ** 2, axis=0)
    keep = p > 1e-14
    phi = table[:, keep] / np.sqrt(p[keep])
    gram = np.sqrt(np.outer(p[keep], p[keep])) * (phi.conj().T @ phi) ** k
    dim = math.comb(table.shape[0] + k - 1, k)
    lam = np.linalg.eigvalsh(gram)[::-1][:dim]
    lam = np.concatenate([lam, np.zeros(dim - lam.size)])
    return 0.5 * float(np.abs(lam - 1.0 / dim).sum())


def dense_trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def dense_haar_moment(d, k):
    """I/D on Sym^k(C^d) as a d^k x d^k operator: the symmetrizer over d (d+1) ... (d+k-1)."""
    return mo.symmetrizer_sum(d, k) / math.prod(d + i for i in range(k))


def dense_projected_moment(table, k):
    p = np.sum(np.abs(table) ** 2, axis=0)
    keep = p > 1e-14
    return mo.tensor_power_gram(table[:, keep] / np.sqrt(p[keep]), p[keep], k)


class TestProjectedMomentComparison:
    @pytest.mark.parametrize("k", [2, 3])
    def test_distances_match_gram_oracle_and_dense_lifts(self, k):
        cache = pl.SpectrumCache()
        theta, t, width = 0.0, 3.0, 2
        out = pl.projected_moment_comparison(
            cache, MFIM6, theta, t, width, "Z", k, include_generalized=True
        )
        part = hb.Bipartition(6, hb.central_sites(6, width))
        basis = hb.pauli_basis(part.sites_B, "Z")
        state = pl.quench_state(cache, MFIM6, theta, t)
        table = hb.projection_table(state, part, basis)
        assert abs(out.dist_haar - gram_haar_distance(table, k)) <= 1e-12
        proj = dense_projected_moment(table, k)
        # k = 3 has r = 16 outcomes on D = 20, where trace_distance takes the Gram
        # path; the dense lift checks it by a second method
        haar = dense_haar_moment(part.d_a, k)
        assert abs(out.dist_haar - dense_trace_distance(proj, haar)) <= 1e-12
        rho_a = hb.partial_trace(state, part, "A").entries
        scr = sc.scrooge_moment(rho_a, k).dense()
        assert abs(out.dist_scrooge - dense_trace_distance(proj, scr)) <= 1e-12
        cond = sc.conditional_states(cache.bound(MFIM6, theta), part, basis)
        gen = sc.generalized_scrooge_moment(cond, k).dense()
        assert abs(out.dist_generalized - dense_trace_distance(proj, gen)) <= 1e-12


class TestEigenstateComparisons:
    def _setup(self):
        sd = sp.diagonalize(hb.build_hamiltonian(MFIM6))
        part = hb.Bipartition(6, hb.central_sites(6, 2))
        return sd, part

    def test_complex_distances(self):
        sd, part = self._setup()
        basis = hb.pauli_basis(part.sites_B, "X")
        out = pl.eigenstate_projected_comparison(sd, 21, part, basis, k=2)
        eig = hb.PureState(sd.eigenvectors[:, 21], (2,) * 6)
        table = hb.projection_table(eig, part, basis)
        assert abs(out["dist_haar"] - gram_haar_distance(table, 2)) <= 1e-12
        rho_a = hb.partial_trace(eig, part, "A").entries
        proj = dense_projected_moment(table, 2)
        scr = sc.scrooge_moment(rho_a, 2).dense()
        assert abs(out["dist_scrooge"] - dense_trace_distance(proj, scr)) <= 1e-12

    def test_real_distances(self):
        sd, part = self._setup()
        out = pl.eigenstate_real_projected_comparison(sd, 21, part)
        table, leak = pl.real_projected_table(sd, 21, part)
        assert out["imag_leak"] == leak
        probs = np.sum(table**2, axis=0)
        keep = probs > 1e-14
        cols = table[:, keep] / np.sqrt(probs[keep])
        c2 = np.einsum("az,bz->abz", cols, cols).reshape(part.d_a**2, -1)
        proj = (c2 * probs[keep]) @ c2.T
        rho_a = (table @ table.T).astype(complex)
        scr = sc.real_scrooge_moment2(rho_a).dense()
        assert abs(out["dist_real_scrooge"] - dense_trace_distance(proj, scr)) <= 1e-12
        haar = mo.real_haar2_dense(part.d_a)
        assert abs(out["dist_real_haar"] - dense_trace_distance(proj, haar)) <= 1e-12

    @staticmethod
    def _check_real_table(sd, index, part):
        eig = hb.PureState(sd.eigenvectors[:, index], (2,) * part.n_sites)
        table = hb.projection_table(eig, part, hb.pauli_basis(part.sites_B, "X"))
        frames = [pl.TAKAGI_X_FRAME] * len(part.sites_A)
        rotated = hb.apply_local_rotations(table.T, frames, conjugate=True).T
        expected, expected_leak = mo.real_columns_per_outcome(rotated)
        out, leak = pl.real_projected_table(sd, index, part)
        assert np.abs(out - expected).max() <= 1e-15
        assert abs(leak - expected_leak) <= 1e-15
        return out

    def test_real_table_matches_the_per_outcome_phase_fix(self):
        sd, part = self._setup()
        for index in (0, 21, 63):
            self._check_real_table(sd, index, part)

    def test_real_table_leaves_empty_outcomes_zero(self, rng):
        # A random, B in |+>^4: every X outcome on B but one has probability 0
        part = hb.Bipartition(6, hb.central_sites(6, 2))
        m = np.outer(rng.standard_normal(4) + 1j * rng.standard_normal(4), np.full(16, 0.25))
        v = hb.merge_bipartite(m / np.linalg.norm(m), part).amplitudes
        out = self._check_real_table(sp.SpectralData(np.zeros(1), v[:, None]), 0, part)
        assert np.count_nonzero(np.abs(out).max(axis=0)) == 1


class TestBasisInformationScan:
    def test_needs_no_spectrum(self, no_diagonalize):
        rows, _, _, _ = pl.basis_information_scan(pl.SpectrumCache(), MFIM6, 0.7, 3.0, 2)
        assert len(rows) == 3

    def test_energy_density_and_one_row_per_letter(self):
        theta, letters = 0.7, ("X", "Y", "Z")
        rows, q_bits, s_bits, density = pl.basis_information_scan(
            pl.SpectrumCache(), MFIM6, theta, 3.0, 2, letters
        )
        h = hb.build_hamiltonian(MFIM6)
        energy, _ = sp.energy_moments(hb.product_state(theta, 6), h)
        assert density == pytest.approx(energy / 6, abs=1e-12)
        assert [letter for letter, _ in rows] == list(letters)
        # Holevo: no basis on A learns more than S(rho_A) from the B outcomes
        assert all(0.0 <= bits <= s_bits + 1e-12 for _, bits in rows)
        assert q_bits <= s_bits


class TestInteractionInformationScan:
    def test_rows_match_direct_calls_in_letter_order(self):
        n, theta, t, letters = 6, 0.6, 12.0, ("Z", "X", "Y")
        cache = pl.SpectrumCache()
        rows = pl.interaction_information_scan(cache, MFIM6, theta, t, 2, letters)
        assert [row["basis"] for row in rows] == list(letters)
        bound = cache.bound(MFIM6, theta)
        psi0 = hb.product_state(theta, n)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        basis_b = hb.pauli_basis(part.sites_B, "X")
        for row, letter in zip(rows, letters):
            # no table passed: interaction_information builds its own
            rep = st.interaction_information(
                bound, psi0, part, hb.pauli_basis(part.sites_A, letter), basis_b, t
            )
            assert row == {
                "basis": letter,
                "interaction_bits": rep.bits,
                "weighted_subentropy_bits": rep.prediction_bits,
                "fixed_time_bits": rep.metadata["fixed_time_bits"],
                "time_averaged_bits": rep.metadata["time_averaged_bits"],
                "subentropy_bound_bits": rep.metadata["subentropy_bound_bits"],
            }
            # concavity of the subentropy: the weighted value sits below Q(rho_A)
            assert row["weighted_subentropy_bits"] <= row["subentropy_bound_bits"] + 1e-9


class TestRescaledJointProbabilityKS:
    def test_sample_matches_rebuilt_joint(self, monkeypatch):
        cache = pl.SpectrumCache()
        theta, t, width = 0.4, 7.0, 2
        time_averaged, pt_test = st.time_averaged_joint_distribution, st.pt_test
        averaged, tested = [], []

        def spy_average(*args):
            averaged.append(time_averaged(*args))
            return averaged[-1]

        def spy_pt(values, *args, **kwargs):
            tested.append(np.asarray(values))
            return pt_test(values, *args, **kwargs)

        monkeypatch.setattr(st, "time_averaged_joint_distribution", spy_average)
        monkeypatch.setattr(st, "pt_test", spy_pt)
        out = pl.rescaled_joint_probability_ks(cache, MFIM6, theta, t, width)
        assert len(averaged) == 1
        assert tested[0].mean() == pytest.approx(1.0, abs=1e-12)
        assert out["sample_count"] == int(np.sum(averaged[0] > 1e-14))
        part = hb.Bipartition(6, hb.central_sites(6, width))
        state = pl.quench_state(cache, MFIM6, theta, t)
        joint = st.joint_outcome_distribution(
            state, part, hb.pauli_basis(part.sites_A, "X"), hb.pauli_basis(part.sites_B, "X")
        )
        assert out["ks_raw"] == pytest.approx(
            pt_test((joint * joint.size).ravel()).ks_statistic, abs=1e-12
        )


class TestEigenstateWindowRescaledProbabilities:
    def _setup(self):
        sd = sp.diagonalize(hb.build_hamiltonian(MFIM6))
        return sd, hb.Bipartition(6, hb.central_sites(6, 2))

    def test_pooled_values_have_unit_mean(self):
        sd, part = self._setup()
        vals = pl.eigenstate_window_rescaled_probabilities(sd, part, 0.0, window_eigenstates=10)
        assert vals.mean() == pytest.approx(1.0, abs=1e-12)
        assert vals.size % 10 == 0

    def test_single_eigenstate_window_is_all_ones(self):
        sd, part = self._setup()
        vals = pl.eigenstate_window_rescaled_probabilities(sd, part, 0.0, window_eigenstates=1)
        assert np.abs(vals - 1.0).max() <= 1e-12
