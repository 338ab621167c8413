import math

import numpy as np
import pytest

from qensembles import CapacityError, Caps, FitError
from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import rmt
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st
from qensembles._util import DEFAULT_CAPS

MFIM = {"model": "mfim", "hx": 0.8090, "hy": 0.9045, "j": 1.0}


def random_moment(d, k, rng):
    dim = math.comb(d + k - 1, k)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return en.MomentOperator(k, d, m, "normalized")


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def dense_time_averaged_joint(bound, part, ba, bb):
    """Diagonal of the dephased state in the product basis, from dense matrices."""
    rho_d, _ = sp.diagonal_ensemble(bound)
    u = np.kron(hb.basis_matrix(bb), hb.basis_matrix(ba))  # little-endian: A is low bits
    perm = hb._subsystem_indices(part.n_sites, part.sites_A + part.sites_B)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    rho_perm = rho_d.entries[np.ix_(inv, inv)]
    diag = np.real(np.diag(u.conj().T @ rho_perm @ u))
    return diag.reshape(part.d_b, part.d_a).T


class TestTraceDistance:
    def test_equal_moments(self, rng):
        m = random_moment(2, 2, rng)
        assert st.trace_distance(m, m) == 0.0

    def test_orthogonal_projectors(self):
        a = np.zeros((3, 3), dtype=complex)
        b = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0  # |00><00|
        b[2, 2] = 1.0  # |11><11|
        m1 = en.MomentOperator(2, 2, a, "normalized")
        m2 = en.MomentOperator(2, 2, b, "normalized")
        assert st.trace_distance(m1, m2) == pytest.approx(1.0)

    def test_haar_equals_scrooge_of_maximally_mixed(self):
        for d, k in ((2, 2), (3, 2)):
            h = en.haar_moment(d, k)
            s = sc.scrooge_moment(np.eye(d, dtype=complex) / d, k)
            assert st.trace_distance(h, s) <= 1e-10

    def test_metric_properties(self, rng):
        a, b, c = (random_moment(2, 2, rng) for _ in range(3))
        dab = st.trace_distance(a, b)
        dba = st.trace_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0
        assert st.trace_distance(a, c) <= dab + st.trace_distance(b, c) + 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            st.trace_distance(random_moment(2, 2, rng), random_moment(2, 1, rng))


def member_ensemble(d, r, rng, convention="normalized", repeated=False):
    """r random members of C^d; with `repeated`, the last r // 2 copy the first ones."""
    distinct = r - r // 2 if repeated else r
    cols = rng.standard_normal((d, distinct)) + 1j * rng.standard_normal((d, distinct))
    cols = np.concatenate([cols, cols[:, : r - distinct]], axis=1)
    if convention == "normalized":
        cols /= np.linalg.norm(cols, axis=0)
        w = rng.random(r) + 0.1
        w /= w.sum()
    else:
        w = np.full(r, 1.0 / r)
    return en.WeightedEnsemble(cols, w, convention)


def dense_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


class TestGramTraceDistance:
    """An ensemble moment of r < D members against c * I, without the D x D moment."""

    # (d, k, r) with r = 1, r = D - 1 (D = 10, 20, 35) and r well below D
    GRID = [(2, 1, 1), (3, 2, 1), (4, 2, 9), (4, 3, 19), (5, 3, 34), (3, 3, 4), (8, 2, 12)]

    @pytest.mark.parametrize("d, k, r", GRID)
    @pytest.mark.parametrize("convention", ["normalized", "unnormalized"])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_matches_the_dense_path(self, rng, d, k, r, convention, repeated):
        m = en.moment_k(member_ensemble(d, r, rng, convention, repeated), k)
        if convention == "normalized":
            iso = en.haar_moment(d, k)
        else:
            iso = en.MomentOperator._structured(k, d, convention, DEFAULT_CAPS, scalar=0.3 / m.dim)
        dense = dense_distance(m, iso)
        assert abs(st.trace_distance(m, iso) - dense) <= 1e-12
        assert abs(st.trace_distance(iso, m) - dense) <= 1e-12

    @pytest.mark.parametrize("r, built", [(9, 0), (10, 1), (14, 1)])
    def test_path_follows_the_member_count(self, rng, monkeypatch, r, built):
        calls = []
        build = en._moment_from_columns
        monkeypatch.setattr(en, "_moment_from_columns", lambda *a: calls.append(a) or build(*a))
        m = en.moment_k(member_ensemble(4, r, rng), 2)  # D = 10
        st.trace_distance(m, en.haar_moment(4, 2))
        assert len(calls) == built

    def test_gram_matrix_is_capped_at_r_squared(self, rng):
        ens, haar = member_ensemble(4, 5, rng), en.haar_moment(4, 2)  # r^2 = 25, D^2 = 100
        dense = dense_distance(en.moment_k(ens, 2), haar)
        m = en.moment_k(ens, 2, Caps(max_moment_entries=25))
        assert abs(st.trace_distance(m, haar) - dense) <= 1e-12
        with pytest.raises(CapacityError, match="max_moment_entries"):
            m.matrix
        m = en.moment_k(ens, 2, Caps(max_moment_entries=24))
        with pytest.raises(CapacityError, match="max_moment_entries"):
            st.trace_distance(m, haar)

    @staticmethod
    def _projected_haar_distance(n, width, k):
        part = hb.Bipartition(n, hb.central_sites(n, width))
        state = pl.quench_state(pl.SpectrumCache(), dict(MFIM, n=n), 0.0, 20.0)
        ens = en.projected_ensemble(state, part, hb.pauli_basis(part.sites_B, "Z"))
        assert ens.size == part.d_b
        dist = st.trace_distance(en.moment_k(ens, k), en.haar_moment(part.d_a, k))
        # d_B generic states: every nonzero eigenvalue of the moment exceeds 1/D
        return dist, 1.0 - part.d_b / math.comb(part.d_a + k - 1, k)

    def test_kdesign_distance_builds_no_moment(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the D x D moment was built")

        monkeypatch.setattr(en, "_moment_from_columns", refuse)
        dist, closed_form = self._projected_haar_distance(10, 4, 3)  # D = 816, r = 64
        assert abs(dist - closed_form) <= 1e-12

    def test_moment_over_the_dense_cap(self):
        # D = C(66, 3) = 45,760: D^2 = 2.09e9 entries exceed max_moment_entries
        dist, closed_form = self._projected_haar_distance(10, 6, 3)
        assert abs(dist - closed_form) <= 1e-12


class TestPTTest:
    def test_exponential_quantile_grid(self):
        n = 10_000
        grid = -np.log(1.0 - (np.arange(n) + 0.5) / n)
        rep = st.pt_test(grid)
        assert rep.m2 == pytest.approx(2.0, abs=0.01)
        assert rep.ks_statistic <= 0.01
        assert rep.m1 == pytest.approx(1.0, abs=1e-3)

    def test_point_mass_distance(self):
        rep = st.pt_test(np.ones(1000))
        assert rep.m2 == pytest.approx(1.0)
        # sup over sample points of |ecdf - cdf| = 1/e for a point mass at 1
        assert rep.ks_statistic == pytest.approx(1.0 / math.e, abs=1e-6)

    def test_iid_exponential_moments(self, rng):
        n = 100_000
        x = rng.exponential(size=n)
        rep = st.pt_test(x)
        se2 = math.sqrt(20.0 / n)  # var(x^2) = 24 - 4
        se3 = math.sqrt((math.factorial(6) - 36.0) / n)
        assert abs(rep.m2 - 2.0) <= 3 * se2
        assert abs(rep.m3 - 6.0) <= 3 * se3
        assert rep.ks_statistic <= 3.0 / math.sqrt(n)

    def test_real_pt_target(self, rng):
        x = rng.standard_normal(100_000) ** 2
        rep = st.pt_test(x, target="real-pt")
        assert rep.ks_statistic <= 0.01
        rep_wrong = st.pt_test(x, target="exponential")
        assert rep_wrong.ks_statistic > 0.05

    def test_erlang_target(self, rng):
        n_er = 5
        x = rng.exponential(size=(100_000, n_er)).mean(axis=1)
        rep = st.pt_test(x, target=("erlang", n_er))
        assert rep.ks_statistic <= 0.01

    def test_weighted_input_validation(self):
        with pytest.raises(ValueError):
            st.pt_test([1.0, 2.0], weights=[0.3, 0.3])
        with pytest.raises(ValueError):
            st.pt_test([])
        for values in ([1.0, np.nan, 0.5], [1.0, np.inf, 0.5], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                st.pt_test(values)
        for weights in ([1.5, -0.5, 0.0], [0.5, np.nan, 0.5], [np.inf, -np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                st.pt_test([1.0, 2.0, 0.5], weights=weights)
        with pytest.raises(ValueError, match="one entry per value"):
            st.pt_test([1.0, 2.0, 0.5], weights=[0.5, 0.5])


class TestMutualInformationTime:
    def test_stationary_state_has_zero_information(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 3], (2,) * 4)
        bound = sp.bind_state(sd, eig)
        basis = hb.pauli_basis(range(4), "Z")
        rep = st.mutual_information_time(bound, basis, tau=50.0, grid_points=200)
        assert abs(rep.bits) <= 1e-10

    def test_small_chain_approaches_universal_value(self, spectrum_factory):
        # at n = 10 the asymptote is already close; full-tolerance check is in acceptance
        bound = spectrum_factory("mfim", 10, 0.6)
        basis = hb.pauli_basis(range(10), "Z")
        rep = st.mutual_information_time(bound, basis, tau=300.0 / 4.7)
        assert rep.metadata["sigma_h_tau"] >= 200
        assert rep.bits == pytest.approx((1 - np.euler_gamma) / math.log(2), abs=0.05)


    def test_explicit_basis_matches_dense_basis_matrix(self, spectrum_factory, rng):
        n = 6
        bound = spectrum_factory("mfim", n, 0.4)
        basis = hb.explicit_basis(range(n), random_unitary(2**n, rng))
        rep = st.mutual_information_time(bound, basis, tau=20.0, grid_points=80, t_start=5.0)
        times = 5.0 + np.linspace(0.0, 20.0, 80)
        probs = np.abs(hb.basis_matrix(basis).conj().T @ sp.evolve_grid(bound, times)) ** 2
        h_mean = np.mean([st.shannon_entropy_bits(probs[:, i]) for i in range(times.size)])
        assert rep.bits == pytest.approx(st.shannon_entropy_bits(probs.mean(axis=1)) - h_mean, abs=1e-12)

    def test_basis_on_permuted_sites_is_rejected(self, spectrum_factory):
        bound = spectrum_factory("mfim", 6, 0.4)
        basis = hb.pauli_basis((1, 0, 2, 3, 4, 5), "XZZZZZ")
        with pytest.raises(ValueError):
            st.mutual_information_time(bound, basis, tau=20.0)


class TestConditionalMI:
    def test_product_state_factorizes(self):
        s = hb.product_state(0.9, 4)
        part = hb.Bipartition(4, (0, 1))
        rep = st.conditional_mutual_information(
            s, part, hb.pauli_basis(part.sites_A, "XY"), hb.pauli_basis(part.sites_B, "ZX")
        )
        assert abs(rep.bits) <= 1e-10

    def test_bell_pair_one_bit(self):
        bell = hb.qubit_state([1, 0, 0, 1] / np.sqrt(2))
        part = hb.Bipartition(2, (0,))
        rep = st.conditional_mutual_information(
            bell, part, hb.pauli_basis(part.sites_A, "Z"), hb.pauli_basis(part.sites_B, "Z")
        )
        assert rep.bits == pytest.approx(1.0, abs=1e-10)

    def test_invariant_under_outcome_relabeling(self, rng):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = hb.PureState(amps / np.linalg.norm(amps), (2,) * 4)
        part = hb.Bipartition(4, (0, 1))
        ba = hb.pauli_basis(part.sites_A, "XZ")
        bb = hb.pauli_basis(part.sites_B, "ZY")
        joint = st.joint_outcome_distribution(s, part, ba, bb)
        base = st.mutual_information_of_joint(joint)
        perm_rows = rng.permutation(4)
        perm_cols = rng.permutation(4)
        shuffled = joint[np.ix_(perm_rows, perm_cols)]
        assert st.mutual_information_of_joint(shuffled) == base

    def test_explicit_bases_match_dense_basis_matrix(self, rng):
        n = 6
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = hb.PureState(amps / np.linalg.norm(amps), (2,) * n)
        part = hb.Bipartition(n, (4, 1))
        ba = hb.explicit_basis(part.sites_A, random_unitary(part.d_a, rng))
        bb = hb.explicit_basis(part.sites_B, random_unitary(part.d_b, rng))
        u = np.kron(hb.basis_matrix(bb), hb.basis_matrix(ba))  # little-endian: A is low bits
        psi = np.empty_like(state.amplitudes)
        psi[hb._subsystem_indices(n, part.sites_A + part.sites_B)] = state.amplitudes
        expected = (np.abs(u.conj().T @ psi) ** 2).reshape(part.d_b, part.d_a).T
        joint = st.joint_outcome_distribution(state, part, ba, bb)
        assert np.abs(joint - expected).max() <= 1e-12

    def test_sandwich_on_thermal_like_state(self, spectrum_factory):
        n = 8
        state = sp.evolve(spectrum_factory("mfim", n, 0.6), 60.0)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        rep = st.conditional_mutual_information(
            state, part, hb.pauli_basis(part.sites_A, "Z"), hb.pauli_basis(part.sites_B, "Z")
        )
        rho_a = hb.partial_trace(state, part, "A")
        q, s_vn = st.holevo_sandwich(rho_a)
        assert q - 0.05 <= rep.bits <= s_vn + 0.05


class TestInteractionInformation:
    def test_eigenstate_has_no_time_fluctuations(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 9], (2,) * 4)
        bound = sp.bind_state(sd, eig)
        part = hb.Bipartition(4, (1, 2))
        ba, bb = hb.pauli_basis(part.sites_A, "X"), hb.pauli_basis(part.sites_B, "X")
        table = sc.conditional_states(bound, part, bb)
        rep = st.interaction_information(sp.evolve(bound, 37.0), table, part, ba, bb)
        assert abs(rep.bits) <= 1e-9

    def test_decomposition_closure(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        ba = hb.pauli_basis(part.sites_A, "X")
        bb = hb.pauli_basis(part.sites_B, "X")
        state = sp.evolve(bound, 45.0)
        rep = st.interaction_information(state, sc.conditional_states(bound, part, bb), part, ba, bb)
        # recompute the decomposition from scratch: the time average from the dense dephased state
        i_fixed = st.mutual_information_of_joint(
            st.joint_outcome_distribution(state, part, ba, bb)
        )
        i_avg = st.mutual_information_of_joint(dense_time_averaged_joint(bound, part, ba, bb))
        assert rep.bits == pytest.approx(i_fixed - i_avg, abs=1e-10)
        assert rep.metadata["fixed_time_bits"] == pytest.approx(i_fixed, abs=1e-12)

    def test_table_of_another_b_basis_is_rejected(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        ba = hb.pauli_basis(part.sites_A, "X")
        bx, bz = (hb.pauli_basis(part.sites_B, letter) for letter in "XZ")
        state = sp.evolve(bound, 12.0)
        x_table = sc.conditional_states(bound, part, bx)
        assert x_table.basis is bx
        rep = st.interaction_information(state, x_table, part, ba, hb.pauli_basis(part.sites_B, "X"))
        assert rep.bits == pytest.approx(0.1526, abs=1e-4)
        z_table = sc.conditional_states(bound, part, bz)
        with pytest.raises(ValueError, match="basis_b"):  # read as X it would give 0.2430 bits
            st.interaction_information(state, z_table, part, ba, bx)
        unrecorded = sc.ConditionalStateTable(
            x_table.outcomes, x_table.probabilities, x_table.states, x_table.dropped_outcomes
        )
        with pytest.raises(ValueError, match="basis_b"):
            st.interaction_information(state, unrecorded, part, ba, bx)

    def test_time_averaged_joint_matches_dense_construction(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, (2, 3))
        ba = hb.pauli_basis(part.sites_A, "Y")
        bb = hb.pauli_basis(part.sites_B, "XZXZ")
        p = st.time_averaged_joint_distribution(sc.conditional_states(bound, part, bb), part, ba)
        rho_d, _ = sp.diagonal_ensemble(bound)
        u = np.kron(hb.basis_matrix(bb), hb.basis_matrix(ba))  # little-endian: A is low bits
        perm = hb._subsystem_indices(n, part.sites_A + part.sites_B)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        rho_perm = rho_d.entries[np.ix_(inv, inv)]
        diag = np.real(np.diag(u.conj().T @ rho_perm @ u))
        expected = diag.reshape(part.d_b, part.d_a).T
        assert np.abs(p - expected).max() <= 1e-10

    def test_explicit_a_basis_matches_dense_construction(self, spectrum_factory, rng):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, (1, 2, 4))
        ba = hb.explicit_basis(part.sites_A, random_unitary(part.d_a, rng))
        bb = hb.pauli_basis(part.sites_B, "ZXY")
        table = sc.conditional_states(bound, part, bb)
        p = st.time_averaged_joint_distribution(table, part, ba)
        assert np.abs(p - dense_time_averaged_joint(bound, part, ba, bb)).max() <= 1e-12
        assert np.abs(p.sum(axis=0)[table.outcomes] - table.probabilities).max() <= 1e-12

    def test_dropped_outcomes_give_zero_columns(self, rng):
        # a computational-basis state of a diagonal H with distinct entries is
        # stationary: one B outcome survives and A sits in one basis state
        n = 4
        h = hb.build_hamiltonian({"model": "explicit", "matrix": np.diag(np.arange(16.0) ** 1.5)})
        z0 = 11
        psi0 = hb.PureState(np.eye(16, dtype=complex)[:, z0], (2,) * n)
        bound = sp.bind_state(sp.diagonalize(h), psi0)
        part = hb.Bipartition(n, (1, 2))
        u = random_unitary(part.d_a, rng)
        ba = hb.explicit_basis(part.sites_A, u)
        bb = hb.pauli_basis(part.sites_B, "Z")
        table = sc.conditional_states(bound, part, bb)
        assert table.dropped_outcomes == part.d_b - 1
        p = st.time_averaged_joint_distribution(table, part, ba)
        assert p.shape == (part.d_a, part.d_b)
        assert np.abs(p - dense_time_averaged_joint(bound, part, ba, bb)).max() <= 1e-12
        a0 = hb._subsystem_indices(n, part.sites_A)[z0]
        x0 = hb._subsystem_indices(n, part.sites_B)[z0]
        expected = np.zeros((part.d_a, part.d_b))
        expected[:, x0] = np.abs(u[a0, :]) ** 2  # |<o|psi_A>|^2
        assert np.abs(p - expected).max() <= 1e-12
        assert np.abs(p.sum(axis=0)[table.outcomes] - table.probabilities).max() <= 1e-12


class TestBasisSites:
    """A bipartite measurement needs its A basis on sites_A and its B basis on sites_B."""

    N = 6
    PART = hb.Bipartition(6, (2, 3))
    GOOD_A = hb.pauli_basis((2, 3), "X")
    GOOD_B = hb.pauli_basis((0, 1, 4, 5), "Z")
    WRONG = [
        (hb.pauli_basis((0, 1), "X"), GOOD_B),  # A basis of the right size on B sites
        (hb.pauli_basis((3, 2), "X"), GOOD_B),  # A sites out of order
        (GOOD_A, hb.pauli_basis((1, 0, 4, 5), "Z")),  # B sites out of order
    ]
    IDS = ["a-on-b-sites", "a-sites-reordered", "b-sites-reordered"]

    @pytest.mark.parametrize("ba, bb", WRONG, ids=IDS)
    def test_joint_outcome_distribution(self, ba, bb):
        with pytest.raises(ValueError):
            st.joint_outcome_distribution(hb.product_state(0.4, self.N), self.PART, ba, bb)

    @pytest.mark.parametrize("ba, bb", WRONG, ids=IDS)
    def test_time_averaged_joint_distribution(self, spectrum_factory, ba, bb):
        bound = spectrum_factory("mfim", self.N, 0.4)
        with pytest.raises(ValueError):  # B sites are checked where the table is built
            table = sc.conditional_states(bound, self.PART, bb)
            st.time_averaged_joint_distribution(table, self.PART, ba)

    @pytest.mark.parametrize("ba, bb", WRONG, ids=IDS)
    def test_interaction_information(self, spectrum_factory, ba, bb):
        bound = spectrum_factory("mfim", self.N, 0.4)
        table = sc.conditional_states(bound, self.PART, self.GOOD_B)
        with pytest.raises(ValueError):
            st.interaction_information(sp.evolve(bound, 3.0), table, self.PART, ba, bb)


class TestEnsembleEntropy:
    def test_maximally_mixed_is_zero(self):
        assert st.ensemble_entropy("scrooge", np.eye(8, dtype=complex) / 8) == 0.0

    def test_two_level_detuned(self):
        val = st.ensemble_entropy("scrooge", np.diag([0.6, 0.4]).astype(complex))
        assert val == pytest.approx(math.log2(1.2) + math.log2(0.8), abs=1e-12)

    def test_temporal_finite_part_definition(self, spectrum_factory):
        bound = spectrum_factory("mfim", 6, 0.3)
        p = bound.populations
        val = st.ensemble_entropy("temporal-finite-part", p)
        assert val == pytest.approx(float(np.sum(np.log2(p.size * p))), rel=1e-12)

    def test_zero_modes_reported_as_minus_inf(self):
        assert st.ensemble_entropy("scrooge", np.diag([1.0, 0.0]).astype(complex)) == -np.inf


class TestOverlapAnalysis:
    def test_flat_deterministic_overlaps(self, rng):
        d = 1024
        energies = np.sort(rng.standard_normal(d)) * 3
        phases = np.exp(2j * np.pi * rng.random(d))
        sd = sp.SpectralData(energies, np.eye(d, dtype=complex), phases / math.sqrt(d))
        out = st.eigenstate_overlap_analysis(sd)
        assert abs(out.beta_fit) <= 0.05
        assert out.ratio == pytest.approx(1.0, abs=1e-9)

    def test_gue_ratio_two(self):
        rng = np.random.Generator(np.random.Philox(11))
        d = 512
        vals = []
        for i in range(8):
            h = rmt.sample_gue(d, rng)
            sd = sp.diagonalize(h)
            psi = hb.PureState(np.eye(d, dtype=complex)[:, 0], (2,) * 9)
            vals.append(st.eigenstate_overlap_analysis(sp.bind_state(sd, psi)).ratio)
        assert np.mean(vals) == pytest.approx(2.0, abs=0.2)

    def test_real_symmetric_ratio_three(self):
        rng = np.random.Generator(np.random.Philox(12))
        d = 512
        vals = []
        for i in range(8):
            h = rmt.sample_real_symmetric(d, rng)
            sd = sp.diagonalize(h)
            psi = hb.PureState(np.eye(d, dtype=complex)[:, 0], (2,) * 9)
            vals.append(st.eigenstate_overlap_analysis(sp.bind_state(sd, psi)).ratio)
        assert np.mean(vals) == pytest.approx(3.0, abs=0.3)

    def test_boltzmann_envelope_recovered(self, rng):
        # synthetic: overlaps are exponential with mean proportional to exp(beta E)
        d = 2048
        energies = np.sort(rng.standard_normal(d) * 2.0)
        beta = 0.8
        f = np.exp(beta * energies)
        p = rng.exponential(scale=f)
        p /= p.sum()
        sd = sp.SpectralData(energies, np.eye(d, dtype=complex), np.sqrt(p).astype(complex))
        out = st.eigenstate_overlap_analysis(sd)
        assert out.beta_fit == pytest.approx(beta, abs=0.1)
        assert out.pt_report.ks_statistic <= 0.05

    def test_fit_error_on_pathological_spectrum(self):
        d = 64
        sd = sp.SpectralData(
            np.zeros(d), np.eye(d, dtype=complex), np.full(d, 1 / math.sqrt(d), dtype=complex)
        )
        with pytest.raises(FitError):
            st.eigenstate_overlap_analysis(sd)
