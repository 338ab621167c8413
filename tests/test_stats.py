import math

import numpy as np
import pytest

from qensembles import CapacityError, Caps
from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st
from qensembles._util import DEFAULT_CAPS

import moment_oracles as mo

MFIM = {"model": "mfim", "hx": 0.8090, "hy": 0.9045, "j": 1.0}


def random_moment(d, k, rng):
    dim = math.comb(d + k - 1, k)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return en.MomentOperator(k, d, m)


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def dense_time_averaged_joint(bound, psi0, part, ba, bb):
    """Diagonal of the dephased state in the product basis, from dense matrices."""
    rho_d = mo.dephase(bound, np.outer(psi0.amplitudes, psi0.amplitudes.conj()))
    u = np.kron(hb.basis_matrix(bb), hb.basis_matrix(ba))  # little-endian: A is low bits
    perm = hb._subsystem_indices(part.n_sites, part.sites_A + part.sites_B)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    rho_perm = rho_d[np.ix_(inv, inv)]
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
        m1 = en.MomentOperator(2, 2, a)
        m2 = en.MomentOperator(2, 2, b)
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


def member_ensemble(d, r, rng, repeated=False):
    """r random members of C^d; with `repeated`, the last r // 2 copy the first ones."""
    distinct = r - r // 2 if repeated else r
    cols = rng.standard_normal((d, distinct)) + 1j * rng.standard_normal((d, distinct))
    cols = np.concatenate([cols, cols[:, : r - distinct]], axis=1)
    cols /= np.linalg.norm(cols, axis=0)
    w = rng.random(r) + 0.1
    w /= w.sum()
    return en.WeightedEnsemble(cols, w)


def dense_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


class TestGramTraceDistance:
    """An ensemble moment of r < D members against c * I, without the D x D moment."""

    # (d, k, r) with r = 1, r = D - 1 (D = 10, 20, 35) and r well below D
    GRID = [(2, 1, 1), (3, 2, 1), (4, 2, 9), (4, 3, 19), (5, 3, 34), (3, 3, 4), (8, 2, 12)]

    @pytest.mark.parametrize("d, k, r", GRID)
    @pytest.mark.parametrize("scalar", ["haar", "scaled"])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_matches_the_dense_path(self, rng, d, k, r, scalar, repeated):
        m = en.moment_k(member_ensemble(d, r, rng, repeated), k)
        if scalar == "haar":
            iso = en.haar_moment(d, k)
        else:  # c * I with c != 1/D
            iso = en.MomentOperator._structured(k, d, DEFAULT_CAPS, scalar=0.3 / m.dim)
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

    def test_input_validation(self):
        with pytest.raises(ValueError):
            st.pt_test([])
        for values in ([1.0, np.nan, 0.5], [1.0, np.inf, 0.5], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                st.pt_test(values)


class TestEntropies:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_uniform_distribution_has_log2_support_bits(self, m):
        p = np.zeros(2 ** (m + 1))
        p[: 2**m] = 2.0**-m  # the zero outcomes contribute nothing
        assert st.shannon_entropy_bits(p) == pytest.approx(m, abs=1e-14)

    def test_shannon_entropy_is_bit_exact_under_relabeling(self, rng):
        p = rng.random(257)
        p /= p.sum()
        assert st.shannon_entropy_bits(rng.permutation(p)) == st.shannon_entropy_bits(p)

    def test_von_neumann_entropy_of_pure_and_maximally_mixed_states(self, rng):
        psi = random_unitary(8, rng)[:, 0]
        assert st.von_neumann_entropy_bits(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)
        mixed = hb.HermitianOperator(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        assert st.von_neumann_entropy_bits(mixed) == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_holevo_sandwich_of_the_maximally_mixed_state(self, d):
        # Q(I/d) = log2 d - (sum_{j=2}^d 1/j) / ln 2
        q, s_vn = st.holevo_sandwich(np.eye(d, dtype=complex) / d)
        assert q == pytest.approx(math.log2(d) - sum(1 / j for j in range(2, d + 1)) / math.log(2), abs=1e-12)
        assert s_vn == pytest.approx(math.log2(d), abs=1e-14)

    def test_subentropy_is_below_von_neumann_entropy(self, rng):
        for _ in range(5):
            g = random_unitary(4, rng)[:, :3] @ np.diag(rng.random(3))
            rho = g @ g.conj().T
            q, s_vn = st.holevo_sandwich(rho / np.trace(rho).real)
            assert 0.0 < q < s_vn


class TestMutualInformationOfJoint:
    def test_product_distribution_has_none(self, rng):
        a, b = rng.random(4), rng.random(6)
        assert st.mutual_information_of_joint(np.outer(a / a.sum(), b / b.sum())) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("d", [2, 5])
    def test_perfect_correlation_has_log2_d_bits(self, d):
        assert st.mutual_information_of_joint(np.eye(d) / d) == pytest.approx(math.log2(d), abs=1e-14)

    def test_unnormalized_joint_is_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            st.mutual_information_of_joint(np.full((2, 2), 0.3))


class TestConditionalMI:
    def test_product_state_factorizes(self):
        s = hb.product_state(0.9, 4)
        part = hb.Bipartition(4, (0, 1))
        joint = st.joint_outcome_distribution(
            s, part, hb.pauli_basis(part.sites_A, "XY"), hb.pauli_basis(part.sites_B, "ZX")
        )
        assert abs(st.mutual_information_of_joint(joint)) <= 1e-10

    def test_bell_pair_one_bit(self):
        bell = hb.PureState([1, 0, 0, 1] / np.sqrt(2), (2, 2))
        part = hb.Bipartition(2, (0,))
        joint = st.joint_outcome_distribution(
            bell, part, hb.pauli_basis(part.sites_A, "Z"), hb.pauli_basis(part.sites_B, "Z")
        )
        assert st.mutual_information_of_joint(joint) == pytest.approx(1.0, abs=1e-10)

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
        state = hb.PureState(sp.evolve_grid(spectrum_factory("mfim", n, 0.6), [60.0])[:, 0], (2,) * n)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        joint = st.joint_outcome_distribution(
            state, part, hb.pauli_basis(part.sites_A, "Z"), hb.pauli_basis(part.sites_B, "Z")
        )
        rho_a = hb.partial_trace(state, part)
        q, s_vn = st.holevo_sandwich(rho_a)
        assert q - 0.05 <= st.mutual_information_of_joint(joint) <= s_vn + 0.05


class TestInteractionInformation:
    def test_eigenstate_has_no_time_fluctuations(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 9], (2,) * 4)
        bound = sp.bind_state(sd, eig)
        part = hb.Bipartition(4, (1, 2))
        ba, bb = hb.pauli_basis(part.sites_A, "X"), hb.pauli_basis(part.sites_B, "X")
        table = sc.conditional_states(bound, part, bb)
        state = hb.PureState(sp.evolve_grid(bound, [37.0])[:, 0], (2,) * 4)
        row, = st.interaction_information(state, table, part, [ba])
        assert abs(row["interaction_bits"]) <= 1e-9

    def test_decomposition_closure(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        ba = hb.pauli_basis(part.sites_A, "X")
        bb = hb.pauli_basis(part.sites_B, "X")
        state = hb.PureState(sp.evolve_grid(bound, [45.0])[:, 0], (2,) * n)
        row, = st.interaction_information(state, sc.conditional_states(bound, part, bb), part, [ba])
        # recompute the decomposition from scratch: the time average from the dense dephased state
        i_fixed = st.mutual_information_of_joint(
            st.joint_outcome_distribution(state, part, ba, bb)
        )
        psi0 = hb.product_state(0.6, n)
        i_avg = st.mutual_information_of_joint(dense_time_averaged_joint(bound, psi0, part, ba, bb))
        assert row["interaction_bits"] == pytest.approx(i_fixed - i_avg, abs=1e-10)
        assert row["fixed_time_bits"] == pytest.approx(i_fixed, abs=1e-12)

    def test_b_basis_is_read_from_the_table(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        ba = hb.pauli_basis(part.sites_A, "X")
        bx, bz = (hb.pauli_basis(part.sites_B, letter) for letter in "XZ")
        state = hb.PureState(sp.evolve_grid(bound, [12.0])[:, 0], (2,) * n)
        x_table = sc.conditional_states(bound, part, bx)
        assert x_table.basis is bx
        row, = st.interaction_information(state, x_table, part, [ba])
        assert row["interaction_bits"] == pytest.approx(0.1526, abs=1e-4)
        # a Z table measures B in Z at the fixed time too
        row, = st.interaction_information(state, sc.conditional_states(bound, part, bz), part, [ba])
        i_fixed = st.mutual_information_of_joint(st.joint_outcome_distribution(state, part, ba, bz))
        assert row["fixed_time_bits"] == i_fixed
        unrecorded = sc.ConditionalStateTable(
            x_table.outcomes, x_table.probabilities, x_table.states, x_table.dropped_outcomes
        )
        with pytest.raises(ValueError, match="records no basis"):
            st.interaction_information(state, unrecorded, part, [ba])

    def test_time_averaged_joint_matches_dense_construction(self, spectrum_factory):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, (2, 3))
        ba = hb.pauli_basis(part.sites_A, "Y")
        bb = hb.pauli_basis(part.sites_B, "XZXZ")
        p = st.time_averaged_joint_distribution(sc.conditional_states(bound, part, bb), part, ba)
        expected = dense_time_averaged_joint(bound, hb.product_state(0.6, n), part, ba, bb)
        assert np.abs(p - expected).max() <= 1e-10

    def test_explicit_a_basis_matches_dense_construction(self, spectrum_factory, rng):
        n = 6
        bound = spectrum_factory("mfim", n, 0.6)
        part = hb.Bipartition(n, (1, 2, 4))
        ba = hb.explicit_basis(part.sites_A, random_unitary(part.d_a, rng))
        bb = hb.pauli_basis(part.sites_B, "ZXY")
        table = sc.conditional_states(bound, part, bb)
        p = st.time_averaged_joint_distribution(table, part, ba)
        psi0 = hb.product_state(0.6, n)
        assert np.abs(p - dense_time_averaged_joint(bound, psi0, part, ba, bb)).max() <= 1e-12
        assert np.abs(p.sum(axis=0)[table.outcomes] - table.probabilities).max() <= 1e-12

    def test_dropped_outcomes_give_zero_columns(self, rng):
        # a computational-basis state of a diagonal H with distinct entries is
        # stationary: one B outcome survives and A sits in one basis state
        n = 4
        h = hb.HermitianOperator(np.diag(np.arange(16.0) ** 1.5), (2,) * n)
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
        assert np.abs(p - dense_time_averaged_joint(bound, psi0, part, ba, bb)).max() <= 1e-12
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
        with pytest.raises(ValueError):  # B sites are checked where the table is built
            table = sc.conditional_states(bound, self.PART, bb)
            state = hb.PureState(sp.evolve_grid(bound, [3.0])[:, 0], (2,) * self.N)
            st.interaction_information(state, table, self.PART, [ba])
