import math

import numpy as np
import pytest
import scipy.integrate
from scipy.stats import unitary_group
from hypothesis import given, settings
from hypothesis import strategies as st_h

from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st
from qensembles._util import CapacityError, Caps, InvalidMatrixError, task_rng

import moment_oracles as mo


def printed_d2_second_moment(lam):
    """Closed-form two-level second-moment entries of the Scrooge ensemble."""
    ratio = np.log((1 - lam) / lam)
    r11 = lam**2 * (2 * lam * (4 * lam - 5) - 2 * (1 - lam) ** 2 * ratio + 3) / (2 * lam - 1) ** 3
    r12 = (1 - lam) * lam * (2 * lam + 2 * (1 - lam) * lam * ratio - 1) / (2 * lam - 1) ** 3
    r22 = -((1 - lam) ** 2) * (8 * lam**2 + 2 * lam**2 * ratio - 6 * lam + 1) / (2 * lam - 1) ** 3
    return r11, r12, r22


def random_density(d, rng, rank=None):
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestSampler:
    def test_pure_state_support(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        for _ in range(5):
            state, raw = sc.scrooge_sample(rho, rng)
            overlap = abs(np.vdot(v, state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_matches_haar_second_moment(self, rng):
        d, n = 2, 100_000
        normed, raw = sc.scrooge_sample_batch(np.eye(d, dtype=complex) / d, n, rng)
        w = np.sum(np.abs(raw) ** 2, axis=0)
        cols = np.einsum("in,jn->ijn", normed, normed).reshape(d * d, n)
        mc = (cols * w) @ cols.conj().T / w.sum()
        mags2 = np.abs(cols) ** 2
        se = np.sqrt(np.clip(mags2 @ mags2.T / n - np.abs(mc) ** 2, 0, None) / n) * w.max()
        target = en.haar_moment(d, 2).dense()
        assert np.all(np.abs(mc - target) <= 5 * np.maximum(se, 1e-4))

    def test_weighted_first_moment_matches_rho(self, rng):
        rho = np.diag([0.9, 0.1]).astype(complex)
        n = 100_000
        normed, raw = sc.scrooge_sample_batch(rho, n, rng)
        w = np.sum(np.abs(raw) ** 2, axis=0)
        est = float(((np.abs(normed[0]) ** 2) * w).sum() / w.sum())
        vals = np.abs(normed[0]) ** 2 * w
        se = float(vals.std() / (w.mean() * math.sqrt(n)))
        assert abs(est - 0.9) <= 5 * se
        # without the norm weighting the sampler mean is visibly biased
        unweighted = float((np.abs(normed[0]) ** 2).mean())
        assert abs(unweighted - 0.9) > 5 * se

    def test_unnormalized_draws_have_product_moments(self, rng):
        rho = random_density(3, rng)
        n = 200_000
        _, raw = sc.scrooge_sample_batch(rho, n, rng)
        mc1 = raw @ raw.conj().T / n
        assert np.abs(mc1 - rho).max() <= 6 / math.sqrt(n)


class TestSubentropy:
    def test_pure_state_zero(self):
        assert sc.subentropy(np.diag([1.0, 0.0, 0.0]).astype(complex)) <= 1e-9

    def test_single_qubit_maximally_mixed(self):
        expected = 1.0 - 1.0 / (2.0 * math.log(2.0))
        val = sc.subentropy(np.eye(2, dtype=complex) / 2)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_epsilon_extrapolation_oracle(self):
        expected = 1.0 - 1.0 / (2.0 * math.log(2.0))
        val = sc.subentropy(np.array([0.5, 0.5]), method="split-extrapolate")
        assert val == pytest.approx(expected, abs=1e-6)

    def test_methods_agree_generic(self, rng):
        for _ in range(5):
            lam = rng.random(5)
            lam /= lam.sum()
            a = sc.subentropy(lam, method="stable")
            b = sc.subentropy(lam, method="split-extrapolate")
            assert a == pytest.approx(b, abs=1e-8)

    def test_maximally_mixed_monotone_and_bounded(self):
        values = [sc.subentropy(np.ones(d) / d) for d in (2, 4, 8, 16, 64, 256, 1024)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] <= sc.SUBENTROPY_LIMIT_BITS
        # closed form for the maximally mixed state: log2(d) - (H_d - 1)/ln 2
        for d, v in zip((2, 4, 8, 16, 64, 256, 1024), values):
            h_d = float(np.sum(1.0 / np.arange(1, d + 1)))
            assert v == pytest.approx(math.log2(d) - (h_d - 1) / math.log(2), abs=1e-9)

    def test_below_von_neumann(self, rng):
        for _ in range(5):
            rho = random_density(4, rng)
            q = sc.subentropy(rho)
            s = st.von_neumann_entropy_bits(rho)
            assert -1e-9 <= q <= s + 1e-9

    def test_concave_under_pair_mixing(self, rng):
        for _ in range(5):
            r1, r2 = random_density(4, rng), random_density(4, rng)
            mix = 0.5 * r1 + 0.5 * r2
            assert sc.subentropy(mix) >= 0.5 * sc.subentropy(r1) + 0.5 * sc.subentropy(r2) - 1e-9

    def test_simplex_average_oracle(self, rng):
        # independent oracle: -D E[x ln x] - (H_D - 1), x = <s, lam>, s uniform simplex
        lam = np.array([0.5, 0.3, 0.2])
        d = lam.size
        n = 400_000
        s = rng.dirichlet(np.ones(d), size=n)
        x = s @ lam
        h_d = float(np.sum(1.0 / np.arange(1, d + 1)))
        mc = (-d * np.mean(x * np.log(x)) - (h_d - 1)) / math.log(2)
        se = d * np.std(x * np.log(x)) / math.sqrt(n) / math.log(2)
        assert sc.subentropy(lam) == pytest.approx(mc, abs=5 * se)


class TestScroogeMoment:
    def test_first_moment_constraint(self, rng):
        rho = random_density(5, rng)
        m = sc.scrooge_moment(rho, 1).matrix
        assert np.abs(m - rho).max() <= 1e-12

    def test_printed_two_level_forms(self):
        for lam in (0.6, 0.75, 0.9):
            r11, r12, r22 = printed_d2_second_moment(lam)
            m = sc.scrooge_moment(np.diag([lam, 1 - lam]).astype(complex), 2).dense()
            assert m[0, 0].real == pytest.approx(r11, abs=1e-10)
            assert m[1, 1].real == pytest.approx(r12, abs=1e-10)
            assert m[1, 2].real == pytest.approx(r12, abs=1e-10)
            assert m[2, 1].real == pytest.approx(r12, abs=1e-10)
            assert m[3, 3].real == pytest.approx(r22, abs=1e-10)

    def test_maximally_mixed_equals_haar(self):
        for d, k in ((2, 2), (4, 2), (2, 3)):
            m = sc.scrooge_moment(np.eye(d, dtype=complex) / d, k).matrix
            h = en.haar_moment(d, k).matrix
            assert np.abs(m - h).max() <= 1e-10

    def test_monte_carlo_oracle_k2(self, rng):
        d, n = 4, 200_000
        rho = random_density(d, rng)
        exact = sc.scrooge_moment(rho, 2).dense()
        normed, raw = sc.scrooge_sample_batch(rho, n, rng)
        w = np.sum(np.abs(raw) ** 2, axis=0)
        cols = np.einsum("in,jn->ijn", normed, normed).reshape(d * d, n)
        wn = w / w.sum()
        mc = (cols * (w / w.sum() * n)) @ cols.conj().T / n
        prods_se = np.zeros_like(exact, dtype=float)
        scaled = cols * np.sqrt(w * n / w.sum())
        mags2 = np.abs(scaled) ** 2
        prods_se = np.sqrt(np.clip(mags2 @ mags2.T / n - np.abs(mc) ** 2, 0, None) / n)
        assert np.all(np.abs(mc - exact) <= 5 * prods_se + 1e-5)

    def test_monte_carlo_oracle_k3_rank2(self, rng):
        d, n = 2, 150_000
        rho = np.diag([0.7, 0.3]).astype(complex)
        exact = sc.scrooge_moment(rho, 3).dense()
        normed, raw = sc.scrooge_sample_batch(rho, n, rng)
        w = np.sum(np.abs(raw) ** 2, axis=0)
        cols = np.einsum("in,jn,kn->ijkn", normed, normed, normed).reshape(d**3, n)
        mc = (cols * (w / w.sum() * n)) @ cols.conj().T / n
        scaled = cols * np.sqrt(w * n / w.sum())
        mags2 = np.abs(scaled) ** 2
        se = np.sqrt(np.clip(mags2 @ mags2.T / n - np.abs(mc) ** 2, 0, None) / n)
        assert np.all(np.abs(mc - exact) <= 5 * se + 1e-5)

    def test_permutation_structure(self, rng):
        rho = random_density(3, rng)
        m = sc.scrooge_moment(rho, 2)
        defects = en.moment_defects(m)
        assert defects["min_eigenvalue"] >= -1e-9
        assert defects["trace"] == pytest.approx(1.0, abs=1e-8)
        full = m.dense()
        assert np.abs(mo.permute_copies(full, 3, 2, (1, 0)) - full).max() <= 1e-9

    def test_eigenbasis_sparsity(self, rng):
        lam = np.array([0.5, 0.3, 0.2])
        m = sc.scrooge_moment(np.diag(lam).astype(complex), 2).dense()
        for r in range(3):
            for c in range(3):
                for r2 in range(3):
                    for c2 in range(3):
                        if sorted((r, c)) != sorted((r2, c2)):
                            assert abs(m[3 * r + c, 3 * r2 + c2]) <= 1e-12

    def test_small_purity_limit(self):
        # || scrooge2 - (I + S) rho x rho ||_tr -> 0 linearly in purity
        ratios = []
        for d in (4, 8, 16):
            rho = np.eye(d, dtype=complex) / d
            exact = sc.scrooge_moment(rho, 2).matrix
            approx = en.product_form_moment(rho, 2).moment.matrix
            dist = 0.5 * np.abs(np.linalg.eigvalsh(exact - approx)).sum()
            ratios.append(dist / (1.0 / d))
        assert ratios[0] < 2.0
        assert max(ratios) / min(ratios) < 3.0

    def test_rank_deficient_support(self, rng):
        rho = random_density(4, rng, rank=2)
        m = sc.scrooge_moment(rho, 2)
        assert m.trace == pytest.approx(1.0, abs=1e-8)
        # no weight outside the support
        lam, v = np.linalg.eigh(rho)
        null = v[:, lam < 1e-12]
        probe = np.kron(null[:, 0], null[:, 0])
        assert abs(probe.conj() @ m.dense() @ probe) <= 1e-12


def one_copy_marginal(m):
    """Partial trace of a k-copy moment over its last k - 1 copies."""
    d = m.space_dim
    return np.einsum("aibi->ab", m.dense().reshape(d, d ** (m.k - 1), d, d ** (m.k - 1)))


# k = 3 coefficients of diag(0.5, 0.3, 0.2), one per eigenbasis multiset, from
# the symbolic-derivative engine (40 significant digits) this engine replaced.
PINNED_K3_DIAG_532 = {
    (0, 0, 0): 0.2251403643709361,
    (0, 0, 1): 0.05344260916272665,
    (0, 0, 2): 0.039687232148311415,
    (0, 1, 1): 0.038385509106021315,
    (0, 1, 2): 0.014341465268389614,
    (0, 2, 2): 0.02153151336418723,
    (1, 1, 1): 0.08345132709956675,
    (1, 1, 2): 0.020920867681385555,
    (1, 2, 2): 0.015810379626113633,
    (2, 2, 2): 0.03602518365292209,
}
# Real second moment of diag(0.6, 0.4) from the adaptive-quadrature engine
# (relative tolerance 1e-10): entries <nn|M|nn>, <nm|M|nm> and <mm|M|mm>.
PINNED_REAL_DIAG_64 = (0.4787753826796275, 0.12122461732037254, 0.2787753826796275)


class TestQuadratureEngine:
    def test_pinned_k3_coefficients(self):
        m = sc.scrooge_moment(np.diag([0.5, 0.3, 0.2]).astype(complex), 3).dense()
        for ms, val in PINNED_K3_DIAG_532.items():
            for t in mo.orderings(ms):
                for u in mo.orderings(ms):
                    assert abs(m[mo.flat(t, 3), mo.flat(u, 3)] - val) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_near_degenerate_spectrum_with_tiny_pair(self, k):
        rho = np.diag([0.5, 0.5 - 2e-6, 1e-6, 1e-6]).astype(complex)
        m = sc.scrooge_moment(rho, k)
        assert np.abs(one_copy_marginal(m) - rho).max() <= 1e-12
        assert np.linalg.eigvalsh(m.matrix).min() >= -1e-12
        assert m.trace == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fourth_moment_of_maximally_mixed_is_haar(self, d):
        m = sc.scrooge_moment(np.eye(d, dtype=complex) / d, 4).matrix
        assert np.abs(m - en.haar_moment(d, 4).matrix).max() <= 1e-12

    def test_fourth_moment_marginal(self, rng):
        rho = random_density(3, rng)
        m = sc.scrooge_moment(rho, 4)
        assert np.abs(one_copy_marginal(m) - rho).max() <= 1e-12
        assert np.linalg.eigvalsh(m.matrix).min() >= -1e-12

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            sc.scrooge_moment(np.eye(2, dtype=complex) / 2, 0)

    def test_real_moment_with_tiny_eigenvalue(self):
        m = sc.real_scrooge_moment2(np.diag([0.6, 0.4 - 1e-9, 1e-9]).astype(complex)).dense()
        nn, nm, mm = PINNED_REAL_DIAG_64
        expected = np.zeros((9, 9))
        expected[0, 0], expected[4, 4] = nn, mm
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = nm
        expected[0, 4] = expected[4, 0] = nm
        assert np.abs(m - expected).max() <= 1e-8
        assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_real_moment_pinned_rank_two(self):
        m = sc.real_scrooge_moment2(np.diag([0.6, 0.4]).astype(complex)).dense().real
        nn, nm, mm = PINNED_REAL_DIAG_64
        assert abs(m[0, 0] - nn) <= 1e-10
        assert abs(m[1, 1] - nm) <= 1e-10 and abs(m[0, 3] - nm) <= 1e-10
        assert abs(m[3, 3] - mm) <= 1e-10


@st_h.composite
def spectra(draw):
    """Density spectra with d <= 5, allowing repeated and tiny eigenvalues."""
    d = draw(st_h.integers(1, 5))
    pool = st_h.sampled_from([1.0, 0.5, 0.25, 1e-3, 1e-6, 1e-9])
    raw = draw(st_h.lists(st_h.one_of(pool, st_h.floats(1e-9, 1.0)), min_size=d, max_size=d))
    return np.array(raw) / sum(raw)


class TestScroogeProperties:
    @settings(max_examples=40, deadline=None)
    @given(lam=spectra(), k=st_h.sampled_from([2, 3]), seed=st_h.integers(0, 2**16))
    def test_trace_psd_and_marginal(self, lam, k, seed):
        d = lam.size
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(g)[0]
        rho = (u * lam) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        m = sc.scrooge_moment(rho, k)
        assert m.trace == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(m.matrix).min() >= -1e-12
        assert np.abs(one_copy_marginal(m) - rho).max() <= 1e-12


class TestUnnormalizedMoment:
    def test_k1_is_rho(self, rng):
        rho = random_density(3, rng)
        assert np.abs(en.product_form_moment(rho, 1).moment.matrix - rho).max() <= 1e-12

    def test_identity_swap_form(self):
        rho = np.eye(2, dtype=complex) / 2
        m = en.product_form_moment(rho, 2).moment
        assert np.abs(m.dense() - mo.symmetrizer_sum(2, 2) / 4).max() <= 1e-12
        assert m.trace == pytest.approx(1.5)

    def test_trace_is_cycle_sum(self, rng):
        rho = random_density(3, rng)
        m = en.product_form_moment(rho, 3).moment
        p2, p3 = np.trace(rho @ rho).real, np.trace(rho @ rho @ rho).real
        expected = 1 + 3 * p2 + 2 * p3  # cycle types of S_3
        assert m.trace == pytest.approx(expected, abs=1e-10)

    def test_joint_probability_pt_second_moment(self, rng):
        # fixed o_A slice of the product form: E[p^2] = 2 E[p]^2
        rho = random_density(4, rng)
        m = en.product_form_moment(rho, 2).moment.dense()
        for _ in range(3):
            o = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            o /= np.linalg.norm(o)
            o2 = np.kron(o, o)
            second = (o2.conj() @ m @ o2).real
            first = (o.conj() @ rho @ o).real
            assert second == pytest.approx(2 * first**2, rel=1e-10)


class TestConditionalStates:
    def _bound(self, n=4, theta=0.6):
        h = hb.build_hamiltonian({"model": "mfim", "n": n})
        sd = sp.diagonalize(h)
        return sp.bind_state(sd, hb.product_state(theta, n)), h

    def test_mixture_identity(self):
        bound, _ = self._bound()
        part = hb.Bipartition(4, (1, 2))
        basis = hb.pauli_basis(part.sites_B, "ZZ")
        table = sc.conditional_states(bound, part, basis)
        rho_d, _, _ = sp.diagonal_ensemble(bound)
        expected = hb.partial_trace(rho_d, part, "A").entries
        assert np.abs(table.mixture() - expected).max() <= 1e-10
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_case(self):
        h = hb.build_hamiltonian({"model": "mfim", "n": 4})
        sd = sp.diagonalize(h)
        eig = hb.PureState(sd.eigenvectors[:, 7], (2,) * 4)
        bound = sp.bind_state(sd, eig)
        part = hb.Bipartition(4, (0, 1))
        basis = hb.pauli_basis(part.sites_B, "ZZ")
        table = sc.conditional_states(bound, part, basis)
        proj = hb.projection_table(eig, part, basis)
        for i, x in enumerate(table.outcomes):
            col = proj[:, x]
            p = float(np.vdot(col, col).real)
            assert table.probabilities[i] == pytest.approx(p, abs=1e-10)
            assert np.abs(table.states[i] - np.outer(col, col.conj()) / p).max() <= 1e-8

    def test_states_are_density_matrices(self):
        bound, _ = self._bound(5)
        part = hb.Bipartition(5, (2,))
        basis = hb.pauli_basis(part.sites_B, "XZXZ")
        table = sc.conditional_states(bound, part, basis)
        for s in table.states:
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(s).min() >= -1e-10

    def test_explicit_basis_matches_dense_projection(self, rng):
        n = 6
        bound, _ = self._bound(n)
        part = hb.Bipartition(n, (0, 3))
        basis = hb.explicit_basis(part.sites_B, unitary_group.rvs(part.d_b, random_state=rng))
        u = hb.basis_matrix(basis)
        raw = np.zeros((part.d_b, part.d_a, part.d_a), dtype=complex)
        for e in range(bound.dim):
            cols = hb.split_bipartite(hb.PureState(bound.eigenvectors[:, e], (2,) * n), part) @ u.conj()
            raw += bound.populations[e] * np.einsum("ax,cx->xac", cols, cols.conj())
        p = np.einsum("xaa->x", raw).real
        table = sc.conditional_states(bound, part, basis)
        assert table.dropped_outcomes == 0
        assert np.abs(table.probabilities - p).max() <= 1e-12
        assert np.abs(table.states - raw / p[:, None, None]).max() <= 1e-12

    def test_basis_on_other_sites_is_rejected(self):
        bound, _ = self._bound()
        part = hb.Bipartition(4, (1, 2))
        with pytest.raises(ValueError):
            sc.conditional_states(bound, part, hb.pauli_basis((3, 0), "Z"))

    def test_eigenvector_blocks_sum_to_one_walk(self, monkeypatch):
        bound, _ = self._bound(5)
        part = hb.Bipartition(5, (1, 3))
        basis = hb.pauli_basis(part.sites_B, "XYZ")
        whole = sc.conditional_states(bound, part, basis)
        monkeypatch.setattr(sc, "EIGENVECTOR_CHUNK", 7)  # 32 = 4 * 7 + 4: uneven blocks
        blocks = sc.conditional_states(bound, part, basis)
        assert np.array_equal(blocks.outcomes, whole.outcomes)
        assert np.abs(blocks.probabilities - whole.probabilities).max() <= 1e-12
        assert np.abs(blocks.states - whole.states).max() <= 1e-12


class TestGeneralizedMoment:
    def test_identical_states_reduce_to_plain(self, rng):
        rho = random_density(2, rng)
        table = sc.ConditionalStateTable(
            outcomes=np.arange(4),
            probabilities=np.full(4, 0.25),
            states=np.stack([rho] * 4),
        )
        gen = sc.generalized_scrooge_moment(table, 2).matrix
        plain = sc.scrooge_moment(rho, 2).matrix
        assert np.abs(gen - plain).max() <= 1e-12

    def test_k1_is_mixture(self, rng):
        states = np.stack([random_density(2, rng) for _ in range(3)])
        p = np.array([0.2, 0.5, 0.3])
        table = sc.ConditionalStateTable(np.arange(3), p, states)
        gen = sc.generalized_scrooge_moment(table, 1).matrix
        assert np.abs(gen - table.mixture()).max() <= 1e-12


def random_table(rng, d, ranks):
    states = np.stack([random_density(d, rng, rank=r) for r in ranks])
    p = rng.random(len(ranks)) + 0.05
    return sc.ConditionalStateTable(np.arange(len(ranks)), p / p.sum(), states)


class TestBatchedScroogeMixture:
    """The one-batch generalized moment against the per-outcome sum."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mixed_ranks_in_one_table(self, rng, k):
        table = random_table(rng, 4, [1, 2, 3, 4, 1, 4, 2, 3])
        gen = sc.generalized_scrooge_moment(table, k).matrix
        assert np.abs(gen - mo.generalized_scrooge_sum(table, k)).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_deficient_outcomes_only(self, rng, k):
        table = random_table(rng, 8, [1, 3, 2, 5])
        gen = sc.generalized_scrooge_moment(table, k).matrix
        assert np.abs(gen - mo.generalized_scrooge_sum(table, k)).max() <= 1e-12

    def test_exact_zero_modes_are_masked(self):
        # a pure state and a rank-2 state with exact zeros off their support; the
        # 1e-12 eigenvalue stretches the shared grid far past the pure state's own
        table = sc.ConditionalStateTable(
            np.arange(2),
            np.array([0.3, 0.7]),
            np.stack([np.diag([1.0, 0, 0]), np.diag([0.0, 1e-12, 1 - 1e-12])]).astype(complex),
        )
        gen = sc.generalized_scrooge_moment(table, 3)
        assert np.abs(gen.matrix - mo.generalized_scrooge_sum(table, 3)).max() <= 1e-12
        assert gen.trace == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 14])
    def test_stacked_quadrature_matches_each_support_alone(self, k):
        # at k = 14 the rows on a zero mode would grow like s^12 on this grid if
        # the zero mode simply dropped out of the product
        lam = np.array([[1.0, 0.0, 0.0], [0.0, 1e-12, 1 - 1e-12], [0.2, 0.3, 0.5]])
        idx, _ = en._occupation_basis(3, k)
        occ = (idx[:, :, None] == np.arange(3)).sum(axis=1).astype(float)
        values = sc._gaussian_quadrature(lam, occ)
        for spectrum, row in zip(lam, values):
            on = spectrum > 0
            inside = occ[:, ~on].sum(axis=1) == 0
            assert np.all(row[~inside] == 0.0)
            alone = sc._gaussian_quadrature(spectrum[on], occ[inside][:, on])
            assert np.abs(row[inside] - alone).max() <= 1e-12 * alone.max()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_outcome(self, rng, k):
        table = random_table(rng, 4, [3])
        gen = sc.generalized_scrooge_moment(table, k).matrix
        assert np.abs(gen - mo.generalized_scrooge_sum(table, k)).max() <= 1e-12
        plain = sc.scrooge_moment(table.states[0], k).matrix
        assert np.abs(gen - plain).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_more_outcomes_than_one_block(self, rng, monkeypatch, k):
        table = random_table(rng, 4, list(rng.integers(1, 5, size=37)))
        whole = sc.generalized_scrooge_moment(table, k).matrix
        # about 3 outcomes per block, so the 37 outcomes take uneven blocks
        monkeypatch.setattr(sc, "OUTCOME_BLOCK_ENTRIES", 3 * math.comb(4 + k - 1, k) * 400)
        blocked = sc.generalized_scrooge_moment(table, k).matrix
        assert np.abs(blocked - mo.generalized_scrooge_sum(table, k)).max() <= 1e-12
        assert np.abs(blocked - whole).max() <= 1e-14

    def test_one_outcome_per_block(self, rng, monkeypatch):
        table = random_table(rng, 3, [1, 2, 3, 2])
        monkeypatch.setattr(sc, "OUTCOME_BLOCK_ENTRIES", 1)
        gen = sc.generalized_scrooge_moment(table, 2).matrix
        assert np.abs(gen - mo.generalized_scrooge_sum(table, 2)).max() <= 1e-12

    def test_caps_checked_before_the_batch(self, rng):
        table = random_table(rng, 4, [2, 4])
        with pytest.raises(CapacityError, match="max_multiset_terms"):
            sc.generalized_scrooge_moment(table, 2, caps=Caps(max_multiset_terms=9))
        with pytest.raises(CapacityError, match="max_moment_entries"):
            sc.generalized_scrooge_moment(table, 2, caps=Caps(max_moment_entries=99))

    def test_state_with_wrong_trace_is_rejected(self, rng):
        table = random_table(rng, 2, [2, 2])
        bad = sc.ConditionalStateTable(table.outcomes, table.probabilities, 2 * table.states)
        with pytest.raises(ValueError):
            sc.generalized_scrooge_moment(bad, 2)


NON_HERMITIAN = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)


class TestDensityMatrixChecks:
    """Density-matrix inputs are rejected, not read off one triangle, when not Hermitian or NaN."""

    def test_non_hermitian_matrix_is_rejected(self):
        with pytest.raises(InvalidMatrixError, match="Hermitian"):
            sc.scrooge_moment(NON_HERMITIAN, 2)
        with pytest.raises(InvalidMatrixError, match="Hermitian"):
            sc.subentropy(NON_HERMITIAN)
        with pytest.raises(InvalidMatrixError, match="Hermitian"):
            sc.real_scrooge_moment2(NON_HERMITIAN.real.astype(complex))

    def test_non_hermitian_state_in_a_table_is_rejected(self):
        states = np.stack([np.eye(2, dtype=complex) / 2, NON_HERMITIAN])
        table = sc.ConditionalStateTable(np.arange(2), np.array([0.5, 0.5]), states)
        with pytest.raises(InvalidMatrixError, match="Hermitian"):
            sc.generalized_scrooge_moment(table, 2)

    def test_nan_on_the_diagonal_fails_the_trace_check(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match="trace"):
            sc.scrooge_moment(rho, 2)

    def test_nan_off_the_diagonal_fails_the_hermiticity_check(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(InvalidMatrixError, match="Hermitian"):
            sc.scrooge_moment(rho, 2)

    def test_nan_eigenvalue_is_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sc.subentropy(np.array([np.nan, 0.5]))


class TestRealScrooge:
    def test_maximally_mixed_is_real_haar(self):
        for d in (2, 4):
            m = sc.real_scrooge_moment2(np.eye(d, dtype=complex) / d).matrix
            h = sc.real_haar_moment2(d).matrix
            assert np.abs(m - h).max() <= 1e-9

    def test_pure_state_projector(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        m = sc.real_scrooge_moment2(rho).dense()
        expected = np.zeros((9, 9))
        expected[4, 4] = 1.0
        assert np.abs(m - expected).max() <= 1e-10

    def test_monte_carlo_oracle(self, rng):
        g = rng.standard_normal((3, 3))
        rho = g @ g.T
        rho /= np.trace(rho)
        exact = sc.real_scrooge_moment2(rho.astype(complex)).dense()
        lam, u = np.linalg.eigh(rho)
        n = 200_000
        x = u @ (np.sqrt(np.clip(lam, 0, None))[:, None] * rng.standard_normal((3, n)))
        w = np.sum(x * x, axis=0)
        phi = x / np.sqrt(w)
        cols = np.einsum("in,jn->ijn", phi, phi).reshape(9, n)
        mc = (cols * w) @ cols.T / w.sum()
        scaled = cols * np.sqrt(w * n / w.sum())
        mags2 = scaled**2
        se = np.sqrt(np.clip(mags2 @ mags2.T / n - mc**2, 0, None) / n)
        assert np.all(np.abs(mc - exact.real) <= 5 * se + 1e-5)

    def test_complex_input_rejected(self, rng):
        rho = random_density(2, rng)
        if np.abs(rho.imag).max() < 1e-9:
            rho = rho + 1j * np.array([[0, 1e-3], [-1e-3, 0]])
        with pytest.raises(ValueError):
            sc.real_scrooge_moment2(rho)


class TestEnsembleEntropies:
    def test_scrooge_entropy_formula_vs_kl_quadrature(self):
        # 1-D quadrature oracle at D=2: KL of the per-component weight densities
        lam = np.array([0.7, 0.3])
        d = 2
        expected = float(np.sum(np.log2(d * lam)))

        def kl_component(l):
            # |amplitude|^2 is exponential with mean l under the distorted
            # measure and mean 1/d under the reference
            p = lambda y: np.exp(-y / l) / l
            q = lambda y: d * np.exp(-d * y)
            f = lambda y: p(y) * np.log2(p(y) / q(y))
            val, _ = scipy.integrate.quad(f, 0, 50)
            return val

        kl = sum(kl_component(l) for l in lam)
        assert -kl == pytest.approx(expected, abs=1e-8)
        assert st.ensemble_entropy("scrooge", np.diag(lam).astype(complex)) == pytest.approx(
            expected, abs=1e-12
        )
