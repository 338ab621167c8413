import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from qensembles import CapacityError, Caps
from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import rmt
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st
from qensembles._util import task_rng

import moment_oracles as mo


def random_state(d, rng):
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    n = int(round(np.log2(d)))
    return hb.PureState(amps / np.linalg.norm(amps), (2,) * n)


class TestMomentK:
    def test_single_state_rank_one(self, rng):
        psi = random_state(4, rng)
        ens = en.WeightedEnsemble(psi.amplitudes[:, None], [1.0])
        m = en.moment_k(ens, 2)
        evals = np.linalg.eigvalsh(m.matrix)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(evals[:-1]).max() <= 1e-10

    def test_classical_mixture(self):
        ens = en.WeightedEnsemble(np.eye(2), [0.5, 0.5])  # |0> and |1>
        m = en.moment_k(ens, 2)
        assert np.allclose(mo.dense(m), np.diag([0.5, 0, 0, 0.5]))

    def test_matches_direct_sum(self, rng):
        states = [random_state(4, rng) for _ in range(150)]
        w = rng.random(150)
        w /= w.sum()
        ens = en.WeightedEnsemble(np.stack([s.amplitudes for s in states], axis=1), w)
        m = mo.dense(en.moment_k(ens, 2))
        direct = np.zeros((16, 16), dtype=complex)
        for wi, s in zip(w, states):
            col = np.kron(s.amplitudes, s.amplitudes)
            direct += wi * np.outer(col, col.conj())
        assert np.abs(m - direct).max() <= 1e-12


class TestStructuredMoments:
    def _ensemble(self, rng, d=4, r=6):
        states = [random_state(d, rng) for _ in range(r)]
        w = rng.random(r)
        w /= w.sum()
        return en.WeightedEnsemble(np.stack([s.amplitudes for s in states], axis=1), w)

    def test_ensemble_matrix_is_built_once_bit_for_bit(self, rng, monkeypatch):
        ens = self._ensemble(rng)
        expected = en._moment_from_columns(ens.states, ens.weights, 3, Caps())
        calls = []
        build = en._moment_from_columns
        monkeypatch.setattr(en, "_moment_from_columns", lambda *a: calls.append(a) or build(*a))
        m = en.moment_k(ens, 3)
        assert not calls
        assert not m.columns.flags.writeable and not m.weights.flags.writeable
        assert np.array_equal(m.matrix, expected)
        assert m.matrix is m.matrix
        assert len(calls) == 1

    def test_haar_matrix_bit_for_bit(self):
        for d, k in ((5, 1), (3, 3), (4, 2)):
            dim = math.comb(d + k - 1, k)
            m = en.haar_moment(d, k).matrix
            assert m.dtype == complex
            assert np.array_equal(m, np.eye(dim) / dim)

    def test_cap_is_checked_when_the_matrix_is_read(self, rng):
        caps = Caps(max_moment_entries=99)  # D = 10 for d = 4, k = 2
        for m in (en.moment_k(self._ensemble(rng), 2, caps), en.haar_moment(4, 2, caps)):
            with pytest.raises(CapacityError, match="max_moment_entries"):
                m.matrix


class TestWeightedEnsemble:
    def test_rejects_a_weight_count_that_differs_from_the_column_count(self):
        with pytest.raises(ValueError, match="one weight per column"):
            en.WeightedEnsemble(np.eye(2), [1.0])
        with pytest.raises(ValueError, match="one weight per column"):
            en.WeightedEnsemble(np.eye(2), [0.25, 0.25, 0.5])
        with pytest.raises(ValueError, match="one weight per column"):
            en.WeightedEnsemble(np.array([1.0, 0.0]), [1.0])

    def test_arrays_are_read_only_views(self):
        cols = np.eye(3, dtype=complex)
        w = np.full(3, 1.0 / 3.0)
        ens = en.WeightedEnsemble(cols, w)
        assert not ens.states.flags.writeable and not ens.weights.flags.writeable
        assert cols.flags.writeable and w.flags.writeable  # the caller's arrays stay writable
        m = en.moment_k(ens, 2)
        assert m.columns is ens.states and m.weights is ens.weights


class TestNonFiniteInputs:
    def test_moment_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="Hermitian"):
            en.MomentOperator(1, 2, [[np.nan, 0], [0, 1]])

    def test_ensemble_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="finite"):
            en.WeightedEnsemble(np.array([[1.0], [0.0]]), [np.nan])

    def test_normalized_ensemble_rejects_nan_state(self):
        with pytest.raises(ValueError, match="non-unit"):
            en.WeightedEnsemble(np.array([[np.nan], [0.0]]), [1.0])


# Every moment builder at order k, on one small input each.
MOMENT_BUILDERS = {
    "moment_k": lambda k: en.moment_k(en.WeightedEnsemble(np.eye(2), [0.5, 0.5]), k),
    "haar_moment": lambda k: en.haar_moment(2, k),
    "random_phase_moment_exact": lambda k: en.random_phase_moment_exact([0.5, 0.5], k),
    "finite_time_temporal_moment": lambda k: en.finite_time_temporal_moment(
        sp.SpectralData(np.array([0.0, 1.0]), np.eye(2), np.full(2, 0.5**0.5)), k, 1.0
    ),
    "product_form_moment": lambda k: en.product_form_moment(np.eye(2) / 2, k).moment,
    "generalized_scrooge_moment": lambda k: sc.generalized_scrooge_moment(
        sc.ConditionalStateTable(np.arange(1), np.ones(1), np.eye(2)[None] / 2), k
    ),
}


class TestOrderRule:
    """One rule for every moment: k >= 1, with one message."""

    @pytest.mark.parametrize("build", list(MOMENT_BUILDERS.values()), ids=list(MOMENT_BUILDERS))
    def test_order_zero_is_rejected(self, build):
        assert build(1).k == 1
        with pytest.raises(ValueError, match="k must be >= 1"):
            build(0)

    @pytest.mark.parametrize("build", list(MOMENT_BUILDERS.values()), ids=list(MOMENT_BUILDERS))
    def test_negative_order_is_rejected(self, build):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build(-1)


class TestHaarMoment:
    def test_d2_k2_entries(self):
        m = mo.dense(en.haar_moment(2, 2))
        assert np.allclose(np.diag(m).real, [1 / 3, 1 / 6, 1 / 6, 1 / 3])
        assert m[1, 2] == pytest.approx(1 / 6)
        assert m[2, 1] == pytest.approx(1 / 6)

    def test_k1_is_maximally_mixed(self):
        assert np.allclose(en.haar_moment(5, 1).matrix, np.eye(5) / 5)

    def test_trace_one(self):
        assert en.haar_moment(3, 3).trace == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_haar_states(self, rng):
        d, n = 4, 100_000
        g = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        g /= np.linalg.norm(g, axis=0)
        cols = np.einsum("in,jn->ijn", g, g).reshape(d * d, n)
        mc = cols @ cols.conj().T / n
        se = np.abs(cols - cols.mean(axis=1, keepdims=True)).std(axis=1).max() / np.sqrt(n)
        m = mo.dense(en.haar_moment(d, 2))
        assert np.abs(mc - m).max() <= 5 * max(se, 1e-4)


class TestRandomPhaseMoment:
    def test_k1_is_diagonal_ensemble(self, rng):
        p = rng.random(6)
        p /= p.sum()
        m = en.random_phase_moment_exact(p, 1).matrix
        assert np.allclose(m, np.diag(p))

    def test_d2_uniform_k2(self):
        m = mo.dense(en.random_phase_moment_exact([0.5, 0.5], 2))
        assert np.allclose(np.diag(m).real, [0.25, 0.25, 0.25, 0.25])
        assert m[1, 2] == pytest.approx(0.25)  # swap coupling
        assert m[0, 3] == pytest.approx(0.0)  # different multisets

    def test_monte_carlo_phase_draws(self, rng):
        d, n = 4, 200_000
        p = rng.random(d)
        p /= p.sum()
        mags = np.sqrt(p)
        exact = mo.dense(en.random_phase_moment_exact(p, 2))
        phases = rng.uniform(0, 2 * np.pi, size=(d, n))
        states = mags[:, None] * np.exp(1j * phases)
        cols = np.einsum("in,jn->ijn", states, states).reshape(d * d, n)
        mc = cols @ cols.conj().T / n
        # exact per-entry standard error of the mean of cols_i conj(cols_j)
        mags2 = np.abs(cols) ** 2
        se = np.sqrt(np.clip(mags2 @ mags2.T / n - np.abs(mc) ** 2, 0, None) / n)
        err = np.abs(mc - exact)
        assert np.all(err <= 5 * se + 1e-12)

    def test_moment_invariants(self, rng):
        p = rng.random(4)
        p /= p.sum()
        m = en.random_phase_moment_exact(p, 2)
        d = mo.moment_defects(m)
        assert d["min_eigenvalue"] >= -1e-9
        assert d["trace"] == pytest.approx(1.0, abs=1e-8)
        full = mo.dense(m)
        assert np.abs(mo.permute_copies(full, 4, 2, (1, 0)) - full).max() <= 1e-10


class TestProductForm:
    def test_pure_state_bound_is_vacuous(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        pf = en.product_form_moment(rho, 2)
        expected = 2 * np.exp(np.pi * np.sqrt(4.0 / 3.0))
        assert pf.error_bound == pytest.approx(expected, rel=1e-12)
        assert pf.vacuous

    def test_maximally_mixed_trace(self):
        d = 16
        pf = en.product_form_moment(np.eye(d, dtype=complex) / d, 2)
        assert pf.moment.trace == pytest.approx(1.0 + 1.0 / d, abs=1e-10)
        assert pf.error_bound == pytest.approx(2 * np.exp(np.pi * np.sqrt(4 / 3)) / d, rel=1e-12)

    def test_k2_distance_identity_small_d(self, rng):
        # the factored distance formula equals the dense trace distance
        p = rng.random(8)
        p /= p.sum()
        pf = en.product_form_moment(np.diag(p).astype(complex), 2).moment
        exact = en.random_phase_moment_exact(p, 2)
        diff = pf.matrix - exact.matrix
        dense = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        factored = mo.product_vs_random_phase_distance_k2(p)
        assert dense == pytest.approx(factored, abs=1e-12)
        # the product form and the normalized moment compare directly
        assert st.trace_distance(pf, exact) == pytest.approx(dense, abs=1e-12)
        assert st.trace_distance(pf, exact) == pytest.approx(factored, abs=1e-12)

    def test_distance_below_bound_at_n10(self, spectrum_factory):
        bound_sd = spectrum_factory("mfim", 10, 0.6)
        p = bound_sd.populations
        dist = mo.product_vs_random_phase_distance_k2(p)
        bound = 2 * np.exp(np.pi * np.sqrt(4 / 3)) * float(np.sum(p**2))
        assert dist <= bound


class TestFiniteTimeMoment:
    def _bound_gue(self, d, rng):
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
        h = hb.HermitianOperator((g + g.conj().T) / 2, (2,) * int(np.log2(d)))
        sd = sp.diagonalize(h)
        return sp.bind_state(sd, random_state(d, rng))

    def test_tau_zero_is_initial_projector(self, rng):
        bound = self._bound_gue(4, rng)
        m = mo.dense(en.finite_time_temporal_moment(bound, 2, 0.0))
        c2 = np.kron(bound.overlaps, bound.overlaps)
        assert np.abs(m - np.outer(c2, c2.conj())).max() <= 1e-12

    def test_large_tau_matches_random_phase(self, rng):
        bound = self._bound_gue(8, rng)
        tau = 1e12 / bound.spectral_width()
        m = mo.dense(en.finite_time_temporal_moment(bound, 2, tau))
        exact = mo.dense(en.random_phase_moment_exact(bound.populations, 2))
        assert np.abs(m - exact).max() <= 1e-6

    def test_frobenius_shortcut_matches_dense(self, rng):
        bound = self._bound_gue(8, rng)
        taus = [0.5, 3.0, 40.0]
        fast = en.finite_time_frobenius_distances(bound, 2, taus)
        exact = en.random_phase_moment_exact(bound.populations, 2).matrix
        for tau, dist in zip(taus, fast):
            m = en.finite_time_temporal_moment(bound, 2, tau).matrix
            assert np.linalg.norm(m - exact) == pytest.approx(dist, rel=1e-12, abs=0)

    @staticmethod
    def _dense_distances(bound, k, taus):
        """The oracle: Frobenius norm of the dense finite- minus infinite-interval moment."""
        exact = en.random_phase_moment_exact(bound.populations, k).matrix
        return [
            np.linalg.norm(en.finite_time_temporal_moment(bound, k, tau).matrix - exact)
            for tau in taus
        ]

    @pytest.mark.parametrize("d, k", [(16, 1), (8, 2)])
    def test_frobenius_matches_dense_on_full_tau_grid(self, d, k):
        bound = self._bound_gue(d, task_rng(7, 0))
        taus = rmt.default_tau_grid(d)
        fast = en.finite_time_frobenius_distances(bound, k, taus)
        # the dense moment's rounded level sums put it up to 7.9e-11 relative off at the last taus
        assert fast == pytest.approx(self._dense_distances(bound, k, taus), rel=1e-12, abs=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit significand")
    @pytest.mark.parametrize("d, k", [(16, 1), (8, 2)])
    def test_frobenius_matches_longdouble_pair_sum_on_full_tau_grid(self, d, k):
        bound = self._bound_gue(d, task_rng(7, 0))
        taus = rmt.default_tau_grid(d)
        fast = en.finite_time_frobenius_distances(bound, k, taus)
        oracle = mo.frobenius_pair_sum(bound.eigenvalues, bound.populations, k, taus, np.longdouble)
        assert fast == pytest.approx(oracle.astype(float), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_frobenius_at_tau_zero(self, rng, k):
        bound = self._bound_gue(8, rng)
        fast = en.finite_time_frobenius_distances(bound, k, [0.0])
        assert fast == pytest.approx(self._dense_distances(bound, k, [0.0]), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_frobenius_with_zero_gaps(self, rng, k):
        # 0.25 is repeated, and -1 + 1.5 = 0.25 + 0.25 exactly: zero-gap pairs at k = 1, 2
        energies = np.array([-1.0, 0.25, 0.25, 1.5])
        c = random_state(4, rng).amplitudes
        bound = sp.SpectralData(energies, np.eye(4, dtype=complex), c)
        taus = np.concatenate([[0.0], rmt.default_tau_grid(4)])
        fast = en.finite_time_frobenius_distances(bound, k, taus)
        dense = self._dense_distances(bound, k, taus)
        assert fast == pytest.approx(dense, rel=1e-12, abs=0)
        assert fast[-1] > 0.1 * fast[0]  # resonant pairs never dephase

    @pytest.mark.parametrize(
        "caps", [Caps(max_sinc_terms=10), Caps(max_multiset_terms=35)], ids=["sinc", "multiset"]
    )
    def test_frobenius_capacity_guards(self, rng, caps):
        bound = self._bound_gue(8, rng)  # D = 36 two-copy multisets
        with pytest.raises(CapacityError):
            en.finite_time_frobenius_distances(bound, 2, [1.0], caps)

    def test_frobenius_rejects_k_below_one(self, rng):
        bound = self._bound_gue(4, rng)
        with pytest.raises(ValueError, match="k must be >= 1"):
            en.finite_time_frobenius_distances(bound, 0, [1.0])

    def test_frobenius_requires_populations(self, rng):
        unbound = sp.diagonalize(rmt.sample_gue(8, rng))
        with pytest.raises(ValueError):
            en.finite_time_frobenius_distances(unbound, 1, [1.0])

    def test_k1_late_time_slope(self, rng):
        bound = self._bound_gue(64, rng)
        taus = np.logspace(2, 4, 8) / bound.spectral_width() * 64
        dists = en.finite_time_frobenius_distances(bound, 1, taus)
        slope = np.polyfit(np.log(taus), np.log(dists), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tau(self, rng, tau):
        bound = self._bound_gue(4, rng)
        with pytest.raises(ValueError):
            en.finite_time_frobenius_distances(bound, 1, [1.0, tau])
        with pytest.raises(ValueError):
            en.finite_time_temporal_moment(bound, 1, tau)

    def test_sinc_series_branch(self):
        xs = np.array([0.0, 1e-9, 5e-5, 1e-3, 0.5, 3.0])
        vals = en.stable_sinc(xs)
        ref = np.array([1.0] + [np.sin(x) / x for x in xs[1:]])
        assert np.abs(vals - ref).max() <= 1e-15

    def test_capacity_guard(self, rng):
        bound = self._bound_gue(8, rng)
        caps = Caps(max_sinc_terms=10)
        with pytest.raises(CapacityError):
            en.finite_time_temporal_moment(bound, 2, 1.0, caps)

    def test_moment_entries_checked_before_the_build(self, rng):
        # d = 4, k = 2: the 10 x 10 moment has 100 entries, like the random-phase one
        bound = self._bound_gue(4, rng)
        caps = Caps(max_moment_entries=50)
        with pytest.raises(CapacityError, match="max_moment_entries"):
            en.random_phase_moment_exact(bound.populations, 2, caps)
        with pytest.raises(CapacityError, match="max_moment_entries"):
            en.finite_time_temporal_moment(bound, 2, 1.0, caps)


def _fixed_point(x, bits):
    """x rounded to a multiple of 2^-bits."""
    return np.ldexp(np.round(np.ldexp(x, bits)), -bits)


def _significant(x, bits):
    """x rounded to `bits` significant bits."""
    m, e = np.frexp(x)
    return np.ldexp(np.round(np.ldexp(m, bits)), e - bits)


class TestFrobeniusPairSum:
    """The Frobenius kernel against the direct pair sum (`mo.frobenius_pair_sum`).

    The pair sum rounds every phase g h, which costs it up to ~4e-11 at
    tau ~ 1e7 on generic spectra. So either g h is exact, with levels on a
    2^-20 (or 2^-30) grid and taus of at most 24 significant bits, or the
    oracle runs in np.longdouble: a difference is then the kernel's error.
    """

    @staticmethod
    def _measure(levels, rng):
        p = np.abs(rng.standard_normal(levels.size) + 1j * rng.standard_normal(levels.size)) ** 2
        return sp.SpectralMeasure(np.sort(levels), p / p.sum())

    @staticmethod
    def _gue_levels(d, rng):
        return _fixed_point(np.linalg.eigvalsh(rmt.sample_gue(d, rng).entries), 20)

    @staticmethod
    def _assert_matches(sm, k, taus, shift=0.0):
        shifted = sp.SpectralMeasure(sm.eigenvalues + shift, sm.populations)
        fast = en.finite_time_frobenius_distances(shifted, k, taus)
        oracle = mo.frobenius_pair_sum(sm.eigenvalues, sm.populations, k, taus)
        assert fast == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d, k", [(64, 1), (16, 2), (6, 3)])
    def test_default_tau_grid(self, d, k):
        rng = task_rng(7, 0)
        sm = self._measure(self._gue_levels(d, rng), rng)
        self._assert_matches(sm, k, _significant(rmt.default_tau_grid(d), 24))

    @pytest.mark.parametrize("k", [1, 2])
    def test_common_shift_of_the_levels(self, rng, k):
        # the shift keeps every gap exact but pushes E_m h to ~5e12, so that
        # phases from a rounded E_m h would be off by up to ~1e-3
        sm = self._measure(self._gue_levels(16, rng), rng)
        self._assert_matches(sm, k, _significant(rmt.default_tau_grid(16), 24), shift=2.0**20)

    def test_every_pair_near(self, rng):
        sm = self._measure(self._gue_levels(16, rng), rng)
        tau = 2.0**-10
        assert 2 * np.ptp(sm.eigenvalues) * tau / 2 < en.NEAR_PHASE  # widest k = 2 gap
        self._assert_matches(sm, 2, [tau])

    def test_every_pair_far(self, rng):
        levels = 2.0 ** np.arange(8)  # the sums 2^a + 2^b are distinct integers
        sm = self._measure(levels, rng)
        taus = np.array([2.0, 50.0, 1e3, 2.5e4, 1e6])
        sums = np.sort(np.add.outer(levels, levels)[np.triu_indices(8)])
        assert np.diff(sums).min() * taus[0] / 2 >= en.NEAR_PHASE
        self._assert_matches(sm, 2, taus)

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_and_negative_taus(self, rng, k):
        sm = self._measure(self._gue_levels(16, rng), rng)
        self._assert_matches(sm, k, [3.0, 0.0, -0.5, 40.0, -3.0, 0.0, 2.0**20])

    def test_huge_taus(self, rng):
        # h^2 overflows beyond tau ~ 1e154, and splitting an unscaled h beyond ~1e300
        sm = self._measure(np.array([-1.0, 0.25, 1.5]), rng)
        self._assert_matches(sm, 2, 2.0 ** np.array([400, 600, 1000]))

    @pytest.mark.parametrize("k", [1, 2])
    def test_levels_clustered_to_1e_9(self, rng, k):
        base = self._gue_levels(8, rng)
        sm = self._measure(np.concatenate([base, base + 2.0**-30]), rng)  # 9.3e-10 apart
        self._assert_matches(sm, k, 2.0 ** np.arange(2, 36))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit significand")
    def test_exact_gaps_of_generic_level_sums(self):
        # rounded k = 3 sums of these levels would put the last four taus off by up to 1.4e-11
        sm = rmt._gue_measure(16, task_rng(1, 0))
        taus = rmt.default_tau_grid(16)[-4:]
        fast = en.finite_time_frobenius_distances(sm, 3, taus)
        oracle = mo.frobenius_pair_sum(sm.eigenvalues, sm.populations, 3, taus, np.longdouble)
        assert fast == pytest.approx(oracle.astype(float), rel=1e-12, abs=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit significand")
    def test_exact_gaps_of_clustered_level_sums(self, rng):
        # k = 2 sums near 2000 cluster delta apart, so every dominant pair is near; each
        # sum rounds by up to 1.1e-13, and a rounded gap would be off by ~1e-7 relative.
        # Sums of two such levels are exact in the oracle's 64-bit significand.
        delta = 1.2345678e-6
        base = np.linalg.eigvalsh(rmt.sample_gue(8, rng).entries)
        sm = self._measure(np.concatenate([base, base + delta]) + 1000.0, rng)
        taus = np.array([0.1, 0.15]) / delta
        fast = en.finite_time_frobenius_distances(sm, 2, taus)
        oracle = mo.frobenius_pair_sum(sm.eigenvalues, sm.populations, 2, taus, np.longdouble)
        assert fast == pytest.approx(oracle.astype(float), rel=1e-12, abs=0)

    def test_peak_memory_is_flat_in_the_tau_grid(self, rng):
        sm = self._measure(self._gue_levels(32, rng), rng)
        every_pair_near = np.logspace(-6.0, -3.0, 4096)
        assert 2 * np.ptp(sm.eigenvalues) * every_pair_near[0] / 2 < en.NEAR_PHASE
        for taus in (np.logspace(0.0, 6.0, 4096) / (4.0 / 32), every_pair_near):
            tracemalloc.start()
            try:
                en.finite_time_frobenius_distances(sm, 2, taus)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one unblocked phase table, D x T = 528 x 4096 complex, would take 35 MB,
            # and one unblocked near-pair sinc table, 139,128 pairs x 4096, 4.6 GB
            assert peak < 32 * 2**20


class TestOccupationBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_follow_combinations_with_replacement(self, k):
        for d in range(0, 13):
            idx, counts = en._occupation_basis(d, k)
            tuples = list(combinations_with_replacement(range(d), k))
            assert idx.dtype == np.int64 and idx.shape == (len(tuples), k)
            assert np.array_equal(idx, np.array(tuples, dtype=np.int64).reshape(-1, k))
            orderings = [len(set(permutations(t))) for t in tuples]
            assert np.array_equal(counts, np.array(orderings, dtype=float))

    def test_pairs_of_the_n12_spectrum_size(self):
        d = 2081  # populated mfim levels at n = 12
        idx, counts = en._occupation_basis(d, 2)
        # i <= j in row-major order is combinations_with_replacement order at k = 2
        assert np.array_equal(idx, np.column_stack(np.triu_indices(d)))
        assert np.array_equal(counts, np.where(idx[:, 0] == idx[:, 1], 1.0, 2.0))


class TestSortedSums:
    def test_sorted_sums_ascend_over_the_occupation_basis(self, rng):
        levels = np.sort(rng.standard_normal(9))
        idx, counts, hi, lo = en._sorted_sums(levels, 3)
        assert np.all(np.diff(hi) >= 0)
        assert np.array_equal(hi, levels[idx].sum(axis=1))
        # hi + lo keeps what the rounded sum hi loses, to about eps^2
        exact = [sum(map(Fraction, levels[t])) for t in idx]
        err = max(abs(Fraction(h) + Fraction(l) - e) for h, l, e in zip(hi, lo, exact))
        assert err <= 2.0**-100 * np.abs(levels).max()
        assert not en._sorted_sums(levels, 1)[3].any()
        ref_idx, ref_counts = en._occupation_basis(9, 3)
        order = np.lexsort(idx.T[::-1])
        assert np.array_equal(idx[order], ref_idx) and np.array_equal(counts[order], ref_counts)


class TestProjectedEnsemble:
    def test_bell_state(self):
        bell = hb.PureState([1, 0, 0, 1] / np.sqrt(2), (2, 2))
        part = hb.Bipartition(2, (0,))
        ens = en.projected_ensemble(bell, part, hb.pauli_basis(part.sites_B, "Z"))
        assert ens.size == 2
        ws = sorted(ens.weights)
        assert np.allclose(ws, [0.5, 0.5])

    def test_product_state_members_identical(self):
        s = hb.product_state(0.8, 4)
        part = hb.Bipartition(4, (1,))
        ens = en.projected_ensemble(s, part, hb.pauli_basis(part.sites_B, "XYZ"))
        ref = ens.states[:, 0]
        ref = ref / ref[np.abs(ref).argmax()]
        for amps in ens.states.T:
            cur = amps / amps[np.abs(amps).argmax()]
            assert np.allclose(cur, ref)

    def test_first_moment_is_partial_trace(self, rng):
        s = random_state(256, rng)
        part = hb.Bipartition(8, (2, 5))
        basis = hb.pauli_basis(part.sites_B, "ZXZYZX")
        ens = en.projected_ensemble(s, part, basis)
        m1 = en.moment_k(ens, 1).matrix
        rho = hb.partial_trace(s, part).entries
        assert np.abs(m1 - rho).max() <= 1e-10

    @pytest.mark.parametrize("letters", ["ZZZ", "XYZ"])
    def test_matches_the_per_outcome_loop_bit_for_bit(self, rng, letters):
        part = hb.Bipartition(5, (1, 3))
        m = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        m[:, [1, 4]] = 0.0  # Z outcomes that never occur
        m[:, 6] *= 1e-8  # and one below the cutoff
        a_idx, b_idx = (hb._subsystem_indices(5, sites) for sites in (part.sites_A, part.sites_B))
        state = hb.PureState((m / np.linalg.norm(m))[a_idx, b_idx], (2,) * 5)
        basis = hb.pauli_basis(part.sites_B, letters)
        ens = en.projected_ensemble(state, part, basis)
        table = hb.projection_table(state, part, basis)
        cols, w, dropped = mo.projected_ensemble_per_outcome(table, en.ZERO_OUTCOME_CUTOFF)
        assert np.array_equal(ens.states, cols)
        assert np.array_equal(ens.weights, w)
        assert ens.dropped_members == dropped
        if letters == "ZZZ":
            assert dropped == 3

    def test_outcome_probabilities_sum_to_one(self, rng):
        s = random_state(64, rng)
        part = hb.Bipartition(6, (0, 3))
        ens = en.projected_ensemble(s, part, hb.pauli_basis(part.sites_B, "XXXX"))
        assert sum(ens.weights) == pytest.approx(1.0, abs=1e-10)


class TestParseval:
    def test_all_outcome_probabilities_normalized_along_trajectory(self, rng):
        h = hb.build_hamiltonian({"model": "mfim", "n": 6})
        sd = sp.bind_state(sp.diagonalize(h), hb.product_state(0.6, 6))
        states = sp.evolve_grid(sd, np.linspace(1.0, 30.0, 7))
        part = hb.Bipartition(6, (2, 3))
        basis = hb.pauli_basis(part.sites_B, "XZXZ")
        for i in range(states.shape[1]):
            st = hb.PureState(states[:, i] / np.linalg.norm(states[:, i]), (2,) * 6)
            table = hb.projection_table(st, part, basis)
            assert np.sum(np.abs(table) ** 2) == pytest.approx(1.0, abs=1e-10)
