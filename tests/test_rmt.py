import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

from qensembles import CapacityError, Caps, rmt
from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import spectral as sp
from qensembles._util import task_rng

import moment_oracles as mo


def semicircle_cdf(x):
    """CDF of the radius-2 semicircle law."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


@functools.cache
def _reference_measure(d, seed, i):
    """The measure of |0> of GUE draw i at (d, seed): the 30-digit levels of its
    tridiagonal matrix, as mpf, paired with its drawn weights."""
    rng = task_rng(seed, i)
    levels = mo.tridiagonal_levels_mp(*rmt._gue_tridiagonal(d, rng), 30)
    e = rng.standard_exponential(d)
    return levels, e / e.sum()


class TestSampling:
    def test_hermitian_by_construction(self, rng):
        h = rmt.sample_gue(32, rng)
        assert np.abs(h.entries - h.entries.conj().T).max() == 0.0

    @pytest.mark.parametrize("d", [2, 3, 48, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 7, 20240901])
    def test_dense_form_is_the_tridiagonal_draw(self, d, seed):
        # the dense form has the measure of |0> that `_gue_measure` draws from the
        # same stream: the levels of the tridiagonal draw and the drawn weights
        h = rmt.sample_gue(d, task_rng(seed)).entries
        sm = rmt._gue_measure(d, task_rng(seed))
        assert np.array_equal(h, h.conj().T) and not h.imag.any()
        w, v = np.linalg.eigh(h)
        assert np.abs(w - sm.eigenvalues).max() <= 1e-13
        assert np.abs(np.abs(v[0]) ** 2 - sm.populations).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_population_moments_are_dirichlet(self, d):
        # oracle: each weight of Dirichlet(1, ..., 1) is Beta(1, d - 1), with mean
        # 1/d and second moment 2/(d(d+1)), whichever level it sits on
        n = 4000
        p = np.array([rmt._gue_measure(d, task_rng(111, d, i)).populations for i in range(n)])
        for values, expected in [(p, 1.0 / d), (p**2, 2.0 / (d * (d + 1)))]:
            se = values.std(axis=0) / math.sqrt(n)
            assert np.all(np.abs(values.mean(axis=0) - expected) <= 4 * se)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_top_weight_is_uncorrelated_with_the_top_level(self, d):
        # for beta = 2 the weights are independent of the levels: the sample
        # correlation of n independent pairs has standard error 1/sqrt(n)
        n = 4000
        draws = [rmt._gue_measure(d, task_rng(112, d, i)) for i in range(n)]
        top = np.array([sm.eigenvalues[-1] for sm in draws])
        weight = np.array([sm.populations[-1] for sm in draws])
        assert abs(np.corrcoef(top, weight)[0, 1]) <= 4 / math.sqrt(n)

    @pytest.mark.parametrize("d", [4, 32])
    def test_entry_laws(self, d):
        # oracle: d diag_j^2 is chi^2_1 and 2d off_i^2 is chi^2_{2(d-i)}, i = 1 ... d-1
        n = 4000
        rng = task_rng(107, d)
        draws = [rmt._gue_tridiagonal(d, rng) for _ in range(n)]
        scaled = np.hstack([
            d * np.array([diag for diag, _ in draws]) ** 2,
            2 * d * np.array([off for _, off in draws]) ** 2,
        ])
        expected = np.concatenate([np.ones(d), 2.0 * np.arange(d - 1, 0, -1)])
        se = scaled.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(scaled.mean(axis=0) - expected) <= 4 * se)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_populations_are_uniform_on_the_simplex(self, d):
        # oracle: for beta = 2 the weights |<E|0>|^2 are Dirichlet(1, ..., 1) and
        # independent of the eigenvalues, so the weight on each sorted level is
        # Beta(1, d - 1); a beta = 1 chi law would give Dirichlet(1/2, ..., 1/2)
        n = 2000
        q = np.array([rmt._gue_measure(d, task_rng(108, d, i)).populations for i in range(n)])
        for j in (0, d - 1):
            assert scipy.stats.ks_1samp(q[:, j], scipy.stats.beta(1, d - 1).cdf).pvalue >= 1e-3

    @pytest.mark.parametrize("d", [2, 3, 8, 24])
    def test_spectrum_law_matches_the_dense_complex_draw(self, d):
        # the dense complex draw against the measure draw: pooled eigenvalues,
        # the top level and the weight of |0> on it
        n = 1500
        tri, dense = [], []
        for i in range(n):
            sm = rmt._gue_measure(d, task_rng(109, d, i))
            w, v = np.linalg.eigh(mo.sample_gue_complex(d, task_rng(110, d, i)))
            tri.append(np.concatenate([sm.eigenvalues, sm.populations[-1:]]))
            dense.append(np.concatenate([w, np.abs(v[0, -1:]) ** 2]))
        tri, dense = np.array(tri), np.array(dense)
        for a, b in [(tri[:, :d].ravel(), dense[:, :d].ravel()), (tri[:, d - 1], dense[:, d - 1]),
                     (tri[:, d], dense[:, d])]:
            assert scipy.stats.ks_2samp(a, b).pvalue >= 1e-3

    def test_fourth_moments_against_the_gue_closed_form(self):
        # oracle: for Hermitian H with E|h_ij|^2 = 1/d and Gaussian entries,
        # E tr H^4 = (2 d^3 + d) / d^2, and by unitary invariance the |0>
        # diagonal has mean E (H^4)_00 = E tr H^4 / d
        d, n = 6, 4000
        rng = task_rng(103)
        trace, corner = np.empty(n), np.empty(n)
        for i in range(n):
            h2 = np.linalg.matrix_power(rmt.sample_gue(d, rng).entries, 2)
            h4 = h2 @ h2
            trace[i], corner[i] = np.trace(h4).real, h4[0, 0].real
        for values, expected in [(trace, 2 * d + 1 / d), (corner, 2 + 1 / d**2)]:
            se = values.std() / math.sqrt(n)
            assert abs(values.mean() - expected) <= 4 * se

    def test_two_level_gap_mean_against_density_quadrature(self):
        # oracle: the 2x2 gap follows a 3-dof chi law in this normalization
        density = lambda s: math.sqrt(2.0 / math.pi) * s**2 * math.exp(-(s**2) / 2.0)
        expected, _ = scipy.integrate.quad(lambda s: s * density(s), 0, 30)
        rng = task_rng(100)
        n = 10_000
        gaps = np.empty(n)
        for i in range(n):
            w = np.linalg.eigvalsh(rmt.sample_gue(2, rng).entries)
            gaps[i] = w[1] - w[0]
        se = gaps.std() / math.sqrt(n)
        assert abs(gaps.mean() - expected) <= 3 * se

    def test_semicircle_distribution(self):
        rng = task_rng(101)
        d = 512
        vals = np.sort(np.concatenate(
            [np.linalg.eigvalsh(rmt.sample_gue(d, rng).entries) for _ in range(4)]
        ))
        ecdf = (np.arange(vals.size) + 1) / vals.size
        ks = np.abs(ecdf - semicircle_cdf(vals)).max()
        assert ks <= 0.02

    def test_eigenvector_isotropy(self):
        # |<0|u>|^2 averages to 1/d across samples, as for Haar vectors; the draw is
        # real, so this holds for |0> only, not for every basis state
        rng = task_rng(102)
        d = 64
        comps = []
        for _ in range(200):
            sd = sp.diagonalize(rmt.sample_gue(d, rng))
            comps.append(np.abs(sd.eigenvectors[0, 0]) ** 2)
        mean = np.mean(comps)
        se = np.std(comps) / math.sqrt(len(comps))
        assert abs(mean - 1.0 / d) <= 4 * se

    @pytest.mark.parametrize("sample", [rmt.sample_gue])
    def test_dimension_below_two_is_rejected(self, rng, sample):
        with pytest.raises(ValueError, match="d must be >= 2"):
            sample(1, rng)

    # d sum_E |<E|0>|^4 has mean 2d/(d+1) for Haar-unitary eigenvectors (GUE)
    @pytest.mark.parametrize(
        "sample, seed, ratio, tol", [(rmt.sample_gue, 11, lambda d: 2 * d / (d + 1), 0.2)], ids=["gue"]
    )
    def test_basis_state_participation_ratio(self, sample, seed, ratio, tol):
        rng = np.random.Generator(np.random.Philox(seed))
        d = 512
        e0 = hb.PureState(np.eye(d, dtype=complex)[0], (d,))
        vals = [d * np.sum(sp.bind_state(sp.diagonalize(sample(d, rng)), e0).populations ** 2) for _ in range(8)]
        assert np.mean(vals) == pytest.approx(ratio(d), abs=tol)


class TestSemicircleCdf:
    def test_endpoints_median_and_clipping(self):
        f = semicircle_cdf(np.array([-5.0, -2.0, 0.0, 2.0, 5.0]))
        assert f == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0], abs=1e-15)

    def test_symmetric_about_zero(self):
        x = np.linspace(0.0, 2.0, 41)
        assert semicircle_cdf(x) + semicircle_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_increments_integrate_the_semicircle_density(self):
        density = lambda x: math.sqrt(4.0 - x * x) / (2.0 * math.pi)
        edges = np.array([-2.0, -1.3, -0.2, 0.7, 1.9, 2.0])
        f = semicircle_cdf(edges)
        for a, b, fa, fb in zip(edges[:-1], edges[1:], f[:-1], f[1:]):
            mass, _ = scipy.integrate.quad(density, a, b, epsabs=1e-13)
            assert fb - fa == pytest.approx(mass, abs=1e-10)


class TestDefaultTauGrid:
    @pytest.mark.parametrize("d", [16, 1024])
    def test_log_spaced_in_inverse_level_spacings(self, d):
        taus = rmt.default_tau_grid(d)
        # mean level spacing of the radius-2 semicircle is 4/d
        assert taus == pytest.approx(np.logspace(0.0, 6.0, 30) * d / 4.0, rel=1e-14)
        assert taus[0] == pytest.approx(d / 4.0, rel=1e-15)


class TestConvergenceExperiment:
    def test_k1_single_instance_late_slope(self):
        curve = rmt.convergence_experiment(64, 1, seed=7)
        slope = np.polyfit(np.log(curve.tau_grid[-10:]), np.log(curve.frobenius[-10:]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_distance_globally_decreases(self):
        curve = rmt.convergence_experiment(32, 2, seed=3)
        assert curve.frobenius[-1] <= curve.frobenius[0]

    def test_ensemble_mean_squared_k1_slope(self):
        taus = np.logspace(1.0, 4.0, 12) / (4.0 / 16)
        curve = rmt.convergence_experiment(16, 1, tau_grid=taus, n_samples=150, seed=11)
        slope = np.polyfit(np.log(taus[2:]), np.log(curve.squared_frobenius_mean[2:]), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.4)

    def test_reproducible_across_sample_order(self):
        c1 = rmt.convergence_experiment(8, 1, n_samples=5, seed=42)
        c2 = rmt.convergence_experiment(8, 1, n_samples=5, seed=42)
        assert np.array_equal(c1.frobenius, c2.frobenius)


    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"tau_grid": [1.0, 3.0, 2.0]},
            {"tau_grid": [1.0, 1.0]},
            {"tau_grid": [1.0, np.nan, 3.0]},
            {"tau_grid": [1.0, 3.0, np.inf]},
            {"tau_grid": [-np.inf, 1.0]},
            {"k": 0},
        ],
    )
    def test_rejects_bad_input_before_the_first_draw(self, monkeypatch, kwargs):
        def draw(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(rmt, "_gue_tridiagonal", draw)
        with pytest.raises(ValueError):
            rmt.convergence_experiment(**{"d": 8, "k": 1, **kwargs})

    @pytest.mark.parametrize(
        "cap, value", [("max_spectrum_dim", 8), ("max_multiset_terms", 15), ("max_sinc_terms", 255)]
    )
    def test_caps_are_checked_before_the_first_draw(self, monkeypatch, cap, value):
        def draw(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(rmt, "_gue_tridiagonal", draw)
        with pytest.raises(CapacityError) as err:
            rmt.convergence_experiment(16, 1, caps=Caps(**{cap: value}))
        assert err.value.cap_name == cap

    # (256, 2) is left out: its 32,896^2 sinc terms exceed the default max_sinc_terms.
    # Five samples outnumber the pool's workers on a host with fewer than five
    # usable cores, so a worker draws several measures.
    @pytest.mark.parametrize(
        "d, k", [(2, 1), (3, 1), (16, 1), (48, 1), (256, 1), (2, 2), (3, 2), (8, 2), (48, 2)]
    )
    def test_bit_identical_to_the_route_through_the_gue_measure_draws(self, d, k):
        curve = rmt.convergence_experiment(d, k, n_samples=5, seed=9)
        rows = np.array([
            en.finite_time_frobenius_distances(rmt._gue_measure(d, task_rng(9, i)), k, curve.tau_grid)
            for i in range(5)
        ])
        assert np.array_equal(curve.frobenius, rows.mean(axis=0))
        assert np.array_equal(curve.squared_frobenius_mean, (rows**2).mean(axis=0))

    def test_curve_rejects_non_finite_distances(self):
        with pytest.raises(ValueError):
            rmt.ConvergenceCurve(
                1, np.array([1.0, 2.0]), np.array([0.5, np.nan]), np.array([0.25, np.nan]), 1
            )

    def test_curve_rejects_a_tau_grid_that_is_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            rmt.ConvergenceCurve(
                1, np.array([2.0, 1.0]), np.array([0.5, 0.4]), np.array([0.25, 0.16]), 1
            )

    def test_single_sample_curve_is_its_own_row_and_its_square(self):
        curve = rmt.convergence_experiment(8, 1, seed=4)
        row = en.finite_time_frobenius_distances(rmt._gue_measure(8, task_rng(4, 0)), 1, curve.tau_grid)
        assert curve.sample_count == 1
        assert np.array_equal(curve.frobenius, row)
        assert np.array_equal(curve.squared_frobenius_mean, row**2)

    @staticmethod
    def _dense_route(d, k, n_samples, seed, precise=False):
        """The oracle: full eigendecomposition, bound to |0>, then the distance kernel.

        Without `precise`, the matrix is the dense form of the same draws
        (`sample_gue`). With it, the measure is the draws' 30-digit levels
        with their drawn weights (`_reference_measure`), rounded to doubles,
        which shares no rounding with the ?sterf levels.
        """
        taus = rmt.default_tau_grid(d)
        rows = []
        for i in range(n_samples):
            if precise:
                measure = sp.SpectralMeasure(*(np.array(v, dtype=float) for v in _reference_measure(d, seed, i)))
            else:
                h = rmt.sample_gue(d, task_rng(seed, i))
                e0 = hb.PureState(np.eye(d, dtype=complex)[0], h.dims)
                measure = sp.bind_state(sp.diagonalize(h), e0)
            rows.append(en.finite_time_frobenius_distances(measure, k, taus))
        rows = np.array(rows)
        return rows.mean(axis=0), (rows**2).mean(axis=0)

    @pytest.mark.parametrize("d, k, precise", [(64, 1, False), (32, 2, True)], ids=["64-1", "32-2"])
    def test_matches_dense_route(self, d, k, precise):
        curve = rmt.convergence_experiment(d, k, n_samples=2, seed=5)
        mean, squared = self._dense_route(d, k, 2, 5, precise)
        # levels other than the ?sterf ones move the curve up to 2.5e-9 relative, its squared mean 5.5e-9
        assert curve.frobenius == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert curve.squared_frobenius_mean == pytest.approx(squared, rel=1e-12, abs=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a 64-bit significand")
    @pytest.mark.parametrize("d, k", [(64, 1), (32, 2)], ids=["64-1", "32-2"])
    def test_matches_longdouble_pair_sum(self, d, k):
        curve = rmt.convergence_experiment(d, k, n_samples=2, seed=5)
        rows = []
        for i in range(2):
            sm = rmt._gue_measure(d, task_rng(5, i))
            rows.append(mo.frobenius_pair_sum(sm.eigenvalues, sm.populations, k, curve.tau_grid, np.longdouble))
        rows = np.array(rows)
        assert curve.frobenius == pytest.approx(rows.mean(axis=0).astype(float), rel=1e-12, abs=0)
        squared = (rows**2).mean(axis=0).astype(float)
        assert curve.squared_frobenius_mean == pytest.approx(squared, rel=1e-12, abs=0)

    @pytest.mark.parametrize("i", [0, 1])
    def test_measure_matches_the_30_digit_one(self, i):
        # the ?sterf levels of the d = 32, seed 5 draws of test_matches_dense_route[32-2],
        # against their unrounded 30-digit levels: ?sterf is backward stable, so
        # each level is within a small multiple of eps ||T|| (1.1e-15 and 2.7e-15 here)
        diag, off = rmt._gue_tridiagonal(32, task_rng(5, i))
        sm = rmt._gue_measure(32, task_rng(5, i))
        levels, _ = _reference_measure(32, 5, i)
        eps_norm = np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
        assert max(abs(e - float(x)) for x, e in zip(sm.eigenvalues, levels)) <= 8 * eps_norm

    def test_no_householder_reduction(self, monkeypatch):
        def zhetrd(*args, **kwargs):
            raise AssertionError("Householder reduction called")

        monkeypatch.setattr(scipy.linalg.lapack, "zhetrd", zhetrd)
        curve = rmt.convergence_experiment(48, 1)
        assert np.all(np.isfinite(curve.frobenius))

    def test_no_dense_eigendecomposition(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("dense eigendecomposition called")

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        curve = rmt.convergence_experiment(48, 2)
        assert np.all(np.isfinite(curve.frobenius))


class TestPeakMemory:
    # sample_gue holds one d x d complex matrix (d^2 16 B) plus row-block
    # temporaries; convergence_experiment holds no d x d array at all, and its
    # measure draw only O(d) ones
    @pytest.mark.parametrize(
        "run, units",
        [
            (lambda d: rmt.sample_gue(d, task_rng(0)), 1.3),
            (lambda d: rmt.convergence_experiment(d, 1), 0.25),
        ],
        ids=["sample_gue", "convergence_experiment"],
    )
    def test_peak_memory_in_matrices(self, run, units):
        d = 1024
        run(16)  # warm up lazily created module state
        tracemalloc.start()
        try:
            run(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= units * d * d * 16
