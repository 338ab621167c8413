import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from qensembles import CapacityError, FitError, rmt
from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import spectral as sp
from qensembles._util import task_rng


class TestSampling:
    def test_hermitian_by_construction(self, rng):
        h = rmt.sample_gue(32, rng)
        assert np.abs(h.entries - h.entries.conj().T).max() == 0.0

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
        ks = np.abs(ecdf - rmt.semicircle_cdf(vals)).max()
        assert ks <= 0.02

    def test_eigenvector_isotropy(self):
        # |<i|u>|^2 averages to 1/d across samples, as for Haar vectors
        rng = task_rng(102)
        d = 64
        comps = []
        for _ in range(200):
            sd = sp.diagonalize(rmt.sample_gue(d, rng))
            comps.append(np.abs(sd.eigenvectors[0, 0]) ** 2)
        mean = np.mean(comps)
        se = np.std(comps) / math.sqrt(len(comps))
        assert abs(mean - 1.0 / d) <= 4 * se

    def test_real_symmetric_is_real(self, rng):
        h = rmt.sample_real_symmetric(16, rng)
        assert np.abs(h.entries.imag).max() == 0.0


class TestConvergenceExperiment:
    def test_k1_single_instance_late_slope(self):
        curve = rmt.convergence_experiment(64, 1, seed=7)
        fit = rmt.fit_curve_slope(curve, (curve.tau_grid[-10], curve.tau_grid[-1]))
        assert fit.slope == pytest.approx(-1.0, abs=0.2)

    def test_distance_globally_decreases(self):
        curve = rmt.convergence_experiment(32, 2, seed=3)
        assert curve.frobenius[-1] <= curve.frobenius[0]

    def test_ensemble_mean_squared_k1_slope(self):
        taus = rmt.default_tau_grid(16, points=12, decades=(1.0, 4.0))
        curve = rmt.convergence_experiment(16, 1, tau_grid=taus, n_samples=150, seed=11)
        fit = rmt.fit_curve_slope(curve, (taus[2], taus[-1]), squared=True)
        assert fit.slope == pytest.approx(-2.0, abs=0.4)

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
        ],
    )
    def test_rejects_bad_input_before_the_first_draw(self, monkeypatch, kwargs):
        def draw(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(rmt, "sample_gue", draw)
        with pytest.raises(ValueError):
            rmt.convergence_experiment(8, 1, **kwargs)

    def test_curve_rejects_non_finite_distances(self):
        with pytest.raises(ValueError):
            rmt.ConvergenceCurve(
                1, np.array([1.0, 2.0]), np.array([0.5, np.nan]), None, "single-instance", 1
            )

    @staticmethod
    def _dense_route(d, k, n_samples, seed):
        """The oracle: full eigendecomposition, bound to |0>, then the distance kernel."""
        taus = rmt.default_tau_grid(d)
        rows = []
        for i in range(n_samples):
            h = rmt.sample_gue(d, task_rng(seed, i))
            e0 = hb.PureState(np.eye(d, dtype=complex)[0], h.dims)
            bound = sp.bind_state(sp.diagonalize(h), e0)
            rows.append(en.finite_time_frobenius_distances(bound, k, taus))
        rows = np.array(rows)
        return rows.mean(axis=0), (rows**2).mean(axis=0)

    @pytest.mark.parametrize("d, k", [(64, 1), (32, 2)])
    def test_matches_dense_route(self, d, k):
        curve = rmt.convergence_experiment(d, k, n_samples=2, seed=5)
        mean, squared = self._dense_route(d, k, 2, 5)
        assert curve.frobenius == pytest.approx(mean, rel=1e-12)
        assert curve.squared_frobenius_mean == pytest.approx(squared, rel=1e-12)

    def test_no_dense_eigendecomposition(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("dense eigendecomposition called")

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        curve = rmt.convergence_experiment(48, 2)
        assert np.all(np.isfinite(curve.frobenius))


class TestGapHistograms:
    def test_equally_spaced_spectrum_point_masses(self):
        s = np.arange(8, dtype=float)
        hist = rmt.gap_histograms([s], order="gaps", bins=57, half_range=8.0)
        centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        occupied = centers[hist.density > 0]
        # gaps are the integers 1..7 and their negatives
        assert np.all(np.abs(np.abs(occupied) - np.round(np.abs(occupied))) < 0.15)
        assert hist.density_at_zero() == 0.0

    def test_gue_level_repulsion(self):
        rng = task_rng(103)
        spectra = [np.linalg.eigvalsh(rmt.sample_gue(16, rng).entries) for _ in range(3000)]
        hist = rmt.gap_histograms(spectra, order="gaps", bins=101, half_range=4.0)
        assert hist.density_at_zero() < 0.1 * hist.peak_density()

    def test_gap_of_gaps_weak_repulsion(self):
        rng = task_rng(104)
        spectra = [np.linalg.eigvalsh(rmt.sample_gue(16, rng).entries) for _ in range(1500)]
        hist = rmt.gap_histograms(spectra, order="gap-of-gaps", bins=101, half_range=8.0)
        ratio = hist.density_at_zero() / hist.peak_density()
        assert 0.02 < ratio < 0.9
        assert hist.density_at_zero() > 0.0

    @pytest.mark.parametrize("order, d", [("gap-of-gaps", 91), ("gaps", 8193)])
    def test_capacity_guard(self, order, d):
        with pytest.raises(CapacityError):
            rmt.gap_histograms([np.arange(d, dtype=float)], order=order)


class TestPowerLawFit:
    def test_exact_inverse_law(self):
        x = np.logspace(0, 3, 20)
        fit = rmt.fit_power_law(x, 1.0 / x, (x[0], x[-1]))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.stderr <= 1e-12

    def test_exact_inverse_sqrt(self):
        x = np.logspace(0, 3, 20)
        fit = rmt.fit_power_law(x, x**-0.5, (x[0], x[-1]))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_noisy_inverse_law(self, rng):
        x = np.logspace(0, 3, 40)
        y = (1.0 / x) * (1.0 + 0.05 * rng.standard_normal(40))
        fit = rmt.fit_power_law(x, y, (x[0], x[-1]))
        assert fit.slope == pytest.approx(-1.0, abs=0.05)

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            rmt.fit_power_law([1, 2, 3], [1, 0.5, 0.3], (1, 3))
