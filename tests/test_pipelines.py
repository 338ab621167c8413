import numpy as np
import scipy.linalg

from qensembles import hilbert as hb
from qensembles import pipelines as pl


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
