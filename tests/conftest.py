import warnings

import numpy as np
import pytest

# On a failing @given test, hypothesis's pytest plugin imports its patch writer,
# whose libcst import warns through mypy_extensions; with warnings turned into
# errors that aborts the whole run. Importing it here, with the warning
# silenced, keeps a failing property test an ordinary failure.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from qensembles import hilbert as hb
from qensembles import spectral as sp

_SPECTRUM_CACHE = {}


@pytest.fixture(scope="session")
def spectrum_factory():
    """Session-cached diagonalization keyed by (model name, n); bound per theta."""

    def get(model_name: str, n: int, theta: float | None = None):
        key = (model_name, n)
        if key not in _SPECTRUM_CACHE:
            _SPECTRUM_CACHE[key] = sp.model_spectrum({"model": model_name, "n": n})
        sd = _SPECTRUM_CACHE[key]
        if theta is None:
            return sd
        return sp.bind_state(sd, hb.product_state(theta, n))

    return get


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(20240901))
