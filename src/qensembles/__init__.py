"""Ensembles of pure states from many-body dynamics.

Constructs temporal and projected ensembles of spin-chain states, computes
their exact k-copy moments (random-phase, Scrooge, generalized Scrooge, Haar),
and verifies maximum-entropy signatures: Porter-Thomas statistics,
subentropy-valued mutual information, and random-matrix convergence rates.
"""

from ._util import (
    CapacityError,
    Caps,
    DEFAULT_CAPS,
    InvalidMatrixError,
    InvalidModelError,
    NumericalFailureError,
    QEnsemblesError,
    task_rng,
)

__all__ = [
    "CapacityError",
    "Caps",
    "DEFAULT_CAPS",
    "InvalidMatrixError",
    "InvalidModelError",
    "NumericalFailureError",
    "QEnsemblesError",
    "task_rng",
]

__version__ = "0.1.0"
