"""Distances, Porter-Thomas statistics, and information-theoretic functionals."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ._util import check_cap
from .ensembles import MomentOperator
from .hilbert import (
    Bipartition,
    MeasurementBasis,
    PureState,
    _as_density,
    _require_sites,
    apply_local_rotations,
    basis_matrix,
    projection_table,
)
from .scrooge import ConditionalStateTable, subentropy

LN2 = math.log(2.0)


def shannon_entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy with the 0 log 0 := 0 convention; base-2 output.

    Terms are summed in sorted order so the value is bit-exact under any
    relabeling of the outcomes.
    """
    p = np.asarray(p, dtype=float)
    nz = np.sort(p[p > 0])
    return float(-(nz * np.log(nz)).sum() / LN2)


def von_neumann_entropy_bits(rho) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    lam = np.linalg.eigvalsh(_as_density(rho))
    return shannon_entropy_bits(np.clip(lam, 0.0, None))


def trace_distance(m1: MomentOperator, m2: MomentOperator) -> float:
    """Half the trace norm of the difference of two moments of one k and d.

    Any two such moments compare, normalized or not: the product form
    k! Sym^k(rho_d) of `ensembles.product_form_moment` against the exact
    random-phase moment is the distance its error bound is about.

    When one side is c * I (`haar_moment`) and the other an ensemble moment of
    r < D members (`moment_k`), the distance comes from the r x r Gram matrix
    G_zw = sqrt(w_z w_w) <c_z|c_w>^k: the moment's spectrum on Sym^k is that
    of G padded with D - r zeros, so the distance is
    (sum_i |g_i - c| + (D - r) |c|) / 2 over the eigenvalues g_i of G. That
    path checks r^2 against the ensemble's `max_moment_entries` and builds no
    D x D matrix. Every other pair diagonalizes the D x D difference, so the
    cost is O(min(r, D)^3).
    """
    if (m1.k, m1.space_dim) != (m2.k, m2.space_dim):
        raise ValueError(f"moment shapes differ: ({m1.k},{m1.space_dim}) vs ({m2.k},{m2.space_dim})")
    for ens, iso in ((m1, m2), (m2, m1)):
        if iso.scalar is not None and ens.columns is not None and ens.weights.size < ens.dim:
            return _gram_distance(ens, iso.scalar)
    diff = m1.matrix - m2.matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _gram_distance(ens: MomentOperator, c: float) -> float:
    """Trace distance of an ensemble moment of r < D members to c * I on Sym^k."""
    r = ens.weights.size
    check_cap(ens.caps, "max_moment_entries", r**2)
    sqrt_w = np.sqrt(ens.weights)
    gram = np.outer(sqrt_w, sqrt_w) * (ens.columns.conj().T @ ens.columns) ** ens.k
    g = np.linalg.eigvalsh(gram)
    return 0.5 * float(np.abs(g - c).sum() + (ens.dim - r) * abs(c))


# ---------------------------------------------------------------------------
# Porter-Thomas tests
# ---------------------------------------------------------------------------


class PTReport(NamedTuple):
    """Moments E[x], E[x^2], E[x^3] and KS distance to the unit exponential
    (the Porter-Thomas law of rescaled probabilities) of nonnegative samples."""

    sample_count: int
    m1: float
    m2: float
    m3: float
    ks_statistic: float


def pt_test(values: Sequence[float]) -> PTReport:
    """Moments m^(r) and KS statistic of `values` against the unit exponential.

    The KS statistic is the maximum over sample points of the absolute
    difference between the right-continuous empirical CDF and the CDF
    1 - exp(-x) (a point mass at 1 scores 1/e).
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all((x >= 0) & np.isfinite(x)):  # NaN fails both tests
        raise ValueError("values must be finite and nonnegative")
    w = np.full(x.size, 1.0 / x.size)
    xs = np.sort(x)
    cum = np.cumsum(w)
    # right-continuous ECDF: at each sample, the total weight of values <= it
    last = np.searchsorted(xs, xs, side="right") - 1
    ks = float(np.abs(cum[last] - (1.0 - np.exp(-xs))).max())
    moments = (float(np.sum(w * x**r)) for r in (1, 2, 3))
    return PTReport(x.size, *moments, ks)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def joint_outcome_distribution(
    state: PureState,
    part: Bipartition,
    basis_a: MeasurementBasis,
    basis_b: MeasurementBasis,
) -> np.ndarray:
    """p(o_A, z_B) for measurements in basis_a on A and basis_b on B; shape (D_A, D_B)."""
    _require_sites(basis_a, part.sites_A)
    m = projection_table(state, part, basis_b)
    return np.abs(apply_local_rotations(m.T, basis_a.factors).T) ** 2


def mutual_information_of_joint(p: np.ndarray) -> float:
    """I(row; column) of a joint distribution, in bits."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-8):
        raise ValueError(f"joint distribution sums to {total}")
    return (
        shannon_entropy_bits(p.sum(axis=1))
        + shannon_entropy_bits(p.sum(axis=0))
        - shannon_entropy_bits(p.ravel())
    )


def time_averaged_joint_distribution(
    table: ConditionalStateTable, part: Bipartition, basis_a: MeasurementBasis
) -> np.ndarray:
    """E_t[p(o_A, x_B, t)] of shape (D_A, D_B), read off the conditional-state table.

    p_avg(o, x) = sum_E p_E |<o, x|E>|^2 = p_d(x) <o|rho_bar(x)|o>: the
    dephased state's diagonal in the product basis is each outcome's weight
    times the A-basis diagonal of its conditional state. Outcomes the table
    dropped give zero columns.
    """
    _require_sites(basis_a, part.sites_A)
    u = basis_matrix(basis_a)
    diag = np.einsum("ao,xab,bo->ox", u.conj(), table.states, u).real
    out = np.zeros((table.d_a, table.outcomes.size + table.dropped_outcomes))
    out[:, table.outcomes] = diag * table.probabilities
    return out


def interaction_information(
    state: PureState,
    table: ConditionalStateTable,
    part: Bipartition,
    bases_a: Sequence[MeasurementBasis],
) -> list[dict[str, float]]:
    """I(O_A;X_B;T), its parts and its subentropy values, in bits: one row per A basis.

    state is the quenched state at the fixed time; table is
    `scrooge.conditional_states` of the same quench and bipartition, and
    gives the time-averaged part and the B basis of both (`table.basis`).
    Each row holds "interaction_bits", the fixed-time mutual information
    I(O_A;X_B) ("fixed_time_bits") minus that of the time-averaged joint
    distribution ("time_averaged_bits"); the
    weighted-subentropy prediction sum_x p_d(x) Q(rho_bar(x))
    ("weighted_subentropy_bits"); and its concavity bound Q(rho_A)
    ("subentropy_bound_bits"). The two subentropy values depend on the table
    alone, so they are evaluated once for all bases. Raises ValueError when
    the table records no basis.
    """
    if table.basis is None:
        raise ValueError("the conditional-state table records no basis")
    weighted_q = float(
        np.sum(table.probabilities * np.array([subentropy(s) for s in table.states]))
    )
    bound_q = subentropy(table.mixture())
    rows = []
    for basis_a in bases_a:
        i_fixed = mutual_information_of_joint(joint_outcome_distribution(state, part, basis_a, table.basis))
        i_avg = mutual_information_of_joint(time_averaged_joint_distribution(table, part, basis_a))
        rows.append({
            "interaction_bits": i_fixed - i_avg,
            "weighted_subentropy_bits": weighted_q,
            "fixed_time_bits": i_fixed,
            "time_averaged_bits": i_avg,
            "subentropy_bound_bits": bound_q,
        })
    return rows


def holevo_sandwich(rho_a) -> tuple[float, float]:
    """(subentropy, von Neumann entropy) of a reduced density matrix, in bits."""
    return subentropy(rho_a), von_neumann_entropy_bits(rho_a)
