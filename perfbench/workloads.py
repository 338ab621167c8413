"""Benchmark workloads: their inputs, the operations they time, and the checks on each result.

Every workload is a closed loop: one caller in one process makes one call
after another. An operation is one top-level call; it fails when it raises
or when its result misses its check. Checks use an independent oracle where
one exists (a Gram-matrix form of the Haar distance, a closed form, a power
law, a dense second method) and otherwise reference values recorded at the
commit that introduced the benchmark, compared with the absolute tolerance
ABS_TOL.

The mfim models pass hx, hy and j explicitly so that a change to the
package's defaults cannot move the reference values. Only rmt-conv draws
random inputs; the seed picks its GUE matrices. The other workloads are
deterministic, so their seeds change nothing.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import rmt
from qensembles import spectral as sp
from qensembles import stats as st
from qensembles._util import task_rng

MFIM = {"model": "mfim", "hx": 0.8090, "hy": 0.9045, "j": 1.0}
THETA = 0.0
T = 20.0
ABS_TOL = 1e-9
SLOPE_TOL = 0.1
ZERO_OUTCOME_CUTOFF = 1e-14

# Results of the default-size workloads at the commit that added the benchmark,
# keyed by (n, width, k) and by (n, width, basis letter).
PROJECTED_GEN_REFS = {
    (10, 2, 2): {
        "dist_scrooge": 0.0758048035303326,
        "dist_haar": 0.1343795152324888,
        "dist_generalized": 0.11484422072667139,
    },
    (10, 2, 3): {
        "dist_scrooge": 0.13154301515456507,
        "dist_haar": 0.1723869824762937,
        "dist_generalized": 0.15319568088973926,
    },
    (10, 3, 2): {
        "dist_scrooge": 0.19341437072611417,
        "dist_haar": 0.25431894603894256,
        "dist_generalized": 0.2424653470745615,
    },
}
INFO_SCAN_REFS = {
    (11, 3, "X"): {
        "interaction_bits": 0.5470113011359761,
        "weighted_subentropy_bits": 0.5169264463145193,
        "fixed_time_bits": 0.5602813331336716,
        "time_averaged_bits": 0.013270031997695497,
        "subentropy_bound_bits": 0.5213250177455374,
    },
    (11, 3, "Y"): {
        "interaction_bits": 0.5053637432850664,
        "weighted_subentropy_bits": 0.5169264463145193,
        "fixed_time_bits": 0.5157807753239823,
        "time_averaged_bits": 0.010417032038915863,
        "subentropy_bound_bits": 0.5213250177455374,
    },
    (11, 3, "Z"): {
        "interaction_bits": 0.4993734161205996,
        "weighted_subentropy_bits": 0.5169264463145193,
        "fixed_time_bits": 0.5067681369910169,
        "time_averaged_bits": 0.0073947208704172596,
        "subentropy_bound_bits": 0.5213250177455374,
    },
}


class Operation(NamedTuple):
    """One timed call and the check of its result (a list of failure messages)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _near(errors: list, label: str, value: float, expected: float, tol: float = ABS_TOL) -> None:
    if not abs(value - expected) <= tol:
        errors.append(f"{label} = {value!r}, expected {expected!r} within {tol:g}")


def _central_table(state: hb.PureState, n: int, width: int) -> np.ndarray:
    """(d_A, d_B) amplitudes of the central `width` sites against the rest.

    Columns are the unnormalized projected states for Z-basis outcomes on B.
    Built with plain reshapes: site s is bit s of the basis index, which is
    axis n-1-s of the amplitudes reshaped to (2,)*n.
    """
    start = (n - width) // 2
    axes_a = [n - 1 - s for s in range(start, start + width)]
    axes_b = [a for a in range(n) if a not in axes_a]
    psi = state.amplitudes.reshape((2,) * n).transpose(axes_a + axes_b)
    return psi.reshape(2**width, 2 ** (n - width))


def haar_distance_oracle(table: np.ndarray, k: int) -> float:
    """Trace distance of the projected k-th moment of `table` to the Haar moment.

    The projected moment P = sum_z p_z |phi_z><phi_z|^(x)k lives on the
    symmetric subspace, where the Haar moment is I/D with D = C(d+k-1, k).
    Its spectrum there is the spectrum of the small Gram matrix
    G_zw = sqrt(p_z p_w) <phi_z|phi_w>^k, padded with zeros to D values.
    """
    p = np.sum(np.abs(table) ** 2, axis=0)
    keep = p >= ZERO_OUTCOME_CUTOFF
    cols = table[:, keep] / np.sqrt(p[keep])
    gram = np.sqrt(np.outer(p[keep], p[keep])) * (cols.conj().T @ cols) ** k
    lam = np.linalg.eigvalsh(gram)[::-1]
    dim = math.comb(table.shape[0] + k - 1, k)
    lam = np.concatenate([lam[:dim], np.zeros(max(dim - lam.size, 0))])
    return 0.5 * float(np.abs(lam - 1.0 / dim).sum())


# ---------------------------------------------------------------------------
# projected-gen: projected moments against Scrooge, generalized Scrooge and Haar
# ---------------------------------------------------------------------------


def projected_gen(
    seed: int, n: int = 10, cases=((2, 2), (2, 3), (3, 2)), refs=PROJECTED_GEN_REFS
) -> list:
    model = dict(MFIM, n=n)
    cache = pl.SpectrumCache()

    def op(width, k):
        def run():
            return pl.projected_moment_comparison(
                cache, model, THETA, T, width, "Z", k, include_generalized=True
            )

        def check(out):
            errors = []
            vals = {
                "dist_scrooge": out.dist_scrooge,
                "dist_haar": out.dist_haar,
                "dist_generalized": out.dist_generalized,
            }
            for key, v in vals.items():
                if v is None or not 0.0 <= v <= 1.0:
                    errors.append(f"{key} = {v!r} is not a distance in [0, 1]")
            state = pl.quench_state(cache, model, THETA, T)
            oracle = haar_distance_oracle(_central_table(state, n, width), k)
            _near(errors, "dist_haar vs Gram oracle", out.dist_haar, oracle)
            for key, expected in refs.get((n, width, k), {}).items():
                if vals[key] is not None:
                    _near(errors, f"{key} vs reference", vals[key], expected)
            return errors

        return Operation(f"width={width},k={k}", run, check)

    return [op(width, k) for width, k in cases]


# ---------------------------------------------------------------------------
# info-scan: interaction information against the weighted subentropy
# ---------------------------------------------------------------------------


def info_scan(seed: int, n: int = 11, width: int = 3, refs=INFO_SCAN_REFS) -> list:
    model = dict(MFIM, n=n)
    cache = pl.SpectrumCache()

    def run():
        return pl.interaction_information_scan(
            cache, model, THETA, T, width, ("X", "Y", "Z"), basis_b_letter="X"
        )

    def check(rows):
        errors = []
        for row in rows:
            letter = row["basis"]
            if not all(math.isfinite(v) for k, v in row.items() if k != "basis"):
                errors.append(f"{letter}: non-finite value in {row}")
            if row["weighted_subentropy_bits"] > row["subentropy_bound_bits"] + ABS_TOL:
                errors.append(
                    f"{letter}: weighted subentropy {row['weighted_subentropy_bits']!r} exceeds "
                    f"its bound {row['subentropy_bound_bits']!r}"
                )
            for key, expected in refs.get((n, width, letter), {}).items():
                _near(errors, f"{letter}.{key} vs reference", row[key], expected)
        return errors

    return [Operation(f"n={n},width={width}", run, check)]


# ---------------------------------------------------------------------------
# kdesign: Haar distance of a projected third moment
# ---------------------------------------------------------------------------


def kdesign(seed: int, n: int = 10, width: int = 4, k: int = 3) -> list:
    model = dict(MFIM, n=n)
    cache = pl.SpectrumCache()
    part = hb.Bipartition(n, hb.central_sites(n, width))
    basis = hb.pauli_basis(part.sites_B, "Z")

    def run():
        state = pl.quench_state(cache, model, THETA, T)
        ens = en.projected_ensemble(state, part, basis)
        return st.trace_distance(en.moment_k(ens, k), en.haar_moment(part.d_a, k))

    def check(dist):
        # d_B generic projected states span a d_B-dimensional part of the
        # C(d_A+k-1, k)-dimensional symmetric subspace; with every nonzero
        # eigenvalue above 1/C the distance is 1 - d_B / C.
        errors = []
        _near(errors, "distance vs closed form", dist, closed_form_haar_distance(part.d_a, part.d_b, k))
        return errors

    return [Operation(f"n={n},|A|={width},k={k}", run, check)]


def closed_form_haar_distance(d_a: int, d_b: int, k: int) -> float:
    return 1.0 - d_b / math.comb(d_a + k - 1, k)


# ---------------------------------------------------------------------------
# rmt-conv: finite-interval to infinite-interval convergence of GUE moments
# ---------------------------------------------------------------------------


def _late_slope(taus: np.ndarray, values: np.ndarray, points: int = 10) -> float:
    x, y = np.log(taus[-points:]), np.log(values[-points:])
    return float(np.polyfit(x, y, 1)[0])


def _dense_distances(d: int, k: int, taus, samples: int, seed: int) -> np.ndarray:
    """Ensemble-mean Frobenius distances from the dense finite- and infinite-interval moments."""
    out = np.zeros(len(taus))
    psi0 = np.zeros(d, dtype=complex)
    psi0[0] = 1.0
    for i in range(samples):
        h = rmt.sample_gue(d, task_rng(seed, i))
        bound = sp.bind_state(sp.diagonalize(h), hb.PureState(psi0, h.dims))
        limit = en.random_phase_moment_exact(bound.populations, k).matrix
        for j, tau in enumerate(taus):
            finite = en.finite_time_temporal_moment(bound, k, tau).matrix
            out[j] += np.linalg.norm(finite - limit) / samples
    return out


def rmt_conv(seed: int, cases=((1024, 1), (48, 2)), samples: int = 2) -> list:
    def op(d, k):
        def run():
            return rmt.convergence_experiment(d, k, n_samples=samples, seed=seed)

        def check(curve):
            errors = []
            f = curve.frobenius
            if not (np.all(np.isfinite(f)) and np.all(f >= 0) and f[-1] < f[0]):
                errors.append(f"distances are not finite, nonnegative and decreasing: {f}")
            if k == 1:
                slope = _late_slope(curve.tau_grid, f)
                _near(errors, "late-time slope", slope, -1.0, SLOPE_TOL)
            else:
                idx = [len(f) // 2, len(f) - 1]
                dense = _dense_distances(d, k, curve.tau_grid[idx], samples, seed)
                for i, ref in zip(idx, dense):
                    _near(errors, f"distance at tau[{i}] vs dense", f[i], ref)
            return errors

        return Operation(f"d={d},k={k}", run, check)

    return [op(d, k) for d, k in cases]


WORKLOADS = {
    "projected-gen": projected_gen,
    "info-scan": info_scan,
    "kdesign": kdesign,
    "rmt-conv": rmt_conv,
}

# Sizes small enough for the benchmark's own smoke test (n <= 6, d <= 16).
SMALL = {
    "projected-gen": {"n": 6, "cases": ((2, 2), (2, 3))},
    "info-scan": {"n": 6, "width": 2},
    "kdesign": {"n": 6, "width": 3},
    "rmt-conv": {"cases": ((16, 1), (8, 2))},
}
