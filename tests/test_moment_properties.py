"""Every moment builder against its dense oracle, on random inputs with d <= 4 and k <= 3."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from qensembles import ensembles as en
from qensembles import hilbert as hb
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles._util import DEFAULT_CAPS

import moment_oracles as mo

dims = st_h.integers(1, 4)
orders = st_h.integers(1, 3)
seeds = st_h.integers(0, 2**16)
SETTINGS = settings(max_examples=25, deadline=None)


def random_density(d, rng):
    rank = int(rng.integers(1, d + 1))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def multiset_occupations(r, k):
    sets = list(combinations_with_replacement(range(r), k))
    return sets, np.array([np.bincount(ms, minlength=r) for ms in sets], dtype=float)


def scrooge_oracle(rho, k):
    lam, vectors = mo.support_spectrum(rho)
    if k == 1:
        return rho
    sets, occ = multiset_occupations(lam.size, k)
    coeffs = sc._gaussian_quadrature(lam, occ, sc._log_grid(lam))
    return mo.eigenbasis_scatter(vectors, dict(zip(sets, coeffs)), k)


@SETTINGS
@given(d=dims, k=orders, n=st_h.integers(1, 9), seed=seeds)
def test_moment_k(d, k, n, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    cols /= np.linalg.norm(cols, axis=0)
    w = rng.random(n) + 0.1
    w /= w.sum()
    ens = en.WeightedEnsemble(cols, w)
    mo.assert_lift_matches(en.moment_k(ens, k), mo.tensor_power_gram(cols, w, k))


@pytest.mark.parametrize("real", [False, True])
def test_moment_from_columns_across_panels(real):
    # more members than one panel holds, so the last panel is partial
    d, k, n = 3, 3, 2 * en.PANEL_WIDTH + 5
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((d, n)) + (0 if real else 1j * rng.standard_normal((d, n)))
    w = rng.random(n)
    matrix = en._moment_from_columns(cols, w, k, DEFAULT_CAPS)
    mo.assert_lift_matches(en.MomentOperator(k, d, matrix), mo.tensor_power_gram(cols, w, k))
    # same products in the same order as one Kronecker power per member
    assert np.array_equal(matrix, mo.moment_from_columns_per_member(cols, w, k, en.PANEL_WIDTH))


@SETTINGS
@given(d=dims, k=orders)
def test_haar_moment(d, k):
    oracle = mo.symmetrizer_sum(d, k) / math.prod(d + i for i in range(k))
    mo.assert_lift_matches(en.haar_moment(d, k), oracle)


@SETTINGS
@given(d=dims, k=orders, seed=seeds)
def test_random_phase_moment_exact(d, k, seed):
    p = np.random.default_rng(seed).random(d)
    p /= p.sum()
    sets, _ = multiset_occupations(d, k)
    values = {ms: np.prod(p[list(ms)]) for ms in sets}
    oracle = mo.eigenbasis_scatter(np.eye(d), values, k)
    mo.assert_lift_matches(en.random_phase_moment_exact(p, k), oracle)


@SETTINGS
@given(d=dims, k=orders, seed=seeds)
def test_product_form_moment(d, k, seed):
    rho = random_density(d, np.random.default_rng(seed))
    oracle = mo.kron_power(rho, k) @ mo.symmetrizer_sum(d, k)
    mo.assert_lift_matches(en.product_form_moment(rho, k).moment, oracle)


@SETTINGS
@given(d=dims, k=orders, seed=seeds)
def test_scrooge_moment(d, k, seed):
    rho = random_density(d, np.random.default_rng(seed))
    mo.assert_lift_matches(sc.scrooge_moment(rho, k), scrooge_oracle(rho, k))


@SETTINGS
@given(d=dims, k=orders, seed=seeds, tau=st_h.sampled_from([0.0, 0.3, 2.0, 50.0]))
def test_finite_time_temporal_moment(d, k, seed, tau):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    sd = sp.diagonalize(hb.HermitianOperator((g + g.conj().T) / 2, (d,)))
    bound = sp.bind_state(sd, hb.PureState(psi / np.linalg.norm(psi), (d,)))
    oracle = mo.finite_time_dense(bound.eigenvalues, bound.overlaps, k, tau)
    mo.assert_lift_matches(en.finite_time_temporal_moment(bound, k, tau), oracle)


@SETTINGS
@given(d=dims, k=orders, outcomes=st_h.sampled_from([1, 2, 4, 70]), seed=seeds)
def test_generalized_scrooge_moment(d, k, outcomes, seed):
    rng = np.random.default_rng(seed)
    states = np.stack([random_density(d, rng) for _ in range(outcomes)])
    p = rng.random(outcomes) + 0.1
    p /= p.sum()
    table = sc.ConditionalStateTable(np.arange(outcomes), p, states)
    oracle = sum(pi * scrooge_oracle(s, k) for pi, s in zip(p, states))
    mo.assert_lift_matches(sc.generalized_scrooge_moment(table, k), oracle)
