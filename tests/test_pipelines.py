import math

import numpy as np
import pytest
import scipy.linalg

from qensembles import CapacityError, Caps
from qensembles import hilbert as hb
from qensembles import pipelines as pl
from qensembles import scrooge as sc
from qensembles import spectral as sp
from qensembles import stats as st

import moment_oracles as mo


class TestSpectrumCache:
    def test_models_with_different_matrices_get_their_own_entries(self):
        cache = pl.SpectrumCache()
        models = [{"model": "mfim", "n": 2, "hx": hx} for hx in (0.3, 0.9)] + [{"model": "xxz", "n": 2}]
        spectra = [cache.spectrum(model) for model in models]
        assert len({id(sd) for sd in spectra}) == len(models)
        for model, sd in zip(models, spectra):
            levels = np.linalg.eigvalsh(hb.build_hamiltonian(model).entries)
            assert np.abs(sd.eigenvalues - levels).max() <= 1e-12

    def test_equal_matrices_share_one_entry_until_released(self):
        cache = pl.SpectrumCache()
        first = cache.spectrum(MFIM6)
        # the same chain with its default parameters left out
        assert cache.spectrum({"model": "mfim", "n": 6}) is first
        # entries are released with their cache: another cache builds its own
        assert pl.SpectrumCache().spectrum(MFIM6) is not first

    def test_specs_of_one_term_table_share_every_entry(self):
        cache = pl.SpectrumCache()
        tfim = {"model": "tfim", "n": 5}
        sd = cache.spectrum(tfim)
        assert cache.spectrum({"model": "mfim", "n": 5, "hx": 0.0}) is sd
        assert cache.spectrum({"model": "mfim", "n": 5, "hx": 0.1}) is not sd
        state = pl.quench_state(cache, tfim, 0.3, 2.5)
        assert pl.quench_state(cache, {"model": "mfim", "n": 5, "hx": 0}, 0.3, 2.5) is state

    def test_chain_spectra_come_from_model_spectrum(self, monkeypatch):
        calls, model_spectrum = [], sp.model_spectrum

        def spy(model, caps):
            calls.append(model)
            return model_spectrum(model, caps)

        monkeypatch.setattr(sp, "model_spectrum", spy)
        cache = pl.SpectrumCache()
        sd = cache.spectrum(MFIM6)
        assert cache.spectrum(dict(MFIM6)) is sd
        assert calls == [MFIM6]
        ref = sp.diagonalize(hb.build_hamiltonian(MFIM6))
        assert np.array_equal(sd.eigenvectors, ref.eigenvectors)

    def test_tables_at_one_angle_share_one_spectrum_and_one_binding(self, monkeypatch):
        built, bound = [], []
        model_spectrum, bind_state = sp.model_spectrum, sp.bind_state
        monkeypatch.setattr(sp, "model_spectrum", lambda *a: built.append(model_spectrum(*a)) or built[-1])
        monkeypatch.setattr(sp, "bind_state", lambda *a: bound.append(bind_state(*a)) or bound[-1])
        cache = pl.SpectrumCache()
        for letter in ("Z", "X"):
            cache.conditional_states(MFIM6, 0.3, *central(6, 2, letter))
        assert len(built) == len(bound) == 1
        assert cache.bound(MFIM6, 0.3) is bound[0]
        assert cache.spectrum(MFIM6) is built[0]
        assert len(built) == len(bound) == 1

    def test_bound_spectrum_is_cached_per_angle_until_released(self):
        cache = pl.SpectrumCache()
        first = cache.bound(MFIM6, 0.3)
        assert cache.bound(dict(MFIM6), 0.3) is first
        other = cache.bound(MFIM6, 0.4)
        assert other is not first
        assert other.eigenvectors is first.eigenvectors  # one spectrum, two bindings
        # entries are released with their cache: another cache binds anew, to the same overlaps
        rebound = pl.SpectrumCache().bound(MFIM6, 0.3)
        assert rebound is not first
        assert np.array_equal(rebound.overlaps, first.overlaps)

    def test_a_hit_reads_the_term_table_once(self, monkeypatch):
        # the key is the repr of the term table, which is rebuilt on every read
        cache = pl.SpectrumCache()
        part, basis = central(6, 2, "Z")
        calls = [
            lambda: cache.spectrum(MFIM6),
            lambda: cache.bound(MFIM6, 0.3),
            lambda: cache.conditional_states(MFIM6, 0.3, part, basis),
            lambda: pl.quench_state(cache, MFIM6, 0.3, 2.5),
        ]
        for call in calls:
            call()
        reads, model_terms = [], hb.model_terms
        monkeypatch.setattr(hb, "model_terms", lambda model: reads.append(model) or model_terms(model))
        for call in calls:
            reads.clear()
            call()
            assert reads == [MFIM6]


MFIM6 = {"model": "mfim", "n": 6, "hx": 0.8090, "hy": 0.9045, "j": 1.0}


def central(n, width, letter):
    part = hb.Bipartition(n, hb.central_sites(n, width))
    return part, hb.pauli_basis(part.sites_B, letter)


@pytest.fixture()
def table_builds(monkeypatch):
    """Arguments of every `scrooge.conditional_states` call, in order."""
    calls, build = [], sc.conditional_states

    def spy(sd, part, basis):
        calls.append((part, basis))
        return build(sd, part, basis)

    monkeypatch.setattr(sc, "conditional_states", spy)
    return calls


class TestConditionalStateCache:
    def test_repeated_call_is_a_hit(self, table_builds):
        cache = pl.SpectrumCache()
        part, basis = central(6, 2, "Z")
        first = cache.conditional_states(MFIM6, 0.3, part, basis)
        again = cache.conditional_states(dict(MFIM6), 0.3, *central(6, 2, "Z"))
        assert again is first
        assert len(table_builds) == 1
        direct = sc.conditional_states(cache.bound(MFIM6, 0.3), part, basis)
        assert np.array_equal(first.states, direct.states)
        assert np.array_equal(first.probabilities, direct.probabilities)

    def test_every_input_is_part_of_the_key(self, table_builds):
        cache = pl.SpectrumCache()
        other_model = dict(MFIM6, hx=0.5)
        part, basis = central(6, 2, "Z")
        u = scipy.linalg.qr(np.arange(256.0).reshape(16, 16) + np.eye(16))[0]
        explicit_b = [hb.explicit_basis(part.sites_B, m) for m in (u, u[:, ::-1])]
        inputs = [
            (MFIM6, 0.3, part, basis),
            (MFIM6, 0.4, part, basis),  # theta
            (MFIM6, 0.3, *central(6, 3, "Z")),  # width
            (MFIM6, 0.3, *central(6, 2, "X")),  # basis letter
            (MFIM6, 0.3, part, hb.pauli_basis(part.sites_B, "ZZXZ")),  # one factor
            (MFIM6, 0.3, part, explicit_b[0]),  # explicit factor bytes
            (MFIM6, 0.3, part, explicit_b[1]),
            (other_model, 0.3, part, basis),  # model
        ]
        tables = [cache.conditional_states(*args) for args in inputs]
        assert len(table_builds) == len(inputs)
        assert len({id(t) for t in tables}) == len(inputs)
        for (model, theta, part_i, basis_i), table in zip(inputs, tables):
            direct = sc.conditional_states(cache.bound(model, theta), part_i, basis_i)
            assert np.array_equal(table.states, direct.states)
        assert cache.conditional_states(*inputs[3]) is tables[3]

    def test_pipelines_share_one_table(self, table_builds, monkeypatch):
        averaged_from, average = [], st.time_averaged_joint_distribution
        bindings, bind = [], sp.bind_state

        def spy(table, part, basis_a):
            averaged_from.append(table)
            return average(table, part, basis_a)

        def bind_spy(sd, psi0):
            bindings.append(psi0)
            return bind(sd, psi0)

        monkeypatch.setattr(st, "time_averaged_joint_distribution", spy)
        monkeypatch.setattr(sp, "bind_state", bind_spy)
        cache = pl.SpectrumCache()
        for k in (2, 3):
            pl.projected_moment_comparison(
                cache, MFIM6, 0.0, 3.0, 2, "Z", k, include_generalized=True
            )
        assert len(table_builds) == 1
        pl.interaction_information_scan(cache, MFIM6, 0.0, 3.0, 2, ("Z",), basis_b_letter="Z")
        pl.interaction_information_scan(cache, MFIM6, 0.0, 5.0, 2, ("X",), basis_b_letter="Z")
        pl.rescaled_joint_probability_ks(cache, MFIM6, 0.0, 3.0, 2, basis_letter="Z")
        assert len(table_builds) == 1
        # every time average read the cached table
        table = cache.conditional_states(MFIM6, 0.0, *central(6, 2, "Z"))
        assert len(averaged_from) == 3
        assert all(t is table for t in averaged_from)
        # only the table build binds the spectrum: both scans' states are propagated
        assert len(bindings) == 1


@pytest.fixture()
def no_diagonalize(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the dense eigensolver was called")

    monkeypatch.setattr(sp, "_eigh", fail)


@pytest.fixture()
def no_evolve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a state was read off a spectrum")

    monkeypatch.setattr(sp, "evolve_grid", fail)


@pytest.fixture()
def propagations(monkeypatch):
    """Times of every `spectral.propagate` call, in order; `.sizes` holds the
    length of each propagated vector."""

    class Calls(list):
        sizes: list

    calls, propagate = Calls(), sp.propagate
    calls.sizes = []

    def spy(h, interval, psi0, t):
        calls.append(t)
        calls.sizes.append(psi0.size)
        return propagate(h, interval, psi0, t)

    monkeypatch.setattr(sp, "propagate", spy)
    return calls


class TestQuenchStateCache:
    def test_repeated_call_is_a_hit_with_read_only_amplitudes(self, propagations):
        cache = pl.SpectrumCache()
        first = pl.quench_state(cache, MFIM6, 0.3, 2.5)
        assert pl.quench_state(cache, dict(MFIM6), 0.3, 2.5) is first
        assert propagations == [2.5]
        assert not first.amplitudes.flags.writeable
        expected = sp.evolve_grid(cache.bound(MFIM6, 0.3), [2.5])[:, 0]
        assert np.abs(first.amplitudes - expected).max() <= 1e-12

    def test_theta_time_and_model_get_their_own_entries(self, propagations):
        cache = pl.SpectrumCache()
        inputs = [(MFIM6, 0.3, 2.5), (MFIM6, 0.4, 2.5), (MFIM6, 0.3, 3.5), (dict(MFIM6, hx=0.5), 0.3, 2.5)]
        states = [pl.quench_state(cache, *args) for args in inputs]
        assert len(propagations) == len(inputs)
        assert len({id(s) for s in states}) == len(inputs)
        assert pl.quench_state(cache, *inputs[2]) is states[2]
        assert len(propagations) == len(inputs)

    def test_chains_propagate_in_the_reflection_even_sector(self, propagations, monkeypatch):
        built, flip_rows = [], hb._flip_rows  # the number of rows of each row-table build

        def spy(n, terms, letters, rows, *rest):
            built.append(rows.size)
            return flip_rows(n, terms, letters, rows, *rest)

        monkeypatch.setattr(hb, "_flip_rows", spy)
        cache = pl.SpectrumCache()
        for name in ("mfim", "tfim", "xxz", "mfim_broken_trs"):
            for n in (1, 2, 5, 6):
                built.clear()
                pl.quench_state(cache, {"model": name, "n": n}, 0.3, 2.5)
                m = (2**n + 2 ** ((n + 1) // 2)) // 2
                assert propagations.sizes[-1] == m, (name, n)
                # the chain's m rows, then its windows' 2^w <= 8 each: never 2^n rows from n = 4 on
                assert built[0] == m and all(size <= 8 for size in built[1:]), (name, n)

    def test_large_chain_state_without_a_spectrum(self, no_diagonalize):
        cache = pl.SpectrumCache()
        state = pl.quench_state(cache, {"model": "mfim", "n": 10}, 0.0, 20.0)
        assert state.dims == (2,) * 10

    def test_non_finite_time_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pl.quench_state(pl.SpectrumCache(), MFIM6, 0.3, math.nan)

    @pytest.mark.parametrize("name", ["mfim", "tfim", "xxz", "mfim_broken_trs"])
    def test_matches_the_dense_exponential(self, name):
        cache = pl.SpectrumCache()
        for n in range(1, 9):
            model = {"model": name, "n": n}
            h = hb.build_hamiltonian(model).entries
            psi0 = hb.product_state(0.7, n).amplitudes
            for t in (1.7, 20.0):
                expected = scipy.linalg.expm(-1j * h * t) @ psi0
                out = pl.quench_state(cache, model, 0.7, t).amplitudes
                assert np.abs(out - expected).max() <= 1e-14, (n, t)


def gram_haar_distance(table, k):
    """Haar distance of the projected k-th moment from its Gram matrix alone.

    G_zw = sqrt(p_z p_w) <phi_z|phi_w>^k has the nonzero spectrum of the
    projected moment; on the symmetric subspace the Haar moment is I/D.
    """
    p = np.sum(np.abs(table) ** 2, axis=0)
    keep = p > 1e-14
    phi = table[:, keep] / np.sqrt(p[keep])
    gram = np.sqrt(np.outer(p[keep], p[keep])) * (phi.conj().T @ phi) ** k
    dim = math.comb(table.shape[0] + k - 1, k)
    lam = np.linalg.eigvalsh(gram)[::-1][:dim]
    lam = np.concatenate([lam, np.zeros(dim - lam.size)])
    return 0.5 * float(np.abs(lam - 1.0 / dim).sum())


def dense_trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def dense_haar_moment(d, k):
    """I/D on Sym^k(C^d) as a d^k x d^k operator: the symmetrizer over d (d+1) ... (d+k-1)."""
    return mo.symmetrizer_sum(d, k) / math.prod(d + i for i in range(k))


def dense_projected_moment(table, k):
    p = np.sum(np.abs(table) ** 2, axis=0)
    keep = p > 1e-14
    return mo.tensor_power_gram(table[:, keep] / np.sqrt(p[keep]), p[keep], k)


class TestProjectedMomentComparison:
    @pytest.mark.parametrize("k", [2, 3])
    def test_distances_match_gram_oracle_and_dense_lifts(self, k):
        cache = pl.SpectrumCache()
        theta, t, width = 0.0, 3.0, 2
        out = pl.projected_moment_comparison(
            cache, MFIM6, theta, t, width, "Z", k, include_generalized=True
        )
        part = hb.Bipartition(6, hb.central_sites(6, width))
        basis = hb.pauli_basis(part.sites_B, "Z")
        state = pl.quench_state(cache, MFIM6, theta, t)
        table = hb.projection_table(state, part, basis)
        assert abs(out.dist_haar - gram_haar_distance(table, k)) <= 1e-12
        proj = dense_projected_moment(table, k)
        # k = 3 has r = 16 outcomes on D = 20, where trace_distance takes the Gram
        # path; the dense lift checks it by a second method
        haar = dense_haar_moment(part.d_a, k)
        assert abs(out.dist_haar - dense_trace_distance(proj, haar)) <= 1e-12
        rho_a = hb.partial_trace(state, part).entries
        scr = mo.dense(sc.scrooge_moment(rho_a, k))
        assert abs(out.dist_scrooge - dense_trace_distance(proj, scr)) <= 1e-12
        cond = sc.conditional_states(cache.bound(MFIM6, theta), part, basis)
        gen = mo.dense(sc.generalized_scrooge_moment(cond, k))
        assert abs(out.dist_generalized - dense_trace_distance(proj, gen)) <= 1e-12

    @pytest.mark.parametrize("width", [-1, 0, 7])
    def test_width_outside_the_chain_is_rejected(self, width):
        cache = pl.SpectrumCache()
        with pytest.raises(ValueError, match="width must be between 1 and n = 6"):
            pl.projected_moment_comparison(cache, MFIM6, 0.0, 3.0, width, "Z", 2)
        with pytest.raises(ValueError, match="width must be between 1 and n = 6"):
            pl.interaction_information_scan(cache, MFIM6, 0.0, 3.0, width)

    def test_moments_are_built_under_the_cache_caps(self):
        # width 3, k = 3: the Scrooge moment has D^2 = C(10, 3)^2 = 14,400 entries
        cache = pl.SpectrumCache(Caps(max_moment_entries=10_000))
        with pytest.raises(CapacityError, match="max_moment_entries"):
            pl.projected_moment_comparison(cache, MFIM6, 0.0, 3.0, 3, "Z", 3)


class TestBasisInformationScan:
    def test_needs_no_spectrum(self, no_diagonalize):
        rows, _, _, _ = pl.basis_information_scan(pl.SpectrumCache(), MFIM6, 0.7, 3.0, 2)
        assert len(rows) == 3

    def test_energy_density_and_one_row_per_letter(self):
        letters = ("X", "Y", "Z")
        for model in (MFIM6, {"model": "xxz", "n": 6}, {"model": "mfim_broken_trs", "n": 6}):
            h = hb.build_hamiltonian(model)
            for theta in (0.7, 2.1):
                rows, q_bits, s_bits, density = pl.basis_information_scan(
                    pl.SpectrumCache(), model, theta, 3.0, 2, letters
                )
                energy, _ = mo.energy_moments(hb.product_state(theta, 6), h)
                assert density == pytest.approx(energy / 6, abs=1e-12), (model["model"], theta)
                assert [letter for letter, _ in rows] == list(letters)
                # Holevo: no basis on A learns more than S(rho_A) from the B outcomes
                assert all(0.0 <= bits <= s_bits + 1e-12 for _, bits in rows)
                assert q_bits <= s_bits


class TestInteractionInformationScan:
    def test_rows_match_direct_calls_in_letter_order(self):
        n, theta, t, letters = 6, 0.6, 12.0, ("Z", "X", "Y")
        cache = pl.SpectrumCache()
        rows = pl.interaction_information_scan(cache, MFIM6, theta, t, 2, letters)
        assert [row["basis"] for row in rows] == list(letters)
        bound = cache.bound(MFIM6, theta)
        state = pl.quench_state(cache, MFIM6, theta, t)
        part = hb.Bipartition(n, hb.central_sites(n, 2))
        basis_b = hb.pauli_basis(part.sites_B, "X")
        table = sc.conditional_states(bound, part, basis_b)  # built here, not read from the cache
        for row, letter in zip(rows, letters):
            direct, = st.interaction_information(state, table, part, [hb.pauli_basis(part.sites_A, letter)])
            assert row == {"basis": letter, **direct}
            assert list(row) == [
                "basis",
                "interaction_bits",
                "weighted_subentropy_bits",
                "fixed_time_bits",
                "time_averaged_bits",
                "subentropy_bound_bits",
            ]
            # concavity of the subentropy: the weighted value sits below Q(rho_A)
            assert row["weighted_subentropy_bits"] <= row["subentropy_bound_bits"] + 1e-9

    def test_state_is_propagated_not_read_off_the_spectrum(self, no_evolve, propagations):
        cache = pl.SpectrumCache()
        rows = pl.interaction_information_scan(cache, MFIM6, 0.6, 12.0, 2)
        assert [row["basis"] for row in rows] == ["X", "Y", "Z"]
        assert propagations == [12.0]

    def test_subentropies_are_evaluated_once_per_table(self, monkeypatch):
        cache = pl.SpectrumCache()
        pl.interaction_information_scan(cache, MFIM6, 0.6, 12.0, 2)  # fills the cache
        calls = []

        def spy(rho):
            calls.append(rho)
            return subentropy(rho)

        subentropy = st.subentropy
        monkeypatch.setattr(st, "subentropy", spy)
        rows = pl.interaction_information_scan(cache, MFIM6, 0.6, 12.0, 2, ("X", "Y", "Z"))
        table = cache.conditional_states(
            MFIM6, 0.6, hb.Bipartition(6, hb.central_sites(6, 2)), hb.pauli_basis((0, 1, 4, 5), "X")
        )
        # one Q per conditional state and one of their mixture, for all three letters
        assert len(calls) == len(table.states) + 1
        assert len({row["weighted_subentropy_bits"] for row in rows}) == 1


class TestRescaledJointProbabilityKS:
    def test_sample_matches_rebuilt_joint(self, monkeypatch):
        cache = pl.SpectrumCache()
        theta, t, width = 0.4, 7.0, 2
        time_averaged, pt_test = st.time_averaged_joint_distribution, st.pt_test
        averaged, tested = [], []

        def spy_average(*args):
            averaged.append(time_averaged(*args))
            return averaged[-1]

        def spy_pt(values, *args, **kwargs):
            tested.append(np.asarray(values))
            return pt_test(values, *args, **kwargs)

        monkeypatch.setattr(st, "time_averaged_joint_distribution", spy_average)
        monkeypatch.setattr(st, "pt_test", spy_pt)
        out = pl.rescaled_joint_probability_ks(cache, MFIM6, theta, t, width)
        assert len(averaged) == 1
        assert tested[0].mean() == pytest.approx(1.0, abs=1e-12)
        assert out["sample_count"] == int(np.sum(averaged[0] > 1e-14))
        part = hb.Bipartition(6, hb.central_sites(6, width))
        state = pl.quench_state(cache, MFIM6, theta, t)
        joint = st.joint_outcome_distribution(
            state, part, hb.pauli_basis(part.sites_A, "X"), hb.pauli_basis(part.sites_B, "X")
        )
        assert out["ks_raw"] == pytest.approx(
            pt_test((joint * joint.size).ravel()).ks_statistic, abs=1e-12
        )
