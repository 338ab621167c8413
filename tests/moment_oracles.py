"""Dense d^k x d^k constructions of every k-copy moment, for small d only.

These build each moment on the full tensor-power space the direct way:
copy permutations by transposing a (d,)*2k tensor, empirical moments as sums
of tensor-power outer products, and multiset moments by scattering one value
over every pair of orderings in an eigenbasis. They share no code with the
symmetric-subspace builders they check; `dense` lifts a stored moment onto
the same space for comparison with them.

The reference forms at the end are second methods of another kind: earlier,
slower ways to the same numbers (one Scrooge moment per outcome, a contraction
with every local block, the complex-arithmetic GUE draw, the eigenvalues
of a tridiagonal matrix in mpmath arithmetic, the dense chain
Hamiltonian builder, projected states and their phases one outcome at a time,
subentropy by splitting degenerate eigenvalues, Chebyshev propagation with a
complex matrix and a symmetric norm bound), kept to check the faster paths
that replaced them; the exact infinite-time twirls in the energy basis, of one
copy per eigenvector or per eigenspace and of two copies; and the resonance
scan over a tuple array, which tells when the two-copy twirl applies.

The helpers at the very end have no caller in the package: the Scrooge
sampler for Monte Carlo checks, the energy moments of a state, the moment
invariants, the k = 2 product-form distance, one projected outcome at a time
and the Gram defect of a basis.
"""

import math
from itertools import combinations_with_replacement, permutations

import numpy as np


def kron_power(a, k):
    out = np.ones((1,) * np.ndim(a))
    for _ in range(k):
        out = np.kron(out, a)
    return out


def permute_copies(op, d, k, sigma):
    """P_sigma op P_sigma^dagger: the copies of a d^k x d^k operator relabelled by sigma."""
    axes = list(sigma) + [k + s for s in sigma]
    return op.reshape((d,) * (2 * k)).transpose(axes).reshape(d**k, d**k)


def symmetrizer_sum(d, k):
    """Sum of the k! copy-permutation operators."""
    eye = np.eye(d**k).reshape((d,) * (2 * k))
    return sum(
        eye.transpose(list(sigma) + list(range(k, 2 * k))).reshape(d**k, d**k)
        for sigma in permutations(range(k))
    )


def tensor_power_gram(columns, weights, k):
    """sum_j w_j |c_j><c_j|^(x)k from explicit Kronecker powers."""
    d = columns.shape[0]
    out = np.zeros((d**k, d**k), dtype=complex)
    for w, col in zip(weights, columns.T):
        ck = kron_power(col, k)
        out += w * np.outer(ck, ck.conj())
    return out


def orderings(ms):
    return sorted(set(permutations(ms)))


def flat(idx, d):
    """Tensor-power index of a tuple of copy digits, or of each row of an array
    of them, copy 0 most significant."""
    idx = np.asarray(idx)
    return idx @ d ** np.arange(idx.shape[-1] - 1, -1, -1)


def dense(m):
    """The d^k x d^k operator V M V^dagger of a moment M on the full k-copy space.

    Column n of the isometry V is N_n^(-1/2) sum_t |t> over the N_n orderings
    t of the occupation-basis multiset n (`ensembles._occupation_basis`).
    """
    from qensembles import ensembles as en

    d, k = m.space_dim, m.k
    idx, counts = en._occupation_basis(d, k)
    v = np.zeros((d**k, counts.size))
    for sigma in permutations(range(k)):
        v[flat(idx[:, list(sigma)], d), np.arange(counts.size)] = counts**-0.5
    return v @ m.matrix @ v.T


def eigenbasis_scatter(vectors, values, k):
    """W^(x)k M W^dagger(x)k, where M holds values[ms] at every pair of orderings of ms.

    `values` maps each sorted index tuple over the columns of W to its value.
    """
    r = vectors.shape[1]
    m = np.zeros((r**k, r**k), dtype=complex)
    for ms in combinations_with_replacement(range(r), k):
        rows = [flat(t, r) for t in orderings(ms)]
        for row in rows:
            m[row, rows] = values[ms]
    wk = kron_power(vectors, k)
    return wk @ m @ wk.conj().T


def finite_time_dense(eigenvalues, overlaps, k, tau):
    """prod_j c_{r_j} conj(c_{c_j}) sinc((sum E_r - sum E_c) tau / 2) on the k-fold energy basis."""
    w = kron_power(overlaps, k)
    s = np.zeros(1)
    for _ in range(k):
        s = (s[:, None] + eigenvalues[None, :]).ravel()
    return np.outer(w, w.conj()) * np.sinc((s[:, None] - s[None, :]) * tau / (2 * np.pi))


def frobenius_pair_sum(eigenvalues, populations, k, taus, dtype=float):
    """Frobenius distances of finite- to infinite-interval moments, pair by pair.

    2 sum_{n<n'} v_n v_n' sinc^2((s_n - s_n') tau / 2) over the strict upper
    triangle of the multisets in row blocks of about 8192 pairs, one np.sin
    per pair and tau, with v_n = N_n prod_m p_m^n_m and s_n = sum_m n_m E_m,
    all in `dtype` (np.longdouble for an oracle more precise than the kernel).
    """
    chunk = 8192
    idx = np.array(list(combinations_with_replacement(range(len(eigenvalues)), k)))
    counts = np.array([len(orderings(ms)) for ms in idx], dtype=dtype)
    dim = counts.size
    v = counts * np.prod(np.asarray(populations, dtype=dtype)[idx], axis=1)
    s = np.asarray(eigenvalues, dtype=dtype)[idx].sum(axis=1)
    halves = np.abs(np.asarray(taus, dtype=dtype)) / 2  # the kernel is even in tau
    sq = np.zeros(halves.size, dtype=dtype)
    tiny = np.finfo(dtype).tiny  # sin(tiny)/tiny == 1: the kernel's value at 0
    lo = 0
    while lo < dim - 1:
        hi = min(dim - 1, lo + max(1, chunk // (dim - 1 - lo)))
        upper = np.arange(lo + 1, dim) > np.arange(lo, hi)[:, None]
        gaps = np.abs(s[lo:hi, None] - s[None, lo + 1 :])[upper]
        weights = (v[lo:hi, None] * v[None, lo + 1 :])[upper]
        y, kern = np.empty_like(gaps), np.empty_like(gaps)
        for i, half in enumerate(halves):
            np.multiply(gaps, half, out=y)
            np.maximum(y, tiny, out=y)
            np.sin(y, out=kern)
            np.divide(kern, y, out=kern)
            np.square(kern, out=kern)
            sq[i] += kern @ weights
        lo = hi
    return np.sqrt(2 * sq)


def assert_lift_matches(moment, oracle, tol=1e-12):
    """The lift equals the oracle, is copy-permutation invariant, and has the
    trace and spectrum (padded with zeros) of the stored matrix."""
    d, k = moment.space_dim, moment.k
    full = dense(moment)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.abs(full - oracle).max() <= tol * scale
    for sigma in permutations(range(k)):
        assert np.abs(permute_copies(full, d, k, sigma) - full).max() <= tol * scale
    assert abs(np.trace(full).real - moment.trace) <= tol * scale
    stored = np.linalg.eigvalsh(moment.matrix)
    padded = np.sort(np.concatenate([stored, np.zeros(d**k - stored.size)]))
    assert np.abs(np.linalg.eigvalsh(full) - padded).max() <= tol * scale


def support_spectrum(rho):
    """Eigenvalues of rho above 1e-13 times the largest, descending, and their eigenvectors."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    w, v = w[::-1], v[:, ::-1]
    keep = w > 1e-13 * w[0]
    return w[keep], v[:, keep]


def scrooge_moment_per_outcome(rho, k):
    """Scrooge k-th moment on Sym^k from the support of rho alone (k >= 2).

    The quadrature runs on rho's own grid over its support eigenvalues, and
    S = Sym^k of the support eigenvectors only, so no mode is masked.
    """
    from qensembles import ensembles as en
    from qensembles import scrooge as sc

    lam, vectors = support_spectrum(rho)
    idx, counts = en._occupation_basis(lam.size, k)
    occ = (idx[:, :, None] == np.arange(lam.size)).sum(axis=1).astype(float)
    coeffs = sc._gaussian_quadrature(lam, occ, sc._log_grid(lam))
    s = en._symmetric_power(vectors, k)
    full = (s * (counts * coeffs)) @ s.conj().T
    return (full + full.conj().T) / 2


def generalized_scrooge_sum(table, k):
    """sum_x p(x) Scrooge_k[rho(x)] / sum_x p(x), one outcome at a time."""
    d = table.d_a
    total = np.zeros((math.comb(d + k - 1, k),) * 2, dtype=complex)
    for p, state in zip(table.probabilities, table.states):
        total += p * (state if k == 1 else scrooge_moment_per_outcome(state, k))
    return total / table.probabilities.sum()


def rotations_single_pass(m, unitaries, conjugate=False, skip_identity=False):
    """Contract every little-endian column block of m, all rows in one pass per block.

    With skip_identity=False identity blocks are contracted too; with True
    this is the unblocked form of `hilbert.apply_local_rotations`.
    """
    rows, d = m.shape
    out = np.ascontiguousarray(m)
    lo = 1
    for u in unitaries:
        b = u.shape[0]
        if not (skip_identity and np.array_equal(u, np.eye(b))):
            uj = np.conj(u) if conjugate else u
            t = out.reshape(rows, d // (lo * b), b, lo)
            out = np.einsum("rhbl,bz->rhzl", t, uj, optimize=True).reshape(rows, d)
        lo *= b
    return out.astype(np.result_type(m, *unitaries))


def sample_gue_complex(d, rng):
    """GUE draw in complex arithmetic: (g + g^dagger)/2, g = (a + i b)/sqrt(d)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(d)
    return (g + g.conj().T) / 2


def tridiagonal_levels_mp(diag, off, dps):
    """Ascending eigenvalues of a real tridiagonal T, as mpf.

    mpmath's dense `eigsy` at dps digits, on the entries of T taken exactly.
    """
    import mpmath

    d = len(diag)
    with mpmath.workdps(dps):
        t = mpmath.matrix(d, d)
        for i, x in enumerate(diag):
            t[i, i] = x
        for i, x in enumerate(off):
            t[i, i + 1] = t[i + 1, i] = x
        return sorted(mpmath.eigsy(t, eigvals_only=True))


def _pauli_string_reference(n, ops):
    d = 2**n
    cols = np.arange(d, dtype=np.int64)
    flip = 0
    for site, letter in ops.items():
        if letter in ("X", "Y"):
            flip |= 1 << site
    rows = cols ^ flip
    vals = np.ones(d, dtype=complex)
    for site, letter in ops.items():
        bit = (cols >> site) & 1
        if letter == "Y":
            vals = vals * np.where(bit == 0, 1j, -1j)
        elif letter == "Z":
            vals = vals * (1 - 2 * bit)
    return rows, cols, vals


def dense_hamiltonian_reference(model):
    """The dense chain Hamiltonian as built before the models became term tables.

    A frozen copy of the earlier builder: each model's Pauli strings are added
    into one dense matrix in a fixed loop order, so the result pins the exact
    floating-point sums of every entry.
    """
    spec = dict(model)
    name = spec.pop("model")
    n = int(spec.pop("n"))
    h = np.zeros((2**n, 2**n), dtype=complex)

    def add(coeff, ops):
        if coeff == 0.0:
            return
        rows, cols, vals = _pauli_string_reference(n, ops)
        h[rows, cols] += coeff * vals

    if name in ("mfim", "tfim", "mfim_broken_trs"):
        hx = 0.0 if name == "tfim" else float(spec.pop("hx", 0.8090))
        hy = float(spec.pop("hy", 0.9045))
        j = float(spec.pop("j", 1.0))
        hz = jp = 0.0
        if name == "mfim_broken_trs":
            hz = float(spec.pop("hz", 0.5))
            jp = float(spec.pop("jp", 0.4))
        for s in range(n):
            add(hx, {s: "X"})
            add(hy, {s: "Y"})
            add(hz, {s: "Z"})
        for s in range(n - 1):
            add(j, {s: "X", s + 1: "X"})
            add(jp, {s: "Y", s + 1: "Y"})
    elif name == "xxz":
        j = float(spec.pop("j", math.sqrt(2.0)))
        delta = float(spec.pop("delta", (math.sqrt(5.0) + 1.0) / 4.0))
        delta2 = float(spec.pop("delta2", 1.0))
        for s in range(n - 1):
            add(j / 4.0, {s: "X", s + 1: "X"})
            add(j / 4.0, {s: "Y", s + 1: "Y"})
            add(delta / 4.0, {s: "Z", s + 1: "Z"})
        for s in range(n - 2):
            add(delta2 / 4.0, {s: "Z", s + 2: "Z"})
    assert not spec, spec
    return h


def window_interval_reference(n, terms):
    """Anderson's interval of a chain as first built: a frozen copy of the
    earlier `hilbert._window_interval`, which added each term's share into
    its windows string by string, from `_pauli_string_reference`.

    The number of Chebyshev terms of a propagation follows from the
    interval, so this pins it bit for bit.
    """
    if not terms:
        return 0.0, 0.0
    w = max(max(ops) - min(ops) + 1 for _, ops in terms)
    windows = np.zeros((n - w + 1, 2**w, 2**w), dtype=complex)
    strings = {}
    for coeff, ops in terms:
        first, last = max(max(ops) - w + 1, 0), min(min(ops), n - w)
        share = coeff / (last - first + 1)
        for s in range(first, last + 1):
            local = tuple((site - s, letter) for site, letter in ops.items())
            if local not in strings:
                strings[local] = _pauli_string_reference(w, dict(local))
            rows, cols, vals = strings[local]
            windows[s, rows, cols] += share * vals
    levels = np.linalg.eigvalsh(windows)
    return float(levels[:, 0].sum()), float(levels[:, -1].sum())


def complex_chebyshev_propagate(model, psi0, t):
    """exp(-iHt) psi0 by the earlier propagation route: a complex CSR matrix in
    the computational basis and a symmetric bound a >= ||H||.

    The chain adds the COO entries of every term of `model_terms`; a is
    sum |coeff| over the multi-site terms plus, per site, the norm of its
    one-site field. The result is
    sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H/a) psi0 from the three-term
    recurrence in complex arithmetic.
    """
    import scipy.sparse

    from qensembles import hilbert as hb
    from qensembles import spectral as sp

    n, terms = hb.model_terms(model)
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, complex)]
    fields = np.zeros((n, 3))
    a = 0.0
    for coeff, ops in terms:
        r, c, v = _pauli_string_reference(n, ops)
        rows.append(r)
        cols.append(c)
        vals.append(coeff * v)
        if len(ops) == 1:
            ((site, letter),) = ops.items()
            fields[site, "XYZ".index(letter)] += coeff
        else:
            a += abs(coeff)
    a += float(np.sqrt((fields * fields).sum(axis=1)).sum())
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    h = scipy.sparse.csr_matrix(coo, shape=(2**n, 2**n))
    psi = np.asarray(psi0, dtype=complex)
    c = sp._chebyshev_coefficients(a * t)
    out = c[0] * psi
    if c.size == 1:
        return out
    h2 = h * (2.0 / a)
    prev, cur = psi, 0.5 * (h2 @ psi)
    out += c[1] * cur
    for ck in c[2:]:
        prev, cur = cur, h2 @ cur - prev
        out += ck * cur
    return out


def moment_from_columns_per_member(columns, weights, k, panel_width=64):
    """The symmetric-subspace moment with one Kronecker power per member, panel by panel."""
    from qensembles import ensembles as en

    d, n = columns.shape
    idx, counts = en._occupation_basis(d, k)
    rows = flat(idx, d)
    scale, sqrt_w = np.sqrt(counts), np.sqrt(weights)
    acc = np.zeros((rows.size, rows.size), dtype=complex)
    for start in range(0, n, panel_width):
        cols = range(start, min(start + panel_width, n))
        panel = np.empty((rows.size, len(cols)), dtype=complex)
        for out_col, j in enumerate(cols):
            panel[:, out_col] = (sqrt_w[j] * scale) * kron_power(columns[:, j], k)[rows]
        acc += panel @ panel.conj().T
    return (acc + acc.conj().T) / 2


def projected_ensemble_per_outcome(table, cutoff):
    """Columns, weights and dropped count of the projected ensemble, one outcome at a time."""
    probs = np.sum(np.abs(table) ** 2, axis=0)
    cols, weights = [], []
    for z in range(table.shape[1]):
        if probs[z] < cutoff:
            continue
        cols.append(table[:, z] / math.sqrt(probs[z]))
        weights.append(float(probs[z]))
    return np.stack(cols, axis=1), np.array(weights), table.shape[1] - len(weights)


def dephase(sd, a):
    """Energy-basis dephasing of a single-copy operator (infinite-time twirl, k = 1)."""
    at = sd.eigenvectors.conj().T @ a @ sd.eigenvectors
    return (sd.eigenvectors * np.diag(at).real) @ sd.eigenvectors.conj().T


def eigenspace_dephase(sd, a, rtol=1e-9):
    """sum_E P_E a P_E over the eigenspaces of an unbound spectrum: levels split
    where a gap exceeds rtol times the spectral width, and each P_E is built
    from the eigenvectors of its levels, whatever their basis."""
    ev, v = sd.eigenvalues, sd.eigenvectors
    edges = np.flatnonzero(np.r_[True, np.diff(ev) > rtol * (ev[-1] - ev[0]), True])
    out = np.zeros_like(a, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        p = v[:, lo:hi] @ v[:, lo:hi].conj().T
        out += p @ a @ p
    return out


def twirl2(sd, a):
    """Infinite-time average of U_t^(x)2 A U_t^(x)2-dagger, for a spectrum that
    satisfies the second no-resonance condition.

    Keep the two-copy energy-diagonal of A, add the swap-coupled diagonal
    times the swap, and subtract the doubly-diagonal block once (the first
    two pieces count it twice).
    """
    d = sd.dim
    d2 = d * d
    if a.shape != (d2, d2):
        raise ValueError("operator must act on two copies of the space")
    v2 = np.kron(sd.eigenvectors, sd.eigenvectors)
    at = v2.conj().T @ a @ v2
    idx = np.arange(d2)
    swap = (idx % d) * d + (idx // d)
    out = np.zeros_like(at)
    out[idx, idx] = at[idx, idx]
    out[idx, swap] += at[idx, swap]
    both = np.arange(d) * d + np.arange(d)  # (E,E) pairs
    out[both, both] -= at[both, both]
    return v2 @ out @ v2.conj().T


def resonance_tuple_scan(eigenvalues, k, tolerance=None):
    """(verdict, degenerate_clusters, violations) of the k-th no-resonance scan
    over a tuple array of every multiset.

    Sorted levels merge into runs while each gap is within the tolerance, a
    run counting at its lowest level; the multiset sums are sorted stably and
    each adjacent pair within the tolerance is a violation (the first 1000
    are listed).
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    width = float(ev[-1] - ev[0]) if ev.size > 1 else 1.0
    tol = 1e-8 * width if tolerance is None else float(tolerance)
    reps = ev[np.insert(np.diff(ev) > tol, 0, True)]
    n_deg = ev.size - reps.size
    tuples = np.array(list(combinations_with_replacement(range(reps.size), k)), dtype=np.int64)
    sums = reps[tuples].sum(axis=1)
    order = np.argsort(sums, kind="stable")
    sums, tuples = sums[order], tuples[order]
    gaps = np.diff(sums)
    hits = np.flatnonzero(gaps <= tol)
    violations = [(tuple(tuples[i]), tuple(tuples[i + 1]), float(gaps[i])) for i in hits[:1000]]
    if violations:
        verdict = "fail"
    else:
        verdict = "pass-modulo-degeneracies" if n_deg else "pass"
    return verdict, n_deg, violations


SPLIT_EPSILONS = (1e-4, 5e-5)  # relative to the mean eigenvalue; ratio 2 for Richardson


def subentropy_split_extrapolate(lam):
    """Subentropy in bits of a spectrum from the rational sum over distinct eigenvalues.

    Eigenvalues within 1e-9 of the mean of their neighbour merge into a
    cluster; each cluster is split symmetrically by eps = 1e-4 and 5e-5 of the
    mean eigenvalue, and the two sums are Richardson-extrapolated to eps = 0.
    Small ranks only: the rational sum cancels badly as the rank grows.
    """
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    mean = float(lam.mean())
    clusters = [[0]]
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] <= 1e-9 * mean:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if all(len(c) == 1 for c in clusters):
        return -_plain_sum_subentropy(lam) / math.log(2.0)
    vals = []
    for eps in SPLIT_EPSILONS:
        split = lam.copy()
        for c in clusters:
            if len(c) > 1:
                split[c] = lam[c].mean() + eps * mean * np.linspace(1.0, -1.0, len(c))
        vals.append(-_plain_sum_subentropy(split) / math.log(2.0))
    return vals[1] + (vals[1] - vals[0]) / 3.0


def _plain_sum_subentropy(lam):
    """Direct rational sum over distinct eigenvalues (natural log units)."""
    inv = 1.0 / lam
    total = 0.0
    for j in range(lam.size):
        a_j = 1.0
        for k in range(lam.size):
            if k != j:
                a_j /= inv[k] - inv[j]
        total += a_j * lam[j] ** 2 * math.log(lam[j])
    return float(np.prod(inv)) * total


def energy_moments(psi0, h):
    """Mean energy and energy uncertainty of a state under a dense Hermitian operator."""
    hv = h.entries @ psi0.amplitudes
    e = float(np.vdot(psi0.amplitudes, hv).real)
    e2 = float(np.vdot(hv, hv).real)
    return e, max(e2 - e * e, 0.0) ** 0.5


def scrooge_sample_batch(rho, n, rng):
    """n draws from Scrooge[rho] as (normalized, unnormalized) (dim, n) column stacks.

    Unnormalized draws are independent complex Gaussians with variance lambda_m
    along each eigenvector of rho (support only). The squared norm of an
    unnormalized draw is the ensemble weight of its normalized state.
    """
    lam, vectors = support_spectrum(rho)
    scale = np.sqrt(lam / 2.0)
    g = scale[:, None] * (rng.standard_normal((lam.size, n)) + 1j * rng.standard_normal((lam.size, n)))
    raw = vectors @ g
    return raw / np.linalg.norm(raw, axis=0), raw


def scrooge_sample(rho, rng):
    """One draw from Scrooge[rho]: the normalized state and the raw vector."""
    from qensembles import hilbert as hb

    normed, raw = scrooge_sample_batch(rho, 1, rng)
    return hb.PureState(normed[:, 0], hb.qubit_or_flat_dims(normed.shape[0])), raw[:, 0]


def moment_defects(m):
    """PSD margin, trace and Hermiticity defect of a stored moment."""
    from qensembles._util import hermiticity_defect

    return {
        "min_eigenvalue": float(np.linalg.eigvalsh(m.matrix)[0]),
        "trace": m.trace,
        "hermiticity": hermiticity_defect(m.matrix),
    }


def product_vs_random_phase_distance_k2(populations):
    """Trace distance between the k = 2 product form and the exact random-phase moment.

    In the populations' basis the two differ by sum_E p_E^2 |E,E><E,E|.
    """
    return 0.5 * float(np.sum(np.asarray(populations, dtype=float) ** 2))


def project_outcome(state, part, basis, outcome_index):
    """The unnormalized A-side amplitudes of one B outcome and its probability."""
    from qensembles import hilbert as hb

    table = hb.projection_table(state, part, basis)
    if not 0 <= outcome_index < part.d_b:
        raise IndexError("outcome index out of range")
    amp = table[:, outcome_index]
    p = float(np.vdot(amp, amp).real)
    return amp, p


def basis_gram_defect(basis):
    """Max deviation of the Gram matrix of each basis factor from the identity."""
    return max(float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()) for u in basis.factors)
