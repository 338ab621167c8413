"""Dense d^k x d^k constructions of every k-copy moment, for small d only.

These build each moment on the full tensor-power space the direct way:
copy permutations by transposing a (d,)*2k tensor, empirical moments as sums
of tensor-power outer products, and multiset moments by scattering one value
over every pair of orderings in an eigenbasis. They share no code with the
symmetric-subspace builders they check.

The reference forms at the end are second methods of another kind: earlier,
slower ways to the same numbers (one Scrooge moment per outcome, a contraction
with every local block, the complex-arithmetic GUE draw, the dense chain
Hamiltonian builder, projected states and their phases one outcome at a time),
kept to check the faster paths that replaced them.
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


def flat(t, d):
    i = 0
    for digit in t:
        i = i * d + int(digit)
    return i


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


def frobenius_pair_sum(eigenvalues, populations, k, taus):
    """Frobenius distances of finite- to infinite-interval moments, pair by pair.

    2 sum_{n<n'} v_n v_n' sinc^2((s_n - s_n') tau / 2) over the strict upper
    triangle of the multisets in row blocks of about 8192 pairs, one np.sin
    per pair and tau, with v_n = N_n prod_m p_m^n_m and s_n = sum_m n_m E_m.
    """
    chunk = 8192
    idx = np.array(list(combinations_with_replacement(range(len(eigenvalues)), k)))
    counts = np.array([len(orderings(ms)) for ms in idx], dtype=float)
    dim = counts.size
    v = counts * np.prod(np.asarray(populations)[idx], axis=1)
    s = np.asarray(eigenvalues)[idx].sum(axis=1)
    halves = np.abs(np.asarray(taus, dtype=float)) / 2.0  # the kernel is even in tau
    sq = np.zeros(halves.size)
    tiny = np.finfo(float).tiny  # sin(tiny)/tiny == 1: the kernel's value at 0
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
    return np.sqrt(2.0 * sq)


def real_haar2_dense(d):
    eye = np.eye(d)
    m = np.einsum("ab,cd->abcd", eye, eye)
    m = m + np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ad,bc->abcd", eye, eye)
    return m.reshape(d * d, d * d) / (d * (d + 2))


def real_scrooge2_dense(vectors, vals):
    """W(x)W M W^T(x)W^T with M[nm, nm] = M[nm, mn] = M[nn, mm] = vals[n, m]."""
    r = vectors.shape[1]
    m = np.zeros((r * r, r * r))
    for n in range(r):
        for mm in range(r):
            m[n * r + mm, n * r + mm] = vals[n, mm]
            m[n * r + mm, mm * r + n] = vals[n, mm]
            m[n * r + n, mm * r + mm] = vals[n, mm]
    w2 = np.kron(vectors, vectors)
    return w2 @ m @ w2.T


def assert_lift_matches(moment, oracle, tol=1e-12):
    """The lift equals the oracle, is copy-permutation invariant, and has the
    trace and spectrum (padded with zeros) of the stored matrix."""
    d, k = moment.space_dim, moment.k
    full = moment.dense()
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.abs(full - oracle).max() <= tol * scale
    for sigma in permutations(range(k)):
        assert np.abs(permute_copies(full, d, k, sigma) - full).max() <= tol * scale
    assert abs(np.trace(full).real - moment.trace) <= tol * scale
    stored = np.linalg.eigvalsh(moment.matrix)
    padded = np.sort(np.concatenate([stored, np.zeros(d**k - stored.size)]))
    assert np.abs(np.linalg.eigvalsh(full) - padded).max() <= tol * scale


def scrooge_moment_per_outcome(rho, k):
    """Scrooge k-th moment on Sym^k from the support of rho alone (k >= 2).

    The quadrature runs on rho's own grid over its support eigenvalues, and
    S = Sym^k of the support eigenvectors only, so no mode is masked.
    """
    from qensembles import ensembles as en
    from qensembles import scrooge as sc

    spec = sc.eigen_spectrum(rho)
    idx, counts = en._occupation_basis(spec.rank, k)
    occ = (idx[:, :, None] == np.arange(spec.rank)).sum(axis=1).astype(float)
    coeffs = sc._gaussian_quadrature(spec.eigenvalues, occ)
    s = en._symmetric_power(spec.eigenvectors, k)
    full = (s * (counts * coeffs)) @ s.conj().T
    return (full + full.conj().T) / 2


def generalized_scrooge_sum(table, k):
    """sum_x p(x) Scrooge_k[rho(x)] / sum_x p(x), one outcome at a time."""
    d = table.d_a
    total = np.zeros((math.comb(d + k - 1, k),) * 2, dtype=complex)
    for p, state in zip(table.probabilities, table.states):
        total += p * (state if k == 1 else scrooge_moment_per_outcome(state, k))
    return total / table.probabilities.sum()


def rotations_unskipped(m, unitaries, conjugate=False):
    """Contract every little-endian column block of m, identity blocks included."""
    rows, d = m.shape
    out = np.ascontiguousarray(m)
    lo = 1
    for u in unitaries:
        uj = np.conj(u) if conjugate else u
        b = u.shape[0]
        t = out.reshape(rows, d // (lo * b), b, lo)
        out = np.einsum("rhbl,bz->rhzl", t, uj, optimize=True).reshape(rows, d)
        lo *= b
    return out


def sample_gue_complex(d, rng):
    """GUE draw in complex arithmetic: (g + g^dagger)/2, g = (a + i b)/sqrt(d)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(d)
    return (g + g.conj().T) / 2


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


def moment_from_columns_per_member(columns, weights, k, panel_width=64):
    """The symmetric-subspace moment with one Kronecker power per member, panel by panel."""
    from qensembles import ensembles as en

    d, n = columns.shape
    idx, counts = en._occupation_basis(d, k)
    flat = en._flat_index(idx, d)
    scale, sqrt_w = np.sqrt(counts), np.sqrt(weights)
    acc = np.zeros((flat.size, flat.size), dtype=complex)
    for start in range(0, n, panel_width):
        cols = range(start, min(start + panel_width, n))
        panel = np.empty((flat.size, len(cols)), dtype=complex)
        for out_col, j in enumerate(cols):
            panel[:, out_col] = (sqrt_w[j] * scale) * kron_power(columns[:, j], k)[flat]
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


def real_columns_per_outcome(rotated):
    """Each column of a Takagi-frame table with its phase fixed, and the worst imaginary leak."""
    leak = 0.0
    out = np.zeros(rotated.shape)
    for z in range(rotated.shape[1]):
        col = rotated[:, z]
        norm = np.linalg.norm(col)
        if norm < 1e-12:
            continue
        phase = col[np.abs(col).argmax()]
        col = col * (np.conj(phase) / abs(phase))
        leak = max(leak, float(np.abs(col.imag).max() / norm))
        out[:, z] = col.real
    return out, leak
