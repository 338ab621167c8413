"""Dense d^k x d^k constructions of every k-copy moment, for small d only.

These build each moment on the full tensor-power space the direct way:
copy permutations by transposing a (d,)*2k tensor, empirical moments as sums
of tensor-power outer products, and multiset moments by scattering one value
over every pair of orderings in an eigenbasis. They share no code with the
symmetric-subspace builders they check.
"""

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
