"""Hilbert-space plumbing for spin-1/2 chains.

States, Hermitian operators, bipartitions, product measurement bases, and the
model Hamiltonians used throughout (mixed-field Ising chain and variants,
chaotic XXZ, transverse-field Ising), each defined once as a table of
Pauli-string terms (`model_terms`), which one flip-mask row table
(`_flip_rows`) turns into the dense matrix, the spectral-window matrices and
the sparse matrix on the even sector of the site reversal
(`reflection_orbits`), which holds every uniform chain quench. Site ordering is
little-endian: site 0 is the least significant bit of a basis index, so basis
index i = sum_j bit_j * 2^j. All values are immutable after construction and
all operations are pure functions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse

from ._util import (
    Caps,
    DEFAULT_CAPS,
    InvalidMatrixError,
    InvalidModelError,
    check_cap,
    hermiticity_defect,
)

HERMITICITY_TOL = 1e-12
ROTATION_BLOCK_ENTRIES = 2**16  # entries per row block in apply_local_rotations; bounds its memory

# Columns are the basis vectors of the single-site X/Y/Z eigenbases.
_SINGLE_QUBIT_BASIS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
}


@dataclass(frozen=True)
class PureState:
    """Unit complex amplitude vector over a labeled tensor-product basis."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if amps.ndim != 1 or amps.size != int(np.prod(self.dims)):
            raise ValueError("amplitude length must equal product of dims")
        n2 = float(np.vdot(amps, amps).real)
        if not abs(n2 - 1.0) <= 1e-12:  # NaN fails this test
            raise ValueError(f"normalized state has |norm^2 - 1| = {abs(n2 - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n_sites(self) -> int:
        return len(self.dims)


def n_qubit_dims(n: int) -> tuple[int, ...]:
    return (2,) * n


def qubit_or_flat_dims(d: int) -> tuple[int, ...]:
    """Qubit factors (2,) * n when d = 2^n, else one flat factor (d,)."""
    n = int(d).bit_length() - 1
    return n_qubit_dims(n) if d == 2**n else (int(d),)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix on a tensor-product space."""

    entries: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if m.shape != (d, d):
            raise ValueError("entry matrix shape must match product of dims")
        defect = hermiticity_defect(m)
        if not defect <= HERMITICITY_TOL:  # NaN fails this test
            raise InvalidMatrixError(f"matrix deviates from Hermitian by {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _as_density(rho) -> np.ndarray:
    """Entries of a density matrix (a `HermitianOperator` or an array) or of a
    stack of them, checked for unit trace and Hermiticity; a NaN fails a check.

    The one density-matrix check of every input that must be a state.
    """
    m = rho.entries if isinstance(rho, HermitianOperator) else np.asarray(rho, dtype=complex)
    tr = np.einsum("...aa->...", m).real
    if not np.all(np.abs(tr - 1.0) <= 1e-8):
        raise ValueError(f"density matrix trace is {tr}")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise InvalidMatrixError(f"density matrix deviates from Hermitian by {defect:.3e}")
    return m


@dataclass(frozen=True)
class Bipartition:
    """Split of the chain into subsystem A and complement B.

    Subsystem indices are little-endian within each part: sites_A[0] is the
    least significant bit of an A-index, likewise for B.
    """

    n_sites: int
    sites_A: tuple[int, ...]
    sites_B: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        sa = tuple(int(s) for s in self.sites_A)
        if len(set(sa)) != len(sa) or any(s < 0 or s >= self.n_sites for s in sa):
            raise ValueError("sites_A must be distinct sites of the chain")
        object.__setattr__(self, "sites_A", sa)
        sb = tuple(s for s in range(self.n_sites) if s not in set(sa))
        object.__setattr__(self, "sites_B", sb)

    @property
    def d_a(self) -> int:
        return 2 ** len(self.sites_A)

    @property
    def d_b(self) -> int:
        return 2 ** len(self.sites_B)


def central_sites(n: int, width: int) -> tuple[int, ...]:
    """`width` contiguous sites nearest the middle of an n-site chain, 1 <= width <= n."""
    if not 1 <= width <= n:
        raise ValueError(f"subsystem width must be between 1 and n = {n}, not {width}")
    start = (n - width) // 2
    return tuple(range(start, start + width))


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete orthonormal basis on a set of sites, as a tuple of local unitary blocks.

    factors[j] is a 2^w x 2^w matrix whose columns are the basis vectors on
    the next w little-endian bits of the outcome index; the basis is their
    Kronecker product. Pauli-product bases have one 2 x 2 factor per site, an
    explicit basis one factor over all its sites. Outcome indices are
    little-endian over `sites` order.
    """

    sites: tuple[int, ...]
    factors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 2 ** len(self.sites)

    def key(self) -> tuple:
        """Hashable identity: the sites and the shape, dtype and bytes of each factor."""
        return self.sites, tuple((u.shape, u.dtype.str, u.tobytes()) for u in self.factors)


def pauli_basis(sites: Sequence[int], letters: str) -> MeasurementBasis:
    sites = tuple(int(s) for s in sites)
    if len(letters) == 1:
        letters = letters * len(sites)
    if len(letters) != len(sites) or any(ch not in "XYZ" for ch in letters):
        raise ValueError("letters must be one X/Y/Z character per site")
    return MeasurementBasis(sites, tuple(_SINGLE_QUBIT_BASIS[ch] for ch in letters))


def explicit_basis(sites: Sequence[int], matrix: np.ndarray) -> MeasurementBasis:
    m = np.asarray(matrix, dtype=complex)
    d = 2 ** len(sites)
    if m.shape != (d, d):
        raise ValueError("basis matrix must be square of the subsystem dimension")
    defect = float(np.abs(m.conj().T @ m - np.eye(d)).max())
    if not defect <= 1e-10:  # NaN fails this test
        raise InvalidMatrixError(f"basis matrix deviates from unitary by {defect:.3e}")
    return MeasurementBasis(tuple(int(s) for s in sites), (m,))


def _require_sites(basis: MeasurementBasis, sites: Iterable[int]) -> None:
    """Raise unless the basis lives on exactly these sites, in this order."""
    sites = tuple(sites)
    if basis.sites != sites:
        raise ValueError(f"basis must live on sites {sites}, not {basis.sites}")


def basis_matrix(basis: MeasurementBasis, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Dense matrix whose columns are the basis vectors (capped)."""
    check_cap(caps, "max_moment_entries", basis.dim**2)
    out = np.array([[1.0 + 0j]])
    for u in basis.factors:
        out = np.kron(u, out)  # later factors are more significant
    return out


# ---------------------------------------------------------------------------
# bit bookkeeping for bipartitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _subsystem_indices(n: int, sites: tuple[int, ...]) -> np.ndarray:
    """For each full basis index, the little-endian index over `sites`."""
    full = np.arange(2**n, dtype=np.int64)
    sub = np.zeros_like(full)
    for k, s in enumerate(sites):
        sub |= ((full >> s) & 1) << k
    sub.flags.writeable = False  # shared by every caller through the cache
    return sub


@lru_cache(maxsize=64)
def reflection_orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the n-site basis under the site reversal R (bit reversal).

    Returns (reps, orbit, sizes): the representatives i <= R(i) in ascending
    order, the orbit index of every basis state, and the orbit sizes (1 for
    a palindrome, 2 otherwise). There are m = (2^n + 2^ceil(n/2)) / 2 orbits,
    and the columns P_o = sum_{i in o} |i> / sqrt(sizes[o]) span the
    R-even sector isometrically.
    """
    mirror = _subsystem_indices(n, tuple(range(n - 1, -1, -1)))
    reps = np.flatnonzero(np.arange(2**n) <= mirror)
    orbit = np.empty(2**n, dtype=np.int64)
    orbit[reps] = orbit[mirror[reps]] = np.arange(reps.size)
    sizes = np.where(mirror[reps] == reps, 1, 2)
    for a in (reps, orbit, sizes):
        a.flags.writeable = False  # shared by every caller through the cache
    return reps, orbit, sizes


def split_bipartite(state: PureState, part: Bipartition) -> np.ndarray:
    """Amplitudes as a (D_A, D_B) matrix in the bipartition's index convention."""
    if state.n_sites != part.n_sites:
        raise ValueError("state and bipartition disagree on the number of sites")
    a_idx = _subsystem_indices(part.n_sites, part.sites_A)
    b_idx = _subsystem_indices(part.n_sites, part.sites_B)
    m = np.zeros((part.d_a, part.d_b), dtype=complex)
    m[a_idx, b_idx] = state.amplitudes
    return m


def apply_local_rotations(m: np.ndarray, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """Contract consecutive little-endian blocks of the column index of m with
    the complex conjugates of square matrices.

    m has shape (rows, prod b_j), where conj(unitaries[j]) is b_j x b_j and
    acts on the block of the column index above the bits of the earlier
    blocks. Applying the conjugate turns amplitudes over the computational
    basis into overlap tables <basis vector | state>; a caller that wants u
    itself passes conj(u). A block equal to the identity (the Pauli Z
    factor) is skipped: contracting with it returns its input exactly, up to
    the sign of zero. The result is always a new array.

    Rows are taken ROTATION_BLOCK_ENTRIES entries at a time (at least one
    row), and each row block runs through every factor before it is written
    into the preallocated result. Rows are independent, so this gives the
    single-pass values bit for bit, and the transient memory is the result
    plus about three block-sized arrays (the input block, the einsum's
    product and its reshaped copy), whatever the number of factors.
    """
    rows, d = m.shape
    if d != math.prod(u.shape[0] for u in unitaries):
        raise ValueError("column dimension does not match the unitary block sizes")
    steps = []
    lo = 1
    for u in unitaries:
        b = u.shape[0]
        if not np.array_equal(u, np.eye(b)):
            steps.append((lo, b, np.conj(u)))
        lo *= b
    out = np.empty((rows, d), dtype=np.result_type(m, *unitaries))
    step = max(1, ROTATION_BLOCK_ENTRIES // d)
    for r0 in range(0, rows, step):
        block = np.ascontiguousarray(m[r0 : r0 + step])
        n = block.shape[0]
        for lo, b, uj in steps:
            t = block.reshape(n, d // (lo * b), b, lo)
            block = np.einsum("rhbl,bz->rhzl", t, uj, optimize=True).reshape(n, d)
        out[r0 : r0 + n] = block
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def product_state(theta: float, n: int, frame: np.ndarray | None = None) -> PureState:
    """Uniform product state with single-site vector (cos(theta/2), i sin(theta/2)).

    Given a 2 x 2 unitary frame u (see `sparse_hamiltonian`), the state is
    u^(x n) applied to it: each site's vector is u times the one above.
    """
    if n < 1:
        raise InvalidModelError("need at least one site")
    local = np.array([math.cos(theta / 2), 1j * math.sin(theta / 2)], dtype=complex)
    if frame is not None:
        local = frame @ local
    amps = np.array([1.0 + 0j])
    for _ in range(n):
        amps = np.kron(local, amps)
    return PureState(amps, n_qubit_dims(n))


def model_terms(model: Mapping) -> tuple[int, tuple[tuple[float, dict[int, str]], ...]]:
    """Chain length and ordered Pauli-string terms (coeff, {site: letter}) of a model.

    The one definition of the chain models: "mfim" (transverse+longitudinal-in-XY
    Ising chain), "mfim_broken_trs" (adds a Z field and YY coupling), "xxz"
    (chaotic next-nearest-neighbor ZZ variant) and "tfim" (mfim with h_x = 0).
    Open boundary conditions only; chains are little-endian. Terms with a zero
    coefficient are left out. Raises InvalidModelError for an unknown model, a
    chain length that is not an integer n >= 1, a non-finite coefficient or
    an unused parameter; the name is checked first.
    """
    spec = dict(model)
    name = spec.pop("model", None)
    if name not in ("mfim", "tfim", "mfim_broken_trs", "xxz"):
        raise InvalidModelError(f"unknown model {name!r}")
    n = spec.pop("n", None)
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidModelError(f"model {name!r} needs an integer n, not {n!r}") from None
    if n < 1:
        raise InvalidModelError(f"model {name!r} needs n >= 1 sites")
    if spec.pop("boundary", "open") != "open":
        raise InvalidModelError("only open boundary conditions are supported")

    terms = []
    if name == "mfim" or name == "tfim" or name == "mfim_broken_trs":
        hx = 0.0 if name == "tfim" else float(spec.pop("hx", 0.8090))
        hy = float(spec.pop("hy", 0.9045))
        j = float(spec.pop("j", 1.0))
        hz = jp = 0.0
        if name == "mfim_broken_trs":
            hz = float(spec.pop("hz", 0.5))
            jp = float(spec.pop("jp", 0.4))
        for s in range(n):
            terms += [(hx, {s: "X"}), (hy, {s: "Y"}), (hz, {s: "Z"})]
        for s in range(n - 1):
            terms += [(j, {s: "X", s + 1: "X"}), (jp, {s: "Y", s + 1: "Y"})]
    else:  # xxz
        j = float(spec.pop("j", math.sqrt(2.0)))
        delta = float(spec.pop("delta", (math.sqrt(5.0) + 1.0) / 4.0))
        delta2 = float(spec.pop("delta2", 1.0))
        for s in range(n - 1):
            terms += [
                (j / 4.0, {s: "X", s + 1: "X"}),
                (j / 4.0, {s: "Y", s + 1: "Y"}),
                (delta / 4.0, {s: "Z", s + 1: "Z"}),
            ]
        for s in range(n - 2):
            terms.append((delta2 / 4.0, {s: "Z", s + 2: "Z"}))

    if spec:
        raise InvalidModelError(f"unused model parameters: {sorted(spec)}")
    if not all(math.isfinite(c) for c, _ in terms):
        raise InvalidModelError(f"model {name!r} has a non-finite coefficient")
    return n, tuple((c, ops) for c, ops in terms if c != 0.0)


def build_hamiltonian(model: Mapping, caps: Caps = DEFAULT_CAPS) -> HermitianOperator:
    """Assemble a dense chain Hamiltonian from its specification.

    The `_flip_rows` table of the chain's `model_terms`, in the computational
    basis, is written into a new Fortran-ordered matrix, the layout LAPACK
    works in (see `spectral.model_spectrum`).
    """
    n, terms = model_terms(model)
    check_cap(caps, "max_moment_entries", (2**n) ** 2)
    cols, vals = _flip_rows(n, terms, _COMPUTATIONAL_LETTERS, np.arange(2**n), caps)
    h = np.zeros((2**n, 2**n), dtype=complex, order="F")
    h[np.arange(2**n)[:, None], cols] = vals
    return HermitianOperator(h, n_qubit_dims(n))


# Site-local frame of the sparse chain Hamiltonians, u = [[1, 1], [i, -i]] / sqrt(2)
# (the Y eigenbasis), and the letter each Pauli becomes in it: u X u^dag = Z,
# u Y u^dag = X, u Z u^dag = Y. The identity map keeps the computational basis.
CHAIN_FRAME = _SINGLE_QUBIT_BASIS["Y"]
_FRAME_LETTERS = {"X": "Z", "Y": "X", "Z": "Y"}
_COMPUTATIONAL_LETTERS = {"X": "X", "Y": "Y", "Z": "Z"}


def _flip_rows(
    n: int, terms, letters: Mapping[str, str], rows: np.ndarray, caps: Caps = DEFAULT_CAPS
) -> tuple[np.ndarray, np.ndarray]:
    """Table (cols, vals) of the basis rows `rows` of a sum of Pauli-string
    terms on n sites, each term's letters first mapped through `letters`: for
    row i = rows[r], cols[r, j] = i ^ f_j and vals[r, j] = <i|H|i ^ f_j>, one
    slot per flip mask f_j, the diagonal (every Z-only term) first; a slot
    sums its terms in table order. vals is float64 when every mapped string
    is real (holds an even number of Y), else complex. Its len(rows)
    (1 + masks) entries, doubled when real for the realified form of
    `spectral.propagate`, are checked against `max_state_dim` before its
    arrays are allocated.
    """
    # <i|P|i ^ flip> of a Pauli string P is (-i)^(number of Y) times -1 per Y or Z
    # site where bit i is set
    strings = []  # (that value at i = 0, flip mask, Y and Z sites) per term, mapped
    slots = {0: 0}  # flip mask -> its column in a row; the diagonal comes first
    for coeff, ops in terms:
        mapped = {site: letters[letter] for site, letter in ops.items()}
        flip = sum(1 << s for s, letter in mapped.items() if letter != "Z")
        signed = [s for s, letter in mapped.items() if letter != "X"]
        strings.append((coeff * (-1j) ** list(mapped.values()).count("Y"), flip, signed))
        slots.setdefault(flip, len(slots))
    real = all(value.imag == 0 for value, _, _ in strings)
    d, width = rows.size, len(slots)
    check_cap(caps, "max_state_dim", d * width * (2 if real else 1))
    index = np.int32 if 2**n * width < 2**31 else np.int64
    rows = rows.astype(index)
    cols = np.empty((d, width), dtype=index)
    for flip, slot in slots.items():
        cols[:, slot] = rows ^ flip
    vals = np.zeros((d, width), dtype=float if real else complex)
    for value, flip, signed in strings:
        parity = np.zeros(d, dtype=index)
        for site in signed:
            parity ^= (rows >> site) & 1
        vals[:, slots[flip]] += (value.real if real else value) * (1 - 2 * parity)
    return cols, vals


def sparse_hamiltonian(
    model: Mapping, caps: Caps = DEFAULT_CAPS
) -> tuple[scipy.sparse.csr_matrix, tuple[float, float]]:
    """A chain Hamiltonian on its R-even sector as a CSR matrix in a
    site-local frame, and an interval [lo, hi] that holds its spectrum.

    Returns (h, (lo, hi)) with h = P^T u^(x n) H u^dag(x n) P. In the 2 x 2
    unitary frame u = CHAIN_FRAME, X, Y and Z become Z, X and Y. Column o of
    P is sum_{i in o} |i> / sqrt(|o|) over an orbit of the site reversal R
    (`reflection_orbits`), m = (2^n + 2^ceil(n/2)) / 2 of them. Every chain is
    uniform with open ends, so R commutes with H and with u^(x n), and the
    sector is invariant; the uniform product state is R-even, so exp(-iHt)
    keeps a quench in it. A vector enters the frame site by site and then the
    sector, as psi_s[o] = sqrt(|o|) psi[rep(o)], and leaves the sector, as
    psi[x] = psi_s[orbit(x)] / sqrt(|orbit(x)|), and then the frame, with one
    pass of u^dag per site (`apply_local_rotations`).

    Only the m representative rows of the frame's `_flip_rows` table are
    built: row o is that of rep(o), with column c moved to orbit(c) and
    scaled by sqrt(|o| / |orbit(c)|), since (P^T h psi)[o] = sqrt(|o|)
    (h psi)[rep(o)] for an R-even psi. Two columns of a row that share an
    orbit stay separate entries, which a CSR product sums; zeros are kept. A
    mapped Pauli string is real when it holds an even number of Y, so mfim,
    tfim and xxz give a float64 h and mfim_broken_trs, whose Z field becomes
    Y, a complex one.

    The interval is that of Anderson, Phys. Rev. 83, 1260 (1951): with w the
    widest span of a term, H is the sum of one window term H_W per run of w
    sites, each term split equally among the windows that hold it, and
    lo = sum lambda_min(H_W), hi = sum lambda_max(H_W). Its half-width is at
    most the sum |coeff| of the terms, with the one-site fields taken by
    their norms; for mfim at n = 10 it is 3.5 % wider than the spectrum, which
    holds the sector's. The windows are built in the computational basis; in
    the frame their eigenvalues, and so every quench, would move in the last
    bits.
    """
    n, terms = model_terms(model)
    check_cap(caps, "max_state_dim", 2**n)  # the orbit tables are state-sized
    reps, orbit, sizes = reflection_orbits(n)
    cols, vals = _flip_rows(n, terms, _FRAME_LETTERS, reps, caps)
    cols = orbit[cols]
    vals *= np.sqrt(sizes[:, None] / sizes[cols])
    indptr = np.arange(0, cols.size + 1, cols.shape[1])
    h = scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(reps.size, reps.size))
    return h, _window_interval(n, terms)


def _window_interval(n: int, terms) -> tuple[float, float]:
    """Sums of lambda_min and lambda_max over the w-site windows of a chain (see `sparse_hamiltonian`)."""
    if not terms:
        return 0.0, 0.0
    w = max(max(ops) - min(ops) + 1 for _, ops in terms)
    local_terms = [[] for _ in range(n - w + 1)]  # each window's share of the terms, in table order
    for coeff, ops in terms:
        first, last = max(max(ops) - w + 1, 0), min(min(ops), n - w)
        for s in range(first, last + 1):
            local = {site - s: letter for site, letter in ops.items()}
            local_terms[s].append((coeff / (last - first + 1), local))
    # a uniform chain repeats its bulk window: diagonalize each distinct one once
    # (repr of a float round-trips, so equal keys mean equal terms)
    keys = [repr(window_terms) for window_terms in local_terms]
    distinct = dict(zip(keys, local_terms))
    windows = np.zeros((len(distinct), 2**w, 2**w), dtype=complex)
    for window, window_terms in zip(windows, distinct.values()):
        cols, vals = _flip_rows(w, window_terms, _COMPUTATIONAL_LETTERS, np.arange(2**w))
        window[np.arange(2**w)[:, None], cols] = vals
    # one row per window again, so the sums run in window order
    row = {key: i for i, key in enumerate(distinct)}
    levels = np.linalg.eigvalsh(windows)[[row[key] for key in keys]]
    return float(levels[:, 0].sum()), float(levels[:, -1].sum())


def projection_table(state: PureState, part: Bipartition, basis: MeasurementBasis) -> np.ndarray:
    """All unnormalized projected states at once, as a (D_A, D_B) table.

    Column z holds (I_A (x) <z|) |state>; squared column norms are the outcome
    probabilities.
    """
    _require_sites(basis, part.sites_B)
    return apply_local_rotations(split_bipartite(state, part), basis.factors)


def partial_trace(state: PureState, part: Bipartition) -> HermitianOperator:
    """Reduced density matrix on A of a pure state."""
    m = split_bipartite(state, part)
    return HermitianOperator(_hermitize(m @ m.conj().T), n_qubit_dims(len(part.sites_A)))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0

