"""Hilbert-space plumbing for spin-1/2 chains.

States, Hermitian operators, bipartitions, product measurement bases, and the
model Hamiltonians used throughout (mixed-field Ising chain and variants,
chaotic XXZ, transverse-field Ising), each defined once as a table of
Pauli-string terms (`model_terms`) and built dense or sparse from it. Site
ordering is little-endian: site 0 is the least significant bit of a basis
index, so basis index i = sum_j bit_j * 2^j. All values are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

import math
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

# Columns are the basis vectors of the single-site X/Y/Z eigenbases.
_SINGLE_QUBIT_BASIS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
}


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over a labeled tensor-product basis."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    norm_convention: str = "normalized"  # "normalized" | "unnormalized"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if amps.ndim != 1 or amps.size != int(np.prod(self.dims)):
            raise ValueError("amplitude length must equal product of dims")
        if self.norm_convention == "normalized":
            n2 = float(np.vdot(amps, amps).real)
            if not abs(n2 - 1.0) <= 1e-12:  # NaN fails this test
                raise ValueError(f"normalized state has |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
        elif self.norm_convention != "unnormalized":
            raise ValueError(f"unknown norm convention {self.norm_convention!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.amplitudes / n, self.dims, "normalized")


def n_qubit_dims(n: int) -> tuple[int, ...]:
    return (2,) * n


def qubit_or_flat_dims(d: int) -> tuple[int, ...]:
    """Qubit factors (2,) * n when d = 2^n, else one flat factor (d,)."""
    n = int(d).bit_length() - 1
    return n_qubit_dims(n) if d == 2**n else (int(d),)


def qubit_state(amplitudes: Iterable[complex], convention: str = "normalized") -> PureState:
    amps = np.asarray(list(amplitudes), dtype=complex)
    n = int(round(math.log2(amps.size)))
    if 2**n != amps.size:
        raise ValueError("amplitude length is not a power of 2")
    return PureState(amps, n_qubit_dims(n), convention)


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
    """`width` contiguous sites nearest the middle of an n-site chain."""
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
    return MeasurementBasis(tuple(int(s) for s in sites), (m,))


def _require_sites(basis: MeasurementBasis, sites: Iterable[int]) -> None:
    """Raise unless the basis lives on exactly these sites, in this order."""
    sites = tuple(sites)
    if basis.sites != sites:
        raise ValueError(f"basis must live on sites {sites}, not {basis.sites}")


def basis_gram_defect(basis: MeasurementBasis) -> float:
    """Max deviation of the basis Gram matrix from the identity."""
    defect = 0.0
    for u in basis.factors:
        defect = max(defect, float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()))
    return defect


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


def split_bipartite(state: PureState, part: Bipartition) -> np.ndarray:
    """Amplitudes as a (D_A, D_B) matrix in the bipartition's index convention."""
    if state.n_sites != part.n_sites:
        raise ValueError("state and bipartition disagree on the number of sites")
    a_idx = _subsystem_indices(part.n_sites, part.sites_A)
    b_idx = _subsystem_indices(part.n_sites, part.sites_B)
    m = np.zeros((part.d_a, part.d_b), dtype=complex)
    m[a_idx, b_idx] = state.amplitudes
    return m


def merge_bipartite(m: np.ndarray, part: Bipartition, convention: str = "normalized") -> PureState:
    """Inverse of split_bipartite."""
    a_idx = _subsystem_indices(part.n_sites, part.sites_A)
    b_idx = _subsystem_indices(part.n_sites, part.sites_B)
    amps = np.asarray(m, dtype=complex)[a_idx, b_idx]
    return PureState(amps, n_qubit_dims(part.n_sites), convention)


def apply_local_rotations(m: np.ndarray, unitaries: Sequence[np.ndarray], conjugate: bool = False) -> np.ndarray:
    """Contract consecutive little-endian blocks of the column index of m with square matrices.

    m has shape (rows, prod b_j), where unitaries[j] is b_j x b_j and acts on
    the block of the column index above the bits of the earlier blocks. With
    conjugate=True the complex conjugate of each unitary is applied, which
    turns amplitudes over the computational basis into overlap tables
    <basis vector | state>. A block equal to the identity (the Pauli Z
    factor) is skipped: contracting with it returns its input exactly, up to
    the sign of zero. The result is always a new array.
    """
    rows, d = m.shape
    if d != math.prod(u.shape[0] for u in unitaries):
        raise ValueError("column dimension does not match the unitary block sizes")
    out = np.ascontiguousarray(m)
    lo = 1
    for u in unitaries:
        b = u.shape[0]
        if not np.array_equal(u, np.eye(b)):
            uj = np.conj(u) if conjugate else u
            t = out.reshape(rows, d // (lo * b), b, lo)
            out = np.einsum("rhbl,bz->rhzl", t, uj, optimize=True).reshape(rows, d)
        lo *= b
    dtype = np.result_type(m, *unitaries)
    return out.astype(dtype) if out is m or out.dtype != dtype else out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def product_state(theta: float, n: int) -> PureState:
    """Uniform product state with single-site vector (cos(theta/2), i sin(theta/2))."""
    if n < 1:
        raise InvalidModelError("need at least one site")
    local = np.array([math.cos(theta / 2), 1j * math.sin(theta / 2)], dtype=complex)
    amps = np.array([1.0 + 0j])
    for _ in range(n):
        amps = np.kron(local, amps)
    return PureState(amps, n_qubit_dims(n))


def _pauli_string_entries(n: int, ops: Mapping[int, str]):
    """Rows, columns and values of a Pauli string with identity padding."""
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


def model_terms(model: Mapping) -> tuple[int, tuple[tuple[float, dict[int, str]], ...]]:
    """Chain length and ordered Pauli-string terms (coeff, {site: letter}) of a model.

    The one definition of the chain models: "mfim" (transverse+longitudinal-in-XY
    Ising chain), "mfim_broken_trs" (adds a Z field and YY coupling), "xxz"
    (chaotic next-nearest-neighbor ZZ variant) and "tfim" (mfim with h_x = 0).
    Open boundary conditions only; chains are little-endian. Terms with a zero
    coefficient are left out. Raises InvalidModelError for an unknown model, a
    chain without sites, a non-finite coefficient or an unused parameter.
    """
    spec = dict(model)
    name = spec.pop("model", None)
    n = int(spec.pop("n", 0))
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
    elif name == "xxz":
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
    else:
        raise InvalidModelError(f"unknown model {name!r}")

    if spec:
        raise InvalidModelError(f"unused model parameters: {sorted(spec)}")
    if not all(math.isfinite(c) for c, _ in terms):
        raise InvalidModelError(f"model {name!r} has a non-finite coefficient")
    return n, tuple((c, ops) for c, ops in terms if c != 0.0)


def _checked_matrix(model: Mapping) -> HermitianOperator:
    """The caller-provided matrix of a "gue" or "explicit" model, on qubit dims."""
    m = np.asarray(model["matrix"], dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrixError("explicit Hamiltonian must be square")
    n = int(round(math.log2(m.shape[0])))
    if 2**n != m.shape[0]:
        raise InvalidMatrixError("explicit Hamiltonian dimension must be a power of 2")
    return HermitianOperator(m, n_qubit_dims(n))


def build_hamiltonian(model: Mapping, caps: Caps = DEFAULT_CAPS) -> HermitianOperator:
    """Assemble a dense model Hamiltonian from its specification.

    Chain models are summed from their `model_terms`, in table order; "gue"
    and "explicit" models carry their own Hermitian matrix.
    """
    if model.get("model") in ("gue", "explicit"):
        return _checked_matrix(model)
    n, terms = model_terms(model)
    check_cap(caps, "max_moment_entries", (2**n) ** 2)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        rows, cols, vals = _pauli_string_entries(n, ops)
        h[rows, cols] += coeff * vals
    return HermitianOperator(h, n_qubit_dims(n))


def sparse_hamiltonian(model: Mapping, caps: Caps = DEFAULT_CAPS) -> tuple[scipy.sparse.csr_matrix, float]:
    """A model Hamiltonian as a CSR matrix, with the bound a >= ||H|| on its norm.

    Chain models are assembled from their `model_terms` without a dense
    matrix, and a = sum |coeff|; "gue" and "explicit" models convert their
    checked matrix, and a is its largest absolute row sum. The d entries per
    term that assembly allocates are checked against `max_state_dim`.
    """
    if model.get("model") in ("gue", "explicit"):
        m = scipy.sparse.csr_matrix(_checked_matrix(model).entries)
        return m, float(abs(m).sum(axis=1).max())
    n, terms = model_terms(model)
    d = 2**n
    check_cap(caps, "max_state_dim", d * max(len(terms), 1))
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, complex)]
    for coeff, ops in terms:
        r, c, v = _pauli_string_entries(n, ops)
        rows.append(r)
        cols.append(c)
        vals.append(coeff * v)
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return scipy.sparse.csr_matrix(coo, shape=(d, d)), float(sum(abs(c) for c, _ in terms))


def project_outcome(
    state: PureState,
    part: Bipartition,
    basis: MeasurementBasis,
    outcome_index: int,
) -> tuple[PureState, float]:
    """Project the B factor onto one basis vector.

    Returns the unnormalized A-side state and the outcome probability (its
    squared norm).
    """
    table = projection_table(state, part, basis)
    if not 0 <= outcome_index < part.d_b:
        raise IndexError("outcome index out of range")
    amp = table[:, outcome_index]
    p = float(np.vdot(amp, amp).real)
    return PureState(amp, n_qubit_dims(len(part.sites_A)), "unnormalized"), p


def projection_table(state: PureState, part: Bipartition, basis: MeasurementBasis) -> np.ndarray:
    """All unnormalized projected states at once, as a (D_A, D_B) table.

    Column z holds (I_A (x) <z|) |state>; squared column norms are the outcome
    probabilities.
    """
    _require_sites(basis, part.sites_B)
    return apply_local_rotations(split_bipartite(state, part), basis.factors, conjugate=True)


def partial_trace(obj, part: Bipartition, keep: str = "A") -> HermitianOperator:
    """Reduced density matrix of a pure state or of a full-space operator."""
    if keep not in ("A", "B"):
        raise ValueError("keep must be 'A' or 'B'")
    if isinstance(obj, PureState):
        m = split_bipartite(obj, part)
        rho = m @ m.conj().T if keep == "A" else m.T @ m.conj()
        sites = part.sites_A if keep == "A" else part.sites_B
        return HermitianOperator(_hermitize(rho), n_qubit_dims(len(sites)))
    if isinstance(obj, HermitianOperator):
        if len(obj.dims) != part.n_sites:
            raise ValueError("operator and bipartition disagree on the number of sites")
        a_idx = _subsystem_indices(part.n_sites, part.sites_A)
        b_idx = _subsystem_indices(part.n_sites, part.sites_B)
        perm = np.empty(2**part.n_sites, dtype=np.int64)
        perm[a_idx * part.d_b + b_idx] = np.arange(2**part.n_sites)
        r = obj.entries[np.ix_(perm, perm)].reshape(part.d_a, part.d_b, part.d_a, part.d_b)
        if keep == "A":
            rho = np.einsum("abcb->ac", r)
            sites = part.sites_A
        else:
            rho = np.einsum("abad->bd", r)
            sites = part.sites_B
        return HermitianOperator(_hermitize(rho), n_qubit_dims(len(sites)))
    raise TypeError("expected a PureState or HermitianOperator")


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0

