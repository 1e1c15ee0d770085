"""Constructors for parity operators, block-form Hamiltonians and bound
PT-symmetric systems, plus the parameter-count bookkeeping for each matrix
family.

A parity operator is a real symmetric involution realized as R P0 R^T, where
P0 = diag(+1 x m_plus, -1 x m_minus) and R is an orthogonal matrix built as an
ordered product of Givens rotations. The same R conjugates the block
Hamiltonian H0 = [[A, iB], [iB^T, C]] into the general symmetric PT-symmetric
Hamiltonian. pt_matrices builds R once and rotates one H0, or a stack of them
from stacked blocks, so a system and a sweep share one construction.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, is_hermitian, is_real, is_symmetric, max_abs

SYMMETRY_TOL = 1e-12
PT_COMMUTATION_TOL = 1e-10


@dataclass(frozen=True)
class ParitySpec:
    """Signature (m_plus, m_minus) and rotation angles realizing a parity."""

    m_plus: int
    m_minus: int
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.m_plus + self.m_minus


@dataclass(frozen=True)
class BlockForm:
    """Real blocks (A, B, C) of the Hamiltonian [[A, iB], [iB^T, C]], or
    (N, ...) stacks of them."""

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_block", np.asarray(self.a_block, dtype=np.float64))
        object.__setattr__(self, "b_block", np.asarray(self.b_block, dtype=np.float64))
        object.__setattr__(self, "c_block", np.asarray(self.c_block, dtype=np.float64))

    @property
    def signature(self) -> tuple[int, int]:
        return self.a_block.shape[-1], self.c_block.shape[-1]


@dataclass(frozen=True)
class PTSystem:
    """A Hamiltonian bound to its parity operator, with construction record."""

    h: np.ndarray
    p: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


class MatrixClass(enum.Enum):
    REAL_SYMMETRIC = "real_symmetric"
    HERMITIAN = "hermitian"
    PT_SYMMETRIC = "pt_symmetric"
    SYMMETRIC = "symmetric"


def n_rotation_angles(d: int) -> int:
    return d * (d - 1) // 2


@functools.lru_cache(maxsize=None)
def _triu(m: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, k), computed once per (m, k) and read-only, since
    every caller shares the cached arrays."""
    i, j = np.triu_indices(m, k)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def make_rotation(d: int, angles) -> np.ndarray:
    """Orthogonal matrix with det +1: the left-to-right product of Givens
    rotations, one per index pair i < j in lexicographic order, the k-th
    acting as [[cos, -sin], [sin, cos]] of angles[k] in its (i, j) plane."""
    ang = np.asarray(angles, dtype=np.float64).ravel()
    n = n_rotation_angles(d)
    if ang.shape[0] != n:
        raise ValueError(f"dimension {d} needs {n} angles, got {ang.shape[0]}")
    i, j = _triu(d, 1)
    k = np.arange(n)
    c, s = np.cos(ang), np.sin(ang)
    g = np.tile(np.eye(d), (n, 1, 1))
    g[k, i, i] = c
    g[k, j, j] = c
    g[k, i, j] = -s
    g[k, j, i] = s
    r = np.eye(d)
    for gk in g:
        r = r @ gk
    return r


def make_p0(m_plus: int, m_minus: int) -> np.ndarray:
    """Diagonal parity: m_plus entries of +1 followed by m_minus of -1."""
    if m_plus < 0 or m_minus < 0:
        raise ValueError("eigenvalue counts must be nonnegative")
    if m_plus + m_minus < 1:
        raise ValueError("parity needs at least one eigenvalue")
    return np.diag(np.concatenate([np.ones(m_plus), -np.ones(m_minus)])).astype(
        np.complex128
    )


def _rotated(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """R m R^T, exactly symmetric; m is a matrix or an (N, D, D) stack."""
    x = r @ m @ r.T
    return (x + x.swapaxes(-1, -2)) / 2.0


def make_parity(spec: ParitySpec) -> np.ndarray:
    """Realize P = R P0 R^T; real symmetric with P^2 = I."""
    p0 = make_p0(spec.m_plus, spec.m_minus)
    return _rotated(make_rotation(spec.dim, spec.angles), p0.real).astype(np.complex128)


def make_h0(blocks: BlockForm) -> np.ndarray:
    """Assemble [[A, iB], [iB^T, C]]; complex symmetric by construction.
    Blocks with a leading stack axis give an (N, D, D) stack."""
    a, b, c = blocks.a_block, blocks.b_block, blocks.c_block
    mp, mm = blocks.signature
    stack = a.shape[:-2]
    want = (stack + (mp, mp), stack + (mp, mm), stack + (mm, mm))
    if (a.shape, b.shape, c.shape) != want:
        raise ValueError(f"blocks A, B, C need shapes {want}, got {(a.shape, b.shape, c.shape)}")
    at, ct = a.swapaxes(-1, -2), c.swapaxes(-1, -2)
    if max_abs(a - at) > SYMMETRY_TOL or max_abs(c - ct) > SYMMETRY_TOL:
        raise ValueError("A and C must be symmetric")
    d = mp + mm
    h0 = np.zeros(stack + (d, d), dtype=np.complex128)
    h0[..., :mp, :mp] = (a + at) / 2.0
    h0[..., :mp, mp:] = 1j * b
    h0[..., mp:, :mp] = 1j * b.swapaxes(-1, -2)
    h0[..., mp:, mp:] = (c + ct) / 2.0
    return h0


def pt_matrices(blocks: BlockForm, spec: ParitySpec) -> tuple[np.ndarray, np.ndarray]:
    """(H, P) = (R H0 R^T, R P0 R^T) with one rotation R. H is a matrix, or an
    (N, D, D) stack for stacked blocks; P is one (D, D) matrix either way."""
    if blocks.signature != (spec.m_plus, spec.m_minus):
        raise ValueError(
            f"block signature {blocks.signature} does not match parity "
            f"signature {(spec.m_plus, spec.m_minus)}"
        )
    h0 = make_h0(blocks)
    r = make_rotation(spec.dim, spec.angles)
    p0 = make_p0(spec.m_plus, spec.m_minus)
    return _rotated(r, h0), _rotated(r, p0.real).astype(np.complex128)


def make_pt_system(blocks: BlockForm, spec: ParitySpec, seed=None) -> PTSystem:
    """Rotate (H0, P0) by the same R into a bound PT-symmetric pair."""
    h, p = pt_matrices(blocks, spec)
    provenance = {
        "signature": [spec.m_plus, spec.m_minus],
        "angles": [float(x) for x in spec.angles],
        "blocks": {
            "A": blocks.a_block.tolist(),
            "B": blocks.b_block.tolist(),
            "C": blocks.c_block.tolist(),
        },
        "seed": seed,
    }
    check_pt_pairs(h, p)
    return PTSystem(h=h, p=p, provenance=provenance)


def pt_system_from_matrices(h, p, provenance=None, tol: float = DEFAULT_TOL) -> PTSystem:
    """Bind an existing (H, P) pair, validating all structural invariants."""
    hm = as_matrix(h)
    pm = as_matrix(p)
    if hm.shape != pm.shape:
        raise ValueError("H and P must share a dimension")
    if hm.shape[0] < 1:
        raise ValueError("dimension must be at least 1")
    check_pt_pairs(hm, pm, tol)
    return PTSystem(h=hm, p=pm, provenance=provenance or {})


def check_pt_pairs(h: np.ndarray, p: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Validate (h, p), or every (h[n], p[n]) of two (N, D, D) complex stacks, as
    pt_system_from_matrices does: finite entries, H symmetric, P a real
    symmetric involution, P conj(H) P = H. One (D, D) p serves every row of an
    H stack, and is validated once. Raises ValueError for the first check any
    row fails."""
    if not (np.isfinite(h).all() and np.isfinite(p).all()):
        raise ValueError("matrix contains NaN or Inf entries")
    if max_abs(h - h.swapaxes(-1, -2)) > SYMMETRY_TOL:
        raise ValueError("H must be symmetric")
    _check_parities(p, tol)
    # P is real, so P conj(H) P - H is (P Re H P - Re H) - i (P Im H P + Im H)
    pr, hr, hi = p.real, h.real, h.imag
    resid = max_abs(np.hypot(pr @ hr @ pr - hr, pr @ hi @ pr + hi))
    if resid > PT_COMMUTATION_TOL:
        raise ValueError(
            f"H does not commute with the PT operation for this P (residual "
            f"{resid:.3e} > PT_COMMUTATION_TOL {PT_COMMUTATION_TOL:.0e})"
        )


def validate_parity(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check that p is a real symmetric involution; return it as a matrix."""
    pm = as_matrix(p)
    _check_parities(pm, tol)
    return pm


def _check_parities(p: np.ndarray, tol: float) -> None:
    """validate_parity of one matrix or of each matrix of a stack."""
    if max_abs(p.imag) > tol:
        raise ValueError("parity must be real")
    if max_abs(p - p.swapaxes(-1, -2)) > tol:
        raise ValueError("parity must be symmetric")
    if max_abs(p @ p - np.eye(p.shape[-1])) > max(tol, 1e-12):
        raise ValueError("parity must square to the identity")


def count_parity_params(d: int, m_plus: int, m_minus: int) -> int:
    """Free real parameters in a parity with the given signature."""
    if d < 0 or m_plus < 0 or m_minus < 0:
        raise ValueError("counts must be nonnegative")
    if m_plus + m_minus != d:
        raise ValueError("signature must sum to the dimension")
    return (
        d * (d - 1) // 2 - m_plus * (m_plus - 1) // 2 - m_minus * (m_minus - 1) // 2
    )


@dataclass(frozen=True)
class ParameterCounts:
    """Free real parameters in the five matrix families at one dimension."""

    parity_max: int
    h0: int
    pt: int
    hermitian: int
    real_symmetric: int


def parameter_table(d: int) -> ParameterCounts:
    """Closed-form parameter counts at dimension d.

    parity_max maximizes over signatures: balanced for even d, and
    m_plus - m_minus = 1 for odd d.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return ParameterCounts(
        parity_max=d * d // 4,
        h0=d * (d + 1) // 2,
        pt=(3 * d * d + 2 * d - (d % 2)) // 4,
        hermitian=d * d,
        real_symmetric=d * (d + 1) // 2,
    )


def max_signature(d: int) -> tuple[int, int]:
    """Signature with the most parity parameters: balanced, or off by one."""
    return (d + 1) // 2, d // 2


def pt_commutes(h, p, tol: float = DEFAULT_TOL, conjugate_transpose: bool = False) -> bool:
    """Whether P (T h) P == h, with T either plain conjugation or
    conjugate-transpose. For symmetric h the two predicates coincide
    entrywise."""
    hm = as_matrix(h)
    pm = as_matrix(p)
    ht = hm.conj().T if conjugate_transpose else hm.conj()
    return max_abs(pm @ ht @ pm - hm) <= tol


def classify_matrix(m, p=None, tol: float = DEFAULT_TOL) -> set[MatrixClass]:
    """Membership flags by direct predicate evaluation.

    PT_SYMMETRIC is only decidable when a parity is supplied; an invalid
    parity (not a real symmetric involution) raises.
    """
    a = as_matrix(m)
    flags: set[MatrixClass] = set()
    if is_symmetric(a, tol):
        flags.add(MatrixClass.SYMMETRIC)
    if is_hermitian(a, tol):
        flags.add(MatrixClass.HERMITIAN)
    if is_real(a, tol) and is_symmetric(a, tol):
        flags.add(MatrixClass.REAL_SYMMETRIC)
    if p is not None:
        pm = validate_parity(p, tol)
        if pt_commutes(a, pm, tol):
            flags.add(MatrixClass.PT_SYMMETRIC)
    return flags


# --- seeded random generation ------------------------------------------------
#
# The generator is numpy's default_rng (PCG64) with a 64-bit seed. Draw order
# is fixed: A's upper triangle row-major, then B row-major, then C's upper
# triangle, then the rotation angles. Block entries are uniform on [-1, 1],
# angles uniform on [0, 2*pi).


def block_draw_count(m_plus: int, m_minus: int) -> int:
    """Uniform draws behind one BlockForm: A's and C's upper triangles and B."""
    return m_plus * (m_plus + 1) // 2 + m_plus * m_minus + m_minus * (m_minus + 1) // 2


def blocks_from_draws(vals, m_plus: int, m_minus: int) -> BlockForm:
    """Split block_draw_count(m_plus, m_minus) draws, in draw order, into A, B
    and C; an (N, k) stack of draws gives stacked blocks."""
    vals = np.asarray(vals, dtype=np.float64)
    stack = vals.shape[:-1]
    na, nb = m_plus * (m_plus + 1) // 2, m_plus * m_minus

    def symmetric(upper: np.ndarray, m: int) -> np.ndarray:
        out = np.zeros(stack + (m, m))
        i, j = _triu(m)
        out[..., i, j] = upper
        out[..., j, i] = upper
        return out

    return BlockForm(
        a_block=symmetric(vals[..., :na], m_plus),
        b_block=vals[..., na:na + nb].reshape(stack + (m_plus, m_minus)),
        c_block=symmetric(vals[..., na + nb:], m_minus),
    )


def block_frame(draws, m_plus: int, m_minus: int) -> np.ndarray:
    """The real matrix M = S^-1 H0 S = [[A, -B], [B^T, C]], S = diag(I, iI),
    of the blocks that blocks_from_draws(draws, m_plus, m_minus) gives, or an
    (N, D, D) stack of them for an (N, k) stack of draws.

    S is unitary, so M has the eigenvalues of H0 = make_h0(blocks), and x is a
    unit eigenvector of M exactly when Sx is one of H0, with the same residual.
    """
    blocks = blocks_from_draws(draws, m_plus, m_minus)
    a, b, c = blocks.a_block, blocks.b_block, blocks.c_block
    top = np.concatenate([a, -b], axis=-1)
    return np.concatenate([top, np.concatenate([b.swapaxes(-1, -2), c], axis=-1)], axis=-2)


def random_blocks(rng: np.random.Generator, m_plus: int, m_minus: int) -> BlockForm:
    """One draw of block_draw_count(m_plus, m_minus) uniforms: the same values,
    and the same generator state after, as drawing A, B and C one by one."""
    return blocks_from_draws(
        rng.uniform(-1.0, 1.0, block_draw_count(m_plus, m_minus)), m_plus, m_minus
    )


def random_angles(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * np.pi, n_rotation_angles(d))


def random_pt_system(dim: int, signature: tuple[int, int], seed: int) -> PTSystem:
    """Reproducible random system: same (dim, signature, seed) gives the same
    matrices on every platform."""
    m_plus, m_minus = signature
    if m_plus + m_minus != dim:
        raise ValueError("signature must sum to the dimension")
    rng = np.random.default_rng(seed)
    blocks = random_blocks(rng, m_plus, m_minus)
    spec = ParitySpec(m_plus=m_plus, m_minus=m_minus, angles=random_angles(rng, dim))
    return make_pt_system(blocks, spec, seed=seed)
