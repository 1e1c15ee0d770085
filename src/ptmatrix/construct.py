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

from .linalg import as_matrix, max_abs

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
    Blocks with a leading stack axis give an (N, D, D) stack. A and C must be
    symmetric within SYMMETRY_TOL of each matrix's largest entry."""
    a, b, c = blocks.a_block, blocks.b_block, blocks.c_block
    mp, mm = blocks.signature
    stack = a.shape[:-2]
    want = (stack + (mp, mp), stack + (mp, mm), stack + (mm, mm))
    if (a.shape, b.shape, c.shape) != want:
        raise ValueError(f"blocks A, B, C need shapes {want}, got {(a.shape, b.shape, c.shape)}")
    at, ct = a.swapaxes(-1, -2), c.swapaxes(-1, -2)
    if not (_symmetric_rows(a) and _symmetric_rows(c)):
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


def pt_system_from_matrices(h, p, provenance=None) -> PTSystem:
    """Bind an existing (H, P) pair, validating all structural invariants."""
    hm = as_matrix(h)
    pm = as_matrix(p)
    if hm.shape != pm.shape:
        raise ValueError("H and P must share a dimension")
    if hm.shape[0] < 1:
        raise ValueError("dimension must be at least 1")
    check_pt_pairs(hm, pm)
    return PTSystem(h=hm, p=pm, provenance=provenance or {})


def check_pt_pairs(h: np.ndarray, p: np.ndarray) -> None:
    """Validate (h, p), or every (h[n], p[n]) of two (N, D, D) complex stacks, as
    pt_system_from_matrices does: finite entries, H symmetric within
    SYMMETRY_TOL * max|H|, P a real symmetric involution (validate_parity),
    and P conj(H) P = H within PT_COMMUTATION_TOL * max|H|, each bound taken
    with the row's own max|H|, so H -> kH and H -> H + rI keep the outcome.
    One (D, D) p serves every row of an H stack, and is validated once.
    Raises ValueError for the first check any row fails."""
    if not (np.isfinite(h).all() and np.isfinite(p).all()):
        raise ValueError("matrix contains NaN or Inf entries")
    size = np.atleast_1d(np.abs(h).max(axis=(-2, -1)))
    if _first_row_above(h - h.swapaxes(-1, -2), SYMMETRY_TOL * size) is not None:
        raise ValueError("H must be symmetric")
    _check_parities(p)
    resid = _pt_residual(h, p)
    n = _first_row_above(resid, PT_COMMUTATION_TOL * size)
    if n is not None:
        raise ValueError(
            f"H does not commute with the PT operation for this P (residual "
            f"{resid.reshape(-1, h.shape[-1] ** 2)[n].max():.3e} > PT_COMMUTATION_TOL * "
            f"max|H| = {PT_COMMUTATION_TOL * size[n]:.3e})"
        )


def _pt_residual(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|P conj(H) P - H| entrywise, for one matrix h or a stack, with P real
    (a validated parity): P conj(H) P - H is (P Re H P - Re H) - i (P Im H P
    + Im H)."""
    pr, hr, hi = p.real, h.real, h.imag
    return np.hypot(pr @ hr @ pr - hr, pr @ hi @ pr + hi)


def _first_row_above(diff: np.ndarray, bound: np.ndarray) -> int | None:
    """The index of the first matrix of diff, one matrix or a stack, whose
    largest |entry| is above its entry of bound (one per matrix), or None.
    One maximum over the whole stack decides a stack within every bound."""
    mag = np.abs(diff)
    if mag.max(initial=0.0) <= bound.min(initial=np.inf):
        return None
    above = np.atleast_1d(mag.max(axis=(-2, -1)) > bound)
    return int(above.argmax()) if above.any() else None


def _symmetric_rows(m: np.ndarray) -> bool:
    """Whether max|m - m^T| <= SYMMETRY_TOL * max|m| holds for a matrix, or
    for each matrix of a stack."""
    size = np.atleast_1d(np.abs(m).max(axis=(-2, -1), initial=0.0))
    return _first_row_above(m - m.swapaxes(-1, -2), SYMMETRY_TOL * size) is None


def validate_parity(p) -> np.ndarray:
    """Check that p is a real symmetric involution, each within the absolute
    PT_COMMUTATION_TOL (P is orthogonal, so of unit scale); return it as a
    matrix."""
    pm = as_matrix(p)
    _check_parities(pm)
    return pm


def _check_parities(p: np.ndarray) -> None:
    """validate_parity of one matrix or of each matrix of a stack."""
    if max_abs(p.imag) > PT_COMMUTATION_TOL:
        raise ValueError("parity must be real")
    if max_abs(p - p.swapaxes(-1, -2)) > PT_COMMUTATION_TOL:
        raise ValueError("parity must be symmetric")
    if max_abs(p @ p - np.eye(p.shape[-1])) > PT_COMMUTATION_TOL:
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


def classify_matrix(m, p=None) -> set[MatrixClass]:
    """Membership flags of m, each bound relative to max|m|, so m -> km keeps
    every flag: SYMMETRIC within SYMMETRY_TOL of max|m - m^T|, HERMITIAN
    within SYMMETRY_TOL of max|m - m^H|, REAL_SYMMETRIC both (together they
    bound max|Im m| by the same), and PT_SYMMETRIC within PT_COMMUTATION_TOL
    of max|P conj(m) P - m|: the bounds check_pt_pairs enforces, so every
    pair that pt_system_from_matrices accepts is SYMMETRIC and PT_SYMMETRIC.

    PT_SYMMETRIC is only decidable when a parity is supplied; an invalid
    parity (not a real symmetric involution) raises, and so does a
    non-finite m.
    """
    a = as_matrix(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    size = np.atleast_1d(max_abs(a))
    flags: set[MatrixClass] = set()
    if _first_row_above(a - a.T, SYMMETRY_TOL * size) is None:
        flags.add(MatrixClass.SYMMETRIC)
    if _first_row_above(a - a.conj().T, SYMMETRY_TOL * size) is None:
        flags.add(MatrixClass.HERMITIAN)
    if {MatrixClass.SYMMETRIC, MatrixClass.HERMITIAN} <= flags:
        flags.add(MatrixClass.REAL_SYMMETRIC)
    if p is not None:
        resid = _pt_residual(a, validate_parity(p))
        if _first_row_above(resid, PT_COMMUTATION_TOL * size) is None:
            flags.add(MatrixClass.PT_SYMMETRIC)
    return flags


# --- seeded random generation ------------------------------------------------
#
# The generator is numpy's default_rng (PCG64) with a 64-bit seed. Draw order
# is fixed: A's upper triangle row-major, then B row-major, then C's upper
# triangle, then the rotation angles. Block entries are uniform on [-1, 1],
# angles uniform on [0, 2*pi).
#
# block_draws gives the block entries of many seeds as default_rng draws
# them, without building a Generator. It relies on three streams staying as
# they are: the SeedSequence stream (its entropy pool and the
# generate_state(4, np.uint64) hash of that pool into PCG64's seeding words),
# the PCG64 bit stream from those words, and Generator.uniform's map low +
# (high - low) * ((raw >> 11) * 2^-53) of each raw 64-bit output. numpy keeps
# seeded bit streams stable across versions but allows Generator methods to
# change theirs (NEP 19), so
# tests/test_construct.py::test_block_draws_match_default_rng pins all three.

# SeedSequence's output hash: seeding word i of 8 uint32 words is pool[i % 4]
# XOR _SEED_HASH[i], times _SEED_HASH[i + 1] mod 2^32, then x ^= x >> 16, with
# _SEED_HASH[0] = 0x8B51F9DD and each next constant the last times 0x58F38DED
_SEED_HASH = np.array(
    [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32
)


@functools.cache
def _seeding_words() -> type:
    """A SeedSequence stand-in that hands a BitGenerator seeding words already
    hashed from a pool. Made on first use, so that importing this module does
    not load numpy.random."""

    class SeedingWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedingWords


def block_draw_count(m_plus: int, m_minus: int) -> int:
    """Uniform draws behind one BlockForm: A's and C's upper triangles and B."""
    return m_plus * (m_plus + 1) // 2 + m_plus * m_minus + m_minus * (m_minus + 1) // 2


def block_draws(seeds, m_plus: int, m_minus: int) -> np.ndarray:
    """The (N, k) block draws of N non-negative integer seeds, k =
    block_draw_count(m_plus, m_minus): bit for bit np.stack([
    np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds]).

    Each seed keeps numpy's SeedSequence pool and PCG64 stream; only the
    pool's hash into PCG64's seeding words and the map to [-1, 1) run once
    for the whole block.
    """
    k = block_draw_count(m_plus, m_minus)
    pools = np.array([np.random.SeedSequence(s).pool for s in seeds], dtype=np.uint32)
    pools = pools.reshape(-1, 4)
    x = np.concatenate((pools, pools), axis=1) ^ _SEED_HASH[:8]
    x *= _SEED_HASH[1:]
    x ^= x >> 16
    # uint64 word j is 32-bit word 2j with word 2j + 1 above it, on any byte
    # order, as generate_state(4, np.uint64) pairs them
    x = x.astype(np.uint64)
    words = x[:, 0::2] | x[:, 1::2] << 32
    seeding = _seeding_words()
    raw = np.empty((len(words), k), dtype=np.uint64)
    for n, row in enumerate(words):
        raw[n] = np.random.PCG64(seeding(row)).random_raw(k)
    return -1.0 + 2.0 * ((raw >> 11) * (1.0 / 9007199254740992.0))


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


@functools.lru_cache(maxsize=None)
def _frame_gather(m_plus: int, m_minus: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign), (D, D) each and read-only: block_frame's M of a row of
    draws is sign * draws[index]. index lays out the draw positions 0..k-1
    as blocks_from_draws lays out draws, [[A, B], [B^T, C]]; sign is -1 on
    the (A, B) block."""
    pos = blocks_from_draws(np.arange(block_draw_count(m_plus, m_minus)), m_plus, m_minus)
    b = pos.b_block
    index = np.block([[pos.a_block, b], [b.T, pos.c_block]]).astype(np.intp)
    sign = np.ones(index.shape)
    sign[:m_plus, m_plus:] = -1.0
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


def block_frame(draws, m_plus: int, m_minus: int) -> np.ndarray:
    """The real matrix M = S^-1 H0 S = [[A, -B], [B^T, C]], S = diag(I, iI),
    of the blocks that blocks_from_draws(draws, m_plus, m_minus) gives, or an
    (N, D, D) stack of them for an (N, k) stack of draws, gathered in one
    indexing pass (_frame_gather).

    S is unitary, so M has the eigenvalues of H0 = make_h0(blocks), and x is a
    unit eigenvector of M exactly when Sx is one of H0, with the same residual.
    """
    draws = np.asarray(draws, dtype=np.float64)
    k = block_draw_count(m_plus, m_minus)
    if draws.shape[-1:] != (k,):
        raise ValueError(
            f"signature {(m_plus, m_minus)} needs {k} draws per row, got shape {draws.shape}"
        )
    index, sign = _frame_gather(m_plus, m_minus)
    frames = draws[..., index]
    frames *= sign
    return frames


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
