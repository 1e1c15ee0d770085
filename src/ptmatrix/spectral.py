"""PT-phase classification and PT-norm signatures in the real Krein frame.

The PT operation sends v to P conj(v). P is a real symmetric involution, so
P = Q J Q^T with Q real orthogonal and J diagonal with entries +-1. With S
diagonal, 1 on J's +1 entries and i on its -1 entries, a PT-symmetric
complex symmetric H has a real matrix M = (QS)^H H (QS), and JM is symmetric:
M is self-adjoint in the Krein space (R^D, J) (Mostafazadeh, J. Math. Phys.
43 205, 2002). One real eigensolve of M decides the phase by its structure,
since LAPACK dgeev returns a real eigenvalue with a real eigenvector x and
the others in exact conjugate pairs. v = QSx is then an eigenvector of H
that the PT operation fixes (J conj(S) = S), and v^T v = x^T J x is real; its
sign is v's PT norm sign.

Every matrix product around the frame is real. Q is real and conj(s_j) s_k
is 1, i or -i, so M is made of signed entries of Q^T Re(h) Q and
Q^T Im(h) Q; v = Q Re(Sx) + i Q Im(Sx); and h's residuals
come from Re(h) and Im(h) times the real and imaginary parts of v
(linalg.real_matmul, which gives a @ Re x and a @ Im x from one real
product).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .construct import PTSystem, block_draws, block_frame, check_pt_pairs
from .errors import ConvergenceError
from .linalg import (
    COND_CAP, DEFAULT_TOL, check_tol, column_norms, eig_arrays, frobenius_norms, in_units,
    multi_clusters, real_mask, real_matmul,
)

# An L2-normalized eigenvector of a symmetric matrix has |v^T v| -> 0 exactly
# when eigenvectors coalesce; for the two-level family the value equals
# sqrt(|1 - s^2/t^2|), so this threshold flags |s - t| < 2e-8 at t = 1.
EP_ISOTROPY_TOL = 2e-4

# eigenvector entries whose magnitudes lie within this relative distance of
# the column's largest count as tied for it in the sign convention, so a tie
# that a symmetry makes exact (the eigenvector (1, -1, 0)/sqrt(2) of an H and
# P both invariant under swapping two indices) is not decided by round-off
SIGN_TIE_RTOL = 1e-9

# seeds prescreened per block by find_unbroken_seeds: a first block of 16
# already gets most of the batching gain and costs a short scan little;
# doubling to 512 amortizes long scans at bounded memory
SCAN_BLOCK_FIRST = 16
SCAN_BLOCK_MAX = 512

# the scan's Hermite prescreen (_hermite_keep) tests the leading block of at
# most this many rows of the power-sum Hankel matrix, p_0..p_8: it already
# rejects over 99% of (6,2) draws, and each further row costs a D x D product
# per seed and adds about D^2 eps to the round-off of the highest power sum
HERMITE_TERMS = 5
# a seed is rejected when that block's smallest eigenvalue lies below
# -HERMITE_MARGIN times its largest; see _hermite_keep for why no real
# spectrum comes near it
HERMITE_MARGIN = 1e-6


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    EXCEPTIONAL = "exceptional"


# the Phase of each PhaseStack code, looked up for a whole stack at once
PHASE_OF_CODE = np.array(list(Phase), dtype=object)


@dataclass(frozen=True)
class SpectralData:
    """One row of a PhaseStack: eigenvalues w (D,), eigenvector columns v
    (D, D), PT-fixed and orthogonal under v^T w within a cluster when
    unbroken, and their residuals (D,), plus the phase verdict and (unbroken
    only) the PT-norm signs."""

    w: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    phase: Phase
    real_count: int
    conjugate_pairs: int
    pt_norm_signs: np.ndarray | None


def pt_apply(v, p) -> np.ndarray:
    """Apply the PT operation: conjugate, then multiply by the parity."""
    vec = np.asarray(v, dtype=np.complex128)
    pm = np.asarray(p, dtype=np.complex128)
    if vec.ndim != 1 or pm.shape != (vec.shape[0], vec.shape[0]):
        raise ValueError("vector and parity dimensions do not match")
    return pm @ vec.conj()


@dataclass(frozen=True)
class PhaseStack:
    """Classification of an (N, D, D) stack of systems, one row per system.

    w (N, D) is sorted by (Re, Im); codes (N,) holds each row's phase as an
    index into PHASE_OF_CODE (the order of Phase), and signs the PT-norm
    signs of unbroken rows and 0 elsewhere. v (N, D, D) holds unit
    eigenvector columns, PT-fixed in unbroken rows (see SpectralData), and
    residuals (N, D) their eigenpair residuals; the verdict does not need
    them, so each is formed from the frame the verdict leaves (_frame) when
    first read, v at most once, and kept. The stack is read-only: assigning
    any attribute raises.
    """

    w: np.ndarray
    codes: np.ndarray
    real_count: np.ndarray
    conjugate_pairs: np.ndarray
    signs: np.ndarray
    # (q, plus, x, fixed, hr, hi, e): Q and J's +1 mask, dgeev's columns x
    # and the verdict's fixed ones, Re h and Im h, and the units e
    _frame: tuple = field(repr=False, compare=False)

    @property
    def phases(self) -> list[Phase]:
        return PHASE_OF_CODE[self.codes].tolist()

    @functools.cached_property
    def v(self) -> np.ndarray:
        q, plus, x, fixed, _, _, _ = self._frame
        n, d = self.w.shape
        # an exceptional row keeps dgeev's eigenvectors: at an exceptional point
        # Re x and Im x of a pair span a Jordan chain, not eigenvectors
        v = _frame_vectors(q, plus, np.where((self.codes == 0)[:, None, None], fixed, x))
        # the leftover sign: the first entry within SIGN_TIE_RTOL of the largest
        # magnitude gets a positive real part, or a positive imaginary part when
        # its real part is 0
        mag = np.abs(v)
        first = (mag >= (1.0 - SIGN_TIE_RTOL) * mag.max(axis=1, keepdims=True)).argmax(axis=1)
        top = v[np.arange(n)[:, None], first, np.arange(d)]
        return np.where(((top.real < 0.0) | ((top.real == 0.0) & (top.imag < 0.0)))[:, None, :],
                        -v, v)

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        _, _, _, _, hr, hi, e = self._frame
        v = self.v
        # h v from the real products Re h Re v, Re h Im v, Im h Re v and Im h Im v,
        # in M's unit
        hv = real_matmul(in_units(hr, e), v) + 1j * real_matmul(in_units(hi, e), v)
        return in_units(column_norms(hv - v * in_units(self.w, e)[:, None, :]), -e)

    def row(self, n: int) -> SpectralData:
        """Row n as SpectralData; its arrays are views of the stack's."""
        phase = PHASE_OF_CODE[self.codes[n]]
        return SpectralData(
            w=self.w[n],
            v=self.v[n],
            residuals=self.residuals[n],
            phase=phase,
            real_count=int(self.real_count[n]),
            conjugate_pairs=int(self.conjugate_pairs[n]),
            pt_norm_signs=self.signs[n] if phase is Phase.UNBROKEN else None,
        )


def classify_phase(sys: PTSystem, tol: float = DEFAULT_TOL) -> SpectralData:
    """Unbroken, broken, or exceptional, with the spectrum and norm signs.

    Exceptional: an eigenvector as dgeev returns it is numerically isotropic
    (|v^T v| below EP_ISOTROPY_TOL with unit L2 norm), or, with a real
    spectrum, an eigenvalue cluster has no basis of eigenvectors. Broken:
    otherwise, when an eigenvalue is not real (linalg.real_mask). Unbroken:
    all other systems; their eigenvectors are PT-fixed. tol bounds the
    relative backward error of the eigenpairs; see classify_stack, whose
    ConvergenceError this raises. A PTSystem is a checked pair, so sys is
    not checked again.
    """
    return _classify(sys.h[None], sys.p[None], tol).row(0)


def classify_stack(h, p, tol: float = DEFAULT_TOL) -> PhaseStack:
    """classify_phase of every (h[n], p[n]) of two (N, D, D) stacks at once;
    one (D, D) p serves every row of h.

    Each row is solved in its real Krein frame M = (QS)^H h (QS) (see the
    module docstring), one batched dgeev call for the stack. v = QSx and
    the residuals are formed for the whole stack when first read
    (PhaseStack.v), so a caller that reads only w and codes, as the CLI sweep
    does, never forms them. The verdict comes from dgeev's eigenpairs alone
    (_verdict, which find_unbroken_seeds shares): the exceptional-point test
    |x^T J x| < EP_ISOTROPY_TOL runs on dgeev's own columns x, and Python
    runs per row only to give each eigenvalue cluster of a real spectrum one
    basis under J (_krein_basis). The reported residuals are those of h's eigenpairs
    (w, v), computed in M's unit 2^e (eig_arrays) and scaled back, so none
    overflows; tol bounds those of M relative to ||M||_F, which equal
    ||h v - w v||_2 and ||h||_F up to round-off, as QS is unitary, so
    h -> kh and h -> h + rI keep every verdict.

    A failure in any row raises for the whole stack: ValueError, from
    construct.check_pt_pairs, for a pair that PTSystem would
    reject (a non-finite entry, an H that is not symmetric, a P that is not a
    real symmetric involution, or an H that does not commute with the PT
    operation), and ConvergenceError for a frame M whose entries, up to D
    max|h|, overflow the float range, or for a residual of M above
    tol * ||M||_F.
    """
    hs = np.asarray(h, dtype=np.complex128)
    ps = np.asarray(p, dtype=np.complex128)
    if hs.ndim != 3 or hs.shape[1] < 1 or ps.shape not in (hs.shape, hs.shape[1:]):
        raise ValueError(
            "expected an (N, D, D) stack with D >= 1 and a (D, D) parity or a stack of "
            f"the same shape, got {hs.shape} and {ps.shape}"
        )
    check_pt_pairs(hs, ps)
    return _classify(hs, ps, tol)


def _classify(hs: np.ndarray, ps: np.ndarray, tol: float) -> PhaseStack:
    """classify_stack of complex stacks that have passed check_pt_pairs."""
    hr, hi = np.ascontiguousarray(hs.real), np.ascontiguousarray(hs.imag)
    m, q, plus = _krein_frame(hr, hi, ps)
    w, x, e, nu = eig_arrays(m, tol)
    wu = in_units(w, e)
    real, broken, unbroken, fixed, norms = _verdict(w, wu, x, plus, nu)
    d = w.shape[1]
    return PhaseStack(
        w=w,
        codes=np.where(unbroken, 0, np.where(broken, 1, 2)),
        real_count=np.where(broken, real.sum(axis=1), np.where(unbroken, d, 0)),
        conjugate_pairs=np.where(broken, (~real).sum(axis=1) // 2, 0),
        signs=np.where(unbroken[:, None], np.where(norms.real > 0.0, 1, -1), 0),
        _frame=(q, plus, x, fixed, hr, hi, e),
    )


def _verdict(w: np.ndarray, wu: np.ndarray, x: np.ndarray, plus: np.ndarray,
             nu: np.ndarray) -> tuple[np.ndarray, ...]:
    """The phase of each row of dgeev's eigenpairs (w (N, D), x (N, D, D),
    as eig_arrays gives them) of real Krein frames M, with w and ||M||_F in
    each row's unit in wu and nu (N,) (linalg.in_units), and J's +1 entries
    in plus ((D,) or (N, D)): (real, broken, unbroken, fixed, norms).

    real (N, D) marks the eigenvalues linalg.real_mask counts as real; broken
    and unbroken (N,) are the rows of those phases, and the other rows are
    exceptional. fixed (N, D, D) holds x with a pair counted as real replaced
    by Re x and Im x and each eigenvalue cluster of an unbroken row given one
    basis under J (_krein_basis); norms (N, D) holds its x^T J x, whose signs
    are the PT-norm signs of an unbroken row.
    """
    n, d = w.shape
    real = real_mask(wu, nu)
    broken = ~real.all(axis=1)
    # a real eigenvalue has a real x; a pair (w, conj w) counted as real
    # spans Re x and Im x, taken from its -Im and +Im column; w, not wu,
    # tells them apart, as a tiny Im w can underflow to 0 in units
    pair = (w.imag != 0.0) & ~broken[:, None]
    fixed = x
    if pair.any():
        basis = np.where(w.imag[:, None, :] > 0.0, x.imag, x.real)
        fixed = np.where(pair[:, None, :], basis / column_norms(basis)[:, None, :], x)
    # v^T v = x^T J x: real for a PT-fixed v, and 1/kappa of its eigenvalue;
    # 0 for a defective one, whose left eigenvector is Jx, so it is tested
    # before a cluster's basis can mix an isotropic x away
    sign = np.where(plus, 1.0, -1.0)[..., :, None]
    norms = np.einsum("nik,nik->nk", sign * fixed, fixed)
    exceptional = (np.abs(norms) < EP_ISOTROPY_TOL).any(axis=1)
    found = {row: runs for row, runs in multi_clusters(wu, nu).items()
             if not broken[row] and not exceptional[row]}
    if found:
        # a cluster row that is not broken is real; each cluster gets one basis
        fixed, row_sign = fixed.real.copy(), np.broadcast_to(sign, (n, d, 1))
        for row, runs in found.items():
            exceptional[row] = not all(
                _krein_basis(fixed[row, :, c.start:c.stop], row_sign[row],
                             norms[row, c.start:c.stop])
                for c in runs if len(c) > 1)
    broken &= ~exceptional
    unbroken = ~exceptional & ~broken
    return real, broken, unbroken, fixed, norms


def _krein_frame(hr: np.ndarray, hi: np.ndarray,
                 p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Q, plus) of an (N, D, D) stack h = hr + i hi and one (D, D)
    parity p or a stack of them: P = Q J Q^T from eigh, plus marks J's +1
    entries, and M = Re (QS)^H h (QS) with S = 1 on them and i elsewhere.

    Q is real, so Q^T h Q = G is Q^T hr Q + i Q^T hi Q, and M_jk =
    conj(s_j) s_k G_jk with conj(s_j) s_k = 1 on J's diagonal blocks, i on
    its (+, -) block and -i on its (-, +) block: Re M is made of entries of
    the two real products, exactly, with a sign. Im M is half an entry of
    Q^T (P conj(h) P - h) Q, so it vanishes, up to the bound of
    construct.check_pt_pairs, for every pair that check admits; it is not
    formed.
    """
    lam, q = np.linalg.eigh(p.real)
    plus = lam > 0.0
    qt = q.swapaxes(-1, -2)
    # an entry of Q^T h Q can reach D max|h|: past the float range for a
    # finite h near it, which is reported below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gr, gi = qt @ hr @ q, qt @ hi @ q
    # Im(conj(s_j) s_k): 0 on J's diagonal blocks, +1 on (+, -), -1 on (-, +)
    turn = plus[..., :, None] * 1.0 - plus[..., None, :]
    m = np.where(turn == 0.0, gr, -turn * gi)
    if not np.isfinite(m).all():
        n = int((~np.isfinite(m)).any(axis=(1, 2)).argmax())
        raise ConvergenceError(
            f"the real Krein frame of H overflows the float range: its entries reach "
            f"up to D * max|H|, and max|H| = {np.hypot(hr[n], hi[n]).max():.3e}"
        )
    return m, q, plus


def _krein_basis(xc: np.ndarray, sign: np.ndarray, norms: np.ndarray) -> bool:
    """Replace the unit columns xc (D, k) of one real eigenvalue cluster by
    a basis of their span orthonormal and orthogonal under J (J's diagonal
    in sign, (D, 1)), and norms (k,) by its x^T J x, in place. False, with
    nothing changed, for columns with cond > COND_CAP: no eigenbasis.

    With xc = W Sigma Z^T and the Krein Gram matrix W^T J W = U Lambda U^T,
    the basis is W U and its x^T J x is Lambda, the cluster's signature.
    """
    basis, sing, _ = np.linalg.svd(xc, full_matrices=False)
    if sing[-1] * COND_CAP < sing[0]:
        return False
    lam, u = np.linalg.eigh(basis.T @ (sign * basis))
    xc[:] = basis @ u
    norms[:] = lam
    return True


def _frame_vectors(q: np.ndarray, plus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v = QSx of (N, D, D) eigenvector columns x of M (see _krein_frame):
    Q Re(Sx) + i Q Im(Sx), the two real products of linalg.real_matmul."""
    return real_matmul(q, np.where(plus[..., :, None], x, 1j * x))


def _hermite_keep(frames: np.ndarray) -> np.ndarray:
    """Which rows of an (N, D, D) stack of finite real matrices M may have a
    real spectrum, by Hermite's criterion: M has only real eigenvalues
    exactly when the Hankel matrix [p_{a+b}] of its power sums p_j = tr M^j,
    a, b = 0..D-1, is positive semidefinite (Gantmacher, The Theory of
    Matrices, vol. II, ch. XV). So is then each of its leading blocks, and a
    row is kept unless its leading k x k block, k = min(D, HERMITE_TERMS), is
    clearly indefinite: lambda_min < -HERMITE_MARGIN * lambda_max. For D <=
    HERMITE_TERMS the block is the whole matrix.

    Each M is taken in its unit 2^e (linalg.in_units, exact), centered by tr
    M / D and scaled to ||c||_F = 1; a scalar M = mu I leaves c = 0 and the
    block diag(D, 0, ..), which is kept. Shift and scale move no eigenvalue
    off the real line, and with them the mask of M is that of 2^j M. The
    powers X_a = c^a, a < k, take three batched products at k = 5, and the
    block H_ab = tr(X_a X_b) is one batched product of the flattened X_a
    against their transposes.

    Why no real spectrum is rejected: with ||c||_F = 1, ||c^j||_F <= 1, so
    each p_j carries about j D^2 eps of round-off whatever c's normality
    (about 5e-14 at D = 8). A pair that linalg.real_mask counts as real
    (2|Im w| <= 1e-8 ||M||_F) moves p_j from its value at Im w = 0 by at
    most 2 C(j, 2) |Im w|^2 in c's scale: below 1.5e-15 r^2, where r =
    ||M||_F / ||M - (tr M / D) I||_F is the factor by which centering
    enlarges |Im w| (below 600 over 200 000 draws of each of the 10
    signatures the tests scan, and below 12 for D >= 3). lambda_max >= p_0
    = D, so a rejection needs lambda_min below -8e-6 at D = 8: more than
    1e8 times the round-off, and above the pair's move while r stays below
    about 1e4.
    """
    n, d, _ = frames.shape
    k = min(d, HERMITE_TERMS)
    # x[a] = c^a for a < k; x[1] holds c also when k = 1
    x = np.empty((max(k, 2), n, d, d))
    x[0] = np.eye(d)
    c = x[1]
    c[...] = in_units(frames, np.frexp(np.abs(frames).max(axis=(1, 2)))[1])
    diag = c.reshape(n, d * d)[:, ::d + 1]
    diag -= diag.sum(axis=1, keepdims=True) / d
    norm = frobenius_norms(c)
    c *= (1.0 / np.where(norm > 0.0, norm, 1.0))[:, None, None]
    for a in range(2, k):
        np.matmul(x[a // 2], x[a - a // 2], out=x[a])
    # tr(X_a X_b) is the inner product of X_a with X_b^T
    flat = x[:k].reshape(k, n, d * d).transpose(1, 0, 2)
    flat_t = x[:k].swapaxes(-1, -2).reshape(k, n, d * d).transpose(1, 2, 0)
    lam = np.linalg.eigvalsh(flat @ flat_t)
    return lam[:, 0] >= -HERMITE_MARGIN * lam[:, -1]


def find_unbroken_seeds(
    dim: int,
    signature: tuple[int, int],
    count: int,
    start_seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_trials: int = 5_000_000,
) -> list[int]:
    """Scan seeds upward from start_seed and keep those whose random system is
    unbroken; raise RuntimeError when max_trials seeds hold fewer than count.

    The phase does not depend on the rotation R of H = R H0 R^T, P = R P0
    R^T, so seeds are classified on the block form alone, a block of seeds
    at a time: 16 seeds first, then twice as many each time up to
    SCAN_BLOCK_MAX. A block's draws come from construct.block_draws:
    bit for bit what random_pt_system draws for A, B and C from
    np.random.default_rng(seed), without building a Generator per seed. Each
    seed keeps numpy's own SeedSequence pool and PCG64 stream; the hash of
    the pools into PCG64's seeding words and the map of the raw outputs to
    [-1, 1) run once for the block. The scan so relies on the SeedSequence
    stream, the PCG64 stream and Generator.uniform's map staying as they
    are, which tests/test_construct.py::test_block_draws_match_default_rng
    pins.
    Each seed's real block frame M = [[A, -B], [B^T, C]]
    (construct.block_frame) is S^H H0 S with S = diag(I, iI): the real Krein
    frame of (H0, P0), with J = diag(+1 x m_plus, -1 x m_minus). Hermite's
    criterion on M's power sums (_hermite_keep) first rejects the seeds whose
    M clearly has a non-real pair, without an eigensolve. The kept seeds get
    one stacked real eigensolve per block, which gives H0's eigenvalues and
    eigenpair residuals; those whose M has a real spectrum (linalg.real_mask)
    get classify_stack's verdict (_verdict) from those same eigenpairs, and
    no system is built or solved again. A block that keeps no seed is not
    solved. The scan keeps the unbroken seeds in seed order and stops at the
    count-th. An eigenpair residual of a kept seed above tol * ||M||_F
    (ConvergenceError, eig_arrays) raises for the whole block that holds it;
    a rejected seed is never solved, so its residuals are not bounded.

    Raises ValueError, before drawing any seed, for a start_seed, count or
    max_trials that is not a non-negative integer, a dim or signature entry
    that is not an integer (a bool is not), a dim below 1, a signature that
    has a negative entry or does not sum to dim, or a tol outside (0, 1).
    """
    for name, value in (("start_seed", start_seed), ("count", count), ("max_trials", max_trials)):
        if not _is_int(value) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value}")
    m_plus, m_minus = signature
    if not (_is_int(dim) and _is_int(m_plus) and _is_int(m_minus)):
        raise ValueError(f"dim and signature entries must be integers, got {dim} and "
                         f"{(m_plus, m_minus)}")
    if m_plus < 0 or m_minus < 0:
        raise ValueError(f"signature entries must be non-negative, got {(m_plus, m_minus)}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if m_plus + m_minus != dim:
        raise ValueError(f"signature {(m_plus, m_minus)} must sum to dim {dim}")
    check_tol(tol)
    plus = np.arange(dim) < m_plus
    found: list[int] = []
    seed, end, size = start_seed, start_seed + max_trials, SCAN_BLOCK_FIRST
    while len(found) < count:
        if seed >= end:
            raise RuntimeError(
                f"no {count} unbroken systems within {max_trials} trials"
            )
        seeds = range(seed, min(seed + size, end))
        frames = block_frame(block_draws(seeds, m_plus, m_minus), m_plus, m_minus)
        kept = _hermite_keep(frames).nonzero()[0]
        if kept.size:
            w, x, e, nu = eig_arrays(frames[kept], tol)
            wu = in_units(w, e)
            real = real_mask(wu, nu).all(axis=1)
            unbroken = _verdict(w[real], wu[real], x[real], plus, nu[real])[2]
            found += (seed + kept[real][unbroken]).tolist()[:count - len(found)]
        seed, size = seeds.stop, min(2 * size, SCAN_BLOCK_MAX)
    return found


def _is_int(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
