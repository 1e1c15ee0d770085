"""PT-phase classification, eigenvector phase fixing, and PT-norm signatures.

The PT operation sends v to P conj(v). In the unbroken phase every
eigenvector can be rescaled by a unit phase so that it is a fixed point of
that operation; the bilinear self-product of the fixed vector is then real
and its sign is the vector's PT norm sign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .construct import PTSystem, block_draw_count, block_frame, random_pt_system
from .errors import BrokenPhaseError, CollinearityError, ExceptionalPointError
from .linalg import DEFAULT_TOL, column_norms, eig_arrays, eig_real, multi_clusters

# An L2-normalized eigenvector of a symmetric matrix has |v^T v| -> 0 exactly
# when eigenvectors coalesce; for the two-level family the value equals
# sqrt(|1 - s^2/t^2|), so this threshold flags |s - t| < 2e-8 at t = 1.
EP_ISOTROPY_TOL = 2e-4

# seeds prescreened per stacked eigensolve by find_unbroken_seeds: a first
# block of 16 already gets most of the batching gain and costs a short scan
# little; doubling to 512 amortizes long scans at bounded memory
SCAN_BLOCK_FIRST = 16
SCAN_BLOCK_MAX = 512


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class SpectralData:
    """One row of a PhaseStack: eigenvalues w (D,), eigenvector columns v
    (D, D), PT-phase-fixed when unbroken, and their residuals (D,), plus the
    phase verdict and (unbroken only) the PT-norm signs."""

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


def _fix_columns(v: np.ndarray, p: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """fix_pt_phase applied to every column of an (N, D, K) stack of vectors,
    with an (N, D, D) stack of parities or one (D, D) parity; returns the
    fixed stack and the (N, K) PT-collinearity residuals. Columns whose
    residual exceeds tol are returned rescaled all the same; the caller
    decides what a miss means."""
    pv = p @ v.conj()
    nv2 = np.einsum("nik,nik->nk", v.conj(), v).real
    if (nv2 <= 0.0).any():
        raise ValueError("zero vector")
    theta = np.angle(np.einsum("nik,nik->nk", v.conj(), pv) / nv2)
    resid = column_norms(pv - np.exp(1j * theta)[:, None, :] * v) / np.sqrt(nv2)
    out = np.exp(1j * theta / 2.0)[:, None, :] * v
    # the leftover sign: the largest-magnitude entry gets nonnegative real part
    n, _, k = out.shape
    top = out[np.arange(n)[:, None], np.abs(out).argmax(axis=1), np.arange(k)]
    return np.where(top.real[:, None, :] < 0.0, -out, out), resid


def fix_pt_phase(v, p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rescale v by a unit phase so the PT operation fixes it.

    The leftover sign freedom is resolved by making the largest-magnitude
    entry have nonnegative real part. Raises CollinearityError when P conj(v)
    is not a phase times v.
    """
    vec = np.asarray(v, dtype=np.complex128)
    pm = np.asarray(p, dtype=np.complex128)
    if vec.ndim != 1 or pm.shape != (vec.shape[0], vec.shape[0]):
        raise ValueError("vector and parity dimensions do not match")
    out, resid = _fix_columns(vec[None, :, None], pm[None], tol)
    if resid[0, 0] > tol:
        raise CollinearityError(
            f"vector is not PT-collinear (residual {resid[0, 0]:.3e}); broken "
            "symmetry or degeneracy"
        )
    return out[0, :, 0]


def _pt_fix_cluster(v: np.ndarray, cols: range, p: np.ndarray, tol: float) -> None:
    """Phase-fix a degenerate cluster in place.

    Each vector is first projected onto the PT-fixed real form (u + PTu, or
    i(u - PTu) when that vanishes), then the cluster is re-orthogonalized
    under the bilinear product, which has real coefficients on PT-fixed
    vectors and therefore preserves PT-fixedness.
    """
    for k in cols:
        u = v[:, k]
        pu = pt_apply(u, p)
        w1 = u + pu
        w2 = 1j * (u - pu)
        w = w1 if np.linalg.norm(w1) >= np.linalg.norm(w2) else w2
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            raise CollinearityError("degenerate cluster has no PT-fixed basis")
        v[:, k] = w / nw
    for j in cols:
        for i in cols:
            if i >= j:
                break
            den = v[:, i] @ v[:, i]
            if abs(den) <= EP_ISOTROPY_TOL:
                raise CollinearityError("isotropic vector inside degenerate cluster")
            v[:, j] = v[:, j] - ((v[:, i] @ v[:, j]) / den) * v[:, i]
        norm = np.linalg.norm(v[:, j])
        if norm < 1e-8:
            raise CollinearityError("degenerate cluster collapsed under orthogonalization")
        v[:, j] = v[:, j] / norm
        v[:, j] = fix_pt_phase(v[:, j], p, tol)


@dataclass(frozen=True)
class PhaseStack:
    """Classification of an (N, D, D) stack of systems, one row per system.

    w, v and residuals are the eig_arrays stack, with the eigenvectors of
    unbroken rows PT-phase-fixed; signs holds the PT-norm signs of unbroken
    rows and 0 elsewhere.
    """

    w: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    phases: list[Phase]
    real_count: np.ndarray
    conjugate_pairs: np.ndarray
    signs: np.ndarray

    def row(self, n: int) -> SpectralData:
        """Row n as SpectralData; its arrays are views of the stack's."""
        phase = self.phases[n]
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

    Unbroken: all eigenvalues real (relative threshold tol) and every
    eigenvector phase-fixable. Broken: the non-real eigenvalues pair into
    conjugates. Exceptional: an eigenvector is numerically isotropic
    (|v^T v| below threshold with unit L2 norm) or phase fixing fails.
    """
    return classify_stack(sys.h[None], sys.p[None], tol).row(0)


def classify_stack(h, p, tol: float = DEFAULT_TOL) -> PhaseStack:
    """classify_phase of every (h[n], p[n]) of two (N, D, D) stacks at once;
    one (D, D) p serves every row of h.

    The pairs are taken as given (see construct.check_pt_pairs). One batched
    eigensolve serves the stack; Python runs per row only to pair the
    conjugates of broken rows and to phase-fix rows holding an eigenvalue
    cluster. A failure in any row (ConvergenceError, or ValueError for
    unpaired conjugates) raises for the whole stack.
    """
    hs = np.asarray(h, dtype=np.complex128)
    ps = np.asarray(p, dtype=np.complex128)
    if hs.ndim != 3 or hs.shape[1] < 1 or ps.shape not in (hs.shape, hs.shape[1:]):
        raise ValueError(
            "expected an (N, D, D) stack with D >= 1 and a (D, D) parity or a stack of "
            f"the same shape, got {hs.shape} and {ps.shape}"
        )
    w, v, res = eig_arrays(hs, tol)
    n, d = w.shape

    iso = np.abs(np.einsum("nik,nik->nk", v, v))
    exceptional = iso.min(axis=1) < EP_ISOTROPY_TOL
    real_mask = _real_eigenvalues(w, tol)
    broken = ~exceptional & ~real_mask.all(axis=1)
    conjugate_pairs = np.zeros(n, dtype=np.int64)
    if broken.any():
        for row, values, real in zip(
            broken.nonzero()[0].tolist(), w[broken].tolist(), real_mask[broken].tolist()
        ):
            conjugate_pairs[row] = _match_conjugates([z for z, r in zip(values, real) if not r], tol)

    # singleton columns of every row are fixed at once; the result is kept in
    # the rows that are neither broken, exceptional, nor holding a cluster
    runs = multi_clusters(w, hs)
    single = ~exceptional & ~broken
    single[list(runs)] = False
    fixed, resid = _fix_columns(v, ps, tol)
    collinear = ~(resid > tol).any(axis=1)
    v = np.where((single & collinear)[:, None, None], fixed, v)
    exceptional |= single & ~collinear
    for row, cols_list in runs.items():
        if exceptional[row] or broken[row]:
            continue
        pr = ps[row] if ps.ndim == 3 else ps
        try:
            for cols in cols_list:
                if len(cols) == 1:
                    v[row, :, cols.start] = fix_pt_phase(v[row, :, cols.start], pr, tol)
                else:
                    _pt_fix_cluster(v[row], cols, pr, tol)
        except CollinearityError:
            exceptional[row] = True
        # mixing a cluster's vectors moves their residuals; a phase does not
        res[row] = column_norms(hs[row] @ v[row] - v[row] * w[row])

    unbroken = ~exceptional & ~broken
    phases = [
        Phase.UNBROKEN if u else Phase.BROKEN if b else Phase.EXCEPTIONAL
        for u, b in zip(unbroken.tolist(), broken.tolist())
    ]
    signs = np.where(np.einsum("nik,nik->nk", v, v).real > 0.0, 1, -1)
    return PhaseStack(
        w=w,
        v=v,
        residuals=res,
        phases=phases,
        real_count=np.where(broken, real_mask.sum(axis=1), np.where(unbroken, d, 0)),
        conjugate_pairs=conjugate_pairs,
        signs=np.where(unbroken[:, None], signs, 0),
    )


def _real_eigenvalues(w: np.ndarray, tol: float) -> np.ndarray:
    """Mask of eigenvalues whose imaginary part is within tol * max(1, |w|)."""
    return np.abs(w.imag) <= tol * np.maximum(1.0, np.abs(w))


def _match_conjugates(values: list[complex], tol: float) -> int:
    """Greedily pair each non-real eigenvalue with its conjugate partner."""
    left = list(range(len(values)))
    pairs = 0
    while left:
        i = left.pop(0)
        target = values[i].conjugate()
        scale = max(1.0, abs(values[i]))
        best, best_d = None, np.inf
        for j in left:
            d = abs(values[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best is None or best_d > 10.0 * tol * scale:
            raise ValueError(
                "non-real eigenvalues do not pair into conjugates; input is "
                "not PT-symmetric or the tolerance is too tight"
            )
        left.remove(best)
        pairs += 1
    return pairs


def pt_norm_signature(sys: PTSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Signs of the PT self-products of the phase-fixed eigenvectors.

    The multiset equals the parity's eigenvalue signs; the order along the
    spectrum depends on the parameters and is not guaranteed.
    """
    data = classify_phase(sys, tol)
    if data.phase is Phase.BROKEN:
        raise BrokenPhaseError("PT-norm signs are defined only in the unbroken phase")
    if data.phase is Phase.EXCEPTIONAL:
        raise ExceptionalPointError("no PT-norm signs at an exceptional point")
    return data.pt_norm_signs.copy()


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

    The spectrum is rotation-invariant, so seeds are prescreened on the block
    form alone, a block of seeds per stacked eigensolve: 16 seeds first, then
    twice as many each time up to SCAN_BLOCK_MAX. The prescreen solves the
    real block frame M = [[A, -B], [B^T, C]] of each seed (construct.
    block_frame), which is unitarily similar to H0 = [[A, iB], [iB^T, C]], so
    it keeps H0's eigenvalues and eigenpair residuals at real arithmetic's
    cost. The seeds whose M has a real spectrum are then classified one by
    one, in seed order, and the scan stops at the count-th unbroken one. An
    eigenpair residual above tol (ConvergenceError) raises for the whole
    block that holds the failing seed.

    Raises ValueError, before drawing any seed, for a start_seed, count or
    max_trials that is not a non-negative integer, a dim below 1, or a
    signature that has a negative entry or does not sum to dim.
    """
    for name, value in (("start_seed", start_seed), ("count", count), ("max_trials", max_trials)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value}")
    m_plus, m_minus = signature
    if m_plus < 0 or m_minus < 0:
        raise ValueError(f"signature entries must be non-negative, got {(m_plus, m_minus)}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if m_plus + m_minus != dim:
        raise ValueError(f"signature {(m_plus, m_minus)} must sum to dim {dim}")
    k = block_draw_count(m_plus, m_minus)
    found: list[int] = []
    seed, end, size = start_seed, start_seed + max_trials, SCAN_BLOCK_FIRST
    while len(found) < count:
        if seed >= end:
            raise RuntimeError(
                f"no {count} unbroken systems within {max_trials} trials"
            )
        seeds = range(seed, min(seed + size, end))
        draws = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds])
        w, _ = eig_real(block_frame(draws, m_plus, m_minus), tol)
        for s in np.asarray(seeds)[_real_eigenvalues(w, tol).all(axis=1)].tolist():
            if classify_phase(random_pt_system(dim, signature, s), tol).phase is Phase.UNBROKEN:
                found.append(s)
                if len(found) == count:
                    break
        seed, size = seeds.stop, min(2 * size, SCAN_BLOCK_MAX)
    return found
