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

from .construct import PTSystem, make_h0, random_blocks, random_pt_system
from .errors import BrokenPhaseError, CollinearityError, ExceptionalPointError
from .linalg import DEFAULT_TOL, EigenPair, clusters, eig_arrays

# An L2-normalized eigenvector of a symmetric matrix has |v^T v| -> 0 exactly
# when eigenvectors coalesce; for the two-level family the value equals
# sqrt(|1 - s^2/t^2|), so this threshold flags |s - t| < 2e-8 at t = 1.
EP_ISOTROPY_TOL = 2e-4


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs plus the phase verdict and (unbroken only) PT-norm signs."""

    pairs: list[EigenPair]
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


def _pt_eigenphase(v: np.ndarray, pv: np.ndarray, tol: float) -> float:
    """Angle theta with pv ~ exp(i theta) v, or CollinearityError."""
    nv2 = np.vdot(v, v).real
    if nv2 <= 0.0:
        raise ValueError("zero vector")
    theta = float(np.angle(np.vdot(v, pv) / nv2))
    resid = float(np.linalg.norm(pv - np.exp(1j * theta) * v)) / np.sqrt(nv2)
    if resid > tol:
        raise CollinearityError(
            f"vector is not PT-collinear (residual {resid:.3e}); broken "
            "symmetry or degeneracy"
        )
    return theta


def fix_pt_phase(v, p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rescale v by a unit phase so the PT operation fixes it.

    The leftover sign freedom is resolved by making the largest-magnitude
    entry have nonnegative real part.
    """
    vec = np.asarray(v, dtype=np.complex128)
    theta = _pt_eigenphase(vec, pt_apply(vec, p), tol)
    out = np.exp(1j * theta / 2.0) * vec
    k = int(np.argmax(np.abs(out)))
    if out[k].real < 0.0:
        out = -out
    return out


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


def classify_phase(sys: PTSystem, tol: float = DEFAULT_TOL) -> SpectralData:
    """Unbroken, broken, or exceptional, with eigenpairs and norm signs.

    Unbroken: all eigenvalues real (relative threshold tol) and every
    eigenvector phase-fixable. Broken: the non-real eigenvalues pair into
    conjugates. Exceptional: an eigenvector is numerically isotropic
    (|v^T v| below threshold with unit L2 norm) or phase fixing fails.
    """
    w, v, _ = eig_arrays(sys.h, tol)
    v = v.copy()
    n = w.shape[0]

    exceptional = bool(n and np.abs(np.einsum("ik,ik->k", v, v)).min() < EP_ISOTROPY_TOL)
    real_mask = _real_eigenvalues(w, tol)
    if not exceptional and not bool(real_mask.all()):
        return SpectralData(
            pairs=_pairs(sys.h, w, v),
            phase=Phase.BROKEN,
            real_count=int(real_mask.sum()),
            conjugate_pairs=_match_conjugates(w[~real_mask], tol),
            pt_norm_signs=None,
        )
    if not exceptional:
        try:
            for cols in clusters(w, sys.h):
                if len(cols) == 1:
                    v[:, cols.start] = fix_pt_phase(v[:, cols.start], sys.p, tol)
                else:
                    _pt_fix_cluster(v, cols, sys.p, tol)
        except CollinearityError:
            exceptional = True
    if exceptional:
        return SpectralData(
            pairs=_pairs(sys.h, w, v),
            phase=Phase.EXCEPTIONAL,
            real_count=0,
            conjugate_pairs=0,
            pt_norm_signs=None,
        )
    return SpectralData(
        pairs=_pairs(sys.h, w, v),
        phase=Phase.UNBROKEN,
        real_count=n,
        conjugate_pairs=0,
        pt_norm_signs=np.where(np.einsum("ik,ik->k", v, v).real > 0.0, 1, -1),
    )


def _real_eigenvalues(w: np.ndarray, tol: float) -> np.ndarray:
    """Mask of eigenvalues whose imaginary part is within tol * max(1, |w|)."""
    return np.abs(w.imag) <= tol * np.maximum(1.0, np.abs(w))


def _pairs(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> list[EigenPair]:
    res = np.linalg.norm(h @ v - v * w, axis=0)
    return [
        EigenPair(complex(w[k]), v[:, k].copy(), float(res[k]))
        for k in range(w.shape[0])
    ]


def _match_conjugates(values: np.ndarray, tol: float) -> int:
    """Greedily pair each non-real eigenvalue with its conjugate partner."""
    left = list(range(values.shape[0]))
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
    """Scan seeds upward and keep those whose random system is unbroken.

    The spectrum is rotation-invariant, so seeds are pre-screened on the
    block form alone before the full system is classified.
    """
    found: list[int] = []
    seed = start_seed
    trials = 0
    while len(found) < count:
        if trials >= max_trials:
            raise RuntimeError(
                f"no {count} unbroken systems within {max_trials} trials"
            )
        trials += 1
        rng = np.random.default_rng(seed)
        h0 = make_h0(random_blocks(rng, *signature))
        w, _, _ = eig_arrays(h0, tol)
        if bool(_real_eigenvalues(w, tol).all()):
            sys = random_pt_system(dim, signature, seed)
            if classify_phase(sys, tol).phase is Phase.UNBROKEN:
                found.append(seed)
        seed += 1
    return found
