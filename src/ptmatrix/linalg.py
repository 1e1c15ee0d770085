"""Dense complex matrix helpers and a general (non-Hermitian, non-symmetric)
eigendecomposition for small dimensions (D <= 64).

Eigenpairs come from LAPACK zgeev (through numpy.linalg.eig); this module adds
a deterministic order, bilinear orthogonalization of eigenvalue clusters and
a residual check.

Matrices are plain numpy arrays of complex128; everything here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ExceptionalPointError

DEFAULT_TOL = 1e-10
MAX_DIM = 64
COND_CAP = 1e8

# eigenvalues closer than this (relative to ||m||_F) are treated as one cluster
CLUSTER_REL_GAP = 1e-8
# bilinear self-products below this floor are left alone by the cluster
# orthogonalizer (isotropic direction: the exceptional-point signature)
ISOTROPY_FLOOR = 1e-12


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with an L2-normalized eigenvector and its 2-norm residual."""

    value: complex
    vector: np.ndarray
    residual: float


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(m) -> float:
    """Largest entry magnitude (0 for empty arrays)."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_symmetric(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(m)
    return max_abs(a - a.T) <= tol


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(m)
    return max_abs(a - a.conj().T) <= tol


def is_real(m, tol: float = DEFAULT_TOL) -> bool:
    return max_abs(np.asarray(m).imag) <= tol


def is_orthogonal(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(m)
    return max_abs(a.T @ a - np.eye(a.shape[0])) <= tol


def mat_mul(a, b) -> np.ndarray:
    """Product of two square matrices of equal dimension."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    return am @ bm


def eig_arrays(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvector columns, residuals; sorted by (Re, Im).

    Eigenvalues within 1e-8 * ||m||_F of each other are clustered and their
    vectors orthogonalized under the bilinear (non-conjugating) dot product,
    which is the product all PT machinery downstream is built on.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains NaN or Inf entries")

    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK zgeev did not converge for dimension {n}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]

    gap = CLUSTER_REL_GAP * max(np.linalg.norm(a), 1e-300)
    start = 0
    for i in range(1, n + 1):
        if i < n and abs(w[i] - w[i - 1]) <= gap:
            continue
        if i - start > 1:
            _bilinear_orthogonalize(v, start, i)
        start = i

    res = np.linalg.norm(a @ v - v * w, axis=0)
    bad = float(res.max()) if n else 0.0
    if bad > tol:
        raise ConvergenceError(
            f"eigenpair residual {bad:.3e} above tolerance {tol:.3e}; the "
            "input is ill-conditioned, or large-normed (the bound is "
            "absolute, so scale tol with the matrix norm)"
        )
    return w, v, res


def _bilinear_orthogonalize(v: np.ndarray, start: int, stop: int) -> None:
    """Modified Gram-Schmidt under v^T v on one eigenvalue cluster, in place.

    Isotropic pivots (|v^T v| below floor) are skipped, and a column that
    collapses under projection (numerically dependent cluster: a defective
    input) is reverted; callers that care detect both situations via the
    exceptional-point checks downstream.
    """
    for j in range(start + 1, stop):
        candidate = v[:, j].copy()
        for i in range(start, j):
            den = v[:, i] @ v[:, i]
            if abs(den) <= ISOTROPY_FLOOR:
                continue
            candidate -= ((v[:, i] @ candidate) / den) * v[:, i]
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            v[:, j] = candidate / norm


def eigendecompose(m, tol: float = DEFAULT_TOL) -> list[EigenPair]:
    """All eigenpairs of a square matrix, deterministically ordered.

    Each residual ||m v - lambda v||_2 (with ||v||_2 = 1) is guaranteed to be
    at most tol; otherwise ConvergenceError is raised.
    """
    w, v, res = eig_arrays(m, tol)
    return [
        EigenPair(complex(w[k]), v[:, k].copy(), float(res[k]))
        for k in range(w.shape[0])
    ]


def diagonalize(m, tol: float = DEFAULT_TOL,
                cond_cap: float = COND_CAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, eigenvector columns V and V^-1, so that m = V diag(w) V^-1.

    Raises ExceptionalPointError when cond(V) exceeds cond_cap (defective
    input, e.g. at an exceptional point), where V^-1 would be meaningless.
    """
    a = as_matrix(m)
    w, v, _ = eig_arrays(a, tol)
    sing = np.linalg.svd(v, compute_uv=False)
    if sing[-1] <= 0.0 or sing[0] / sing[-1] > cond_cap:
        raise ExceptionalPointError(
            "eigenvector matrix is numerically singular; matrix is defective "
            "or too close to an exceptional point"
        )
    return w, v, np.linalg.solve(v, np.eye(a.shape[0], dtype=np.complex128))


def mat_exp_times(m, scalar: complex, tol: float = DEFAULT_TOL,
                  cond_cap: float = COND_CAP) -> np.ndarray:
    """exp(scalar * m) through the eigendecomposition S exp(scalar L) S^-1.

    Raises ExceptionalPointError when the eigenvector matrix is numerically
    singular (defective input, e.g. at an exceptional point).
    """
    w, v, vinv = diagonalize(m, tol, cond_cap)
    return (v * np.exp(scalar * w)) @ vinv
