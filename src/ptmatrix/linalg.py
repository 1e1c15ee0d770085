"""Dense complex matrix helpers and general (non-Hermitian, non-symmetric)
eigendecompositions of one matrix or of an (N, D, D) stack of them.

eig_arrays solves complex matrices with LAPACK zgeev and eig_real real stacks
with dgeev, each through one batched numpy.linalg.eig call per stack; both
sort the eigenpairs by (Re, Im) and check their residuals, and eig_arrays
also orthogonalizes eigenvalue clusters under the bilinear product. dgeev
returns a real eigenvalue with an imaginary part of exactly 0, so real_mask,
the one test of which eigenvalues count as real, is structural up to a
cluster gap.

Matrices are plain numpy arrays of complex128, apart from eig_real's real
input; everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ExceptionalPointError

DEFAULT_TOL = 1e-10
COND_CAP = 1e8

# eigenvalues closer than this (relative to ||m||_F) are treated as one cluster
CLUSTER_REL_GAP = 1e-8
# bilinear self-products below this floor are left alone by the cluster
# orthogonalizer (isotropic direction: the exceptional-point signature)
ISOTROPY_FLOOR = 1e-12


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


def eig_arrays(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, L2-normalized eigenvector columns and their residuals
    ||m v - w v||_2; sorted by (Re, Im). A residual above tol raises
    ConvergenceError.

    Eigenvalues within 1e-8 * ||m||_F of each other are clustered and their
    vectors orthogonalized under the bilinear (non-conjugating) dot product,
    which is the product all PT machinery downstream is built on.

    A (D, D) matrix gives shapes (D,), (D, D), (D,); an (N, D, D) stack gives
    (N, D), (N, D, D), (N, D), row n holding what m[n] alone would give. The
    residual bound applies to every row.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    n = a.shape[-1]
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")

    try:
        w, v = _sorted_pairs(*np.linalg.eig(stack))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK zgeev did not converge for dimension {n}") from exc

    # norms overflow near the float limit; a non-finite residual fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        for row, runs in multi_clusters(w, stack).items():
            for cols in runs:
                _bilinear_orthogonalize(v[row], cols)
        res = column_norms(stack @ v - v * w[:, None, :])
    _check_residuals(res, tol)
    if a.ndim == 2:
        return w[0], v[0], res[0]
    return w, v, res


def eig_real(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w (N, D), L2-normalized eigenvector columns x (N, D, D) and
    their residuals ||m x - w x||_2 (N, D) of a real (N, D, D) stack, from one
    batched LAPACK dgeev call, sorted by (Re, Im). A real eigenvalue has
    imaginary part exactly 0 and a real eigenvector; a non-real one comes
    right after its exact conjugate, with bit-identical real part and the
    conjugate eigenvector. A residual above tol raises ConvergenceError, as
    in eig_arrays."""
    a = np.asarray(m)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2] or not np.isrealobj(a):
        raise ValueError(f"expected a real (N, D, D) stack, got {a.dtype} of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        w, x = _sorted_pairs(*np.linalg.eig(a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK dgeev did not converge for dimension {a.shape[-1]}"
        ) from exc
    x = np.ascontiguousarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        res = column_norms(real_matmul(a, x) - x * w[:, None, :])
    _check_residuals(res, tol)
    return w.astype(np.complex128, copy=False), x, res


def _sorted_pairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (N, D) and eigenvector columns (N, D, D) of a stack, each
    row sorted by (Re, Im)."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    rows = np.arange(w.shape[0])[:, None]
    # sorting the rows of each V^T: every V stays column-major, as LAPACK gives it
    return w[rows, order], v.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)


def real_mask(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Which eigenvalues w (N, D) of a real (N, D, D) stack m count as real:
    those in one cluster with their conjugate, 2|Im w| <= CLUSTER_REL_GAP *
    ||m||_F, the gap of multi_clusters.

    dgeev returns a real eigenvalue with an imaginary part of exactly 0, so
    the test is structural; the gap admits only a (near-)degenerate real
    eigenvalue that round-off split into a 2x2 Schur block of a tiny pair.
    """
    return 2.0 * np.abs(w.imag) <= CLUSTER_REL_GAP * frobenius_norms(m)[:, None]


def _check_residuals(res: np.ndarray, tol: float) -> None:
    """Raise ConvergenceError unless every residual is at most tol (a NaN
    residual fails too)."""
    bad = float(res.max()) if res.size else 0.0
    if not bad <= tol:
        raise ConvergenceError(
            f"eigenpair residual {bad:.3e} above tolerance {tol:.3e}; the "
            "input is ill-conditioned, or large-normed (the bound is "
            "absolute, so scale tol with the matrix norm)"
        )


def real_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a real matrix or stack a and a real or complex stack x, with
    real products only: numpy would cast a to complex for a complex x. A
    C-contiguous complex x viewed as float64 holds Re x and Im x in
    alternate columns, so one real product gives a @ Re x and a @ Im x in
    the same layout, which is a @ x viewed back as complex."""
    x = np.ascontiguousarray(x)
    return (a @ x.view(np.float64)).view(x.dtype)


def column_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of every column of a matrix, or of each matrix of a stack: what
    np.linalg.norm(a, axis=-2) computes, without its per-call overhead."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=-2))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||m||_F of each matrix of an (N, D, D) stack. A row whose sum of
    squares overflows is summed again scaled by its largest |entry|, so
    finite entries give a finite norm unless the norm itself is past the
    float range; a row with an inf or NaN entry keeps the plain sum's norm."""
    with np.errstate(over="ignore"):
        squares = np.add.reduce((stack.conj() * stack).real, axis=(-2, -1))
    norms = np.sqrt(squares)
    big = ~np.isfinite(squares)
    if big.any():
        rows = np.abs(stack[big])
        scale = rows.max(axis=(-2, -1))
        with np.errstate(over="ignore", invalid="ignore"):
            rows /= scale[:, None, None]
            scaled = scale * np.sqrt(np.add.reduce(rows * rows, axis=(-2, -1)))
        norms[big] = np.where(np.isfinite(scale), scaled, norms[big])
    return norms


def clusters(w: np.ndarray, m: np.ndarray) -> list[range]:
    """Index runs of sorted eigenvalues w whose neighbours lie within
    CLUSTER_REL_GAP * ||m||_F of each other."""
    gap = CLUSTER_REL_GAP * max(float(frobenius_norms(np.asarray(m)[None])[0]), 1e-300)
    vals = w.tolist()
    cuts = [i for i in range(1, len(vals)) if abs(vals[i] - vals[i - 1]) > gap]
    edges = [0, *cuts, len(vals)] if vals else []
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def multi_clusters(w: np.ndarray, stack: np.ndarray) -> dict[int, list[range]]:
    """{row: clusters(w[row], stack[row])} for the rows of an (N, D) stack of
    sorted eigenvalues that hold a cluster of two or more.

    A vectorized screen, loose by a relative 1e-9 to cover the round-off of
    numpy's complex abs and stacked norm, picks the candidate rows; the exact
    walk of clusters decides each of them.
    """
    gap = CLUSTER_REL_GAP * frobenius_norms(stack)
    near = (np.abs(w[:, 1:] - w[:, :-1]) <= gap[:, None] * (1.0 + 1e-9)).any(axis=1)
    found = {}
    for row in near.nonzero()[0].tolist():
        runs = clusters(w[row], stack[row])
        if len(runs) < w.shape[1]:
            found[row] = runs
    return found


def _bilinear_orthogonalize(v: np.ndarray, cols: range) -> bool:
    """Modified Gram-Schmidt under v^T v on one eigenvalue cluster, in place;
    False when a column collapsed.

    Isotropic pivots (|v^T v| below floor) are skipped, and a column that
    collapses under projection (numerically dependent cluster: a defective
    input) is reverted. An isotropic column is left for the caller's
    exceptional-point check to find.
    """
    kept = True
    for j in cols[1:]:
        candidate = v[:, j].copy()
        for i in range(cols.start, j):
            den = v[:, i] @ v[:, i]
            if abs(den) <= ISOTROPY_FLOOR:
                continue
            candidate -= ((v[:, i] @ candidate) / den) * v[:, i]
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            v[:, j] = candidate / norm
        else:
            kept = False
    return kept


def diagonalize(m, tol: float = DEFAULT_TOL,
                cond_cap: float = COND_CAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, eigenvector columns V and V^-1, so that m = V diag(w) V^-1.

    Raises ExceptionalPointError when cond(V) exceeds cond_cap; see
    eigvec_inverse.
    """
    w, v, _ = eig_arrays(as_matrix(m), tol)
    return w, v, eigvec_inverse(v, cond_cap)


def eigvec_inverse(v: np.ndarray, cond_cap: float = COND_CAP) -> np.ndarray:
    """V^-1 of an eigenvector matrix, or ExceptionalPointError when cond(V)
    exceeds cond_cap (defective input, e.g. at an exceptional point), where
    V^-1 would be meaningless."""
    sing = np.linalg.svd(v, compute_uv=False)
    if sing[-1] <= 0.0 or sing[0] / sing[-1] > cond_cap:
        raise ExceptionalPointError(
            "eigenvector matrix is numerically singular; matrix is defective "
            "or too close to an exceptional point"
        )
    return np.linalg.solve(v, np.eye(v.shape[0], dtype=np.complex128))


def mat_exp_times(m, scalar: complex, tol: float = DEFAULT_TOL,
                  cond_cap: float = COND_CAP) -> np.ndarray:
    """exp(scalar * m) through the eigendecomposition S exp(scalar L) S^-1.

    Raises ValueError for a non-finite scalar, ConvergenceError for a
    non-finite result, and ExceptionalPointError when the eigenvector matrix
    is numerically singular (defective input, e.g. at an exceptional point).
    """
    if not np.isfinite(scalar):
        raise ValueError(f"scalar must be finite, got {scalar}")
    w, v, vinv = diagonalize(m, tol, cond_cap)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (v * np.exp(scalar * w)) @ vinv
    if not np.isfinite(out).all():
        raise ConvergenceError(f"exp(scalar * m) is not finite at scalar = {scalar!r}")
    return out
