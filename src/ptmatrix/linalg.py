"""Dense matrix helpers and the general (non-Hermitian, non-symmetric)
eigendecomposition of one matrix or of an (N, D, D) stack of them.

eig_arrays is the one eigensolver: one batched numpy.linalg.eig call per
stack, LAPACK dgeev for a real input and zgeev for a complex one, with the
eigenpairs sorted by (Re, Im) and their backward errors checked. dgeev
returns a real eigenvalue with an imaginary part of exactly 0, so real_mask,
the one test of which eigenvalues count as real, is structural up to a
cluster gap. clusters and multi_clusters group sorted eigenvalues within that
gap (the caller gives each cluster one basis; see spectral.classify_stack),
and eigvec_inverse inverts an eigenvector matrix unless it is numerically
singular.

Matrices are plain numpy arrays of float64 or complex128; everything here is
a pure function of its inputs. eig_arrays computes ||m||_F once per stack
(frobenius_norms) and returns it, and the caller passes it on to real_mask
and multi_clusters.

Tolerance policy. Each threshold has one meaning and one scale, listed
here, so no verdict changes under H -> kH or H -> H + rI. M is the real
Krein frame (QS)^H H (QS) of spectral.classify_stack, and ||M||_F = ||H||_F
as QS is unitary. The tol of eig_arrays, classify_phase, classify_stack,
find_unbroken_seeds, build_c_operator, nonunitarity_demo and the CLI's --tol
is the first row, and reaches no other decision.

======================== ====== ==================================== ====================
name                     value  bounds                               relative to
======================== ====== ==================================== ====================
DEFAULT_TOL (tol)        1e-10  ||Mv - wv||_2 of each unit           ||M||_F of the row
                                eigenpair (eig_arrays): the
                                backward error
CLUSTER_REL_GAP          1e-8   the gap within an eigenvalue         ||M||_F of the row
                                cluster (clusters); 2|Im w| of an
                                eigenvalue counted as real
                                (real_mask)
COND_CAP                 1e8    cond(V) of eigenvector columns:      scale-free
                                eigvec_inverse, a cluster's basis
                                (spectral._krein_basis), a weight
                                basis (algebra.build_weight_matrix)
SYMMETRY_TOL             1e-12  max|H - H^T| (check_pt_pairs; the    max|H| of the matrix
                                asymmetric route of cli evolve);
                                max|A - A^T|, max|C - C^T|
                                (make_h0); max|H - H^T| and
                                max|H - H^H| (classify_matrix)
PT_COMMUTATION_TOL       1e-10  max|P conj(H) P - H|                 max|H| of the matrix
                                (check_pt_pairs, classify_matrix)
                                max|Im P|, max|P - P^T| and          1 (P is orthogonal)
                                max|P^2 - I| (validate_parity)
EP_ISOTROPY_TOL          2e-4   |v^T v| of a unit eigenvector: the   1 (v is a unit
                                exceptional verdict (spectral) and   vector)
                                the least PT norm that C accepts
                                (algebra.c_operator)
SIGN_TIE_RTOL            1e-9   entries tied for an eigenvector's    that largest
                                largest magnitude (sign convention)  magnitude
COMMUTATOR_REL_THRESHOLD 1e-3   max|[W, H]| of a conclusive drift    max|H|
                                (dynamics.nonunitarity_demo)
DRIFT_FLAG_THRESHOLD     1e-6   the drift of an evolve trace that    1 (unit states)
                                flags exit code 3 (cli)
======================== ====== ==================================== ====================
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ExceptionalPointError

DEFAULT_TOL = 1e-10
COND_CAP = 1e8

# eigenvalues closer than this (relative to ||m||_F) are treated as one cluster
CLUSTER_REL_GAP = 1e-8


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


def eig_arrays(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Eigenvalues w, L2-normalized eigenvector columns v, their residuals
    ||m v - w v||_2 and ||m||_F of a real or complex matrix, sorted by (Re,
    Im). A residual above tol * ||m||_F, or one that is not finite, raises
    ConvergenceError: tol bounds the relative backward error of each
    eigenpair, so m -> km and m -> m + rI keep the verdict.

    A (D, D) matrix gives shapes (D,), (D, D), (D,), (); an (N, D, D) stack
    gives (N, D), (N, D, D), (N, D), (N,), row n holding what m[n] alone
    would give, from one batched LAPACK call: dgeev for a real m, zgeev for a
    complex one. The residual bound applies to every row, with that row's
    ||m||_F (frobenius_norms), which real_mask and multi_clusters take too. w
    is complex; from dgeev a real eigenvalue has an imaginary part of exactly
    0 and a real eigenvector, and a non-real one comes right after its exact
    conjugate, with a bit-identical real part and the conjugate eigenvector
    (v is real when every eigenvalue of the stack is).
    """
    a = np.asarray(m)
    real = not np.iscomplexobj(a)
    a = a.astype(np.float64 if real else np.complex128, copy=False)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    stack = a if a.ndim == 3 else a[None]
    try:
        w, v = _sorted_pairs(*np.linalg.eig(stack))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK {'dgeev' if real else 'zgeev'} did not converge for dimension {a.shape[-1]}"
        ) from exc

    # products overflow near the float limit; a non-finite residual fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        if real:
            v = np.ascontiguousarray(v)
            res = column_norms(real_matmul(stack, v) - v * w[:, None, :])
        else:
            res = column_norms(stack @ v - v * w[:, None, :])
    norms = frobenius_norms(stack)
    _check_residuals(res, norms, tol)
    w = w.astype(np.complex128, copy=False)
    if a.ndim == 2:
        return w[0], v[0], res[0], norms[0]
    return w, v, res, norms


def _sorted_pairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (N, D) and eigenvector columns (N, D, D) of a stack, each
    row sorted by (Re, Im)."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    rows = np.arange(w.shape[0])[:, None]
    # sorting the rows of each V^T: every V stays column-major, as LAPACK gives it
    return w[rows, order], v.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)


def real_mask(w: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Which eigenvalues w (N, D) of a real (N, D, D) stack m count as real:
    those in one cluster with their conjugate, 2|Im w| <= CLUSTER_REL_GAP *
    ||m||_F, the gap of multi_clusters; norms (N,) holds each ||m||_F
    (frobenius_norms).

    dgeev returns a real eigenvalue with an imaginary part of exactly 0, so
    the test is structural; the gap admits only a (near-)degenerate real
    eigenvalue that round-off split into a 2x2 Schur block of a tiny pair.
    |Im w| is compared with half the gap, which is exact, so no |Im w| near
    the float limit overflows.
    """
    return np.abs(w.imag) <= 0.5 * CLUSTER_REL_GAP * norms[:, None]


def _check_residuals(res: np.ndarray, norms: np.ndarray, tol: float) -> None:
    """Raise ConvergenceError, naming the worst, unless every residual of
    row n of res (N, D) is at most tol * norms[n]. A residual that is not
    finite fails, also where norms[n] is inf."""
    peak = float(res.max()) if res.size else 0.0
    if math.isfinite(peak) and peak <= tol * float(norms.min(initial=math.inf)):
        return  # every row's bound is at least the smallest
    bound = tol * norms[:, None]
    ok = np.isfinite(res) & (res <= bound)
    if ok.all():
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(ok, 0.0, np.where(np.isfinite(res), res / bound, np.inf))
    n, k = np.unravel_index(excess.argmax(), res.shape)
    raise ConvergenceError(
        f"eigenpair residual {res[n, k]:.3e} above tolerance {tol:.3e} * ||M||_F "
        f"= {bound[n, 0]:.3e}; the input is ill-conditioned"
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
    np.linalg.norm(a, axis=-2) computes, without its per-call overhead. A
    column whose sum of squares overflows is summed again (see _rescaled_norms)."""
    squares = np.add.reduce((a.conj() * a).real, axis=-2)
    if math.isfinite(squares.sum()):
        return np.sqrt(squares)
    return _rescaled_norms(squares, np.swapaxes(a, -1, -2))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||m||_F of each matrix of an (N, D, D) stack. A matrix whose sum of
    squares overflows is summed again (see _rescaled_norms)."""
    with np.errstate(over="ignore"):
        squares = np.add.reduce((stack.conj() * stack).real, axis=(-2, -1))
        finite = math.isfinite(squares.sum())
    if finite:
        return np.sqrt(squares)
    return _rescaled_norms(squares, stack.reshape(*stack.shape[:-2], -1))


def _rescaled_norms(squares: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sqrt(squares), where squares holds the sum of |x|^2 over the last axis
    of vectors. Where that sum is not finite, it is summed again scaled by
    the vector's largest |entry|, so finite entries give a finite norm unless
    the norm itself is past the float range; a vector with an inf or NaN
    entry keeps the plain sum's norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(squares)
        big = ~np.isfinite(squares)
        rows = np.abs(vectors[big])
        scale = rows.max(axis=-1, initial=0.0)
        rows /= scale[:, None]
        scaled = scale * np.sqrt(np.add.reduce(rows * rows, axis=-1))
    norms[big] = np.where(np.isfinite(scale), scaled, norms[big])
    return norms


def clusters(w: np.ndarray, norm: float) -> list[range]:
    """Index runs of sorted eigenvalues w whose neighbours lie within
    CLUSTER_REL_GAP * norm of each other, norm being ||m||_F of their m."""
    gap = CLUSTER_REL_GAP * max(float(norm), 1e-300)
    vals = w.tolist()
    cuts = [i for i in range(1, len(vals)) if abs(vals[i] - vals[i - 1]) > gap]
    edges = [0, *cuts, len(vals)] if vals else []
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def multi_clusters(w: np.ndarray, norms: np.ndarray) -> dict[int, list[range]]:
    """{row: clusters(w[row], norms[row])} for the rows of an (N, D) stack of
    sorted eigenvalues that hold a cluster of two or more; norms (N,) holds
    each row's ||m||_F.

    A vectorized screen, loose by a relative 1e-9 to cover the round-off of
    numpy's complex abs, picks the candidate rows; the exact walk of
    clusters decides each of them. A gap past the float range reads inf and
    leaves its neighbours apart.
    """
    gap = CLUSTER_REL_GAP * norms
    with np.errstate(over="ignore"):
        near = (np.abs(w[:, 1:] - w[:, :-1]) <= gap[:, None] * (1.0 + 1e-9)).any(axis=1)
    found = {}
    for row in near.nonzero()[0].tolist():
        runs = clusters(w[row], norms[row])
        if len(runs) < w.shape[1]:
            found[row] = runs
    return found


def eigvec_inverse(v: np.ndarray) -> np.ndarray:
    """V^-1 of an eigenvector matrix, or ExceptionalPointError when cond(V)
    exceeds COND_CAP (defective input, e.g. at an exceptional point), where
    V^-1 would be meaningless."""
    sing = np.linalg.svd(v, compute_uv=False)
    if sing[-1] <= 0.0 or sing[0] / sing[-1] > COND_CAP:
        raise ExceptionalPointError(
            "eigenvector matrix is numerically singular; matrix is defective "
            "or too close to an exceptional point"
        )
    return np.linalg.solve(v, np.eye(v.shape[0], dtype=np.complex128))
