"""Dense matrix helpers and the general (non-Hermitian, non-symmetric)
eigendecomposition of one matrix or of an (N, D, D) stack of them.

eig_arrays is the one eigensolver: one batched numpy.linalg.eig call per
stack, LAPACK dgeev for a real input and zgeev for a complex one, with the
eigenpairs sorted by (Re, Im) and their backward errors checked. dgeev
returns a real eigenvalue with an imaginary part of exactly 0, so real_mask,
the one test of which eigenvalues count as real, is structural up to a
cluster gap. multi_clusters groups sorted eigenvalues within that gap (the
caller gives each cluster one basis; see spectral.classify_stack), and
eigvec_inverse inverts an eigenvector matrix unless it is numerically
singular.

Matrices are plain numpy arrays of float64 or complex128; everything here is
a pure function of its inputs. Every relative test runs in one exact unit
per matrix m: 2^e, e the binary exponent of m's largest |entry| (np.frexp;
of its largest real or imaginary part when m is complex). eig_arrays returns
each row's e and nu = ||m 2^-e||_F; in_units(w, e) is w 2^-e, and real_mask
and multi_clusters take that w and nu. Scaling by a power of two is exact,
so each test decides as it would on m itself wherever m's own sums neither
overflow nor underflow; the scaled entries lie below 1 in magnitude, so no
norm or residual in units overflows, and no gap of a tiny m underflows to
an absolute one.

Tolerance policy. Each threshold has one meaning and one scale, listed
here, so no verdict changes under H -> kH or H -> H + rI. M is the real
Krein frame (QS)^H H (QS) of spectral.classify_stack, and ||M||_F = ||H||_F
as QS is unitary. The tol of eig_arrays, classify_phase, classify_stack,
find_unbroken_seeds, build_c_operator, nonunitarity_demo and the CLI's --tol
is the first row, and reaches no other decision. eig_arrays and
find_unbroken_seeds raise ValueError for a tol outside (0, 1) (check_tol);
the CLI rejects one as a usage error.

======================== ====== ==================================== ====================
name                     value  bounds                               relative to
======================== ====== ==================================== ====================
DEFAULT_TOL (tol)        1e-10  ||Mv - wv||_2 of each unit           ||M||_F of the row,
                                eigenpair (eig_arrays): the          both in its unit 2^e
                                backward error
CLUSTER_REL_GAP          1e-8   the gap within an eigenvalue         ||M||_F of the row,
                                cluster (multi_clusters); 2|Im w|    both in its unit 2^e
                                of an eigenvalue counted as real
                                (real_mask)
COND_CAP                 1e8    cond(V) of eigenvector columns:      scale-free
                                eigvec_inverse, a cluster's basis
                                (spectral._krein_basis), a weight
                                basis (algebra.build_weight_matrix)
SYMMETRY_TOL             1e-12  max|H - H^T| (check_pt_pairs; the    max|H| of the matrix
                                asymmetric route of cli evolve);
                                max|A - A^T|, max|C - C^T|
                                (make_h0); max|H - H^T| and
                                max|H - H^H| (classify_matrix);
                                max|stored - built| of a sweep's
                                base h and p (cli._block_points)
PT_COMMUTATION_TOL       1e-10  max|P conj(H) P - H|                 max|H| of the matrix
                                (check_pt_pairs, classify_matrix)
                                max|Im P|, max|P - P^T| and          1 (P is orthogonal)
                                max|P^2 - I| (validate_parity)
HERMITE_MARGIN           1e-6   -lambda_min of the leading Hankel    lambda_max of that
                                block of power sums of the scan's    block (at least D)
                                centered unit-norm frame, above
                                which a seed is rejected before
                                any eigensolve (spectral
                                find_unbroken_seeds)
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
    """Eigenvalues w and L2-normalized eigenvector columns v of a real or
    complex matrix, sorted by (Re, Im), with the matrix's unit 2^e (see the
    module docstring): e and nu = ||m 2^-e||_F. A residual
    ||(m 2^-e) v - (w 2^-e) v||_2 above tol * nu, or one that is not finite,
    raises ConvergenceError: tol bounds the relative backward error of each
    eigenpair, so m -> km and m -> m + rI keep the verdict. dgeev and zgeev
    solve m itself; only the test runs in units.

    A (D, D) matrix gives shapes (D,), (D, D), (), (); an (N, D, D) stack
    gives (N, D), (N, D, D), (N,), (N,), row n holding what m[n] alone
    would give, from one batched LAPACK call: dgeev for a real m, zgeev for a
    complex one. Each row has its own unit, in which real_mask and
    multi_clusters take w (in_units(w, e)) and nu. w is complex; from dgeev
    a real eigenvalue has an imaginary part of exactly 0 and a real
    eigenvector, and a non-real one comes right after its exact conjugate,
    with a bit-identical real part and the conjugate eigenvector (v is real
    when every eigenvalue of the stack is). A tol outside (0, 1) raises
    ValueError before any solve (check_tol).
    """
    check_tol(tol)
    a = np.asarray(m)
    real = not np.iscomplexobj(a)
    a = a.astype(np.float64 if real else np.complex128, copy=False)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    parts = stack if real else np.ascontiguousarray(stack).view(np.float64)
    peak = np.abs(parts).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(peak).all():
        raise ValueError("matrix contains NaN or Inf entries")
    e = np.frexp(peak)[1]
    try:
        w, v = _sorted_pairs(*np.linalg.eig(stack))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK {'dgeev' if real else 'zgeev'} did not converge for dimension {a.shape[-1]}"
        ) from exc
    w = w.astype(np.complex128, copy=False)
    unit, wu = in_units(stack, e), in_units(w, e)
    # an inf eigenvalue times a 0 entry of v gives a NaN residual, which fails
    with np.errstate(invalid="ignore"):
        if real:
            v = np.ascontiguousarray(v)
            res = column_norms(real_matmul(unit, v) - v * wu[:, None, :])
        else:
            res = column_norms(unit @ v - v * wu[:, None, :])
    nu = frobenius_norms(unit)
    _check_residuals(res, nu, e, tol)
    if a.ndim == 2:
        return w[0], v[0], e[0], nu[0]
    return w, v, e, nu


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < 1. tol bounds a relative backward
    error: at 1 or above it accepts the eigenpairs of a matrix as far from m
    as m is from 0, and a NaN, 0 or negative tol would fail every eigenpair
    as though the input were ill-conditioned."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite, positive and below 1, got {tol}")


def in_units(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 2^-e[n] for each row n of a real or complex stack x, exact unless
    it leaves the float range; x itself when every e is 0. np.ldexp takes no
    complex input, so a complex x is scaled through its float64 view."""
    if not np.count_nonzero(e):
        return x
    e = -e.reshape(e.shape + (1,) * (x.ndim - 1))
    if np.iscomplexobj(x):
        return np.ldexp(np.ascontiguousarray(x).view(np.float64), e).view(x.dtype)
    return np.ldexp(x, e)


def _sorted_pairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (N, D) and eigenvector columns (N, D, D) of a stack, each
    row sorted by (Re, Im)."""
    order = np.lexsort((w.imag, w.real), axis=-1)
    rows = np.arange(w.shape[0])[:, None]
    # sorting the rows of each V^T: every V stays column-major, as LAPACK gives it
    return w[rows, order], v.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)


def real_mask(w: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Which eigenvalues of a real (N, D, D) stack m count as real: those in
    one cluster with their conjugate, 2|Im w| <= CLUSTER_REL_GAP * nu, the
    gap of multi_clusters. w (N, D) and nu (N,) are in each row's unit, as
    eig_arrays gives them: in_units(w, e) and ||m 2^-e||_F.

    dgeev returns a real eigenvalue with an imaginary part of exactly 0, so
    the test is structural; the gap admits only a (near-)degenerate real
    eigenvalue that round-off split into a 2x2 Schur block of a tiny pair.
    """
    return np.abs(w.imag) <= 0.5 * CLUSTER_REL_GAP * nu[:, None]


def _check_residuals(res: np.ndarray, nu: np.ndarray, e: np.ndarray, tol: float) -> None:
    """Raise ConvergenceError, naming the worst in m's own units, unless
    every residual of row n of res (N, D) is at most tol * nu[n], both in
    that row's unit 2^e[n]. A residual that is not finite fails."""
    peak = float(res.max(initial=0.0))
    if math.isfinite(peak) and peak <= tol * float(nu.min(initial=math.inf)):
        return  # every row's bound is at least the smallest
    bound = tol * nu[:, None]
    ok = np.isfinite(res) & (res <= bound)
    if ok.all():
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(ok, 0.0, np.where(np.isfinite(res), res / bound, np.inf))
    n, k = np.unravel_index(excess.argmax(), res.shape)
    # the figures in m's units may lie past the float range and read inf
    with np.errstate(over="ignore"):
        figure, limit = np.ldexp([res[n, k], bound[n, 0]], e[n])
    raise ConvergenceError(
        f"eigenpair residual {figure:.3e} above tolerance {tol:.3e} * ||M||_F "
        f"= {limit:.3e}; the input is ill-conditioned"
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
    """||m||_F of each matrix of an (N, D, D) stack."""
    return np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(-2, -1)))


def multi_clusters(w: np.ndarray, nu: np.ndarray) -> dict[int, list[range]]:
    """{row: runs} for the rows of an (N, D) stack of sorted eigenvalues
    that hold a cluster of two or more: runs are the index ranges of
    neighbours within CLUSTER_REL_GAP * nu[row] of each other. w and nu are
    in each row's unit, as for real_mask. |difference| is np.hypot of its
    parts, which equals Python's complex abs bit for bit."""
    diff = w[:, 1:] - w[:, :-1]
    cut = np.hypot(diff.real, diff.imag) > CLUSTER_REL_GAP * nu[:, None]
    found = {}
    for row in (~cut).any(axis=1).nonzero()[0].tolist():
        edges = [0, *(cut[row].nonzero()[0] + 1).tolist(), w.shape[1]]
        found[row] = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
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
