"""PT and CPT inner products, spectral construction of the C operator, and
the weight-matrix generalization forced by asymmetric Hamiltonians.

The PT inner product (a|b) = [P conj(a)]^T b is indefinite: phase-fixed
eigenvectors of an unbroken system carry norms +-1. The C operator is the sum
of outer products of the PT-normalized eigenvectors with their PT-conjugate
rows; it squares to the identity, commutes with the Hamiltonian, and flips
exactly the negative-norm directions, making the CPT product positive
definite.
"""

from __future__ import annotations

import numpy as np

from .construct import PTSystem
from .errors import BrokenPhaseError, ExceptionalPointError
from .linalg import COND_CAP, DEFAULT_TOL, as_matrix
from .spectral import EP_ISOTROPY_TOL, Phase, SpectralData, classify_phase, pt_apply


def pt_inner(a, b, p) -> complex:
    """(a|b): dot product of the PT conjugate of a with b."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.shape != bv.shape:
        raise ValueError("vector dimensions do not match")
    return complex(pt_apply(av, p) @ bv)


def c_operator(data: SpectralData, p) -> np.ndarray:
    """C = sum_k v_k (P conj v_k)^T / |(v_k|v_k)| over the phase-fixed unit
    eigenvectors of an unbroken classification, so that C v_k = s_k v_k.
    Raises ExceptionalPointError when a PT norm is below EP_ISOTROPY_TOL, the
    limit below which classify_phase calls the system exceptional
    (eigenvectors coalescing)."""
    if data.phase is Phase.BROKEN:
        raise BrokenPhaseError("the C operator exists only in the unbroken phase")
    if data.phase is Phase.EXCEPTIONAL:
        raise ExceptionalPointError("no C operator at an exceptional point")
    v = data.v
    rows = as_matrix(p) @ v.conj()  # column k is the PT conjugate of v_k
    norms = np.abs(np.einsum("ik,ik->k", rows, v))
    if (norms < EP_ISOTROPY_TOL).any():
        raise ExceptionalPointError(
            f"vanishing PT norm {norms.min():.3e}: exceptional point"
        )
    return (v / norms) @ rows.T


def build_c_operator(sys: PTSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """C of the system's own classification, tol bounding its eigenpairs'
    relative backward error (classify_phase); see c_operator."""
    return c_operator(classify_phase(sys, tol), sys.p)


def cpt_inner(a, b, c, p) -> complex:
    """<a|b>: dot product of the CPT conjugate of a with b."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.shape != bv.shape:
        raise ValueError("vector dimensions do not match")
    cm = as_matrix(c)
    return complex((cm @ pt_apply(av, p)) @ bv)


def build_weight_matrix(eigvecs, p) -> np.ndarray:
    """Solve (v_m| W |v_n) = delta_mn over the given eigenvector basis.

    Least squares is used for mildly ill-conditioned bases; a basis with
    condition number at or above COND_CAP (or a rank-deficient one) raises.
    For a symmetric unbroken Hamiltonian with PT-normalized eigenvectors the
    result coincides with the C operator.
    """
    v = np.column_stack([np.asarray(x, dtype=np.complex128) for x in eigvecs])
    if v.shape[0] != v.shape[1]:
        raise ValueError("need exactly dim eigenvectors of length dim")
    pm = as_matrix(p)
    rows = (pm @ v.conj()).T  # row m is the PT conjugate of eigenvector m
    eye = np.eye(v.shape[0], dtype=np.complex128)
    for basis in (v, rows):
        sing = np.linalg.svd(basis, compute_uv=False)
        if sing[-1] <= 0.0 or sing[0] / sing[-1] >= COND_CAP:
            raise ValueError("eigenvector basis is singular or too ill-conditioned")
    inv_rows = np.linalg.lstsq(rows, eye, rcond=None)[0]
    inv_v = np.linalg.lstsq(v, eye, rcond=None)[0]
    return inv_rows @ inv_v
