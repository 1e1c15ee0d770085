import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt
from ptmatrix.linalg import CLUSTER_REL_GAP, clusters, eig_arrays, frobenius_norms

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eigendecompose_diagonal():
    w, _, res = eig_arrays(np.diag([2.0, 0.0]))
    assert w.tolist() == [0.0, 2.0]  # sorted by (re, im)
    assert (res <= 1e-14).all()


def test_eigendecompose_real_pair():
    # [[1-i, 2], [2, 1+i]]: characteristic polynomial x^2 - 2x - 2
    h = np.array([[1 - 1j, 2], [2, 1 + 1j]])
    got = eig_arrays(h)[0]
    ref = np.sort(np.roots([1, -2, -2]).real)
    np.testing.assert_allclose(got.real, ref, atol=1e-12)
    np.testing.assert_allclose(got.imag, [0, 0], atol=1e-12)
    np.testing.assert_allclose(got, [1 - np.sqrt(3), 1 + np.sqrt(3)], atol=1e-12)


def test_eigendecompose_conjugate_pair():
    # [[1, 2i], [2i, -1]]: x^2 + 3 = 0
    h = np.array([[1, 2j], [2j, -1]])
    got = eig_arrays(h)[0]
    np.testing.assert_allclose(got, [-1j * np.sqrt(3), 1j * np.sqrt(3)], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_eigendecompose_matches_lapack(dim, rng):
    for _ in range(10):
        m = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        got = eig_arrays(m)[0]
        ref = np.linalg.eigvals(m)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        np.testing.assert_allclose(got, ref, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_eigendecompose_recovers_planted_spectrum(dim, rng):
    # m = S diag(lam) S^-1 with ||S - I||_2 = 1/2, so cond(S) <= 3 and the
    # reference eigenvalues do not come from any eigensolver
    for _ in range(10):
        lam = rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = np.eye(dim) + 0.5 * g / np.linalg.norm(g, 2)
        m = s @ np.diag(lam) @ np.linalg.inv(s)
        got = eig_arrays(m)[0]
        np.testing.assert_allclose(got, lam[np.lexsort((lam.imag, lam.real))], atol=1e-9)


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(pt.ConvergenceError, match="zgeev did not converge for dimension 3") as info:
        pt.eig_arrays(np.eye(3, dtype=complex))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    with pytest.raises(pt.ConvergenceError, match="dgeev did not converge for dimension 3") as info:
        pt.eig_arrays(np.eye(3)[None])
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_residual_contract(dim, rng):
    for _ in range(25):
        m = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        _, v, res = eig_arrays(m, tol=1e-10)
        assert res.max() <= 1e-10
        for k in range(dim):
            np.testing.assert_allclose(np.linalg.norm(v[:, k]), 1.0, atol=1e-12)


def _scaled_residual(h, s):
    """The largest residual norm of zgeev's own eigenpairs of h, with the
    residual vectors scaled by 1/s before their squares are summed."""
    w, v = np.linalg.eig(h)
    return s * np.linalg.norm((h @ v - v * w) / s, axis=0).max()


@pytest.mark.parametrize("m,bad", [
    ([[1e300, 1e300j], [1e300j, -1e300]], "finite"),  # the residual's sum of squares overflows
    ([[1.7e308, 1e308], [1e308, 1.7e308]], "nan"),  # an eigenvalue is inf
])
def test_overflowing_residual_is_rejected_without_warning(m, bad):
    h = np.array(m, dtype=complex)
    with pytest.raises(pt.ConvergenceError, match="above tolerance") as exc:
        eig_arrays(h)
    figure = str(exc.value).split()[2]
    if bad == "nan":
        assert figure == "nan"
    else:
        assert float(figure) == pytest.approx(_scaled_residual(h, 1e300), rel=1e-3)


@pytest.mark.parametrize("s", [1e160, 1e200, 1e300])
def test_overflowing_cluster_gap_keeps_the_residual(s):
    # ||H||_F^2 overflows here; the cluster gap must not become inf, which
    # would join both eigenvalues into one cluster and rewrite its columns
    # (the message then read "residual 1.000e+00"), and
    # the residual's own sum of squares overflows past s = 1e154
    h = pt.h2(pt.TwoByTwoParams(0.0, s, 1.0, np.pi / 2))
    with pytest.raises(pt.ConvergenceError) as exc:
        eig_arrays(h)
    figure = float(str(exc.value).split()[2])
    assert figure == pytest.approx(_scaled_residual(h, s), rel=1e-3)


def test_frobenius_norms_of_large_entries_stay_finite():
    m = np.array([[[1e200, -1e200], [3e200, 0.0]], [[3.0, 0.0], [0.0, 4.0]]])
    norms = frobenius_norms(m)
    np.testing.assert_allclose(norms, [np.sqrt(11.0) * 1e200, 5.0], rtol=1e-15)
    gap = CLUSTER_REL_GAP * np.sqrt(11.0) * 1e200
    w = np.array([0.0, 0.5 * gap, 3.0 * gap], dtype=complex)
    assert clusters(w, norms[0]) == [range(0, 2), range(2, 3)]
    # column norms re-sum only the columns whose sum of squares overflows
    with np.errstate(over="ignore"):
        got = pt.linalg.column_norms(np.concatenate([m, 1j * m]))
    want = [[np.sqrt(10.0) * 1e200, 1e200], [3.0, 4.0]] * 2
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_eig_real_overflowing_residual_is_rejected_without_warning():
    m = np.array([[[1.7e308, 1e308], [1e308, 1.7e308]]])  # an eigenvalue is inf
    with pytest.raises(pt.ConvergenceError, match="eigenpair residual nan above tolerance"):
        eig_arrays(m)


def test_real_input_is_solved_by_dgeev_with_exact_conjugate_pairs(rng):
    m = rng.uniform(-1, 1, (64, 5, 5))
    w, x, res = eig_arrays(m)
    assert w.dtype == np.complex128 and x.flags.c_contiguous and res.max() <= 1e-10
    for row_w, row_x in zip(w, x):
        for k in np.flatnonzero(row_w.imag < 0.0):
            # a conjugate pair sorts -Im first; its partner is the exact conjugate
            assert row_w[k + 1] == row_w[k].conjugate()
            np.testing.assert_array_equal(row_x[:, k + 1], row_x[:, k].conj())
    _, x_real, _ = eig_arrays(np.diag([3.0, 1.0, 2.0]))
    assert x_real.dtype == np.float64


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_trace_and_determinant(dim, rng):
    for _ in range(10):
        m = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        w = eig_arrays(m)[0]
        assert abs(w.sum() - np.trace(m)) <= 1e-9
        det = np.linalg.det(m)
        assert abs(w.prod() - det) <= 1e-8 * max(1.0, abs(det))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dim=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenvalue_sum_is_trace(dim, seed):
    r = np.random.default_rng(seed)
    m = r.uniform(-1, 1, (dim, dim)) + 1j * r.uniform(-1, 1, (dim, dim))
    w = eig_arrays(m)[0]
    assert abs(w.sum() - np.trace(m)) <= 1e-9


def test_clusters_split_just_above_the_gap():
    norm = float(frobenius_norms(np.diag([3.0, 4.0])[None])[0])  # ||m||_F = 5
    gap = CLUSTER_REL_GAP * 5.0
    w = np.array([-gap, 0.0, np.nextafter(gap, np.inf), 1.0], dtype=complex)
    # |0 - (-gap)| is exactly the gap (joined); the next step is one ulp above
    assert clusters(w, norm) == [range(0, 2), range(2, 3), range(3, 4)]
    assert clusters(w[:0], norm) == []
    assert clusters(np.zeros(3, dtype=complex), norm) == [range(0, 3)]


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        eig_arrays(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_arrays(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="NaN"):
        eig_arrays(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


def test_eigendecompose_solves_beyond_64():
    # no dimension cap: D = 65 solves like any other size
    diag = np.arange(65, 0, -1) / 7.0
    w, _, res = eig_arrays(np.diag(diag))
    assert res.max() <= pt.DEFAULT_TOL
    np.testing.assert_array_equal(w, np.sort(diag))


def test_defective_input_keeps_residual_contract():
    # only one eigendirection exists; it is returned (repeated) with a tiny
    # residual, and inverting the eigenvector matrix flags it as singular
    jordan = np.eye(4, k=1) + 2 * np.eye(4)
    for m in (jordan, jordan.astype(complex)):
        w, v, res = eig_arrays(m)
        assert res.max() <= 1e-12
        np.testing.assert_allclose(w, [2.0] * 4, atol=1e-8)
        with pytest.raises(pt.ExceptionalPointError):
            pt.linalg.eigvec_inverse(v)


def test_predicates():
    assert pt.is_symmetric(SWAP)
    assert pt.is_hermitian(SWAP)
    assert pt.is_real(SWAP)
    assert pt.is_orthogonal(SWAP)
    assert not pt.is_symmetric(np.array([[0, 1], [-1, 0]]))
    assert not pt.is_hermitian(np.array([[0, 1j], [1j, 0]]))
    assert pt.is_symmetric(np.array([[0, 1j], [1j, 0]]))
