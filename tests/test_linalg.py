import importlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt
from ptmatrix.linalg import (
    CLUSTER_REL_GAP, column_norms, eig_arrays, frobenius_norms, in_units, multi_clusters,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _residuals(m, w, v):
    """||m v_k - w_k v_k||_2 of each eigenpair, in m's own units."""
    return np.linalg.norm(m @ v - v * w[..., None, :], axis=-2)


def test_eigendecompose_diagonal():
    m = np.diag([2.0, 0.0])
    w, v, e, nu = eig_arrays(m)
    assert w.tolist() == [0.0, 2.0]  # sorted by (re, im)
    assert (_residuals(m, w, v) <= 1e-14).all()
    assert (e, nu) == (2, 0.5)  # max|m| = 2 = 0.5 * 2^2, ||m 2^-2||_F = 0.5


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
        w, v, _, _ = eig_arrays(m, tol=1e-10)
        assert _residuals(m, w, v).max() <= 1e-10 * np.linalg.norm(m)
        for k in range(dim):
            np.testing.assert_allclose(np.linalg.norm(v[:, k]), 1.0, atol=1e-12)


def _scaled_residual(h, s):
    """The largest residual norm of zgeev's own eigenpairs of h, with the
    residual vectors scaled by 1/s before their squares are summed."""
    w, v = np.linalg.eig(h)
    return s * np.linalg.norm((h @ v - v * w) / s, axis=0).max()


@pytest.mark.parametrize("m,bad", [
    ([[1e300, 1e300j], [1e300j, -1e300]], "finite"),  # squares past the float range
    ([[1.7e308, 1e308], [1e308, 1.7e308]], "nan"),  # an eigenvalue is inf
])
def test_overflowing_residual_is_rejected_without_warning(m, bad):
    # the finite residual is round-off relative to ||H||_F, so only a
    # tolerance below round-off rejects it; a NaN residual fails at any tol
    h = np.array(m, dtype=complex)
    if bad == "finite":
        eig_arrays(h)
        assert _scaled_residual(h, 1e300) > 1e280
    tol = 1e-300 if bad == "finite" else pt.DEFAULT_TOL
    with pytest.raises(pt.ConvergenceError, match="above tolerance") as exc:
        eig_arrays(h, tol)
    figure = str(exc.value).split()[2]
    if bad == "nan":
        assert figure == "nan"
    else:
        assert float(figure) == pytest.approx(_scaled_residual(h, 1e300), rel=1e-3)


@pytest.mark.parametrize("s", [1e160, 1e200, 1e300])
def test_overflowing_cluster_gap_keeps_the_residual(s):
    # ||H||_F^2 is past the float range here, and the residual's own sum of
    # squares past s = 1e154; in H's unit neither is. The cluster gap must
    # not become inf, which would join both eigenvalues into one cluster and
    # rewrite its columns. The relative bound accepts the pair; a tolerance
    # below round-off rejects it with the true figure
    h = pt.h2(pt.TwoByTwoParams(0.0, s, 1.0, np.pi / 2))
    data = pt.classify_phase(pt.pt_system_from_matrices(h, pt.p2(np.pi / 2)))
    assert data.phase is pt.Phase.BROKEN and data.conjugate_pairs == 1
    assert data.w[1] == data.w[0].conjugate() != data.w[0]
    with pytest.raises(pt.ConvergenceError) as exc:
        eig_arrays(h, 1e-300)
    figure = float(str(exc.value).split()[2])
    assert figure == pytest.approx(_scaled_residual(h, s), rel=1e-3)


def test_infinite_residual_fails_where_the_norm_is_infinite(monkeypatch):
    # ||M||_F overflows to inf, but in M's unit it is finite: the bound is
    # tol * ||M||_F = 3.4e298, and a residual past the float range reads inf
    m = np.full((1, 2, 2), 1.7e308)
    with np.errstate(over="ignore"):
        assert np.isinf(frobenius_norms(m)).all()
    monkeypatch.setattr(np.linalg, "eig", lambda a: (np.zeros(a.shape[:-1]), np.eye(2)[None]))
    with pytest.raises(pt.ConvergenceError, match=r"eigenpair residual inf above tolerance "
                                                  r"1.000e-10 \* \|\|M\|\|_F = 3.400e\+298"):
        eig_arrays(m)
    # an eigenvalue past the float range leaves a NaN residual where it meets
    # a 0 part of its eigenvector, and an inf one where every part of a
    # complex eigenvector is nonzero; both fail at every tol, also where
    # tol * ||M||_F is inf in M's own units
    dense = np.array([[[1.0, 1.0], [1.0, -1.0]]]) * (0.5 + 0.5j)
    for stack, v, figure in ((m, np.eye(2)[None], "nan"), (m + 0j, dense, "inf")):
        monkeypatch.setattr(np.linalg, "eig", lambda a, v=v: (np.array([[np.inf, 0.0]]), v))
        for tol in (1e-10, 0.5, np.nextafter(1.0, 0.0)):
            with pytest.raises(pt.ConvergenceError, match=f"eigenpair residual {figure} above"):
                eig_arrays(stack, tol)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, 1.0, 2.0, 1e300, np.inf, -np.inf])
def test_tol_outside_the_unit_interval_is_a_value_error(monkeypatch, tol):
    # tol bounds a relative backward error: a NaN, 0 or negative tol would
    # blame every input, and one of 1 or above checks nothing
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("solved before checking tol"))
    for m in (np.eye(2), np.eye(2)[None], np.eye(2) + 0j):
        with pytest.raises(ValueError, match=re.escape(f"below 1, got {tol}")):
            eig_arrays(m, tol)


def test_frobenius_norms_of_large_entries_stay_finite():
    # in each matrix's unit 2^e no sum of squares overflows, and the norms
    # scale back exactly
    m = np.array([[[1e200, -1e200], [3e200, 0.0]], [[3.0, 0.0], [0.0, 4.0]]])
    for stack in (m, 1j * m):
        _, _, e, nu = eig_arrays(stack)
        np.testing.assert_array_equal(nu, frobenius_norms(in_units(stack, e)))
        np.testing.assert_allclose(np.ldexp(nu, e), [np.sqrt(11.0) * 1e200, 5.0], rtol=1e-15)
        got = np.ldexp(column_norms(in_units(stack, e)), e[:, None])
        np.testing.assert_allclose(got, [[np.sqrt(10.0) * 1e200, 1e200], [3.0, 4.0]], rtol=1e-15)
    # the cluster gap stays relative: 1e-8 ||m||_F of the first row
    gap = CLUSTER_REL_GAP * np.sqrt(11.0) * 1e200
    w = np.array([[0.0, 0.5 * gap, 3.0 * gap], [0.0, 1.0, 2.0]], dtype=complex)
    assert multi_clusters(in_units(w, e), nu) == {0: [range(0, 2), range(2, 3)]}


def test_eig_real_overflowing_residual_is_rejected_without_warning():
    m = np.array([[[1.7e308, 1e308], [1e308, 1.7e308]]])  # an eigenvalue is inf
    with pytest.raises(pt.ConvergenceError, match="eigenpair residual nan above tolerance"):
        eig_arrays(m)


def test_real_input_is_solved_by_dgeev_with_exact_conjugate_pairs(rng):
    m = rng.uniform(-1, 1, (64, 5, 5))
    w, x, _, _ = eig_arrays(m)
    assert w.dtype == np.complex128 and x.flags.c_contiguous
    assert _residuals(m, w, x).max() <= 1e-10
    for row_w, row_x in zip(w, x):
        for k in np.flatnonzero(row_w.imag < 0.0):
            # a conjugate pair sorts -Im first; its partner is the exact conjugate
            assert row_w[k + 1] == row_w[k].conjugate()
            np.testing.assert_array_equal(row_x[:, k + 1], row_x[:, k].conj())
    _, x_real, _, _ = eig_arrays(np.diag([3.0, 1.0, 2.0]))
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
    # ||m||_F = 5 = 0.625 * 2^3, so w = -gap is exactly the gap in units too
    _, _, e, nu = eig_arrays(np.diag([3.0, 4.0])[None])
    assert (e.tolist(), nu.tolist()) == ([3], [0.625])
    gap = CLUSTER_REL_GAP * 5.0
    w = np.array([[-gap, 0.0, np.nextafter(gap, np.inf), 1.0]], dtype=complex)
    # |0 - (-gap)| is exactly the gap (joined); the next step is one ulp above
    assert multi_clusters(in_units(w, e), nu) == {0: [range(0, 2), range(2, 3), range(3, 4)]}
    # only rows that hold a cluster of two or more are listed
    rows = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.5, 0.5j, 0.5j]])
    assert multi_clusters(rows, np.ones(3)) == {0: [range(0, 3)], 2: [range(0, 1), range(1, 3)]}
    assert multi_clusters(w[:, :0], nu) == {}


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
    w, v, _, _ = eig_arrays(np.diag(diag))
    assert _residuals(np.diag(diag), w, v).max() <= pt.DEFAULT_TOL
    np.testing.assert_array_equal(w, np.sort(diag))


def test_defective_input_keeps_residual_contract():
    # only one eigendirection exists; it is returned (repeated) with a tiny
    # residual, and inverting the eigenvector matrix flags it as singular
    jordan = np.eye(4, k=1) + 2 * np.eye(4)
    for m in (jordan, jordan.astype(complex)):
        w, v, _, _ = eig_arrays(m)
        assert _residuals(m, w, v).max() <= 1e-12
        np.testing.assert_allclose(w, [2.0] * 4, atol=1e-8)
        with pytest.raises(pt.ExceptionalPointError):
            pt.linalg.eigvec_inverse(v)


def test_predicates():
    # SWAP is real symmetric and orthogonal, so it is its own parity
    assert pt.max_abs(SWAP.T @ SWAP - np.eye(2)) == 0.0
    assert pt.classify_matrix(SWAP, SWAP) == set(pt.MatrixClass)
    assert pt.classify_matrix(np.array([[0, 1], [-1, 0]])) == set()
    assert pt.classify_matrix(np.array([[0, 1j], [1j, 0]])) == {pt.MatrixClass.SYMMETRIC}


THRESHOLD_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(?:TOL|RTOL|CAP|GAP|LIMIT|THRESHOLD)\b")
# a table row: the name, an optional alias in parentheses, the value
POLICY_ROW = re.compile(rf"({THRESHOLD_NAME.pattern})(?: \(\w+\))? +(\S+) ")


def test_every_threshold_is_in_the_policy_table():
    # each module-level threshold of the package has a row in the linalg
    # docstring's table, with its value; each row names a live threshold
    table = pt.linalg.__doc__.split("Tolerance policy", 1)[1]
    rows = {}
    for line in table.splitlines():
        if match := POLICY_ROW.match(line):
            rows[match.group(1)] = float(match.group(2))
    found = {}
    for info in pkgutil.iter_modules(pt.__path__):
        module = importlib.import_module(f"ptmatrix.{info.name}")
        for name, value in vars(module).items():
            if THRESHOLD_NAME.fullmatch(name):
                found.setdefault(name, value)
    assert found == rows
