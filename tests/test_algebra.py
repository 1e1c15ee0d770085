import numpy as np
import pytest

import ptmatrix as pt

from _seeds import UNBROKEN_SEEDS
from conftest import random_state, unbroken_system, unbroken_systems

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level_system(r, s, t, phi):
    return pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(r, s, t, phi)), pt.p2(phi)
    )


def test_pt_conjugate_examples():
    # PT conjugation v -> P conj(v), via pt_apply
    v = np.array([0.2, 1.4], dtype=complex)
    np.testing.assert_array_equal(pt.pt_apply(v, np.eye(2)), v)
    np.testing.assert_array_equal(
        pt.pt_apply(np.array([1.0, 1j]), SWAP), np.array([-1j, 1.0])
    )


def test_pt_conjugate_of_phase_fixed_is_transpose():
    # the PT-conjugate row [P conj(v)]^T of a phase-fixed v is v^T
    params = pt.TwoByTwoParams(0.1, 0.4, 1.0, 0.9)
    vp, vm = pt.vec2(params)
    p = pt.p2(params.phi)
    np.testing.assert_allclose(pt.pt_apply(vp, p), vp, atol=1e-12)
    np.testing.assert_allclose(pt.pt_apply(vm, p), vm, atol=1e-12)


def test_pt_inner_norms_and_orthogonality():
    params = pt.TwoByTwoParams(-0.3, 0.5, 1.2, 2.1)
    vp, vm = pt.vec2(params)
    p = pt.p2(params.phi)
    assert abs(pt.pt_inner(vp, vp, p) - 1.0) <= 1e-12
    assert abs(pt.pt_inner(vm, vm, p) + 1.0) <= 1e-12
    assert abs(pt.pt_inner(vp, vm, p)) <= 1e-12
    e0 = np.array([1.0, 0.0], dtype=complex)
    assert pt.pt_inner(e0, e0, np.eye(2)) == 1.0


def test_pt_inner_conjugate_symmetry(rng):
    p = pt.make_parity(pt.ParitySpec(2, 2, rng.uniform(0, 2 * np.pi, 6)))
    for _ in range(50):
        a = random_state(rng, 4)
        b = random_state(rng, 4)
        lhs = np.conj(pt.pt_inner(a, b, p))
        rhs = pt.pt_inner(b, a, p)
        assert abs(lhs - rhs) <= 1e-12


def test_c_operator_matches_closed_form():
    params = pt.TwoByTwoParams(0.2, 0.6, 1.1, np.pi / 2)
    c = pt.build_c_operator(
        two_level_system(params.r, params.s, params.t, params.phi)
    )
    # phi = pi/2 specialization: (1/cos a) [[-i sin a, 1], [1, i sin a]]
    sa = params.s / params.t
    ca = np.sqrt(1 - sa**2)
    want = np.array([[-1j * sa, 1.0], [1.0, 1j * sa]]) / ca
    np.testing.assert_allclose(c, want, atol=1e-12)
    np.testing.assert_allclose(c, pt.c2(params), atol=1e-12)


def test_c_operator_reduces_to_parity():
    sys = two_level_system(0.4, 0.0, 1.0, 1.7)
    np.testing.assert_allclose(pt.build_c_operator(sys), pt.p2(1.7), atol=1e-10)


def test_c_operator_eigenaction():
    systems = [two_level_system(0.0, 0.4, 1.0, 0.6), *unbroken_systems(8, 6, 2, 50)]
    for sys in systems:
        c = pt.build_c_operator(sys)
        data = pt.classify_phase(sys)
        for v, sign in zip(data.v.T, data.pt_norm_signs):
            np.testing.assert_allclose(c @ v, sign * v, atol=1e-10)


def _outer_product_c(sys):
    """C as a per-pair loop: sum of vhat (P conj vhat)^T over the phase-fixed
    eigenvectors, with vhat = v / sqrt(|(v|v)|)."""
    c = np.zeros((sys.dim, sys.dim), dtype=complex)
    for v in pt.classify_phase(sys).v.T:
        vhat = v / np.sqrt(abs(pt.pt_inner(v, v, sys.p)))
        c += np.outer(vhat, pt.pt_apply(vhat, sys.p))
    return c


def test_c_operator_matches_outer_product_loop():
    systems = [unbroken_system(*key, idx) for key in UNBROKEN_SEEDS for idx in range(5)]
    # H = I: one degenerate cluster, phase-fixed as a block
    systems.append(pt.pt_system_from_matrices(np.eye(2), pt.p2(1.3)))
    for sys in systems:
        ref = _outer_product_c(sys)
        c = pt.build_c_operator(sys)
        assert pt.max_abs(c - ref) <= 1e-12 * max(1.0, pt.max_abs(ref)), sys.dim


def test_c_operator_reuses_a_classification():
    sys = unbroken_system(8, 6, 2, 0)
    data = pt.classify_phase(sys)
    np.testing.assert_array_equal(pt.c_operator(data, sys.p), pt.build_c_operator(sys))
    broken = two_level_system(0.0, 2.0, 1.0, 0.0)
    with pytest.raises(pt.BrokenPhaseError):
        pt.c_operator(pt.classify_phase(broken), broken.p)


def test_c_operator_vanishing_pt_norm_raises():
    # (v|v) = 0 for v = (1, i)/sqrt(2) under the swap parity
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    data = pt.SpectralData(
        np.array([0.0, 1.0], dtype=complex), np.column_stack([v, v.conj()]), np.zeros(2),
        pt.Phase.UNBROKEN, 2, 0, np.array([1, -1]),
    )
    with pytest.raises(pt.ExceptionalPointError, match="vanishing PT norm"):
        pt.c_operator(data, SWAP)


def test_c_operator_broken_raises():
    with pytest.raises(pt.BrokenPhaseError):
        pt.build_c_operator(two_level_system(0.0, 2.0, 1.0, 0.0))
    with pytest.raises(pt.ExceptionalPointError):
        pt.build_c_operator(two_level_system(0.0, 1.0 + 1e-10, 1.0, 0.0))


@pytest.mark.parametrize("dim,mp,mm", [(2, 1, 1), (3, 2, 1), (4, 2, 2)])
def test_c_operator_invariants(dim, mp, mm):
    eye = np.eye(dim)
    for idx in range(10):
        sys = unbroken_system(dim, mp, mm, idx)
        c = pt.build_c_operator(sys)
        assert pt.max_abs(c @ c - eye) <= 1e-8
        assert pt.max_abs(c @ sys.h - sys.h @ c) <= 1e-8
        assert pt.max_abs(sys.p @ c.conj() @ sys.p - c) <= 1e-8
        assert pt.max_abs(c - c.T) <= 1e-9  # C inherits symmetry from H and P


def test_cpt_inner_flips_negative_norm():
    sys = two_level_system(0.1, 0.5, 1.3, 2.6)
    c = pt.build_c_operator(sys)
    data = pt.classify_phase(sys)
    vecs = []
    for v in data.v.T:
        nrm = pt.pt_inner(v, v, sys.p)
        vecs.append(v / np.sqrt(abs(nrm)))
    for v in vecs:
        assert abs(pt.cpt_inner(v, v, c, sys.p) - 1.0) <= 1e-10
    assert abs(pt.cpt_inner(vecs[0], vecs[1], c, sys.p)) <= 1e-10


def test_cpt_inner_mixture_norm():
    sys = two_level_system(0.0, 0.3, 1.0, 1.0)
    c = pt.build_c_operator(sys)
    data = pt.classify_phase(sys)
    vm, vp = (v / np.sqrt(abs(pt.pt_inner(v, v, sys.p))) for v in data.v.T)
    mu, nu = 0.3 - 0.7j, -1.1 + 0.2j
    mix = mu * vm + nu * vp
    got = pt.cpt_inner(mix, mix, c, sys.p)
    assert abs(got - (abs(mu) ** 2 + abs(nu) ** 2)) <= 1e-10


def test_cpt_positivity_random_vectors(rng):
    sys = unbroken_system(4, 2, 2, 1)
    c = pt.build_c_operator(sys)
    for _ in range(100):
        a = random_state(rng, 4)
        val = pt.cpt_inner(a, a, c, sys.p)
        assert abs(val.imag) <= 1e-10
        assert val.real > 0.0


def test_weight_matrix_identity_basis():
    vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    np.testing.assert_allclose(pt.build_weight_matrix(vecs, np.eye(2)), np.eye(2), atol=1e-12)


def test_weight_matrix_equals_c_for_symmetric_system():
    sys = unbroken_system(3, 2, 1, 0)
    c = pt.build_c_operator(sys)
    data = pt.classify_phase(sys)
    vecs = []
    for v in data.v.T:
        nrm = pt.pt_inner(v, v, sys.p)
        vecs.append(v / np.sqrt(abs(nrm)))
    w = pt.build_weight_matrix(vecs, sys.p)
    assert pt.max_abs(w - c) <= 1e-8


def test_weight_matrix_asymmetric_does_not_commute():
    h = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    _, v, _ = pt.eig_arrays(h)
    w = pt.build_weight_matrix(list(v.T), np.eye(2))
    assert pt.max_abs(w @ h - h @ w) > 1e-3


def test_weight_matrix_singular_basis_raises():
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError):
        pt.build_weight_matrix([v, v], np.eye(2))
