import numpy as np
import pytest

import ptmatrix as pt


def draw_unbroken(rng, margin=0.9):
    r = rng.uniform(-1, 1)
    t = rng.uniform(0.3, 1.5)
    s = rng.uniform(-1, 1) * t * np.sqrt(margin)
    return pt.TwoByTwoParams(r, s, t, rng.uniform(0, 2 * np.pi))


def test_h2_real_symmetric_limit():
    np.testing.assert_array_equal(
        pt.h2(pt.TwoByTwoParams(0.0, 0.0, 1.0, 0.0)), np.diag([1.0, -1.0])
    )


def test_h2_quarter_turn():
    got = pt.h2(pt.TwoByTwoParams(0.5, 0.7, 1.3, np.pi / 2))
    want = np.array([[0.5 - 0.7j, 1.3], [1.3, 0.5 + 0.7j]])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_h2_is_pt_symmetric(rng):
    for _ in range(50):
        r, s, t = rng.uniform(-2, 2, 3)
        phi = rng.uniform(0, 2 * np.pi)
        h = pt.h2(pt.TwoByTwoParams(r, s, t, phi))
        p = pt.p2(phi)
        assert pt.max_abs(h - h.T) <= 1e-12
        assert pt.max_abs(p @ h.conj() @ p - h) <= 1e-12


def test_h2_trace_and_det(rng):
    for _ in range(50):
        r, s, t = rng.uniform(-2, 2, 3)
        h = pt.h2(pt.TwoByTwoParams(r, s, t, rng.uniform(0, 2 * np.pi)))
        assert abs(np.trace(h) - 2 * r) <= 1e-12
        assert abs(np.linalg.det(h) - (r * r - t * t + s * s)) <= 1e-12


def test_p2_examples():
    np.testing.assert_allclose(pt.p2(np.pi / 2).real, [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_array_equal(pt.p2(0.0).real, np.diag([1.0, -1.0]))
    for phi in np.linspace(0, 2 * np.pi, 17):
        p = pt.p2(phi)
        assert pt.max_abs(p @ p - np.eye(2)) <= 1e-15


def test_p3_axis_specializations():
    np.testing.assert_allclose(
        pt.p3(pt.ThreeByThreeParityParams(0.0, 0.37)).real,
        np.diag([1.0, -1.0, 1.0]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        pt.p3(pt.ThreeByThreeParityParams(np.pi / 2, 0.0)).real,
        np.diag([-1.0, 1.0, 1.0]),
        atol=1e-15,
    )


def test_p3_invariants(rng):
    for _ in range(50):
        p = pt.p3(pt.ThreeByThreeParityParams(*rng.uniform(0, 2 * np.pi, 2)))
        assert pt.max_abs(p - p.T) <= 1e-12
        assert pt.max_abs(p.T @ p - np.eye(3)) <= 1e-12
        assert abs(np.trace(p) - 1.0) <= 1e-12
        w = sorted(pt.eig_arrays(p)[0].real)
        np.testing.assert_allclose(w, [-1.0, 1.0, 1.0], atol=1e-10)


def test_eig2_examples():
    assert pt.eig2(pt.TwoByTwoParams(1.0, 0.0, 1.0, 0.0)) == (2.0, 0.0)
    ep, em = pt.eig2(pt.TwoByTwoParams(1.0, 1.0, 2.0, 0.0))
    np.testing.assert_allclose([ep, em], [1 + np.sqrt(3), 1 - np.sqrt(3)], atol=1e-15)
    ep, em = pt.eig2(pt.TwoByTwoParams(0.0, 2.0, 1.0, 0.0))
    np.testing.assert_allclose([ep, em], [1j * np.sqrt(3), -1j * np.sqrt(3)], atol=1e-15)
    assert ep.imag > 0


def test_eig2_zero_t_fallback():
    ep, em = pt.eig2(pt.TwoByTwoParams(0.5, 0.7, 0.0, 1.0))
    np.testing.assert_allclose([ep, em], [0.5 + 0.7j, 0.5 - 0.7j], atol=1e-15)
    ep, em = pt.eig2(pt.TwoByTwoParams(0.5, 0.0, 0.0, 1.0))
    assert ep == em == 0.5


def test_eig2_matches_characteristic_roots(rng):
    for _ in range(200):
        r, s, t = rng.uniform(-2, 2, 3)
        params = pt.TwoByTwoParams(r, s, t, rng.uniform(0, 2 * np.pi))
        h = pt.h2(params)
        roots = list(np.roots([1.0, -np.trace(h), np.linalg.det(h)]))
        for z in pt.eig2(params):  # multiset match: conjugate pairs have
            nearest = min(roots, key=lambda u: abs(u - z))  # ulp-jittered reals
            roots.remove(nearest)
            assert abs(nearest - z) <= 1e-12


def test_eig2_continuity_toward_coalescence():
    gaps = []
    for k in range(1, 13):
        s = 1.0 - 10.0 ** (-k)
        ep, em = pt.eig2(pt.TwoByTwoParams(0.0, s, 1.0, 0.0))
        gaps.append(abs(ep - em))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


def test_vec2_limit_alignment():
    vp, vm = pt.vec2(pt.TwoByTwoParams(0.0, 0.0, 1.0, 0.0))
    np.testing.assert_allclose(np.abs(vp), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(vm), [0.0, 1.0], atol=1e-15)


def test_vec2_eigen_equation(rng):
    for _ in range(100):
        params = draw_unbroken(rng)
        h = pt.h2(params)
        ep, em = pt.eig2(params)
        vp, vm = pt.vec2(params)
        assert np.linalg.norm(h @ vp - ep * vp) <= 1e-10
        assert np.linalg.norm(h @ vm - em * vm) <= 1e-10


def test_vec2_pt_structure(rng):
    for _ in range(100):
        params = draw_unbroken(rng)
        p = pt.p2(params.phi)
        vp, vm = pt.vec2(params)
        for v, want in ((vp, 1.0), (vm, -1.0)):
            assert np.linalg.norm(pt.pt_apply(v, p) - v) <= 1e-12
            assert abs(pt.pt_inner(v, v, p) - want) <= 1e-12
        assert abs(pt.pt_inner(vp, vm, p)) <= 1e-12


def test_vec2_rejects_coalescence():
    with pytest.raises(pt.ExceptionalPointError):
        pt.vec2(pt.TwoByTwoParams(0.0, 1.0, 1.0, 0.0))
    with pytest.raises(pt.ExceptionalPointError):
        pt.vec2(pt.TwoByTwoParams(0.0, 0.0, 0.0, 0.0))


def test_c2_examples(rng):
    np.testing.assert_allclose(
        pt.c2(pt.TwoByTwoParams(0.3, 0.0, 1.1, 1.234)), pt.p2(1.234), atol=0
    )
    for _ in range(50):
        params = draw_unbroken(rng)
        c = pt.c2(params)
        assert pt.max_abs(c @ c - np.eye(2)) <= 1e-12


def test_c2_rejects_coalescence():
    with pytest.raises(pt.ExceptionalPointError):
        pt.c2(pt.TwoByTwoParams(0.0, 1.3, 1.3, 0.2))


def test_oracle_against_numeric_path(rng):
    # 500 draws: eigenvalues, eigenvectors (up to a global sign), C operator
    worst_eig = worst_vec = worst_c = 0.0
    for _ in range(500):
        params = draw_unbroken(rng)
        sys = pt.pt_system_from_matrices(pt.h2(params), pt.p2(params.phi))
        data = pt.classify_phase(sys)
        assert data.phase is pt.Phase.UNBROKEN

        ana = sorted(pt.eig2(params), key=lambda z: (z.real, z.imag))
        num = data.w.tolist()
        worst_eig = max(worst_eig, max(abs(a - b) for a, b in zip(ana, num)))

        worst_c = max(worst_c, pt.max_abs(pt.build_c_operator(sys) - pt.c2(params)))

        vp, vm = pt.vec2(params)
        ep, _ = pt.eig2(params)
        for v_ana, val in ((vp, ep), (vm, sum(pt.eig2(params)) - ep)):
            vec = data.v[:, np.argmin(np.abs(data.w - val))]
            v_num = vec / np.sqrt(abs(pt.pt_inner(vec, vec, sys.p)))
            d = min(pt.max_abs(v_num - v_ana), pt.max_abs(v_num + v_ana))
            worst_vec = max(worst_vec, d)
    assert worst_eig <= 1e-8
    assert worst_vec <= 1e-8
    assert worst_c <= 1e-8


def test_unbroken_flag():
    assert pt.TwoByTwoParams(0.0, 0.5, 1.0, 0.0).unbroken
    assert pt.TwoByTwoParams(0.0, 1.0, 1.0, 0.0).unbroken
    assert not pt.TwoByTwoParams(0.0, 1.5, 1.0, 0.0).unbroken
