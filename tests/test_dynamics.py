import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix.dynamics import TIME_BLOCK
from ptmatrix.linalg import diagonalize, eig_arrays

from conftest import random_state, unbroken_system

ASYM = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)


def test_evolve_zero_time(rng):
    sys = unbroken_system(3, 2, 1, 0)
    a = random_state(rng, 3)
    np.testing.assert_allclose(pt.evolve(sys, a, 0.0), a, atol=1e-12)


def test_evolve_eigenstate_phase():
    sys = unbroken_system(4, 2, 2, 0)
    data = pt.classify_phase(sys)
    for pair in data.pairs:
        got = pt.evolve(sys, pair.vector, 2.3)
        want = np.exp(-1j * pair.value * 2.3) * pair.vector
        assert np.linalg.norm(got - want) <= 1e-9


def test_evolve_inverse(rng):
    sys = unbroken_system(4, 2, 2, 1)
    a = random_state(rng, 4)
    back = pt.evolve(sys, pt.evolve(sys, a, 1.9), -1.9)
    assert np.linalg.norm(back - a) <= 1e-8


def test_evolve_linearity(rng):
    sys = unbroken_system(3, 2, 1, 1)
    a, b = random_state(rng, 3), random_state(rng, 3)
    al, be = 0.7 - 0.2j, -0.4 + 1.1j
    lhs = pt.evolve(sys, al * a + be * b, 1.3)
    rhs = al * pt.evolve(sys, a, 1.3) + be * pt.evolve(sys, b, 1.3)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_evolve_exceptional_raises():
    h = pt.h2(pt.TwoByTwoParams(0.0, 1.0, 1.0, 0.4))
    sys = pt.pt_system_from_matrices(h, pt.p2(0.4))
    with pytest.raises(pt.ExceptionalPointError):
        pt.evolve(sys, np.array([1.0, 0.0]), 1.0)


def test_unitarity_trace_eigenstate_constant():
    sys = unbroken_system(4, 2, 2, 2)
    c = pt.build_c_operator(sys)
    data = pt.classify_phase(sys)
    v = data.pairs[0].vector
    nrm = pt.pt_inner(v, v, sys.p)
    v = v / np.sqrt(abs(nrm))
    trace = pt.unitarity_trace(sys, c, v, v)
    np.testing.assert_allclose(trace.inner_products, 1.0, atol=1e-10)
    assert trace.max_drift <= 1e-10
    assert np.all(np.diff(trace.times) > 0)


def test_unitarity_trace_random_states(rng):
    sys = unbroken_system(4, 2, 2, 3)
    c = pt.build_c_operator(sys)
    a, b = random_state(rng, 4), random_state(rng, 4)
    trace = pt.unitarity_trace(sys, c, a, b)
    assert trace.max_drift <= 1e-8
    assert trace.times.shape == (101,) and trace.times[-1] == 10.0


def test_pt_product_also_conserved(rng):
    sys = unbroken_system(3, 2, 1, 2)
    a, b = random_state(rng, 3), random_state(rng, 3)
    trace = pt.unitarity_trace(sys, None, a, b, product="pt")
    assert trace.max_drift <= 1e-8


def test_probability_conservation(rng):
    sys = unbroken_system(4, 2, 2, 4)
    c = pt.build_c_operator(sys)
    a = random_state(rng, 4)
    trace = pt.unitarity_trace(sys, c, a, a, t_max=10.0, steps=101)
    assert np.all(np.abs(trace.inner_products.imag) <= 1e-10)
    assert np.all(trace.inner_products.real > 0.0)
    assert trace.max_drift <= 1e-8


def test_unitarity_trace_validation(rng):
    sys = unbroken_system(3, 2, 1, 0)
    a = random_state(rng, 3)
    with pytest.raises(ValueError):
        pt.unitarity_trace(sys, None, a, a, steps=1, product="pt")
    with pytest.raises(ValueError):
        pt.unitarity_trace(sys, None, a, a, product="euclidean")
    with pytest.raises(ValueError):
        pt.unitarity_trace(sys, None, a, a)  # cpt needs C


def test_nonunitarity_demo_asymmetric():
    res = pt.nonunitarity_demo(ASYM, np.eye(2))
    assert res.conclusive
    assert res.commutator_norm > 1e-3 * pt.max_abs(ASYM)
    assert res.trace.max_drift > 1e-3


def test_nonunitarity_demo_symmetric_control():
    sys = unbroken_system(3, 2, 1, 1)
    res = pt.nonunitarity_demo(sys.h, sys.p)
    assert not res.conclusive
    assert res.trace.max_drift <= 1e-8


def test_nonunitarity_demo_zero_horizon():
    res = pt.nonunitarity_demo(ASYM, np.eye(2), t_max=0.0)
    assert res.trace.max_drift == 0.0


# Per-step reference: the former algorithm, one propagator apply per state and
# one cpt_inner / pt_inner call per time. The block evaluation sums in another
# order, so it must agree to round-off, not bit for bit.
LOOP_STEPS = 2 * TIME_BLOCK + 3  # crosses two block edges, ends in a partial block


def _step_propagator(h):
    w, v, vinv = diagonalize(h, pt.DEFAULT_TOL)
    return lambda state, t: v @ (np.exp(-1j * w * t) * (vinv @ state))


def _loop_trace(sys, c, a, b, t_max, steps, product):
    apply = _step_propagator(sys.h)
    times = np.linspace(0.0, t_max, steps)
    vals = np.empty(steps, dtype=np.complex128)
    for k, t in enumerate(times):
        at, bt = apply(a, float(t)), apply(b, float(t))
        vals[k] = pt.cpt_inner(at, bt, c, sys.p) if product == "cpt" else pt.pt_inner(at, bt, sys.p)
    return vals


def _loop_nonunitarity(h, p, t_max, steps, seed):
    w, v, _ = eig_arrays(h)
    weight = pt.build_weight_matrix([v[:, k] for k in range(h.shape[0])], p)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    b = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    apply_ket, apply_bra = _step_propagator(h), _step_propagator(h.T)
    row0 = pt.pt_conjugate(a, p)
    times = np.linspace(0.0, t_max, steps)
    vals = np.empty(steps, dtype=np.complex128)
    for k, t in enumerate(times):
        vals[k] = (apply_bra(row0, -float(t)) @ weight) @ apply_ket(b, float(t))
    return vals


def _assert_matches_loop(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("product", ["cpt", "pt"])
def test_unitarity_trace_matches_step_loop(rng, product):
    sys = unbroken_system(8, 6, 2, 0)
    c = pt.build_c_operator(sys)
    a, b = random_state(rng, 8), random_state(rng, 8)
    trace = pt.unitarity_trace(sys, c, a, b, t_max=25.0, steps=LOOP_STEPS, product=product)
    want = _loop_trace(sys, c, a, b, 25.0, LOOP_STEPS, product)
    _assert_matches_loop(trace.inner_products, want)
    assert trace.max_drift == float(np.max(np.abs(trace.inner_products - trace.inner_products[0])))


@pytest.mark.parametrize("which", ["symmetric_862", "asymmetric"])
def test_nonunitarity_demo_matches_step_loop(which):
    if which == "asymmetric":
        h, p = ASYM, np.eye(2, dtype=complex)
    else:
        sys = unbroken_system(8, 6, 2, 1)
        h, p = sys.h, sys.p
    res = pt.nonunitarity_demo(h, p, t_max=25.0, steps=LOOP_STEPS, seed=5)
    _assert_matches_loop(res.trace.inner_products, _loop_nonunitarity(h, p, 25.0, LOOP_STEPS, 5))


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_horizon_rejected(rng, t_max):
    sys = unbroken_system(3, 2, 1, 0)
    a = random_state(rng, 3)
    with pytest.raises(ValueError, match="t_max"):
        pt.unitarity_trace(sys, None, a, a, t_max=t_max, product="pt")
    with pytest.raises(ValueError, match="t_max"):
        pt.nonunitarity_demo(ASYM, np.eye(2), t_max=t_max)


def test_overflowing_samples_raise_with_first_time(rng):
    sys = unbroken_system(4, 2, 2, 0)
    c = pt.build_c_operator(sys)
    a = random_state(rng, 4)
    with pytest.raises(pt.ConvergenceError, match=r"non-finite inner product at t = "):
        pt.unitarity_trace(sys, c, a, a, t_max=1e308, steps=101)
    # ASYM has eigenvalues 1 and 3: exp(-3it) overflows first at t = 6e307
    with pytest.raises(pt.ConvergenceError, match=r"at t = 6e\+307$"):
        pt.nonunitarity_demo(ASYM, np.eye(2), t_max=1e308, steps=51)


def test_unitarity_trace_rejects_state_of_wrong_dimension(rng):
    sys = unbroken_system(3, 2, 1, 0)
    with pytest.raises(ValueError):
        pt.unitarity_trace(sys, None, random_state(rng, 3), random_state(rng, 4), product="pt")
