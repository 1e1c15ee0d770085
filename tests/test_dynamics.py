import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix.dynamics import TIME_BLOCK
from ptmatrix.linalg import eig_arrays

from conftest import random_state, unbroken_system

ASYM = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)


def test_evolve_zero_time(rng):
    data = pt.classify_phase(unbroken_system(3, 2, 1, 0))
    a = random_state(rng, 3)
    np.testing.assert_allclose(pt.evolve(data, a, 0.0), a, atol=1e-12)


def test_evolve_eigenstate_phase():
    data = pt.classify_phase(unbroken_system(4, 2, 2, 0))
    for value, vector in zip(data.w, data.v.T):
        got = pt.evolve(data, vector, 2.3)
        want = np.exp(-1j * value * 2.3) * vector
        assert np.linalg.norm(got - want) <= 1e-9


def test_evolve_inverse(rng):
    data = pt.classify_phase(unbroken_system(4, 2, 2, 1))
    a = random_state(rng, 4)
    back = pt.evolve(data, pt.evolve(data, a, 1.9), -1.9)
    assert np.linalg.norm(back - a) <= 1e-8


def test_evolve_group_law(rng):
    data = pt.classify_phase(unbroken_system(4, 2, 2, 1))
    a = random_state(rng, 4)
    lhs = pt.evolve(data, pt.evolve(data, a, 0.8), 1.3)
    assert np.linalg.norm(lhs - pt.evolve(data, a, 2.1)) <= 1e-10


def test_evolve_linearity(rng):
    data = pt.classify_phase(unbroken_system(3, 2, 1, 1))
    a, b = random_state(rng, 3), random_state(rng, 3)
    al, be = 0.7 - 0.2j, -0.4 + 1.1j
    lhs = pt.evolve(data, al * a + be * b, 1.3)
    rhs = al * pt.evolve(data, a, 1.3) + be * pt.evolve(data, b, 1.3)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_evolve_exceptional_raises():
    h = pt.h2(pt.TwoByTwoParams(0.0, 1.0, 1.0, 0.4))
    data = pt.classify_phase(pt.pt_system_from_matrices(h, pt.p2(0.4)))
    with pytest.raises(pt.ExceptionalPointError):
        pt.evolve(data, np.array([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_evolve_non_finite_time_rejected(rng, t):
    data = pt.classify_phase(unbroken_system(4, 2, 2, 0))
    with pytest.raises(ValueError, match="must be finite"):
        pt.evolve(data, random_state(rng, 4), t)
    with pytest.raises(ValueError, match="must be finite"):
        pt.evolve(data, random_state(rng, 4), np.array([0.0, t]))


def test_evolve_overflow_raises(rng):
    # the eigenvalues of an unbroken H are exactly real, so the state stays
    # finite until w t overflows: max|w| = 1.33 here
    data = pt.classify_phase(unbroken_system(4, 2, 2, 0))
    with pytest.raises(pt.ConvergenceError, match="not finite"):
        pt.evolve(data, random_state(rng, 4), 1.7e308)


def test_evolve_times_match_scalar_calls(rng):
    data = pt.classify_phase(unbroken_system(8, 6, 2, 0))
    a = random_state(rng, 8)
    times = np.linspace(-3.0, 40.0, 57)
    got = pt.evolve(data, a, times)
    want = np.stack([pt.evolve(data, a, float(t)) for t in times])
    assert got.shape == (57, 8)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    with pytest.raises(pt.ConvergenceError, match=r"not finite at t = 1\.7e\+308$"):
        pt.evolve(data, a, np.array([0.0, 1.0, 1.7e308]))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_evolve_matches_unitarity_trace(rng, index):
    # the bound is fixed from the trace test against the per-step loop below:
    # both sum the same products in another order
    sys = unbroken_system(8, 6, 2, index)
    data = pt.classify_phase(sys)
    c = pt.build_c_operator(sys)
    a, b = random_state(rng, 8), random_state(rng, 8)
    trace = pt.unitarity_trace(data, sys.p, c, a, b, t_max=25.0, steps=LOOP_STEPS)
    at, bt = pt.evolve(data, a, trace.times), pt.evolve(data, b, trace.times)
    got = np.array([pt.cpt_inner(x, y, c, sys.p) for x, y in zip(at, bt)])
    ref = trace.inner_products
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_evolve_broken_system_matches_eig_reference(rng):
    # growing and decaying modes exp(+-sqrt(3) t): no conserved product to check against
    h = pt.h2(pt.TwoByTwoParams(0.3, 2.0, 1.0, 0.7))
    data = pt.classify_phase(pt.pt_system_from_matrices(h, pt.p2(0.7)))
    assert data.phase is pt.Phase.BROKEN
    w, v = np.linalg.eig(h)
    vinv = np.linalg.inv(v)
    a = random_state(rng, 2)
    times = np.linspace(0.0, 3.0, 31)
    want = np.stack([v @ (np.exp(-1j * w * t) * (vinv @ a)) for t in times])
    got = pt.evolve(data, a, times)
    assert np.max(np.abs(got - want), axis=1).max() <= 1e-12 * np.abs(want).max()


def test_unitarity_trace_eigenstate_constant():
    sys = unbroken_system(4, 2, 2, 2)
    c = pt.build_c_operator(sys)
    data = pt.classify_phase(sys)
    v = data.v[:, 0]
    nrm = pt.pt_inner(v, v, sys.p)
    v = v / np.sqrt(abs(nrm))
    trace = pt.unitarity_trace(data, sys.p, c, v, v)
    np.testing.assert_allclose(trace.inner_products, 1.0, atol=1e-10)
    assert trace.max_drift <= 1e-10
    assert np.all(np.diff(trace.times) > 0)


def test_unitarity_trace_random_states(rng):
    sys = unbroken_system(4, 2, 2, 3)
    c = pt.build_c_operator(sys)
    a, b = random_state(rng, 4), random_state(rng, 4)
    trace = pt.unitarity_trace(pt.classify_phase(sys), sys.p, c, a, b)
    assert trace.max_drift <= 1e-8
    assert trace.times.shape == (101,) and trace.times[-1] == 10.0


def test_pt_product_also_conserved(rng):
    sys = unbroken_system(3, 2, 1, 2)
    a, b = random_state(rng, 3), random_state(rng, 3)
    trace = pt.unitarity_trace(pt.classify_phase(sys), sys.p, None, a, b, product="pt")
    assert trace.max_drift <= 1e-8


def test_probability_conservation(rng):
    sys = unbroken_system(4, 2, 2, 4)
    c = pt.build_c_operator(sys)
    a = random_state(rng, 4)
    trace = pt.unitarity_trace(pt.classify_phase(sys), sys.p, c, a, a, t_max=10.0, steps=101)
    assert np.all(np.abs(trace.inner_products.imag) <= 1e-10)
    assert np.all(trace.inner_products.real > 0.0)
    assert trace.max_drift <= 1e-8


def test_unitarity_trace_validation(rng):
    sys = unbroken_system(3, 2, 1, 0)
    data = pt.classify_phase(sys)
    a = random_state(rng, 3)
    with pytest.raises(ValueError):
        pt.unitarity_trace(data, sys.p, None, a, a, steps=1, product="pt")
    with pytest.raises(ValueError):
        pt.unitarity_trace(data, sys.p, None, a, a, product="euclidean")
    with pytest.raises(ValueError):
        pt.unitarity_trace(data, sys.p, None, a, a)  # cpt needs C


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
    w, v = np.linalg.eig(h)
    vinv = np.linalg.inv(v)
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
    w, v, _, _ = eig_arrays(h)
    weight = pt.build_weight_matrix([v[:, k] for k in range(h.shape[0])], p)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    b = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    apply_ket, apply_bra = _step_propagator(h), _step_propagator(h.T)
    row0 = pt.pt_apply(a, p)
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
    trace = pt.unitarity_trace(pt.classify_phase(sys), sys.p, c, a, b, t_max=25.0,
                               steps=LOOP_STEPS, product=product)
    want = _loop_trace(sys, c, a, b, 25.0, LOOP_STEPS, product)
    _assert_matches_loop(trace.inner_products, want)
    assert trace.max_drift == float(np.max(np.abs(trace.inner_products - trace.inner_products[0])))


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("product", ["cpt", "pt"])
def test_long_horizon_trace_matches_step_loop(rng, product, index):
    # the phases exp(-iwt) carry a round-off of about eps * |w| * t in both
    # evaluations, so the agreement is bounded relative to the horizon
    t_max = 1e3
    sys = unbroken_system(8, 6, 2, index)
    c = pt.build_c_operator(sys)
    a, b = random_state(rng, 8), random_state(rng, 8)
    trace = pt.unitarity_trace(pt.classify_phase(sys), sys.p, c, a, b, t_max=t_max,
                               steps=LOOP_STEPS, product=product)
    want = _loop_trace(sys, c, a, b, t_max, LOOP_STEPS, product)
    got = trace.inner_products
    assert np.max(np.abs(got - want)) <= 1e-14 * t_max * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("which", ["symmetric_862", "asymmetric"])
def test_nonunitarity_demo_matches_step_loop(which):
    if which == "asymmetric":
        h, p = ASYM, np.eye(2, dtype=complex)
    else:
        sys = unbroken_system(8, 6, 2, 1)
        h, p = sys.h, sys.p
    for t_max in (25.0, 1e3):
        res = pt.nonunitarity_demo(h, p, t_max=t_max, steps=LOOP_STEPS, seed=5)
        want = _loop_nonunitarity(h, p, t_max, LOOP_STEPS, 5)
        got = res.trace.inner_products
        assert got.shape == want.shape
        # as for unitarity_trace, the phase round-off grows with the horizon
        bound = max(1e-12, 1e-14 * t_max) * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_horizon_rejected(rng, t_max):
    sys = unbroken_system(3, 2, 1, 0)
    a = random_state(rng, 3)
    with pytest.raises(ValueError, match="t_max"):
        pt.unitarity_trace(pt.classify_phase(sys), sys.p, None, a, a, t_max=t_max, product="pt")
    with pytest.raises(ValueError, match="t_max"):
        pt.nonunitarity_demo(ASYM, np.eye(2), t_max=t_max)


def test_overflowing_samples_raise_with_first_time(rng):
    sys = unbroken_system(4, 2, 2, 0)
    c = pt.build_c_operator(sys)
    a = random_state(rng, 4)
    data = pt.classify_phase(sys)
    # on a grid within one block, and on one whose later blocks multiply
    # phases that are each still finite after w t has overflowed
    for steps, first, first_asym in [
        (101, r"1.36", r"6e\+307"),
        (3 * TIME_BLOCK + 1, r"1.3524739583333333e\+308", r"5.99609375e\+307"),
    ]:
        # the eigenvalues of an unbroken H are exactly real, so exp(-iwt) stays
        # on the unit circle until w t overflows: max|w| = 1.33 here
        trace = pt.unitarity_trace(data, sys.p, c, a, a, t_max=1e308, steps=steps)
        assert trace.max_drift <= 1e-12
        with pytest.raises(pt.ConvergenceError, match=rf"non-finite inner product at t = {first}"):
            pt.unitarity_trace(data, sys.p, c, a, a, t_max=1.7e308, steps=steps)
        # ASYM has eigenvalues 1 and 3: exp(-3it) overflows first at t = 6e307
        with pytest.raises(pt.ConvergenceError, match=rf"at t = {first_asym}$"):
            pt.nonunitarity_demo(ASYM, np.eye(2), t_max=1e308, steps=steps)


def test_unitarity_trace_rejects_state_of_wrong_dimension(rng):
    sys = unbroken_system(3, 2, 1, 0)
    with pytest.raises(ValueError):
        pt.unitarity_trace(pt.classify_phase(sys), sys.p, None, random_state(rng, 3),
                           random_state(rng, 4), product="pt")
