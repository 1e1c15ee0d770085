import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt

from _seeds import UNBROKEN_SEEDS

SQ2 = np.sqrt(2) / 2


def test_make_p0():
    np.testing.assert_array_equal(pt.make_p0(1, 1).real, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(pt.make_p0(2, 0).real, np.eye(2))
    np.testing.assert_array_equal(pt.make_p0(2, 1).real, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        pt.make_p0(0, 0)
    with pytest.raises(ValueError):
        pt.make_p0(-1, 2)


def test_make_rotation_plane():
    np.testing.assert_allclose(pt.make_rotation(2, [0.0]), np.eye(2), atol=0)
    np.testing.assert_allclose(
        pt.make_rotation(2, [np.pi / 4]),
        np.array([[SQ2, -SQ2], [SQ2, SQ2]]),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        pt.make_rotation(3, [0.1, 0.2])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rotation_is_special_orthogonal(d, seed):
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, d * (d - 1) // 2)
    r = pt.make_rotation(d, angles)
    assert pt.max_abs(r.T @ r - np.eye(d)) <= 1e-12
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def givens_product(d, angles):
    """Reference for make_rotation: the left-to-right product of one Givens
    matrix per index pair i < j, in lexicographic order."""
    r = np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for (i, j), theta in zip(pairs, np.asarray(angles, dtype=np.float64)):
        g = np.eye(d)
        c, s = np.cos(theta), np.sin(theta)
        g[i, i], g[j, j], g[i, j], g[j, i] = c, c, -s, s
        r = r @ g
    return r


@pytest.mark.parametrize("key", sorted(UNBROKEN_SEEDS))
def test_make_rotation_is_the_givens_product_on_frozen_seeds(key):
    dim, mp, mm = key
    for seed in UNBROKEN_SEEDS[key][:5]:
        rng = np.random.default_rng(seed)
        pt.construct.random_blocks(rng, mp, mm)
        angles = pt.construct.random_angles(rng, dim)
        assert np.array_equal(pt.make_rotation(dim, angles), givens_product(dim, angles))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.floats(-100.0, 100.0), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2),
)))
def test_make_rotation_is_the_givens_product(case):
    d, angles = case
    assert np.array_equal(pt.make_rotation(d, angles), givens_product(d, angles))


def test_cached_index_tables_are_read_only():
    for table in (*pt.construct._triu(4, 1), *pt.construct._frame_gather(3, 2)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


@pytest.mark.parametrize("mp,mm", [(1, 1), (6, 2), (3, 2), (2, 0), (0, 3)])
def test_block_frame_is_h0_in_the_real_frame(rng, mp, mm):
    # S^-1 H0 S with S = diag(I, iI): exact, since S only moves factors of i
    draws = rng.uniform(-1.0, 1.0, (4, pt.construct.block_draw_count(mp, mm)))
    h0 = pt.make_h0(pt.construct.blocks_from_draws(draws, mp, mm))
    s = np.diag(np.r_[np.ones(mp), 1j * np.ones(mm)])
    m = pt.construct.block_frame(draws, mp, mm)
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, (s.conj() @ h0 @ s).real)
    np.testing.assert_array_equal((s.conj() @ h0 @ s).imag, 0.0)
    np.testing.assert_array_equal(pt.construct.block_frame(draws[0], mp, mm), m[0])
    with pytest.raises(ValueError, match="draws per row"):
        pt.construct.block_frame(draws[:, 1:], mp, mm)


def test_make_parity_two_dim():
    got = pt.make_parity(pt.ParitySpec(1, 1, [np.pi / 4]))
    np.testing.assert_allclose(got.real, [[0, 1], [1, 0]], atol=1e-15)
    for theta in (0.3, 1.1, 2.7):
        got = pt.make_parity(pt.ParitySpec(1, 1, [theta]))
        want = np.array(
            [[np.cos(2 * theta), np.sin(2 * theta)],
             [np.sin(2 * theta), -np.cos(2 * theta)]]
        )
        np.testing.assert_allclose(got.real, want, atol=1e-14)


def test_make_parity_three_dim_reordering():
    got = pt.make_parity(pt.ParitySpec(2, 1, [0.0, np.pi / 2, 0.0]))
    np.testing.assert_allclose(got.real, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)
    w = sorted(pt.eig_arrays(got)[0].real)
    np.testing.assert_allclose(w, [-1.0, 1.0, 1.0], atol=1e-10)


@pytest.mark.parametrize(
    "mp,mm", [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 0), (0, 3), (5, 3)]
)
def test_parity_invariants(mp, mm, rng):
    d = mp + mm
    for _ in range(5):
        spec = pt.ParitySpec(mp, mm, rng.uniform(0, 2 * np.pi, d * (d - 1) // 2))
        p = pt.make_parity(spec)
        assert pt.max_abs(p - p.T) == 0.0  # exactly symmetric by construction
        assert pt.max_abs(p.imag) == 0.0
        assert pt.max_abs(p @ p - np.eye(d)) <= 1e-12
        w = sorted(pt.eig_arrays(p)[0].real)
        np.testing.assert_allclose(w, [-1.0] * mm + [1.0] * mp, atol=1e-10)


def test_make_h0_one_one():
    h0 = pt.make_h0(pt.BlockForm([[1.5]], [[0.25]], [[-0.5]]))
    np.testing.assert_allclose(h0, [[1.5, 0.25j], [0.25j, -0.5]], atol=0)


def test_make_h0_zero_coupling_is_real_symmetric(rng):
    a = rng.uniform(-1, 1, (2, 2))
    c = rng.uniform(-1, 1, (2, 2))
    h0 = pt.make_h0(pt.BlockForm((a + a.T) / 2, np.zeros((2, 2)), (c + c.T) / 2))
    assert pt.max_abs(h0.imag) == 0.0
    assert pt.max_abs(h0 - h0.T) == 0.0


def test_make_h0_commutation(rng):
    for mp, mm in [(1, 1), (2, 1), (3, 2)]:
        blocks = pt.construct.random_blocks(rng, mp, mm)
        h0 = pt.make_h0(blocks)
        p0 = pt.make_p0(mp, mm)
        assert pt.max_abs(h0 - h0.T) == 0.0
        assert pt.max_abs(p0 @ h0.conj() - h0 @ p0) <= 1e-12


@pytest.mark.parametrize("mp,mm", [(1, 1), (6, 2), (3, 2), (2, 0), (0, 3)])
def test_stacked_block_draws_match_random_blocks(mp, mm):
    k = pt.construct.block_draw_count(mp, mm)
    seeds = range(100, 140)
    draws = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds])
    stacked = pt.construct.blocks_from_draws(draws, mp, mm)
    for n, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        blocks = pt.construct.random_blocks(rng, mp, mm)
        for name in ("a_block", "b_block", "c_block"):
            np.testing.assert_array_equal(getattr(stacked, name)[n], getattr(blocks, name))
        # three separate draws, as A, B and C were once drawn, give the same
        # values and leave the generator where random_blocks leaves it
        ref = np.random.default_rng(seed)
        sizes = (mp * (mp + 1) // 2, mp * mm, mm * (mm + 1) // 2)
        parts = np.concatenate([ref.uniform(-1.0, 1.0, size) for size in sizes])
        np.testing.assert_array_equal(parts, draws[n])
        assert rng.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(stacked.a_block, stacked.a_block.swapaxes(-1, -2))
    np.testing.assert_array_equal(stacked.c_block, stacked.c_block.swapaxes(-1, -2))


@pytest.mark.parametrize("mp,mm", sorted({key[1:] for key in UNBROKEN_SEEDS}))
@pytest.mark.parametrize("seeds", [
    [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 + 5],
    range(70_000, 70_512),
], ids=["wide-entropy", "512-block"])
def test_block_draws_match_default_rng(mp, mm, seeds):
    # fails if numpy changes the SeedSequence pool or hash, the PCG64 stream
    # or Generator.uniform's map; seeds of 2^32 and above take two words of
    # entropy
    k = pt.construct.block_draw_count(mp, mm)
    want = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds])
    got = pt.construct.block_draws(seeds, mp, mm)
    assert got.shape == want.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_make_h0_rejects_bad_blocks():
    with pytest.raises(ValueError):
        pt.make_h0(pt.BlockForm([[1.0, 0.2], [0.3, 1.0]], np.zeros((2, 1)), [[1.0]]))
    with pytest.raises(ValueError):
        pt.make_h0(pt.BlockForm([[1.0]], np.zeros((2, 1)), [[1.0]]))
    # stacks: the leading axes must agree, and every row must be symmetric
    a, b, c = np.zeros((3, 2, 2)), np.zeros((3, 2, 1)), np.zeros((3, 1, 1))
    with pytest.raises(ValueError, match="need shapes"):
        pt.make_h0(pt.BlockForm(a, b, c[:2]))
    with pytest.raises(ValueError, match="need shapes"):
        pt.make_h0(pt.BlockForm(a, b[:2], c))
    a[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match="A and C must be symmetric"):
        pt.make_h0(pt.BlockForm(a, b, c))


@pytest.mark.parametrize("mp,mm", [(1, 1), (2, 1), (6, 2), (2, 0), (0, 3)])
def test_make_h0_stack_matches_rows(rng, mp, mm):
    rows = [pt.construct.random_blocks(rng, mp, mm) for _ in range(7)]
    stacked = pt.BlockForm(*(np.stack([getattr(b, k) for b in rows])
                             for k in ("a_block", "b_block", "c_block")))
    assert stacked.signature == (mp, mm)
    h0 = pt.make_h0(stacked)
    assert h0.shape == (7, mp + mm, mp + mm)
    for n, blocks in enumerate(rows):
        np.testing.assert_array_equal(h0[n], pt.make_h0(blocks))


def test_pt_matrices_stack_matches_make_pt_system(rng):
    spec = pt.ParitySpec(6, 2, pt.construct.random_angles(rng, 8))
    rows = [pt.construct.random_blocks(rng, 6, 2) for _ in range(5)]
    stacked = pt.BlockForm(*(np.stack([getattr(b, k) for b in rows])
                             for k in ("a_block", "b_block", "c_block")))
    h, p = pt.pt_matrices(stacked, spec)
    assert h.shape == (5, 8, 8) and p.shape == (8, 8)
    np.testing.assert_array_equal(p, pt.make_parity(spec))
    for n, blocks in enumerate(rows):
        sys = pt.make_pt_system(blocks, spec)
        np.testing.assert_array_equal(h[n], sys.h)
        np.testing.assert_array_equal(p, sys.p)


def test_make_pt_system_builds_one_rotation(rng, monkeypatch):
    calls = []
    original = pt.construct.make_rotation

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pt.construct, "make_rotation", counted)
    pt.random_pt_system(8, (6, 2), 13108)
    assert len(calls) == 1


def test_make_pt_system_commutation_failure_names_residual():
    # entries near 1e8 leave a commutation residual of round-off size, which
    # the bound relative to max|H| accepts; a change of 1e-6 max|H| to one
    # entry, which P does not keep, fails it and is named
    spec = pt.ParitySpec(2, 1, [0.3, 1.1, 2.0])
    blocks = pt.BlockForm([[1e8, 0.2], [0.2, -3e8]], [[2e8], [0.5]], [[7e7]])
    sys = pt.make_pt_system(blocks, spec)
    h = sys.h.copy()
    h[0, 0] += 1e-6 * pt.max_abs(h)
    with pytest.raises(ValueError, match=r"residual \S+ > PT_COMMUTATION_TOL \* max\|H\| = \S+\)"):
        pt.check_pt_pairs(h, sys.p)


def test_make_pt_system_identity_rotation(rng):
    blocks = pt.construct.random_blocks(rng, 2, 1)
    sys = pt.make_pt_system(blocks, pt.ParitySpec(2, 1, np.zeros(3)))
    np.testing.assert_allclose(sys.h, pt.make_h0(blocks), atol=0)
    np.testing.assert_allclose(sys.p, pt.make_p0(2, 1), atol=0)


def test_make_pt_system_two_level_map(rng):
    # blocks (r+t, s, r-t) rotated by phi/2 give the closed two-level family
    for _ in range(25):
        r, s, t = rng.uniform(-2, 2, 3)
        phi = rng.uniform(0, 2 * np.pi)
        sys = pt.make_pt_system(
            pt.BlockForm([[r + t]], [[s]], [[r - t]]),
            pt.ParitySpec(1, 1, [phi / 2]),
        )
        assert pt.max_abs(sys.h - pt.h2(pt.TwoByTwoParams(r, s, t, phi))) <= 1e-14
        assert pt.max_abs(sys.p - pt.p2(phi)) <= 1e-14


def test_make_pt_system_invariants(rng):
    for _ in range(10):
        sys = pt.random_pt_system(4, (2, 2), int(rng.integers(0, 2**32)))
        assert pt.max_abs(sys.h - sys.h.T) == 0.0
        assert pt.max_abs(sys.p @ sys.h.conj() @ sys.p - sys.h) <= 1e-10


def test_make_pt_system_signature_mismatch(rng):
    blocks = pt.construct.random_blocks(rng, 2, 1)
    with pytest.raises(ValueError):
        pt.make_pt_system(blocks, pt.ParitySpec(1, 2, np.zeros(3)))


def test_count_parity_params():
    assert pt.count_parity_params(8, 6, 2) == 12
    assert pt.count_parity_params(2, 1, 1) == 1
    assert pt.count_parity_params(3, 2, 1) == 2
    with pytest.raises(ValueError):
        pt.count_parity_params(3, 2, 2)
    with pytest.raises(ValueError):
        pt.count_parity_params(2, 3, -1)


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, (0, 1, 1, 1, 1)),
        (2, (1, 3, 4, 4, 3)),
        (3, (2, 6, 8, 9, 6)),
        (4, (4, 10, 14, 16, 10)),
        (5, (6, 15, 21, 25, 15)),
        (6, (9, 21, 30, 36, 21)),
    ],
)
def test_parameter_table(d, expected):
    c = pt.parameter_table(d)
    assert (c.parity_max, c.h0, c.pt, c.hermitian, c.real_symmetric) == expected


def test_parameter_table_asymptotics():
    c = pt.parameter_table(64)
    assert c.parity_max == 64 * 64 // 4
    assert c.pt == 3 * 64 * 64 // 4 + 32
    assert c.hermitian == 64 * 64


def test_max_signature():
    assert pt.max_signature(4) == (2, 2)
    assert pt.max_signature(5) == (3, 2)
    assert pt.max_signature(1) == (1, 0)


def test_classify_matrix_overlap():
    m = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
    flags = pt.classify_matrix(m, p=np.eye(2))
    assert flags == {
        pt.MatrixClass.REAL_SYMMETRIC,
        pt.MatrixClass.HERMITIAN,
        pt.MatrixClass.PT_SYMMETRIC,
        pt.MatrixClass.SYMMETRIC,
    }


def test_classify_matrix_pt_only():
    params = pt.TwoByTwoParams(0.4, 0.6, 1.0, 1.2)
    flags = pt.classify_matrix(pt.h2(params), p=pt.p2(params.phi))
    assert flags == {pt.MatrixClass.SYMMETRIC, pt.MatrixClass.PT_SYMMETRIC}


def test_classify_matrix_antisymmetric_empty():
    assert pt.classify_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]])) == set()


def test_classify_matrix_invalid_parity():
    with pytest.raises(ValueError):
        pt.classify_matrix(np.eye(2), p=np.array([[1.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_matrix_rejects_non_finite_entries(bad):
    # a NaN residual compares false against every bound, which would set
    # every flag; check_pt_pairs rejects the same input
    with pytest.raises(ValueError, match="NaN or Inf"):
        pt.classify_matrix(np.array([[1.0, bad], [bad, 1.0]]), p=np.eye(2))


def test_hermitian_and_symmetric_implies_real_symmetric(rng):
    # flags alone must already encode the class overlap
    for _ in range(50):
        m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        m = (m + m.T) / 2
        m = (m + m.conj().T) / 2
        flags = pt.classify_matrix(m)
        if {pt.MatrixClass.HERMITIAN, pt.MatrixClass.SYMMETRIC} <= flags:
            assert pt.MatrixClass.REAL_SYMMETRIC in flags


def test_random_pt_system_reproducible():
    a = pt.random_pt_system(5, (3, 2), 123)
    b = pt.random_pt_system(5, (3, 2), 123)
    np.testing.assert_array_equal(a.h, b.h)
    np.testing.assert_array_equal(a.p, b.p)
    assert a.provenance == b.provenance
    c = pt.random_pt_system(5, (3, 2), 124)
    assert pt.max_abs(a.h - c.h) > 1e-3


def test_pt_system_from_matrices_rejects_zero_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        pt.pt_system_from_matrices(np.zeros((0, 0)), np.zeros((0, 0)))


def _two_level_stack(count):
    h = pt.h2(pt.TwoByTwoParams(0.1, np.linspace(0.0, 2.0, count), 1.0, 0.7))
    return h, np.broadcast_to(pt.p2(0.7), h.shape).copy()


@pytest.mark.parametrize("row", [0, 4])
@pytest.mark.parametrize("breakage,message", [
    ("nan", "NaN or Inf"),
    ("asymmetric", "H must be symmetric"),
    ("complex_parity", "parity must be real"),
    ("asymmetric_parity", "parity must be symmetric"),
    ("non_involution", "parity must square to the identity"),
    ("no_commutation", "does not commute with the PT operation"),
])
def test_check_pt_pairs_checks_every_row(row, breakage, message):
    h, p = _two_level_stack(5)
    pt.check_pt_pairs(h, p)
    if breakage == "nan":
        h[row, 0, 0] = np.nan
    elif breakage == "asymmetric":
        h[row, 0, 1] += 1e-6
    elif breakage == "complex_parity":
        p[row] = 1j * np.eye(2)
    elif breakage == "asymmetric_parity":
        p[row] = [[1.0, 0.5], [0.0, 1.0]]
    elif breakage == "non_involution":
        p[row] = 2.0 * np.eye(2)
    else:
        h[row] = np.diag([1j, 2.0])  # symmetric, but P conj(H) P != H
        p[row] = np.eye(2)
    with pytest.raises(ValueError, match=message):
        pt.check_pt_pairs(h, p)
    with pytest.raises(ValueError, match=message):
        pt.pt_system_from_matrices(h[row], p[row])
    # classify_stack admits its input by the same check, with the same message
    with pytest.raises(ValueError, match=message):
        pt.classify_stack(h, p)


def test_check_pt_pairs_one_parity_for_a_stack():
    h, p = _two_level_stack(5)
    one = p[0].copy()
    pt.check_pt_pairs(h, one)
    h[3] = np.diag([1j, 2.0])
    with pytest.raises(ValueError, match="does not commute with the PT operation"):
        pt.check_pt_pairs(h, one)
    with pytest.raises(ValueError, match="parity must square to the identity"):
        pt.check_pt_pairs(h, 2.0 * one)


def test_classify_stack_rejects_what_check_pt_pairs_rejects():
    # an unbroken frozen system; 2P is no parity, and H + K commutes with the
    # PT operation (PKP = K, K real) but is not symmetric
    assert 427 in UNBROKEN_SEEDS[(4, 2, 2)]
    sys = pt.random_pt_system(4, (2, 2), 427)
    with pytest.raises(ValueError, match="parity must square to the identity"):
        pt.classify_stack(sys.h[None], 2.0 * sys.p)
    k0 = np.zeros((4, 4))
    k0[0, 1], k0[1, 0] = 1.0, -1.0
    k = (k0 + sys.p.real @ k0 @ sys.p.real) / 2.0
    assert np.abs(k).max() > 0.1
    np.testing.assert_allclose(sys.p.real @ k @ sys.p.real, k, atol=1e-15)
    for check in (pt.check_pt_pairs, pt.classify_stack):
        with pytest.raises(ValueError, match="H must be symmetric"):
            check((sys.h + k)[None], sys.p)


def _modulus_pairs():
    """(h, ok, p): for h, P conj(H) P - H has real and imaginary parts of
    0.8e-10 each, both below PT_COMMUTATION_TOL * max|H| (max|H| = 1), and a
    modulus of 1.131e-10 above it; ok commutes exactly."""
    a, e = 0.5 + 0.3j, -0.8e-10 * (1.0 + 1.0j)
    h = np.array([[a + e, 1.0], [1.0, a.conjugate()]])
    ok = np.array([[a, 1.0], [1.0, a.conjugate()]])
    return h, ok, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_check_pt_pairs_bounds_the_modulus_of_the_residual():
    h, ok, p = _modulus_pairs()
    resid = p @ h.conj() @ p - h
    assert np.abs(resid.real).max() < 1e-10 and np.abs(resid.imag).max() < 1e-10
    with pytest.raises(ValueError, match=r"residual 1\.131e-10 > PT_COMMUTATION_TOL \* "
                                         r"max\|H\| = 1\.000e-10"):
        pt.check_pt_pairs(h, p)
    pt.check_pt_pairs(ok, p)
    with pytest.raises(ValueError, match=r"residual 1\.131e-10"):
        pt.check_pt_pairs(np.stack([ok, h]), p)


def test_classify_matrix_pt_flag_is_the_admission_check():
    # the flag and check_pt_pairs apply one bound to one residual, so the
    # pair it rejects by the modulus alone is not flagged, and ok is
    h, ok, p = _modulus_pairs()
    assert pt.classify_matrix(h, p) == {pt.MatrixClass.SYMMETRIC}
    assert pt.classify_matrix(ok, p) == {pt.MatrixClass.SYMMETRIC, pt.MatrixClass.PT_SYMMETRIC}


def _bad_pairs():
    """(h, p) pairs that no PTSystem admits, by the check each fails."""
    h, p = _two_level_stack(1)
    h, p = h[0], p[0]
    asym = h.copy()
    asym[0, 1] += 1e-6
    nan = h.copy()
    nan[0, 0] = np.nan
    return {
        "asymmetric": (asym, p),
        "nan": (nan, p),
        "non_involution": (h, 2.0 * p),
        "no_commutation": (np.diag([1j, 2.0]), np.eye(2)),
        "shape_mismatch": (h, np.eye(3)),
        "zero_dim": (np.zeros((0, 0)), np.zeros((0, 0))),
        "not_square": (np.zeros((2, 3)), np.eye(2)),
    }


@pytest.mark.parametrize("case", list(_bad_pairs()))
def test_pt_system_admits_a_pair_once_whatever_builds_it(case):
    # the constructor, the binding helper and dataclasses.replace all run the
    # one check in PTSystem, with the same message
    h, p = _bad_pairs()[case]
    good = pt.random_pt_system(2, (1, 1), 0)
    with pytest.raises(ValueError) as want:
        pt.pt_system_from_matrices(h, p)
    for build in (lambda: pt.PTSystem(h=h, p=p),
                  lambda: pt.PTSystem(h, p, {"note": "kept"}),
                  lambda: dataclasses.replace(good, h=h, p=p)):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(want.value)
    if case in ("asymmetric", "nan", "not_square"):  # checks that do not read p
        with pytest.raises(ValueError) as got:
            dataclasses.replace(good, h=h)
        assert str(got.value) == str(want.value)


def test_pt_system_arrays_are_read_only_copies():
    h, p = _two_level_stack(1)
    h, p = h[0].copy(), p[0].copy()
    assert h.dtype == p.dtype == np.complex128  # as_matrix would alias them
    sys = pt.pt_system_from_matrices(h, p)
    for made in (sys, pt.random_pt_system(3, (2, 1), 5), pt.PTSystem(h=h, p=p)):
        for m in (made.h, made.p):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
    kept_h, kept_p = sys.h.copy(), sys.p.copy()
    h[0, 1] += 1.0  # no longer symmetric: the admitted pair must not see it
    p[:] = 2.0
    np.testing.assert_array_equal(sys.h, kept_h)
    np.testing.assert_array_equal(sys.p, kept_p)
    # a real input is stored as complex128, as before
    real = pt.pt_system_from_matrices(np.eye(2), np.eye(2))
    assert real.h.dtype == real.p.dtype == np.complex128
