import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt
from ptmatrix import spectral

from _seeds import UNBROKEN_SEEDS
from conftest import unbroken_system, unbroken_systems

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level_system(r, s, t, phi):
    return pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(r, s, t, phi)), pt.p2(phi)
    )


def test_pt_apply_examples():
    v = np.array([0.3, -1.2], dtype=complex)
    np.testing.assert_array_equal(pt.pt_apply(v, np.eye(2)), v)
    got = pt.pt_apply(np.array([1.0, 1j]), SWAP)
    np.testing.assert_array_equal(got, np.array([-1j, 1.0]))
    with pytest.raises(ValueError):
        pt.pt_apply(np.array([1.0, 2.0, 3.0]), SWAP)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pt_apply_is_involution(seed):
    r = np.random.default_rng(seed)
    d = int(r.integers(2, 6))
    spec = pt.ParitySpec(d - 1, 1, r.uniform(0, 2 * np.pi, d * (d - 1) // 2))
    p = pt.make_parity(spec)
    v = r.standard_normal(d) + 1j * r.standard_normal(d)
    np.testing.assert_allclose(pt.pt_apply(pt.pt_apply(v, p), p), v, atol=1e-12)


def test_fix_pt_phase_fixes_random_unbroken_system():
    sys = unbroken_system(4, 2, 2, 0)
    for v in pt.classify_phase(sys).v.T:
        resid = np.linalg.norm(pt.pt_apply(v, sys.p) - v)
        assert resid <= 1e-9


def test_classify_unbroken_half_coupling():
    # s/t = 1/2: eigenvalues +-t sqrt(1 - 1/4) = +-sqrt(3)/2
    data = pt.classify_phase(two_level_system(0.0, 0.5, 1.0, np.pi / 3))
    assert data.phase is pt.Phase.UNBROKEN
    got = sorted(data.w.real)
    np.testing.assert_allclose(got, [-np.sqrt(3) / 2, np.sqrt(3) / 2], atol=1e-12)
    assert data.real_count == 2 and data.conjugate_pairs == 0


def test_classify_broken_conjugate_pair():
    data = pt.classify_phase(two_level_system(0.0, 2.0, 1.0, 0.0))
    assert data.phase is pt.Phase.BROKEN
    assert data.conjugate_pairs == 1 and data.real_count == 0
    got = sorted(data.w.imag)
    np.testing.assert_allclose(got, [-np.sqrt(3), np.sqrt(3)], atol=1e-12)
    assert data.pt_norm_signs is None


def test_classify_exceptional_at_coalescence():
    data = pt.classify_phase(two_level_system(0.3, 1.0, 1.0, 1.1))
    assert data.phase is pt.Phase.EXCEPTIONAL
    # copies of one exceptional block: with two of them round-off splits the
    # double eigenvalue by 0.83 of real_mask's gap, so the pair counts as real
    # and its Re x and Im x span a Jordan chain. Only dgeev's own columns show
    # the isotropic eigenvector; a basis of the cluster would mix it away
    h, p = pt.h2(pt.TwoByTwoParams(0.1, 1.0, 1.0, 0.7)), pt.p2(0.7)
    for copies in (2, 3):
        sys = pt.pt_system_from_matrices(np.kron(np.eye(copies), h), np.kron(np.eye(copies), p))
        assert pt.classify_phase(sys).phase is pt.Phase.EXCEPTIONAL


def test_classify_broken_pairs_past_the_norm_range():
    # ||H||_F = 4a is past the float range, every entry finite: in H's unit
    # the four eigenvalues +-a +- ai stay apart and non-real
    a = 6.5e307
    blocks = pt.BlockForm(np.diag([a, -a]), a * np.eye(2), np.diag([a, -a]))
    data = pt.classify_phase(pt.make_pt_system(blocks, pt.ParitySpec(2, 2, np.zeros(6))))
    assert data.phase is pt.Phase.BROKEN
    assert data.conjugate_pairs == 2 and data.real_count == 0
    np.testing.assert_allclose(data.w, a * np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]),
                               rtol=1e-12)
    assert np.isfinite(data.residuals).all() and data.residuals.max() <= 1e-10 * a


@pytest.mark.parametrize("delta", [1e-9, -1e-9, 5e-9, -5e-9, 0.0])
def test_classify_exceptional_window(delta):
    data = pt.classify_phase(two_level_system(0.0, 1.0 + delta, 1.0, 0.7))
    assert data.phase is pt.Phase.EXCEPTIONAL


@pytest.mark.parametrize("delta", [1e-7, -1e-7, 1e-3])
def test_classify_leaves_window(delta):
    data = pt.classify_phase(two_level_system(0.0, 1.0 + delta, 1.0, 0.7))
    assert data.phase is not pt.Phase.EXCEPTIONAL


def test_broken_eigenvalues_pair_up():
    for seed in range(30):
        sys = pt.random_pt_system(4, (2, 2), seed)
        data = pt.classify_phase(sys)
        if data.phase is not pt.Phase.BROKEN:
            continue
        values = data.w.tolist()
        nonreal = [z for z in values if abs(z.imag) > 1e-10 * max(1, abs(z))]
        assert len(nonreal) == 2 * data.conjugate_pairs
        for z in nonreal:
            partner = min(
                (u for u in nonreal if u is not z), key=lambda u: abs(u - z.conjugate())
            )
            assert abs(partner - z.conjugate()) <= 1e-9


def test_rejection_sampling_finds_unbroken():
    seeds = pt.find_unbroken_seeds(3, (2, 1), 3, start_seed=0)
    for seed in seeds:
        sys = pt.random_pt_system(3, (2, 1), seed)
        data = pt.classify_phase(sys)
        assert data.phase is pt.Phase.UNBROKEN
        for v in data.v.T:
            resid = np.linalg.norm(pt.pt_apply(v, sys.p) - v)
            assert resid <= 1e-9


@pytest.mark.parametrize("key", [(2, 1, 1), (3, 2, 1), (4, 2, 2), (5, 3, 2), (6, 5, 1),
                                 (7, 6, 1), (8, 7, 1)])
def test_scan_reproduces_frozen_seed_lists(key):
    dim, mp, mm = key
    want = UNBROKEN_SEEDS[key]
    assert pt.find_unbroken_seeds(dim, (mp, mm), len(want)) == want


@pytest.mark.parametrize("end", UNBROKEN_SEEDS[(8, 6, 2)][:10])
def test_scan_window_ending_at_a_frozen_seed_finds_it(end):
    # the frozen (8,6,2) list holds every unbroken seed up to its last entry
    assert pt.find_unbroken_seeds(8, (6, 2), 1, start_seed=end - 15) == [end]


@pytest.mark.parametrize("key,start", [((3, 2, 1), 0), ((8, 6, 2), 13108 - 100)])
def test_scan_max_trials_boundary(key, start):
    dim, mp, mm = key
    answer = next(s for s in UNBROKEN_SEEDS[key] if s >= start)
    k = answer - start
    got = pt.find_unbroken_seeds(dim, (mp, mm), 1, start_seed=start, max_trials=k + 1)
    assert got == [answer]
    with pytest.raises(RuntimeError, match=f"within {k} trials"):
        pt.find_unbroken_seeds(dim, (mp, mm), 1, start_seed=start, max_trials=k)


def test_scan_count_zero_and_real_symmetric_signatures():
    assert pt.find_unbroken_seeds(8, (6, 2), 0, start_seed=5) == []
    # H0 = A is real symmetric and P = I: every seed is unbroken
    assert pt.find_unbroken_seeds(3, (3, 0), 5, start_seed=7) == [7, 8, 9, 10, 11]
    assert pt.find_unbroken_seeds(2, (2, 0), 40) == list(range(40))


@pytest.fixture
def no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("drew a seed")

    monkeypatch.setattr(pt.spectral, "block_draws", fail)


def test_scan_rejects_negative_start_seed_before_drawing(no_draws):
    with pytest.raises(ValueError, match="start_seed must be a non-negative integer, got -1"):
        pt.find_unbroken_seeds(3, (2, 1), 1, start_seed=-1)


@pytest.mark.parametrize("args,kwargs,message", [
    ((9, (6, 2), 1), {}, r"signature \(6, 2\) must sum to dim 9"),
    ((3, (-1, 4), 1), {}, r"signature entries must be non-negative, got \(-1, 4\)"),
    ((0, (0, 0), 1), {}, "dim must be at least 1, got 0"),
    ((8, (6, 2), -2), {}, "count must be a non-negative integer, got -2"),
    ((8, (6, 2), 1), {"max_trials": -5}, "max_trials must be a non-negative integer, got -5"),
    # a fractional count never equals len(found), so the scan kept a whole block
    ((3, (2, 1), 1.5), {}, "count must be a non-negative integer, got 1.5"),
    ((3, (2, 1), 1), {"max_trials": 40.5}, "max_trials must be a non-negative integer, got 40.5"),
    # integers only, as serialize reads them: a float or a bool is not one
    ((3, (2.0, 1), 1), {}, r"dim and signature entries must be integers, got 3 and \(2.0, 1\)"),
    ((3, (True, 2), 1), {}, r"dim and signature entries must be integers, got 3 and \(True, 2\)"),
    ((3.0, (2, 1), 1), {}, r"dim and signature entries must be integers, got 3.0 and \(2, 1\)"),
    ((3, (2, 1), True), {}, "count must be a non-negative integer, got True"),
    # a window that keeps no seed is never solved, so tol is checked up front
    ((8, (6, 2), 1), {"start_seed": 13093, "tol": np.nan},
     "tol must be finite, positive and below 1, got nan"),
    ((8, (6, 2), 1), {"tol": 0.0}, "tol must be finite, positive and below 1, got 0.0"),
    ((8, (6, 2), 1), {"tol": -1.0}, "tol must be finite, positive and below 1, got -1.0"),
    ((8, (6, 2), 1), {"tol": 2.0}, "tol must be finite, positive and below 1, got 2.0"),
], ids=["signature-sum", "signature-sign", "dim", "count", "max_trials", "count-fraction",
        "max_trials-fraction", "signature-float", "signature-bool", "dim-float", "count-bool",
        "tol-nan", "tol-zero", "tol-negative", "tol-two"])
def test_scan_rejects_bad_arguments_before_drawing(no_draws, args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        pt.find_unbroken_seeds(*args, **kwargs)


def test_scan_classifies_each_block_from_its_one_eigensolve(monkeypatch):
    blocks, solved, verdicts = [], [], []
    keep, eig, verdict = pt.spectral._hermite_keep, pt.spectral.eig_arrays, pt.spectral._verdict

    def kept_rows(frames):
        mask = keep(frames)
        blocks.append((len(frames), frames[mask]))
        return mask

    def counted_eig(m, tol):
        solved.append(m)
        return eig(m, tol)

    def counted_verdict(w, *args):
        verdicts.append(len(w))
        return verdict(w, *args)

    def fail(*args, **kwargs):
        raise AssertionError("the scan rebuilt or re-solved a seed")

    monkeypatch.setattr(pt.spectral, "_hermite_keep", kept_rows)
    monkeypatch.setattr(pt.spectral, "eig_arrays", counted_eig)
    monkeypatch.setattr(pt.spectral, "_verdict", counted_verdict)
    monkeypatch.setattr(pt.spectral, "classify_stack", fail)
    monkeypatch.setattr(pt.spectral, "classify_phase", fail)
    monkeypatch.setattr(pt.construct, "random_pt_system", fail)
    # the block's draws come from construct.block_draws, not one Generator per seed
    monkeypatch.setattr(np.random, "default_rng", fail)
    monkeypatch.setattr(np.random, "Generator", fail)
    assert not hasattr(pt.spectral, "random_pt_system")
    want = UNBROKEN_SEEDS[(5, 3, 2)]
    assert pt.find_unbroken_seeds(5, (3, 2), len(want)) == want
    # the 6576 seeds 0..6575 in blocks of 16, 32, ..., 512; each block that
    # keeps a row makes one solve of exactly its kept rows and one verdict
    assert [size for size, _ in blocks] == [16, 32, 64, 128, 256] + [512] * 12
    rows = [frames for _, frames in blocks if len(frames)]
    assert len(solved) == len(rows) == len(verdicts) > 0
    for got, frames in zip(solved, rows):
        np.testing.assert_array_equal(got, frames)
    # a block that keeps no row makes no solve and no verdict: the (1,1)
    # frame [[0, -1], [1, 0]] has eigenvalues +-i, and [[1, -0.5], [0.5, -1]]
    # is unbroken; a cut block stops at max_trials
    table = [[0.0, 1.0, 0.0]] * 40
    table[20] = [1.0, 0.5, -1.0]
    monkeypatch.setattr(pt.spectral, "block_draws",
                        lambda seeds, m_plus, m_minus: np.array([table[s] for s in seeds]))
    for got in (blocks, solved, verdicts):
        got.clear()
    assert pt.find_unbroken_seeds(2, (1, 1), 1, max_trials=40) == [20]
    assert [(size, len(frames)) for size, frames in blocks] == [(16, 0), (24, 1)]
    assert [len(m) for m in solved] == verdicts == [1]


@pytest.mark.parametrize("signature,table,want", [
    # seed 0 draws the (1,1) frame [[1, -1], [1, -1]], a Jordan block whose
    # double eigenvalue 0 passes the prescreen; seed 1 draws an unbroken one
    ((1, 1), [[1.0, 1.0, -1.0], [1.0, 0.5, -1.0]], [1]),
    # A = [[0, 1], [1, 0]], B = 0, C = 3: H0 is real symmetric, so unbroken,
    # but A's eigenvectors (1, +-1, 0)/sqrt(2) are isotropic under a J with
    # a -1 on either of A's indices
    ((2, 1), [[0.0, 1.0, 0.0, 0.0, 0.0, 3.0]], [0]),
], ids=["exceptional-point", "real-symmetric"])
def test_scan_verdict_on_scripted_draws(monkeypatch, signature, table, want):
    def draws(seeds, m_plus, m_minus):
        return np.array([table[s] for s in seeds])

    monkeypatch.setattr(pt.spectral, "block_draws", draws)
    got = pt.find_unbroken_seeds(sum(signature), signature, len(want), max_trials=len(table))
    assert got == want


def _near_ep_draws():
    # the (1,1) frame [[1, -b], [b, -1]] has eigenvalues +-sqrt(1 - b^2): an
    # exceptional point at b = 1, unbroken below it and broken above
    bs = [1.0] + [1.0 + sign * 10.0 ** -k for k in range(1, 13) for sign in (-1.0, 1.0)]
    return np.array([[1.0, b, -1.0] for b in bs])


@pytest.mark.parametrize("mp,mm", [(1, 1), (2, 1), (2, 2), (3, 2), (6, 2)])
def test_scan_verdict_agrees_with_classify_phase_under_rotation(mp, mm):
    # the scan's verdict, from the unrotated block frame, against the
    # classification of the rotated system; unbroken-or-not only, since the
    # scan never classifies a row with a complex pair
    k = pt.construct.block_draw_count(mp, mm)
    if (mp, mm) == (1, 1):
        draws = _near_ep_draws()
    else:
        # (6,2) has no unbroken seed below 300: the frozen unbroken seeds add some
        seeds = sorted({*range(300), *UNBROKEN_SEEDS.get((mp + mm, mp, mm), [])})
        draws = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds])
    frames = pt.construct.block_frame(draws, mp, mm)
    w, x, e, nu = pt.eig_arrays(frames)
    wu = pt.linalg.in_units(w, e)
    real = pt.linalg.real_mask(wu, nu).all(axis=1)
    scan = np.zeros(len(draws), dtype=bool)
    scan[real] = spectral._verdict(w[real], wu[real], x[real], np.arange(mp + mm) < mp,
                                   nu[real])[2]
    rng = np.random.default_rng(mp * 10 + mm)
    for n, row in enumerate(draws):
        blocks = pt.construct.blocks_from_draws(row, mp, mm)
        for _ in range(3):
            spec = pt.ParitySpec(mp, mm, pt.construct.random_angles(rng, mp + mm))
            phase = pt.classify_phase(pt.make_pt_system(blocks, spec)).phase
            assert (phase is pt.Phase.UNBROKEN) == scan[n], (n, phase)
    # both verdicts occur in every corpus
    assert 0 < scan.sum() < len(draws)


@pytest.mark.parametrize("mp,mm", [(6, 2), (4, 4), (5, 3), (7, 1)])
def test_scan_prescreen_matches_the_complex_block_form(mp, mm):
    tol = pt.DEFAULT_TOL
    k = pt.construct.block_draw_count(mp, mm)
    # (6,2) has no real-spectrum seed below 4096: the frozen unbroken seeds add some
    frozen = UNBROKEN_SEEDS.get((mp + mm, mp, mm), [])
    seeds = [*range(4096), *frozen]
    draws = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in seeds])
    frames = pt.construct.block_frame(draws, mp, mm)
    w, x, e, nu = pt.eig_arrays(frames, tol)
    h0 = pt.make_h0(pt.construct.blocks_from_draws(draws, mp, mm))
    wc, xc, ec, nuc = pt.eig_arrays(h0, tol)
    mask = pt.linalg.real_mask(pt.linalg.in_units(w, e), nu).all(axis=1)
    # the reference: H0's complex spectrum, each eigenvalue real within tol
    real_c = np.abs(wc.imag) <= tol * np.maximum(1.0, np.abs(wc))
    np.testing.assert_array_equal(mask, real_c.all(axis=1))
    assert mask[4096:].all()
    # pair each eigenvalue with its nearest one of H0: round-off decides the
    # (Re, Im) order of H0's conjugate pairs, not of M's
    dist = np.abs(w[:, :, None] - wc[:, None, :])
    near = dist.argmin(axis=2)
    assert dist.min(axis=2).max() <= 1e-10
    np.testing.assert_array_equal(np.sort(near, axis=1), np.broadcast_to(np.arange(mp + mm), near.shape))
    # x is a unit eigenvector of M exactly when Sx is one of H0, with the
    # same residual
    res = np.linalg.norm(frames @ x - x * w[:, None, :], axis=1)
    resc = np.linalg.norm(h0 @ xc - xc * wc[:, None, :], axis=1)
    assert np.abs(res - np.take_along_axis(resc, near, axis=1)).max() <= 1e-13
    # M's entries are H0's up to a factor i, so the residual bound has H0's unit
    np.testing.assert_array_equal(e, ec)
    np.testing.assert_allclose(nu, nuc, rtol=1e-15)


def test_scan_prescreen_keeps_the_residual_bound():
    # block entries of about 1e7 put the residuals near 1e-9, within tol *
    # ||M||_F; a tolerance below round-off fails them
    draws = 1e7 * np.random.default_rng(0).uniform(-1.0, 1.0, (3, pt.construct.block_draw_count(6, 2)))
    frames = pt.construct.block_frame(draws, 6, 2)
    w, x, e, nu = pt.eig_arrays(frames, 1e-10)
    res = np.linalg.norm(frames @ x - x * w[:, None, :], axis=1)
    assert res.max() > 1e-10 and (res <= 1e-10 * np.ldexp(nu, e)[:, None]).all()
    with pytest.raises(pt.ConvergenceError, match=r"above tolerance 1.000e-300 \* \|\|M\|\|_F"):
        pt.eig_arrays(frames, 1e-300)
    # in a scan, a kept row that fails raises for the whole block; rows the
    # Hermite prescreen rejects are never solved, so their residuals are not
    # bounded: this scan's first block keeps a row that fails
    with pytest.raises(pt.ConvergenceError, match="above tolerance 1.000e-18"):
        pt.find_unbroken_seeds(8, (6, 2), 1, tol=1e-18)


# the frozen signatures, and two at D = 8 with no frozen seed
HERMITE_SIGNATURES = sorted({(mp, mm) for _, mp, mm in UNBROKEN_SEEDS} | {(4, 4), (5, 3)})


@pytest.mark.parametrize("mp,mm", HERMITE_SIGNATURES)
def test_hermite_prescreen_rejects_no_real_spectrum(mp, mm):
    # 40 960 draws from seeds no other test scans, in the scan's largest block
    kept = real = 0
    for start in range(10**6, 10**6 + 40960, 4096):
        frames = pt.construct.block_frame(
            pt.construct.block_draws(range(start, start + 4096), mp, mm), mp, mm)
        keep = np.concatenate([spectral._hermite_keep(f)
                               for f in np.split(frames, 4096 // spectral.SCAN_BLOCK_MAX)])
        w, _, e, nu = pt.eig_arrays(frames)
        mask = pt.linalg.real_mask(pt.linalg.in_units(w, e), nu).all(axis=1)
        assert not (mask & ~keep).any(), np.flatnonzero(mask & ~keep) + start
        kept, real = kept + keep.sum(), real + mask.sum()
    # the prescreen does reject: the kept rows hold every real spectrum and
    # at most half of the draws
    assert real <= kept <= 40960 // 2


def _similar(m, seed):
    # m in a non-normal real basis: the same eigenvalues and Jordan blocks
    s = np.eye(len(m)) + 0.5 * np.random.default_rng(seed).uniform(-1.0, 1.0, m.shape)
    return s @ m @ np.linalg.inv(s)


def test_hermite_prescreen_keeps_real_spectra_at_its_edges():
    keep = spectral._hermite_keep
    # unbroken up to the exceptional point b = 1 of [[1, -b], [b, -1]]
    draws = _near_ep_draws()
    frames = pt.construct.block_frame(draws, 1, 1)
    assert keep(frames)[draws[:, 1] <= 1.0].all()
    # the (1,1) Jordan frame, and exactly repeated real eigenvalues: the
    # Hankel block is singular, with as many positive eigenvalues as M has
    # distinct ones
    jordan = [np.array([[1.0, -1.0], [1.0, -1.0]]),
              np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])]
    repeated = [np.diag([2.0] * 7 + [5.0]), _similar(np.diag([1, 1, 1, 2, 2, -3, -3, -3]), 0),
                _similar(np.diag([0.5] * 4 + [-1] * 4), 1), _similar(np.diag([1, 1, 4, 4, 4]), 2)]
    for m in jordan + repeated:
        assert keep(m[None]).all(), m
    # a scalar frame, centered to 0, at every scale and without a warning
    for d in (1, 3, 8):
        for mu in (0.0, 0.1, -3.0, 1e-310, 1.5e300):
            assert keep(np.full((1, d), mu)[..., None] * np.eye(d)).all(), (d, mu)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermite_prescreen_decides_the_whole_hankel_matrix_up_to_d_4(d):
    # for D <= HERMITE_TERMS the block is the whole Hankel matrix, which is
    # semidefinite exactly when the spectrum is real
    rng = np.random.default_rng(d)
    real = [_similar(np.diag(rng.uniform(-1.0, 1.0, d)), seed) for seed in range(20)]
    assert spectral._hermite_keep(np.stack(real)).all()
    if d >= 2:
        broken = []
        for seed in range(20):
            m = np.diag(rng.uniform(-1.0, 1.0, d))
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)
            m[:2, :2] = [[a, -b], [b, a]]  # eigenvalues a +- ib
            broken.append(_similar(m, seed))
        assert not spectral._hermite_keep(np.stack(broken)).any()


@pytest.mark.parametrize("mp,mm", [(1, 1), (3, 2), (6, 2)])
def test_hermite_prescreen_is_exact_under_powers_of_two(mp, mm):
    # the mask is decided in each frame's unit 2^e, so 2^k M gives M's
    frames = pt.construct.block_frame(pt.construct.block_draws(range(4096), mp, mm), mp, mm)
    keep = spectral._hermite_keep(frames)
    assert 0 < keep.sum() < len(keep)
    for k in (-200, 200):
        np.testing.assert_array_equal(spectral._hermite_keep(np.ldexp(frames, k)), keep)


def test_pt_norm_signature_two_level():
    signs = pt.classify_phase(two_level_system(0.4, 0.3, 1.0, 2.2)).pt_norm_signs
    assert sorted(signs) == [-1, 1]


def test_pt_norm_signature_positive_parity(rng):
    a = rng.uniform(-1, 1, (3, 3))
    sys = pt.pt_system_from_matrices((a + a.T) / 2, np.eye(3))
    assert list(pt.classify_phase(sys).pt_norm_signs) == [1, 1, 1]


def test_pt_norm_signs_only_in_the_unbroken_phase():
    for s, phase in ((2.0, pt.Phase.BROKEN), (1.0, pt.Phase.EXCEPTIONAL)):
        data = pt.classify_phase(two_level_system(0.0, s, 1.0, 0.0))
        assert data.phase is phase and data.pt_norm_signs is None


def test_degenerate_spectrum_still_unbroken():
    # scalar Hamiltonian: fully degenerate but diagonalizable
    phi = 1.3
    sys = pt.pt_system_from_matrices(np.eye(2, dtype=complex), pt.p2(phi))
    data = pt.classify_phase(sys)
    assert data.phase is pt.Phase.UNBROKEN
    assert sorted(data.pt_norm_signs) == [-1, 1]
    for v in data.v.T:
        assert np.linalg.norm(pt.pt_apply(v, sys.p) - v) <= 1e-9


def _frame_system(m, j):
    """The PT-symmetric system (S M S^H, J) of a real J-self-adjoint M, with
    S = 1 on J's +1 entries and i on its -1 entries."""
    s = np.where(np.diag(j) > 0.0, 1.0, 1j)
    h = s[:, None] * m * s.conj()
    return pt.pt_system_from_matrices(0.5 * (h + h.T), j.astype(complex))


def _cayley_system(seed):
    """A system with degenerate eigenvalues 0 and 1 and known Krein signs.

    O = (I - K)^-1 (I + K) of a J-antisymmetric K (K^T J = -J K) is
    J-orthogonal, so M = O Lambda J O^T J = O Lambda O^-1 is J-self-adjoint,
    its eigenvectors are O's columns, and their signs x^T J x are diag(J).
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    m = int(rng.integers(1, d))
    j = np.diag([1.0] * (d - m) + [-1.0] * m)
    a = rng.standard_normal((d, d))
    k = a - j @ a.T @ j
    k *= 0.5 / np.linalg.norm(k, 2)
    o = np.linalg.solve(np.eye(d) - k, np.eye(d) + k)
    return _frame_system(o @ np.diag(rng.integers(0, 2, d).astype(float)) @ j @ o.T @ j, j)


def test_degenerate_cluster_is_krein_orthogonal():
    # seed 0 has clusters of mixed Krein signature, seed 2 a definite cluster
    # of two. dgeev's columns of a cluster of seeds 210, 218 and 223 are
    # nearly parallel (sigma_min down to 0.007), so X_c^T J X_c has an
    # eigenvalue below 1.5e-4 times the cluster's size, though the eigenspace
    # has no isotropic direction
    for seed in (0, 2, 210, 218, 223):
        sys = _cayley_system(seed)
        j = sys.p.real
        # the test bites: dgeev's basis of the frame's clusters is not J-orthogonal
        m, _, plus = spectral._krein_frame(sys.h.real[None], sys.h.imag[None], sys.p)
        _, x, e, nu = pt.eig_arrays(m)
        x = x[0]
        gram = x.T @ (np.where(plus, 1.0, -1.0)[:, None] * x)
        assert np.abs(gram - np.diag(np.diag(gram))).max() > 1e-3
        data = pt.classify_phase(sys)
        assert data.phase is pt.Phase.UNBROKEN
        for run in pt.linalg.multi_clusters(pt.linalg.in_units(data.w[None], e), nu)[0]:
            block = data.v[:, run.start:run.stop]
            gram = block.T @ block
            assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10
        assert np.abs(sys.h @ data.v - data.v * data.w).max() <= 1e-10
        assert sorted(data.pt_norm_signs) == sorted(np.diag(j))
        c, eye = pt.c_operator(data, sys.p), np.eye(sys.dim)
        assert np.abs(c @ c - eye).max() <= 1e-12
        assert np.abs(c @ sys.h - sys.h @ c).max() <= 1e-12
        # M = 2I + u u^T J with u^T J u = 0 is a Jordan block: one
        # eigendirection for a double eigenvalue
        u = eye[0] + eye[-1]
        jordan = _frame_system(2.0 * eye + np.outer(u, u) @ j, j)
        assert pt.classify_phase(jordan).phase is pt.Phase.EXCEPTIONAL


def test_footnote_transpose_equivalence(rng):
    p = pt.p2(0.8)
    for k in range(100):
        m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        h = (m + m.T) / 2  # exactly symmetric
        pm = pt.make_parity(pt.ParitySpec(2, 1, rng.uniform(0, 2 * np.pi, 3)))
        plain = pt.max_abs(pm @ h.conj() @ pm - h) <= 1e-10
        trans = pt.max_abs(pm @ h.conj().T @ pm - h) <= 1e-10
        assert plain == trans
        # the transformed matrices are identical entry by entry, exactly
        np.testing.assert_array_equal(pm @ h.conj() @ pm, pm @ h.conj().T @ pm)


def _stack(systems):
    return np.stack([x.h for x in systems]), np.stack([x.p for x in systems])


def _assert_rows_match_classify_phase(systems, got):
    assert len(got.phases) == len(systems)
    for n, sys in enumerate(systems):
        want = pt.classify_phase(sys)
        row = got.row(n)
        # a row is a view of the stack, not a copy
        assert all(np.shares_memory(x, y) for x, y in
                   ((row.w, got.w), (row.v, got.v), (row.residuals, got.residuals)))
        np.testing.assert_array_equal(got.w[n], want.w)
        assert row.phase is want.phase
        assert (row.real_count, row.conjugate_pairs) == (want.real_count, want.conjugate_pairs)
        if want.pt_norm_signs is None:
            assert row.pt_norm_signs is None and not got.signs[n].any()
        else:
            np.testing.assert_array_equal(row.pt_norm_signs, want.pt_norm_signs)
        for k in range(sys.dim):
            np.testing.assert_allclose(row.v[:, k], want.v[:, k], rtol=0, atol=1e-14)
            assert abs(row.residuals[k] - want.residuals[k]) <= 1e-14


@pytest.mark.parametrize("key", sorted(UNBROKEN_SEEDS))
def test_classify_stack_matches_classify_phase_on_frozen_systems(key):
    systems = list(unbroken_systems(*key, 5))
    # seeds next to the frozen ones are mostly broken at D >= 3
    systems += [pt.random_pt_system(key[0], key[1:], seed) for seed in range(6)]
    got = pt.classify_stack(*_stack(systems))
    _assert_rows_match_classify_phase(systems, got)
    assert got.phases[:5] == [pt.Phase.UNBROKEN] * 5


@pytest.mark.parametrize("first", ["v", "residuals", "row"])
def test_classify_stack_forms_eigenvectors_once_on_first_read(monkeypatch, first):
    # the verdict needs no eigenvectors of h: v = QSx and the residuals are
    # formed for the whole stack when one of them is first read, and kept
    calls = []
    original = spectral._frame_vectors

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(spectral, "_frame_vectors", counted)
    got = pt.classify_stack(*_frame_input("s_grid"))
    assert pt.Phase.EXCEPTIONAL in got.phases and got.signs.any()
    assert calls == []
    {"v": lambda: got.v, "residuals": lambda: got.residuals, "row": lambda: got.row(3)}[first]()
    assert calls == [1]
    for n in (0, 1000, 2000):
        np.testing.assert_array_equal(got.row(n).residuals, got.residuals[n])
    assert calls == [1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.v = got.v


def test_classify_frame_past_the_float_range_is_a_convergence_error():
    # every entry of H is finite and the pair is admitted, but entries of the
    # frame Q^T H Q reach D max|H|: a typed failure naming max|H|, no warning
    base = pt.random_pt_system(8, (6, 2), 13108)
    big = pt.pt_system_from_matrices(1e308 * base.h, base.p)
    message = (r"the real Krein frame of H overflows the float range: its entries reach up "
               r"to D \* max\|H\|, and max\|H\| = 1.523e\+308")
    with pytest.raises(pt.ConvergenceError, match=message):
        pt.classify_phase(big)
    with pytest.raises(pt.ConvergenceError, match=message):
        pt.classify_stack(np.stack([base.h, big.h]), base.p)


# s on both sides of the exceptional point s = t = 1, its window included
EP_GRID = [0.0, 0.5, 1.0 - 1e-7, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1.5, 2.0, -1.0, 0.25]


def test_classify_stack_two_level_grid_across_the_exceptional_point():
    params = pt.TwoByTwoParams(0.2, np.array(EP_GRID), 1.0, 0.7)
    h = pt.h2(params)
    p = np.broadcast_to(pt.p2(0.7), h.shape)
    got = pt.classify_stack(h, p)
    systems = [two_level_system(0.2, s, 1.0, 0.7) for s in EP_GRID]
    _assert_rows_match_classify_phase(systems, got)
    want = []
    for s in EP_GRID:
        if abs(abs(s) - 1.0) <= 5e-9:
            want.append(pt.Phase.EXCEPTIONAL)
        else:
            want.append(pt.Phase.UNBROKEN if s * s < 1.0 else pt.Phase.BROKEN)
    assert got.phases == want
    for n, phase in enumerate(want):
        if phase is pt.Phase.UNBROKEN:
            assert sorted(got.signs[n]) == [-1, 1]
            for k in range(2):
                vec = got.v[n, :, k]
                assert np.linalg.norm(pt.pt_apply(vec, p[n]) - vec) <= 1e-9
        assert got.conjugate_pairs[n] == (1 if phase is pt.Phase.BROKEN else 0)


def test_classify_stack_cluster_rows_among_plain_rows():
    # H = I (one cluster of two) between two ordinary rows
    plain = two_level_system(0.1, 0.4, 1.0, 1.3)
    eye = pt.pt_system_from_matrices(np.eye(2, dtype=complex), pt.p2(1.3))
    systems = [plain, eye, plain]
    got = pt.classify_stack(*_stack(systems))
    _assert_rows_match_classify_phase(systems, got)
    assert got.phases == [pt.Phase.UNBROKEN] * 3
    assert sorted(got.signs[1]) == [-1, 1]


def test_classify_stack_one_parity_equals_a_parity_stack():
    # two-level grid across the exceptional point, and H = I (a cluster row)
    p = pt.p2(1.3)
    h = pt.h2(pt.TwoByTwoParams(0.1, np.linspace(0.0, 2.0, 41), 1.0, 1.3))
    h = np.concatenate([h, np.eye(2, dtype=complex)[None]])
    want = pt.classify_stack(h, np.broadcast_to(p, h.shape))
    got = pt.classify_stack(h, p)
    assert got.phases == want.phases
    assert {pt.Phase.UNBROKEN, pt.Phase.BROKEN} <= set(got.phases)
    for name in ("w", "v", "residuals", "real_count", "conjugate_pairs", "signs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_classify_stack_collinearity_failure_is_exceptional():
    # at the exceptional point s = t the eigenvectors coalesce, in that row only
    ok = two_level_system(0.1, 0.4, 1.0, 0.0)
    ep = two_level_system(0.1, 1.0, 1.0, 0.0)
    got = pt.classify_stack(np.stack([ok.h, ep.h, ok.h]), ok.p)
    assert got.phases == [pt.Phase.UNBROKEN, pt.Phase.EXCEPTIONAL, pt.Phase.UNBROKEN]
    assert got.real_count.tolist() == [2, 0, 2]
    # this system is diagonalizable, but dgeev returns one eigenvector twice
    # (singular values sqrt(2) and 5e-16) for a double eigenvalue, none of them
    # isotropic: a cluster with no basis of eigenvectors is exceptional
    assert pt.classify_phase(_cayley_system(5)).phase is pt.Phase.EXCEPTIONAL
    # P = SWAP does not map the eigenvectors of diag(1, 2) onto themselves:
    # the pair is not PT-symmetric, and classify_stack rejects it
    h = np.stack([ok.h, np.diag([1.0, 2.0]).astype(complex), ok.h])
    p = np.stack([ok.p, SWAP, ok.p])
    with pytest.raises(ValueError, match=r"H does not commute with the PT operation for this P "
                                         r"\(residual 1\.000e\+00"):
        pt.classify_stack(h, p)


def test_classify_stack_unpaired_conjugates_raise_in_any_row():
    ok = two_level_system(0.1, 2.0, 1.0, 0.0)  # broken, one conjugate pair
    unpaired = np.diag([1j, 2j])  # non-real eigenvalues with no partners
    h = np.stack([ok.h, ok.h, unpaired])
    p = np.stack([ok.p, ok.p, np.eye(2, dtype=complex)])
    assert pt.classify_stack(h[:2], p[:2]).conjugate_pairs.tolist() == [1, 1]
    with pytest.raises(ValueError, match=r"residual 4\.000e\+00 > PT_COMMUTATION_TOL \* "
                                         r"max\|H\| = 2\.000e-10"):
        pt.classify_stack(h, p)


@pytest.mark.parametrize("scale", [1e-11, 1e-13])
def test_classify_tiny_broken_point_is_broken(scale):
    # the broken/unbroken verdict is structural, so H -> kH keeps it
    sys = two_level_system(0.0, 2.0, 1.0, 0.3)
    data = pt.classify_phase(pt.pt_system_from_matrices(scale * sys.h, sys.p))
    assert data.phase is pt.Phase.BROKEN
    assert (data.conjugate_pairs, data.real_count) == (1, 0)


def test_conjugate_pairs_sit_adjacent_minus_im_first():
    # each conjugate pair of a broken row, on a 2001-point two-level grid and
    # on seeds 0..299 at (4, 2, 2), with a bit-identical real part
    grid = pt.h2(pt.TwoByTwoParams(0.1, np.arange(2001) * 0.001, 1.0, 0.7))
    systems = [pt.random_pt_system(4, (2, 2), seed) for seed in range(300)]
    for got in (pt.classify_stack(grid, pt.p2(0.7)), pt.classify_stack(*_stack(systems))):
        broken = [n for n, phase in enumerate(got.phases) if phase is pt.Phase.BROKEN]
        assert broken
        for n in broken:
            w = got.w[n]
            k = np.nonzero(w.imag)[0]
            assert len(k) == 2 * got.conjugate_pairs[n]
            lo, hi = k[0::2], k[1::2]
            np.testing.assert_array_equal(hi, lo + 1)
            assert (w[lo].imag < 0.0).all()
            np.testing.assert_array_equal(w[lo], w[hi].conj())


@pytest.mark.parametrize("mp,mm", [(6, 2), (4, 4), (5, 3), (7, 1), (2, 1), (3, 2)])
def test_pontryagin_bound(mp, mm):
    # M is self-adjoint for a J with min(m+, m-) negative (or positive)
    # squares: at most that many conjugate pairs, so at least |m+ - m-| real
    # eigenvalues. The spectrum is rotation-invariant, so H0 under P0 stands
    # for random_pt_system's draws
    k = pt.construct.block_draw_count(mp, mm)
    draws = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, k) for s in range(2048)])
    h0 = pt.make_h0(pt.construct.blocks_from_draws(draws, mp, mm))
    got = pt.classify_stack(h0, pt.make_p0(mp, mm))
    broken = np.array([phase is pt.Phase.BROKEN for phase in got.phases])
    assert got.conjugate_pairs.max() == min(mp, mm)
    assert got.real_count[broken].min() == abs(mp - mm)


def test_classify_stack_residual_bound_covers_every_row():
    # at phi = 0 and s = 0 the two-level H is diagonal and solved exactly, so
    # it meets even a tolerance below round-off; the last row does not
    exact = two_level_system(0.1, 0.0, 1.0, 0.0)
    rounded = two_level_system(0.1, 0.4, 1.0, 0.0)
    h = np.stack([exact.h, exact.h, rounded.h])
    pt.classify_stack(h[:2], exact.p, 1e-300)
    with pytest.raises(pt.ConvergenceError, match="above tolerance 1.000e-300"):
        pt.classify_stack(h, exact.p, 1e-300)
    # a non-finite residual in the last row (an eigenvalue past the float
    # range) fails at every tol; the bound it names is the true tol *
    # ||M||_F, though ||M||_F itself is past the float range
    p = np.diag([1.0, 1.0, -1.0]).astype(complex)
    h = np.zeros((3, 3, 3), dtype=complex)
    h[:, 2, 2] = 1.0
    h[:, :2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    h[2, :2, :2] = [[1.7e308, 1e308], [1e308, 1.7e308]]
    pt.classify_stack(h[:2], p)
    with pytest.raises(pt.ConvergenceError, match="eigenpair residual nan above tolerance "
                                                  r"1.000e-10 \* \|\|M\|\|_F = 2.789e\+298"):
        pt.classify_stack(h, p)
    for tol in (1e-300, 0.5, np.nextafter(1.0, 0.0)):
        with pytest.raises(pt.ConvergenceError, match="eigenpair residual nan above"):
            pt.classify_stack(h, p, tol)


def test_classify_stack_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pt.classify_stack(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        pt.classify_stack(np.zeros((1, 0, 0)), np.zeros((1, 0, 0)))
    with pytest.raises(ValueError):
        pt.classify_stack(np.eye(2)[None], np.eye(3)[None])


def test_sign_convention_ignores_round_off_in_a_magnitude_tie():
    # H and P are symmetric under swapping indices 0 and 1, so the eigenvalue
    # 0.7 has the eigenvector (1, -1, 0)/sqrt(2): its two largest magnitudes
    # tie exactly, and a last-bit change of H decides which one comes out larger
    h0 = np.array([[1.0, 0.3, 0.2j], [0.3, 1.0, 0.2j], [0.2j, 0.2j, -1.0]])
    p = np.diag([1.0, 1.0, -1.0]).astype(complex)
    hs = [h0]
    for (i, j), ulps in itertools.product([(0, 0), (0, 1), (1, 1), (2, 2)], [-3, -2, -1, 1, 2, 3]):
        h = h0.copy()
        h[i, j] = h[j, i] = h0[i, j].real + ulps * np.spacing(h0[i, j].real)
        hs.append(h)
    got = pt.classify_stack(np.array(hs), p)
    assert got.phases == [pt.Phase.UNBROKEN] * len(hs)
    assert np.abs(got.w[:, 1] - 0.7).max() <= 1e-14
    mag = np.abs(got.v[:, :2, 1])
    assert (mag[:, 0] > mag[:, 1]).any() and (mag[:, 0] < mag[:, 1]).any()
    # the first of the tied entries gets the positive sign in every row
    want = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(got.v[:, :, 1] - want).max() <= 1e-14


def _complex_frame(h, p):
    """(M, QS) of the pairs (h[n], p[n]) from complex products: QS from eigh
    of p, with S = 1 on its +1 and i on its -1 eigenvalues."""
    lam, q = np.linalg.eigh(p.real)
    qs = q * np.where(lam > 0.0, 1.0, 1j)[..., None, :]
    return qs.conj().swapaxes(-1, -2) @ h @ qs, qs


def _complex_residuals(a, v, w):
    return np.linalg.norm(a.astype(complex) @ v - v * w[:, None, :], axis=-2)


def _frame_input(name):
    """(h stack, p or p stack) named by name: every frozen system of a key, a
    2001-point two-level grid through s = t, a phi sweep (a parity stack) or
    a D = 8 B[0,0] block stack."""
    if name in FROZEN_KEYS:
        key = FROZEN_KEYS[name]
        return _stack([pt.random_pt_system(key[0], key[1:], seed) for seed in UNBROKEN_SEEDS[key]])
    if name == "s_grid":
        return pt.h2(pt.TwoByTwoParams(0.2, np.linspace(0.0, 2.0, 2001), 1.0, 0.7)), pt.p2(0.7)
    if name.startswith("phi_sweep"):
        phis = np.linspace(0.0, 2.0 * np.pi, 629)
        return pt.h2(pt.TwoByTwoParams(0.2, float(name.split("=")[1]), 1.0, phis)), pt.p2(phis)
    prov = unbroken_system(8, 6, 2, 0).provenance
    values = np.linspace(-2.0, 2.0, 101)
    a, b, c = (np.repeat(np.array(prov["blocks"][k])[None], len(values), axis=0) for k in "ABC")
    b[:, 0, 0] = values
    return pt.pt_matrices(pt.BlockForm(a, b, c), pt.ParitySpec(6, 2, prov["angles"]))


FROZEN_KEYS = {"frozen_{}_{}_{}".format(*key): key for key in sorted(UNBROKEN_SEEDS)}


@pytest.mark.parametrize("name", [*FROZEN_KEYS, "s_grid", "phi_sweep_s=0.5", "phi_sweep_s=1.0",
                                  "phi_sweep_s=1.5", "block_B[0,0]"])
def test_real_products_match_the_complex_formulas(name):
    # the real Krein frame is built from real products only; each piece must
    # agree with the complex product it replaces, to round-off
    h, p = _frame_input(name)
    scale = max(1.0, float(np.abs(h).max()))
    m, q, plus = spectral._krein_frame(np.ascontiguousarray(h.real),
                                       np.ascontiguousarray(h.imag), p)
    m_ref, qs = _complex_frame(h, p)
    assert np.abs(m - m_ref.real).max() <= 1e-13 * scale
    _, x, e, nu = pt.eig_arrays(m)
    np.testing.assert_allclose(np.ldexp(nu, e), np.linalg.norm(m, axis=(1, 2)), rtol=1e-15)
    assert np.abs(spectral._frame_vectors(q, plus, x) - qs @ x).max() <= 1e-14
    got = pt.classify_stack(h, p)
    assert np.abs(got.residuals - _complex_residuals(h, got.v, got.w)).max() <= 1e-13 * scale


def _count_pair_checks(monkeypatch) -> list:
    """Count every call of construct.check_pt_pairs, wherever it is bound."""
    calls = []
    original = pt.construct.check_pt_pairs

    def counted(h, p):
        calls.append(h.shape)
        return original(h, p)

    monkeypatch.setattr(pt.construct, "check_pt_pairs", counted)
    monkeypatch.setattr(pt.spectral, "check_pt_pairs", counted)
    return calls


def test_classify_phase_does_not_check_an_admitted_pair_again(monkeypatch):
    sys = unbroken_system(4, 2, 2, 0)
    want = pt.classify_phase(sys)
    calls = _count_pair_checks(monkeypatch)
    got = pt.classify_phase(sys)
    assert calls == []
    np.testing.assert_array_equal(got.w, want.w)
    np.testing.assert_array_equal(got.v, want.v)
    pt.classify_stack(sys.h[None], sys.p)  # raw arrays: checked once
    assert calls == [(1, 4, 4)]
    pt.pt_system_from_matrices(sys.h, sys.p)  # admission: checked once
    assert calls == [(1, 4, 4), (4, 4)]
