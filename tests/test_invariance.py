"""Verdicts are properties of the pair (H, P): they must not change under
H -> kH, H -> H + rI, a common rotation of (H, P), or the BLAS thread count.
Nor must the class flags of classify_matrix under H -> kH or a rotation.

The corpus is every frozen unbroken system (tests/_seeds.py) plus the
(6, 4, 2) seeds 0..39, which are mostly broken.
"""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt
from ptmatrix import spectral

from _seeds import UNBROKEN_SEEDS
from test_spectral import _cayley_system

CORPUS = [(key, seed) for key, seeds in UNBROKEN_SEEDS.items() for seed in seeds]
CORPUS += [((6, 4, 2), seed) for seed in range(40)]


@functools.cache
def _system(index: int) -> pt.PTSystem:
    (dim, m_plus, m_minus), seed = CORPUS[index]
    return pt.random_pt_system(dim, (m_plus, m_minus), seed)


def _verdict(data: pt.SpectralData):
    signs = None if data.pt_norm_signs is None else sorted(data.pt_norm_signs.tolist())
    return data.phase, data.real_count, data.conjugate_pairs, signs


def _classify(h, p) -> pt.SpectralData:
    return pt.classify_phase(pt.pt_system_from_matrices(h, p))


def _assert_same_c(want: pt.SpectralData, got: pt.SpectralData, p_want, p_got, rotation=None):
    if want.phase is not pt.Phase.UNBROKEN:
        return
    c_want, c_got = pt.c_operator(want, p_want), pt.c_operator(got, p_got)
    if rotation is not None:
        c_want = rotation @ c_want @ rotation.T
    assert pt.max_abs(c_got - c_want) <= 1e-9 * pt.max_abs(c_want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index=st.integers(0, len(CORPUS) - 1), exponent=st.floats(-12.0, 12.0))
def test_verdict_and_c_are_scale_invariant(index, exponent):
    sys = _system(index)
    want = pt.classify_phase(sys)
    h = 10.0 ** exponent * sys.h
    got = _classify(h, sys.p)
    assert _verdict(got) == _verdict(want)
    _assert_same_c(want, got, sys.p, sys.p)
    assert pt.classify_matrix(h, sys.p) == pt.classify_matrix(sys.h, sys.p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index=st.integers(0, len(CORPUS) - 1), exponent=st.floats(-3.0, 6.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_verdict_is_shift_invariant(index, exponent, sign):
    # C is not compared: the eigenvectors of H + rI lose about eps * r/max|H|
    # * cond of their accuracy in float64, whatever the tolerances
    sys = _system(index)
    r = sign * 10.0 ** exponent * pt.max_abs(sys.h)
    got = _classify(sys.h + r * np.eye(sys.dim), sys.p)
    assert _verdict(got) == _verdict(pt.classify_phase(sys))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index=st.integers(0, len(CORPUS) - 1), seed=st.integers(0, 2**32 - 1))
def test_verdict_and_c_are_rotation_invariant(index, seed):
    sys = _system(index)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((sys.dim, sys.dim)))
    rot = q * np.sign(np.diag(r))
    want = pt.classify_phase(sys)
    h, p = rot @ sys.h @ rot.T, rot @ sys.p @ rot.T
    p = (p + p.T) / 2.0
    got = _classify(h, p)
    assert _verdict(got) == _verdict(want)
    _assert_same_c(want, got, sys.p, p, rot)
    assert pt.classify_matrix(h, p) == pt.classify_matrix(sys.h, sys.p)


@pytest.mark.parametrize("change", ["1e5", "1e7", "1e12", "+1e6"])
def test_frozen_862_system_keeps_its_verdict_in_other_units(change):
    # at an absolute residual bound, H * 1e5 failed its eigenpair residual,
    # and H * 1e7 and H + 1e6 I failed the PT commutation check
    sys = pt.random_pt_system(8, (6, 2), UNBROKEN_SEEDS[(8, 6, 2)][0])
    if change.startswith("+"):
        h = sys.h + float(change) * np.eye(8)
    else:
        h = float(change) * sys.h
    got = _classify(h, sys.p)
    assert got.phase is pt.Phase.UNBROKEN
    assert sorted(got.pt_norm_signs.tolist()) == sorted(pt.classify_phase(sys).pt_norm_signs.tolist())


# scales at which the squares summed for ||M||_F underflow (1e-300 to
# 1e-160) or overflow (1e160, 1e300)
EXTREME_SCALES = [1e-300, 1e-250, 1e-170, 1e-160, 1e160, 1e300]


def _real_mask_and_clusters(m):
    w, _, e, nu = pt.eig_arrays(m)
    wu = pt.linalg.in_units(w, e)
    return pt.linalg.real_mask(wu, nu), pt.linalg.multi_clusters(wu, nu)


@functools.cache
def _cayley_frames():
    frames = []
    for seed in range(120):
        sys = _cayley_system(seed)
        frames.append(spectral._krein_frame(sys.h.real[None], sys.h.imag[None], sys.p)[0])
    return frames


@pytest.mark.parametrize("k", EXTREME_SCALES)
def test_clusters_and_real_mask_are_scale_invariant_in_units(k):
    # the Cayley frames have exactly degenerate eigenvalues, so their clusters
    # and real masks are decided by the gap; their phases are not compared,
    # since dgeev's basis of a cluster moves with the scale
    for seed, m in enumerate(_cayley_frames()):
        want_real, want_runs = _real_mask_and_clusters(m)
        got_real, got_runs = _real_mask_and_clusters(k * m)
        np.testing.assert_array_equal(got_real, want_real, err_msg=f"seed {seed}")
        assert got_runs == want_runs, seed


@pytest.mark.parametrize("k", EXTREME_SCALES)
def test_verdict_is_invariant_at_extreme_scales(k):
    frozen = sum(len(seeds) for seeds in UNBROKEN_SEEDS.values())
    systems = [_system(index) for index in range(frozen)]
    # the two-level family at and around its exceptional point s = t = 1
    for s in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-12, 1.0):
        systems.append(pt.pt_system_from_matrices(pt.h2(pt.TwoByTwoParams(0.1, s, 1.0, 0.7)),
                                                  pt.p2(0.7)))
    for sys in systems:
        assert _verdict(_classify(k * sys.h, sys.p)) == _verdict(pt.classify_phase(sys))


_VERDICTS = """
import json
import ptmatrix as pt
from _seeds import UNBROKEN_SEEDS
corpus = [(key, seed) for key, seeds in UNBROKEN_SEEDS.items() for seed in seeds]
corpus += [((6, 4, 2), seed) for seed in range(40)]
rows = []
for (dim, mp, mm), seed in corpus:
    data = pt.classify_phase(pt.random_pt_system(dim, (mp, mm), seed))
    signs = None if data.pt_norm_signs is None else data.pt_norm_signs.tolist()
    rows.append([data.phase.value, data.real_count, signs])
print(json.dumps(rows))
"""


def _verdicts_with_threads(threads: int):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), env["PYTHONPATH"]])
    res = subprocess.run([sys.executable, "-c", _VERDICTS], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(res.stdout)


def test_verdicts_do_not_depend_on_the_blas_thread_count():
    one, two = _verdicts_with_threads(1), _verdicts_with_threads(2)
    assert len(one) == len(CORPUS)
    assert one == two
    frozen = sum(len(seeds) for seeds in UNBROKEN_SEEDS.values())
    assert [row[0] for row in one[:frozen]] == ["unbroken"] * frozen
