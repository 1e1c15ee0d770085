"""Acceptance suite: one test per criterion, one printed PASS line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix.cli import main
from ptmatrix.construct import random_blocks
from ptmatrix.serialize import system_to_obj, write_json

from _seeds import UNBROKEN_SEEDS
from conftest import random_state, unbroken_systems

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# systems per dimension for the symmetry-algebra audit (criterion 4)
ALLOCATION = {
    (2, 1, 1): 40,
    (3, 2, 1): 35,
    (4, 2, 2): 35,
    (5, 3, 2): 25,
    (6, 5, 1): 25,
    (7, 6, 1): 20,
    (8, 7, 1): 20,
}

EXPECTED_TABLE = {
    1: (0, 1, 1, 1, 1),
    2: (1, 3, 4, 4, 3),
    3: (2, 6, 8, 9, 6),
    4: (4, 10, 14, 16, 10),
    5: (6, 15, 21, 25, 15),
    6: (9, 21, 30, 36, 21),
}


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_parameter_count_table(capsys):
    assert main(["counts", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim,parity,h0,pt,hermitian,real_symmetric"
    assert len(out) == 7
    for line in out[1:]:
        cells = [int(x) for x in line.split(",")]
        assert tuple(cells[1:]) == EXPECTED_TABLE[cells[0]]
    with capsys.disabled():
        report(1, "count table reproduced exactly for D = 1..6")


def _fd_jacobian_rank(fun, x0, step=1e-6, rel_threshold=1e-4):
    cols = []
    for i in range(len(x0)):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((fun(xp) - fun(xm)) / (2 * step))
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(sv >= rel_threshold * sv[0]))


def test_criterion_2_jacobian_rank_audit(capsys):
    rng = np.random.default_rng(2024)
    for d, mp, mm in [(2, 1, 1), (3, 2, 1), (4, 2, 2)]:
        nang = d * (d - 1) // 2
        na, nb, nc = mp * (mp + 1) // 2, mp * mm, mm * (mm + 1) // 2
        iu_a, iu_c = np.triu_indices(mp), np.triu_indices(mm)

        def parity_map(x):
            return pt.make_parity(pt.ParitySpec(mp, mm, x)).real.ravel()

        def hamiltonian_map(x):
            a = np.zeros((mp, mp))
            a[iu_a] = x[:na]
            a = a + np.triu(a, 1).T
            b = x[na:na + nb].reshape(mp, mm)
            c = np.zeros((mm, mm))
            c[iu_c] = x[na + nb:na + nb + nc]
            c = c + np.triu(c, 1).T
            h = pt.make_pt_system(
                pt.BlockForm(a, b, c), pt.ParitySpec(mp, mm, x[na + nb + nc:])
            ).h
            return np.concatenate([h.real.ravel(), h.imag.ravel()])

        want_p = pt.count_parity_params(d, mp, mm)
        want_h = pt.parameter_table(d).pt
        for _ in range(20):
            rank_p = _fd_jacobian_rank(parity_map, rng.uniform(0, 2 * np.pi, nang))
            assert rank_p == want_p, (d, mp, mm, rank_p, want_p)
            x0 = np.concatenate(
                [rng.uniform(-1, 1, na + nb + nc), rng.uniform(0, 2 * np.pi, nang)]
            )
            rank_h = _fd_jacobian_rank(hamiltonian_map, x0)
            assert rank_h == want_h, (d, mp, mm, rank_h, want_h)
    with capsys.disabled():
        report(2, "Jacobian ranks match closed-form parameter counts, 20 points each")


def test_criterion_3_two_level_oracle_agreement(capsys):
    rng = np.random.default_rng(33)
    worst_eig = worst_c = worst_vec = 0.0
    for _ in range(1000):
        r = rng.uniform(-1, 1)
        t = rng.uniform(0.3, 1.5)
        s = rng.uniform(-1, 1) * t * np.sqrt(0.9)
        phi = rng.uniform(0, 2 * np.pi)
        params = pt.TwoByTwoParams(r, s, t, phi)
        sys_ = pt.pt_system_from_matrices(pt.h2(params), pt.p2(phi))
        data = pt.classify_phase(sys_)
        assert data.phase is pt.Phase.UNBROKEN

        ana = sorted(pt.eig2(params), key=lambda z: (z.real, z.imag))
        worst_eig = max(
            worst_eig,
            max(abs(a - b) for a, b in zip(ana, data.w.tolist())),
        )
        worst_c = max(
            worst_c, pt.max_abs(pt.build_c_operator(sys_) - pt.c2(params))
        )
        ep, em = pt.eig2(params)
        for v_ana, val in ((pt.vec2(params)[0], ep), (pt.vec2(params)[1], em)):
            vec = data.v[:, np.argmin(np.abs(data.w - val))]
            nrm = pt.pt_inner(vec, vec, sys_.p)
            v_num = vec / np.sqrt(abs(nrm))
            worst_vec = max(
                worst_vec,
                min(pt.max_abs(v_num - v_ana), pt.max_abs(v_num + v_ana)),
            )
    assert worst_eig <= 1e-10, worst_eig
    assert worst_c <= 1e-8, worst_c
    assert worst_vec <= 1e-8, worst_vec
    with capsys.disabled():
        report(
            3,
            f"1000 draws: eigenvalues {worst_eig:.1e}, C {worst_c:.1e}, "
            f"vectors {worst_vec:.1e}",
        )


def test_criterion_4_symmetry_algebra_invariants(capsys):
    rng = np.random.default_rng(44)
    total = 0
    worst = dict(c2=0.0, ch=0.0, cpt=0.0, imag=0.0)
    for (dim, mp, mm), count in ALLOCATION.items():
        eye = np.eye(dim)
        for sys_ in unbroken_systems(dim, mp, mm, count):
            total += 1
            c = pt.build_c_operator(sys_)
            worst["c2"] = max(worst["c2"], pt.max_abs(c @ c - eye))
            worst["ch"] = max(worst["ch"], pt.max_abs(c @ sys_.h - sys_.h @ c))
            worst["cpt"] = max(
                worst["cpt"], pt.max_abs(sys_.p @ c.conj() @ sys_.p - c)
            )
            data = pt.classify_phase(sys_)
            vectors = list(data.v.T)
            vectors += [random_state(rng, dim) for _ in range(100)]
            for v in vectors:
                val = pt.cpt_inner(v, v, c, sys_.p)
                worst["imag"] = max(worst["imag"], abs(val.imag))
                assert val.real > 0.0
    assert total == 200
    assert worst["c2"] <= 1e-8, worst
    assert worst["ch"] <= 1e-8, worst
    assert worst["cpt"] <= 1e-8, worst
    assert worst["imag"] <= 1e-10, worst
    with capsys.disabled():
        report(
            4,
            f"200 systems D=2..8: C^2-I {worst['c2']:.1e}, [C,H] {worst['ch']:.1e}, "
            f"PC*P-C {worst['cpt']:.1e}, CPT norms positive (|Im| {worst['imag']:.1e})",
        )


def test_criterion_5_norm_sign_signature(capsys):
    orderings = set()
    for sys_ in unbroken_systems(8, 6, 2, 50):
        signs = pt.classify_phase(sys_).pt_norm_signs
        assert sorted(signs) == [-1, -1] + [1] * 6
        orderings.add(tuple(int(s) for s in signs))
    assert len(orderings) >= 2, orderings
    with capsys.disabled():
        report(
            5,
            f"50 systems at signature (6,2): sign multiset always 6x(+1), 2x(-1); "
            f"{len(orderings)} distinct orderings",
        )


def test_criterion_6_phase_boundary(capsys):
    def system(s):
        params = pt.TwoByTwoParams(0.0, s, 1.0, 0.9)
        return pt.pt_system_from_matrices(pt.h2(params), pt.p2(0.9))

    for k in range(41):
        s = 0.0 + 0.05 * k
        data = pt.classify_phase(system(s))
        values = data.w
        if s < 1.0 - 1e-8:
            assert np.all(np.abs(values.imag) <= 1e-9), s
        elif s > 1.0 + 1e-8:
            assert data.phase is pt.Phase.BROKEN, s
            assert data.conjugate_pairs == 1 and data.real_count == 0
        else:
            assert data.phase is pt.Phase.EXCEPTIONAL, s
    for delta in (0.0, 1e-9, -1e-9, 5e-9, -5e-9, 9e-9, -9e-9):
        sys_ = system(1.0 + delta)
        assert pt.classify_phase(sys_).phase is pt.Phase.EXCEPTIONAL, delta
        with pytest.raises(pt.ExceptionalPointError):
            pt.build_c_operator(sys_)
    with capsys.disabled():
        report(6, "sweep s in [0,2]: real below s=1, one conjugate pair above, "
                  "exceptional flagged within 1e-8 of the boundary")


def test_criterion_7_unitarity(capsys, tmp_path):
    rng = np.random.default_rng(77)
    worst = 0.0
    for sys_ in unbroken_systems(4, 2, 2, 20):
        data = pt.classify_phase(sys_)
        c = pt.c_operator(data, sys_.p)
        a, b = random_state(rng, 4), random_state(rng, 4)
        trace = pt.unitarity_trace(data, sys_.p, c, a, b, t_max=10.0, steps=101)
        worst = max(worst, trace.max_drift)
    assert worst <= 1e-8, worst

    res = subprocess.run(
        [sys.executable, "-m", "ptmatrix.cli", "evolve",
         "--input", str(FIXTURES / "asym2x2.json"),
         "--out", str(tmp_path / "trace.csv")],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 3, res.stderr
    drift = float(res.stderr.split("max_drift:")[1].split()[0])
    assert drift > 1e-3
    with capsys.disabled():
        report(
            7,
            f"20 systems: CPT drift {worst:.1e}; asymmetric fixture drifts "
            f"{drift:.2e} with exit code 3",
        )


def test_criterion_8_time_reversal_transpose_equivalence(capsys):
    rng = np.random.default_rng(88)
    checked = 0
    for k in range(100):
        d = int(rng.integers(2, 6))
        if k % 2 == 0:
            m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
            h = (m + m.T) / 2
        else:
            h = pt.random_pt_system(d, (d - 1, 1), int(rng.integers(0, 2**31))).h
        spec = pt.ParitySpec(d - 1, 1, rng.uniform(0, 2 * np.pi, d * (d - 1) // 2))
        p = pt.make_parity(spec)
        plain = pt.pt_commutes(h, p, 1e-10, conjugate_transpose=False)
        trans = pt.pt_commutes(h, p, 1e-10, conjugate_transpose=True)
        assert plain == trans
        np.testing.assert_array_equal(p @ h.conj() @ p, p @ h.conj().T @ p)
        checked += 1
    assert checked == 100
    with capsys.disabled():
        report(8, "100 symmetric H: PT predicate identical with and without transpose")


def test_criterion_9_hermitian_symmetric_overlap(capsys):
    rng = np.random.default_rng(99)
    flagged_both = 0
    for k in range(300):
        d = int(rng.integers(2, 6))
        m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        if k % 3 == 0:
            m = (m + m.T) / 2
            m = (m + m.conj().T) / 2  # both projections: lands in the overlap
        elif k % 3 == 1:
            m = (m + m.conj().T) / 2  # hermitian, generally not symmetric
        else:
            m = (m + m.T) / 2  # symmetric, generally not hermitian
        flags = pt.classify_matrix(m, tol=1e-10)
        if {pt.MatrixClass.HERMITIAN, pt.MatrixClass.SYMMETRIC} <= flags:
            flagged_both += 1
            assert pt.max_abs(m.imag) <= 1e-12
    assert flagged_both >= 100
    with capsys.disabled():
        report(
            9,
            f"{flagged_both} matrices flagged Hermitian and symmetric: "
            "all real to 1e-12",
        )
