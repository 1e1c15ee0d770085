import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix.cli import _sweep_grid, _sweep_rows, main, sweep_block
from ptmatrix.serialize import (
    fmt17,
    read_json,
    system_matrices_from_obj,
    system_to_obj,
    write_json,
)

from conftest import unbroken_system

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TABLE_THROUGH_6 = [
    "dim,parity,h0,pt,hermitian,real_symmetric",
    "1,0,1,1,1,1",
    "2,1,3,4,4,3",
    "3,2,6,8,9,6",
    "4,4,10,14,16,10",
    "5,6,15,21,25,15",
    "6,9,21,30,36,21",
]


def test_counts_table(capsys):
    assert main(["counts", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == TABLE_THROUGH_6


def test_counts_csv_file(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    assert main(["counts", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines() == TABLE_THROUGH_6[:4]


def test_counts_rejects_bad_dim(capsys):
    assert main(["counts", "0"]) == 1
    capsys.readouterr()


def test_generate_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--dim", "3", "--signature", "2,1", "--seed", "11",
                 "--out", str(f1)]) == 0
    assert main(["generate", "--dim", "3", "--signature", "2,1", "--seed", "11",
                 "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    h, p, _ = system_matrices_from_obj(read_json(f1))
    assert pt.pt_system_from_matrices(h, p).dim == 3


def test_generate_prints_parity_count(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["generate", "--dim", "8", "--signature", "6,2", "--seed", "1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "parity params: 12" in printed
    assert "parity_max=16" in printed


def test_generate_real_symmetric_when_no_negative_parity(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["generate", "--dim", "3", "--signature", "3,0", "--seed", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    h, p, _ = system_matrices_from_obj(read_json(out))
    assert pt.max_abs(h.imag) <= 1e-12 and pt.max_abs(h - h.T) <= 1e-12
    np.testing.assert_allclose(p.real, np.eye(3), atol=1e-12)


def test_generate_usage_errors(tmp_path, capsys):
    assert main(["generate", "--dim", "3", "--signature", "2,2",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["generate", "--dim", "3", "--signature", "nope",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def analyze_report(tmp_path, capsys, sys_obj):
    src = tmp_path / "in.json"
    write_json(src, sys_obj)
    rpt = tmp_path / "report.json"
    code = main(["analyze", "--input", str(src), "--out", str(rpt)])
    capsys.readouterr()
    return code, (read_json(rpt) if rpt.exists() else None)


def test_analyze_unbroken(tmp_path, capsys):
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.2, 0.3, 1.0, 1.1)), pt.p2(1.1)
    )
    code, report = analyze_report(tmp_path, capsys, system_to_obj(sys_))
    assert code == 0
    assert report["spectrum"]["phase"] == "unbroken"
    assert sorted(report["spectrum"]["pt_norm_signs"]) == [-1, 1]
    assert report["c_matrix"] is not None
    assert report["invariant_residuals"]["c_squared"] <= 1e-8
    assert "pt_symmetric" in report["classes"]
    assert "hermitian" not in report["classes"]


def test_analyze_broken_reports_null_c(tmp_path, capsys):
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.0, 2.0, 1.0, 0.0)), pt.p2(0.0)
    )
    code, report = analyze_report(tmp_path, capsys, system_to_obj(sys_))
    assert code == 0
    assert report["spectrum"]["phase"] == "broken"
    assert report["spectrum"]["conjugate_pairs"] == 1
    assert report["c_matrix"] is None
    assert report["spectrum"]["pt_norm_signs"] is None


def test_analyze_overlap_class(tmp_path, capsys):
    h = np.array([[0.4, 0.1], [0.1, -0.2]], dtype=complex)
    sys_ = pt.pt_system_from_matrices(h, np.eye(2))
    code, report = analyze_report(tmp_path, capsys, system_to_obj(sys_))
    assert code == 0
    assert report["classes"] == [
        "hermitian",
        "pt_symmetric",
        "real_symmetric",
        "symmetric",
    ]


@pytest.mark.parametrize("scale", [1.0, 1e7, 1e-11])
def test_analyze_classes_do_not_depend_on_units(tmp_path, capsys, scale):
    # at an absolute bound, 1e7 H lost pt_symmetric and 1e-11 H, complex, was
    # flagged hermitian and real_symmetric
    sys_ = unbroken_system(8, 6, 2, 0)
    scaled = pt.pt_system_from_matrices(scale * sys_.h, sys_.p)
    code, report = analyze_report(tmp_path, capsys, system_to_obj(scaled))
    assert code == 0
    assert report["classes"] == ["pt_symmetric", "symmetric"]


def test_analyze_round_trip_preserves_h(tmp_path, capsys):
    sys_ = pt.random_pt_system(4, (2, 2), 17)
    obj = system_to_obj(sys_)
    src = tmp_path / "in.json"
    write_json(src, obj)
    loaded = read_json(src)
    assert loaded["h"] == obj["h"]  # exact, including float text round trip
    code, _ = analyze_report(tmp_path, capsys, loaded)
    assert code == 0


def test_analyze_eigensolver_failure_is_numerical(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must still map to exit 2, not 1
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    sys_ = pt.random_pt_system(4, (2, 2), 17)
    monkeypatch.setattr(np.linalg, "eig", fail)
    code, report = analyze_report(tmp_path, capsys, system_to_obj(sys_))
    assert code == 2
    assert report is None


def test_analyze_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", "--input", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["analyze", "--input", str(missing)]) == 1
    capsys.readouterr()


def test_analyze_stdout_equals_out_file(tmp_path, capsysbinary):
    src, rpt = tmp_path / "in.json", tmp_path / "report.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    assert main(["analyze", "--input", str(src)]) == 0
    printed = capsysbinary.readouterr().out
    assert main(["analyze", "--input", str(src), "--out", str(rpt)]) == 0
    assert capsysbinary.readouterr().out == f"wrote {rpt}\n".encode()
    assert printed == rpt.read_bytes()


def test_sweep_phase_boundary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "s", "--r", "0", "--t", "1", "--phi", "0.9",
                 "--lo", "0.9", "--hi", "1.1", "--step", "0.05", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "value,re_0,im_0,re_1,im_1,phase,min_gap"
    phases = [r.split(",")[5] for r in rows[1:]]
    assert phases == ["unbroken", "unbroken", "exceptional", "broken", "broken"]


def test_sweep_rotation_angle_leaves_spectrum(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "phi", "--r", "0.3", "--s", "0.4", "--t", "1.0",
                 "--lo", "0", "--hi", "6.2", "--step", "0.2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    eigs = np.array([[float(c) for c in r[1:5]] for r in rows])
    assert np.ptp(eigs, axis=0).max() <= 1e-9


def test_sweep_block_entry(tmp_path, capsys):
    src = tmp_path / "base.json"
    assert main(["generate", "--dim", "3", "--signature", "2,1", "--seed", "4",
                 "--out", str(src)]) == 0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--input", str(src), "--param", "B[0,0]",
                 "--lo", "0", "--hi", "2", "--step", "0.5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 6
    assert rows[0].startswith("value,re_0,im_0")


@pytest.mark.parametrize("malform,message", [
    (lambda obj: [obj], "input error: base system JSON must be an object"),
    (lambda obj: "sys.json", "input error: base system JSON must be an object"),
    (lambda obj: {**obj, "dim": None}, "input error: base system dim None does not match"),
    (lambda obj: {**obj, "provenance": {**obj["provenance"], "signature": 5}},
     "input error: malformed parity-spec JSON"),
    # a dim wider than the signature would give a header with more eigenvalue
    # columns than any row
    (lambda obj: {**obj, "dim": 3}, "input error: base system dim 3 does not match"),
], ids=["list", "string", "dim_null", "signature_5", "dim_3_signature_1_1"])
def test_sweep_malformed_base_system_is_input_error(tmp_path, capsys, malform, message):
    src = tmp_path / "base.json"
    src.write_text(json.dumps(malform(system_to_obj(unbroken_system(2, 1, 1, 0)))))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]",
            "--lo", "0", "--hi", "1", "--step", "0.5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_sweep_empty_range_header_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "s", "--lo", "2", "--hi", "1", "--step", "0.5",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text().splitlines() == ["value,re_0,im_0,re_1,im_1,phase,min_gap"]


def test_sweep_bad_step(capsys):
    assert main(["sweep", "--param", "s", "--lo", "0", "--hi", "1", "--step", "0"]) == 1
    assert main(["sweep", "--param", "q", "--lo", "0", "--hi", "1", "--step", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [
    ("--lo", "nan"), ("--lo", "-inf"), ("--hi", "inf"), ("--hi", "nan"),
    ("--step", "nan"), ("--step", "inf"),
])
def test_sweep_non_finite_bounds_rejected(capsys, flag, value):
    bounds = {"--lo": "0", "--hi": "1", "--step": "0.5"}
    bounds[flag] = value
    argv = ["sweep", "--param", "s"] + [f"{k}={v}" for k, v in bounds.items()]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"{flag} must be finite" in err


def test_sweep_grid_too_fine_for_its_range(capsys):
    # (hi - lo) / step overflows to inf: a usage error, not a crash
    assert main(["sweep", "--param", "s", "--lo", "0", "--hi", "1e300", "--step", "1e-300"]) == 1
    assert "too small for the range" in capsys.readouterr().err


@pytest.mark.parametrize("extra,code", [
    (["--r", "nan"], 1), (["--t", "inf"], 1), (["--phi", "nan"], 1),
    (["--tol", "1e-300"], 2),  # a tolerance below round-off: a residual above it
])
def test_sweep_point_failures_keep_their_exit_code(capsys, extra, code):
    argv = ["sweep", "--param", "s", *extra, "--lo", "0", "--hi", "2", "--step", "0.01"]
    assert main(argv) == code
    capsys.readouterr()


def _grid_loop(lo, hi, step):
    # the point-by-point grid: lo + k * step while at most hi (+ relative 1e-12)
    values, k = [], 0
    while lo + k * step <= hi + 1e-12 * max(1.0, abs(hi)):
        values.append(lo + k * step)
        k += 1
    return values


def _reference_sweep(make_system, values, dim):
    """One classify_phase per grid point, formatted row by row."""
    lines = ["value," + "".join(f"re_{k},im_{k}," for k in range(dim)) + "phase,min_gap"]
    for x in values:
        data = pt.classify_phase(make_system(x))
        w = data.w.tolist()
        gap = min(abs(a - b) for k, a in enumerate(w) for b in w[k + 1:]) if len(w) > 1 else 0.0
        eigs = "".join(f"{fmt17(z.real)},{fmt17(z.imag)}," for z in w)
        lines.append(f"{fmt17(x)},{eigs}{data.phase.value},{fmt17(gap)}")
    return lines


TWO_LEVEL_BASE = {"r": 0.3, "s": 0.6, "t": 1.0, "phi": 0.9}
# 2 * sweep_block(2) + 3 points of s on multiples of 2^-8, so the blocks
# split twice, the last block is short, and s = -t and s = t are grid points
S_BLOCK = sweep_block(2)
S_STEP = 2.0 ** -8
S_LO = 1.0 - (S_BLOCK + 1) * S_STEP


@pytest.mark.parametrize("param,lo,hi,step", [
    ("s", S_LO, S_LO + (2 * S_BLOCK + 2) * S_STEP, S_STEP),
    ("r", -1.0, 1.0, 0.05),
    ("t", -1.5, 1.5, 0.05),
    ("phi", 0.0, 6.3, 0.1),
])
def test_sweep_matches_point_by_point_reference(tmp_path, capsys, param, lo, hi, step):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--param", param]
    for name, value in TWO_LEVEL_BASE.items():
        if name != param:
            argv += [f"--{name}", repr(value)]
    argv += ["--lo", repr(lo), "--hi", repr(hi), "--step", repr(step), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()

    def make_system(x):
        params = pt.TwoByTwoParams(**{**TWO_LEVEL_BASE, param: x})
        return pt.pt_system_from_matrices(pt.h2(params), pt.p2(params.phi))

    values = _grid_loop(lo, hi, step)
    got = out.read_text().splitlines()
    assert got == _reference_sweep(make_system, values, 2)
    if param == "s":
        assert len(values) == 2 * S_BLOCK + 3
        phases = {float(row.split(",")[0]): row.split(",")[5] for row in got[1:]}
        assert phases[-1.0] == phases[1.0] == "exceptional"


@pytest.mark.parametrize("key,param", [
    ((8, 6, 2), "B[0,1]"), ((3, 2, 1), "A[0,1]"),
    ((8, 6, 2), "C[0,0]"), ((5, 3, 2), "A[1,1]"), ((3, 2, 1), "B[0,0]"),
])
def test_block_sweep_matches_point_by_point_reference(tmp_path, capsys, key, param):
    base = unbroken_system(*key, 0)
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(base))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--input", str(src), "--param", param,
            "--lo", "-2", "--hi", "2", "--step", "0.05", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    prov = base.provenance
    spec = pt.ParitySpec(*prov["signature"], angles=np.array(prov["angles"]))
    name, i, j = param[0], int(param[2]), int(param[4])

    def make_system(x):
        arrs = {k: np.array(v, dtype=float).reshape(-1, len(v[0]) if v and v[0] else 0)
                for k, v in prov["blocks"].items()}
        arrs[name][i, j] = x
        if name in "AC":
            arrs[name][j, i] = x
        return pt.make_pt_system(pt.BlockForm(arrs["A"], arrs["B"], arrs["C"]), spec)

    want = _reference_sweep(make_system, _grid_loop(-2.0, 2.0, 0.05), base.dim)
    assert out.read_text().splitlines() == want
    assert {row.split(",")[-2] for row in want[1:]} >= {"unbroken", "broken"}


@pytest.mark.parametrize("tol,code,message", [
    # the pair at B[0,0] = 2.5e6 is made not PT-symmetric; the point before it
    # classifies
    ("1e-10", 1, "input error: H does not commute with the PT operation for this P "
                 "(residual 8.566e-01 > PT_COMMUTATION_TOL * max|H| = 2.105e-04)"),
    # with a tolerance no residual meets, the point before it fails first
    ("1e-300", 2, "numerical failure: eigenpair residual"),
], ids=["commutation", "residual"])
def test_block_sweep_build_failure_surfaces_in_grid_order(tmp_path, capsys, monkeypatch, tol,
                                                          code, message):
    original = pt.pt_matrices

    def crafted(blocks, spec):
        h, p = original(blocks, spec)
        # a real symmetric change of 1e-6 max|H| that the parity does not keep
        h[blocks.b_block[:, 0, 0] == 2.5e6, 0, 0] += 1e-6 * 2.5e6
        return h, p

    monkeypatch.setattr("ptmatrix.cli.pt_matrices", crafted)
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(unbroken_system(3, 2, 1, 0)))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]", "--lo", "0", "--hi", "4e7",
            "--step", "2.5e6", "--tol", tol, "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_block_sweep_overflow_past_the_failing_point_is_silent(tmp_path, capsys):
    # under a tolerance below round-off the first point fails its residual
    # bound; points up to 1.7e308 overflow while the block is built, which
    # must neither warn (an error under this suite's filterwarnings) nor
    # decide the outcome
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    argv = ["sweep", "--input", str(src), "--param", "A[0,0]",
            "--lo", "1e300", "--hi", "1.7e308", "--step", "1e307", "--tol", "1e-300"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigenpair residual ") and err.count("\n") == 1


def test_sweep_grid_past_the_float_range_is_silent(tmp_path, capsys):
    # lo + k * step is inf for the candidate points past 1.7e308; building the
    # grid must not warn, and the grid keeps the point-by-point values. The
    # points classify, at any scale, up to the first one whose rotated H
    # overflows: a non-finite entry, reported without a warning
    assert _sweep_grid(1e307, 1.7e308, 1e307) == _grid_loop(1e307, 1.7e308, 1e307)
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    argv = ["sweep", "--input", str(src), "--param", "A[0,0]",
            "--lo", "1e307", "--hi", "1.7e308", "--step", "1e307"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "input error: matrix contains NaN or Inf entries\n"
    argv[argv.index("--hi") + 1] = "5e307"
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and {row.split(",")[-2] for row in rows} == {"unbroken"}


def test_two_level_sweep_overflow_is_silent(capsys):
    # past s = 1e154 the residuals' sums of squares overflow; the relative
    # bound passes every point, and no RuntimeWarning is printed
    argv = ["sweep", "--t", "1", "--param", "s", "--lo", "0", "--hi", "1e300", "--step", "1e298"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[5] for row in rows] == ["unbroken"] + ["broken"] * 100
    # under a tolerance below round-off the first failing point is s = 1e298
    # (s = 0 is solved exactly), rejected with the true figure
    assert main(argv + ["--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigenpair residual ") and err.count("\n") == 1
    # dgeev's own eigenpairs of the point's real Krein frame, their residual
    # vectors scaled by 1/s before their squares are summed
    s = 1e298
    h = pt.h2(pt.TwoByTwoParams(0.0, s, 1.0, np.pi / 2))[None]
    m = pt.spectral._krein_frame(np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag),
                                 pt.p2(np.pi / 2))[0][0]
    w, x = np.linalg.eig(m)
    want = s * np.linalg.norm((m @ x - x * w) / s, axis=0).max()
    assert float(err.split()[4]) == pytest.approx(want, rel=1e-3)


def test_block_sweep_to_large_entries_classifies(tmp_path, capsys):
    # B[0,0] up to 2e6: every point is broken, none is a residual or
    # commutation failure, as they were under absolute bounds
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]",
            "--lo", "-1", "--hi", "2e6", "--step", "1e5"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-2] for row in rows] == ["broken"] * 21


@pytest.mark.parametrize("phi", ["1.5707963267948966", "0.7"])
def test_two_level_sweep_phases_do_not_depend_on_units(capsys, phi):
    # t = 1e7 over s in [0, 2e7] is t = 1 over s in [0, 2] in other units
    def phases(t, hi, step):
        argv = ["sweep", "--param", "s", "--phi", phi, "--t", t, "--lo", "0", "--hi", hi,
                "--step", step]
        assert main(argv) == 0
        return [row.split(",")[5] for row in capsys.readouterr().out.splitlines()[1:]]

    want = phases("1", "2", "0.01")
    assert len(want) == 201 and {"unbroken", "broken", "exceptional"} <= set(want)
    assert phases("1e7", "2e7", "1e5") == want


def test_sweep_rows_match_fmt17_rows():
    specials = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]
    values = specials + [0.25]
    w = np.array([[complex(x, y), complex(y, -x)] for x, y in zip(values, values[::-1])])
    codes = np.array([0, 1, 2] * 2 + [0])
    phases = [pt.Phase.UNBROKEN, pt.Phase.BROKEN, pt.Phase.EXCEPTIONAL] * 2 + [pt.Phase.UNBROKEN]
    gaps = np.array(values[::-1])
    want = "".join(
        f"{fmt17(x)}," + "".join(f"{fmt17(z.real)},{fmt17(z.imag)}," for z in row)
        + f"{phase.value},{fmt17(gap)}\n"
        for x, row, phase, gap in zip(values, w, phases, gaps)
    )
    assert _sweep_rows(values, w, codes, gaps) == want
    assert ",-0," in want and "e-324" in want and "-inf" in want and "nan" in want


def test_sweep_reports_the_first_failing_point(tmp_path, capsys, monkeypatch):
    # the block holds two residual failures; the earlier point decides, as it
    # would in a point-by-point sweep, though the stacked solve names the
    # worse residual, the later point's. Every other point is diagonal and
    # solved exactly, so it meets even a tolerance below round-off; the
    # crafted pairs pass check_pt_pairs, whose products are exact for this
    # diagonal parity
    base = unbroken_system(3, 2, 1, 0)
    tol = 1e-300
    parity = np.diag([1.0, 1, -1])
    exact = np.diag([1.0, 2, 3])
    failing = {
        0.25: np.array([[1, 0, 0.5j], [0, 2, 0], [0.5j, 0, 3]]),  # a residual of round-off
        0.75: np.array([[1.7e308, 1e308, 0], [1e308, 1.7e308, 0], [0, 0, 1]]),  # an inf eigenvalue
    }

    def crafted(blocks, spec):
        h, _ = original(blocks, spec)
        h[:] = exact
        for n, x in enumerate(blocks.b_block[:, 0, 0]):
            if x in failing:
                h[n] = failing[x]
        return h, parity.astype(complex)

    def failure(*keys):
        with pytest.raises(pt.ConvergenceError) as exc:
            pt.classify_stack(np.stack([failing[x] for x in keys]), parity, tol)
        return f"numerical failure: {exc.value}\n"

    original = pt.pt_matrices
    pt.classify_stack(exact[None], parity, tol)
    assert failure(0.25) != failure(0.25, 0.75) == failure(0.75)
    monkeypatch.setattr("ptmatrix.cli.pt_matrices", crafted)
    src = tmp_path / "base.json"
    write_json(src, system_to_obj(base))
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]", "--hi", "1", "--step", "0.125",
            "--tol", repr(tol)]
    assert main(argv + ["--lo", "0"]) == 2
    assert capsys.readouterr().err == failure(0.25)
    assert main(argv + ["--lo", "0.5"]) == 2
    assert capsys.readouterr().err == failure(0.75)


def test_block_sweep_builds_one_rotation_per_block(tmp_path, capsys, monkeypatch):
    calls = []
    original = pt.construct.make_rotation

    def counted(*args):
        calls.append(1)
        return original(*args)

    src = tmp_path / "base.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    monkeypatch.setattr(pt.construct, "make_rotation", counted)
    # 2 * sweep_block(8) + 3 points: three blocks
    argv = ["sweep", "--input", str(src), "--param", "B[0,1]", "--lo", "0",
            "--hi", repr((2 * sweep_block(8) + 2) / 1024), "--step", repr(1 / 1024),
            "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 3


@pytest.mark.parametrize("command", ["analyze", "sweep", "evolve"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, value):
    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(unbroken_system(3, 2, 1, 0)))
    argv = [command, "--input", str(src), "--tol", value, "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--param", "B[0,0]", "--lo", "0", "--hi", "1", "--step", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: --tol must be finite and positive, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "sweep", "evolve"])
@pytest.mark.parametrize("value", ["1", "10"])
def test_tol_must_be_below_one(tmp_path, capsys, command, value):
    # |Im w| <= |w|, so at tol >= 1 every eigenvalue would pass as real
    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(unbroken_system(3, 2, 1, 0)))
    argv = [command, "--input", str(src), "--tol", value, "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--param", "B[0,0]", "--lo", "0", "--hi", "1", "--step", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: --tol must be below 1, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-1", "-12345678901234567890"])
def test_generate_rejects_negative_seed(tmp_path, capsys, value):
    out = tmp_path / "sys.json"
    assert main(["generate", "--dim", "3", "--seed", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: --seed must be a non-negative integer, got {value}\n"
    assert not out.exists()


def test_generate_has_no_tol(tmp_path, capsys):
    argv = ["generate", "--dim", "3", "--tol", "1e-9", "--out", str(tmp_path / "sys.json")]
    assert main(argv) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["h", "p"])
@pytest.mark.parametrize("entry", ["x", [1, 2, 3], ["a", "b"], None],
                         ids=["string", "triple", "strings", "null"])
def test_malformed_matrix_entry_is_named(tmp_path, capsys, matrix, entry):
    obj = system_to_obj(unbroken_system(3, 2, 1, 0))
    obj[matrix]["entries"][4] = entry
    src = tmp_path / "sys.json"
    src.write_text(json.dumps(obj))
    assert main(["analyze", "--input", str(src)]) == 1
    assert capsys.readouterr().err == (
        f"input error: system JSON {matrix}: matrix JSON entry 4 must be two numbers "
        f"[re, im], got {entry!r}\n"
    )


def test_evolve_eigenstate_constant(tmp_path, capsys):
    src = tmp_path / "sys.json"
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.1, 0.4, 1.0, 0.7)), pt.p2(0.7)
    )
    write_json(src, system_to_obj(sys_))
    out = tmp_path / "trace.csv"
    code = main(["evolve", "--input", str(src), "--state", "eig:0",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    re_vals = np.array([float(r[1]) for r in rows])
    assert np.ptp(re_vals) <= 1e-9
    assert len(rows) == 101


def test_evolve_random_state_unitary(tmp_path, capsys):
    src = tmp_path / "sys.json"
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.1, 0.4, 1.0, 0.7)), pt.p2(0.7)
    )
    write_json(src, system_to_obj(sys_))
    code = main(["evolve", "--input", str(src), "--state", "rand:3",
                 "--state2", "rand:4", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 0
    drift = float(err.split("max_drift:")[1].split()[0])
    assert drift <= 1e-8


@pytest.mark.parametrize("spec", ["eig:-1", "eig:-2", "eig:2", "eig:x"])
def test_evolve_eigenstate_index_out_of_range(tmp_path, capsys, spec):
    src = tmp_path / "sys.json"
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.1, 0.4, 1.0, 0.7)), pt.p2(0.7)
    )
    write_json(src, system_to_obj(sys_))
    assert main(["evolve", "--input", str(src), "--state", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and repr(spec) in err


@pytest.mark.parametrize("command,solves", [("analyze", 1), ("evolve", 1)])
def test_one_eigensolve_per_classification(tmp_path, capsys, monkeypatch, command, solves):
    # both commands classify once, with one real solve; C and the propagator
    # are built from the classification's eigenvectors, not solved again
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    counted = counting("eig_arrays", pt.linalg.eig_arrays)
    for module in (pt.linalg, pt.spectral, pt.dynamics):
        monkeypatch.setattr(module, "eig_arrays", counted)
    argv = [command, "--input", str(src), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == ["eig_arrays"] * solves


def test_evolve_asymmetric_solves_once(capsys, monkeypatch):
    # the weight, the ket propagator and the bra propagator (H^T = V^-T w V^T)
    # share one decomposition of H
    calls = []
    original = pt.linalg.eig_arrays

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (pt.linalg, pt.dynamics):
        monkeypatch.setattr(module, "eig_arrays", counted)
    assert main(["evolve", "--input", str(FIXTURES / "asym2x2.json")]) == 3
    capsys.readouterr()
    assert len(calls) == 1


def test_analyze_zero_dim_system_is_input_error(tmp_path, capsys):
    src = tmp_path / "empty.json"
    empty = {"dim": 0, "entries": []}
    src.write_text(json.dumps({"dim": 0, "h": empty, "p": empty, "provenance": {}}))
    assert main(["analyze", "--input", str(src)]) == 1
    assert "dim must be at least 1, got 0" in capsys.readouterr().err


def test_json_integers_must_be_integers(tmp_path, capsys):
    # a float, bool or string dim or signature entry is not rounded to an int
    obj = system_to_obj(unbroken_system(2, 1, 1, 0))
    src = tmp_path / "sys.json"
    src.write_text(json.dumps({**obj, "h": {**obj["h"], "dim": 2.9}}))
    assert main(["analyze", "--input", str(src)]) == 1
    assert capsys.readouterr().err == (
        "input error: system JSON h: matrix JSON dim must be an integer, got 2.9\n")
    src.write_text(json.dumps({**obj, "provenance": {**obj["provenance"], "signature": [1.7, 1]}}))
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]", "--lo", "0", "--hi", "1",
            "--step", "0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "input error: parity-spec JSON signature entry must be an integer, got 1.7\n")


def test_evolve_broken_system_fails(tmp_path, capsys):
    src = tmp_path / "sys.json"
    sys_ = pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.0, 2.0, 1.0, 0.0)), pt.p2(0.0)
    )
    write_json(src, system_to_obj(sys_))
    assert main(["evolve", "--input", str(src)]) == 2
    capsys.readouterr()


def test_evolve_asymmetric_fixture_flags_violation(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["evolve", "--input", str(FIXTURES / "asym2x2.json"),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "unitarity violated" in err
    drift = float(err.split("max_drift:")[1].split()[0])
    assert drift > 1e-3


@pytest.mark.parametrize("flags,named", [
    (["--state", "eig:0"], "--state"),
    (["--state", "eig:7"], "--state"),
    (["--state", "bogus"], "--state"),
    (["--state", "rand:x"], "--state"),
    (["--state", "rand:-1"], "--state"),
    (["--state", "rand:0", "--state2", "rand:1"], "--state2"),
])
def test_evolve_asymmetric_accepts_only_one_rand_state(tmp_path, capsys, flags, named):
    # the weight-matrix demo draws both states from the one seed of --state
    out = tmp_path / "trace.csv"
    argv = ["evolve", "--input", str(FIXTURES / "asym2x2.json"), *flags, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {named} ")
    assert not out.exists()


def test_evolve_asymmetric_rand_seed_picks_the_states(tmp_path, capsys):
    traces = {}
    for state in ("rand:0", "rand:4"):
        out = tmp_path / f"{state.replace(':', '_')}.csv"
        assert main(["evolve", "--input", str(FIXTURES / "asym2x2.json"),
                     "--state", state, "--out", str(out)]) == 3
        traces[state] = out.read_bytes()
    capsys.readouterr()
    default = tmp_path / "default.csv"
    assert main(["evolve", "--input", str(FIXTURES / "asym2x2.json"), "--out", str(default)]) == 3
    capsys.readouterr()
    assert default.read_bytes() == traces["rand:0"] != traces["rand:4"]


def _evolve_input(tmp_path, system):
    if system == "asymmetric":
        return str(FIXTURES / "asym2x2.json")
    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(unbroken_system(4, 2, 2, 0)))
    return str(src)


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("system", ["frozen_422", "asymmetric"])
def test_evolve_non_finite_horizon_is_input_error(tmp_path, capsys, system, t_max):
    src = _evolve_input(tmp_path, system)
    out = tmp_path / "trace.csv"
    assert main(["evolve", "--input", src, f"--t-max={t_max}", "--out", str(out)]) == 1
    assert "t_max must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system", ["frozen_422", "asymmetric"])
def test_evolve_overflowing_samples_are_numerical_failure(tmp_path, capsys, system):
    src = _evolve_input(tmp_path, system)
    out = tmp_path / "trace.csv"
    # past t = 1.797e308 / max|w| the phases w t of the frozen system overflow
    assert main(["evolve", "--input", src, "--t-max", "1.7e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite inner product at t = " in err
    assert "max_drift" not in err
    assert not out.exists()


def test_console_entry_point_subprocess(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "ptmatrix.cli", "counts", "2"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.splitlines() == TABLE_THROUGH_6[:3]


def test_parser_is_built_once_and_reused_safely(tmp_path, capsys, monkeypatch):
    # main builds the parser once per process; a sequence of calls in one
    # process gives what a fresh process gives for each call
    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(pt.pt_system_from_matrices(
        pt.h2(pt.TwoByTwoParams(0.1, 0.4, 1.0, 0.7)), pt.p2(0.7))))
    sweep_csv, trace_csv = tmp_path / "sweep.csv", tmp_path / "trace.csv"
    sweep = ["sweep", "--param", "s", "--t", "1", "--lo", "0", "--hi", "2", "--step", "0.125",
             "--out", str(sweep_csv)]
    calls = [
        sweep,
        ["sweep", "--param", "s", "--lo", "0"],  # usage error: --hi and --step missing
        ["evolve", "--input", str(src), "--state", "eig:1", "--steps", "11", "--out", str(trace_csv)],
        sweep,
    ]

    def outputs(code, out, err):
        files = tuple(p.read_text() if p.exists() else None for p in (sweep_csv, trace_csv))
        return code, out, err, files

    built = []
    original = pt.cli.build_parser
    monkeypatch.setattr(pt.cli, "build_parser", lambda: built.append(1) or original())
    pt.cli._parser.cache_clear()
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append(outputs(code, *capsys.readouterr()))
    assert len(built) == 1
    pt.cli._parser.cache_clear()
    for p in (sweep_csv, trace_csv):
        p.unlink()
    fresh = []
    for argv in calls:
        res = subprocess.run([sys.executable, "-m", "ptmatrix.cli", *argv],
                             capture_output=True, text=True)
        fresh.append(outputs(res.returncode, res.stdout, res.stderr))
    assert in_process == fresh
    assert [x[0] for x in fresh] == [0, 1, 0, 0]


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_cli_admits_the_pair_once(tmp_path, capsys, monkeypatch, command):
    # the system JSON is parsed once and its pair checked once: PTSystem
    # checks it, and classify_phase does not check it again
    src = tmp_path / "sys.json"
    write_json(src, system_to_obj(unbroken_system(8, 6, 2, 0)))
    checks, parsed = [], []
    check, parse = pt.construct.check_pt_pairs, pt.serialize.matrix_from_obj

    def counted_check(h, p):
        checks.append(h.shape)
        return check(h, p)

    def counted_parse(obj):
        parsed.append(obj["dim"])
        return parse(obj)

    monkeypatch.setattr(pt.construct, "check_pt_pairs", counted_check)
    monkeypatch.setattr(pt.spectral, "check_pt_pairs", counted_check)
    monkeypatch.setattr(pt.serialize, "matrix_from_obj", counted_parse)
    assert main([command, "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert checks == [(8, 8)]
    assert parsed == [8, 8]


def _asymmetric_obj():
    return json.loads((FIXTURES / "asym2x2.json").read_text())


@pytest.mark.parametrize("command", ["analyze", "evolve"])
@pytest.mark.parametrize("system", ["frozen_211", "asymmetric"])
def test_system_dim_must_match_its_matrices(tmp_path, capsys, command, system):
    # a top-level dim that is not the matrices' size is an input error for
    # every command that reads a system, and no report or trace is written
    obj = _asymmetric_obj() if system == "asymmetric" else system_to_obj(unbroken_system(2, 1, 1, 0))
    src, out = tmp_path / "sys.json", tmp_path / "out"
    for dim, message in [
        (5, "input error: system JSON dim 5 does not match the sizes (2, 2) of h and p\n"),
        (2.0, "input error: system JSON dim must be an integer, got 2.0\n"),
        (None, "input error: system JSON dim must be an integer, got null\n"),
    ]:
        src.write_text(json.dumps({**obj, "dim": dim}))
        assert main([command, "--input", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_sweep_base_system_dim_must_be_a_json_integer(tmp_path, capsys):
    obj = system_to_obj(unbroken_system(2, 1, 1, 0))
    src, out = tmp_path / "base.json", tmp_path / "sweep.csv"
    argv = ["sweep", "--input", str(src), "--param", "B[0,0]", "--lo", "0", "--hi", "1",
            "--step", "0.5", "--out", str(out)]
    src.write_text(json.dumps({**obj, "dim": 2.0}))
    assert main(argv) == 1
    assert capsys.readouterr().err == "input error: base system dim must be an integer, got 2.0\n"
    assert not out.exists()
    src.write_text(json.dumps(obj))
    assert main(argv) == 0
    capsys.readouterr()
    assert out.exists()


def test_sweep_to_the_float_limit_gives_no_warning(tmp_path, capsys):
    # pyproject.toml turns every numpy warning into an error; gaps past the
    # float range read inf
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--param", "s", "--lo", "0", "--hi", "1e308", "--step", "1e306",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 101
    assert rows[1].split(",")[-2] == "unbroken"
    assert rows[-1] == "1e+308,0,-1e+308,0,1e+308,broken,inf"


def test_evolve_defective_asymmetric_h_is_numerical_failure(tmp_path, capsys):
    # [[1, 1], [0, 1]] has one eigenvector: like an exceptional point of a
    # symmetric H, its eigenbasis cannot be inverted
    obj = _asymmetric_obj()
    obj["h"]["entries"] = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    src, out = tmp_path / "sys.json", tmp_path / "trace.csv"
    src.write_text(json.dumps(obj))
    assert main(["evolve", "--input", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigenvector matrix is numerically singular")
    assert not out.exists()
