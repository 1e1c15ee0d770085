import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix.cli import main
from ptmatrix.serialize import (
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
    assert pt.is_real(h, 1e-12) and pt.is_symmetric(h, 1e-12)
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
    assert main(["evolve", "--input", src, "--t-max", "1e308", "--out", str(out)]) == 2
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
