import json

import numpy as np
import pytest

import ptmatrix as pt
from ptmatrix import serialize as ser


def test_matrix_round_trip(rng):
    m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    obj = ser.matrix_to_obj(m)
    assert obj["dim"] == 5 and len(obj["entries"]) == 25
    np.testing.assert_array_equal(ser.matrix_from_obj(obj), m)
    # through actual JSON text: still exact (shortest round-trip repr)
    np.testing.assert_array_equal(
        ser.matrix_from_obj(json.loads(json.dumps(obj))), m
    )


def test_matrix_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        ser.matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        ser.matrix_from_obj({"entries": []})
    with pytest.raises(ValueError):
        ser.matrix_from_obj(None)


def test_parity_spec_round_trip():
    spec = pt.ParitySpec(2, 1, [0.1, 0.2, 0.3])
    back = ser.parity_spec_from_obj(ser.parity_spec_to_obj(spec))
    assert (back.m_plus, back.m_minus) == (2, 1)
    np.testing.assert_array_equal(back.angles, spec.angles)


@pytest.mark.parametrize("mp,mm", [(2, 1), (3, 0), (0, 2)])
def test_block_form_round_trip(mp, mm, rng):
    blocks = pt.construct.random_blocks(rng, mp, mm)
    back = ser.block_form_from_obj(ser.block_form_to_obj(blocks))
    np.testing.assert_array_equal(back.a_block, blocks.a_block)
    np.testing.assert_array_equal(back.b_block, blocks.b_block)
    np.testing.assert_array_equal(back.c_block, blocks.c_block)
    assert back.signature == (mp, mm)


def test_system_round_trip_exact():
    sys = pt.random_pt_system(4, (2, 2), 99)
    text = ser.dumps(ser.system_to_obj(sys))
    back = ser.system_from_obj(json.loads(text))
    np.testing.assert_array_equal(back.h, sys.h)
    np.testing.assert_array_equal(back.p, sys.p)
    assert back.provenance["seed"] == 99
    # byte-determinism of the serialized form itself
    assert ser.dumps(ser.system_to_obj(back)) == text


def test_system_from_obj_validates():
    sys = pt.random_pt_system(3, (2, 1), 5)
    obj = ser.system_to_obj(sys)
    obj["h"]["entries"][1] = [9.0, 0.0]  # break symmetry
    with pytest.raises(ValueError):
        ser.system_from_obj(obj)
    h, p, prov = ser.system_matrices_from_obj(obj)  # raw loader accepts it
    assert h[0, 1] == 9.0 and p.shape == (3, 3)


def test_dumps_canonical_form():
    text = ser.dumps({"b": 1.5, "a": [0.1]})
    assert text.endswith("\n") and "\r" not in text
    assert text == ser.dumps({"b": 1.5, "a": [0.1]})
    # insertion order is preserved, not alphabetized
    assert text.index('"b"') < text.index('"a"')


def test_fmt17_round_trip(rng):
    for x in rng.uniform(-1e3, 1e3, 200):
        assert float(ser.fmt17(x)) == x
    assert float(ser.fmt17(np.pi)) == np.pi


def test_spectral_to_obj_fields():
    sys = pt.random_pt_system(2, (1, 1), 3)
    obj = ser.spectral_to_obj(pt.classify_phase(sys))
    assert set(obj) == {
        "phase",
        "eigenvalues",
        "residuals",
        "real_count",
        "conjugate_pairs",
        "pt_norm_signs",
    }
    assert obj["phase"] in {"unbroken", "broken", "exceptional"}
    assert len(obj["eigenvalues"]) == 2


def test_trace_csv_format(rng, tmp_path):
    import io

    sys = pt.random_pt_system(2, (1, 1), 3)
    data = pt.classify_phase(sys)
    if data.phase is not pt.Phase.UNBROKEN:
        pytest.skip("seed no longer unbroken")
    c = pt.build_c_operator(sys)
    v = data.pairs[0].vector
    trace = pt.unitarity_trace(sys, c, v, v, t_max=1.0, steps=5)
    buf = io.StringIO()
    ser.write_trace_csv(buf, trace)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,re_inner,im_inner"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_trace_csv_matches_fmt17_rows():
    import io

    times = np.array([0.0, 1e-300, 0.1, 1e300, 2.5, 7.0])
    vals = np.array(
        [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e300, -1e300),
         complex(np.inf, -np.inf), complex(np.nan, 0.1), complex(1 / 3, -2 / 3)]
    )
    trace = pt.EvolutionTrace(times=times, inner_products=vals, max_drift=0.0)
    buf = io.StringIO()
    ser.write_trace_csv(buf, trace)
    want = "t,re_inner,im_inner\n" + "".join(
        f"{ser.fmt17(t)},{ser.fmt17(z.real)},{ser.fmt17(z.imag)}\n" for t, z in zip(times, vals)
    )
    assert buf.getvalue() == want
    assert ",-0," in want and "e-324" in want and "inf" in want and "nan" in want
