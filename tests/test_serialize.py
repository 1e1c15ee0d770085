import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmatrix as pt
from ptmatrix import serialize as ser
from ptmatrix.dynamics import TIME_BLOCK


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


def test_matrix_from_obj_rejects_zero_dimension():
    with pytest.raises(ValueError, match="dim must be at least 1, got 0"):
        ser.matrix_from_obj({"dim": 0, "entries": []})


@pytest.mark.parametrize("dim,shown", [(2.9, "2.9"), (True, "true"), ("2", '"2"')])
def test_matrix_from_obj_reads_only_an_integer_dim(dim, shown):
    obj = json.loads(json.dumps({"dim": dim, "entries": [[1.0, 0.0]] * 4}))
    with pytest.raises(ValueError, match=f"matrix JSON dim must be an integer, got {shown}$"):
        ser.matrix_from_obj(obj)


@pytest.mark.parametrize("signature,shown", [([1.7, 1], "1.7"), ([1, True], "true"),
                                             (["2", 1], '"2"')])
def test_parity_spec_from_obj_reads_only_integer_signatures(signature, shown):
    obj = json.loads(json.dumps({"signature": signature, "angles": [0.0]}))
    with pytest.raises(ValueError, match=f"signature entry must be an integer, got {shown}$"):
        ser.parity_spec_from_obj(obj)


def _written_provenance(blocks, spec):
    """The provenance make_pt_system writes, as JSON text gives it back."""
    return json.loads(ser.dumps(ser.system_to_obj(pt.make_pt_system(blocks, spec))))["provenance"]


def test_parity_spec_round_trip(rng):
    spec = pt.ParitySpec(2, 1, [0.1, 0.2, 0.3])
    blocks = pt.construct.random_blocks(rng, 2, 1)
    back = ser.parity_spec_from_obj(_written_provenance(blocks, spec))
    assert (back.m_plus, back.m_minus) == (2, 1)
    np.testing.assert_array_equal(back.angles, spec.angles)


@pytest.mark.parametrize("mp,mm", [(2, 1), (3, 0), (0, 2)])
def test_block_form_round_trip(mp, mm, rng):
    blocks = pt.construct.random_blocks(rng, mp, mm)
    spec = pt.ParitySpec(mp, mm, pt.construct.random_angles(rng, mp + mm))
    back = ser.block_form_from_obj(_written_provenance(blocks, spec)["blocks"])
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
    sys = pt.random_pt_system(2, (1, 1), 3)
    data = pt.classify_phase(sys)
    if data.phase is not pt.Phase.UNBROKEN:
        pytest.skip("seed no longer unbroken")
    c = pt.c_operator(data, sys.p)
    v = data.v[:, 0]
    trace = pt.unitarity_trace(data, sys.p, c, v, v, t_max=1.0, steps=5)
    buf = io.StringIO()
    ser.write_trace_csv(buf, trace)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,re_inner,im_inner"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def fmt17_rows(trace: pt.EvolutionTrace) -> str:
    """write_trace_csv's text, one fmt17 call per field."""
    return "t,re_inner,im_inner\n" + "".join(
        f"{ser.fmt17(t)},{ser.fmt17(z.real)},{ser.fmt17(z.imag)}\n"
        for t, z in zip(trace.times, trace.inner_products)
    )


def trace_csv(trace: pt.EvolutionTrace) -> str:
    buf = io.StringIO()
    ser.write_trace_csv(buf, trace)
    return buf.getvalue()


def assert_same_rows(got: str, want: str) -> None:
    # compared as lists of lines, a mismatch reports its first differing row
    # instead of a diff of the whole text
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


def complex_from_parts(re, im) -> np.ndarray:
    """A complex array with these exact real and imaginary bits (re + 1j*im
    would turn 0 * nan into nan)."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def test_trace_csv_matches_fmt17_rows():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
    times = np.array([0.0, 1e-300, 0.1, 1e300, 2.5, 7.0] + [8.0] * 6)
    vals = np.concatenate([
        [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e300, -1e300),
         complex(np.inf, -np.inf), complex(np.nan, 0.1), complex(1 / 3, -2 / 3)],
        # equal floats with different bits, each repeated across rows: a
        # signed zero in the real column, two NaN payloads in the imaginary one
        complex_from_parts(np.tile([-0.0, 0.0], 3), np.tile(nans, 3)),
    ])
    assert np.unique(vals.imag.view(np.int64)[6:]).size == 2
    trace = pt.EvolutionTrace(times=times, inner_products=vals, max_drift=0.0)
    want = fmt17_rows(trace)
    assert trace_csv(trace) == want
    assert ",-0," in want and "e-324" in want and "inf" in want and "nan" in want
    assert "\n8,-0,nan\n8,0,nan\n" in want


def test_trace_csv_block_edges_match_fmt17_rows(rng):
    # two full blocks of TIME_BLOCK rows and a short third one
    steps = 2 * TIME_BLOCK + 3
    times = np.linspace(0.0, 10.0, steps)
    vals = rng.standard_normal(steps) + 1j * rng.standard_normal(steps)
    trace = pt.EvolutionTrace(times=times, inner_products=vals, max_drift=0.0)
    assert_same_rows(trace_csv(trace), fmt17_rows(trace))
    # single precision prints each value's exact double, as fmt17 does
    narrow = pt.EvolutionTrace(times.astype(np.float32), vals.astype(np.complex64), 0.0)
    assert_same_rows(trace_csv(narrow), fmt17_rows(narrow))


# values that print in every %.17g form: subnormals, signed zeros, infinities,
# NaN, the extremes of the exponent and ordinary fractions
VALUE_POOL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan,
    1e300, -1e300, 1.7976931348623157e308, 1 / 3, -2 / 3, 0.1, 1.0, -1.0, 123456789.0,
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.integers(min_value=1, max_value=2 * TIME_BLOCK + 3),
    pools=st.lists(st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=6),
                   min_size=3, max_size=3),
)
def test_trace_csv_of_repeating_values_matches_fmt17_rows(rows, pools):
    # each column cycles through a few values, so they repeat within and
    # across blocks
    t, re, im = (np.resize(np.array(pool), rows) for pool in pools)
    trace = pt.EvolutionTrace(times=t, inner_products=complex_from_parts(re, im), max_drift=0.0)
    assert_same_rows(trace_csv(trace), fmt17_rows(trace))


def test_trace_csv_of_a_conserved_trace_matches_fmt17_rows():
    # a real CPT trace, whose conserved columns repeat, across two block edges
    sys = pt.random_pt_system(8, (6, 2), 13108)
    data = pt.classify_phase(sys)
    c = pt.c_operator(data, sys.p)
    a = np.random.default_rng(0).standard_normal(8) + 0j
    trace = pt.unitarity_trace(data, sys.p, c, a, a, steps=2 * TIME_BLOCK + 3)
    assert np.unique(trace.inner_products.real).size < TIME_BLOCK
    assert_same_rows(trace_csv(trace), fmt17_rows(trace))


def kernel_text(x) -> list[str]:
    """Each field of the CSV float kernel with its pad spaces deleted."""
    return [row.tobytes().decode("ascii").replace(" ", "") for row in ser._fields(x)]


def percent_17g(x) -> list[str]:
    return ["%.17g" % v for v in np.asarray(x, np.float64).tolist()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_float_kernel_matches_percent_17g(values):
    # any float64: subnormals, signed zeros, infinities and NaN payloads
    assert kernel_text(values) == percent_17g(values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_csv_float_kernel_matches_percent_17g_on_bit_patterns(words):
    x = np.array(words, dtype=np.uint64).view(np.float64)
    assert kernel_text(x) == percent_17g(x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=32), min_size=1, max_size=40))
def test_csv_float_kernel_prints_float32_as_its_double(values):
    x = np.array(values, dtype=np.float32)
    assert kernel_text(x) == percent_17g(x.astype(np.float64))


def test_csv_float_kernel_matches_percent_17g_in_bulk():
    # more values than one kernel block: random bit patterns, and normal
    # draws spread over the decades around the fixed-notation range
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.standard_normal(30_000) * 10.0 ** rng.uniform(-8, 20, 30_000)
    for x in (bits, spread):
        assert kernel_text(x) == percent_17g(x)


def test_csv_float_kernel_rounds_exact_ties_half_to_even():
    # o / 2^q = o * 5^q / 10^q has 18 significant digits, the last a 5, for
    # o * 5^q in [1e17, 1e18): its 17-digit rounding is an exact tie. The
    # decade is 17 - q; q = 2..21 covers the fixed decades 15 down to -4 (a
    # double of decade 16 is an even integer, never a tie)
    rng = np.random.default_rng(7)
    ties = []
    for q in range(2, 22):
        lo, hi = -(-10**17 // 5**q), min(10**18 // 5**q, 2**53)
        odd = rng.integers(lo, hi, 2000) | 1
        x = odd[odd < hi] / 2.0**q
        for v in x[:20].tolist():
            digits = ("%.24e" % v).split("e")[0].replace(".", "")
            assert digits[17] == "5" and set(digits[18:]) == {"0"}
        ties.append(x)
    x = np.concatenate(ties + [-t for t in ties])
    assert kernel_text(x) == percent_17g(x)


def test_csv_float_kernel_at_decade_edges():
    # 10^k and its neighbours up to 3 ulps away, where log10 can misjudge
    # the decade and the fixed range starts and ends
    x = 10.0 ** np.arange(-5, 18)
    for _ in range(3):
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    x = np.unique(np.concatenate([x, -x]))
    assert kernel_text(x) == percent_17g(x)


def test_trace_csv_of_non_repeating_values_matches_fmt17_rows():
    # no value repeats, so every field of the product is a distinct entry
    rng = np.random.default_rng(22)
    steps = 10001
    vals = rng.standard_normal(steps) + 1j * rng.standard_normal(steps)
    trace = pt.EvolutionTrace(times=np.linspace(0.0, 10.0, steps), inner_products=vals,
                              max_drift=0.0)
    assert_same_rows(trace_csv(trace), fmt17_rows(trace))
