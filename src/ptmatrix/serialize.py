"""JSON and CSV external formats.

Matrix JSON: {"dim": D, "entries": [[re, im], ...]} with entries row-major.
System JSON bundles h, p, provenance and the generator seed. JSON is UTF-8
with keys in fixed construction order; floats use Python's shortest
round-trip representation, so identical inputs serialize byte-identically and
parse back exactly. CSV uses 17 significant digits, '.' decimals, comma
delimiters and LF line endings.

Every CSV float of the sweep and the evolution trace is written by one
numpy kernel, _fields, whose text is byte-identical to fmt17. Its fast path
covers the fixed notation of %.17g, 1e-4 <= |v| < 1e17: with k =
floor(log10|v|), Dekker's exact product splits |v|·10^(16-k) into an integer
prod >= 1e16 and a residual err, so the 17-digit significand rounded half to
even, as Python's dtoa rounds, is exact integer arithmetic. The digits come
from a table of 4-digit groups, written into fixed-width fields whose pad
spaces one bytes.translate deletes. Zeros are written directly; every other
value (NaN, inf, outside the fixed range, or a log10 that misjudged the
decade) is formatted by Python. The evolution-trace CSV formats each
distinct value of the trace's product once, into one table of fields, and
the time grid straight into its rows.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import IO

import numpy as np

from .construct import BlockForm, ParitySpec, PTSystem, pt_system_from_matrices
from .dynamics import TIME_BLOCK, EvolutionTrace
from .spectral import SpectralData, _is_int


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit decimal form (exact round trip)."""
    return format(float(x), ".17g")


def matrix_to_obj(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix JSON form needs a square matrix")
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def _json_int(value, name: str) -> int:
    """value when it is a JSON integer (a bool is not), else ValueError naming
    the field and the value: 2.9, true and "2" are not read as 2, 1 and 2."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {json.dumps(value, default=repr)}")
    return int(value)


def matrix_from_obj(obj) -> np.ndarray:
    try:
        dim = _json_int(obj["dim"], "matrix JSON dim")
        entries = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise ValueError("malformed matrix JSON") from exc
    if dim < 1:
        raise ValueError(f"matrix JSON dim must be at least 1, got {dim}")
    if len(entries) != dim * dim:
        raise ValueError(f"matrix JSON needs {dim * dim} entries, got {len(entries)}")
    flat = []
    try:
        for entry in entries:
            re, im = entry
            flat.append(complex(re, im))
    except (TypeError, ValueError):
        k = len(flat)
        raise ValueError(
            f"matrix JSON entry {k} must be two numbers [re, im], got {entry!r}"
        ) from None
    return np.array(flat, dtype=np.complex128).reshape(dim, dim)


def parity_spec_from_obj(obj) -> ParitySpec:
    try:
        mp, mm = obj["signature"]
        angles = [float(x) for x in obj["angles"]]
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError("malformed parity-spec JSON") from exc
    mp, mm = (_json_int(x, "parity-spec JSON signature entry") for x in (mp, mm))
    return ParitySpec(m_plus=mp, m_minus=mm, angles=np.array(angles))


def _square_block(x) -> np.ndarray:
    arr = np.array(x, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError("block must be a list of rows")
    return arr


def block_form_from_obj(obj) -> BlockForm:
    try:
        a = _square_block(obj["A"])
        c = _square_block(obj["C"])
        b = np.array(obj["B"], dtype=np.float64)
        if b.size == 0:
            b = b.reshape(a.shape[0], c.shape[0])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError("malformed block-form JSON") from exc
    return BlockForm(a_block=a, b_block=b, c_block=c)


def system_to_obj(sys: PTSystem) -> dict:
    return {
        "dim": sys.dim,
        "h": matrix_to_obj(sys.h),
        "p": matrix_to_obj(sys.p),
        "provenance": sys.provenance,
    }


def system_matrices_from_obj(obj) -> tuple[np.ndarray, np.ndarray, dict]:
    """Raw (h, p, provenance) of a system JSON whose top-level dim, a JSON
    integer, equals the size of h and of p; the pair itself is not checked.

    Used by consumers that must accept deliberately invalid systems, e.g. the
    asymmetric-Hamiltonian unitarity counterexample.
    """
    mats = []
    for name in ("h", "p"):
        try:
            mats.append(matrix_from_obj(obj[name]))
        except (TypeError, KeyError) as exc:
            raise ValueError("malformed system JSON") from exc
        except ValueError as exc:
            raise ValueError(f"system JSON {name}: {exc}") from exc
    dim = _json_int(obj.get("dim"), "system JSON dim")
    sizes = tuple(m.shape[0] for m in mats)
    if sizes != (dim, dim):
        raise ValueError(f"system JSON dim {dim} does not match the sizes {sizes} of h and p")
    return mats[0], mats[1], obj.get("provenance") or {}


def system_from_obj(obj) -> PTSystem:
    h, p, provenance = system_matrices_from_obj(obj)
    return pt_system_from_matrices(h, p, provenance=provenance)


def spectral_to_obj(data: SpectralData) -> dict:
    return {
        "phase": data.phase.value,
        "eigenvalues": [[z.real, z.imag] for z in data.w.tolist()],
        "residuals": data.residuals.tolist(),
        "real_count": int(data.real_count),
        "conjugate_pairs": int(data.conjugate_pairs),
        "pt_norm_signs": (
            None
            if data.pt_norm_signs is None
            else [int(s) for s in data.pt_norm_signs]
        ),
    }


def dumps(obj) -> str:
    """Canonical JSON text: two-space indent, fixed key order, LF, newline-terminated."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# A CSV float is first written as a fixed-width field whose bytes, with the
# spaces deleted, are "%.17g" % v; a row of fields then loses its spaces in
# one bytes.translate. Field layout: the sign, the "0.000" prefix of a value
# below 1, and the 17 significant digits, each followed by a slot that holds
# the decimal point after the integer digits and a space elsewhere. The last
# byte is always a space, which _csv_blocks turns into the field's separator.
_WIDTH = 40
_SPACE = ord(" ")
# floats per kernel pass: bounds the kernel's temporaries
_BLOCK = 4 * TIME_BLOCK
# fields per block of CSV rows: bounds the row buffer (2048 trace rows)
_ROW_FIELDS = 3 * _BLOCK
_SPLITTER = 2.0**27 + 1.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# 10^e for e = 0..20, all exact, and their halves
_POW10 = 10.0 ** np.arange(21)
_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words of the field layout: each 4-digit group with its point slots
    (indices 0..9999) and the leading digit (10000..10009); the trailing
    zeros of each group; and the XOR marks that set the sign, the prefix,
    the blanked trailing zeros and the point."""
    # a group is two digit pairs, each two digits with their slots
    tens, ones = np.divmod(np.arange(100), 10)
    pairs = tens + ones * 2**16 + (ord("0") * 0x10001 + _SPACE * 0x1000100)
    quads = pairs[:, None] + pairs * 2**32
    leads = (0x2020202020202020 ^ (np.arange(10) + ord("0") ^ _SPACE) * 2**48).view(np.uint64)
    pair_zeros = np.where(ones == 0, 1 + (tens == 0), 0)
    trailing = np.where(ones + tens == 0, 2 + pair_zeros[:, None], pair_zeros)
    # one mark per (sign, decade k = -4..16, last significant digit 0..16)
    neg, k, last = np.ix_(np.arange(2), np.arange(-4, 17), np.arange(17))
    marks = np.zeros((2, 21, 17, _WIDTH), np.uint8)
    marks[..., 0] = neg * (ord("-") ^ _SPACE)
    for j, char in enumerate(b"0.000"):  # "0." and -k - 1 zeros below 1
        marks[..., 1 + j] = (k < min(0, 1 - j)) * (char ^ _SPACE)
    place = np.arange(17)
    # a '0' past the last significant and the last integer digit is blanked
    blank = place > np.maximum(last, k)[..., None]
    marks[..., 6::2] = blank * (ord("0") ^ _SPACE)
    # the point follows digit k when a fraction digit is significant
    point = (place == k[..., None]) & (last > k)[..., None]
    marks[..., 7::2] = point * (ord(".") ^ _SPACE)
    return (np.concatenate((quads.ravel().view(np.uint64), leads)), trailing.ravel(),
            marks.reshape(-1, _WIDTH).view("<u8"))


_GROUPS, _TRAILING, _MARKS = _digit_tables()


def _fill_fields(x: np.ndarray, words: np.ndarray) -> None:
    """Write the fields of the float64 values x into words, a C-contiguous
    (n, _WIDTH // 8) uint64 array.

    Fast path, exact: with k = floor(log10|x|) in [-4, 16] (where %.17g
    prints no exponent), |x|·10^(16-k) = prod + err exactly (Dekker's
    product, 10^(16-k) an exact double), prod >= 1e16 > 2^53 is an integer,
    and the 17-digit significand is N = prod + floor(err) rounded half to
    even on err's fraction, as Python's dtoa rounds. Zeros are written
    directly. Every other value is formatted by Python: NaN, inf, values
    outside the fixed range, and any N outside [1e16, 1e17), which a log10
    that misjudged a decade edge gives, or a value that rounds up to the
    next power of ten.
    """
    with np.errstate(all="ignore"):  # log10(0); a signaling NaN may flag invalid
        a = np.abs(x)
        k = np.floor(np.log10(a))
    outside = ~((k >= -4) & (k <= 16))
    a[outside], k[outside] = 1.0, 0.0
    e = (16 - k).astype(np.intp)
    prod = a * _POW10[e]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[e], _POW10_LO[e]
    err = ((a_hi * p_hi - prod) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    whole = np.floor(err)
    frac = err - whole
    n = prod.astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    k = 16 - e
    zero = x == 0
    outside |= (n < 10**16) | (n >= 10**17)
    outside &= ~zero
    n[outside | zero] = 0
    # N's leading digit and its four 4-digit groups, and its trailing zeros
    lead = n // 10**16
    rest = n - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    q1, q3 = high // 10**4, low // 10**4
    quads = (q1, high - q1 * 10**4, q3, low - q3 * 10**4)
    trailing = _TRAILING[quads[0]]
    for q in quads[1:]:
        trailing = np.where(q == 0, trailing + 4, _TRAILING[q])
    groups = np.empty((x.shape[0], 5), np.intp)
    groups[:, 0] = lead + 10000
    for j, q in enumerate(quads, 1):
        groups[:, j] = q
    np.take(_GROUPS, groups, out=words)
    words ^= np.take(_MARKS, (np.signbit(x) * 21 + k + 4) * 17 + 16 - trailing, axis=0)
    other = np.flatnonzero(outside)
    if other.size:
        text = (f"%-{_WIDTH}.17g" * other.size) % tuple(x[other].tolist())
        words[other] = np.frombuffer(text.encode("ascii"), "<u8").reshape(other.size, -1)


def _fields(x) -> np.ndarray:
    """x.shape + (_WIDTH,) uint8 fields of the floats of x, cast to float64:
    each field's bytes, spaces deleted, are "%.17g" % v, as fmt17 writes v."""
    x = np.asarray(x, np.float64)
    flat = x.ravel()
    words = np.empty((flat.shape[0], _WIDTH // 8), "<u8")
    for lo in range(0, flat.shape[0], _BLOCK):
        _fill_fields(flat[lo:lo + _BLOCK], words[lo:lo + _BLOCK])
    return words.view(np.uint8).reshape(x.shape + (_WIDTH,))


def _csv_blocks(floats: np.ndarray, table: np.ndarray, codes: np.ndarray,
                at: int) -> Iterator[str]:
    """The CSV text of the rows of floats, an (N, m) array, a block at a
    time: each row holds the fields of its floats and, before float column
    at, the fields table[c] of its codes c, an (N, j) integer array. table
    is (K, width) uint8 padded fields, each ending in a space."""
    step = max(1, _ROW_FIELDS // (floats.shape[1] + codes.shape[1]))
    for lo in range(0, floats.shape[0], step):
        fields, coded = _fields(floats[lo:lo + step]), table[codes[lo:lo + step]]
        fields[..., -1] = coded[..., -1] = ord(",")
        rows = np.concatenate(
            [f.reshape(f.shape[0], -1) for f in (fields[:, :at], coded, fields[:, at:])], axis=1
        )
        rows[:, -1] = ord("\n")
        yield rows.tobytes().translate(None, b" ").decode("ascii")


def labeled_csv_rows(floats: np.ndarray, names: tuple[str, ...], codes: np.ndarray) -> str:
    """CSV rows of an (N, m) float array with the text column names[codes]
    before the last float column, each float as fmt17 writes it. The names
    hold no spaces."""
    width = max(map(len, names)) + 1
    table = np.frombuffer(b"".join(name.encode("ascii").ljust(width) for name in names),
                          np.uint8).reshape(len(names), width)
    return "".join(_csv_blocks(floats, table, codes[:, None], floats.shape[1] - 1))


def write_trace_csv(fh: IO[str], trace: EvolutionTrace) -> None:
    """Evolution trace rows `t, re_inner, im_inner` (header mandatory), each
    field as fmt17 writes it. A conserved product repeats a few values over
    many rows, so each distinct value of the trace's product is formatted
    once; the time grid does not repeat, so it is formatted as it stands."""
    fh.write("t,re_inner,im_inner\n")
    times, z = trace.times, trace.inner_products
    bits = np.column_stack((z.real, z.imag)).astype(np.float64, copy=False).view(np.int64)
    # keyed on the bits: -0.0 and 0.0 are equal floats but print apart
    keys, inverse = np.unique(bits, return_inverse=True)
    table = _fields(keys.view(np.float64))
    fh.writelines(_csv_blocks(times[:, None], table, inverse.reshape(bits.shape), 1))
