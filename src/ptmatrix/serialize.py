"""JSON and CSV external formats.

Matrix JSON: {"dim": D, "entries": [[re, im], ...]} with entries row-major.
System JSON bundles h, p, provenance and the generator seed. JSON is UTF-8
with keys in fixed construction order; floats use Python's shortest
round-trip representation, so identical inputs serialize byte-identically and
parse back exactly. CSV uses 17 significant digits, '.' decimals, comma
delimiters and LF line endings.

The evolution-trace CSV formats each distinct value of the trace's product
once, into one table of fixed-width ASCII fields, formats the time grid
straight into the same fields, and builds the rows as bytes; the text is
byte-identical to formatting every field with fmt17.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from .construct import BlockForm, ParitySpec, PTSystem, pt_system_from_matrices
from .dynamics import TIME_BLOCK, EvolutionTrace
from .spectral import SpectralData


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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
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


def format_rows(row: str, cols: np.ndarray) -> str:
    """The rows of an (N, k) float or object array, each formatted by the
    %-template row, in one pass; "%.17g" formats a float as fmt17 does."""
    return (row * cols.shape[0]) % tuple(cols.ravel().tolist())


# one byte wider than the widest %.17g text, -4.9406564584124654e-324, so
# every padded field ends in a space that its separator replaces
_FIELD = 25
_SEPARATORS = np.frombuffer(b",,\n", np.uint8)


def _fields(x: np.ndarray) -> np.ndarray:
    """(N, _FIELD) bytes: each float of x as fmt17 writes it, padded with spaces."""
    text = (f"%-{_FIELD}.17g" * x.size) % tuple(x.tolist())
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(x.size, _FIELD)


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
    inverse = inverse.reshape(bits.shape)
    # TIME_BLOCK rows at a time bound the memory of the row buffer
    for lo in range(0, times.shape[0], TIME_BLOCK):
        part = slice(lo, lo + TIME_BLOCK)
        rows = np.empty((inverse[part].shape[0], 3, _FIELD), np.uint8)
        rows[:, 0] = _fields(times[part])
        np.take(table, inverse[part], axis=0, out=rows[:, 1:])
        rows[..., -1] = _SEPARATORS
        fh.write(rows.tobytes().translate(None, b" ").decode("ascii"))
