"""Command-line front end.

Subcommands: generate | analyze | counts | sweep | evolve.
Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 unitarity-violation flag (evolve only).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .algebra import c_operator
from .closedform import TwoByTwoParams, h2, p2
from .construct import (
    BlockForm,
    _symmetric_rows,
    _triu,
    classify_matrix,
    count_parity_params,
    max_signature,
    parameter_table,
    pt_matrices,
    pt_system_from_matrices,
    random_pt_system,
)
from .dynamics import nonunitarity_demo, unitarity_trace
from .errors import BrokenPhaseError, ConvergenceError, ExceptionalPointError
from .linalg import DEFAULT_TOL, max_abs
from .serialize import (
    _json_int,
    block_form_from_obj,
    dumps,
    fmt17,
    format_rows,
    matrix_to_obj,
    parity_spec_from_obj,
    read_json,
    spectral_to_obj,
    system_from_obj,
    system_matrices_from_obj,
    system_to_obj,
    write_json,
    write_trace_csv,
)
from .spectral import PHASE_OF_CODE, Phase, PhaseStack, classify_phase, classify_stack

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_UNITARITY = 3

DRIFT_FLAG_THRESHOLD = 1e-6
# matrix entries classified per stacked solve: a block of 2^15 // D^2 grid
# points is large enough that per-point Python work is gone, small enough
# that memory does not grow with the grid (512 points at D = 8)
SWEEP_ENTRIES = 2**15
# what a grid point can raise; main maps each to its exit code
_POINT_ERRORS = (ValueError, ConvergenceError, ExceptionalPointError, BrokenPhaseError)
# the sweep's phase column of each PhaseStack code
_PHASE_NAMES = np.array([phase.value for phase in PHASE_OF_CODE], dtype=object)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _signature(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"signature must be 'm+,m-', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"signature must be two integers, got {text!r}") from exc


def _tol(text: str) -> float:
    x = float(text)  # argparse reports a non-number
    if not (math.isfinite(x) and x > 0.0):
        raise UsageError(f"--tol must be finite and positive, got {text}")
    # tol bounds only each eigenpair's relative backward error
    # ||Mv - wv||_2 / ||M||_F; at 1 or above it accepts the eigenpairs of a
    # matrix as far from M as M is from 0, which checks nothing
    if x >= 1.0:
        raise UsageError(f"--tol must be below 1, got {text}")
    return x


def _seed(text: str) -> int:
    x = int(text)  # argparse reports a non-integer
    if x < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {text}")
    return x


def build_parser() -> _Parser:
    parser = _Parser(prog="ptmatrix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ptmatrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="generate a seeded random system")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--signature", type=str, default=None, help="m+,m- (default: maximal)")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", type=str, required=True, help="output system JSON path")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="spectral/phase/C-operator report for a system")
    a.add_argument("--input", type=str, required=True, help="system JSON path")
    a.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    a.add_argument("--out", type=str, default=None, help="report JSON path (default stdout)")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("counts", help="parameter-count table")
    c.add_argument("max_dim", type=int)
    c.add_argument("--out", type=str, default=None, help="CSV path")
    c.set_defaults(func=cmd_counts)

    s = sub.add_parser("sweep", help="sweep one parameter and classify the phase")
    s.add_argument("--input", type=str, default=None, help="base system JSON (general D)")
    s.add_argument("--r", type=float, default=0.0)
    s.add_argument("--s", type=float, default=0.0)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--phi", type=float, default=np.pi / 2)
    s.add_argument("--param", type=str, required=True,
                   help="r|s|t|phi for the two-level family, or A[i,j]|B[i,j]|C[i,j]")
    s.add_argument("--lo", type=float, required=True)
    s.add_argument("--hi", type=float, required=True)
    s.add_argument("--step", type=float, required=True)
    s.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    s.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    s.set_defaults(func=cmd_sweep)

    e = sub.add_parser("evolve", help="evolution trace of an inner product")
    e.add_argument("--input", type=str, required=True, help="system JSON path")
    e.add_argument("--state", type=str, default="rand:0",
                   help="eig:K or rand:SEED (default rand:0)")
    e.add_argument("--state2", type=str, default=None, help="second state (default: same)")
    e.add_argument("--t-max", type=float, default=10.0)
    e.add_argument("--steps", type=int, default=101)
    e.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    e.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    e.set_defaults(func=cmd_evolve)
    return parser


def cmd_generate(args) -> int:
    sig = _signature(args.signature) if args.signature else max_signature(args.dim)
    if sig[0] + sig[1] != args.dim or min(sig) < 0:
        raise UsageError(f"signature {sig} does not sum to dim {args.dim}")
    sys_ = random_pt_system(args.dim, sig, args.seed)
    write_json(args.out, system_to_obj(sys_))
    counts = parameter_table(args.dim)
    print(f"parity params: {count_parity_params(args.dim, *sig)}")
    print(
        f"counts D={args.dim}: parity_max={counts.parity_max} h0={counts.h0} "
        f"pt={counts.pt} hermitian={counts.hermitian} "
        f"real_symmetric={counts.real_symmetric}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    sys_ = system_from_obj(read_json(args.input))
    data = classify_phase(sys_, args.tol)
    eye = np.eye(sys_.dim)
    report = {
        "dim": sys_.dim,
        "spectrum": spectral_to_obj(data),
        "c_matrix": None,
        "invariant_residuals": {
            "h_symmetry": max_abs(sys_.h - sys_.h.T),
            "parity_involution": max_abs(sys_.p @ sys_.p - eye),
            "pt_commutation": max_abs(sys_.p @ sys_.h.conj() @ sys_.p - sys_.h),
        },
        "classes": sorted(c.value for c in classify_matrix(sys_.h, sys_.p)),
    }
    if data.phase is Phase.UNBROKEN:
        c = c_operator(data, sys_.p)
        report["c_matrix"] = matrix_to_obj(c)
        report["invariant_residuals"]["c_squared"] = max_abs(c @ c - eye)
        report["invariant_residuals"]["c_h_commutator"] = max_abs(c @ sys_.h - sys_.h @ c)
        report["invariant_residuals"]["c_pt_commutation"] = max_abs(
            sys_.p @ c.conj() @ sys_.p - c
        )
    _emit(dumps(report), args.out)
    return EXIT_OK


def cmd_counts(args) -> int:
    if args.max_dim < 1:
        raise UsageError("max_dim must be at least 1")
    header = "dim,parity,h0,pt,hermitian,real_symmetric"
    lines = [header]
    for d in range(1, args.max_dim + 1):
        c = parameter_table(d)
        lines.append(
            f"{d},{c.parity_max},{c.h0},{c.pt},{c.hermitian},{c.real_symmetric}"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return EXIT_OK


def _sweep_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo + k * step for k = 0, 1, ... while at most hi (plus a relative 1e-12)."""
    for flag, x in (("--lo", lo), ("--hi", hi), ("--step", step)):
        if not math.isfinite(x):
            raise UsageError(f"{flag} must be finite, got {x}")
    if step <= 0.0:
        raise UsageError("step must be positive")
    limit = hi + 1e-12 * max(1.0, abs(hi))
    steps = (limit - lo) / step
    if not math.isfinite(steps):
        raise UsageError(f"--step {step} is too small for the range [{lo}, {hi}]")
    # two past the quotient: one for k = 0, one for the quotient's round-off;
    # the filter drops a point past the float range (inf)
    with np.errstate(over="ignore"):
        xs = lo + np.arange(max(0, math.floor(steps) + 2)) * step
    return xs[xs <= limit].tolist()


def _two_level_points(args):
    """points(values) -> (H, P): an H stack of the two-level family along
    --param, and one P, or a P stack when --param is phi."""
    if args.param not in ("r", "s", "t", "phi"):
        raise UsageError("two-level sweeps accept --param r|s|t|phi")

    def points(values):
        base = {"r": args.r, "s": args.s, "t": args.t, "phi": args.phi}
        base[args.param] = np.array(values)
        params = TwoByTwoParams(**base)
        return h2(params), p2(params.phi)

    return points


def _block_points(args, base_obj):
    """(points, dim), points(values) -> (H, P): an H stack of the base system
    along one block entry and its one P, rotated by pt_matrices with one R
    per call."""
    if not isinstance(base_obj, dict):
        raise ValueError("base system JSON must be an object")
    prov = base_obj.get("provenance") or {}
    if not isinstance(prov, dict) or not {"blocks", "signature", "angles"} <= prov.keys():
        raise UsageError("base system JSON lacks construction provenance for sweeping")
    spec = parity_spec_from_obj(prov)
    dim = base_obj.get("dim")
    if dim != spec.dim:
        raise ValueError(
            f"base system dim {dim!r} does not match its provenance "
            f"signature {spec.m_plus},{spec.m_minus}"
        )
    _json_int(dim, "base system dim")  # 2.0 and true compare equal to 2 and 1
    m = re.fullmatch(r"([ABC])\[(\d+),(\d+)\]", args.param)
    if not m:
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    name, i, j = m.group(1), int(m.group(2)), int(m.group(3))
    blocks = block_form_from_obj(prov["blocks"])
    base = {"A": blocks.a_block, "B": blocks.b_block, "C": blocks.c_block}
    if not (0 <= i < base[name].shape[0] and 0 <= j < base[name].shape[1]):
        raise UsageError(f"index [{i},{j}] out of range for block {name}")

    def points(values):
        arrs = {key: np.repeat(block[None], len(values), axis=0) for key, block in base.items()}
        arrs[name][:, i, j] = values
        if name in ("A", "C"):
            arrs[name][:, j, i] = values  # keep the block symmetric
        blocks = BlockForm(a_block=arrs["A"], b_block=arrs["B"], c_block=arrs["C"])
        # overflow at a point past the first failing one must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            return pt_matrices(blocks, spec)

    return points, spec.dim


def _classify_points(h: np.ndarray, p: np.ndarray, tol: float) -> PhaseStack:
    """classify_stack of a block of grid points. When the block fails, its
    points are re-run one at a time so the error raised is the first failing
    point's own, as a point-by-point sweep would report it."""
    try:
        return classify_stack(h, p, tol)
    except _POINT_ERRORS:
        for n in range(h.shape[0]):
            classify_stack(h[n:n + 1], p[n:n + 1] if p.ndim == 3 else p, tol)
        raise


def _min_gaps(w: np.ndarray) -> np.ndarray:
    """Smallest |w_i - w_j| over the pairs of each row of an (N, D) stack, 0
    when D = 1; a gap past the float range reads inf. np.hypot on the parts
    equals Python's abs of a complex bit for bit; numpy's complex abs can
    differ from both by an ulp."""
    i, j = _triu(w.shape[1], 1)
    if not i.size:
        return np.zeros(w.shape[0])
    with np.errstate(over="ignore"):
        diff = w[:, i] - w[:, j]
        return np.hypot(diff.real, diff.imag).min(axis=1)


def _sweep_rows(values: list[float], w: np.ndarray, codes: np.ndarray,
                gaps: np.ndarray) -> str:
    """CSV rows `value, re_0, im_0, ..., phase, min_gap` of a block of points,
    the phase given by its PhaseStack code."""
    cols = np.empty((len(values), 2 * w.shape[1] + 3), dtype=object)
    cols[:, 0], cols[:, -2], cols[:, -1] = values, _PHASE_NAMES[codes], gaps
    cols[:, 1:-2] = w.view(np.float64)  # each row of w as re_0, im_0, re_1, ...
    return format_rows("%.17g," * (cols.shape[1] - 2) + "%s,%.17g\n", cols)


def sweep_block(dim: int) -> int:
    """Grid points per stacked solve of a sweep of D x D systems."""
    return max(1, SWEEP_ENTRIES // (dim * dim))


def cmd_sweep(args) -> int:
    values = _sweep_grid(args.lo, args.hi, args.step)
    if args.input is None:
        points, dim = _two_level_points(args), 2
    else:
        points, dim = _block_points(args, read_json(args.input))
    eig_cols = "".join(f"re_{k},im_{k}," for k in range(dim))
    out = io.StringIO()
    out.write(f"value,{eig_cols}phase,min_gap\n")
    size = sweep_block(dim)
    for lo in range(0, len(values), size):
        block = values[lo:lo + size]
        data = _classify_points(*points(block), args.tol)
        out.write(_sweep_rows(block, data.w, data.codes, _min_gaps(data.w)))
    _emit(out.getvalue(), args.out)
    return EXIT_OK


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        print(text, end="")


def _pick_state(spec: str, data, dim: int) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "eig" and arg.isdigit():  # no sign: "-1" would count from the end
        try:
            return data.v[:, int(arg)].copy()
        except (IndexError, ValueError) as exc:
            raise UsageError(f"bad eigenstate index in {spec!r}") from exc
    if kind == "rand":
        try:
            rng = np.random.default_rng(int(arg))
        except ValueError as exc:
            raise UsageError(f"bad seed in {spec!r}") from exc
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)
    raise UsageError(f"state spec must be eig:K or rand:SEED, got {spec!r}")


def cmd_evolve(args) -> int:
    h, p, provenance = system_matrices_from_obj(read_json(args.input))
    if not _symmetric_rows(h):
        # asymmetric Hamiltonian: weight-matrix inner product, expected drift;
        # both states are drawn from the one seed of --state
        if args.state2 is not None:
            raise UsageError("--state2 does not apply to an asymmetric H")
        kind, _, seed = args.state.partition(":")
        if kind != "rand" or not seed.isdecimal():
            raise UsageError(f"--state must be rand:SEED for an asymmetric H, got {args.state!r}")
        result = nonunitarity_demo(
            h, p, t_max=args.t_max, steps=args.steps, seed=int(seed), tol=args.tol
        )
        out = io.StringIO()
        write_trace_csv(out, result.trace)
        _emit(out.getvalue(), args.out)
        print(f"max_drift: {fmt17(result.trace.max_drift)}", file=sys.stderr)
        print(f"weight_commutator: {fmt17(result.commutator_norm)}", file=sys.stderr)
        if result.trace.max_drift > DRIFT_FLAG_THRESHOLD:
            print("unitarity violated", file=sys.stderr)
            return EXIT_UNITARITY
        return EXIT_OK

    sys_ = pt_system_from_matrices(h, p, provenance)
    data = classify_phase(sys_, args.tol)
    c = c_operator(data, sys_.p)  # raises unless data is unbroken
    a = _pick_state(args.state, data, sys_.dim)
    b = _pick_state(args.state2, data, sys_.dim) if args.state2 else a.copy()
    trace = unitarity_trace(data, sys_.p, c, a, b, t_max=args.t_max, steps=args.steps)
    out = io.StringIO()
    write_trace_csv(out, trace)
    _emit(out.getvalue(), args.out)
    print(f"max_drift: {fmt17(trace.max_drift)}", file=sys.stderr)
    if trace.max_drift > DRIFT_FLAG_THRESHOLD:
        print("unitarity violated", file=sys.stderr)
        return EXIT_UNITARITY
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built once per process: parsing leaves it as it
    was, and each parse returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ExceptionalPointError, BrokenPhaseError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
