"""Command-line front end.

Subcommands: generate | analyze | counts | sweep | evolve.
Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 unitarity-violation flag (evolve only).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

import numpy as np

from . import __version__
from .algebra import c_operator
from .closedform import TwoByTwoParams, h2, p2
from .construct import (
    PTSystem,
    classify_matrix,
    count_parity_params,
    max_signature,
    parameter_table,
    pt_system_from_matrices,
    random_pt_system,
)
from .dynamics import nonunitarity_demo, unitarity_trace
from .errors import (
    BrokenPhaseError,
    CollinearityError,
    ConvergenceError,
    ExceptionalPointError,
)
from .linalg import DEFAULT_TOL, is_symmetric, max_abs
from .serialize import (
    block_form_from_obj,
    fmt17,
    matrix_to_obj,
    read_json,
    spectral_to_obj,
    system_from_obj,
    system_matrices_from_obj,
    system_to_obj,
    write_json,
    write_trace_csv,
)
from .spectral import Phase, classify_phase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_UNITARITY = 3

DRIFT_FLAG_THRESHOLD = 1e-6


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


def build_parser() -> _Parser:
    parser = _Parser(prog="ptmatrix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ptmatrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="generate a seeded random system")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--signature", type=str, default=None, help="m+,m- (default: maximal)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tol", type=float, default=DEFAULT_TOL)
    g.add_argument("--out", type=str, required=True, help="output system JSON path")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="spectral/phase/C-operator report for a system")
    a.add_argument("--input", type=str, required=True, help="system JSON path")
    a.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    s.set_defaults(func=cmd_sweep)

    e = sub.add_parser("evolve", help="evolution trace of an inner product")
    e.add_argument("--input", type=str, required=True, help="system JSON path")
    e.add_argument("--state", type=str, default="rand:0",
                   help="eig:K or rand:SEED (default rand:0)")
    e.add_argument("--state2", type=str, default=None, help="second state (default: same)")
    e.add_argument("--t-max", type=float, default=10.0)
    e.add_argument("--steps", type=int, default=101)
    e.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    sys_ = system_from_obj(read_json(args.input), tol=args.tol)
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
        "classes": sorted(c.value for c in classify_matrix(sys_.h, sys_.p, args.tol)),
    }
    if data.phase is Phase.UNBROKEN:
        c = c_operator(data, sys_.p, args.tol)
        report["c_matrix"] = matrix_to_obj(c)
        report["invariant_residuals"]["c_squared"] = max_abs(c @ c - eye)
        report["invariant_residuals"]["c_h_commutator"] = max_abs(c @ sys_.h - sys_.h @ c)
        report["invariant_residuals"]["c_pt_commutation"] = max_abs(
            sys_.p @ c.conj() @ sys_.p - c
        )
    if args.out:
        write_json(args.out, report)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report, indent=2))
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
    if step <= 0.0:
        raise UsageError("step must be positive")
    values = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12 * max(1.0, abs(hi)):
            break
        values.append(x)
        k += 1
    return values


def _sweep_system(args, value: float, base_obj) -> PTSystem:
    if args.input is None:
        if args.param not in ("r", "s", "t", "phi"):
            raise UsageError("two-level sweeps accept --param r|s|t|phi")
        base = {"r": args.r, "s": args.s, "t": args.t, "phi": args.phi}
        base[args.param] = value
        params = TwoByTwoParams(**base)
        return pt_system_from_matrices(h2(params), p2(params.phi))
    prov = base_obj.get("provenance") or {}
    if "blocks" not in prov or "signature" not in prov or "angles" not in prov:
        raise UsageError("base system JSON lacks construction provenance for sweeping")
    m = re.fullmatch(r"([ABC])\[(\d+),(\d+)\]", args.param)
    if not m:
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    name, i, j = m.group(1), int(m.group(2)), int(m.group(3))
    blocks = block_form_from_obj(prov["blocks"])
    arrs = {"A": blocks.a_block.copy(), "B": blocks.b_block.copy(), "C": blocks.c_block.copy()}
    target = arrs[name]
    if not (0 <= i < target.shape[0] and 0 <= j < target.shape[1]):
        raise UsageError(f"index [{i},{j}] out of range for block {name}")
    target[i, j] = value
    if name in ("A", "C"):
        target[j, i] = value  # keep the block symmetric
    from .construct import BlockForm, ParitySpec, make_pt_system

    mp, mm = (int(x) for x in prov["signature"])
    spec = ParitySpec(m_plus=mp, m_minus=mm, angles=np.array(prov["angles"]))
    return make_pt_system(
        BlockForm(a_block=arrs["A"], b_block=arrs["B"], c_block=arrs["C"]), spec
    )


def cmd_sweep(args) -> int:
    values = _sweep_grid(args.lo, args.hi, args.step)
    if args.input is None:
        base_obj = None
        dim = 2
    else:
        base_obj = read_json(args.input)
        dim = int(base_obj.get("dim", 0))
        if dim < 1:
            raise UsageError("base system JSON lacks a dimension")
    rows = []
    for value in values:
        sys_ = _sweep_system(args, value, base_obj)
        data = classify_phase(sys_, args.tol)
        w = [p.value for p in data.pairs]
        gap = (
            min(abs(a - b) for k, a in enumerate(w) for b in w[k + 1:])
            if len(w) > 1
            else 0.0
        )
        rows.append((value, w, data.phase.value, gap))
    eig_cols = ",".join(f"re_{k},im_{k}" for k in range(dim)) + ","
    out = io.StringIO()
    out.write(f"value,{eig_cols}phase,min_gap\n")
    for value, w, phase, gap in rows:
        eigs = ",".join(f"{fmt17(z.real)},{fmt17(z.imag)}" for z in w)
        if eigs:
            eigs += ","
        out.write(f"{fmt17(value)},{eigs}{phase},{fmt17(gap)}\n")
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
            return data.pairs[int(arg)].vector.copy()
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
    obj = read_json(args.input)
    h, p, _ = system_matrices_from_obj(obj)
    if not is_symmetric(h, 1e-12):
        # asymmetric Hamiltonian: weight-matrix inner product, expected drift
        seed = 0
        if args.state.startswith("rand:"):
            seed = int(args.state.partition(":")[2])
        result = nonunitarity_demo(
            h, p, t_max=args.t_max, steps=args.steps, seed=seed, tol=args.tol
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

    sys_ = system_from_obj(obj, tol=args.tol)
    data = classify_phase(sys_, args.tol)
    c = c_operator(data, sys_.p, args.tol)  # raises unless data is unbroken
    a = _pick_state(args.state, data, sys_.dim)
    b = _pick_state(args.state2, data, sys_.dim) if args.state2 else a.copy()
    trace = unitarity_trace(
        sys_, c, a, b, t_max=args.t_max, steps=args.steps, tol=args.tol
    )
    out = io.StringIO()
    write_trace_csv(out, trace)
    _emit(out.getvalue(), args.out)
    print(f"max_drift: {fmt17(trace.max_drift)}", file=sys.stderr)
    if trace.max_drift > DRIFT_FLAG_THRESHOLD:
        print("unitarity violated", file=sys.stderr)
        return EXIT_UNITARITY
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ExceptionalPointError, BrokenPhaseError, CollinearityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
