#!/usr/bin/env python3
"""Run a fixed corpus of ptmatrix CLI commands against one source tree.

    python tools/cli_corpus.py PARENT_TREE parent_out
    python tools/cli_corpus.py CHANGE_TREE change_out
    diff -r parent_out change_out

Every command runs in-process through ``ptmatrix.cli.main`` of the tree's
own ``src/``, with the BLAS pinned to one thread. For command i the output
directory gets ``cmd_i.txt`` (the arguments, the exit code, stdout and
stderr, with the output directory written as DIR) and ``out_i.csv`` when the
command writes one. Two trees whose outputs are byte-identical give no diff.

The corpus: 64 two-level sweeps of 2001 points across the exceptional point
(drawn as the sweep_2level workload draws them, over s, r, t and phi), four
sweeps in steps of 1e-7 around it, sweeps over [-1e300, 1e300], to the float
limit and at tiny and huge scales; 28 generated systems (24 frozen (8,6,2)
seeds and one of each smaller signature) with ``analyze``, two 10001-step
``evolve`` traces each, and block sweeps of ten of them; four ``evolve``
runs of the asymmetric fixture; two sweeps at the ends of the float range:
s in [1.2e308, 1.7e308], where ||H||_F overflows while every entry stays
finite, and s in [0, 1e-13] in steps of 1e-14; and, last, ``analyze`` of the
(8,6,2) seed-13108 system with H scaled by 1e308, whose entries are finite
but whose real Krein frame Q^T H Q overflows.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import runpy
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def corpus(tree: Path, out: Path) -> list[list[str]]:
    """The argument lists; OUT stands for the command's own CSV path. The
    one input no command makes, the scaled system, is written to out here."""
    frozen = runpy.run_path(str(tree / "tests" / "_seeds.py"))["UNBROKEN_SEEDS"][(8, 6, 2)]
    rng = random.Random(2029)
    cmds = []
    for i in range(64):
        r, t, phi = rng.uniform(-1, 1), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)
        param = ["s", "s", "s", "r", "t", "phi"][i % 6]
        hi = 2 * math.pi if param == "phi" else 2 * t
        cmds.append(["sweep", "--param", param, "--r", repr(r), "--t", repr(t), "--phi",
                     repr(phi), "--s", repr(0.9 * t), "--lo", "0", "--hi", repr(hi),
                     "--step", repr(hi / 2000), "--out", "OUT"])
    for phi in ("0", "0.7", "1.3", "1.5707963267948966"):
        cmds.append(["sweep", "--param", "s", "--phi", phi, "--lo", "0.99999", "--hi",
                     "1.00001", "--step", "1e-7"])
    for param in ("s", "r", "t"):
        cmds.append(["sweep", "--param", param, "--lo=-1e300", "--hi", "1e300", "--step",
                     "1e298", "--out", "OUT"])
        cmds.append(["sweep", "--param", param, "--t", "1", "--lo", "0", "--hi", "1e308",
                     "--step", "1e306"])
    for t, hi, step in (("1e-4", "3e-4", "1e-7"), ("1e-5", "3e-5", "1e-8"),
                        ("1e17", "3e17", "1e14")):
        cmds.append(["sweep", "--param", "s", "--t", t, "--lo", "0", "--hi", hi, "--step",
                     step, "--out", "OUT"])
    systems = []
    for seed in sorted(frozen)[:24]:
        systems.append(str(out / f"sys_{seed}.json"))
        cmds.append(["generate", "--dim", "8", "--signature", "6,2", "--seed", str(seed),
                     "--out", systems[-1]])
    for dim, sig, seed in ((2, "1,1", 0), (3, "2,1", 4), (4, "2,2", 7), (5, "3,2", 1)):
        systems.append(str(out / f"sys_{dim}_{seed}.json"))
        cmds.append(["generate", "--dim", str(dim), "--signature", sig, "--seed", str(seed),
                     "--out", systems[-1]])
    for k, path in enumerate(systems):
        cmds.append(["analyze", "--input", path])
        cmds.append(["evolve", "--input", path, "--state", f"rand:{k}", "--state2",
                     f"rand:{k + 100}", "--steps", "10001", "--out", "OUT"])
        cmds.append(["evolve", "--input", path, "--state", "eig:0", "--steps", "10001",
                     "--out", "OUT"])
    for path in systems[:6] + systems[-4:]:
        for param in ("A[0,0]", "B[0,0]", "C[0,0]"):
            cmds.append(["sweep", "--input", path, "--param", param, "--lo", "-2", "--hi", "2",
                         "--step", "0.04", "--out", "OUT"])
        cmds.append(["sweep", "--input", path, "--param", "B[0,0]", "--lo", "-1", "--hi",
                     "2e6", "--step", "1e5"])
    fixture = str(tree / "tests" / "fixtures" / "asym2x2.json")
    cmds += [
        ["evolve", "--input", fixture, "--steps", "10001", "--out", "OUT"],
        ["evolve", "--input", fixture, "--state", "rand:5", "--t-max", "3", "--steps", "10001",
         "--out", "OUT"],
        ["evolve", "--input", fixture, "--t-max", "1e308"],
        ["evolve", "--input", fixture],
    ]
    # both ends of the float range: a broken pair whose ||H||_F overflows,
    # and a grid whose end allowance must stay relative below 1
    cmds += [
        ["sweep", "--param", "s", "--t", "1", "--lo", "1.2e308", "--hi", "1.7e308", "--step",
         "1e307"],
        ["sweep", "--param", "s", "--t", "1", "--lo", "0", "--hi", "1e-13", "--step", "1e-14"],
    ]
    import ptmatrix as pt
    from ptmatrix.serialize import system_to_obj, write_json

    base = pt.random_pt_system(8, (6, 2), 13108)
    big = str(out / "sys_frame_overflow.json")
    write_json(big, system_to_obj(pt.pt_system_from_matrices(1e308 * base.h, base.p)))
    cmds.append(["analyze", "--input", big])
    return cmds


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(tree / "src"))
    import ptmatrix.cli

    out.mkdir(parents=True, exist_ok=True)
    for i, args in enumerate(corpus(tree, out)):
        args = [str(out / f"out_{i}.csv") if a == "OUT" else a for a in args]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = ptmatrix.cli.main(args)
        text = (" ".join(args) + f"\nexit {code}\n--stdout\n" + stdout.getvalue()
                + "--stderr\n" + stderr.getvalue())
        (out / f"cmd_{i}.txt").write_text(text.replace(str(out), "DIR").replace(str(tree), "TREE"))
    print(f"{i + 1} commands, outputs in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
