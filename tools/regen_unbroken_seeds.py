#!/usr/bin/env python3
"""Regenerate tests/_seeds.py: seeds whose random systems are unbroken.

Unbroken systems can be rare (the frozen lists hold 50 unbroken seeds in
0..357555 at D=8, signature (6,2), a rate of 1.4e-4, against 25 in 0..1009,
2.5e-2, at D=6, signature (5,1)), so the test suite uses seed lists found
here once instead of rejection-sampling at run time. Every frozen seed
is re-verified by the tests; this script only does the scanning, nearly all
of it the (8,6,2) scan up to seed 357555. On a shared 2-CPU x86-64 Linux VM
with one OpenBLAS thread, 4 alternating runs of --check took 4.4-4.8 s wall
(80 600-90 300 seeds/s at (8,6,2)) with the scan's Hermite prescreen, which
rejects most seeds before any eigensolve, against 10.1-10.8 s (34 900-38 100
seeds/s) without it; load on such a VM moves both by up to 2x.
It prints the seeds scanned per second for each signature.

Run from the repository root:  python tools/regen_unbroken_seeds.py
With --check it recomputes every list and compares it with tests/_seeds.py,
writing nothing, and exits 1 naming the first list that differs.
"""

from __future__ import annotations

import argparse
import pathlib
import runpy
import sys
import time

from ptmatrix import find_unbroken_seeds

# (dim, m_plus, m_minus, how many): the suite draws go here
WANTED = [
    (2, 1, 1, 60),
    (3, 2, 1, 40),
    (4, 2, 2, 40),
    (5, 3, 2, 25),
    (6, 5, 1, 25),
    (7, 6, 1, 20),
    (8, 7, 1, 20),
    (8, 6, 2, 50),
]

HEADER = '''"""Seeds whose random systems (random_pt_system) are PT-unbroken.

Generated by tools/regen_unbroken_seeds.py; tests re-verify every entry.
"""

UNBROKEN_SEEDS = {
'''


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="recompute every list and compare it with tests/_seeds.py, writing nothing; "
             "exit 1 at the first list that differs",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "_seeds.py"
    frozen = runpy.run_path(str(out))["UNBROKEN_SEEDS"] if args.check else {}
    lines = [HEADER]
    for dim, mp, mm, count in WANTED:
        t0 = time.time()
        seeds = find_unbroken_seeds(dim, (mp, mm), count, start_seed=0)
        dt = time.time() - t0
        print(
            f"D={dim} ({mp},{mm}): {count} seeds, scanned up to {seeds[-1]} in {dt:.1f}s "
            f"({(seeds[-1] + 1) / dt:.0f} seeds/s)"
        )
        if args.check and frozen.get((dim, mp, mm)) != seeds:
            print(f"D={dim} ({mp},{mm}): differs from {out}", file=sys.stderr)
            return 1
        lines.append(f"    ({dim}, {mp}, {mm}): {seeds!r},\n")
    lines.append("}\n")
    text = "".join(lines)
    if args.check:
        if out.read_text(encoding="utf-8") != text:
            print(f"{out} holds these lists but differs from the text written here", file=sys.stderr)
            return 1
        print(f"{out} matches")
        return 0
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
