#!/usr/bin/env python3
"""Paired timing of two ptmatrix source trees on one perfbench workload.

    python tools/ab_time.py PARENT_TREE CHANGE_TREE --workload analyze_evolve

Each tree gets one long-lived worker process that imports ptmatrix from the
tree's own ``src/`` and runs the workload's call loop from this repository's
``perfbench/workloads.py``, on the inputs of one seed, with the BLAS pinned to
one thread. The two workers take turns in PAIRS pairs of ROUND_SECONDS rounds,
one process at a time, in ABBA/BAAB order: pair i times A then B when i is even,
B then A when it is odd. Both sides of a pair meet the machine's load within
about a second, so most of the drift between runs cancels in each pair's
ratio.

Printed: each side's median items/s, the median B/A ratio of items/s over
the pairs (above 1: B is faster) with its quartiles and a bootstrap 95%
interval of the median, and how many pairs B won. Every call's output is
checked as perfbench checks it; a failed item is counted and reported. A tree
timed against itself (A/A) should give an interval that holds 1.

This is a measurement aid beside perfbench, not a gate: perfbench's metrics
and bounds are unchanged by it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FROZEN_KEY = (8, 6, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BOOTSTRAP_DRAWS = 2000
PAIRS = 40
ROUND_SECONDS = 0.5


def worker(tree: Path, workload: str, seed: int) -> None:
    """Serve rounds on stdin/stdout: each line "SECONDS" runs whole calls for
    at least that long and answers one JSON line; an empty line ends it."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import ptmatrix
    import workloads

    if Path(ptmatrix.__file__).resolve().parent != (tree / "src" / "ptmatrix").resolve():
        raise SystemExit(f"ab_time: imported ptmatrix from {ptmatrix.__file__}, not {tree}")
    frozen = runpy.run_path(str(ROOT / "tests" / "_seeds.py"))["UNBROKEN_SEEDS"][FROZEN_KEY]
    with tempfile.TemporaryDirectory(prefix="ab-time-") as workdir:
        wl = workloads.WORKLOADS[workload](frozen, Path(workdir))
        specs = wl.inputs(seed)
        wl.call(specs[0])  # warm-up, as perfbench's set-up makes one call
        print(json.dumps({"ready": True}), flush=True)
        n = 0
        for line in sys.stdin:
            if not line.strip():
                break
            budget = float(line)
            items = failed = 0
            busy = 0.0
            start = time.perf_counter()
            while True:
                spec = specs[n % len(specs)]
                n += 1
                t0 = time.perf_counter()
                result = wl.call(spec)
                busy += time.perf_counter() - t0
                items += wl.items(spec)
                failed += wl.check(spec, result)[0]
                if time.perf_counter() - start >= budget:
                    break
            print(json.dumps({"items": items, "seconds": busy, "failed": failed}), flush=True)


class Worker:
    """One tree's worker process, idle between rounds."""

    def __init__(self, tree: Path, workload: str, seed: int) -> None:
        env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab_time: worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def round(self, seconds: float) -> dict:
        self.proc.stdin.write(f"{seconds}\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap_median(xs: list[float], seed: int) -> tuple[float, float]:
    """2.5% and 97.5% quantiles of the median over resamples of xs."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(xs, k=len(xs)))
                     for _ in range(BOOTSTRAP_DRAWS))
    return medians[int(0.025 * BOOTSTRAP_DRAWS)], medians[int(0.975 * BOOTSTRAP_DRAWS) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", nargs="?", type=Path, help="source tree A (e.g. the parent)")
    ap.add_argument("tree_b", nargs="?", type=Path, help="source tree B (e.g. the change)")
    ap.add_argument("--workload", required=True,
                    choices=["seed_scan", "sweep_2level", "analyze_evolve"])
    ap.add_argument("--seed", type=int, default=1, help="workload input seed")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        worker(args.worker, args.workload, args.seed)
        return 0
    if args.tree_a is None or args.tree_b is None:
        ap.error("two source trees are needed")

    workers = {}
    try:
        for side, tree in (("A", args.tree_a), ("B", args.tree_b)):
            workers[side] = Worker(tree.resolve(), args.workload, args.seed)
        rates = {"A": [], "B": []}
        failed = {"A": 0, "B": 0}
        for i in range(PAIRS):
            for side in ("AB" if i % 2 == 0 else "BA"):
                r = workers[side].round(ROUND_SECONDS)
                rates[side].append(r["items"] / r["seconds"])
                failed[side] += r["failed"]
    finally:
        for w in workers.values():
            w.close()

    ratios = [b / a for a, b in zip(rates["A"], rates["B"])]
    q1, med, q3 = quartiles(ratios)
    lo, hi = bootstrap_median(ratios, args.seed)
    wins = sum(r > 1 for r in ratios)
    print(f"workload {args.workload}, seed {args.seed}, {PAIRS} pairs of "
          f"{ROUND_SECONDS} s rounds in ABBA order")
    for side, tree in (("A", args.tree_a), ("B", args.tree_b)):
        a1, am, a3 = quartiles(rates[side])
        print(f"{side} {tree}: items/s median {am:.6g} [{a1:.6g}, {a3:.6g}], "
              f"failed items {failed[side]}")
    print(f"B/A items/s ratio: median {med:.4f} [quartiles {q1:.4f}, {q3:.4f}], "
          f"bootstrap 95% interval of the median [{lo:.4f}, {hi:.4f}], "
          f"B faster in {wins}/{len(ratios)} pairs")
    return 1 if failed["A"] or failed["B"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
