#!/usr/bin/env python3
"""ptmatrix benchmark: run one workload for a fixed time, check every output,
and print the metrics as one JSON line.

    python3 perfbench/run.py --workload seed_scan --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports ``ptmatrix`` from ``src/``
and the frozen unbroken seeds from ``tests/_seeds.py``, and fails without a
result when either is missing. Everything runs in this one process with the
BLAS pinned to one thread, except the extra set-ups, which start a fresh
interpreter each so that import time is measured again.

``--trace 0`` times the calls untraced and prints the end-to-end metrics.
``--trace 1`` runs each input twice, untraced and traced in alternating
order, and prints the per-layer metrics of the traced calls together with
the tracing overhead. The last line of standard output is the result; the
line before it gives the details (environment, sample counts, tail
percentile, failures).
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the extra set-ups inherit the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEEDS_FILE = ROOT / "tests" / "_seeds.py"
FROZEN_KEY = (8, 6, 2)

SETUP_REPEATS = 3  # set-ups in fresh interpreters, besides this process's own
THROUGHPUT_BLOCK = 5  # calls per throughput sample
TAIL_MIN_BEYOND = 10  # samples a tail percentile must have beyond it


def setup(workload: str, seed: int, workdir: Path):
    """Import, fixtures and one warm-up call; returns (workload, inputs, seconds)."""
    start = time.perf_counter()
    if not (SRC / "ptmatrix" / "__init__.py").is_file() or not SEEDS_FILE.is_file():
        raise SystemExit(f"perfbench: no ptmatrix source tree at {ROOT}")
    sys.path.insert(0, str(SRC))
    import ptmatrix
    import workloads

    if Path(ptmatrix.__file__).resolve().parent != SRC / "ptmatrix":
        raise SystemExit(f"perfbench: imported ptmatrix from {ptmatrix.__file__}, not {SRC}")
    frozen = runpy.run_path(str(SEEDS_FILE))["UNBROKEN_SEEDS"][FROZEN_KEY]
    wl = workloads.WORKLOADS[workload](frozen, workdir)
    specs = wl.inputs(seed)
    wl.call(specs[0])
    return wl, specs, time.perf_counter() - start


def child_setup(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.splitlines()[-1])


class Run:
    """Samples of one timed loop: per-call seconds, items, failures."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.items: list[int] = []
        self.bytes = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, wl, spec, tracer=None) -> None:
        n = wl.items(spec)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = wl.call(spec)
        except Exception as exc:  # a failing call is counted, not fatal
            elapsed = time.perf_counter() - start
            bad, why = n, f"{spec}: {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                bad, why = wl.check(spec, result)
                self.bytes += wl.bytes_written(spec)
            except Exception as exc:
                bad, why = n, f"{spec}: check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.remove()
        self.seconds.append(elapsed)
        self.items.append(n)
        self.failed += bad
        if bad and len(self.failures) < 5:
            self.failures.append(why)

    @property
    def attempted(self) -> int:
        return sum(self.items)


def items_per_s(run: Run) -> float:
    """Median throughput over consecutive blocks of calls."""
    k = THROUGHPUT_BLOCK
    blocks = [
        sum(run.items[i:i + k]) / sum(run.seconds[i:i + k])
        for i in range(0, max(len(run.seconds) - k + 1, 1), k)
    ]
    return statistics.median(blocks)


def tail(seconds: list[float], percentile: int) -> tuple[int, float, int]:
    """Nearest-rank percentile, stepped down by 5 (not below 50) until at
    least TAIL_MIN_BEYOND samples lie beyond it: (percentile, value, beyond)."""
    ordered = sorted(seconds)
    p = percentile
    while True:
        rank = max(math.ceil(p / 100 * len(ordered)), 1)
        beyond = len(ordered) - rank
        if beyond >= TAIL_MIN_BEYOND or p <= 50:
            return p, ordered[rank - 1], beyond
        p -= 5


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                func = getattr(handle, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    return int(func())
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import ptmatrix

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptmatrix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numba_enabled": getattr(ptmatrix, "NUMBA_ENABLED", None),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure(wl, specs, seconds: float, trace: bool):
    """Closed loop over the inputs, cycling, until ``seconds`` have passed."""
    plain = Run()
    traced = Run() if trace else None
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        spec = specs[k % len(specs)]
        if trace and k % 2:
            traced.call(wl, spec, tracer)
            plain.call(wl, spec)
        elif trace:
            plain.call(wl, spec)
            traced.call(wl, spec, tracer)
        else:
            plain.call(wl, spec)
        k += 1
    return plain, traced, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["seed_scan", "sweep_2level", "analyze_evolve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl, specs, own_setup = setup(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(repr(own_setup))
            return 0
        setups = [own_setup] + [child_setup(args) for _ in range(SETUP_REPEATS)]
        plain, traced, tracer = measure(wl, specs, args.seconds, bool(args.trace))

    runs = [plain] if traced is None else [plain, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calls": len(plain.seconds),
        "items": plain.attempted,
        "failed_ratio": failed / attempted,
        "failures": [f for r in runs for f in r.failures],
        "setup_samples_s": setups,
        "env": environment(),
    }
    if traced is None:
        p, value, beyond = tail(plain.seconds, wl.tail_percentile)
        detail.update(tail_percentile=p, tail_samples_beyond=beyond)
        metrics = {
            "items_per_s": (items_per_s(plain), "1/s"),
            "call_ms_p50": (statistics.median(plain.seconds) * 1e3, "ms"),
            "call_ms_tail": (value * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(traced.attempted)
        self_total = sum(s.self_s for s in tracer.stats.values())
        metrics["serialize.bytes_written"] = (traced.bytes / traced.attempted, "B/item")
        metrics["trace.overhead_ratio"] = (sum(traced.seconds) / sum(plain.seconds), "ratio")
        metrics["trace.self_coverage"] = (self_total / sum(traced.seconds), "ratio")
        detail.update(
            untraced_items_per_s=plain.attempted / sum(plain.seconds),
            traced_items_per_s=traced.attempted / sum(traced.seconds),
        )
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
