"""The three benchmark workloads: inputs drawn from a seed, one timed call,
and a check of that call's outputs against an independent reference.

An *item* is a seed scanned, a grid point or a system; a *call* is one scan
window, one ``sweep`` invocation or one generate -> analyze -> evolve chain.
Every workload is a closed loop of one caller: the next call starts when the
previous one has returned and been checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import ptmatrix
import ptmatrix.cli
from ptmatrix.closedform import TwoByTwoParams, eig2

SCAN_DIM = 8
SCAN_SIGNATURE = (6, 2)
# Seeds per scan window. The frozen (8,6,2) seeds are at least 60 apart, so a
# window of 16 ending at one of them holds exactly that one.
SCAN_WINDOW = 16

SWEEP_INTERVALS = 2000  # 2001 points over s in [0, 2t]; point 1000 is s = t
SWEEP_CYCLE = 8  # (r, t, phi) draws per seed
# Points closer than this (relative to t) to the exceptional point s = t may
# also come out exceptional; the grid's only such point is s = t itself.
EP_WINDOW = 1e-7
EIG_TOL = 1e-10  # closed-form eigenvalue agreement, relative to 1 + |r| + |t|
EIG_TOL_EP = 1e-6  # at the exceptional point eigenvalues move as sqrt(eps)

EVOLVE_STEPS = 10001
C_SQUARED_TOL = 1e-8
EIG_LAPACK_TOL = 1e-8
DRIFT_LIMIT = 1e-6
SIGNS_862 = [-1, -1, 1, 1, 1, 1, 1, 1]


def _quiet_cli(argv: list[str]) -> int:
    """ptmatrix's CLI with its stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return ptmatrix.cli.main(argv)


class SeedScan:
    """``find_unbroken_seeds`` over windows that end at frozen unbroken seeds.

    Reference: the frozen (8,6,2) list, which holds every unbroken seed up to
    its last entry, so each window must return exactly the first frozen seed
    at or after its start.
    """

    name = "seed_scan"
    # Highest 5-step percentile with 10 of a 30 s run's calls beyond it:
    # about 220 calls here, 40 per sweep, 80 chains.
    tail_percentile = 90

    def __init__(self, frozen: list[int], workdir: Path) -> None:
        self.frozen = sorted(frozen)

    def inputs(self, seed: int) -> list[int]:
        order = list(self.frozen)
        random.Random(seed).shuffle(order)
        return order

    def items(self, end: int) -> int:
        return SCAN_WINDOW

    def call(self, end: int):
        return ptmatrix.spectral.find_unbroken_seeds(
            SCAN_DIM, SCAN_SIGNATURE, count=1, start_seed=end - SCAN_WINDOW + 1
        )

    def check(self, end: int, found) -> tuple[int, str]:
        start = end - SCAN_WINDOW + 1
        expected = [next(s for s in self.frozen if s >= start)]
        if list(found) != expected:
            return SCAN_WINDOW, f"window ending {end}: found {found}, expected {expected}"
        return 0, ""

    def bytes_written(self, end: int) -> int:
        return 0


class Sweep2Level:
    """CLI ``sweep --param s`` across the exceptional point of a two-level system.

    Reference: ``TwoByTwoParams.unbroken`` for the phase and ``closedform.eig2``
    for the eigenvalues of every grid point.
    """

    name = "sweep_2level"
    tail_percentile = 70

    def __init__(self, frozen: list[int], workdir: Path) -> None:
        self.out = workdir / "sweep.csv"

    def inputs(self, seed: int) -> list[tuple[float, float, float]]:
        rng = random.Random(seed)
        return [
            (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(SWEEP_CYCLE)
        ]

    def items(self, params) -> int:
        return SWEEP_INTERVALS + 1

    def call(self, params) -> int:
        r, t, phi = params
        return _quiet_cli([
            "sweep", "--param", "s", "--r", repr(r), "--t", repr(t), "--phi", repr(phi),
            "--lo", "0", "--hi", repr(2.0 * t), "--step", repr(2.0 * t / SWEEP_INTERVALS),
            "--out", str(self.out),
        ])

    def check(self, params, code: int) -> tuple[int, str]:
        total = SWEEP_INTERVALS + 1
        if code != 0:
            return total, f"sweep {params}: exit code {code}"
        r, t, phi = params
        with open(self.out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        failed = min(abs(total - len(rows)), total)
        first = ""
        scale = 1.0 + abs(r) + abs(t)
        for row in rows[:total]:
            s = float(row[0])
            params2 = TwoByTwoParams(r=r, s=s, t=t, phi=phi)
            expected = "unbroken" if params2.unbroken else "broken"
            near_ep = abs(abs(s) - abs(t)) <= EP_WINDOW * abs(t)
            phase_ok = row[5] == expected or (near_ep and row[5] == "exceptional")
            got = [complex(float(row[1 + 2 * k]), float(row[2 + 2 * k])) for k in (0, 1)]
            want = eig2(params2)
            err = min(
                max(abs(got[0] - want[0]), abs(got[1] - want[1])),
                max(abs(got[0] - want[1]), abs(got[1] - want[0])),
            )
            if not phase_ok or err > (EIG_TOL_EP if near_ep else EIG_TOL) * scale:
                failed += 1
                first = first or f"sweep {params} s={s!r}: phase {row[5]} (want {expected}), eig error {err:.3e}"
        return failed, first

    def bytes_written(self, params) -> int:
        return self.out.stat().st_size


class AnalyzeEvolve:
    """CLI ``generate`` -> ``analyze`` -> ``evolve`` on every frozen (8,6,2) seed.

    References: exit codes, LAPACK (``numpy.linalg.eigvals``) for the reported
    eigenvalues, C^2 = I recomputed from the reported C, the parity's
    signature for the PT-norm signs, and the drift recomputed from the trace.
    """

    name = "analyze_evolve"
    tail_percentile = 80

    def __init__(self, frozen: list[int], workdir: Path) -> None:
        self.frozen = sorted(frozen)
        self.system = workdir / "system.json"
        self.report = workdir / "report.json"
        self.trace = workdir / "trace.csv"

    def inputs(self, seed: int) -> list[tuple[int, int, int]]:
        rng = random.Random(seed)
        order = list(self.frozen)
        rng.shuffle(order)
        return [(s, rng.randrange(2**31), rng.randrange(2**31)) for s in order]

    def items(self, spec) -> int:
        return 1

    def call(self, spec) -> tuple[int, int, int]:
        system_seed, state, state2 = spec
        sig = ",".join(map(str, SCAN_SIGNATURE))
        return (
            _quiet_cli(["generate", "--dim", str(SCAN_DIM), "--signature", sig,
                        "--seed", str(system_seed), "--out", str(self.system)]),
            _quiet_cli(["analyze", "--input", str(self.system), "--out", str(self.report)]),
            _quiet_cli(["evolve", "--input", str(self.system), "--state", f"rand:{state}",
                        "--state2", f"rand:{state2}", "--steps", str(EVOLVE_STEPS),
                        "--out", str(self.trace)]),
        )

    def check(self, spec, codes) -> tuple[int, str]:
        problems = []
        if tuple(codes) != (0, 0, 0):
            problems.append(f"exit codes {codes}")
        else:
            problems += self._check_report() + self._check_trace()
        if problems:
            return 1, f"system {spec}: " + "; ".join(problems)
        return 0, ""

    def _check_report(self) -> list[str]:
        with open(self.system) as fh:
            h = _matrix(json.load(fh)["h"])
        with open(self.report) as fh:
            report = json.load(fh)
        spectrum = report["spectrum"]
        problems = []
        if spectrum["phase"] != "unbroken":
            problems.append(f"phase {spectrum['phase']}")
        if sorted(spectrum["pt_norm_signs"] or []) != SIGNS_862:
            problems.append(f"pt_norm_signs {spectrum['pt_norm_signs']}")
        got = np.sort_complex(np.array([complex(re, im) for re, im in spectrum["eigenvalues"]]))
        want = np.sort_complex(np.linalg.eigvals(h))
        if got.shape != want.shape or np.max(np.abs(got - want)) > EIG_LAPACK_TOL:
            problems.append("eigenvalues differ from LAPACK")
        c = _matrix(report["c_matrix"]) if report["c_matrix"] else None
        c_sq = np.max(np.abs(c @ c - np.eye(c.shape[0]))) if c is not None else math.inf
        if not (c_sq <= C_SQUARED_TOL and report["invariant_residuals"].get("c_squared", math.inf) <= C_SQUARED_TOL):
            problems.append(f"C^2 - I residual {c_sq:.3e}")
        return problems

    def _check_trace(self) -> list[str]:
        data = np.loadtxt(self.trace, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (EVOLVE_STEPS, 3):
            return [f"trace shape {data.shape}"]
        z = data[:, 1] + 1j * data[:, 2]
        drift = float(np.max(np.abs(z - z[0])))
        return [] if drift <= DRIFT_LIMIT else [f"drift {drift:.3e}"]

    def bytes_written(self, spec) -> int:
        return sum(p.stat().st_size for p in (self.system, self.report, self.trace))


def _matrix(obj) -> np.ndarray:
    dim = int(obj["dim"])
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(dim, dim)


WORKLOADS = {w.name: w for w in (SeedScan, Sweep2Level, AnalyzeEvolve)}
