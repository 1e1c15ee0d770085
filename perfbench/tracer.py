"""Per-layer tracing of the ptmatrix modules, installed from outside.

Each traced function is replaced, at every place a ptmatrix module (or the
package namespace) binds it, by a wrapper that records a span: calls, self
time and raised exceptions. Self time is the span's duration minus the time
its direct child spans cover, so the self times of all spans add up to the
duration of the root spans. The program itself is not edited; intra-module
calls are caught too, because Python looks globals up in the module dict on
every call.

The layers are the package modules. ``errors`` does no work and is left out.
``_kernels`` is reported as ``kernels``, because metric names start with a
letter.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = (
    "cli", "construct", "closedform", "linalg", "_kernels",
    "spectral", "algebra", "dynamics", "serialize",
)

# Public entry points the workloads reach, by defining module. A name that a
# later version of the program no longer has is skipped and reads as zero.
TRACED = (
    ("cli", "main"),
    ("construct", "random_blocks"),
    ("construct", "make_h0"),
    ("construct", "random_pt_system"),
    ("construct", "make_pt_system"),
    ("construct", "pt_system_from_matrices"),
    ("construct", "classify_matrix"),
    ("closedform", "h2"),
    ("closedform", "p2"),
    ("linalg", "eig_arrays"),
    ("_kernels", "eig_all"),
    ("spectral", "find_unbroken_seeds"),
    ("spectral", "classify_phase"),
    ("spectral", "fix_pt_phase"),
    ("algebra", "build_c_operator"),
    ("algebra", "cpt_inner"),
    ("dynamics", "unitarity_trace"),
    ("serialize", "write_json"),
    ("serialize", "read_json"),
    ("serialize", "write_trace_csv"),
    ("serialize", "system_from_obj"),
    ("serialize", "system_to_obj"),
    ("serialize", "spectral_to_obj"),
    ("serialize", "matrix_to_obj"),
)

VERDICTS = ("unbroken", "broken", "exceptional")


def metric_name(module: str, *parts: str) -> str:
    return ".".join((module.lstrip("_"),) + parts)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0


class Tracer:
    """Wrappers for every traced function; ``install`` and ``remove`` swap
    them in and out of the ptmatrix namespaces."""

    def __init__(self) -> None:
        self.stats = {f"{m}.{f}": SpanStats() for m, f in TRACED}
        self.verdicts: Counter[str] = Counter()
        self.candidates = 0
        self.accepted = 0
        self._stack: list[list] = []
        self._patches: list[tuple[dict, str, object, object]] = []
        namespaces = [
            vars(mod) for name, mod in sorted(sys.modules.items())
            if name == "ptmatrix" or name.startswith("ptmatrix.")
        ]
        for module, func in TRACED:
            original = getattr(sys.modules.get(f"ptmatrix.{module}"), func, None)
            if original is None:
                continue
            hook = self._on_verdict if (module, func) == ("spectral", "classify_phase") else None
            wrapper = self._wrap(f"{module}.{func}", original, hook)
            for ns in namespaces:
                for attr, value in ns.items():
                    if value is original:
                        self._patches.append((ns, attr, original, wrapper))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            ns[attr] = wrapper

    def remove(self) -> None:
        for ns, attr, original, _ in self._patches:
            ns[attr] = original

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
            if hook is not None:
                hook(result, parent)
            return result

        return traced

    def _on_verdict(self, data, parent) -> None:
        verdict = data.phase.value
        self.verdicts[verdict] += 1
        if parent is not None and parent[0] == "spectral.find_unbroken_seeds":
            self.candidates += 1
            self.accepted += int(verdict == "unbroken")

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-item layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        n = max(items, 1)  # one division per value: equal ratios read bit-for-bit equal
        for layer in LAYERS:
            spans = [s for key, s in self.stats.items() if key.split(".")[0] == layer]
            out[metric_name(layer, "calls")] = (sum(s.calls for s in spans) / n, "1/item")
            out[metric_name(layer, "self_s")] = (sum(s.self_s for s in spans) / n, "s/item")
            out[metric_name(layer, "raised")] = (sum(s.raised for s in spans) / n, "1/item")
        for key, s in self.stats.items():
            module, func = key.split(".")
            out[metric_name(module, func, "calls")] = (s.calls / n, "1/item")
            out[metric_name(module, func, "self_s")] = (s.self_s / n, "s/item")
        out["spectral.fix_pt_phase.raised"] = (
            self.stats["spectral.fix_pt_phase"].raised / n, "1/item")
        for verdict in VERDICTS:
            out[f"spectral.classify_phase.{verdict}"] = (self.verdicts[verdict] / n, "1/item")
        out["spectral.prescreen.candidates"] = (self.candidates / n, "1/item")
        out["spectral.prescreen.useful_ratio"] = (
            self.accepted / self.candidates if self.candidates else 0.0, "ratio")
        return out

