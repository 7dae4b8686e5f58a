"""Helpers shared by the benchmark's entry point, unit runner and compare step.

Statistics follow ``statistics.quantiles(values, n=4)`` (the exclusive
method), so the spreads printed here are the ones a reader recomputes
from the raw per-run values.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Any, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

TIMING_METHOD = (
    "time.perf_counter in a fresh interpreter per unit, importing from a "
    "bytecode cache compiled once per run; "
    "peak RSS from getrusage(RUSAGE_SELF).ru_maxrss; "
    "per-run value = median over the run's units"
)


def load_spec() -> dict[str, Any]:
    """The benchmark contract (``BENCHMARK.json`` at the repository root)."""
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict[str, Any], group: str) -> dict[str, str]:
    """``name -> unit`` for one metric group (``end_to_end``/``per_layer``)."""
    return {m["name"]: m["unit"] for m in spec[group]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1]."""
    vs = sorted(values)
    pos = q * (len(vs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vs) - 1)
    return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)


def fingerprint(obj: Any) -> str:
    """SHA-256 over a canonical JSON rendering (floats by ``repr``)."""
    blob = json.dumps(obj, sort_keys=True, default=repr, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def registry_snapshot(metrics: Any) -> list:
    """Every metric of an ``obs.Metrics`` registry, in a stable order."""
    rows = []
    for m in metrics:
        labels = sorted((k, repr(v)) for k, v in m.labels.items())
        rows.append([m.name, m.kind, labels, m.export()])
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(
    workload: str, seed: int, seconds: int, trace: bool, units: int
) -> dict[str, Any]:
    """Where a result came from: commit, interpreter, machine, method."""
    sha = _git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "timing_method": TIMING_METHOD,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "runs": units,
    }
