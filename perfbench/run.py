"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload cg-steady --seed 1 --seconds 30 --trace 0

``--trace 0`` runs timed units of the workload (each in a fresh
interpreter, see ``unit.py``) until ``--seconds`` have passed, at least
``MIN_UNITS`` of them, all on the inputs ``--seed`` generates.  It prints
every end-to-end metric of ``BENCHMARK.json`` as the median over the
units, plus the simulated end-to-end metrics, which are exact for a seed.

``--trace 1`` cycles through three units: an uninstrumented one, one
with the kernel profiler only (event count, EL service CPU time) and a
traced one (span wrappers, GC callbacks).  It prints the per-layer
ledger: each layer's self time, the unattributed residual and the tracing
overhead (traced minus uninstrumented wall time).

Before its units, a run compiles the program into a bytecode cache of its
own (a smoke-size unit with bytecode writing on), and every unit then
loads from that cache and nothing else: set-up time neither pays for
compilation nor depends on caches an earlier test or CLI run left behind.

Every run checks correctness: a unit whose simulated fingerprint differs
from the first unit's (and so from every other unit's, traced or not),
whose rank results are not the expected ones, whose audit is not clean, or
which timed out, aborted or left a fault unrecovered, counts as failed.
The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
its provenance, goes to ``perfbench/out/results/``.  ``compare.py`` diffs
two such result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Any

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    load_spec,
    metric_units,
    provenance,
)
from workloads import SCALES, WORKLOADS

#: units per run at the least, whatever ``--seconds`` says: the median
#: needs three, and the cross-unit fingerprint check needs two
MIN_UNITS = 3
#: per-unit wall-clock budget; a unit past it is a hang
UNIT_TIMEOUT_S = 170

#: simulated end-to-end metrics per workload (exact for a given seed)
SIM_METRICS: dict[str, tuple[str, ...]] = {
    "cg-steady": ("sim_s",),
    "cg-churn": ("sim_s", "mttr_p50_s"),
    "serve-open": ("sim_s", "job_latency_p50_s", "job_latency_p99_s"),
}
SIM_UNIT = "sim-s"


class UnitError(RuntimeError):
    """A unit process crashed or printed no result."""


def run_unit(
    workload: str, seed: int, scale: str, mode: str, pycache: str,
    warm: bool = False,
) -> dict:
    """Run one unit in a fresh interpreter and return its JSON report.

    Bytecode is read only from ``pycache`` (never from ``__pycache__``
    directories next to the sources); only a ``warm`` unit writes to it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not warm:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, str(BENCH_DIR / "unit.py"), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise UnitError(f"{mode} unit exceeded {UNIT_TIMEOUT_S}s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitError(
            f"{mode} unit exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _check_units(units: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over a run's units.

    Every unit ran the same inputs, so every fingerprint must equal the
    first; a unit that differs counts all its operations as failed.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = units[0]["fingerprint"]
    for i, u in enumerate(units):
        attempted += u["attempted"]
        bad = u["failed"]
        problems += [f"unit {i}: {p}" for p in u["failures"]]
        if u["fingerprint"] != first:
            bad = u["attempted"]
            problems.append(f"unit {i}: simulated fingerprint mismatch")
        failed += bad
    return attempted, failed, problems


def _fmt(value: float) -> str:
    return f"{value:.6g}"


#: the package layer a simulated process's own code belongs to
PROC_OWNER = {
    "proc.app": "app", "proc.daemon": "core", "proc.el": "core",
    "proc.store": "store", "proc.ft": "ft", "proc.infra": "ft",
    "proc.serve": "serve",
}


def _rollup(ledger_layers: dict[str, float]) -> dict[str, float]:
    """Self time per package layer (simnet, runtime, core, ...)."""
    out: dict[str, float] = {}
    for layer, self_s in ledger_layers.items():
        top = PROC_OWNER.get(layer, layer.split(".")[0])
        out[top] = out.get(top, 0.0) + self_s
    return out


def _print_ledger(layers: dict[str, float], ledger: dict, units: dict) -> None:
    window = layers["ledger.window_s"]
    print(f"per-layer ledger (traced window {window:.3f} s)")
    for title, table in (
        ("by package layer", _rollup(ledger["layers"])),
        ("by span group", ledger["layers"]),
    ):
        print(f" {title}:")
        for layer, self_s in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<22} self {self_s:9.3f} s  "
                  f"{self_s / window:6.1%}")
    print(
        f"  {'(unattributed)':<22} self "
        f"{layers['ledger.unattributed_s']:9.3f} s"
    )
    print(
        "  simnet.kernel includes the slot-table handlers a class wrapper "
        "cannot see: " + ", ".join(ledger["slot_handlers"])
    )
    print(f"  tracing overhead {layers['trace.overhead_s']:.3f} s")
    for name in sorted(units):
        print(f"  {name} = {_fmt(layers[name])} {units[name]}")


def _run_units(
    args: argparse.Namespace, pycache: str
) -> tuple[list[dict], list[dict], list[dict]]:
    """``(timed, profiled, traced)`` units, until ``--seconds`` pass.

    Untraced, at least ``MIN_UNITS`` timed units; traced, at least one
    cycle of the three kinds.
    """
    modes = ("timed", "profiled", "traced") if args.trace else ("timed",)
    runs: dict[str, list[dict]] = {"timed": [], "profiled": [], "traced": []}
    t0 = time.monotonic()
    while (
        len(runs["timed"]) < (1 if args.trace else MIN_UNITS)
        or time.monotonic() - t0 < args.seconds
    ):
        for mode in modes:
            runs[mode].append(run_unit(
                args.workload, args.seed, args.scale, mode, pycache
            ))
    return runs["timed"], runs["profiled"], runs["traced"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark."
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=sorted(SCALES),
                    help="smoke: the scaled-down inputs of selftest.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    e2e_units = metric_units(spec, "end_to_end")
    layer_units = metric_units(spec, "per_layer")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    pycache = tempfile.mkdtemp(prefix="pycache-", dir=OUT_DIR)
    try:
        run_unit(args.workload, args.seed, "smoke", "timed", pycache,
                 warm=True)
        units, profiled, traced = _run_units(args, pycache)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    attempted, failed, problems = _check_units(units + profiled + traced)

    e2e = {name: median(u[name] for u in units) for name in e2e_units}
    sim = {
        name: median(u["sim"][name] for u in units)
        for name in SIM_METRICS[args.workload]
    }
    e2e_all = dict(e2e)
    e2e_all.update(sim)
    e2e_all["failed_frac"] = failed / attempted
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(units)} timed unit(s), {len(profiled)} profiled, "
          f"{len(traced)} traced")
    for name, value in e2e_all.items():
        unit = e2e_units.get(name) or (
            SIM_UNIT if name in sim else "ratio"
        )
        print(f"metric {name} = {_fmt(value)} {unit}")

    record: dict[str, Any] = {
        "provenance": provenance(
            args.workload, args.seed, int(args.seconds), bool(args.trace),
            len(units) + len(profiled) + len(traced),
        ),
        "scale": args.scale,
        "end_to_end": e2e,
        "simulated": sim,
        "failed_frac": e2e_all["failed_frac"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": units,
        "profiled_units": profiled,
        "traced_units": traced,
    }
    if args.trace:
        layers = {
            name: median(t["layers"][name] for t in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced, units)
        )
        # the event count is exact; the rate divides it by the dispatch
        # window of an uninstrumented unit, so no probe or wrapper cost
        # is in it
        layers["simnet.kernel.events"] = median(
            p["events"] for p in profiled
        )
        layers["simnet.kernel.events_per_s"] = median(
            p["events"] / u["dispatch_s"] for p, u in zip(profiled, units)
        )
        layers["core.el.cpu_s"] = median(p["el_cpu_s"] for p in profiled)
        _print_ledger(layers, traced[-1]["ledger"], layer_units)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in layer_units.items()
        }
        record["per_layer"] = layers
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in e2e_units.items()
        }
    for p in problems:
        print(f"FAILED: {p}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (
        f"{args.workload}-s{args.seed}-t{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind: the running unit is killed and the run's
    # bytecode cache removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except UnitError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
