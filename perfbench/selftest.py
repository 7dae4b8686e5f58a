"""Self-test of the benchmark harness at smoke size (about a minute).

    python3 perfbench/selftest.py

Runs every workload scaled down (CG class S at 4 ranks, a 40-job plane)
through ``run.py``, untraced and traced, and asserts that

* the last output line is the contract's JSON object, with exactly the
  declared metric names and units, no failed operation and ``correct``;
* every end-to-end metric, the simulated ones and ``failed_frac`` are
  printed by name with a unit, and ``failed_frac`` is 0;
* every unit's simulated fingerprint -- untraced, profiled and traced --
  is the same;
* on ``cg-steady`` the store and audit layers read zero;
* ``compare.py`` reads the result sets back, finds the simulated metrics
  of a run identical to themselves, leaves the timed ones unresolved on
  fewer than ten pairs, and refuses a side on which a seed repeats;
* without the program's source the benchmark fails without a result.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, SPEC_PATH, load_spec
from run import SIM_METRICS
from workloads import WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def check_workload(workload: str, trace: int, spec: dict) -> str:
    """Run one smoke benchmark and check it; returns its result file."""
    proc = _run(
        str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared, set(got) ^ set(declared)
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)), v

    printed = {
        parts[1]: parts[3:]
        for parts in (line.split() for line in lines)
        if parts and parts[0] == "metric"
    }
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    for name in [*e2e_names, *SIM_METRICS[workload], "failed_frac"]:
        assert name in printed and len(printed[name]) == 2, name
    assert float(printed["failed_frac"][0]) == 0.0

    path = next(
        line.split(" ", 2)[2] for line in lines
        if line.startswith("result file ")
    )
    record = json.loads((ROOT / path).read_text())
    units = record["units"] + record["profiled_units"] + record[
        "traced_units"]
    if trace:
        assert record["profiled_units"] and record["traced_units"]
    prints = {u["fingerprint"] for u in units}
    assert len(prints) == 1, "fingerprints differ between units"
    if trace and workload == "cg-steady":
        m = result["metrics"]
        idle = [k for k in m if k.startswith(("store.", "obs.audit."))]
        assert idle and all(m[k]["value"] == 0 for k in idle), idle
    return path


def check_compare(paths: list[str]) -> None:
    side = OUT_DIR / "selftest-compare"
    shutil.rmtree(side, ignore_errors=True)
    side.mkdir(parents=True)
    for p in paths:
        shutil.copy(ROOT / p, side)
    proc = _run(str(BENCH_DIR / "compare.py"), str(side), str(side))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    timed = {m["name"] for m in load_spec()["end_to_end"]}
    assert rows and all(
        r[-1] == ("unresolved" if r[1] in timed else "identical")
        for r in rows
    ), proc.stdout
    shutil.copy(ROOT / paths[0], side / "repeat.json")
    proc = _run(str(BENCH_DIR / "compare.py"), str(side), str(side))
    assert proc.returncode == 2 and "repeats" in proc.stderr, proc.stderr


def check_no_source() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(SPEC_PATH, bare / SPEC_PATH.name)
    shutil.copytree(
        BENCH_DIR, bare / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(
        str(bare / BENCH_DIR.name / "run.py"), "--workload", "cg-steady",
        "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout, proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    spec = load_spec()
    paths = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = check_workload(workload, trace, spec)
            print(f"ok {workload} trace={trace}")
            if not trace:
                paths.append(path)
    check_compare(paths)
    print("ok compare")
    check_no_source()
    print("ok fails without the program source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
