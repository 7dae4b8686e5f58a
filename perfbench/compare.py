"""Compare two result sets of the benchmark: parent commit vs change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the ``--trace 0`` result files ``run.py`` writes to
``perfbench/out/results/`` (copy them aside between checkouts).  Runs of
one workload are paired by seed, so a seed may appear only once per side
(a repeat is an error, not an overwrite); make at least ten pairs with the
same ``--seconds``, alternating which side runs first.

For every workload and end-to-end metric the table shows each side's
median and quartiles, the share of pairs the change won (ties count for
neither) and a verdict.  With fewer than ten pairs it is ``unresolved``,
whatever the values; otherwise the first that holds of

* ``improved`` -- the change won at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's interquartile distance, or
  every change run beats every parent run;
* ``unresolved`` -- either side's spread (interquartile distance over
  median) is wider than the metric's bound;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` -- none of the above.

Simulated metrics are exact for a seed, so they have no bound: they read
``identical`` when every pair matches and ``changed`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

from common import load_spec, quartiles, rel_spread

#: rule 1 of a gain claim: the share of pairs the change must win
WIN_SHARE = 0.9
#: fewer pairs than this resolve no timed metric either way
MIN_PAIRS = 10


class ResultsError(ValueError):
    """A result directory that cannot be paired by seed."""


def load_results(directory: pathlib.Path) -> dict[str, dict[int, dict]]:
    """``workload -> seed -> record`` of a directory's untraced results."""
    out: dict[str, dict[int, dict]] = {}
    seen: dict[tuple[str, int], pathlib.Path] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        prov = rec["provenance"]
        if prov["trace"]:
            continue
        key = (prov["workload"], prov["seed"])
        if key in seen:
            raise ResultsError(
                f"{directory}: seed {key[1]} of {key[0]} repeats in "
                f"{seen[key].name} and {path.name}; give each run its own "
                f"seed"
            )
        seen[key] = path
        out.setdefault(prov["workload"], {})[prov["seed"]] = rec
    return out


def _values(rec: dict) -> dict[str, float]:
    vals = dict(rec["end_to_end"])
    vals.update({f"sim:{k}": v for k, v in rec["simulated"].items()})
    vals["failed_frac"] = rec["failed_frac"]
    return vals


def verdict(
    parent: list[float], change: list[float], pairs: list[tuple],
    better: str, bound: float,
) -> tuple[str, float]:
    """``(verdict, share of pairs won)`` for one timed metric."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(c: float, p: float) -> bool:
        return sign * (p - c) > 0

    won = sum(1 for p, c in pairs if beats(c, p)) / len(pairs)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", won
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if won >= WIN_SHARE and sign * (pm - cm) > p3 - p1:
        return "improved", won
    if all(beats(c, p) for p in parent for c in change):
        return "improved", won
    if rel_spread(parent) > bound or rel_spread(change) > bound:
        return "unresolved", won
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "worse", won
    return "unchanged", won


def compare(
    parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
    spec: dict[str, Any],
) -> list[dict[str, Any]]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        pv = [_values(parent[workload][s]) for s in seeds]
        cv = [_values(change[workload][s]) for s in seeds]
        for name in pv[0]:
            p = [v[name] for v in pv]
            c = [v[name] for v in cv]
            pairs = list(zip(p, c))
            if name in bounds:
                verd, won = verdict(
                    p, c, pairs, bounds[name]["better"],
                    bounds[name]["bound"],
                )
            else:  # simulated metrics and failed_frac: exact
                verd = "identical" if p == c else "changed"
                won = sum(1 for a, b in pairs if b < a) / len(pairs)
            rows.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "parent": quartiles(p), "change": quartiles(c),
                "won": won, "verdict": verd,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    args = ap.parse_args(argv)
    try:
        rows = compare(
            load_results(args.parent), load_results(args.change), load_spec()
        )
    except ResultsError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    if not rows:
        print("compare: no workload has results on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<11} {'metric':<24} {'n':>3}  "
          f"{'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'won':>5}  verdict")
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["parent"])
        fmt_c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:<11} {r['metric']:<24} {r['pairs']:>3}  "
              f"{fmt:<32} {fmt_c:<32} {r['won']:>5.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
