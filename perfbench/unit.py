"""One measured unit of a workload, in a fresh interpreter.

``run.py`` starts one of these per unit, so every unit pays the package
import, and ``ru_maxrss`` is the peak of that unit alone.  Modes:

* ``timed`` -- no instrumentation beyond one hook on the first
  ``Simulator.run_until`` call, which ends the set-up time and opens the
  dispatch window (first dispatch to the end of the run);
* ``profiled`` -- the kernel profiler only (``run_job(profile=True)``):
  the kernel's event count and the EL service's CPU time, measured
  without span wrappers inflating them;
* ``traced`` -- the :class:`tracing.SpanRecorder` wraps every layer's entry
  points; reports the per-layer ledger.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from common import OUT_DIR, fingerprint  # noqa: E402
from tracing import PROC_LAYERS, SpanRecorder  # noqa: E402
from workloads import SCALES, WORKLOADS, run_workload  # noqa: E402


def _import_program() -> None:
    """Import every package module a run touches (counted as set-up)."""
    import repro.ft.dispatcher  # noqa: F401
    import repro.ft.failure  # noqa: F401
    import repro.obs.audit  # noqa: F401
    import repro.obs.profile  # noqa: F401
    import repro.obs.timeline  # noqa: F401
    import repro.runtime.mpirun  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.serve.plane  # noqa: F401
    import repro.workloads.nas  # noqa: F401


class _Marks:
    """Set-up end (first kernel dispatch) and run end."""

    def __init__(self) -> None:
        self.first_dispatch: float | None = None
        self.done: float | None = None
        self.rss_mb = 0.0

    def install(self) -> None:
        from repro.simnet.kernel import Simulator

        run_until = Simulator.run_until
        marks = self

        def marked_run_until(sim, fut, limit=None):
            if marks.first_dispatch is None:
                marks.first_dispatch = perf_counter()
            return run_until(sim, fut, limit)

        Simulator.run_until = marked_run_until

    def run_done(self) -> None:
        self.done = perf_counter()
        self.rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


def _profiler(sim):
    from repro.obs.profile import KernelProfiler

    return KernelProfiler().install(sim)


def _traced_layers(rec, out: dict, window_s: float) -> tuple[dict, dict]:
    """The per-layer ledger metrics of one traced unit."""
    led = rec.ledger()
    lay = led["layers"]
    layers = dict(out["layers"])
    audit_s = lay.get("obs.audit", 0.0)
    chunk_s = lay.get("store.chunk", 0.0)
    events = layers.pop("obs.audit.events")
    layers.update({
        "simnet.kernel.self_s": lay.get("simnet.kernel", 0.0),
        "simnet.streams.self_s": lay.get("simnet.streams", 0.0),
        "runtime.session.frames": float(rec.layer_calls("runtime.session")),
        "runtime.session.self_s": lay.get("runtime.session", 0.0),
        "runtime.setup.self_s": lay.get("runtime.setup", 0.0),
        "runtime.finalize.self_s": lay.get("runtime.finalize", 0.0),
        "runtime.gc.collections": float(led["gc_collections"]),
        "runtime.gc.pause_s": lay.get("runtime.gc", 0.0),
        "core.daemon.self_s": lay.get("core.daemon", 0.0),
        "core.senderlog.self_s": lay.get("core.senderlog", 0.0),
        "mpi.matching.calls": float(rec.layer_calls("mpi.matching")),
        "mpi.matching.self_s": lay.get("mpi.matching", 0.0),
        "mpi.collectives.self_s": lay.get("mpi.collectives", 0.0),
        "store.chunk.self_s": chunk_s,
        "store.chunk.mb_per_s": (
            rec.layer_bytes("store.chunk") / 1e6 / chunk_s if chunk_s else 0.0
        ),
        "obs.audit.self_s": audit_s,
        "obs.audit.cost_per_event_us": (
            audit_s / events * 1e6 if events else 0.0
        ),
        "serve.submit.self_s": lay.get("serve.submit", 0.0),
        "serve.evict.self_s": lay.get("serve.evict", 0.0),
        "ledger.window_s": window_s,
        "ledger.unattributed_s": led["unattributed_s"],
        "ledger.spans": float(led["n_spans"]),
    })
    for svc in PROC_LAYERS:
        layers[f"proc.{svc}.self_s"] = lay.get(f"proc.{svc}", 0.0)
    return layers, led


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SCALES))
    ap.add_argument("--mode", default="timed",
                    choices=("timed", "profiled", "traced"))
    args = ap.parse_args()

    _import_program()
    import_s = perf_counter() - T_START
    marks = _Marks()
    rec = None
    if args.mode == "traced":
        # plane runs hold many jobs; spans outside any job's processes
        # (the plane, the kernel loop) carry no job id
        rec = SpanRecorder(job=None if args.workload == "serve-open" else 0)
        rec.install()
        rec.start()
    else:
        marks.install()

    def run_done() -> None:
        marks.run_done()
        if rec is not None:
            rec.stop()

    out = run_workload(
        args.workload, args.scale, args.seed,
        profile=_profiler if args.mode == "profiled" else None,
        run_done=run_done,
    )
    report = {
        "import_s": import_s,
        "wall_s": marks.done - T_START,
        "peak_rss_mb": marks.rss_mb,
        "sim": out["sim"],
        "fingerprint": fingerprint(out["fingerprint"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"][:20],
    }
    if rec is None:
        first = marks.first_dispatch or marks.done
        report["setup_s"] = first - T_START
        report["dispatch_s"] = marks.done - first
    if args.mode == "profiled":
        prof = out["profile"]
        el_row = prof.service("el")
        report["events"] = prof.events
        report["el_cpu_s"] = el_row["cpu_s"] if el_row else 0.0
    elif rec is not None:
        layers, led = _traced_layers(rec, out, rec.t1 - rec.t0)
        report["layers"] = layers
        report["ledger"] = {
            k: led[k] for k in ("layers", "spans", "slot_handlers")
        }
        spans = OUT_DIR / "spans" / f"{args.workload}-s{args.seed}.json"
        rec.write(spans)
        report["spans_file"] = str(spans.relative_to(OUT_DIR.parent.parent))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
