"""The benchmark's three workloads, run from outside ``src/``.

Each workload turns ``--seed`` into its inputs and hands only those to the
program through its public entry points (``run_job`` and
``ControlPlane``).  ``run_workload`` returns one unit's outcome: the
simulated end-to-end metrics, the inputs of the fingerprint, the
registry-derived per-layer counters and every correctness failure found.

* ``cg-steady`` -- NAS CG class A, 16 ranks, V2, fault-free, no
  checkpoints, one EL shard, audit off.  CG is the paper's worst case for
  V2: many small messages, each gated on an event-logger ack, so host time
  goes to the kernel, streams, session framing, the V2 daemon and MPI
  matching while the store, ft, audit and serve layers stay idle.  16
  ranks rather than 8 because per-event cost grows with rank count and
  the n^2 peer streams must be in play.  The NAS problem is fixed, so the
  seed only seeds the cluster's random streams, which a fault-free run
  without checkpoints never draws from: simulated outputs are identical
  for every seed.
* ``cg-churn`` -- the same CG program at 8 ranks with 2 EL shards x 3
  replicas, 3 store replicas (write quorum 2), incremental checkpoints
  every 2 simulated s, audit on and seeded Weibull churn (mean lifetime
  8 s, shape 0.7, at most 4 kills).  The application is unchanged, but
  the work moves to replicated EL writes and downloads, store
  chunking/push/fetch, restarts, replay, sender-log GC and the auditor:
  an EL or store change that helps one use of a layer and hurts the
  other shows between these two workloads.
* ``serve-open`` -- 1000 short token-ring jobs (the ``bench_serve`` mix:
  tenants alpha/beta weighted 3:1, ~90% p4 jobs of 1-4 ranks, ~10% v2,
  25 v2 jobs with a rank kill) on one ``ControlPlane`` with 8 CNs and 2
  service slots.  Arrivals are an open loop in simulated time: a seeded
  Poisson schedule at 26 jobs/s, about 3/4 of the ~35 jobs/s the
  all-at-once storm sustains, submitted with ``submit(spec, at=t)``.
  Being scheduled in simulated time, arrivals are never late.  Jobs are
  tiny, so host time goes to per-job assembly and teardown and to
  admission; most jobs bypass ``core``, so a message-path optimisation
  should show no change here.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from common import percentile, registry_snapshot

WORKLOADS = ("cg-steady", "cg-churn", "serve-open")

#: per-scale inputs; ``smoke`` is the harness self-test's scaled-down twin
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "cg-steady": {"klass": "A", "nprocs": 16},
        "cg-churn": {
            "klass": "A", "nprocs": 8, "mean_lifetime": 8.0,
            "ckpt_interval": 2.0, "max_faults": 4,
        },
        "serve-open": {"jobs": 1000, "rate": 26.0},
    },
    "smoke": {
        "cg-steady": {"klass": "S", "nprocs": 4},
        "cg-churn": {
            "klass": "S", "nprocs": 4, "mean_lifetime": 1.0,
            "ckpt_interval": 0.25, "max_faults": 2,
        },
        "serve-open": {"jobs": 40, "rate": 26.0},
    },
}

#: simulated-seconds budget per CG job: far above any run, so hitting it
#: means a hang
CG_LIMIT_S = 3600.0

#: trace kinds the recovery attribution reads (``obs.timeline``)
RECOVERY_KINDS = frozenset({
    "ft.global_restart", "ft.fault", "ft.detect", "ft.restart",
    "store.fetch_start", "store.fetch_done", "v2.el_download",
    "v2.restart", "v2.restart2", "v2.caught_up",
})

#: recovery phases reported per layer (p50 over a run's recoveries)
RECOVERY_PHASES = ("detect", "respawn", "fetch", "replay")

#: serve job mix, as in benchmarks/bench_serve.py: per 20-job window one
#: alpha and one beta job run on v2; of every 8 v2 jobs two get a kill
V2_SLOTS = (0, 11)
FAULTY_SLOTS = (3, 6)
SERVE_CAPACITY = 8
SERVE_SVC_SLOTS = 2
SERVE_WEIGHTS = {"alpha": 3.0, "beta": 1.0}


class _RecoveryRecorder:
    """Keeps only the recovery-arc trace records, from a live subscription.

    Retaining the whole trace of a CG class A run costs ~50% wall time and
    ~150 MB; the attribution needs a few dozen records.
    """

    def __init__(self) -> None:
        self.records: list = []

    def attach(self, ctx: dict) -> None:
        ctx["cluster"].tracer.subscribe(self._on, kinds=RECOVERY_KINDS)

    def _on(self, time: float, kind: str, fields: dict) -> None:
        from repro.simnet.trace import TraceRecord

        self.records.append(TraceRecord(time, kind, dict(fields)))


def _counter_totals(registries: list, names: tuple[str, ...]) -> dict:
    return {
        n: sum(reg.total(n, default=0.0) for reg in registries) for n in names
    }


def layer_counters(registries: list) -> dict[str, float]:
    """Per-layer work counts and simulated waits from the registries."""
    t = _counter_totals(registries, (
        "net.segments", "net.bytes", "stream.stall_s",
        "session.stalled_write_s", "el.events_stored", "el.roundtrips",
        "el.failovers", "gate.stall_s", "senderlog.bytes",
        "senderlog.gc_bytes", "deliveries.replayed", "store.push_bytes",
        "store.dedup_bytes", "store.fetch_bytes", "store.failover",
        "store.quorum_s", "el.quorum_wait_s", "ft.restarts",
        "serve.admitted",
    ))
    detect = [
        m for reg in registries for m in reg
        if m.name == "disp.detect_latency_s" and m.count
    ]
    ram_peak = max(
        (m.peak for reg in registries for m in reg
         if m.name == "senderlog.ram_bytes"),
        default=0.0,
    )
    return {
        "simnet.net.segments": t["net.segments"],
        "simnet.net.bytes": t["net.bytes"],
        "simnet.streams.stall_s": t["stream.stall_s"],
        "runtime.session.stalled_write_s": t["session.stalled_write_s"],
        "core.el.events_stored": t["el.events_stored"],
        "core.el.roundtrips": t["el.roundtrips"],
        "core.el.events_per_roundtrip": (
            t["el.events_stored"] / t["el.roundtrips"]
            if t["el.roundtrips"] else 0.0
        ),
        "core.el.quorum_wait_s": t["el.quorum_wait_s"],
        "core.el.failovers": t["el.failovers"],
        "core.daemon.gate_stall_s": t["gate.stall_s"],
        "core.senderlog.bytes": t["senderlog.bytes"],
        # gc bytes are slab-charged, logged bytes are payload: the ratio
        # exceeds 1 once most copies are reclaimed
        "core.senderlog.gc_ratio": (
            t["senderlog.gc_bytes"] / t["senderlog.bytes"]
            if t["senderlog.bytes"] else 0.0
        ),
        "core.senderlog.ram_peak_bytes": ram_peak,
        "core.replay.delivered": t["deliveries.replayed"],
        "store.push_bytes": t["store.push_bytes"],
        "store.dedup_ratio": (
            t["store.dedup_bytes"]
            / (t["store.dedup_bytes"] + t["store.push_bytes"])
            if t["store.dedup_bytes"] + t["store.push_bytes"] else 0.0
        ),
        "store.fetch_bytes": t["store.fetch_bytes"],
        "store.failovers": t["store.failover"],
        "store.quorum_s": t["store.quorum_s"],
        "ft.restarts": t["ft.restarts"],
        "ft.detect_latency_s": (
            sum(m.sum for m in detect) / sum(m.count for m in detect)
            if detect else 0.0
        ),
        "serve.jobs_admitted": t["serve.admitted"],
        # set by the workloads that have them
        "serve.queue_wait_p95_s": 0.0,
        "core.el.download_events": 0.0,
        **{f"ft.phase.{p}_s": 0.0 for p in RECOVERY_PHASES},
    }


def _audit_counts(reports: list) -> dict[str, float]:
    return {
        "obs.audit.checks": float(
            sum(sum(r.checks.values()) for r in reports)
        ),
        "obs.audit.events": float(sum(r.events_seen for r in reports)),
    }


def _phase_p50s(att: Any) -> dict[str, float]:
    stats = att.phase_stats()
    return {
        f"ft.phase.{p}_s": stats[p]["p50"] or 0.0 for p in RECOVERY_PHASES
    }


# -- CG ----------------------------------------------------------------------

def _run_cg(
    name: str, inputs: dict, seed: int, profile: Optional[Callable],
    run_done: Callable[[], None],
) -> dict[str, Any]:
    from repro.ft.failure import ChurnFaults
    from repro.obs.timeline import RecoveryAttribution, recovery_timeline
    from repro.runtime.config import DEFAULT_TESTBED
    from repro.runtime.mpirun import run_job
    from repro.workloads import nas

    churn = name == "cg-churn"
    kw: dict[str, Any] = {}
    cfg = DEFAULT_TESTBED
    recorder = _RecoveryRecorder()
    faults = None
    if churn:
        cfg = DEFAULT_TESTBED.with_(
            el_servers=2, el_replicas=3, ckpt_servers=3, ckpt_replicas=2,
            ckpt_incremental=True,
        )
        faults = ChurnFaults(
            mean_lifetime=inputs["mean_lifetime"], shape=0.7,
            max_faults=inputs["max_faults"], seed=seed,
        )
        kw = dict(
            audit=True, checkpointing=True,
            ckpt_interval=inputs["ckpt_interval"], faults=faults,
            on_ready=recorder.attach,
        )
    # a hang past the limit, a deadlock or a crash raises SimError: the
    # unit then exits non-zero and the benchmark reports no result
    res = run_job(
        nas.cg.program, inputs["nprocs"], device="v2", cfg=cfg,
        params={"klass": inputs["klass"]}, seed=seed, limit=CG_LIMIT_S,
        profile=profile is not None, **kw,
    )
    run_done()
    failures: list[str] = []
    # only class T carries data; at classes S and A ``checksum`` is None
    # and every rank returns this constant, so under churn correctness
    # rests on the audit, the kill/restart count and the fingerprint
    results = [repr(r) for r in res.results]
    want = repr(nas.NasResult(
        kernel="cg", klass=inputs["klass"], nprocs=inputs["nprocs"],
        checksum=None,
    ))
    if results != [want] * len(results):
        failures.append(f"unexpected rank results {results[:2]}...")
    sim = {"sim_s": res.elapsed}
    layers = layer_counters([res.metrics])
    layers.update(_audit_counts([res.audit] if res.audit else []))
    mttr: list[float] = []
    if churn:
        if not res.audit.clean:
            failures.append(f"audit {res.audit.verdict}")
        att = RecoveryAttribution(recovery_timeline(recorder.records))
        mttr = sorted(s.recovery_s for s in att.completed)
        if att.incomplete:
            failures.append(f"{len(att.incomplete)} unrecovered fault(s)")
        if len(faults.injected) != res.restarts:
            failures.append(
                f"{len(faults.injected)} kills but {res.restarts} restarts"
            )
        sim["mttr_p50_s"] = percentile(mttr, 0.5) if mttr else 0.0
        layers.update(_phase_p50s(att))
        layers["core.el.download_events"] = float(att.totals()["el_events"])
    return {
        "sim": sim,
        "fingerprint": {
            "sim": sim, "mttr": mttr, "results": results,
            "restarts": res.restarts, "checkpoints": res.checkpoints,
            "faults": [list(f) for f in (faults.injected if faults else [])],
            "registry": registry_snapshot(res.metrics),
        },
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "layers": layers,
        "profile": res.profile,
    }


# -- serve -------------------------------------------------------------------

def serve_specs(n_jobs: int, seed: int) -> list:
    """The seeded ``bench_serve`` job mix (same shape for every seed)."""
    from repro.serve import JobSpec

    rng = random.Random(f"{seed}:mix")
    specs = []
    v2_seen = 0
    for i in range(n_jobs):
        tenant = "alpha" if i % 2 == 0 else "beta"
        nranks = rng.choice((1, 2, 2, 4))
        if i % 20 in V2_SLOTS:
            v2_seen += 1
            if v2_seen % 8 in FAULTY_SLOTS:
                specs.append(JobSpec(
                    workload="token_ring", nranks=max(2, nranks),
                    device="v2", tenant=tenant,
                    params={"rounds": 200, "nbytes": 8192},
                    checkpointing=True, ckpt_interval=0.05,
                    fault={"kind": "kill", "rank": 1,
                           "at": round(0.05 + 0.01 * (v2_seen % 5), 3)},
                ))
            else:
                specs.append(JobSpec(
                    workload="token_ring", nranks=nranks, device="v2",
                    tenant=tenant,
                    params={"rounds": rng.randint(10, 30),
                            "nbytes": rng.choice((512, 1024, 2048))},
                ))
        else:
            specs.append(JobSpec(
                workload="token_ring", nranks=nranks, device="p4",
                tenant=tenant,
                params={"rounds": rng.randint(2, 6),
                        "nbytes": rng.choice((256, 512, 1024))},
            ))
    return specs


def arrival_times(n_jobs: int, rate: float, seed: int) -> list[float]:
    """Open-loop Poisson arrival schedule in simulated seconds."""
    rng = random.Random(f"{seed}:arrivals")
    t = 0.0
    out = []
    for _ in range(n_jobs):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def _run_serve(
    inputs: dict, seed: int, profile: Optional[Callable],
    run_done: Callable[[], None],
) -> dict[str, Any]:
    from repro.serve import ControlPlane

    specs = serve_specs(inputs["jobs"], seed)
    due = arrival_times(inputs["jobs"], inputs["rate"], seed)
    plane = ControlPlane(
        seed=seed, capacity=SERVE_CAPACITY, svc_slots=SERVE_SVC_SLOTS,
        tenants=SERVE_WEIGHTS,
    )
    profiler = profile(plane.sim) if profile is not None else None
    done_t: dict[int, float] = {}
    handles = []
    for spec, t in zip(specs, due):
        h = plane.submit(spec, at=t)
        h.done.add_done_callback(
            lambda _f, jid=h.job_id: done_t.__setitem__(jid, plane.sim.now)
        )
        handles.append(h)
    plane.drain()
    summary = plane.finish()
    run_done()
    prof = profiler.finish() if profiler is not None else None

    failures: list[str] = []
    latencies = []
    jobs_fp = []
    failed = 0
    for h, t in zip(handles, due):
        res = h.result
        latency = done_t[h.job_id] - t
        latencies.append(latency)
        why = []
        if res.extras.get("timed_out"):
            why.append("timed out")
        if res.audit is not None and not res.audit.clean:
            why.append(f"audit {res.audit.verdict}")
        if len(res.results) != h.spec.nranks or any(
            r is None for r in res.results
        ):
            why.append("missing rank results")
        if h.spec.fault is not None and res.restarts < 1:
            why.append("kill never recovered")
        if why:
            failed += 1
            failures.append(f"job {h.job_id}: {', '.join(why)}")
        jobs_fp.append([
            h.job_id, h.submit_t, h.start_t, res.elapsed, res.restarts,
            res.results, registry_snapshot(res.metrics),
        ])
    if summary["completed"] != len(handles):
        failures.append(
            f"only {summary['completed']}/{len(handles)} jobs completed"
        )
        failed = max(failed, len(handles) - summary["completed"])
    sim = {
        "sim_s": summary["elapsed"],
        "job_latency_p50_s": percentile(latencies, 0.50),
        "job_latency_p99_s": percentile(latencies, 0.99),
    }
    registries = [plane.metrics] + [h.result.metrics for h in handles]
    layers = layer_counters(registries)
    layers.update(_audit_counts(
        [h.result.audit for h in handles if h.result.audit is not None]
    ))
    layers["serve.queue_wait_p95_s"] = percentile(
        [h.wait_s for h in handles], 0.95
    )
    return {
        "sim": sim,
        "fingerprint": {
            "sim": sim, "summary": summary, "jobs": jobs_fp,
            "plane": registry_snapshot(plane.metrics),
        },
        "attempted": len(handles),
        "failed": failed,
        "failures": failures,
        "layers": layers,
        "profile": prof,
    }


def run_workload(
    name: str, scale: str, seed: int,
    profile: Optional[Callable], run_done: Callable[[], None],
) -> dict[str, Any]:
    """One unit of ``name``.

    ``profile`` is None except in a profiled unit; then CG runs use
    ``run_job(profile=True)`` and the plane gets ``profile(plane.sim)``.
    ``run_done`` is called the moment the program's run returns, before
    any of the benchmark's own result checking.
    """
    inputs = SCALES[scale][name]
    if name == "serve-open":
        return _run_serve(inputs, seed, profile, run_done)
    return _run_cg(name, inputs, seed, profile, run_done)
