"""The gang-scheduling control plane (repro.serve).

Covers the admission queue (FIFO within a tenant, head-blocking,
cross-tenant fair share), all-or-nothing gang placement, per-job
namespace isolation on the shared fabric / EL shards / store replicas,
rank-kill isolation between co-resident jobs (with clean audits on both
sides), per-job metrics-registry isolation and the plane's wire API.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.ft.failure import ExplicitFaults, RandomFaults
from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import ConnectionRefused, Fabric, ScopedFabric
from repro.runtime.session import Session
from repro.serve import ControlPlane, JobSpec, load_plan
from repro.serve.plan import resolve_fault, resolve_program
from repro.workloads import nas, pingpong, token_ring

TINY = {"rounds": 3, "nbytes": 256}


def _p4(nranks=2, tenant="default", **kw):
    return JobSpec(
        workload=token_ring, nranks=nranks, device="p4", tenant=tenant,
        params=dict(kw.pop("params", TINY)), **kw,
    )


def _v2(nranks=4, tenant="default", **kw):
    return JobSpec(
        workload=token_ring, nranks=nranks, device="v2", tenant=tenant,
        params=dict(kw.pop("params", TINY)), **kw,
    )


# -- namespaces --------------------------------------------------------------


def test_scoped_fabric_prefixes_all_but_shared_names():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    fabric = Fabric(cluster)
    view = ScopedFabric(fabric, "j0/", shared=frozenset({"el:0"}))
    assert view.scoped("dispatcher") == "j0/dispatcher"
    assert view.scoped("el:0") == "el:0"

    host = cluster.add_aux("svc-host")
    view.listen("svc:0", host)
    cn = cluster.add_cn("cn0")
    # the listener landed on the prefixed name, not the bare one
    with pytest.raises(ConnectionRefused):
        fabric.connect(cn, "svc:0")
    assert fabric.connect(cn, "j0/svc:0") is not None


def test_cluster_namespaces_keep_host_names_disjoint():
    # a namespace is a host-name prefix; the network is what stops two
    # deployments from claiming one machine name
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    cluster.add_cn("a/cn0")
    cluster.add_aux("b/cn0")  # same bare name, other namespace
    with pytest.raises(ValueError, match="duplicate host"):
        cluster.add_cn("a/cn0")
    with pytest.raises(ValueError, match="duplicate host"):
        cluster.add_aux("b/cn0")


# -- plans -------------------------------------------------------------------


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(workload=token_ring, nranks=2, device="v1")
    with pytest.raises(ValueError):
        JobSpec(workload=token_ring, nranks=0)
    with pytest.raises(ValueError):  # faults need the FT device
        JobSpec(workload=token_ring, nranks=2, device="p4",
                fault={"kind": "kill", "rank": 0, "at": 1.0})


def test_load_plan_rejects_unknown_keys(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('[{"workload": "token_ring", "nranks": 2, "bogus": 1}]')
    with pytest.raises(ValueError, match="bogus"):
        load_plan(str(path))


def test_load_plan_bare_list_defaults_tenant(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('[{"workload": "token_ring", "nranks": 2}]')
    tenants, jobs = load_plan(str(path))
    assert tenants == {"default": 1.0}
    assert jobs[0].nranks == 2 and jobs[0].device == "p4"


def test_plan_resolvers_name_every_workload_and_fault_kind():
    ping, params = resolve_program(
        JobSpec(workload="pingpong", nranks=2, params={"reps": 3})
    )
    assert ping is pingpong and params == {"reps": 3}
    cg, params = resolve_program(JobSpec(workload="cg", nranks=2, klass="T"))
    assert cg is nas.KERNELS["cg"].program and params == {"klass": "T"}
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        resolve_program(JobSpec(workload="nope", nranks=2))

    def fault(**plan):
        return resolve_fault(
            JobSpec(workload="token_ring", nranks=2, device="v2", fault=plan)
        )

    explicit = fault(kind="explicit", schedule=[[0.1, 1], ["0.5", "0"]])
    assert isinstance(explicit, ExplicitFaults)
    assert explicit.schedule == [(0.1, 1), (0.5, 0)]
    rand = fault(kind="random", interval=2, count=3, seed=4)
    assert isinstance(rand, RandomFaults)
    assert (rand.interval, rand.count, rand.seed, rand.first_at) == (
        2.0, 3, 4, None
    )
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        fault(kind="meteor")


def test_named_workloads_and_explicit_faults_run_on_the_plane():
    plane = ControlPlane(capacity=6, svc_slots=1)
    ping = plane.submit(JobSpec(workload="pingpong", nranks=2,
                                params={"reps": 3}))
    cg = plane.submit(JobSpec(workload="cg", nranks=2, klass="T"))
    killed = plane.submit(JobSpec(
        workload="token_ring", nranks=2, device="v2",
        params={"rounds": 100, "nbytes": 16384},
        fault={"kind": "explicit", "schedule": [[0.05, 1]]},
    ))
    plane.drain()
    assert ping.result.results[0] > 0  # mean one-way time
    assert len(cg.result.results) == 2 and None not in cg.result.results
    assert killed.result.restarts == 1 and killed.result.audit.clean
    assert plane.finish()["completed"] == 3


def test_serve_command_runs_the_example_plan(tmp_path, capsys):
    plan = pathlib.Path(__file__).resolve().parents[1] / "examples/serve_plan.json"
    out = tmp_path / "serve.json"
    rc = main(["serve", "--jobs", str(plan), "--capacity", "8",
               "--svc-slots", "2", "--json-out", str(out)])
    assert rc == 0
    assert "8/8 jobs" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["summary"]["completed"] == 8
    assert doc["summary"]["timeouts"] == 0
    assert [j["audit"] for j in doc["jobs"]] == ["clean"] * 8
    assert [j["restarts"] > 0 for j in doc["jobs"]] == [True] + [False] * 7


# -- admission ---------------------------------------------------------------


def test_fifo_within_tenant_and_capacity_gating():
    plane = ControlPlane(capacity=2, svc_slots=0)
    handles = [
        plane.submit(_p4(2, params={"rounds": 50, "nbytes": 2048}))
        for _ in range(3)
    ]
    plane.drain()
    starts = [h.start_t for h in handles]
    assert starts == sorted(starts)  # admitted in submit order
    assert handles[0].start_t == 0.0
    assert handles[1].start_t > 0.0  # had to wait for job 0's gang
    assert all(h.state == "done" for h in handles)
    assert plane.finish()["completed"] == 3


def test_gang_is_all_or_nothing_with_tenant_head_blocking():
    plane = ControlPlane(capacity=4, svc_slots=0)
    big = plane.submit(_p4(3, tenant="alpha",
                           params={"rounds": 100, "nbytes": 4096}))
    blocked = plane.submit(_p4(2, tenant="alpha"))  # 1 slot free: no gang
    behind = plane.submit(_p4(1, tenant="alpha"))  # would fit, but FIFO
    other = plane.submit(_p4(1, tenant="beta"))  # other tenant: may run
    plane.drain()
    big_done = big.start_t + big.result.elapsed
    # never a partial gang: the 2-rank job waited for the 3-rank release
    assert blocked.start_t >= big_done - 1e-9
    assert blocked.wait_s > 0
    # a later same-tenant job does not leapfrog its blocked head ...
    assert behind.start_t >= blocked.start_t
    # ... but another tenant's 1-rank job takes the free slot immediately
    assert other.start_t == 0.0


def test_fair_share_tracks_tenant_weights():
    plane = ControlPlane(
        capacity=2, svc_slots=0, tenants={"alpha": 3.0, "beta": 1.0}
    )
    spec = {"rounds": 50, "nbytes": 2048}
    handles = (
        [plane.submit(_p4(2, tenant="alpha", params=spec)) for _ in range(9)]
        + [plane.submit(_p4(2, tenant="beta", params=spec)) for _ in range(3)]
    )
    plane.drain()
    # admissions over the saturation window (both tenants still queued):
    # rank-weighted share per tenant tracks the 3:1 weights within 20%
    order = sorted(handles, key=lambda h: h.start_t)[:8]
    alpha = sum(h.spec.nranks for h in order if h.spec.tenant == "alpha")
    beta = sum(h.spec.nranks for h in order if h.spec.tenant == "beta")
    share = alpha / (alpha + beta)
    assert abs(share - 0.75) <= 0.2 * 0.75
    summary = plane.finish()
    assert summary["completed"] == 12
    assert summary["tenants"]["alpha"]["served_ranks"] == 18.0


def test_submit_at_future_time_defers_enqueue():
    plane = ControlPlane(capacity=4, svc_slots=0)
    handle = plane.submit(_p4(2), at=1.5)
    assert handle.state == "created"
    plane.wait(handle)
    assert handle.submit_t == 1.5
    assert handle.start_t >= 1.5


def test_oversized_gang_is_rejected_outright():
    plane = ControlPlane(capacity=2, svc_slots=0)
    with pytest.raises(ValueError, match="pool has 2"):
        plane.submit(_p4(4))


# -- isolation ---------------------------------------------------------------


def test_rank_kill_recovers_without_touching_the_neighbour_job():
    plane = ControlPlane(capacity=8, svc_slots=2)
    faulty = plane.submit(_v2(
        4, tenant="alpha", params={"rounds": 400, "nbytes": 16384},
        checkpointing=True, ckpt_interval=0.05,
        fault={"kind": "kill", "rank": 1, "at": 0.08}, trace=True,
    ))
    clean = plane.submit(_v2(
        4, tenant="beta", params={"rounds": 400, "nbytes": 16384},
    ))
    plane.drain()
    a, b = faulty.result, clean.result
    # both ran concurrently on the shared cluster
    assert faulty.start_t == 0.0 and clean.start_t == 0.0
    # the kill was detected and recovered entirely inside job A ...
    assert a.restarts >= 1
    assert a.metrics.total("ft.faults") >= 1
    assert a.audit is not None and a.audit.clean
    # ... with per-fault recovery attribution from its private trace
    assert a.extras["mttr"] is not None
    # job B never saw a fault: no restarts, nothing in its registry,
    # and its own audit is clean over the shared EL/store services
    assert b.restarts == 0
    assert b.metrics.total("ft.faults", default=0.0) == 0.0
    assert b.audit is not None and b.audit.clean
    assert plane.finish()["audit_violations"] == 0


def test_finished_jobs_are_evicted_from_shared_services():
    plane = ControlPlane(capacity=4, svc_slots=1)
    handle = plane.submit(_v2(
        2, params={"rounds": 200, "nbytes": 8192},
        checkpointing=True, ckpt_interval=0.05,
    ))
    plane.wait(handle)
    assert handle.result.checkpoints > 0
    tag = handle.result.extras["namespace"]
    for el in plane.loggers:
        assert not any(k[0] == tag for k in el.events)
    for srv in plane.servers:
        assert not any(k[0] == tag for k in srv.manifests)


def test_per_job_metrics_registries_are_isolated():
    plane = ControlPlane(capacity=8, svc_slots=2)
    h1 = plane.submit(_v2(2))
    h2 = plane.submit(_v2(2))
    plane.drain()
    r1, r2 = h1.result, h2.result
    assert r1.metrics is not r2.metrics
    assert r1.metrics is not plane.metrics
    # each job's registry carries its own ranks' client traffic ...
    assert r1.metrics.total("el.roundtrips") > 0
    assert r2.metrics.total("el.roundtrips") > 0
    # ... and none of it leaks into the plane's registry, which keeps
    # only shared-infrastructure and admission metrics
    assert plane.metrics.total("el.roundtrips", default=-1.0) == -1.0
    assert not any(m.name.startswith("ft.") for m in plane.metrics)
    assert plane.metrics.total("serve.completed") == 2


def test_finished_job_drops_its_rng_streams():
    plane = ControlPlane(capacity=4, svc_slots=1)
    handle = plane.submit(_v2(
        2, params={"rounds": 200, "nbytes": 8192},
        checkpointing=True, ckpt_interval=0.05,
    ))
    plane.wait(handle)
    tag = handle.result.extras["namespace"]
    assert not any(
        name.startswith(f"{tag}/") for name in plane.cluster.rng._streams
    )


# -- object lifetimes --------------------------------------------------------


def test_finished_jobs_are_released(monkeypatch):
    """A finished job's dispatcher and daemons become unreachable once
    later jobs have run; what the submitter holds stays readable."""
    import gc
    import weakref

    import repro.serve.plane as plane_mod
    from repro.simnet.livelist import SWEEP_FLOOR

    refs = []
    recording = True

    class Recording(plane_mod.Dispatcher):
        def _spawn_rank(self, rank, host):
            super()._spawn_rank(rank, host)
            if recording:
                refs.append(weakref.ref(self.states[rank].daemon))
                if rank == 0:
                    refs.append(weakref.ref(self))

    monkeypatch.setattr(plane_mod, "Dispatcher", Recording)
    plane = ControlPlane(capacity=8, svc_slots=2)
    early = [plane.submit(_v2(2)) for _ in range(10)]
    plane.drain()
    recording = False
    assert len(refs) == 30  # 10 dispatchers, 20 daemons
    later = [
        plane.submit(_v2(2) if i % 3 == 0 else _p4(2)) for i in range(150)
    ]
    later.append(plane.submit(_v2(
        2, params={"rounds": 200, "nbytes": 8192},
        checkpointing=True, ckpt_interval=0.05,
        fault={"kind": "kill", "rank": 1, "at": 0.06},
    )))
    plane.drain()
    assert later[-1].result.restarts >= 1
    # the long-lived owners keep (about) only live entries, not one per
    # process or connection the 161 jobs ever made
    for host in plane.cluster.net.hosts.values():
        assert len(host._processes) < 2 * SWEEP_FLOOR
        assert len(host._streams) < 2 * SWEEP_FLOOR
    for svc in plane.loggers + plane.servers + [plane.listener]:
        assert len(svc._procs) < 2 * SWEEP_FLOOR
        assert len(svc._conns) < 2 * SWEEP_FLOOR
    assert len(plane.sim._processes) < 8 * SWEEP_FLOOR
    gc.collect()
    assert [r() for r in refs if r() is not None] == []
    for h in early:
        res = h.result
        assert len(res.results) == 2 and None not in res.results
        assert res.metrics.total("el.roundtrips") > 0
        assert res.audit is not None and res.audit.clean
    assert plane.finish()["completed"] == len(early) + len(later)


# -- the wire API ------------------------------------------------------------


def test_plane_listener_serves_submit_and_wait():
    plane = ControlPlane(capacity=4, svc_slots=0)
    client = plane.cluster.add_cn("client")
    sess = Session(
        plane.sim, plane.fabric, client, "plane:0",
        metrics=plane.metrics, labels={"rank": 99},
    )
    got = {}

    def run():
        sess.connect_now()
        yield from sess.write(64, ("SUBMIT", {
            "workload": "token_ring", "nranks": 2,
            "params": {"rounds": 3, "nbytes": 256},
        }))
        got["job"] = yield from sess.read_record()
        yield from sess.write(64, ("WAIT", got["job"][1]))
        got["done"] = yield from sess.read_record()
        yield from sess.write(64, ("WAIT", 999))
        got["err"] = yield from sess.read_record()

    proc = plane.sim.spawn(run(), name="client")
    plane.sim.run_until(proc.done, limit=60.0)
    kind, job_id = got["job"]
    assert kind == "JOB"
    assert got["done"] == ("DONE", job_id, "done")
    assert got["err"][0] == "ERR"
    assert plane.handles[job_id].result.nprocs == 2
