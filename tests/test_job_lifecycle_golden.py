"""Golden digests of every job-assembly path.

Each path a job can take from submission to ``JobResult`` -- a private
p4, v1 or v2 cluster, a v2 deployment placed by a §4.7 program file,
and a control-plane mix of p4 and v2 jobs -- is pinned by one SHA-256
over what the run produced: elapsed time, rank results, restarts,
checkpoints, the full metrics registry and the ``(time, kind, fields)``
sequence of the trace, plus the name and simulated spawn time of every
process and the keys of ``JobResult.extras``.  The simulation is seeded and deterministic, so
any change to the order in which hosts are created, services start,
RNG streams are drawn, instruments install or processes spawn moves a
digest.  A refactor of the job lifecycle must leave all of them alone.
"""

import contextlib
import hashlib
import json

import pytest

from repro.ft.failure import ExplicitFaults, ServiceFaults
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.runtime.progfile import parse_progfile
from repro.serve import ControlPlane, JobSpec
from repro.simnet.kernel import Simulator
from repro.workloads import token_ring


def ring(mpi, rounds=8, nbytes=2000, work=0.02):
    """A token ring whose result depends on every message's content."""
    nxt = (mpi.rank + 1) % mpi.size
    prv = (mpi.rank - 1) % mpi.size
    token = [0]
    for _ in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=list(token))
            msg = yield from mpi.recv(source=prv, tag=0)
            token = [msg.data[0] + 1] + msg.data[1:]
        else:
            msg = yield from mpi.recv(source=prv, tag=0)
            token = msg.data + [mpi.rank]
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=token)
        yield from mpi.compute(seconds=work)
    return token


@contextlib.contextmanager
def _spawns():
    """Record ``(now, name)`` of every process spawned inside the block."""
    names = []
    spawn = Simulator.spawn

    def recording(sim, gen, name="proc", supervised=False):
        names.append((sim.now, name))
        return spawn(sim, gen, name=name, supervised=supervised)

    Simulator.spawn = recording
    try:
        yield names
    finally:
        Simulator.spawn = spawn


def _registry(metrics):
    rows = []
    for m in metrics:
        labels = sorted((k, repr(v)) for k, v in m.labels.items())
        rows.append([m.name, m.kind, labels, m.export()])
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows


def _trace(tracer):
    return [
        [rec.time, rec.kind, sorted((k, repr(v)) for k, v in rec.fields.items())]
        for rec in tracer
    ]


def _job(res):
    out = [
        res.device, res.nprocs, res.elapsed, repr(res.results), res.restarts,
        res.checkpoints, _registry(res.metrics), _trace(res.tracer),
        sorted(res.extras),
    ]
    if res.audit is not None:
        out.append([res.audit.verdict, res.audit.checks, res.audit.events_seen,
                    res.audit.vclocks])
    if res.timeseries is not None:
        out.append(res.timeseries.as_dict())
    return out


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def p4_private():
    return _job(run_job(ring, 4, device="p4", trace=True, seed=3))


def v1_private_cm_fault():
    res = run_job(
        ring, 4, device="v1", trace=True, seed=5,
        params={"rounds": 10, "work": 0.05},
        faults=[ServiceFaults([(0.1, "cm:0", 0.2)]), ExplicitFaults([(0.3, 2)])],
        audit=True, timeseries=0.1, limit=600.0,
    )
    assert res.restarts == 1 and res.timeseries.names()
    return _job(res)


def v2_private_ckpt_shards_kill():
    res = run_job(
        ring, 4, device="v2", trace=True, seed=7,
        params={"rounds": 12, "work": 0.1},
        checkpointing=True, ckpt_interval=0.1,
        cfg=DEFAULT_TESTBED.with_(el_servers=2),
        faults=ExplicitFaults([(0.55, 1)]), audit=True, timeseries=0.1,
        limit=600.0,
    )
    assert res.restarts == 1 and res.checkpoints > 0 and res.audit.clean
    return _job(res)


PROGFILE = """
node01  CN
node02  CN
node03  CN
spareA  SPARE
front   EL
front   SC
front   DISPATCHER
storage CS
"""


def v2_progfile_plan():
    res = run_job(
        ring, 3, device="v2", trace=True, seed=2,
        plan=parse_progfile(PROGFILE),
        faults=ExplicitFaults([(0.05, 2)]), limit=600.0,
    )
    assert res.extras["dispatcher"].states[2].host.name == "spareA"
    return _job(res)


def plane_mix():
    plane = ControlPlane(seed=4, capacity=6, svc_slots=2, trace=True)
    specs = [
        JobSpec(workload=token_ring, nranks=2, device="p4", trace=True,
                params={"rounds": 4, "nbytes": 512}),
        JobSpec(workload=token_ring, nranks=3, device="v2", trace=True,
                audit=True, checkpointing=True, ckpt_interval=0.05,
                params={"rounds": 200, "nbytes": 8192},
                fault={"kind": "kill", "rank": 1, "at": 0.06}),
        JobSpec(workload=token_ring, nranks=4, device="p4", trace=True,
                tenant="beta", audit=True, params={"rounds": 3, "nbytes": 1024}),
        JobSpec(workload=token_ring, nranks=2, device="v2", trace=True,
                tenant="beta", params={"rounds": 20, "nbytes": 2048}),
        JobSpec(workload=token_ring, nranks=1, device="p4", trace=True,
                params={"rounds": 2, "nbytes": 256}),
    ]
    handles = [
        plane.submit(spec, at=0.01 * i) for i, spec in enumerate(specs)
    ]
    plane.drain()
    summary = plane.finish()
    assert summary["completed"] == len(specs)
    assert handles[1].result.restarts == 1
    jobs = [
        [h.job_id, h.submit_t, h.start_t, h.result.extras["timed_out"],
         h.result.audit.verdict if h.result.audit else None, _job(h.result)]
        for h in handles
    ]
    return [summary, jobs, _registry(plane.metrics), _trace(plane.cluster.tracer)]


#: digests generated before the lifecycle refactor; they must not move
GOLDEN = {
    "p4_private": (
        "a05da38eb74ec3bb5f6f0049a6d7dccb"
        "9e77d9cd1a273cbd914665b89eb54c69"
    ),
    "v1_private_cm_fault": (
        "3760fb3ae352a1256e1d0bd081ce787e"
        "4883273b8b5041124bd583d842a600c7"
    ),
    "v2_private_ckpt_shards_kill": (
        "0bf8cdc54d2ad3384b2b7f4a64d46b04"
        "de70acdb659541aa39a20d2ab67ae027"
    ),
    "v2_progfile_plan": (
        "dd9bb81a6ccf5e3205bfe3ee39e11bd5"
        "f1e651259513aee60ea86bd25cb01e7a"
    ),
    "plane_mix": (
        "83b7fa054b9e29e2321dee6b78f69efe"
        "c0614faa780ccb0dc0e13e995f5c01b9"
    ),
}

PATHS = {
    "p4_private": p4_private,
    "v1_private_cm_fault": v1_private_cm_fault,
    "v2_private_ckpt_shards_kill": v2_private_ckpt_shards_kill,
    "v2_progfile_plan": v2_progfile_plan,
    "plane_mix": plane_mix,
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_job_path_is_bit_identical(path):
    with _spawns() as names:
        out = PATHS[path]()
    assert _sha([out, names]) == GOLDEN[path]
