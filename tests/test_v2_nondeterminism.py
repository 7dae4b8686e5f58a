"""Nondeterministic receptions and probes under faults.

The events MPICH-V2 must log are exactly the nondeterministic ones:
ANY_SOURCE matching order and probe outcomes ("the number of probes made
since the last reception influences the next reception, so the receiver
counts this number... in order to replay exactly the same execution").
These tests drive those paths through crashes and assert the replayed
execution reaches the same results.
"""


from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job


def master_worker(mpi, chunks=10, work=0.03):
    """Rank 0 hands out chunks with ANY_SOURCE receives."""
    if mpi.rank == 0:
        handed, done, order = 0, 0, []
        active = mpi.size - 1
        while active:
            msg = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=1)
            worker, result = msg.data
            if result is not None:
                order.append((worker, result))
                done += 1
            if handed < chunks:
                yield from mpi.send(worker, nbytes=32, tag=2, data=handed)
                handed += 1
            else:
                yield from mpi.send(worker, nbytes=16, tag=2, data=None)
                active -= 1
        # the *set* of results is deterministic; the arrival order is the
        # nondeterministic event stream the protocol must replay
        return (done, round(sum(r for _, r in order), 9))
    yield from mpi.send(0, nbytes=32, tag=1, data=(mpi.rank, None))
    while True:
        task = yield from mpi.recv(source=0, tag=2)
        if task.data is None:
            return None
        yield from mpi.compute(seconds=work * (1 + 0.3 * mpi.rank))
        yield from mpi.send(
            0, nbytes=32, tag=1, data=(mpi.rank, 1.0 / (1 + task.data))
        )


def probing_consumer(mpi, items=8):
    """Rank 1 polls with iprobe between compute slices (probe counting)."""
    if mpi.rank == 0:
        for i in range(items):
            yield from mpi.compute(seconds=0.01)
            yield from mpi.send(1, nbytes=64, tag=7, data=float(i))
        return None
    got, polls = [], 0
    while len(got) < items:
        found = yield from mpi.iprobe(source=0, tag=7)
        if found:
            msg = yield from mpi.recv(source=0, tag=7)
            got.append(msg.data)
        else:
            polls += 1
            yield from mpi.compute(seconds=0.002)
    return (round(sum(got), 9), polls > 0)


def test_any_source_results_survive_worker_crash():
    clean = run_job(master_worker, 4, device="v2")
    res = run_job(
        master_worker, 4, device="v2", faults=ExplicitFaults([(0.05, 2)]),
        limit=600.0,
    )
    assert res.restarts == 1
    # same chunk count and same sum of results (the order may legally
    # differ for post-crash receptions, the totals may not)
    assert res.results[0] == clean.results[0]


def test_any_source_results_survive_master_crash():
    """The rank doing the nondeterministic matching crashes: the logged
    event order forces its replay to re-match identically."""
    clean = run_job(master_worker, 4, device="v2")
    res = run_job(
        master_worker, 4, device="v2", faults=ExplicitFaults([(0.06, 0)]),
        limit=600.0,
    )
    assert res.restarts == 1
    assert res.results[0] == clean.results[0]


def test_any_source_with_checkpointing_and_crash():
    clean = run_job(master_worker, 4, device="v2",
                    params={"chunks": 16, "work": 0.08})
    res = run_job(
        master_worker, 4, device="v2", params={"chunks": 16, "work": 0.08},
        checkpointing=True, ckpt_interval=0.08,
        faults=ExplicitFaults([(0.3, 0)]), limit=600.0,
    )
    assert res.restarts == 1
    assert res.results[0] == clean.results[0]


def test_probe_counts_are_logged():
    res = run_job(probing_consumer, 2, device="v2", trace=True)
    el = res.extras["event_loggers"][0]
    recs = el.records_for(1)
    assert any(r.probes > 0 for r in recs), "unsuccessful probes not logged"


def test_probing_survives_consumer_crash():
    clean = run_job(probing_consumer, 2, device="v2")
    res = run_job(
        probing_consumer, 2, device="v2", faults=ExplicitFaults([(0.04, 1)]),
        limit=600.0,
    )
    assert res.restarts == 1
    assert res.results[1] == clean.results[1]


def test_probing_survives_producer_crash():
    clean = run_job(probing_consumer, 2, device="v2")
    res = run_job(
        probing_consumer, 2, device="v2", faults=ExplicitFaults([(0.035, 0)]),
        limit=600.0,
    )
    assert res.restarts == 1
    assert res.results[1] == clean.results[1]


def test_probing_with_checkpoint_restore():
    clean = run_job(probing_consumer, 2, device="v2", params={"items": 14})
    res = run_job(
        probing_consumer, 2, device="v2", params={"items": 14},
        checkpointing=True, ckpt_interval=0.05,
        faults=ExplicitFaults([(0.12, 1)]), limit=600.0,
    )
    assert res.restarts == 1
    assert res.results[1] == clean.results[1]


def test_probing_replay_fast_forwards_through_a_checkpoint(monkeypatch):
    """A kill after a checkpoint: the restarted consumer fast-forwards its
    pre-checkpoint probes (``ReplayState.ff_probe``) before replaying."""
    from repro.core.replay import ReplayState

    ff_probes = []
    ff_probe = ReplayState.ff_probe

    def counting(self):
        ff_probes.append(1)
        return ff_probe(self)

    monkeypatch.setattr(ReplayState, "ff_probe", counting)
    clean = run_job(probing_consumer, 2, device="v2", params={"items": 30})
    res = run_job(
        probing_consumer, 2, device="v2", params={"items": 30},
        checkpointing=True, ckpt_interval=0.05,
        faults=ExplicitFaults([(0.2, 1)]), audit=True, trace=True,
        limit=600.0,
    )
    assert res.results == clean.results
    assert res.restarts == 1
    assert res.audit.clean
    (restart,) = res.tracer.select("v2.restart")
    assert restart["rank"] == 1 and restart["from_recv_seq"] > 0
    assert ff_probes
