"""mpirun: launch an MPI program on a simulated deployment.

The user-facing entry point is :func:`run_job`: pick a device
("p4", "v1", "v2"), a program (a generator function taking an
:class:`~repro.mpi.api.MPI` context), a process count, and run.  Each
device's launch strategy (:mod:`repro.runtime.launch`) encapsulates the
paper's per-implementation deployment:

* **p4** — computing nodes only, all-to-all direct streams
  (:class:`P4Launch`, here);
* **v1** — computing nodes + reliable Channel Memory nodes (default 1 CM
  per 4 CNs, the ratio of the paper's Figure 8 setup;
  :class:`~repro.devices.v1.V1Launch`);
* **v2** — computing nodes + reliable node(s) hosting the dispatcher,
  event logger and checkpoint scheduler, + checkpoint server; full fault
  tolerance (failure injection, restart, replay;
  the :class:`~repro.ft.dispatcher.Dispatcher`).

``run_job`` is that launcher on a private cluster; the control plane
runs the same strategies over a shared one.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from ..devices.p4 import P4Device
from ..mpi.api import MPI
from ..obs.collect import fold_cluster
from ..simnet.kernel import Future
from .cluster import Cluster
from .config import DEFAULT_TESTBED, TestbedConfig
from .launch import Instruments, Launch, RankState, Site, finalize
from .results import JobResult

__all__ = ["run_job", "rank_main", "P4Launch"]

Program = Callable[..., Generator[Future, Any, Any]]


def rank_main(mpi: MPI, program: Program, params: dict[str, Any]):
    """The wrapper every rank runs: init, program, finalize."""
    yield from mpi.init()
    result = yield from program(mpi, **params)
    yield from mpi.finalize()
    return (mpi.sim.now, result)


def run_job(
    program: Program,
    nprocs: int,
    device: str = "p4",
    cfg: TestbedConfig = DEFAULT_TESTBED,
    params: Optional[dict[str, Any]] = None,
    trace: bool = False,
    seed: int = 0,
    limit: Optional[float] = None,
    audit: bool = False,
    profile: bool = False,
    timeseries: Any = False,
    **device_kw: Any,
) -> JobResult:
    """Run ``program`` on ``nprocs`` simulated processes; block to completion.

    ``limit`` bounds simulated seconds (raises if exceeded).  ``audit``
    attaches the online protocol auditor to the run's live trace stream
    and reports the verdict in ``JobResult.audit`` (for p4/v1 only the
    causal-clock stamping applies — the V2 invariant checks have nothing
    to fire on).  ``profile`` hooks the event-kernel profiler into the
    simulator and reports the :class:`~repro.obs.profile.KernelProfile`
    in ``JobResult.profile``.  ``timeseries`` samples selected registry
    metrics on a simulated-time cadence (``True`` for the default 0.5 s
    interval, a number to override it) into
    ``JobResult.timeseries`` (a
    :class:`~repro.obs.timeseries.TimeseriesSampler`).  ``audit_hb=True``
    (a keyword option) also builds the auditor's happens-before graph.
    Other keyword arguments are forwarded to the device's launch strategy
    (fault schedules, checkpoint policies, spare machines, ...).
    """
    params = params or {}
    audit_hb = device_kw.pop("audit_hb", False)
    job = _launcher(device)(program, params, nprocs, **device_kw)
    cluster = Cluster(cfg, seed=seed, trace=trace)
    instruments = Instruments(
        cluster.sim, cluster.tracer, cluster.metrics, audit=audit,
        audit_hb=audit_hb, profile=profile, timeseries=timeseries,
    )
    job.start(Site(cluster))
    cluster.sim.run_until(job.done, limit=limit)
    job.teardown()
    fold_cluster(cluster)
    return finalize(job, instruments)


def _launcher(device: str) -> type[Launch]:
    """The launch strategy of one device."""
    if device == "p4":
        return P4Launch
    if device == "v1":
        from ..devices.v1 import V1Launch

        return V1Launch
    if device == "v2":
        from ..ft.dispatcher import Dispatcher

        return Dispatcher
    raise ValueError(f"unknown device {device!r} (expected p4/v1/v2)")


class P4Launch(Launch):
    """MPICH-P4: computing nodes only, all-to-all direct streams."""

    device = "p4"

    def start(self, site: Site) -> None:
        super().start(site)
        sim, n = self.sim, self.nprocs
        hosts = site.hosts or [self.cluster.add_cn(f"cn{r}") for r in range(n)]
        # the P4 driver's process cannot service receptions while pushing
        for host in hosts:
            host.full_duplex = False
        devices = [
            P4Device(sim, self.cfg, r, n, hosts[r], tracer=self.tracer)
            for r in range(n)
        ]
        ends: list[dict[int, Any]] = [dict() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                s = self.cluster.connect(hosts[i], hosts[j])
                ends[i][j] = s.end_for(hosts[i])
                ends[j][i] = s.end_for(hosts[j])
        self.states = [RankState(r) for r in range(n)]
        for st in self.states:
            devices[st.rank].wire(ends[st.rank])
            st.host, st.incarnation = hosts[st.rank], 0
            st.mpi = MPI(sim, st.rank, n, devices[st.rank], tracer=self.tracer)
        self.done = sim.future("p4.job.done")
        prefix = f"{site.ns.tag}." if site.ns is not None else ""
        for st in self.states:
            p = sim.spawn(
                rank_main(st.mpi, self.program, self.params),
                name=f"{prefix}rank{st.rank}",
            )
            st.host.register(p)
            p.done.add_done_callback(partial(self._finished, st.rank, 0))

    def lost_results(self) -> list[Any]:
        return [None] * self.nprocs
