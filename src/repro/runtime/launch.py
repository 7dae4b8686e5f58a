"""One job lifecycle: place, instrument, start, run, teardown, finalize.

Every job -- on a private cluster (:func:`~repro.runtime.mpirun.run_job`)
or as one gang of a shared control plane (:mod:`repro.serve`) -- goes
through the same pieces, in the same order:

1. a :class:`Site` says where the job runs: the cluster, the fabric view,
   the job's tracer and registry and, on a plane, the admitted gang;
2. :class:`Instruments` attaches the job's observers (protocol auditor,
   kernel profiler, time-series sampler) before anything is deployed;
3. the device's :class:`Launch` strategy deploys its services and
   devices, spawns the ranks and exposes ``done`` (resolved with the
   rank results);
4. the caller waits on ``done``, then :meth:`Launch.teardown` releases
   what the job holds on a shared plane (or folds end-of-run counters);
5. :func:`finalize` folds the device counters into the job's registry,
   finishes the observers and builds the :class:`JobResult`.

The strategies are :class:`~repro.runtime.mpirun.P4Launch`,
:class:`~repro.devices.v1.V1Launch` and, for V2, the
:class:`~repro.ft.dispatcher.Dispatcher` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..mpi.api import MPI
from ..obs.collect import fold_device_stats
from ..simnet.kernel import Future, Killed
from ..simnet.node import Host
from .cluster import Cluster
from .fabric import Fabric
from .results import JobResult

__all__ = ["Instruments", "Launch", "RankState", "Site", "finalize"]


@dataclass(eq=False)
class RankState:
    """The launcher's view of one MPI rank across its incarnations."""

    rank: int
    host: Optional[Host] = None
    incarnation: int = -1
    mpi: Optional[MPI] = None
    daemon: Optional[Any] = None  # the V2 daemon of this incarnation
    finished: bool = False
    result: Any = None
    finish_time: float = 0.0
    spawn_time: float = 0.0  # when this incarnation was launched
    restarts: int = 0


@dataclass(eq=False)
class Site:
    """Where one job runs: a private cluster, or a gang on a shared plane.

    A private site owns its cluster and creates its machines; the fabric,
    tracer and registry default to the cluster's.  A plane site
    (``plane`` set) hands the job its fabric view, its own tracer and
    registry, an admitted gang of computing nodes (``hosts``), a service
    host (``svc_host``, v2 only), its
    :class:`~repro.serve.namespace.JobNamespace` and the plane's shared
    event-logger and store services.
    """

    cluster: Cluster
    fabric: Any = None
    tracer: Any = None
    metrics: Any = None
    hosts: Optional[list[Host]] = None
    svc_host: Optional[Host] = None
    ns: Any = None
    plane: Any = None

    def __post_init__(self) -> None:
        self.sim = self.cluster.sim
        self.cfg = self.cluster.cfg
        if self.fabric is None:
            self.fabric = Fabric(self.cluster)
        if self.tracer is None:
            self.tracer = self.cluster.tracer
        if self.metrics is None:
            self.metrics = self.cluster.metrics


class Instruments:
    """The observers of one job: attached before deploy, finished after.

    ``profile`` hooks the kernel profiler into ``sim``; ``timeseries``
    samples selected registry metrics on a simulated-time cadence
    (``True`` for the default interval, a number to override it);
    ``audit`` subscribes the online protocol auditor to ``tracer``
    (``audit_hb`` also builds the happens-before graph).
    """

    def __init__(
        self,
        sim: Any,
        tracer: Any,
        metrics: Any,
        *,
        audit: bool = False,
        audit_hb: bool = False,
        profile: bool = False,
        timeseries: Any = False,
    ) -> None:
        self.profiler = None
        if profile:
            from ..obs.profile import KernelProfiler

            self.profiler = KernelProfiler().install(sim)
        self.sampler = None
        if timeseries:
            from ..obs.timeseries import TimeseriesSampler

            self.sampler = TimeseriesSampler.from_flag(metrics, timeseries)
            self.sampler.install(sim)
        self.auditor = None
        if audit:
            from ..obs.audit import ProtocolAuditor

            self.auditor = ProtocolAuditor(hb_graph=audit_hb).attach(tracer)

    def finish(self, now: float) -> tuple[Any, Any]:
        """Close the series at ``now``; return (audit report, profile)."""
        if self.sampler is not None:
            self.sampler.sample(now)
        report = self.auditor.finish() if self.auditor is not None else None
        prof = self.profiler.finish() if self.profiler is not None else None
        return report, prof


@dataclass(eq=False)
class Launch:
    """One device's strategy for deploying and running a job.

    The fields are the job's program and the device's options.
    Subclasses implement :meth:`start` (deploy services and devices,
    spawn the ranks, set ``states`` and ``done``) and may override
    :meth:`teardown`, :meth:`extras` and :meth:`lost_results`.
    """

    program: Callable
    params: dict[str, Any]
    nprocs: int

    device = ""

    def start(self, site: Site) -> None:
        """Deploy the job on ``site`` and spawn its ranks."""
        self.site = site
        self.sim, self.cfg = site.sim, site.cfg
        self.cluster, self.fabric = site.cluster, site.fabric
        # the job's own observers (a plane job never shares a registry)
        self.tracer, self.metrics = site.tracer, site.metrics

    def teardown(self) -> None:
        """After the run: on a plane, hand the gang's machines back clean.

        The crash kills straggler processes and breaks the job's
        streams; the restart returns the machine to the pool, full
        duplex as it was admitted.
        """
        if self.site.plane is None:
            return
        for host in self.site.hosts:
            host.crash()
            host.on_crash.clear()  # stale supervision callbacks
            host.restart()
            host.full_duplex = True

    def _finished(self, rank: int, incarnation: int, fut: Future) -> None:
        """Record one rank process's end; resolve ``done`` once all finished.

        Stale incarnations are ignored, a killed process waits for its
        restart, and any other failure aborts the job loudly.
        """
        st = self.states[rank]
        if st.incarnation != incarnation:
            return
        exc = fut.exception
        if exc is None:
            st.finish_time, st.result = fut.value
            st.finished = True
            if all(s.finished for s in self.states):
                self.done.resolve_if_pending([s.result for s in self.states])
            return
        if isinstance(exc, Killed):
            return  # the host crashed; the launcher drives the restart
        self.done.fail_if_pending(exc)

    def extras(self) -> dict[str, Any]:
        """Device-specific ``JobResult.extras`` entries."""
        return {}

    def lost_results(self) -> list[Any]:
        """``JobResult.results`` of a job that ran out of time."""
        return []

    def _inject_faults(self, name: str, helper_host: Host, **hooks: Any) -> None:
        """Spawn the fault driver over the job's fault context.

        A list of plans runs them composed.  The driver and the helper
        processes it spawns run on ``helper_host``; ``hooks`` adds the
        device's infrastructure faults (partitions, link flaps).  Service
        faults go through the device's ``supervisor``.
        """
        from ..ft.failure import ComposedFaults, FaultContext

        if isinstance(self.faults, (list, tuple)):
            self.faults = ComposedFaults(tuple(self.faults))
        sup = self.supervisor

        def spawn(gen, label: str):
            p = self.sim.spawn(gen, name=label)
            helper_host.register(p)
            return p

        ctx = FaultContext(
            sim=self.sim,
            alive_unfinished=lambda: [
                st.rank for st in self.states
                if not st.finished and st.host is not None
                and not st.host.failed
            ],
            kill=self._kill,
            job_running=lambda: not self.done.done,
            crash_service=sup.crash if sup is not None else None,
            restart_service=sup.restart if sup is not None else None,
            spawn=spawn,
            service_names=tuple(sorted(sup.services)) if sup is not None else (),
            **hooks,
        )
        spawn(self.faults.driver(ctx), name)


def finalize(
    job: Launch,
    instruments: Instruments,
    *,
    t0: float = 0.0,
    timed_out: bool = False,
    extras: Optional[dict[str, Any]] = None,
) -> JobResult:
    """Fold the job's device counters into its registry; build the result.

    ``t0`` is the job's start in simulated time (elapsed is measured
    from it); a ``timed_out`` job reports the time it was given and
    :meth:`Launch.lost_results`.
    """
    site = job.site
    metrics = site.metrics
    live = [st for st in job.states if st.mpi is not None]
    fold_device_stats(
        metrics, {st.rank: st.mpi.device.stats for st in live}, job.device
    )
    report, prof = instruments.finish(site.sim.now)
    if timed_out:
        elapsed, results = site.sim.now - t0, job.lost_results()
    else:
        elapsed = max(st.finish_time for st in job.states) - t0
        results = [st.result for st in job.states]
    return JobResult(
        nprocs=job.nprocs,
        device=job.device,
        elapsed=elapsed,
        results=results,
        timers={st.rank: st.mpi.timer for st in live},
        tracer=site.tracer,
        restarts=sum(st.restarts for st in job.states),
        checkpoints=int(metrics.total("ckpt.images")),
        metrics=metrics,
        audit=report,
        profile=prof,
        timeseries=instruments.sampler,
        extras={**(extras or {}), **job.extras()},
    )
