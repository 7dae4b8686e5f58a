"""The Dispatcher: launch, monitor, and restart (the mpirun of Section 4.7).

"The execution monitor first launches the execution of the different
programs (CS, EL, SC, CN), and then monitors the execution potentially
re-launching the crashed programs. ... a socket disconnection is
considered as a trusty fault detector."

The :class:`Dispatcher` is therefore MPICH-V2's launch strategy (see
:mod:`repro.runtime.launch`), used by ``run_job`` and by the control
plane alike: it assembles the paper's typical deployment — volatile
computing nodes, one reliable node hosting dispatcher + event logger(s)
+ checkpoint scheduler, one reliable node for the checkpoint server — or
joins a plane's shared services, wires the fault injector, launches
every rank and restarts each crashed one through the recovery protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from ..core.v2_device import V2Daemon, V2Device
from ..mpi.api import MPI
from ..runtime.launch import Launch, RankState, Site
from ..runtime.mpirun import rank_main
from ..runtime.progfile import DeploymentPlan
from ..runtime.session import ServiceBase
from ..simnet.kernel import Future
from ..simnet.node import Host
from ..simnet.streams import Disconnected, StreamEnd
from .ckpt_scheduler import CheckpointScheduler
from .deploy import deploy_el_groups, deploy_store
from .services import ServiceSupervisor

__all__ = ["Dispatcher"]


class _ControlListener(ServiceBase):
    """The dispatcher's daemon-facing control service.

    Daemons report UNRECOVERABLE (a rank whose image is gone but whose
    logs were garbage-collected) and FINALIZED over this link.  On the
    shared service lifecycle the listener can be stopped and restarted
    without leaking acceptors — the old inline accept loop could not.
    """

    metric_ns = "disp"

    def __init__(self, dispatcher: "Dispatcher", *args: Any, **kw: Any) -> None:
        super().__init__(*args, **kw)
        self._dispatcher = dispatcher
        self._rank_of: dict[int, int] = {}  # id(end) -> rank

    def on_accept(self, end: StreamEnd, hello: Any) -> None:
        # hello = ("HELLO", rank, incarnation); a (re)connect is itself
        # a liveness proof, so it refreshes the heartbeat clock too
        if type(hello) is tuple and len(hello) >= 2 and hello[0] == "HELLO":
            self._rank_of[id(end)] = hello[1]
            self._dispatcher.note_heartbeat(hello[1])
        super().on_accept(end, hello)

    def on_ping(self, end: StreamEnd, msg: tuple) -> None:
        rank = self._rank_of.get(id(end))
        if rank is not None:
            self._dispatcher.note_heartbeat(rank)

    def on_stop(self, cause: Any) -> None:
        self._rank_of.clear()

    def _serve(self, end: StreamEnd, hello: Any):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                return  # crash detection is handled via host.on_crash
            if msg[0] == "UNRECOVERABLE":
                # a rank's checkpoint image is gone but its logs were
                # already garbage-collected: per-process replay is
                # impossible and the whole application restarts from
                # scratch ("restart from scratch, at worst", Section 4.3)
                self._dispatcher._trigger_global_restart()
            # FINALIZED messages are informational; completion is tracked
            # through the app process future (same information, no race)


@dataclass(eq=False)
class Dispatcher(Launch):
    """Deploys a V2 job, launches its ranks and restarts them on failure.

    On a private site the paper's typical setup is deployed: one
    reliable machine hosting the dispatcher, the event logger(s) and the
    checkpoint scheduler, one reliable machine for the checkpoint
    server, plus the volatile computing nodes.  A
    :class:`~repro.runtime.progfile.DeploymentPlan` (e.g. parsed from a
    §4.7 program file) overrides machine placement; its computing-node
    count must match ``nprocs``.  On a plane site the job reuses the
    plane's shared EL shards and store replicas under its namespace, and
    the dispatcher and scheduler run on the admitted service host.

    ``mutations`` is a test-only set of deliberate protocol violations
    to seed (see :class:`~repro.core.v2_device.V2Daemon`) so the
    auditor's detectors can be exercised.  ``on_ready`` is called with
    the deployment's components before the run starts (a test/chaos
    hook for scheduling failures of auxiliary components).
    """

    device = "v2"

    checkpointing: bool = False
    ckpt_policy: str = "round_robin"
    ckpt_interval: float = 30.0
    ckpt_continuous: bool = False
    faults: Optional[Any] = None
    spares: int = 0
    on_ready: Optional[Callable[[dict], None]] = None
    plan: Optional[DeploymentPlan] = None
    mutations: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.plan is not None and self.plan.nprocs != self.nprocs:
            raise ValueError(
                f"program file declares {self.plan.nprocs} computing nodes, "
                f"job asked for {self.nprocs}"
            )

    # -- launch --------------------------------------------------------------
    def start(self, site: Site) -> None:
        """Deploy (or join) the services, listen, launch every rank."""
        super().start(site)
        ns, plane = site.ns, site.plane
        #: rank -> identity on shared EL/store services (None = bare rank)
        self.job_key = ns.key if ns is not None else None
        #: disambiguates named RNG streams when jobs share one registry
        self.rng_ns = ns.prefix if ns is not None else ""
        if plane is None:
            self._deploy()
        else:
            self.el_groups, self.loggers = plane.el_groups, plane.loggers
            self.cs_names, self.servers = plane.cs_names, plane.servers
            self.host = self.sched_host = site.svc_host
            self.cn_hosts, self.spare_hosts = site.hosts, []
            self.supervisor = None
            plane.router.register(ns.tag, site.tracer)
        self.scheduler = None
        self.sched_name = None
        if self.checkpointing:
            self.scheduler = CheckpointScheduler(
                self.sim, self.sched_host, self.fabric, self.cfg, self.nprocs,
                policy=self.ckpt_policy,
                interval=self.ckpt_interval,
                continuous=self.ckpt_continuous,
                rng=self.cluster.rng.stream(f"{self.rng_ns}ckpt-sched"),
                tracer=self.tracer,
                cs_names=tuple(self.cs_names),
                metrics=self.metrics,
                key_of=self.job_key,
            )
            self.scheduler.start()
            self.sched_name = self.scheduler.name
        self._monitor_state()
        self.listener.start()
        for r in range(self.nprocs):
            self._spawn_rank(r, self.cn_hosts[r])
        if self.cfg.hb_interval > 0 and self.cfg.hb_timeout > 0:
            p = self.sim.spawn(self._hb_monitor(), name="disp.hb-monitor")
            self.host.register(p)
        if self.faults is not None:
            self._inject_faults(
                f"{ns.tag}.faults" if ns is not None else "fault-injector",
                self.host, partition=self._partition, flap_link=self._flap_link,
            )
        if self.on_ready is not None:
            self.on_ready({
                "sim": self.sim,
                "cluster": self.cluster,
                "dispatcher": self,
                "cs_host": self.cs_hosts[0],
                "cs_hosts": self.cs_hosts,
                "service_host": self.host,
                "checkpoint_server": self.servers[0],
                "checkpoint_servers": self.servers,
                "event_loggers": self.loggers,
                "supervisor": self.supervisor,
                "network": self.cluster.net,
            })

    def _deploy(self) -> None:
        """Machines and services of a private deployment."""
        cluster, cfg, plan = self.cluster, self.cfg, self.plan
        n_cs = max(1, cfg.ckpt_servers)
        n_el = max(1, cfg.el_servers)
        if plan is None:
            self.host = cluster.add_aux("service")  # dispatcher + EL(s) + SC
            self.cs_hosts = [
                cluster.add_aux("cs-host" if i == 0 else f"cs-host{i}")
                for i in range(n_cs)
            ]
            self.cn_hosts = [
                cluster.add_cn(f"cn{r}") for r in range(self.nprocs)
            ]
            self.spare_hosts = [
                cluster.add_cn(f"spare{i}") for i in range(self.spares)
            ]
            el_hosts = [self.host] * n_el
            self.sched_host = self.host
        else:
            aux = set(plan.els) | {plan.cs, plan.scheduler, plan.dispatcher}
            machines = {
                name: cluster.add_aux(
                    name, site=plan.options.get(name, {}).get("site", "site0")
                )
                for name in sorted(aux)
            }
            for name in plan.cns + plan.spares:
                machines[name] = cluster.add_cn(
                    name, site=plan.options.get(name, {}).get("site", "site0")
                )
            self.cn_hosts = [machines[n] for n in plan.cns]
            self.spare_hosts = [machines[n] for n in plan.spares]
            el_hosts = [machines[n] for n in plan.els]
            # the §4.7 program-file grammar names a single CS machine;
            # extra replicas colocate there (they still fail independently
            # as *services* under the supervisor)
            self.cs_hosts = [machines[plan.cs]] * n_cs
            self.sched_host = machines[plan.scheduler]
            self.host = machines[plan.dispatcher]
            n_el = len(plan.els)
        self.supervisor = ServiceSupervisor(
            self.sim, cfg, tracer=self.tracer, metrics=self.metrics
        )
        # the control plane builds its shared services with the same
        # helpers, so both encode one service topology
        self.el_groups, self.loggers = deploy_el_groups(
            cluster, self.fabric, cfg, el_hosts,
            n_shards=n_el, supervisor=self.supervisor,
        )
        self.cs_names, self.servers = deploy_store(
            cluster, self.fabric, cfg, self.cs_hosts,
            supervisor=self.supervisor, mutations=self.mutations,
        )

    def _monitor_state(self) -> None:
        """Rank table, fault/recovery metrics and the control listener."""
        self.states = [RankState(r) for r in range(self.nprocs)]
        self.done = Future(self.sim, name="dispatcher.done")
        self.global_restarts = 0
        self._global_restarting = False
        m = self.metrics
        self._m_faults = m.counter("ft.faults")
        self._m_restarts = m.counter("ft.restarts")
        self._m_global_restarts = m.counter("ft.global_restarts")
        self._m_downtime = m.histogram("ft.downtime_s")
        self._m_suspected = m.counter("disp.suspected")
        self._m_suspect = m.gauge("disp.suspect")
        # fault -> detection latency, split by which detector fired: the
        # socket-disconnection detector (the paper's "trusty" one) or the
        # heartbeat monitor that had already flagged the rank suspect
        self._m_detect_lat = {
            "socket": m.histogram("disp.detect_latency_s", source="socket"),
            "heartbeat": m.histogram("disp.detect_latency_s", source="heartbeat"),
        }
        # ranks currently between fault and caught-up (outstanding
        # recoveries), kept as a time-weighted gauge for the sampler
        self.recovering: set[int] = set()
        self._m_recovering = m.gauge("disp.recovering")
        self.tracer.subscribe(self._note_caught_up, kinds={"v2.caught_up"})
        # heartbeat bookkeeping: last PING (or accept) per rank, and the
        # set of ranks whose link has gone quiet past hb_timeout —
        # partitioned-but-alive daemons the socket detector cannot see
        self.last_hb: dict[int, float] = {}
        self.suspects: set[int] = set()
        self.listener = _ControlListener(
            self, self.sim, self.host, self.fabric, "dispatcher",
            tracer=self.tracer, metrics=self.metrics,
        )

    # -- heartbeat monitoring ------------------------------------------------
    def note_heartbeat(self, rank: int) -> None:
        """A PING (or fresh control connection) arrived from ``rank``."""
        if not (0 <= rank < self.nprocs):
            return
        self.last_hb[rank] = self.sim.now
        if rank in self.suspects:
            self.suspects.discard(rank)
            self._m_suspect.set(float(len(self.suspects)), self.sim.now)
            self.tracer.emit(self.sim.now, "ft.suspect_clear", rank=rank)

    def _hb_monitor(self):
        """Flag ranks whose heartbeats stopped without a socket break.

        A crashed host tears its control stream down and the socket
        detector handles it; this loop catches the *partitioned* case,
        where the stream stays up but nothing flows."""
        timeout = self.cfg.hb_timeout
        while not self.done.done:
            yield self.sim.pause(timeout / 2)
            now = self.sim.now
            for st in self.states:
                r = st.rank
                if st.finished or st.host is None or st.host.failed:
                    continue
                seen = self.last_hb.get(r, st.spawn_time)
                if now - seen > timeout and r not in self.suspects:
                    self.suspects.add(r)
                    self._m_suspected.inc()
                    self._m_suspect.set(float(len(self.suspects)), now)
                    self.tracer.emit(
                        now, "ft.suspect", rank=r, quiet_s=now - seen
                    )

    def _note_caught_up(self, time: float, kind: str, fields: dict) -> None:
        rank = fields.get("rank")
        if rank in self.recovering:
            self.recovering.discard(rank)
            self._m_recovering.set(float(len(self.recovering)), time)

    def _trigger_global_restart(self) -> None:
        if self._global_restarting or self.done.done:
            return
        self._global_restarting = True
        p = self.sim.spawn(self._global_restart(), name="disp.global-restart")
        self.host.register(p)

    def _global_restart(self):
        self.tracer.emit(self.sim.now, "ft.global_restart")
        self._m_global_restarts.inc()
        # per-rank recovery arcs are superseded by the global one
        self.recovering.clear()
        self._m_recovering.set(0.0, self.sim.now)
        # invalidate every per-rank monitor/restart before tearing down
        for st in self.states:
            st.incarnation += 1
            st.finished = False
        for st in self.states:
            if st.host is not None and not st.host.failed:
                st.host.crash()
        yield self.sim.pause(
            self.cfg.restart_detect_delay + self.cfg.restart_spawn_delay
        )
        if self.done.done:
            return
        # the previous execution's logs describe a dead history: wipe them
        self._wipe_logs()
        for st in self.states:
            if st.host is not None and st.host.failed:
                st.host.restart()
        self.global_restarts += 1
        self._global_restarting = False
        for st in self.states:
            # incarnation was already bumped; _spawn_rank bumps again, so
            # compensate to keep the sequence dense
            st.incarnation -= 1
            self._spawn_rank(st.rank, st.host)

    def _spawn_rank(self, rank: int, host: Host) -> None:
        st = self.states[rank]
        st.host = host
        st.spawn_time = self.sim.now
        st.incarnation += 1
        incarnation = st.incarnation
        daemon = V2Daemon(
            self.sim,
            self.cfg,
            self.fabric,
            rank,
            self.nprocs,
            host,
            incarnation=incarnation,
            el_names=self.el_groups[rank % len(self.el_groups)],
            cs_names=self.cs_names,
            sched_name=self.sched_name,
            dispatcher_name="dispatcher",
            tracer=self.tracer,
            metrics=self.metrics,
            mutations=self.mutations,
            rng=self.cluster.rng.stream(f"{self.rng_ns}reconnect:d{rank}"),
            job_key=self.job_key(rank) if self.job_key is not None else None,
        )
        device = V2Device(
            self.sim, self.cfg, rank, self.nprocs, host, daemon,
            tracer=self.tracer,
        )
        mpi = MPI(self.sim, rank, self.nprocs, device, tracer=self.tracer)
        st.daemon = daemon
        st.mpi = mpi

        dproc = self.sim.spawn(
            daemon.start(), name=f"daemon{rank}.i{incarnation}"
        )
        host.register(dproc)
        aproc = self.sim.spawn(
            rank_main(mpi, self.program, self.params),
            name=f"rank{rank}.i{incarnation}",
            supervised=True,
        )
        host.register(aproc)
        aproc.done.add_done_callback(partial(self._finished, rank, incarnation))
        host.on_crash.append(
            lambda h, r=rank, inc=incarnation: self._on_host_crash(r, inc)
        )

    # -- monitoring / recovery ---------------------------------------------------
    def _on_host_crash(self, rank: int, incarnation: int) -> None:
        st = self.states[rank]
        if st.incarnation != incarnation or self.done.done:
            return
        self.recovering.add(rank)
        self._m_recovering.set(float(len(self.recovering)), self.sim.now)
        p = self.sim.spawn(
            self._restart(rank, incarnation), name=f"disp.restart{rank}"
        )
        self.host.register(p)

    def _restart(self, rank: int, incarnation: int):
        st = self.states[rank]
        t_crash = self.sim.now
        yield self.sim.pause(self.cfg.restart_detect_delay)
        if self.done.done or st.incarnation != incarnation:
            return
        # a rank already flagged by the heartbeat monitor (partitioned,
        # then crashed) is attributed to the heartbeat detector; the
        # common crash path is the socket-disconnection detector
        source = "heartbeat" if rank in self.suspects else "socket"
        latency = self.sim.now - t_crash
        self._m_detect_lat[source].observe(latency)
        self.tracer.emit(
            self.sim.now, "ft.detect", rank=rank, source=source,
            latency_s=latency,
        )
        host = self.spare_hosts.pop(0) if self.spare_hosts else st.host
        yield self.sim.pause(self.cfg.restart_spawn_delay)
        if self.done.done or st.incarnation != incarnation:
            return
        if host.failed:
            host.restart()
        st.finished = False  # a finished rank can be re-executed to serve peers
        st.restarts += 1
        self._m_restarts.inc()
        self._m_downtime.observe(self.sim.now - t_crash)
        self.tracer.emit(
            self.sim.now, "ft.restart", rank=rank, incarnation=incarnation + 1,
            host=host.name,
        )
        self._spawn_rank(rank, host)

    # -- fault injection -----------------------------------------------------
    def _kill(self, rank: int) -> bool:
        st = self.states[rank]
        if st.host is None or st.host.failed or self.done.done:
            return False
        self.tracer.emit(self.sim.now, "ft.fault", rank=rank)
        self._m_faults.inc()
        st.host.crash()
        return True

    def _partition(self, ranks, duration: float):
        """Cut the hosts of ``ranks`` off from everything else."""
        net = self.cluster.net
        group = {
            self.states[r].host
            for r in ranks
            if self.states[r].host is not None
        }
        rest = [h for h in net.hosts.values() if h not in group]
        return net.partition(group, rest, duration)

    def _flap_link(self, a: int, b: int) -> int:
        """Break the live streams between the hosts of ranks a and b."""
        ha, hb = self.states[a].host, self.states[b].host
        if ha is None or hb is None or ha.failed or hb.failed:
            return 0
        return self.cluster.net.break_links(ha, hb, cause="link-flap")

    # -- end of job ----------------------------------------------------------
    def _evict(self) -> None:
        """Drop this job's keys from the plane's shared EL and store."""
        keys = [self.job_key(r) for r in range(self.nprocs)]
        for el in self.loggers:
            el.evict(keys)
        for srv in self.servers:
            srv.evict(keys)

    def _wipe_logs(self) -> None:
        """Forget the logged history before a global restart."""
        if self.site.plane is not None:
            self._evict()  # this job's history only
        else:
            for el in self.loggers:
                el.events.clear()
            for srv in self.servers:
                srv.wipe()
        if self.scheduler is not None:
            self.scheduler.reset_store_state()

    def teardown(self) -> None:
        """On a plane, tear the job down in dependency order.

        Resolve ``done`` first so every crash callback and monitor loop
        sees a finished job, then withdraw the control listener and the
        scheduler, reclaim the machines, stop routing the shared
        services' traces (the reclaim's ``store.gc`` sweep is end-of-job
        bookkeeping, not part of the audited history), evict the job's
        keys and named RNG streams, and leave the job's tracer — the
        submitter keeps it in the result, and the subscription would
        keep the whole rank table alive with it.
        """
        if self.site.plane is None:
            return
        self.done.resolve_if_pending(None)
        self.listener.stop("job-complete")  # drops every daemon link
        if self.scheduler is not None:
            self.scheduler.stop("job-complete")
        super().teardown()
        self.site.plane.router.unregister(self.site.ns.tag)
        self._evict()
        self.cluster.rng.evict(self.rng_ns)
        self.tracer.unsubscribe(self._note_caught_up)

    def extras(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "global_restarts": self.global_restarts,
            "faults": self.faults,
        }
        if self.site.plane is not None:
            if self.tracer.enabled:
                from ..obs.timeline import RecoveryAttribution

                out["mttr"] = RecoveryAttribution.from_trace(self.tracer)
            else:
                out["mttr"] = None
        else:
            out.update({
                "event_loggers": self.loggers,
                "checkpoint_server": self.servers[0],
                "checkpoint_servers": self.servers,
                "scheduler": self.scheduler,
                "dispatcher": self,
                "supervisor": self.supervisor,
            })
        return out
