"""Shared service deployment: EL replication groups and store replicas.

V2's launch strategy (the :class:`~repro.ft.dispatcher.Dispatcher`)
deploys these once per job on a private cluster; the control plane
(``repro.serve``) deploys them once per *cluster* and shares them
between every job it admits.  Both call the same helpers so
there is exactly one encoding of the paper's service topology — shard
names (``el:<s>`` / ``el:<s>.<r>``), replica placement on independent
hosts, supervisor registration.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.event_logger import EventLoggerServer
from ..runtime.cluster import Cluster
from ..runtime.config import TestbedConfig
from ..store.replica import StoreReplica

__all__ = ["deploy_el_groups", "deploy_store"]


def deploy_el_groups(
    cluster: Cluster,
    fabric: Any,
    cfg: TestbedConfig,
    el_hosts: list,
    *,
    n_shards: int,
    supervisor: Optional[Any] = None,
) -> tuple[list[list[str]], list[EventLoggerServer]]:
    """Deploy the EL replication group: ``n_shards`` × ``el_replicas``.

    Ranks shard by ``rank % n_shards``; each shard keeps
    ``cfg.el_replicas`` service instances.  Replica 0 keeps the classic
    ``el:<shard>`` name on the caller-provided host (single-replica
    deployments and their fault plans are unchanged); extra replicas
    are ``el:<shard>.<r>`` and each get their own machine — colocated
    replicas would share a NIC (and fate, under host faults), defeating
    the independence the replication group exists to buy.  Each replica
    registers with the supervisor individually, so service faults can
    crash one replica of a shard.
    """
    n_rep = max(1, cfg.el_replicas)
    el_groups: list[list[str]] = []
    loggers: list[EventLoggerServer] = []
    for s in range(n_shards):
        names = [f"el:{s}" if r == 0 else f"el:{s}.{r}" for r in range(n_rep)]
        for r, el_name in enumerate(names):
            host = (
                el_hosts[s]
                if r == 0
                else cluster.add_aux(f"el-host{s}.{r}", site=el_hosts[s].site)
            )
            el = EventLoggerServer(
                cluster.sim, host, fabric, cfg, name=el_name,
                tracer=cluster.tracer, metrics=cluster.metrics,
                shard=s,
                peer_names=tuple(n for n in names if n != el_name),
            )
            el.start()
            loggers.append(el)
            if supervisor is not None:
                supervisor.register(el.name, el)
        el_groups.append(names)
    return el_groups, loggers


def deploy_store(
    cluster: Cluster,
    fabric: Any,
    cfg: TestbedConfig,
    cs_hosts: list,
    *,
    supervisor: Optional[Any] = None,
    mutations: Optional[frozenset] = None,
) -> tuple[list[str], list[StoreReplica]]:
    """Deploy the checkpoint-store replica set, one replica per host."""
    servers: list[StoreReplica] = []
    for i, host in enumerate(cs_hosts):
        cs = StoreReplica(
            cluster.sim, host, fabric, cfg, name=f"cs:{i}",
            tracer=cluster.tracer, metrics=cluster.metrics,
            mutations=mutations,
        )
        cs.start()
        servers.append(cs)
        if supervisor is not None:
            supervisor.register(cs.name, cs)
    return [s.name for s in servers], servers
