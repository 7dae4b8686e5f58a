"""End-of-job folding: simnet accounting → the metrics registry.

Hot-path components that move millions of segments (the network, the
NICs, the stream flow control) keep plain float attributes instead of
live metric handles — an attribute add is the cheapest accounting
possible.  When a job completes, those floats and the per-rank device
counters are folded into a :class:`~repro.obs.registry.Metrics`
registry — the one place a job's counters are read from
(:meth:`~repro.runtime.results.JobResult.stat`).

The two halves are separate because a shared cluster needs them
separately: :func:`fold_cluster` folds the *shared* accounting (network,
NICs, streams) exactly once per cluster — after the job on a private
cluster, at shutdown on the control plane — while
:func:`fold_device_stats` folds one job's device counters into that
job's own registry (see :func:`repro.runtime.launch.finalize`).
"""

from __future__ import annotations

from typing import Any

__all__ = ["fold_cluster", "fold_device_stats"]


def fold_cluster(cluster: Any) -> None:
    """Fold shared network/NIC/stream accounting into ``cluster.metrics``.

    Must run exactly once per cluster — the floats it drains are
    cumulative, so folding per job on a shared cluster would double
    count every byte the earlier jobs moved.  Window stalls come from
    two places: each host's retired-stream floats (streams swept off
    the host lists, see :meth:`~repro.simnet.streams.Stream.retire`)
    and the ends of the streams still listed.
    """
    m = cluster.metrics
    net = cluster.net

    if net.bytes_moved:
        m.counter("net.bytes").inc(net.bytes_moved)
    if net.segments_moved:
        m.counter("net.segments").inc(net.segments_moved)
    if net.partitions_injected:
        m.counter("net.partitions").inc(net.partitions_injected)
    if net.segments_deferred:
        m.counter("net.deferred_segments").inc(net.segments_deferred)
    if net.links_broken:
        m.counter("net.links_broken").inc(net.links_broken)

    seen_streams: set[int] = set()
    for host in net.hosts.values():
        if host.nic_tx_busy_s:
            m.counter("nic.tx_busy_s", host=host.name).inc(host.nic_tx_busy_s)
        if host.nic_rx_busy_s:
            m.counter("nic.rx_busy_s", host=host.name).inc(host.nic_rx_busy_s)
        if host.stream_stall_s:  # streams already retired off the lists
            m.counter("stream.stall_s", host=host.name).inc(
                host.stream_stall_s
            )
            m.counter("stream.stalls", host=host.name).inc(host.stream_stalls)
        for stream in host._streams:
            if stream.retired or id(stream) in seen_streams:
                continue
            seen_streams.add(id(stream))
            for end in (stream.a, stream.b):
                if end.stall_s:
                    m.counter("stream.stall_s", host=end.host.name).inc(
                        end.stall_s
                    )
                    m.counter("stream.stalls", host=end.host.name).inc(
                        end.stall_count
                    )


def fold_device_stats(
    metrics: Any,
    device_stats: dict[int, Any],  # rank -> devices.DeviceStats
    device: str,
) -> None:
    """Fold one job's device counters into ``metrics`` as ``dev.*``."""
    for rank, dev_stats in device_stats.items():
        for key, value in dev_stats.snapshot().items():
            if value:
                metrics.counter(f"dev.{key}", rank=rank, device=device).inc(
                    value
                )
