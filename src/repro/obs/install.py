"""One-call observability wiring for a :class:`SpriteCluster`.

:meth:`ClusterObservability.install` flips the span switch, attaches
per-service RPC accounting and per-kind LAN byte accounting, and
(optionally) starts a sim-time sampler feeding per-host
load/forwarding/traffic time series.  All of it is opt-in: an
uninstalled cluster carries only ``None`` attributes and disabled
flags, so the PR-1 zero-cost property holds.

The ``mig.*`` and ``evict.*`` metrics need no hook at all: the
migration managers and eviction daemons already keep one record per
migration and per eviction, and :attr:`ClusterObservability.registry`
folds those records into counters and timers each time it is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .metrics import MetricsRegistry, MetricsSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster import SpriteCluster
    from ..migration.mechanism import MigrationRecord

__all__ = ["ClusterObservability"]


class ClusterObservability:
    """Spans + metrics + samplers for one cluster, bundled."""

    def __init__(self, cluster: "SpriteCluster"):
        self.cluster = cluster
        self.sampler: Optional[MetricsSampler] = None

    # ------------------------------------------------------------------
    @classmethod
    def install(
        cls,
        cluster: "SpriteCluster",
        spans: bool = True,
        trace: bool = False,
        sample_period: Optional[float] = None,
    ) -> "ClusterObservability":
        """Wire a cluster for observation.

        ``spans``        — turn on ``cluster.tracer.spans_enabled``, so
                           spans collect in
                           ``cluster.tracer.finished_spans``.
        ``trace``        — also enable the flat records, so spans are
                           mirrored into ``cluster.tracer.records`` next
                           to the existing event records.
        ``sample_period``— if set, start a :class:`MetricsSampler` on
                           that sim-time interval (per-host load,
                           forwarded calls, RPC and LAN traffic).  Like
                           the cluster's ticker, a running sampler
                           keeps the event queue non-empty: drive the
                           sim with ``run(until=...)`` or
                           ``run_until_complete``.
        """
        # Imported here, not at module top: net.rpc itself imports
        # obs.spans, and a top-level import back into net would make the
        # package import order matter.
        from ..net.rpc import RpcStats

        obs = cls(cluster)
        if trace:
            cluster.tracer.enabled = True
        if spans:
            cluster.tracer.spans_enabled = True
        for host in cluster.hosts:
            host.rpc.stats = RpcStats()
        for server_host in cluster.server_hosts:
            server_host.rpc.stats = RpcStats()
        cluster.lan.kind_bytes = {}
        if sample_period is not None:
            obs.sampler = sampler = MetricsSampler(
                cluster.sim, MetricsRegistry(), period=sample_period
            )
            for host in cluster.hosts:
                address = host.address
                sampler.add_probe("host.load", address,
                                  lambda h=host: h.loadavg.effective)
                sampler.add_probe("host.runnable", address,
                                  lambda h=host: h.cpu.runnable)
                sampler.add_probe("host.foreign", address,
                                  lambda h=host: len(h.kernel.foreign_pcbs()))
                sampler.add_probe("rpc.calls", address,
                                  lambda h=host: h.rpc.calls_made)
                sampler.add_probe("kernel.forwarded", address,
                                  lambda h=host: h.kernel.calls_forwarded_home)
            sampler.add_probe("lan.bytes", None, lambda: cluster.lan.bytes_sent)
            sampler.add_probe("lan.messages", None,
                              lambda: cluster.lan.messages_sent)
            sampler.start()
        return obs

    # ------------------------------------------------------------------
    # Metrics, folded from the records when read
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """A fresh :class:`MetricsRegistry`: the sampler's series, then
        ``mig.*`` folded from each manager's ``records`` and ``evict.*``
        from each ``cluster.evictors[i].events``.

        Each list is folded in its own (completion) order, and every
        timer is keyed by the one host whose list feeds it, so each
        timer adds its samples in the order they happened.
        """
        registry = MetricsRegistry()
        if self.sampler is not None:
            registry.merge_from(self.sampler.registry)
        for manager in self.cluster.managers.values():
            for record in manager.records:
                host = record.source
                registry.counter("mig.started", host).inc()
                if record.refused:
                    registry.counter("mig.refused", host).inc()
                    continue
                registry.counter("mig.completed", host).inc()
                registry.timer("mig.total", host).observe(record.total_time)
                registry.timer("mig.freeze", host).observe(record.freeze_time)
                registry.counter("mig.state_bytes", host).inc(
                    record.state_bytes + record.stream_bytes
                )
                if record.vm is not None:
                    registry.counter("mig.vm_bytes", host).inc(
                        record.vm.bytes_total
                    )
        for evictor in self.cluster.evictors:
            for event in evictor.events:
                registry.counter("evict.events", event.host).inc()
                registry.counter("evict.victims", event.host).inc(event.victims)
                registry.timer("evict.reclaim", event.host).observe(
                    event.reclaim_seconds
                )
        return registry

    # ------------------------------------------------------------------
    # Cluster-wide rollups
    # ------------------------------------------------------------------
    def rpc_by_service(self) -> Dict[str, Dict[str, int]]:
        """Calls/bytes per RPC service, merged over every port."""
        merged: Dict[str, Dict[str, int]] = {}
        ports = [h.rpc for h in self.cluster.hosts]
        ports += [s.rpc for s in self.cluster.server_hosts]
        for port in ports:
            stats = port.stats
            if stats is None:
                continue
            for service, count in stats.calls.items():
                row = merged.setdefault(
                    service,
                    {"calls": 0, "call_bytes": 0, "served": 0, "reply_bytes": 0},
                )
                row["calls"] += count
                row["call_bytes"] += stats.call_bytes.get(service, 0)
            for service, count in stats.served.items():
                row = merged.setdefault(
                    service,
                    {"calls": 0, "call_bytes": 0, "served": 0, "reply_bytes": 0},
                )
                row["served"] += count
                row["reply_bytes"] += stats.reply_bytes.get(service, 0)
        return merged

    def lan_by_kind(self) -> Dict[str, int]:
        return dict(self.cluster.lan.kind_bytes or {})

    def snapshot(self) -> Dict[str, Any]:
        """Everything, JSON-able: registry + RPC/LAN rollups + spans."""
        return {
            "registry": self.registry.snapshot(),
            "rpc_by_service": self.rpc_by_service(),
            "lan_by_kind": self.lan_by_kind(),
            "spans": len(self.cluster.tracer.finished_spans),
            "samples": self.sampler.samples_taken if self.sampler else 0,
        }

    def migration_records(self) -> List["MigrationRecord"]:
        return self.cluster.migration_records()
