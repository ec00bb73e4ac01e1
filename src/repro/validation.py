"""Calibration self-checks.

Micro-simulations that measure the model's own primitive costs and
compare them against the calibration targets documented in
:mod:`repro.config`.  Run via the test suite (or directly) after any
parameter change to confirm the model still sits on the Sun-3-class
operating points the paper-shape arguments depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import KB, MB, ClusterParams
from .net import Lan, NetNode, RpcPort
from .sim import Cpu, Simulator, run_until_complete

__all__ = ["CalibrationReport", "measure_calibration"]


@dataclass
class CalibrationReport:
    """Measured primitive costs (model units)."""

    null_rpc_ms: float
    bulk_throughput_kbs: float
    local_call_ms: float
    lookup_ms: float

    def rows(self) -> Dict[str, float]:
        return {
            "null RPC round trip (ms)": round(self.null_rpc_ms, 3),
            "bulk throughput (KB/s)": round(self.bulk_throughput_kbs, 1),
            "local kernel call (ms)": round(self.local_call_ms, 4),
            "server name lookup (ms)": round(self.lookup_ms, 3),
        }


def measure_calibration(params: ClusterParams = None) -> CalibrationReport:
    """Measure primitives on a two-node micro-cluster."""
    params = params or ClusterParams()
    sim = Simulator()
    lan = Lan(sim, params=params)
    a, b = NetNode(sim, "a"), NetNode(sim, "b")
    lan.register(a)
    lan.register(b)
    cpu_a, cpu_b = Cpu(sim, name="a"), Cpu(sim, name="b")
    port_a = RpcPort(sim, lan, a, cpu=cpu_a, params=params)
    port_b = RpcPort(sim, lan, b, cpu=cpu_b, params=params)

    def echo(args):
        return args
        yield  # pragma: no cover

    def bulk(args):
        from .net import Reply

        return Reply(result=args, size=1 * MB)
        yield  # pragma: no cover

    port_b.register("echo", echo)
    port_b.register("bulk", bulk)
    measurements = {}

    def bench():
        rounds = 20
        start = sim.now
        for _ in range(rounds):
            yield from port_a.call(b.address, "echo", 0)
        measurements["null_rpc"] = (sim.now - start) / rounds
        start = sim.now
        yield from port_a.call(
            b.address, "bulk", 0, reply_size=1 * MB,
            timeout=params.rpc_probe_interval,
        )
        measurements["bulk_seconds_per_mb"] = sim.now - start
        start = sim.now
        yield from cpu_a.consume(params.kernel_call_cpu)
        measurements["local_call"] = sim.now - start
        start = sim.now
        yield from cpu_b.consume(params.fs_name_lookup_cpu)
        measurements["lookup"] = sim.now - start

    run_until_complete(sim, bench(), name="calibration")
    return CalibrationReport(
        null_rpc_ms=measurements["null_rpc"] * 1e3,
        bulk_throughput_kbs=(1 * MB / KB) / measurements["bulk_seconds_per_mb"],
        local_call_ms=measurements["local_call"] * 1e3,
        lookup_ms=measurements["lookup"] * 1e3,
    )
