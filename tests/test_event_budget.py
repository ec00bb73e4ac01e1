"""Events dispatched, pinned from above.

Lazy time-slicing is invisible in every simulated result, so a change
that silently falls back to one wake-up per quantum — for a lone
process, or for the processes sharing a core — keeps all the goldens and
fails only the benchmark.  These bounds make it fail the suite: each is
about a quarter above what the run costs today, and far below what it
cost with an event (or two) per quantum.

The same goes for the fixed-cost waits of an RPC — a CPU charge, a
message, a reply wait — which are one event each: a grant that became
an event again, or a message that sleeps twice, changes no result.
And for an idle cluster's load samples and eviction polls, which fire
as one event a second between them: a timer per sampler and per poll
again changes nothing but the count.
"""

import time

from repro import SpriteCluster
from repro.config import ClusterParams
from repro.faults import build_chaos_base, run_chaos
from repro.net import Lan, NetNode, Packet, RpcPort
from repro.sim import Cpu, Simulator, spawn

from . import golden_migration


def _compute_events(processes, seconds):
    cluster = SpriteCluster(workstations=1, start_daemons=False)

    def job(proc):
        yield from proc.compute(seconds)
        return 0

    pcbs = [
        cluster.hosts[0].spawn_process(job, name=f"job{i}")[0]
        for i in range(processes)
    ]
    cluster.sim.run_until_idle()
    assert all(abs(pcb.cpu_time - seconds) < 1e-9 for pcb in pcbs)
    return cluster.sim.events_fired


def test_lone_compute_costs_a_handful_of_events():
    # 300 quanta: 11 events today, 19 with a horizon per stretch, 600
    # with a wake-up per quantum.
    assert _compute_events(1, 3.0) <= 14


def test_shared_core_costs_events_per_process_not_per_quantum():
    # 1200 quanta among four processes: 19 events today, 2406 when a
    # contended quantum cost a grant and a boundary wake-up.
    assert _compute_events(4, 3.0) <= 24


def test_long_computes_replay_in_closed_form():
    """Ten million quanta, alone or in a rotation of four, replayed as
    whole rounds: a wake-up per doubling of the horizon and no walk over
    the quanta between them.  Walking them one by one cost seconds of
    wall for these events, not milliseconds."""
    for processes, seconds, events, cpu_time in (
        (1, 100_000.0, 26, 99999.99999999999),
        (4, 25_000.0, 32, 24999.999999999996),
    ):
        cluster = SpriteCluster(workstations=1, start_daemons=False)

        def job(proc):
            yield from proc.compute(seconds)
            return 0

        pcbs = [
            cluster.hosts[0].spawn_process(job, name=f"job{i}")[0]
            for i in range(processes)
        ]
        started = time.perf_counter()
        cluster.sim.run_until_idle()
        assert time.perf_counter() - started < 0.25
        assert cluster.sim.events_fired == events
        assert [pcb.cpu_time for pcb in pcbs] == [cpu_time] * processes


def test_idle_cluster_costs_an_event_a_second():
    # 785 today: 600 ticks plus the start-up and the write-back
    # daemons' timers.  9785 with a timer per host for its load sample
    # and another for its eviction poll.
    cluster = SpriteCluster(workstations=8)
    cluster.run(until=600.0)
    assert cluster.sim.events_fired <= 1000


def test_adversarial_chaos_smoke_event_budget():
    # CI's adversarial smoke at seed 0 (the run pinned as
    # ``adversarial-0``): 3087 events today, 4218 when a grant was an
    # event and a message two sleeps, 4479 before shared cores were
    # replayed.
    kwargs = dict(golden_migration.CHAOS_RUNS["adversarial-0"])
    cluster = build_chaos_base(kwargs.pop("seed"), kwargs.pop("workstations")).fork()
    report = run_chaos(base=cluster, **kwargs)
    assert report.fingerprint == golden_migration.load()["chaos"]["adversarial-0"]
    assert cluster.sim.events_fired <= 3500


def _two_ports(sim):
    params = ClusterParams()
    lan = Lan(sim, params=params)
    ports = []
    for name in ("client", "server"):
        node = NetNode(sim, name)
        lan.register(node)
        ports.append(RpcPort(sim, lan, node, params=params,
                             cpu=Cpu(sim, quantum=params.cpu_quantum)))

    def null(_args):
        return None
        yield

    ports[1].register("null", null)
    sim.run_until_idle()  # the two ports' receive loops park on their inboxes
    return lan, ports


def _events_of(sim, gen):
    before = sim.events_fired
    task = spawn(sim, gen)
    sim.run_until_idle()
    assert task.done and task.exception is None
    return sim.events_fired - before - 1  # less the task's own start


def test_null_rpc_event_budget():
    """One null RPC between two idle hosts: the client's CPU charge,
    the request on the wire, the server port's receive (a waiter parked
    on its inbox, not a task), the handler task's start, its CPU charge,
    the reply on the wire, the caller's resume.
    It was 13 when every grant was an event, every message two sleeps
    and the reply a deferred proxy; the simulated time is the same."""
    sim = Simulator()
    _lan, (client, server) = _two_ports(sim)

    def calls(count):
        for _ in range(count):
            yield from client.call(server.node.address, "null")

    assert _events_of(sim, calls(1)) <= 8  # 7 today
    started = sim.now
    assert _events_of(sim, calls(1000)) <= 8000
    assert f"{sim.now - started:.6f}" == "2.157317"


def test_uncontended_consume_and_message_are_one_event_each():
    sim = Simulator()
    lan, (client, server) = _two_ports(sim)
    a, b = client.node.address, server.node.address
    assert _events_of(sim, client.cpu.consume(client.cpu.quantum / 4)) == 1
    assert _events_of(sim, lan.transfer(a, b, 4096)) == 1
    # ... plus the server port's receive of a packet that is no request.
    assert _events_of(sim, lan.send(Packet(a, b, "data", None, 256))) == 2
