"""Unit tests for tracing, metrics rendering, load averages, and
assorted edge cases across the stack."""

import pytest

from repro import SpriteCluster
from repro.config import ClusterParams
from repro.fs import AccessError, BadStream, OpenMode
from repro.kernel import LoadAverage
from repro.obs import Series, Table
from repro.sim import (
    Cpu,
    Simulator,
    Sleep,
    TraceRecord,
    Tracer,
    run_until_complete,
    spawn,
)

from .helpers import MiniCluster


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_disabled_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, "x", "event", foo=1)
    assert len(tracer) == 0


def test_tracer_between_and_clear():
    tracer = Tracer(enabled=True)
    for t in (1.0, 2.0, 3.0):
        tracer.emit(t, "s", "k")
    assert len(list(tracer.between(1.5, 3.0))) == 2
    tracer.records.clear()
    assert len(tracer) == 0


def test_trace_record_str_is_one_line():
    record = TraceRecord(1.25, "kernel:ws0", "migrated", {"pid": 7})
    text = str(record)
    assert "migrated" in text and "pid=7" in text and "\n" not in text


def test_cluster_tracer_captures_migration_events():
    cluster = SpriteCluster(workstations=2, start_daemons=False, trace=True)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(2.0)

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    kinds = {record.kind for record in cluster.tracer.records}
    assert "migrated" in kinds
    assert "installed" in kinds


# ----------------------------------------------------------------------
# Series rendering
# ----------------------------------------------------------------------
def test_series_renders_curves_sorted_by_x():
    series = Series(title="s", x_label="x", y_label="y")
    series.add_point("a", 2.0, 20.0)
    series.add_point("a", 1.0, 10.0)
    rendered = series.render()
    assert rendered.index("10") < rendered.index("20")
    assert "[a]" in rendered


def test_series_empty_renders_placeholder():
    series = Series(title="s", x_label="x", y_label="y")
    assert "(no data)" in series.render()


def test_series_zero_values_no_bar():
    series = Series(title="s", x_label="x", y_label="y")
    series.add_point("a", 1.0, 0.0)
    series.add_point("a", 2.0, 5.0)
    lines = series.render().splitlines()
    zero_line = next(line for line in lines if "1" in line and "0" in line)
    assert "#" not in zero_line


def test_table_show_prints(capsys):
    table = Table(title="t", columns=["a"])
    table.add_row(1)
    table.show()
    assert "== t ==" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Load average
# ----------------------------------------------------------------------
def test_loadavg_decays_toward_runnable_count():
    sim = Simulator()
    cpu = Cpu(sim)
    load = LoadAverage(cpu, ClusterParams())
    cpu.runnable = 2
    for _ in range(600):
        load.sample()
    assert load.value == pytest.approx(2.0, abs=0.05)
    cpu.runnable = 0
    for _ in range(600):
        load.sample()
    assert load.value < 0.05


def test_loadavg_bias_decays():
    sim = Simulator()
    cpu = Cpu(sim)
    load = LoadAverage(cpu, ClusterParams())
    load.anticipate_arrivals(2)
    assert load.effective == pytest.approx(2.0)
    for _ in range(600):
        load.sample()
    assert load.bias < 0.01


# ----------------------------------------------------------------------
# RPC retry behaviour
# ----------------------------------------------------------------------
def test_rpc_retry_succeeds_when_host_recovers():
    from repro.net import Lan, NetNode, RpcPort
    from repro.sim import Cpu as SimCpu

    sim = Simulator()
    params = ClusterParams().clone(rpc_timeout=0.5, rpc_retries=2)
    lan = Lan(sim, params=params)
    a, b = NetNode(sim, "a"), NetNode(sim, "b")
    lan.register(a)
    lan.register(b)
    port_a = RpcPort(sim, lan, a, cpu=SimCpu(sim))
    port_b = RpcPort(sim, lan, b, cpu=SimCpu(sim))

    def pong(args):
        return "pong"
        yield  # pragma: no cover

    port_b.register("ping", pong)
    b.up = False

    def recover():
        yield Sleep(0.2)
        b.up = True

    def caller():
        result = yield from port_a.call(b.address, "ping")
        return result

    spawn(sim, recover(), name="recover")
    result = run_until_complete(sim, caller(), name="caller")
    assert result == "pong"


# ----------------------------------------------------------------------
# FS guard rails
# ----------------------------------------------------------------------
def test_write_to_readonly_stream_rejected():
    cluster = MiniCluster(clients=1)
    cluster.server.add_file("/ro", size=100)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/ro", OpenMode.READ)
        with pytest.raises(AccessError):
            yield from fs.write(stream, 10)
        yield from fs.close(stream)
        return "guarded"

    assert cluster.run(scenario()) == "guarded"


def test_read_from_writeonly_stream_rejected():
    cluster = MiniCluster(clients=1)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/wo", OpenMode.WRITE | OpenMode.CREATE)
        with pytest.raises(AccessError):
            yield from fs.read(stream, 10)
        yield from fs.close(stream)
        return "guarded"

    assert cluster.run(scenario()) == "guarded"


def test_double_close_rejected():
    cluster = MiniCluster(clients=1)
    cluster.server.add_file("/f", size=1)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/f", OpenMode.READ)
        yield from fs.close(stream)
        with pytest.raises(BadStream):
            yield from fs.close(stream)
        return "guarded"

    assert cluster.run(scenario()) == "guarded"


def test_fork_shared_stream_closes_once():
    """Refcounted streams: the server sees one close for two holders."""
    cluster = MiniCluster(clients=1)
    cluster.server.add_file("/f", size=100)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/f", OpenMode.READ)
        stream.refcount += 1          # as fork does
        yield from fs.close(stream)   # first holder: refcount drops
        assert not stream.closed
        yield from fs.close(stream)   # second holder: real close
        assert stream.closed
        return cluster.server.files["/f"].open_count()

    assert cluster.run(scenario()) == 0


# ----------------------------------------------------------------------
# Kernel edge cases
# ----------------------------------------------------------------------
def test_exec_missing_image_kills_process_with_error():
    from repro.fs import FileNotFound

    cluster = SpriteCluster(workstations=1, start_daemons=False)

    def target(proc):
        return 0
        yield  # pragma: no cover

    def job(proc):
        try:
            yield from proc.exec(target, image_path="/bin/missing")
        except FileNotFound:
            return "no-image"

    assert cluster.run_process(cluster.hosts[0], job) == "no-image"


def test_kill_unknown_pid_raises():
    from repro.kernel import NoSuchProcess

    cluster = SpriteCluster(workstations=2, start_daemons=False)
    bogus = cluster.hosts[1].address * 1_000_000 + 999

    def job(proc):
        try:
            yield from proc.kill(bogus)
        except NoSuchProcess:
            return "esrch"

    assert cluster.run_process(cluster.hosts[0], job) == "esrch"


def test_getrusage_counts_migrations():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(2.0)
        usage = yield from proc.getrusage()
        return usage

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    spawn(cluster.sim, driver(), name="driver")
    usage = cluster.run_until_complete(pcb.task)
    assert usage["migrations"] == 0 or usage["migrations"] == 1
    assert usage["cpu_time"] > 0
