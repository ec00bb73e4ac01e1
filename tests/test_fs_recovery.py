"""Tests for file-server crash recovery (stateful-server model).

Sprite servers keep per-client state (opens, caching, shared offsets);
a crash loses it, and clients rebuild it by re-asserting their open
streams.  The dual invariants: no delayed-write data is lost (clients
still hold it and re-flush), and consistency decisions after recovery
match what a never-crashed server would decide.
"""

from repro.fs import OpenMode
from repro.net import RpcTimeout

from .helpers import MiniCluster


def make_cluster(clients=2):
    return MiniCluster(clients=clients, rpc_timeout=0.5, rpc_retries=0)


def test_reopen_restores_open_counts():
    cluster = make_cluster(1)
    cluster.server.add_file("/f", size=1000)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/f", OpenMode.READ_WRITE)
        cluster.server.crash()
        cluster.server.restart()
        assert cluster.server.files["/f"].open_count() == 0   # state lost
        reopened = yield from fs.recover(cluster.server_host.address)
        yield from fs.close(stream)
        return reopened

    assert cluster.run(scenario()) == 1
    # Close after recovery balanced the restored count.
    assert cluster.server.files["/f"].open_count() == 0


def test_recovery_reflushes_dirty_data():
    """Delayed-write data survives a server crash in the client cache
    and is pushed back during recovery."""
    cluster = make_cluster(1)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/log", OpenMode.WRITE | OpenMode.CREATE)
        yield from fs.write(stream, 32 * 1024)
        cluster.server.crash()
        cluster.server.restart()
        before = cluster.server.bytes_written
        yield from fs.recover(cluster.server_host.address)
        flushed = cluster.server.bytes_written - before
        yield from fs.close(stream)
        return flushed

    assert cluster.run(scenario()) >= 32 * 1024


def test_recovery_restores_created_but_unflushed_file():
    cluster = make_cluster(1)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/new", OpenMode.WRITE | OpenMode.CREATE)
        yield from fs.write(stream, 4096)
        cluster.server.crash()
        # Simulate total disk-state loss of the *new* entry too.
        cluster.server.files.pop("/new", None)
        cluster.server.restart()
        yield from fs.recover(cluster.server_host.address)
        yield from fs.close(stream)
        info = yield from fs.stat("/new")
        return info["size"]

    assert cluster.run(scenario()) >= 4096


def test_io_during_crash_times_out_then_recovers():
    cluster = make_cluster(1)
    cluster.server.add_file("/data", size=100_000)
    fs = cluster.clients[0].fs

    def scenario():
        stream = yield from fs.open("/data", OpenMode.READ)
        cluster.server.crash()
        try:
            yield from fs.read(stream, 4096)
        except RpcTimeout:
            pass
        else:
            raise AssertionError("read should have timed out")
        cluster.server.restart()
        yield from fs.recover(cluster.server_host.address)
        got = yield from fs.read(stream, 4096)
        yield from fs.close(stream)
        return got

    assert cluster.run(scenario()) == 4096


def test_shared_offset_recovered_from_clients():
    """Cross-host shared streams: the server-side offset is volatile;
    recovery takes the max of the reopeners' views."""
    cluster = make_cluster(2)
    src = cluster.clients[0].fs
    dst = cluster.clients[1].fs
    cluster.server.add_file("/shared", size=100_000)

    def scenario():
        stream = yield from src.open("/shared", OpenMode.READ)
        stream.refcount += 1                     # fork sharing
        state = yield from src.export_stream(stream, cluster.clients[1].address)
        remote = yield from dst.import_stream(state)
        yield from src.read(stream, 10_000)      # shared offset -> 10k
        # Keep the clients' view of the offset for recovery.
        stream.offset = 10_000
        remote.offset = 10_000
        cluster.server.crash()
        cluster.server.restart()
        yield from src.recover(cluster.server_host.address)
        yield from dst.recover(cluster.server_host.address)
        got = yield from dst.read(remote, 5_000)
        from repro.fs.protocol import OffsetOp

        offset = yield from dst.rpc.call(
            remote.server,
            "fs.offset",
            OffsetOp(handle_id=remote.handle_id, stream_id=remote.stream_id),
        )
        return (got, offset)

    got, offset = cluster.run(scenario())
    assert got == 5_000
    assert offset == 15_000


def test_consistency_still_enforced_after_recovery():
    """Post-recovery, concurrent write sharing is still detected."""
    cluster = make_cluster(2)
    fs_a = cluster.clients[0].fs
    fs_b = cluster.clients[1].fs

    def scenario():
        a_stream = yield from fs_a.open("/c", OpenMode.WRITE | OpenMode.CREATE)
        yield from fs_a.write(a_stream, 4096)
        cluster.server.crash()
        cluster.server.restart()
        yield from fs_a.recover(cluster.server_host.address)
        b_stream = yield from fs_b.open("/c", OpenMode.WRITE)
        return (a_stream.cacheable, b_stream.cacheable)

    a_cacheable, b_cacheable = cluster.run(scenario())
    # Writer A re-registered; B's concurrent write-open must come back
    # uncacheable, exactly as without the crash.
    assert b_cacheable is False


def test_epoch_increments_per_crash():
    cluster = make_cluster(1)
    assert cluster.server.node.epoch == 0
    cluster.server.crash()
    cluster.server.restart()
    cluster.server.crash()
    cluster.server.restart()
    assert cluster.server.node.epoch == 2
