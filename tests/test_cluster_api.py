"""Coverage for the SpriteCluster facade API."""

import pytest

from repro import ClusterParams, SpriteCluster


def test_cluster_requires_hosts_and_servers():
    with pytest.raises(ValueError):
        SpriteCluster(workstations=0)
    with pytest.raises(ValueError):
        SpriteCluster(workstations=1, file_servers=0)


def test_host_lookup_by_name_and_address():
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    host = cluster.hosts[1]
    assert cluster.host_by_name("ws1") is host
    assert cluster.host_by_address(host.address) is host
    with pytest.raises(KeyError):
        cluster.host_by_name("nope")
    with pytest.raises(KeyError):
        cluster.host_by_address(99999)


def test_manager_of_returns_hosts_manager():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    host = cluster.hosts[0]
    assert cluster.manager_of(host) is cluster.managers[host.address]


def test_idle_hosts_reflects_availability():
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    cluster.run(until=60.0)   # input-idle thresholds pass
    assert len(cluster.idle_hosts()) == 3
    cluster.hosts[0].user_input()
    assert len(cluster.idle_hosts()) == 2


def test_host_run_process_helper():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    host_a, host_b = cluster.hosts

    def short(proc):
        yield from proc.compute(0.5)
        return "done"

    def launcher(proc):
        result = yield from host_b.run_process(short, name="short")
        return result

    assert cluster.run_process(host_a, launcher) == "done"


def test_total_cpu_seconds_accumulates():
    cluster = SpriteCluster(workstations=2, start_daemons=False)

    def burner(proc):
        yield from proc.compute(3.0)

    cluster.run_process(cluster.hosts[0], burner)
    assert cluster.total_cpu_seconds() == pytest.approx(3.0, abs=0.2)


def test_custom_params_flow_to_every_layer():
    params = ClusterParams().clone(fs_block_size=8192, migration_version=42)
    cluster = SpriteCluster(workstations=2, start_daemons=False, params=params)
    host = cluster.hosts[0]
    assert host.params.fs_block_size == 8192
    assert host.fs.cache.block_size == 8192
    assert cluster.managers[host.address].params.migration_version == 42
    assert cluster.file_server.params.fs_block_size == 8192


def test_seed_given_twice_must_agree():
    # Neither spelling may silently win: the RNG streams and the RPC
    # back-off both read ``params.seed``.
    params = ClusterParams(seed=3)
    with pytest.raises(ValueError, match=r"seed=7.*params\.seed=3"):
        SpriteCluster(workstations=1, start_daemons=False, params=params, seed=7)
    agreed = SpriteCluster(workstations=1, start_daemons=False, params=params, seed=3)
    assert agreed.params is params


def test_seed_has_one_source_of_truth():
    from repro.snapshot import Snapshot

    assert SpriteCluster(workstations=1, seed=7).params.seed == 7
    assert SpriteCluster(workstations=1).params.seed == 0
    by_seed = SpriteCluster(workstations=2, seed=7)
    by_params = SpriteCluster(workstations=2, params=ClusterParams(seed=7))
    assert Snapshot.capture(by_seed).digest == Snapshot.capture(by_params).digest
    other = SpriteCluster(workstations=2, seed=8)
    assert Snapshot.capture(other).digest != Snapshot.capture(by_seed).digest


def test_seed_controls_reproducibility():
    def run_once(seed):
        cluster = SpriteCluster(workstations=2, start_daemons=False, seed=seed)
        cluster.add_file("/f", size=500_000)

        def job(proc):
            from repro.fs import OpenMode

            fd = yield from proc.open("/f", OpenMode.READ)
            yield from proc.read(fd, 500_000)   # disk hits are seeded RNG
            yield from proc.close(fd)
            return proc.now

        return cluster.run_process(cluster.hosts[0], job)

    assert run_once(7) == run_once(7)


def test_tracer_flag_controls_record_collection():
    quiet = SpriteCluster(workstations=1, start_daemons=False)
    loud = SpriteCluster(workstations=1, start_daemons=False, trace=True)
    for cluster in (quiet, loud):
        def job(proc):
            fd = yield from proc.open("/x", 0x2 | 0x4)   # write|create
            yield from proc.write(fd, 4096)
            yield from proc.close(fd)
            return 0
        cluster.run_process(cluster.hosts[0], job)
    assert len(quiet.tracer.records) == 0
    assert len(loud.tracer.records) > 0
