"""Unit tests of migd's selection policy as a pure state machine."""

from repro import SpriteCluster
from repro.loadsharing.migd import MigdServer


def make_migd():
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    return MigdServer(cluster.hosts[0])


def update(migd, host, available=True, load=0.0, idle=100.0, time=0.0):
    return migd._handle(
        {
            "op": "update",
            "host": host,
            "load": load,
            "input_idle": idle,
            "available": available,
            "time": time,
        },
        client_host=host,
    )


def request(migd, client, n=1, exclude=()):
    return migd._handle(
        {"op": "request", "client": client, "n": n, "exclude": list(exclude)},
        client_host=client,
    )["hosts"]


def release(migd, client, hosts):
    return migd._handle(
        {"op": "release", "client": client, "hosts": list(hosts)},
        client_host=client,
    )


def test_request_prefers_longest_idle():
    migd = make_migd()
    update(migd, 10, time=50.0)   # idle since 50
    update(migd, 11, time=5.0)    # idle since 5 (longest idle)
    update(migd, 12, time=20.0)
    granted = request(migd, client=1, n=2)
    assert granted == [11, 12]


def test_request_excludes_requester_and_named():
    migd = make_migd()
    for host in (10, 11, 12):
        update(migd, host)
    granted = request(migd, client=10, n=5, exclude=[11])
    assert granted == [12]


def test_no_double_assignment():
    migd = make_migd()
    update(migd, 10)
    first = request(migd, client=1)
    second = request(migd, client=2)
    assert first == [10]
    assert second == []


def test_release_returns_host_to_pool():
    migd = make_migd()
    update(migd, 10)
    granted = request(migd, client=1)
    release(migd, 1, granted)
    assert request(migd, client=2) == [10]


def test_release_by_non_owner_ignored():
    migd = make_migd()
    update(migd, 10)
    request(migd, client=1)
    reply = release(migd, 2, [10])
    assert reply["released"] == 0
    assert request(migd, client=3) == []   # still held by client 1


def test_unavailable_update_drops_assignment():
    migd = make_migd()
    update(migd, 10)
    granted = request(migd, client=1)
    assert granted == [10]
    update(migd, 10, available=False, time=1.0)
    # Reclaimed: not re-offered, and the assignment is gone.
    assert request(migd, client=2) == []
    assert 10 not in migd.assignments.get(1, set())


def test_fair_share_caps_second_helping():
    migd = make_migd()
    for host in range(10, 16):        # six idle hosts
        update(migd, host)
    hog = request(migd, client=1, n=6)
    assert len(hog) == 6              # alone: take everything
    release(migd, 1, hog[3:])         # give some back; keep 3
    # A second client appears and asks: it may take from the pool.
    other = request(migd, client=2, n=6)
    assert len(other) >= 1
    # The hog asks for more: fair share (pool/2) caps it at its holdings.
    more = request(migd, client=1, n=6)
    assert len(more) <= 1


def test_idle_count_tracks_updates():
    migd = make_migd()
    update(migd, 10)
    update(migd, 11)
    update(migd, 11, available=False, time=1.0)
    assert sum(info.available for info in migd.hosts.values()) == 1


def test_unknown_op_reports_error():
    migd = make_migd()
    reply = migd._handle({"op": "frobnicate"}, client_host=1)
    assert "error" in reply
