"""Table honesty: every kernel call behind the gate behaves, for a
migrated process, the way Appendix A says it does.

Each call in ``KERNEL_CALLS`` is made twice by the same program — once
at home, once after one migration.  The results must be equal, and the
remote kernel must forward exactly one call home when the table says
``home`` or ``creates-state`` and none when it says ``local``.  Where
the model legitimately departs from that rule (a residual dependency,
or a call whose job is to report where the process is) the departure
is declared per call below, never skipped.
"""

import pytest

from repro import SpriteCluster
from repro.fs import OpenMode
from repro.inet import NET_PDEV_PATH, InternetServer
from repro.kernel import APPENDIX_A, KERNEL_CALLS, CallClass, signals as sig


# ----------------------------------------------------------------------
# What each call needs before it can be made (set up at home, before any
# migration), and how it is made.
# ----------------------------------------------------------------------
def _exits_7(proc):
    yield from proc.compute(0.05)
    return 7


def _own_group(proc):
    yield from proc.setpgrp()
    yield from proc.sleep(60.0)


def _new_image(proc, marks):
    _mark_after(proc, marks)
    return 42
    yield


def _open_data(proc):
    return (yield from proc.open("/data", OpenMode.READ_WRITE))


def _open_net(proc):
    return (yield from proc.open(NET_PDEV_PATH, OpenMode.READ_WRITE))


def _burn_cpu(proc):
    yield from proc.compute(0.05)


def _join_group(proc):
    yield from proc.setpgrp(4242)


def _fork_child(proc):
    return (yield from proc.fork(_exits_7, name="kid"))


def _fork_group(proc):
    pid = yield from proc.fork(_own_group, name="leader")
    yield from proc.sleep(0.1)     # let it become a group leader
    return pid


#: call -> (set-up or None, lambda proc, what set-up returned, marks: the call)
SCENARIOS = {
    "getpid": (None, lambda proc, _, marks: proc.getpid()),
    "getppid": (None, lambda proc, _, marks: proc.getppid()),
    "getuid": (None, lambda proc, _, marks: proc.getuid()),
    "gettimeofday": (None, lambda proc, _, marks: proc.gettimeofday()),
    "gethostname": (None, lambda proc, _, marks: proc.gethostname()),
    "getrusage": (_burn_cpu, lambda proc, _, marks: proc.getrusage()),
    "getpgrp": (_join_group, lambda proc, _, marks: proc.getpgrp()),
    "setpgrp": (None, lambda proc, _, marks: proc.setpgrp(4242)),
    "times": (_burn_cpu, lambda proc, _, marks: proc.times()),
    "open": (None, lambda proc, _, marks: proc.open("/data", OpenMode.READ)),
    "close": (_open_data, lambda proc, fd, marks: proc.close(fd)),
    "read": (_open_data, lambda proc, fd, marks: proc.read(fd, 1000)),
    "write": (_open_data, lambda proc, fd, marks: proc.write(fd, 512)),
    "lseek": (_open_data, lambda proc, fd, marks: proc.lseek(fd, 100)),
    "stat": (None, lambda proc, _, marks: proc.stat("/data")),
    "unlink": (None, lambda proc, _, marks: proc.unlink("/data")),
    "chdir": (None, lambda proc, _, marks: proc.chdir("/tmp")),
    "dup": (_open_data, lambda proc, fd, marks: proc.dup(fd)),
    "dup2": (_open_data, lambda proc, fd, marks: proc.dup2(fd, 9)),
    "pipe": (None, lambda proc, _, marks: proc.pipe()),
    "pdev_request": (
        _open_net,
        lambda proc, fd, marks: proc.pdev_request(
            fd, {"op": "socket", "kind": "dgram"}),
    ),
    "fork": (None, lambda proc, _, marks: proc.fork(_exits_7, name="kid")),
    "exec": (None, lambda proc, _, marks: proc.exec(_new_image, marks)),
    "wait": (_fork_child, lambda proc, _, marks: proc.wait()),
    "exit": (None, lambda proc, _, marks: proc.exit(3)),
    "kill": (_fork_group, lambda proc, pid, marks: proc.kill(pid, sig.SIGTERM)),
    "killpg": (_fork_group, lambda proc, pid, marks: proc.killpg(pid, sig.SIGTERM)),
    "sleep": (None, lambda proc, _, marks: proc.sleep(0.05)),
    "migrate": (None, lambda proc, _, marks: proc.migrate(marks["spare"])),
    "ps": (None, lambda proc, _, marks: proc.ps()),
}

# ----------------------------------------------------------------------
# Declared departures from "equal results; one forwarded call iff the
# class is home or creates-state".
# ----------------------------------------------------------------------
#: Calls forwarded home by the remote kernel, where the class alone
#: does not say.
FORWARDED = {
    # Class home, but the home it is routed through is the *target's*
    # (``proc.signal``), which the caller's kernel does not count.
    "kill": 0,
    # Class creates-state, but the model's exec tells the home nothing
    # unless it also migrates (exec-time migration, not exercised here).
    "exec": 0,
}

#: What of a result must be equal, where it is not the whole result:
#: call -> view(proc, result, marks).
VIEWS = {
    # A reading of the home's clock taken during the call; the migrated
    # run makes the call later, so the reading itself differs.
    "gettimeofday": lambda proc, now, marks: marks["t0"] <= now <= marks["t1"],
    "times": lambda proc, times, marks: (
        times["utime"],
        marks["t0"] <= proc.pcb.start_time + times["elapsed"] <= marks["t1"],
    ),
    # The migration count is the one thing a migration must change.
    "getrusage": lambda proc, usage, marks: {
        key: value for key, value in usage.items() if key != "migrations"},
    # ps lists the host the process is on (by design: Sprite's ps is
    # migration-aware); the caller's own row must be there either way.
    "ps": lambda proc, listing, marks: [
        (row["pid"], row["name"], row["home"])
        for row in listing if row["pid"] == proc.pid],
}


def _mark_after(proc, marks):
    marks["t1"] = proc.now
    marks["after"] = marks["kernel"].calls_forwarded_home


def _program(proc, name, hops, marks):
    setup, call = SCENARIOS[name]
    prepared = (yield from setup(proc)) if setup is not None else None
    for target in hops:
        yield from proc.migrate(target)
    marks["proc"] = proc
    marks["kernel"] = proc.kernel
    marks["t0"] = proc.now
    marks["before"] = proc.kernel.calls_forwarded_home
    result = yield from call(proc, prepared, marks)
    _mark_after(proc, marks)
    yield from proc.wait_all()
    return result


def _run(name, migrated):
    """Result (through the call's view) and forwarded-home count of one
    run of ``name``'s scenario, at home or after one migration."""
    cluster = SpriteCluster(workstations=4, start_daemons=False)
    home, other, spare, net_host = cluster.hosts
    cluster.add_file("/data", size=100_000)
    InternetServer(net_host).start()
    marks = {"spare": spare.address}
    hops = (other.address,) if migrated else ()
    pcb, _ = home.spawn_process(_program, name, hops, marks, name="caller")
    result = cluster.run_until_complete(pcb.task)
    assert (marks["kernel"] is other.kernel) == migrated
    if "after" not in marks:
        # The call ended the program (exit): its bookkeeping is the call.
        _mark_after(marks["proc"], marks)
    view = VIEWS.get(name)
    if view is not None:
        result = view(marks["proc"], result, marks)
    return result, marks["after"] - marks["before"]


def test_every_kernel_call_has_a_scenario():
    assert set(SCENARIOS) == set(KERNEL_CALLS)
    assert set(FORWARDED) | set(VIEWS) <= set(KERNEL_CALLS)


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_kernel_call_is_handled_where_appendix_a_says(name):
    at_home, forwarded_at_home = _run(name, migrated=False)
    remote, forwarded_remote = _run(name, migrated=True)
    assert remote == at_home
    assert forwarded_at_home == 0
    involves_home = APPENDIX_A[name] in (CallClass.HOME, CallClass.CREATES_STATE)
    assert forwarded_remote == FORWARDED.get(name, 1 if involves_home else 0)
