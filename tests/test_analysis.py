"""Tests for the AST invariant linter (``repro.analysis``).

Each rule gets fixture snippets for the positive (finding), negative
(clean) and pragma (suppressed) paths.  Live-tree tests assert the
shipped tree is lint-clean and that an injected violation fails with a
file:line finding.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import json
import pathlib
import shutil
import textwrap

import pytest

from repro.analysis import cli as analysis_cli
from repro.analysis import core, run_lint
from repro.analysis.callgraph import _EXPR_WALK_TYPES, CallGraph
from repro.analysis.core import AstIndex, Tree
from repro.analysis import dataflow
from repro.analysis.dataflow import exception_escapes
from repro.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"


# ----------------------------------------------------------------------
# Fixture-tree helpers
# ----------------------------------------------------------------------
def make_tree(tmp_path, files):
    """Write {relpath: source} under tmp_path and return the root."""
    root = tmp_path / "tree"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def findings_of(tmp_path, files, rules):
    root = make_tree(tmp_path, files)
    return run_lint(root, rule_ids=rules).findings


def rule_ids(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# determinism-wallclock
# ----------------------------------------------------------------------
def test_wallclock_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            import time

            def stamp():
                return time.time()
            """
        },
        ["determinism-wallclock"],
    )
    assert rule_ids(findings) == ["determinism-wallclock"]
    assert findings[0].line == 4


def test_wallclock_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def stamp(engine):
                return engine.now
            """
        },
        ["determinism-wallclock"],
    )
    assert findings == []


def test_wallclock_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            import time

            def stamp():
                # lint: disable=determinism-wallclock(offline metadata)
                return time.time()
            """
        },
    )
    result = run_lint(root, rule_ids=["determinism-wallclock"])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# determinism-global-random
# ----------------------------------------------------------------------
def test_global_random_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            import random
            from random import choice
            import numpy as np

            def roll():
                return np.random.rand()
            """
        },
        ["determinism-global-random"],
    )
    assert len(findings) == 3


def test_global_random_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            # a *relative* `from .random import` is the sim package's own
            # substream module, not stdlib random
            "pkg/__init__.py": "from .random import RandomStreams\n",
            "pkg/random.py": "class RandomStreams:\n    pass\n",
            "pkg/use.py": """\
            from .random import Rng

            def make(seed):
                return Rng(seed)
            """,
        },
        ["determinism-global-random"],
    )
    assert findings == []


def test_global_random_flags_seeded_numpy_constructors(tmp_path):
    # The runtime draws from repro.sim.random alone: a seeded numpy
    # generator is a finding too, however it is reached.
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            import numpy as np
            from numpy.random import default_rng
            from numpy import random as npr

            def make(seed):
                return np.random.default_rng(seed)
            """
        },
        ["determinism-global-random"],
    )
    assert [finding.line for finding in findings] == [2, 3, 6]
    assert all("repro.sim.random" in finding.message for finding in findings)


# ----------------------------------------------------------------------
# determinism-rng-stream / determinism-stream-collision
# ----------------------------------------------------------------------
def test_rng_stream_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def draw(rng, name):
                return rng.stream(name).random()
            """
        },
        ["determinism-rng-stream"],
    )
    assert rule_ids(findings) == ["determinism-rng-stream"]


def test_rng_stream_positive_streams_receiver(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def draw(streams, index):
                return streams.stream(f"mod.{index}").random()
            """
        },
        ["determinism-rng-stream"],
    )
    assert rule_ids(findings) == ["determinism-rng-stream"]


def test_rng_stream_negative_resolvable(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            STREAM = "mod.noise"

            class Thing:
                LOCAL = "mod.local"

                def draw(self, rng, name="mod.default"):
                    a = rng.stream("mod.literal")
                    b = rng.stream(STREAM)
                    c = rng.stream(self.LOCAL)
                    d = rng.stream(name)
                    return a, b, c, d
            """
        },
        ["determinism-rng-stream"],
    )
    assert findings == []


def test_stream_collision_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "one.py": "def f(rng):\n    return rng.stream('shared.noise')\n",
            "two.py": "def g(rng):\n    return rng.stream('shared.noise')\n",
        },
        ["determinism-stream-collision"],
    )
    assert len(findings) == 2
    assert {finding.rel for finding in findings} == {"one.py", "two.py"}


def test_stream_collision_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "one.py": "def f(rng):\n    return rng.stream('one.noise')\n",
            "two.py": "def g(rng):\n    return rng.stream('two.noise')\n",
        },
        ["determinism-stream-collision"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# determinism-unordered-iter
# ----------------------------------------------------------------------
def test_unordered_iter_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def flush(lan, inboxes):
                for address in inboxes.keys():
                    lan.send(address)
            """
        },
        ["determinism-unordered-iter"],
    )
    assert rule_ids(findings) == ["determinism-unordered-iter"]
    assert "send" in findings[0].message


def test_unordered_iter_set_literal_yield(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def gen(a, b):
                for x in {a, b}:
                    yield x
            """
        },
        ["determinism-unordered-iter"],
    )
    assert rule_ids(findings) == ["determinism-unordered-iter"]


def test_unordered_iter_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            def flush(lan, inboxes, queue):
                for address in sorted(inboxes.keys()):
                    lan.send(address)
                for item in queue:          # a list: ordered
                    lan.send(item)
                for name in inboxes.keys():  # no effect call in body
                    print(name)
            """
        },
        ["determinism-unordered-iter"],
    )
    assert findings == []


def test_unordered_iter_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            def flush(lan, inboxes):
                # lint: disable=determinism-unordered-iter(single-entry dict)
                for address in inboxes.keys():
                    lan.send(address)
            """
        },
    )
    result = run_lint(root, rule_ids=["determinism-unordered-iter"])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# obs-unguarded-emit
# ----------------------------------------------------------------------
def test_unguarded_emit_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def work(self):
                    self.tracer.emit(1.0, "mgr", "work")
            """
        },
        ["obs-unguarded-emit"],
    )
    assert rule_ids(findings) == ["obs-unguarded-emit"]


def test_unguarded_emit_guarded_forms(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def direct(self):
                    if self.tracer.enabled:
                        self.tracer.emit(1.0, "mgr", "direct")

                def early_exit(self):
                    if not self.tracer.enabled:
                        return
                    self.tracer.emit(1.0, "mgr", "early")

                def none_check(self, root):
                    if root is not None:
                        self.tracer.record_span(root, "none")

                def short_circuit(self):
                    self.tracer.enabled and self.tracer.emit(1.0, "m", "sc")
            """
        },
        ["obs-unguarded-emit"],
    )
    assert findings == []


def test_unguarded_emit_early_exit_in_handler_and_case_bodies(tmp_path):
    # An early exit guards the rest of its own suite, and an `except`
    # handler's or a `case`'s body is a suite like any other.
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def handler(self):
                    try:
                        self.work()
                    except ValueError:
                        if not self.tracer.enabled:
                            return
                        self.tracer.emit(1.0, "mgr", "except")

                def group_handler(self):
                    try:
                        self.work()
                    except* ValueError:
                        if not self.tracer.enabled:
                            return
                        self.tracer.emit(1.0, "mgr", "except*")

                def case(self, code):
                    match code:
                        case 1:
                            if not self.tracer.enabled:
                                return
                            self.tracer.emit(1.0, "mgr", "case")
            """
        },
        ["obs-unguarded-emit"],
    )
    assert findings == []


def test_unguarded_emit_in_case_body_and_after_guarded_block(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def case(self, code):
                    match code:
                        case 1:
                            self.tracer.emit(1.0, "mgr", "case")

                def after_block(self, busy):
                    if busy:
                        if not self.tracer.enabled:
                            return
                        busy = False
                    self.tracer.emit(1.0, "mgr", "after")
            """
        },
        ["obs-unguarded-emit"],
    )
    assert [(f.rule, f.line) for f in findings] == [
        ("obs-unguarded-emit", 5),
        ("obs-unguarded-emit", 12),
    ]


def test_unguarded_emit_caller_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def helper(self):
                    # lint: disable=obs-unguarded-emit(caller holds the guard)
                    self.tracer.record_span(1.0, "mgr")
            """
        },
    )
    result = run_lint(root, rule_ids=["obs-unguarded-emit"])
    assert result.findings == []
    assert result.suppressed == 1


def test_unguarded_span_call_positive(tmp_path):
    # Span calls on the tracer need a guard too, and the span switch
    # counts as one.
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def work(self):
                    self.tracer.record_span("mig.freeze", "mgr", 0.0, 1.0)

                def guarded(self):
                    if self.tracer.spans_enabled:
                        self.tracer.start_span("mig.freeze", "mgr", 0.0)
            """
        },
        ["obs-unguarded-emit"],
    )
    assert [(f.rule, f.line) for f in findings] == [("obs-unguarded-emit", 3)]


def test_unguarded_emit_window_false_negative_closed(tmp_path):
    # The old regex tool accepted any line matching "is not None" within
    # 5 lines above the emit, even when it guards something unrelated.
    # The AST rule requires the guard to actually dominate the call.
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            class Manager:
                def work(self, limit):
                    if limit is not None:
                        limit += 1
                    self.tracer.emit(1.0, "mgr", "work")
            """
        },
        ["obs-unguarded-emit"],
    )
    assert rule_ids(findings) == ["obs-unguarded-emit"]


def test_unguarded_emit_exempt_dirs(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "obs/export.py": """\
            def dump(tracer):
                tracer.emit(1.0, "x", "y")
            """,
            "sim/trace.py": """\
            def emit_all(tracer):
                tracer.emit(1.0, "x", "y")
            """,
        },
        ["obs-unguarded-emit"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# rpc rules
# ----------------------------------------------------------------------
_RPC_OK = """\
class Service:
    NAME = "svc.echo"

    def install(self, rpc):
        rpc.register(self.NAME, self._rpc_echo)

    def _rpc_echo(self, args):
        yield
        return args

    def use(self, rpc, dst):
        return (yield from rpc.call(dst, "svc.echo", None))
"""


def test_rpc_conformance_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {"svc.py": _RPC_OK},
        [
            "rpc-unregistered-service",
            "rpc-unused-service",
            "rpc-handler-not-generator",
        ],
    )
    assert findings == []


def test_rpc_unregistered_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            def use(rpc, dst):
                return (yield from rpc.call(dst, "svc.missing", None))
            """
        },
        ["rpc-unregistered-service"],
    )
    assert rule_ids(findings) == ["rpc-unregistered-service"]
    assert "svc.missing" in findings[0].message


def test_rpc_unused_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.dead", self._rpc_dead)

                def _rpc_dead(self, args):
                    yield
            """
        },
        ["rpc-unused-service"],
    )
    assert rule_ids(findings) == ["rpc-unused-service"]


def test_rpc_handler_not_generator_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.bad", self._rpc_bad)

                def _rpc_bad(self, args):
                    return args

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.bad", None))
            """
        },
        ["rpc-handler-not-generator"],
    )
    assert rule_ids(findings) == ["rpc-handler-not-generator"]


def test_rpc_idempotent_readonly_handler_is_clean(tmp_path):
    # idempotent=True is the legitimate opt-out for pure reads (like
    # mig.cor_fetch): no self mutation, no finding.
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.read", self._rpc_read, idempotent=True)

                def _rpc_read(self, args):
                    size = len(self.table)
                    yield
                    return size

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.read", None))
            """
        },
        ["rpc-idempotency"],
    )
    assert findings == []


def test_rpc_idempotent_mutating_handler_positive(tmp_path):
    # A handler that opts out of the dedup cache but writes self state
    # double-applies under a duplicating link: flagged.
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.bump", self._rpc_bump, idempotent=True)

                def _rpc_bump(self, args):
                    self.counter += 1
                    yield
                    return self.counter

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.bump", None))
            """
        },
        ["rpc-idempotency"],
    )
    assert rule_ids(findings) == ["rpc-idempotency"]
    assert "_rpc_bump" in findings[0].message


def test_rpc_idempotent_mutator_call_positive(tmp_path):
    # In-place mutator calls on self attributes count as writes too.
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.note", self._rpc_note, idempotent=True)

                def _rpc_note(self, args):
                    self.seen.add(args)
                    yield
                    return True

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.note", None))
            """
        },
        ["rpc-idempotency"],
    )
    assert rule_ids(findings) == ["rpc-idempotency"]


def test_rpc_non_idempotent_mutating_handler_is_clean(tmp_path):
    # Without the opt-out the dedup cache replays the original reply,
    # so a mutating handler is exactly what the cache is for: no flag.
    findings = findings_of(
        tmp_path,
        {
            "svc.py": """\
            class Service:
                def install(self, rpc):
                    rpc.register("svc.bump", self._rpc_bump)

                def _rpc_bump(self, args):
                    self.counter += 1
                    yield
                    return self.counter

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.bump", None))
            """
        },
        ["rpc-idempotency"],
    )
    assert findings == []


def test_rpc_forwarding_helper_resolution(tmp_path):
    # A helper that forwards its own parameter into the service slot
    # (like FsServer._callback) must have its call-site literals counted
    # as calls, and its own body must not be flagged as unresolvable.
    findings = findings_of(
        tmp_path,
        {
            "server.py": """\
            class Server:
                def _callback(self, client, service, args):
                    return (yield from self.rpc.call(client, service, args))

                def notify(self, client):
                    yield from self._callback(client, "cli.poke", None)
            """,
            "client.py": """\
            class Client:
                def install(self, rpc):
                    rpc.register("cli.poke", self._rpc_poke)

                def _rpc_poke(self, args):
                    yield
            """,
        },
        ["rpc-unregistered-service", "rpc-unused-service"],
    )
    assert findings == []


def test_rpc_forwarding_multi_hop_resolution(tmp_path):
    # Call-graph-based forwarding resolution: a helper calling a helper
    # calling `.call` resolves literals through BOTH hops — the old
    # one-level heuristic could not see `notify -> _relay -> _callback`.
    findings = findings_of(
        tmp_path,
        {
            "server.py": """\
            class Server:
                def _callback(self, client, service, args):
                    return (yield from self.rpc.call(client, service, args))

                def _relay(self, client, service):
                    yield from self._callback(client, service, None)

                def notify(self, client):
                    yield from self._relay(client, "cli.poke")
            """,
            "client.py": """\
            class Client:
                def install(self, rpc):
                    rpc.register("cli.poke", self._rpc_poke)

                def _rpc_poke(self, args):
                    yield
            """,
        },
        ["rpc-unregistered-service", "rpc-unused-service"],
    )
    assert findings == []


def test_rpc_forwarding_multi_hop_catches_typo(tmp_path):
    # The same chain with a typo'd literal at the outermost hop must
    # still produce an unregistered-service finding at that call site.
    findings = findings_of(
        tmp_path,
        {
            "server.py": """\
            class Server:
                def _callback(self, client, service, args):
                    return (yield from self.rpc.call(client, service, args))

                def _relay(self, client, service):
                    yield from self._callback(client, service, None)

                def notify(self, client):
                    yield from self._relay(client, "cli.pokee")
            """,
            "client.py": """\
            class Client:
                def install(self, rpc):
                    rpc.register("cli.poke", self._rpc_poke)
                    yield from self.rpc.call(0, "cli.poke", None)

                def _rpc_poke(self, args):
                    yield
            """,
        },
        ["rpc-unregistered-service"],
    )
    assert rule_ids(findings) == ["rpc-unregistered-service"]
    assert "cli.pokee" in findings[0].message
    assert findings[0].rel == "server.py"


# ----------------------------------------------------------------------
# txn rules
# ----------------------------------------------------------------------
_TXN_PY = """\
TXN_STEPS = ("negotiated", "frozen", "committed")


class MigrationTxn:
    pass
"""


def test_txn_unknown_step_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "migration/txn.py": _TXN_PY,
            "migration/mechanism.py": """\
            def drive(txn):
                txn.step("frozen")
                txn.step("totally-bogus")
            """,
        },
        ["txn-unknown-step"],
    )
    assert rule_ids(findings) == ["txn-unknown-step"]
    assert "totally-bogus" in findings[0].message


def test_txn_unknown_step_journal_helper(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "migration/txn.py": _TXN_PY,
            "migration/mechanism.py": """\
            class Mechanism:
                def go(self, txn, epoch):
                    self._journal_step(txn, "not-a-step")
            """,
        },
        ["txn-unknown-step"],
    )
    assert rule_ids(findings) == ["txn-unknown-step"]


def test_txn_unknown_step_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "migration/txn.py": _TXN_PY,
            "migration/mechanism.py": """\
            def drive(txn):
                txn.step("negotiated")
                txn.did("frozen")
            """,
        },
        ["txn-unknown-step"],
    )
    assert findings == []


def test_txn_undo_coverage_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "migration/mechanism.py": """\
            def do_step(txn, ticket):
                txn.push_undo("ticket", ticket=ticket)
                txn.push_undo("orphan", x=1)

            def rollback(entry):
                if entry.kind == "ticket":
                    return "undo-ticket"
                if entry.kind == "ghost":
                    return "dead-arm"
            """
        },
        ["txn-undo-coverage"],
    )
    assert sorted(rule_ids(findings)) == [
        "txn-undo-coverage",
        "txn-undo-coverage",
    ]
    messages = " ".join(finding.message for finding in findings)
    assert "orphan" in messages and "ghost" in messages


def test_txn_undo_coverage_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "migration/mechanism.py": """\
            def do_step(txn, ticket):
                txn.push_undo("ticket", ticket=ticket)

            def rollback(entry):
                if entry.kind == "ticket":
                    return "undo-ticket"
            """
        },
        ["txn-undo-coverage"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# exception-flow (interprocedural successor of error-hierarchy)
# ----------------------------------------------------------------------
_NET_ERRORS = """\
class RpcError(Exception):
    pass


class HostDownError(RpcError):
    pass
"""

_FS_ERRORS = """\
class FsError(Exception):
    pass
"""


def test_exception_flow_direct_raise_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "net/lan.py": """\
            def deliver(ok):
                if not ok:
                    raise RuntimeError("inbox full")
            """,
        },
        ["exception-flow"],
    )
    assert rule_ids(findings) == ["exception-flow"]
    assert "RuntimeError" in findings[0].message
    assert findings[0].rel == "net/lan.py"
    assert findings[0].line == 3


def test_exception_flow_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "migration/mechanism.py": """\
            from ..net.errors import RpcError


            class MigrationRefused(RpcError):
                pass


            def refuse(reason, flag):
                if flag:
                    raise ValueError("programmer error is allowed")
                raise MigrationRefused(reason)
            """,
            "kernel/other.py": """\
            def outside_scope():
                raise RuntimeError("kernel/ is not in scope for this rule")
            """,
        },
        ["exception-flow"],
    )
    assert findings == []


def test_exception_flow_transitive_escape(tmp_path):
    """A builtin raised two calls below a scoped entry point is caught
    even though the raise site itself lives outside the scoped dirs."""
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "kernel/helper.py": """\
            def inner(flag):
                if flag:
                    raise OSError("deep failure")


            def outer(flag):
                inner(flag)
            """,
            "net/lan.py": """\
            from ..kernel.helper import outer


            def deliver(flag):
                outer(flag)
            """,
        },
        ["exception-flow"],
    )
    assert rule_ids(findings) == ["exception-flow"]
    assert findings[0].rel == "kernel/helper.py"
    assert findings[0].line == 3
    assert "escapes `deliver`" in findings[0].message


def test_exception_flow_caught_by_hierarchy_ancestor(tmp_path):
    """try/except filtering is hierarchy-aware: catching the tree base
    class (or Exception) stops the escape, both for tree classes and
    builtins."""
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "kernel/helper.py": """\
            def fail():
                raise OSError("handled below")
            """,
            "net/lan.py": """\
            from ..kernel.helper import fail


            def deliver():
                try:
                    fail()
                except OSError:
                    return None
            """,
        },
        ["exception-flow"],
    )
    assert findings == []


_RING_FIXTURE = """\
def first(n):
    second(n)
    raise OSError("one")


def second(n):
    third(n)
    raise OSError("two")


def third(n):
    first(n)
    raise OSError("three")
"""


def test_exception_flow_settles_on_a_call_ring(tmp_path):
    """Three mutually recursive functions that each raise the same
    builtin after calling the next: every summary is "my callee's
    origin", so with origins compared the worklist passes the three
    sites round the ring for ever.  A name keeps the first origin found
    for it, and the analysis ends, reporting raise sites of the class."""
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "net/lan.py": _RING_FIXTURE,
        },
        ["exception-flow"],
    )
    assert findings
    assert all("OSError" in finding.message for finding in findings)


def test_exception_flow_handler_reraise_escapes(tmp_path):
    """A bare `raise` inside an except clause re-raises what the
    handler caught, so the exception still escapes."""
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "net/lan.py": """\
            def deliver():
                try:
                    raise OSError("transient")
                except OSError:
                    raise
            """,
        },
        ["exception-flow"],
    )
    assert rule_ids(findings) == ["exception-flow"]
    assert findings[0].line == 3


def test_exception_flow_registered_handler_is_entry_point(tmp_path):
    """An RPC handler outside the scoped dirs is still an entry point:
    its transitive escapes are checked."""
    findings = findings_of(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "baselines/surrogate.py": """\
            class Surrogate:
                def attach(self, port):
                    port.register("surrogate.exec", self._handler)

                def _handler(self, src, payload):
                    raise RuntimeError("boom")
                    yield None
            """,
        },
        ["exception-flow"],
    )
    assert rule_ids(findings) == ["exception-flow"]
    assert findings[0].rel == "baselines/surrogate.py"
    assert "RuntimeError" in findings[0].message


def test_exception_flow_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "net/errors.py": _NET_ERRORS,
            "fs/errors.py": _FS_ERRORS,
            "net/lan.py": """\
            def deliver(ok):
                if not ok:
                    # lint: disable=exception-flow(model invariant violation)
                    raise RuntimeError("inbox full")
            """,
        },
    )
    result = run_lint(root, rule_ids=["exception-flow"])
    assert result.findings == []
    assert result.suppressed == 1


_MATCH_FIXTURE = """\
class Boom(Exception):
    pass


def fail():
    raise Boom("handled by the caller")


def under_case(kind):
    match kind:
        case 1:
            try:
                fail()
            except Boom:
                pass


def under_if(kind):
    if kind == 1:
        try:
            fail()
        except Boom:
            pass


def in_case_body(kind):
    match kind:
        case [first, *_]:
            fail()


def in_guard(kind):
    match kind:
        case int() if fail():
            pass
"""

_TRY_STAR_FIXTURE = """\
class Boom(Exception):
    pass


class Other(Exception):
    pass


def fail():
    raise Boom("grouped")


def caught():
    try:
        fail()
    except* Boom:
        pass


def raised_in_handler():
    try:
        fail()
    except* Boom:
        raise Other("replaced")


def uncaught():
    try:
        fail()
    except* Other:
        pass
"""


def _escaping(tmp_path, source):
    """qualname -> the exception names escaping it, of a one-module tree."""
    graph = Tree.load(make_tree(tmp_path, {"mod.py": source})).callgraph()
    return {
        key[1]: sorted(names)
        for key, names in exception_escapes(graph).items()
    }


def test_exception_flow_case_body_is_a_suite(tmp_path):
    # A try/except inside a case body filters like one under an if; a
    # case's guard is a header expression, its body a suite.
    escaping = _escaping(tmp_path, _MATCH_FIXTURE)
    assert escaping["under_case"] == escaping["under_if"] == []
    assert escaping["in_case_body"] == ["Boom"]
    assert escaping["in_guard"] == ["Boom"]


def test_exception_flow_try_star_filters_like_try(tmp_path):
    escaping = _escaping(tmp_path, _TRY_STAR_FIXTURE)
    assert escaping["caught"] == []
    assert escaping["raised_in_handler"] == ["Other"]
    assert escaping["uncaught"] == ["Boom"]


# ----------------------------------------------------------------------
# state-module-mutable
# ----------------------------------------------------------------------
def test_module_state_counter_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "fs/streams.py": """\
            import itertools

            _stream_ids = itertools.count(1)
            """
        },
        ["state-module-mutable"],
    )
    assert rule_ids(findings) == ["state-module-mutable"]
    assert findings[0].line == 3
    assert "sim.state.counter" in findings[0].message


def test_module_state_mutable_container_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            _cache = {}
            pending: list = []
            """
        },
        ["state-module-mutable"],
    )
    assert rule_ids(findings) == ["state-module-mutable"] * 2
    assert [f.line for f in findings] == [1, 2]


def test_module_state_global_statement_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            _total = 0

            def bump():
                global _total
                _total += 1
            """
        },
        ["state-module-mutable"],
    )
    assert rule_ids(findings) == ["state-module-mutable"]
    assert "global _total" in findings[0].message


def test_module_state_negative(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mod.py": """\
            __all__ = ["Widget", "SIZES"]

            SIZES = {"small": 1, "large": 2}
            NAMES = sorted(SIZES)
            LIMIT = 16

            class Widget:
                registry = {}

                def __init__(self, sim):
                    self._ids = sim.state.counter("widget.ids")
                    self.cache = {}
            """
        },
        ["state-module-mutable"],
    )
    assert findings == []


def test_module_state_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            # lint: disable=state-module-mutable(deliberate process registry)
            _registry = {}
            """
        },
    )
    result = run_lint(root, rule_ids=["state-module-mutable"])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_fixture_tree_exit_codes(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {"mod.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    code = cli_main(["lint", "--path", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "mod.py:4" in out
    assert "[determinism-wallclock]" in out


def test_cli_lint_rule_filter(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {"mod.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    code = cli_main(
        ["lint", "--path", str(root), "--rule", "obs-unguarded-emit"]
    )
    capsys.readouterr()
    assert code == 0


def test_cli_lint_json_output(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {"mod.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    code = cli_main(["lint", "--path", str(root), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["findings"][0]["rule"] == "determinism-wallclock"
    assert payload["findings"][0]["line"] == 4


def test_cli_lint_unknown_rule(tmp_path, capsys):
    code = cli_main(["lint", "--rule", "no-such-rule"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no-such-rule" in err


def test_cli_lint_list_rules(capsys):
    code = cli_main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in (
        "determinism-wallclock",
        "obs-unguarded-emit",
        "rpc-unregistered-service",
        "txn-unknown-step",
        "exception-flow",
        "coroutine-protocol",
        "determinism-taint",
    ):
        assert rule in out


# ----------------------------------------------------------------------
# live tree
# ----------------------------------------------------------------------
def test_live_tree_is_lint_clean(capsys):
    code = cli_main(["lint"])
    out = capsys.readouterr().out
    assert code == 0, f"live tree has lint findings:\n{out}"


def test_live_tree_injected_violation_fails(tmp_path, capsys):
    # Copy the real tree, inject one wall-clock read into the kernel,
    # and require a non-zero exit with a file:line finding.
    copy = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, copy)
    target = copy / "kernel" / "kernel.py"
    target.write_text(
        target.read_text()
        + "\n\nimport time\n\n\ndef _injected():\n    return time.time()\n"
    )
    code = cli_main(["lint", "--path", str(copy)])
    out = capsys.readouterr().out
    assert code == 1
    assert "kernel/kernel.py" in out
    assert "[determinism-wallclock]" in out


# ----------------------------------------------------------------------
# obs-span-catalogue
# ----------------------------------------------------------------------
def test_span_catalogue_positive_inline_string(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mech.py": """\
            def go(self):
                span = self.tracer.start_span("mig.bogus_phase", "mig:ws0", 0.0)
                span.finish(1.0)
            """
        },
        ["obs-span-catalogue"],
    )
    assert rule_ids(findings) == ["obs-span-catalogue"]
    assert "mig.bogus_phase" in findings[0].message


def test_span_catalogue_negative_constant_and_literal(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "mech.py": """\
            from repro.obs.spans import MIG_FREEZE

            def go(self, host):
                host.tracer.start_span(MIG_FREEZE, "mig:ws0", 0.0)
                host.tracer.record_span("rpc.call", "rpc:ws0", 0.0, 1.0)
            """
        },
        ["obs-span-catalogue"],
    )
    assert findings == []


def test_span_catalogue_forwarded_param(tmp_path):
    # A wrapper that forwards its `name` parameter is clean only when
    # every same-module caller passes a catalogued name.
    bad = findings_of(
        tmp_path,
        {
            "mech.py": """\
            def _phase(self, name, t):
                return self.tracer.start_span(name, "mig:ws0", t=t)

            def run(self):
                self._phase("not.registered", 0.0)
            """
        },
        ["obs-span-catalogue"],
    )
    assert rule_ids(bad) == ["obs-span-catalogue"]
    assert "forwarded" in bad[0].message and "not.registered" in bad[0].message

    good = findings_of(
        tmp_path,
        {
            "mech.py": """\
            from repro.obs.spans import MIG_FREEZE

            def _phase(self, name, t):
                return self.tracer.start_span(name, "mig:ws0", t=t)

            def run(self):
                self._phase(MIG_FREEZE, 0.0)
            """
        },
        ["obs-span-catalogue"],
    )
    assert good == []


def test_span_catalogue_forwarded_through_two_helpers_in_two_modules(tmp_path):
    # `phase` has a clean caller in its own module; the uncatalogued
    # name reaches it from another module, through `relay`.  The chase
    # runs on the call graph, so module and depth do not matter.
    files = {
        "a.py": """\
        from repro.obs.spans import MIG_FREEZE

        def phase(host, name, t):
            return host.tracer.start_span(name, "mig:ws0", t=t)

        def local(host):
            phase(host, MIG_FREEZE, 0.0)
        """,
        "b.py": """\
        from .a import phase

        def relay(host, label):
            return phase(host, label, 1.0)

        def run(host):
            relay(host, "not.registered")
        """,
    }
    bad = findings_of(tmp_path, files, ["obs-span-catalogue"])
    assert [(f.rel, f.line) for f in bad] == [("a.py", 4)]
    assert "not.registered" in bad[0].message
    assert "caller at b.py:7" in bad[0].message

    files["b.py"] = files["b.py"].replace('"not.registered"', '"mig.freeze"')
    assert findings_of(tmp_path, files, ["obs-span-catalogue"]) == []


def test_span_catalogue_exempts_obs_layer(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "obs/impl.py": """\
            def go(self):
                self.tracer.start_span("anything.goes", "x:ws0", 0.0)
            """
        },
        ["obs-span-catalogue"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# coroutine-protocol
# ----------------------------------------------------------------------
def test_coroutine_discarded_call_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "sim/worker.py": """\
            class Worker:
                def step(self):
                    yield 1

                def run(self):
                    self.step()
                    yield 2
            """
        },
        ["coroutine-protocol"],
    )
    assert rule_ids(findings) == ["coroutine-protocol"]
    assert findings[0].rel == "sim/worker.py"
    assert findings[0].line == 6
    assert "yield from" in findings[0].message


def test_coroutine_yield_instead_of_yield_from_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "sim/worker.py": """\
            def step():
                yield 1


            def run():
                yield step()
            """
        },
        ["coroutine-protocol"],
    )
    assert rule_ids(findings) == ["coroutine-protocol"]
    assert "yield from" in findings[0].message


def test_coroutine_truthiness_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "sim/worker.py": """\
            def recv():
                yield 1


            def run():
                if recv():
                    return True
                yield 2
            """
        },
        ["coroutine-protocol"],
    )
    assert rule_ids(findings) == ["coroutine-protocol"]
    assert "always truthy" in findings[0].message


def test_coroutine_negative_driven_calls(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "sim/worker.py": """\
            def step():
                yield 1


            def run(sim, spawn):
                gen = step()
                yield from step()
                spawn(sim, step)
                return gen
            """
        },
        ["coroutine-protocol"],
    )
    assert findings == []


def test_coroutine_mixed_candidates_not_guessed(tmp_path):
    # `obj.close()` where one tree class has a coroutine close and
    # another a plain close is ambiguous: never flagged.
    findings = findings_of(
        tmp_path,
        {
            "sim/a.py": """\
            class Stream:
                def close(self):
                    yield 1


            class Lease:
                def close(self):
                    return None


            def run(obj):
                obj.close()
            """
        },
        ["coroutine-protocol"],
    )
    assert findings == []


def test_coroutine_pragma(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "sim/worker.py": """\
            def step():
                yield 1


            def run():
                # lint: disable=coroutine-protocol(builds a detached generator on purpose)
                step()
                yield 2
            """
        },
    )
    result = run_lint(root, rule_ids=["coroutine-protocol"])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# determinism-taint
# ----------------------------------------------------------------------
def test_taint_helper_return_positive(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "obs/clock.py": """\
            import time


            def stamp():
                return time.time()
            """,
            "sim/engine.py": """\
            from ..obs.clock import stamp


            def tick(state):
                state.t = stamp()
            """,
        },
        ["determinism-taint"],
    )
    assert rule_ids(findings) == ["determinism-taint"]
    assert findings[0].rel == "sim/engine.py"
    assert "obs/clock.py:5" in findings[0].message


def test_taint_flows_through_chain_and_locals(tmp_path):
    # taint survives an intermediate helper and a local rebind
    findings = findings_of(
        tmp_path,
        {
            "kernel/helper.py": """\
            import time


            def now():
                t = time.time()
                return t


            def laundered():
                value = now()
                return value + 1.0
            """,
            "sim/engine.py": """\
            from ..kernel.helper import laundered


            def tick(state):
                state.t = laundered()
            """,
        },
        ["determinism-taint"],
    )
    rels = sorted({finding.rel for finding in findings})
    assert "sim/engine.py" in rels
    assert all(f.rule == "determinism-taint" for f in findings)


def test_taint_pragma_on_source_does_not_bless_consumers(tmp_path):
    # the wallclock pragma justifies the source's own use; the taint
    # rule still flags sim-side consumption of the returned value.
    findings = findings_of(
        tmp_path,
        {
            "kernel/helper.py": """\
            import time


            def host_seconds():
                return time.time()  # lint: disable=determinism-wallclock(host-side profiling)
            """,
            "sim/engine.py": """\
            from ..kernel.helper import host_seconds


            def tick(state):
                state.t = host_seconds()
            """,
        },
        ["determinism-taint"],
    )
    assert rule_ids(findings) == ["determinism-taint"]


def test_taint_negative_exempt_consumer_and_clean_helper(tmp_path):
    findings = findings_of(
        tmp_path,
        {
            "kernel/helper.py": """\
            import time


            def host_seconds():
                return time.time()


            def pure(x):
                return x + 1
            """,
            "obs/profile.py": """\
            from ..kernel.helper import host_seconds


            def sample(sink):
                sink.append(host_seconds())
            """,
            "sim/engine.py": """\
            from ..kernel.helper import pure


            def tick(state):
                state.t = pure(state.t)
            """,
        },
        ["determinism-taint"],
    )
    assert findings == []


def test_taint_pragma_at_call_site(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "kernel/helper.py": """\
            import time


            def host_seconds():
                return time.time()
            """,
            "sim/engine.py": """\
            from ..kernel.helper import host_seconds


            def tick(state):
                # lint: disable=determinism-taint(debug-only path, stripped in runs)
                state.t = host_seconds()
            """,
        },
    )
    result = run_lint(root, rule_ids=["determinism-taint"])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# the shared AST index
# ----------------------------------------------------------------------
_INDEX_FIXTURE = textwrap.dedent(
    """\
    import os
    from a import b as c

    TABLE = {k: (lambda v: v + 1) for k in range(3)}


    class Outer:
        attr: int = 0

        def method(self, items):
            total = 0
            for item in items:
                try:
                    total += [x * 2 for x in item if x][0]
                except (IndexError, KeyError) as err:
                    def recover(e=err):
                        return (yield from e.args)
                    total -= 1
                else:
                    total = total if total else None
                finally:
                    del item
            return total

        async def later(self):
            async with self.lock as held:
                return await held.get()


    def outer():
        def inner():
            yield 1
        return inner, (lambda: (yield))
    """
)


def _walk_parents(tree):
    """The parents table as the pre-index builder made it: a second
    full walk, child -> the last parent that lists it."""
    table = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            table[child] = parent
    return table


def _yields(func):
    """Generator-ness as the pre-index scan decided it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))
    return False


_BUCKET_KEYS = [
    (ast.FunctionDef, ast.AsyncFunctionDef),
    (ast.ImportFrom, ast.Import),
    (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return),
    (ast.stmt,),
    (ast.expr_context,),
    (ast.Global,),
]


def _assert_index_matches_walk(index, tree):
    walked = list(ast.walk(tree))
    assert index.nodes == walked
    assert index.parents == _walk_parents(tree)
    keys = _BUCKET_KEYS + [(kind,) for kind in {type(n) for n in walked}]
    for key in keys:
        assert index.nodes_of(*key) == [
            node for node in walked if isinstance(node, key)
        ], key


def test_ast_index_matches_walk_on_fixture():
    tree = ast.parse(_INDEX_FIXTURE)
    index = AstIndex(tree)
    _assert_index_matches_walk(index, tree)
    defs = index.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef)
    # breadth-first: shallower defs first, whatever the source order
    assert [d.name for d in defs] == [
        "outer", "method", "later", "inner", "recover"
    ]
    method = defs[1]
    assert index.subtree(method) == list(ast.walk(method))
    assert index.subtree(method) is index.subtree(method)


class _Unscannable(list):
    def __iter__(self):
        raise AssertionError("nodes_of scanned the module")


def test_nodes_of_scans_only_for_several_present_types():
    tree = ast.parse(_INDEX_FIXTURE)
    walked = list(ast.walk(tree))
    index = AstIndex(tree)
    index.nodes = _Unscannable()
    # Absent types and a single present type come from the buckets.
    for key in [(ast.Global,), (ast.Nonlocal, ast.Global), (ast.Call,),
                (ast.Lambda,)]:
        assert index.nodes_of(*key) == [
            node for node in walked if isinstance(node, key)
        ], key
    # Several present types merge in walk order, which takes the scan.
    key = (ast.FunctionDef, ast.AsyncFunctionDef)
    assert AstIndex(tree).nodes_of(*key) == [
        node for node in walked if isinstance(node, key)
    ]


def test_ast_index_matches_walk_on_live_tree():
    modules = Tree.load(SRC_REPRO).parsed()
    assert len(modules) > 50
    for module in modules:
        _assert_index_matches_walk(module.index, module.tree)
        defs = module.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef)
        assert {d for d in defs if d in module.generators} == {
            d for d in defs if _yields(d)
        }, module.rel


_HOLDING_KEYS = [
    (ast.Call,),
    _EXPR_WALK_TYPES,
    (ast.Yield, ast.YieldFrom),
    (ast.stmt,),
    (ast.Lambda,),
    (ast.Nonlocal,),  # none in the fixture
]


def test_holding_matches_brute_force_on_fixture():
    index = AstIndex(ast.parse(_INDEX_FIXTURE))
    for key in _HOLDING_KEYS:
        assert index.holding(*key) == {
            node
            for node in index.nodes
            if any(isinstance(down, key) for down in ast.walk(node))
        }, key
    assert index.holding(ast.Call) is index.holding(ast.Call)


# Unpruned twins of the two expression walks, as they were before the
# walks consulted ``AstIndex.holding``: every child is expanded.
def _unpruned_walk_expr_calls(self, module, stmt, scope):
    stack = [stmt]
    while stack:
        node = stack.pop()
        if not node._fields:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = self._fn_by_ast.get(id(node))
            child = self._scopes.get(id(node))
            if fn is not None and child is not None:
                scope.nested.setdefault(node.name, fn)
                self._record_decorators(module, node, scope)
                self._walk_suite(module, node.body, child, None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            self._record_call(module, node, scope)
        elif isinstance(node, ast.Dict):
            for value in node.values:
                self._record_ref(module, value, scope)
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for element in node.elts:
                self._record_ref(module, element, scope)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._record_ref(module, node.value, scope)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and node.value is not None:
            self._record_ref(module, node.value, scope)
        stack.extend(ast.iter_child_nodes(node))


def _unpruned_header_calls(stmt):
    out = []
    stack = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.match_case):
            stack += [child.pattern] + ([child.guard] if child.guard else [])
        elif not isinstance(child, (ast.stmt, ast.ExceptHandler)):
            stack.append(child)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        if node._fields:
            stack.extend(ast.iter_child_nodes(node))
    return out


class _RecordingGraph(CallGraph):
    """Keeps every call and reference expression the walk acts on."""

    def __init__(self, tree):
        super().__init__(tree)
        self.acted_on = []

    def _record_call(self, module, call, scope):
        self.acted_on.append(call)
        super()._record_call(module, call, scope)

    def _record_ref(self, module, node, scope):
        self.acted_on.append(node)
        super()._record_ref(module, node, scope)


class _UnprunedGraph(_RecordingGraph):
    _walk_expr_calls = _unpruned_walk_expr_calls


def _edge_rows(graph):
    return [
        (edge.caller and edge.caller.key, edge.callee.key, edge.module.rel,
         edge.site, edge.kind, edge.sharp)
        for edge in graph.edges
    ]


def _visited_statements(graph):
    """Every statement the escape analysis visits: each function's body
    and every suite nested in it, but not the defs and classes there."""
    out = []
    todo = [stmt for fn in graph.functions.values() for stmt in fn.node.body]
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append(child)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                todo.extend(child.body)
    return out


def _analysis_fixture_tree(tmp_path):
    return make_tree(tmp_path, {
        "index.py": _INDEX_FIXTURE,
        "match.py": _MATCH_FIXTURE,
        "trystar.py": _TRY_STAR_FIXTURE,
        "net/ring.py": _RING_FIXTURE,
        "order.py": _ORDER_FIXTURE,
        "rpc.py": _RPC_OK,
        "net/errors.py": _NET_ERRORS,
        "fs/errors.py": _FS_ERRORS,
    })


@pytest.mark.parametrize("corpus", ["src", "fixtures"])
def test_pruned_walks_match_unpruned_twins(tmp_path, corpus):
    root = SRC_REPRO if corpus == "src" else _analysis_fixture_tree(tmp_path)
    tree = Tree.load(root)
    pruned, unpruned = _RecordingGraph.build(tree), _UnprunedGraph.build(tree)
    assert pruned.acted_on == unpruned.acted_on
    assert _edge_rows(pruned) == _edge_rows(unpruned)
    # The calls the walk records per statement are the ones in the
    # statement's own expressions, in the unpruned walk's order.
    statements = 0
    for stmt in _visited_statements(pruned):
        assert pruned.calls_in(stmt) == _unpruned_header_calls(stmt), (
            stmt.lineno
        )
        statements += 1
    assert statements > (5_000 if corpus == "src" else 50)


_ORDER_FIXTURE = """\
class Boom(Exception):
    pass


def first():
    raise Boom("first")


def second():
    raise Boom("second")


def both():
    first()
    second()


def handled():
    try:
        first()
    except Boom:
        pass
    except Exception:
        raise
"""


def _recursive_escapes(graph):
    """``exception_escapes`` as it was before the plans: every transfer
    walks the function's statements again, recursing into each suite."""
    covers = dataflow._Hierarchy(graph).covers

    def escapes_of(stmts, rel, summaries, caught):
        out = {}

        def merge(names):
            for name, origin in names.items():
                out.setdefault(name, origin)

        def merge_calls(stmt):
            for call in _unpruned_header_calls(stmt):
                for callee in graph.call_targets(call):
                    merge(summaries[callee.key])

        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Raise):
                if stmt.exc is None:
                    merge(caught)
                    continue
                name = dataflow._raised_name(stmt.exc)
                if name is not None:
                    out.setdefault(name, (rel, stmt.lineno))
                merge_calls(stmt)
                continue
            if isinstance(stmt, (ast.Try, ast.TryStar)):
                survived = escapes_of(stmt.body, rel, summaries, caught)
                for handler in stmt.handlers:
                    names = dataflow._handler_names(handler)
                    if names is None:
                        taken, survived = survived, {}
                    else:
                        taken = {
                            name: origin
                            for name, origin in survived.items()
                            if any(covers(c, name) for c in names)
                        }
                        for name in taken:
                            del survived[name]
                    merge(escapes_of(handler.body, rel, summaries, taken))
                merge(survived)
                merge(escapes_of(stmt.orelse, rel, summaries, caught))
                merge(escapes_of(stmt.finalbody, rel, summaries, caught))
                continue
            if isinstance(stmt, ast.Match):
                suites = [case.body for case in stmt.cases]
            else:
                suites = [
                    value for _field, value in ast.iter_fields(stmt)
                    if isinstance(value, list) and value
                    and isinstance(value[0], ast.stmt)
                ]
            for suite in suites:
                merge(escapes_of(suite, rel, summaries, caught))
            merge_calls(stmt)
        return out

    def transfer(fn, summaries):
        found = escapes_of(fn.node.body, fn.rel, summaries, {})
        found.update(summaries[fn.key])
        return found

    summaries = dataflow.fixpoint(graph, lambda fn: {}, transfer)
    return {key: dict(value) for key, value in summaries.items()}


def _escape_rows(escapes):
    """The escapes with every order they carry: keys, names, origins."""
    return [(key, list(names.items())) for key, names in escapes.items()]


@pytest.mark.parametrize("corpus", ["src", "fixtures"])
def test_exception_plans_match_the_recursive_twin(tmp_path, corpus):
    root = SRC_REPRO if corpus == "src" else _analysis_fixture_tree(tmp_path)
    graph = Tree.load(root).callgraph()
    escapes = exception_escapes(graph)
    assert _escape_rows(escapes) == _escape_rows(_recursive_escapes(graph))
    assert sum(map(len, escapes.values())) > (500 if corpus == "src" else 10)


def _reordered(steps, what):
    """A plan with every callee run (``what="callees"``) or every try's
    handlers (``"handlers"``) in reverse order."""
    out = []
    for step in steps:
        if step[0] == dataflow._CALLS and what == "callees":
            step = (dataflow._CALLS, step[1][::-1])
        elif step[0] == dataflow._TRY:
            tag, body, handlers, orelse, finalbody = step
            handlers = tuple(
                (names, _reordered(handler, what))
                for names, handler in handlers
            )
            step = (
                tag, _reordered(body, what),
                handlers[::-1] if what == "handlers" else handlers,
                _reordered(orelse, what), _reordered(finalbody, what),
            )
        out.append(step)
    return out


@pytest.mark.parametrize("what", ["callees", "handlers"])
def test_reordered_plans_fail_the_twin(tmp_path, monkeypatch, what):
    # The twin comparison sees order: replaying the callees or the
    # handlers of each plan backwards changes what escapes.
    real, depth = dataflow._plan, [0]

    def plan(*args):
        depth[0] += 1
        try:
            steps = real(*args)
        finally:
            depth[0] -= 1
        return _reordered(steps, what) if depth[0] == 0 else steps

    graph = Tree.load(make_tree(tmp_path, {"order.py": _ORDER_FIXTURE})
                      ).callgraph()
    monkeypatch.setattr(dataflow, "_plan", plan)
    escapes = exception_escapes(graph)
    assert _escape_rows(escapes) != _escape_rows(_recursive_escapes(graph))
    # `both` takes Boom's origin from its first callee; in `handled`
    # the narrow handler swallows Boom before the broad one re-raises it.
    assert escapes[("order.py", "both")]["Boom"] == (
        ("order.py", 10) if what == "callees" else ("order.py", 6)
    )
    assert escapes[("order.py", "handled")] == (
        {"Boom": ("order.py", 6)} if what == "handlers" else {}
    )


def test_cold_lint_traversal_budget(monkeypatch):
    # Every rule reads the shared index, and the call graph's and the
    # dataflow's expression walks expand only subtrees that hold what
    # they look for (`AstIndex.holding`): a cold lint expands fewer
    # nodes than the tree has (0.38 per node), never once per rule.
    # A host-independent count, so a private `ast.walk` over module
    # trees cannot creep back in unnoticed (it was 26x before the index,
    # and one more whole-tree walk would pass 1).
    calls = [0]
    real = ast.iter_child_nodes

    def counting(node):
        calls[0] += 1
        return real(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    result = run_lint(SRC_REPRO)
    monkeypatch.undo()
    assert result.clean
    nodes = sum(
        len(module.index.nodes) for module in Tree.load(SRC_REPRO).parsed()
    )
    assert calls[0] <= nodes, (calls[0], nodes)


def test_first_match_rules_follow_walk_order(tmp_path):
    # Walk order is breadth-first: of two candidates the shallower wins
    # even when it comes later in the file.  The handler lookup and the
    # taint origin both take the first match in that order.
    root = make_tree(
        tmp_path,
        {
            "svc.py": """\
            import time


            class Nested:
                class Deeper:
                    def _rpc_get(self, args):
                        return args


            class Service:
                def install(self, rpc):
                    rpc.register("svc.get", self._rpc_get)

                def _rpc_get(self, args):
                    yield args

                def use(self, rpc, dst):
                    return (yield from rpc.call(dst, "svc.get", None))


            def stamp(flag):
                if flag:
                    return time.time()
                return time.monotonic()
            """,
            "sim.py": """\
            from .svc import stamp


            def tick(state):
                state.t = stamp(True)
            """,
        },
    )
    result = run_lint(
        root, rule_ids=["rpc-handler-not-generator", "determinism-taint"]
    )
    assert rule_ids(result.findings) == ["determinism-taint"]
    assert "svc.py:24" in result.findings[0].message


def test_live_tree_injected_violation_json_is_exact(tmp_path, capsys):
    # The machine-readable form of the injected-violation run, pinned
    # field by field (recorded before the rules moved onto the index).
    copy = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, copy)
    target = copy / "kernel" / "kernel.py"
    source = target.read_text()
    target.write_text(
        source + "\n\nimport time\n\n\ndef _injected():\n    return time.time()\n"
    )
    code = cli_main(["lint", "--path", str(copy), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["findings"] == [
        {
            "rule": "determinism-wallclock",
            "file": "kernel/kernel.py",
            "line": len(source.splitlines()) + 7,
            "message": "time.time() is a wall-clock read; use engine.now "
            "/ cluster.rng for anything trace-visible",
            "snippet": "return time.time()",
        }
    ]


# ----------------------------------------------------------------------
# lint --graph (call-graph dump / dead-code report)
# ----------------------------------------------------------------------
def test_cli_lint_graph_report(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            def used():
                return 1


            def unused():
                return 2


            def main():
                return used()
            """
        },
    )
    code = cli_main(["lint", "--path", str(root), "--graph"])
    out = capsys.readouterr().out
    assert code == 1        # report mode is a gate: orphans fail it
    assert "call graph:" in out
    assert "mod.py:5 unused" in out
    assert "mod.py:1 used" not in out
    assert "2 unreferenced function(s) not kept" in out

    (root / "mod.py").write_text(
        '__all__ = ["main"]\n\n\ndef main():\n    return 1\n'
    )
    assert cli_main(["lint", "--path", str(root), "--graph"]) == 0


def test_cli_lint_graph_json_and_dot(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {
            "mod.py": """\
            def callee():
                return 1


            def caller():
                return callee()
            """
        },
    )
    code = cli_main(["lint", "--path", str(root), "--graph", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["functions"] == 2
    assert {
        "caller": "mod.py::caller",
        "callee": "mod.py::callee",
        "kind": "call",
        "sharp": True,
    } in payload["edges"]
    assert "mod.py::callee" not in payload["unreferenced"]

    # the dump is not a gate (`caller` is an orphan), and JSON is the
    # only dump format: --dot is gone
    assert "mod.py::caller" in payload["unreferenced"]
    with pytest.raises(SystemExit) as usage:
        cli_main(["lint", "--path", str(root), "--graph", "--dot"])
    assert usage.value.code == 2


# ----------------------------------------------------------------------
# the collector is paused for a lint
# ----------------------------------------------------------------------
_PAUSE_FIXTURE = {
    "mod.py": """\
    import random
    import time

    _seen = {}


    def stamp():
        return time.time()


    def roll():
        return random.random()


    def unused():
        return 2


    def client(rpc, dst):
        return (yield from rpc.call(dst, "svc.missing", None))
    """,
}


def _lint_outputs(root, capsys):
    result = run_lint(root)
    code = cli_main(["lint", "--path", str(root), "--graph", "--json"])
    assert code == 0
    return result.findings, result.suppressed, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("enabled", [True, False])
def test_lint_and_graph_leave_the_collector_as_found(tmp_path, capsys, enabled):
    root = make_tree(tmp_path, _PAUSE_FIXTURE)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        run_lint(root)
        assert gc.isenabled() is enabled
        cli_main(["lint", "--path", str(root), "--graph"])
        assert gc.isenabled() is enabled
        cli_main(["lint", "--path", str(root), "--graph", "--json"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


class _RaisingRule(core.Rule):
    id = "test-raises"
    description = "records whether the collector runs, then raises"

    def __init__(self):
        self.seen = []

    def check(self, tree):
        self.seen.append(gc.isenabled())
        raise RuntimeError("rule failed")


def test_a_raising_rule_or_graph_restores_the_collector(tmp_path, monkeypatch):
    root = make_tree(tmp_path, _PAUSE_FIXTURE)
    rule = _RaisingRule()
    monkeypatch.setitem(core._REGISTRY, rule.id, rule)

    def raising_callgraph(tree):
        rule.seen.append(gc.isenabled())
        raise RuntimeError("graph failed")

    monkeypatch.setattr(core.Tree, "callgraph", raising_callgraph)
    was = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(RuntimeError, match="rule failed"):
            run_lint(root, rule_ids=[rule.id])
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="graph failed"):
            cli_main(["lint", "--path", str(root), "--graph"])
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert rule.seen == [False, False]   # paused while they ran


def test_pausing_the_collector_changes_no_output(tmp_path, capsys, monkeypatch):
    root = make_tree(tmp_path, _PAUSE_FIXTURE)
    paused = _lint_outputs(root, capsys)
    assert {finding.rule for finding in paused[0]} == {
        "determinism-global-random", "determinism-wallclock",
        "rpc-unregistered-service", "state-module-mutable",
    }
    assert "mod.py::unused" in paused[2]["unreferenced"]

    @contextlib.contextmanager
    def running():
        yield

    monkeypatch.setattr(core, "collector_paused", running)
    monkeypatch.setattr(analysis_cli, "collector_paused", running)
    threshold = gc.get_threshold()
    gc.set_threshold(50)        # collections do fall during this run
    try:
        assert _lint_outputs(root, capsys) == paused
    finally:
        gc.set_threshold(*threshold)
