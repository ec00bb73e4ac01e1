"""Tests for the interprocedural call graph and dataflow engine.

Covers the resolution edge cases the rules depend on — subclass method
dispatch, ``functools.partial`` wrapping, string-name handler lookup via
``getattr``, recursion cycles — plus a golden dead-code report over a
fixture package and unit tests for the summary fixpoint engine.
"""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.analysis.core import Tree
from repro.analysis.dataflow import exception_escapes, fixpoint, tainted_returns

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def graph_of(tmp_path, files):
    root = tmp_path / "tree"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return Tree.load(root).callgraph()


def fn(graph, rel, qualname):
    node = graph.functions.get((rel, qualname))
    assert node is not None, f"no function {rel}::{qualname}"
    return node


def callee_keys(graph, caller):
    return sorted(
        edge.callee.key for edge in graph.edges_out(caller)
        if edge.kind == "call"
    )


# ----------------------------------------------------------------------
# method resolution through subclasses
# ----------------------------------------------------------------------
def test_self_call_resolves_base_impl_and_subclass_overrides(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "base.py": """\
            class Server:
                def handle(self):
                    return self.dispatch()

                def dispatch(self):
                    return "base"
            """,
            "sub.py": """\
            from .base import Server


            class FsServer(Server):
                def dispatch(self):
                    return "fs"
            """,
        },
    )
    handler = fn(graph, "base.py", "Server.handle")
    assert callee_keys(graph, handler) == [
        ("base.py", "Server.dispatch"),
        ("sub.py", "FsServer.dispatch"),
    ]


def test_subclass_inherits_base_method(tmp_path):
    # a call on a subclass instance with no local override resolves to
    # the nearest ancestor implementation
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            class Base:
                def step(self):
                    return 1


            class Mid(Base):
                pass


            class Leaf(Mid):
                def run(self):
                    return self.step()
            """,
        },
    )
    run = fn(graph, "mod.py", "Leaf.run")
    assert callee_keys(graph, run) == [("mod.py", "Base.step")]


def test_annotated_parameter_receiver_resolves_sharply(tmp_path):
    # `txn: Txn` pins `txn.step()` to Txn.step (and overrides), not to
    # every tree method that happens to be called `step`; an untyped
    # receiver still gets the unsharp name fallback.
    graph = graph_of(
        tmp_path,
        {
            "engine.py": """            class Engine:
                def step(self):
                    raise RuntimeError("not reentrant")
            """,
            "txn.py": """            class Txn:
                def step(self, name):
                    return name


            class LoggedTxn(Txn):
                def step(self, name):
                    return name.upper()


            def default_clock():
                return 0.0


            class Journal:
                def __init__(self):
                    self.now: object = default_clock

                def log(self, txn: "Txn", name):
                    txn.step(name)

                def guess(self, thing, name):
                    thing.step(name)
            """,
        },
    )
    typed = fn(graph, "txn.py", "Journal.log")
    assert callee_keys(graph, typed) == [
        ("txn.py", "LoggedTxn.step"), ("txn.py", "Txn.step"),
    ]
    assert all(edge.sharp for edge in graph.edges_out(typed))
    untyped = fn(graph, "txn.py", "Journal.guess")
    assert ("engine.py", "Engine.step") in callee_keys(graph, untyped)
    assert not any(edge.sharp for edge in graph.edges_out(untyped))
    # an annotated assignment is a reference like a plain one
    assert "txn.py::default_clock" not in [
        f"{f.rel}::{f.qualname}" for f in graph.unreferenced()
    ]


def test_constructor_call_edges_to_init(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            class Widget:
                def __init__(self, size):
                    self.size = size


            def make():
                return Widget(3)
            """,
        },
    )
    make = fn(graph, "mod.py", "make")
    assert callee_keys(graph, make) == [("mod.py", "Widget.__init__")]
    klass = graph.classes["Widget"]
    assert klass.rel == "mod.py"


# ----------------------------------------------------------------------
# partial-wrapped callables and callback references
# ----------------------------------------------------------------------
def test_partial_first_arg_gets_ref_edge(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            from functools import partial


            def job(arg):
                return arg


            def install(pool):
                pool.submit(partial(job, 7))
            """,
        },
    )
    install = fn(graph, "mod.py", "install")
    refs = [e for e in graph.edges_out(install) if e.kind == "ref"]
    assert {e.callee.key for e in refs} == {("mod.py", "job")}
    assert fn(graph, "mod.py", "job") not in graph.unreferenced()


def test_callback_argument_gets_ref_edge(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def on_done(result):
                return result


            def start(queue):
                queue.put(on_done)
            """,
        },
    )
    start = fn(graph, "mod.py", "start")
    refs = [e.callee.key for e in graph.edges_out(start) if e.kind == "ref"]
    assert refs == [("mod.py", "on_done")]


def test_decorator_expression_gets_ref_edge(tmp_path):
    """``@name`` and ``@name(...)`` both reference the decorator, on
    methods and on nested defs alike."""
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def gate(body):
                return body


            def option(flag):
                return gate


            def unused(body):
                return body


            class Api:
                @gate
                def call(self):
                    return 1


            def build():
                @option(True)
                def inner():
                    return 2
                return inner
            """,
        },
    )
    dead = graph.unreferenced()
    assert fn(graph, "mod.py", "gate") not in dead
    assert fn(graph, "mod.py", "option") not in dead
    assert fn(graph, "mod.py", "unused") in dead
    refs = [e for e in graph.edges if e.kind == "ref"]
    assert {(e.caller.qualname if e.caller else None, e.callee.qualname)
            for e in refs} >= {(None, "gate"), ("build", "option")}


# ----------------------------------------------------------------------
# handlers registered by string name
# ----------------------------------------------------------------------
def test_getattr_string_literal_resolves_method(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            class Server:
                def _rpc_read(self, req):
                    return req

                def lookup(self, op):
                    return getattr(self, "_rpc_read")
            """,
        },
    )
    lookup = fn(graph, "mod.py", "Server.lookup")
    refs = [e.callee.key for e in graph.edges_out(lookup) if e.kind == "ref"]
    assert ("mod.py", "Server._rpc_read") in refs
    assert fn(graph, "mod.py", "Server._rpc_read") not in graph.unreferenced()


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------
def test_recursion_cycle_terminates_and_keeps_edges(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def ping(n):
                if n:
                    return pong(n - 1)
                return 0


            def pong(n):
                return ping(n)


            def direct(n):
                return direct(n - 1) if n else 0
            """,
        },
    )
    ping = fn(graph, "mod.py", "ping")
    pong = fn(graph, "mod.py", "pong")
    direct = fn(graph, "mod.py", "direct")
    assert callee_keys(graph, ping) == [pong.key]
    assert callee_keys(graph, pong) == [ping.key]
    assert callee_keys(graph, direct) == [direct.key]


def test_exception_escapes_converges_on_cycle(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def a(n):
                if n < 0:
                    raise ValueError("negative")
                return b(n - 1)


            def b(n):
                return a(n)
            """,
        },
    )
    escapes = exception_escapes(graph)
    assert set(escapes[("mod.py", "a")]) == {"ValueError"}
    assert set(escapes[("mod.py", "b")]) == {"ValueError"}
    assert escapes[("mod.py", "b")]["ValueError"] == ("mod.py", 3)


# ----------------------------------------------------------------------
# defs under compound statements
# ----------------------------------------------------------------------
_DEF = "def helper():\n    fail()"
_NESTED_DEFS = {
    "if": "if flag:\n{def}",
    "for": "for item in items:\n{def}",
    "async-for": "async for item in items:\n{def}",
    "while": "while flag:\n{def}\n    break",
    "with": "with ctx:\n{def}",
    "async-with": "async with ctx:\n{def}",
    "try": "try:\n{def}\nexcept ValueError:\n    pass",
    "except": "try:\n    pass\nexcept ValueError:\n{def}",
    "else": "try:\n    pass\nexcept ValueError:\n    pass\nelse:\n{def}",
    "finally": "try:\n    pass\nfinally:\n{def}",
    "except*": "try:\n    pass\nexcept* ValueError:\n{def}",
    "match": "match flag:\n    case 1:\n{case_def}",
}


@pytest.mark.parametrize("kind", sorted(_NESTED_DEFS))
def test_def_under_compound_statement_is_a_function(tmp_path, kind):
    # A def under any compound statement is a FunctionNode of the scope
    # around it: its calls are edges, its raises escape through a call.
    suite = _NESTED_DEFS[kind].format_map({
        "def": textwrap.indent(_DEF, "    "),
        "case_def": textwrap.indent(_DEF, "        "),
    })
    body = textwrap.indent(suite + "\nreturn helper()", "    ")
    graph = graph_of(tmp_path, {"mod.py": (
        "def fail():\n    raise KeyError('lost')\n\n\n"
        f"async def host(flag, items, ctx):\n{body}\n"
    )})
    helper = fn(graph, "mod.py", "host.helper")
    assert helper.is_nested and helper.class_name is None
    assert callee_keys(graph, helper) == [("mod.py", "fail")]
    assert ("mod.py", "host.helper") in callee_keys(
        graph, fn(graph, "mod.py", "host")
    )
    escapes = exception_escapes(graph)
    assert escapes[("mod.py", "host.helper")] == {"KeyError": ("mod.py", 2)}


def test_def_under_compound_statement_at_module_and_class_level(tmp_path):
    graph = graph_of(tmp_path, {"mod.py": """\
import sys

if sys.platform:
    def helper():
        return target()
else:
    def fallback():
        return target()


class Box:
    if sys.platform:
        def method(self):
            return target()


def target():
    return 1


def use(box: Box):
    return helper() + box.method()
"""})
    assert not fn(graph, "mod.py", "helper").is_nested
    assert not fn(graph, "mod.py", "fallback").is_nested
    assert fn(graph, "mod.py", "Box.method").class_name == "Box"
    assert callee_keys(graph, fn(graph, "mod.py", "use")) == [
        ("mod.py", "Box.method"), ("mod.py", "helper"),
    ]
    for name in ("helper", "fallback", "Box.method"):
        assert callee_keys(graph, fn(graph, "mod.py", name)) == [
            ("mod.py", "target")
        ]


# ----------------------------------------------------------------------
# import / re-export resolution
# ----------------------------------------------------------------------
def test_cross_module_call_through_package_reexport(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "pkg/__init__.py": "from .impl import helper\n",
            "pkg/impl.py": "def helper():\n    return 1\n",
            "use.py": """\
            from .pkg import helper


            def caller():
                return helper()
            """,
        },
    )
    caller = fn(graph, "use.py", "caller")
    assert callee_keys(graph, caller) == [("pkg/impl.py", "helper")]


def test_module_alias_attribute_call(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "util.py": "def clamp(x):\n    return x\n",
            "use.py": """\
            from . import util


            def caller(x):
                return util.clamp(x)
            """,
        },
    )
    caller = fn(graph, "use.py", "caller")
    assert callee_keys(graph, caller) == [("util.py", "clamp")]


# ----------------------------------------------------------------------
# golden dead-code report over a fixture package
# ----------------------------------------------------------------------
_DEADCODE_FIXTURE = {
    "pkg/__init__.py": "from .api import entry\n\n__all__ = [\"entry\"]\n",
    "pkg/api.py": """\
    from .work import used_helper


    def entry():
        return used_helper()


    def orphan_api():
        return None
    """,
    "pkg/work.py": """\
    import functools


    def used_helper():
        return 1


    def orphan_worker():
        return 2


    @functools.lru_cache()
    def decorated_orphan():
        return 3


    def __special__():
        return 4
    """,
}


def test_golden_dead_code_report(tmp_path):
    graph = graph_of(tmp_path, _DEADCODE_FIXTURE)
    # exact golden: orphans only — `entry` is exported via __all__,
    # `used_helper` has an in-edge, decorated and dunder defs are
    # exempt by policy.
    assert [f"{f.rel}::{f.qualname}" for f in graph.unreferenced()] == [
        "pkg/api.py::orphan_api",
        "pkg/work.py::orphan_worker",
    ]
    report = graph.render_report()
    assert "unreferenced functions (2)" in report
    assert "pkg/api.py:8 orphan_api" in report
    assert "pkg/work.py:8 orphan_worker" in report


def test_stats_counts(tmp_path):
    graph = graph_of(tmp_path, _DEADCODE_FIXTURE)
    stats = graph.stats()
    assert stats["modules"] == 3
    assert stats["functions"] == 6
    assert stats["unreferenced"] == 2
    assert stats["call_edges"] >= 1


# ----------------------------------------------------------------------
# dataflow engine unit tests
# ----------------------------------------------------------------------
def test_fixpoint_reenqueues_callers_until_stable(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def leaf():
                return 1


            def mid():
                return leaf()


            def top():
                return mid()
            """,
        },
    )
    # toy analysis: a function's summary is the set of leaf-function
    # names transitively reachable from it
    def transfer(node, summaries):
        names = set()
        for edge in graph.edges_out(node):
            if edge.kind != "call":
                continue
            names.add(edge.callee.name)
            names |= summaries[edge.callee.key]
        return names

    result = fixpoint(graph, initial=lambda fn: set(), transfer=transfer)
    assert result[("mod.py", "leaf")] == set()
    assert result[("mod.py", "mid")] == {"leaf"}
    assert result[("mod.py", "top")] == {"mid", "leaf"}


def test_exception_escapes_filters_caught_and_propagates(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            def inner():
                raise KeyError("missing")


            def swallows():
                try:
                    inner()
                except KeyError:
                    return None


            def leaks():
                inner()


            def reraises():
                try:
                    inner()
                    raise ValueError("shadowed")
                except KeyError:
                    raise
            """,
        },
    )
    escapes = exception_escapes(graph)
    assert set(escapes[("mod.py", "inner")]) == {"KeyError"}
    assert escapes[("mod.py", "swallows")] == {}
    assert set(escapes[("mod.py", "leaks")]) == {"KeyError"}
    # ValueError is caught by nothing (handler names KeyError only) and
    # the bare raise re-raises the caught KeyError
    assert set(escapes[("mod.py", "reraises")]) == {"KeyError", "ValueError"}


def test_tainted_returns_transitive(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod.py": """\
            import time


            def source():
                return time.time()


            def launder():
                value = source()
                return value


            def clean():
                return 42
            """,
        },
    )
    tainted = tainted_returns(graph, sources={"time.time"})
    assert ("mod.py", "source") in tainted
    assert ("mod.py", "launder") in tainted
    assert ("mod.py", "clean") not in tainted


# ----------------------------------------------------------------------
# live tree sanity
# ----------------------------------------------------------------------
def test_live_tree_graph_builds_and_is_well_formed():
    tree = Tree.load(REPO_ROOT / "src" / "repro")
    graph = tree.callgraph()
    stats = graph.stats()
    assert stats["functions"] > 500
    assert stats["edges"] > stats["functions"]
    # every edge endpoint is a registered function
    for edge in graph.edges:
        assert edge.callee.key in graph.functions
        if edge.caller is not None:
            assert edge.caller.key in graph.functions
    # the graph is cached on the tree
    assert tree.callgraph() is graph


def test_dead_code_baseline_in_sync():
    """tools/deadcode_baseline.json must match the live report exactly.

    This test and ``python -m repro lint --graph`` are the gate: a new
    unreferenced function is deleted, given a caller, or added to the
    kept list with a reason — and named in docs/api.md.
    """
    import json

    kept = json.loads(
        (REPO_ROOT / "tools" / "deadcode_baseline.json").read_text()
    )["unreferenced"]
    graph = Tree.load(REPO_ROOT / "src" / "repro").callgraph()
    assert [f.ident for f in graph.unreferenced()] == list(kept)
    assert len(kept) < 20
    api = (REPO_ROOT / "docs" / "api.md").read_text()
    for ident, reason in kept.items():
        assert reason.strip(), f"{ident}: kept without a reason"
        assert ident.split("::")[1] in api, f"{ident}: not in docs/api.md"


def test_benchmark_entry_points_resolve():
    """Every ``ENTRY_POINTS`` target of benchmarks/perf/trace.py names
    something that exists: the tracer skips a missing target silently,
    so a dead-code deletion could blind a benchmark layer unnoticed."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perf_trace", REPO_ROOT / "benchmarks" / "perf" / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = []
    for targets in trace.ENTRY_POINTS.values():
        for target in targets:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                for part in path.split("."):
                    if part != "*":
                        owner = getattr(owner, part)
            except (ImportError, AttributeError):
                missing.append(target)
    assert missing == []


# ----------------------------------------------------------------------
# callers outside the linted root
# ----------------------------------------------------------------------
_OUTSIDE_FIXTURE = {
    "tree/mod.py": """\
    class Meter:
        def benched(self):
            return 1

        def only_tested(self):
            return 2

        def add(self):
            return 3


    def helper():
        return 4


    def orphan():
        return 5
    """,
    "benchmarks/bench_meter.py": """\
    from tree.mod import helper

    def run(meter):
        node = orphan = None          # a variable is not a reference
        return meter.benched() + meter.add()
    """,
    "tests/test_meter.py": """\
    def test_meter(meter):
        assert meter.only_tested() == 2
    """,
}


def test_benchmarks_count_as_callers_and_tests_do_not(tmp_path):
    for rel, source in _OUTSIDE_FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    graph = Tree.load(tmp_path / "tree").callgraph()
    # `benched` and `helper` are named in the sibling benchmarks/ tree;
    # `only_tested` is named only under tests/, `add` only through a
    # blocklisted method name, `orphan` only as a local variable.
    assert [f.ident for f in graph.unreferenced()] == [
        "mod.py::Meter.add",
        "mod.py::Meter.only_tested",
        "mod.py::orphan",
    ]
    report = graph.render_report({"mod.py::Meter.add": "blocklisted name"})
    assert "  kept mod.py:8 Meter.add — blocklisted name" in report
    assert "  mod.py:5 Meter.only_tested" in report
