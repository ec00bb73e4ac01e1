"""Layer tracer for the benchmark's traced repetition.

Imported only by a traced repetition (``workloads.py --traced``); the
untraced path, which produces every end-to-end metric, never loads it.

The tracer patches the public entry points listed in :data:`ENTRY_POINTS`
(class attributes and module functions of ``repro``) with wrappers that
record one *span* per call.  Most entry points are generator coroutines
driven by the simulator, so a span's **host** time is the sum of its
*resume segments*: the wrapper re-drives the inner generator and times
every ``send``/``throw``; while the coroutine is suspended the clock
belongs to whatever the engine runs meanwhile.  A span's **sim** time is
``sim.now`` at its last segment minus ``sim.now`` at its first.

Three kinds of span exist:

* *entry* — one call of an :data:`ENTRY_POINTS` callable, or of an RPC
  handler passed to ``RpcPort.register`` (attributed to the package of
  the handler's module, so server-side work lands in ``fs``,
  ``migration`` or ``loadsharing``, not in ``net``);
* *root* — ``Simulator.run`` / ``run_until_idle`` /
  ``SpriteCluster.run_until_complete``: whatever runs inside one and in
  no other span is engine dispatch, so it is ``sim`` self time;
* *task* — the whole life of one ``Task`` whose coroutine is defined in
  a layer package (daemon loops, RPC server loops, the process driver),
  so code that runs outside every entry point is still charged to the
  package that owns it.  Tasks defined outside ``repro`` (the benchmark's
  own drivers) are left alone and fall to ``sim``.

A span's parent is the innermost span with an open segment when it was
created (for a task: when the task was spawned).  Every span under one
top-level entry span carries that span as its ``trace`` id.  Self time is
a span's segments minus its children's segments; summed over all spans it
equals the time spent inside root spans, which the benchmark compares
with the wall time of the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

LAYERS = (
    "sim", "net", "fs", "kernel", "migration", "loadsharing",
    "workloads", "faults", "snapshot", "checkpoint", "analysis",
)

#: layer -> public callables, as ``module:attribute.path``.  A trailing
#: ``.*`` means every public function of the class.  Names are resolved
#: when the tracer is installed; one that no longer exists is skipped and
#: listed in ``missing`` — it never breaks a run.
ENTRY_POINTS: Dict[str, List[str]] = {
    "sim": [
        "repro.sim:Simulator.run",
        "repro.sim:Simulator.run_until_idle",
        "repro.cluster:SpriteCluster.run_until_complete",
    ],
    "net": [
        "repro.net:RpcPort.call",
        "repro.net:Lan.send",
        "repro.net:Lan.transfer",
        "repro.net:Lan.broadcast",
    ],
    "fs": [
        "repro.fs.client:FsClient." + name
        for name in ("open", "close", "read", "write", "seek", "stat",
                     "flush", "export_stream", "import_stream")
    ],
    "kernel": [
        "repro.kernel.process:UserContext.*",
        "repro.kernel:SpriteKernel.forward_home",
        "repro.kernel:SpriteKernel.do_home_call",
    ],
    "migration": [
        "repro.migration:MigrationManager." + name
        for name in ("migrate", "migrate_self", "migrate_for_exec",
                     "evict_all_foreign")
    ],
    "loadsharing": [
        "repro.loadsharing.migd:CentralizedSelector.request",
        "repro.loadsharing.migd:CentralizedSelector.release",
        "repro.loadsharing.mig:MigClient.launch",
        "repro.loadsharing.mig:MigClient.run_batch",
    ],
    "workloads": [
        "repro.workloads.trace:UsageSimulation.run",
        "repro.workloads.pmake:Pmake.run",
    ],
    "faults": [
        "repro.faults.crashmatrix:run_cell",
        "repro.faults.chaos:run_chaos",
    ],
    "snapshot": [
        "repro.snapshot.core:Snapshot.fork",
        "repro.snapshot.sweep:forked_map",
    ],
    "checkpoint": [
        "repro.checkpoint.service:CheckpointService.*",
        "repro.checkpoint.restart:RestartManager.*",
    ],
    "analysis": [
        "repro.analysis.core:Tree.load",
        "repro.analysis.core:Tree.callgraph",
        # plus ``check`` of every registered rule, see ``install``
    ],
}

#: Root spans: they set the tracer's current simulator and count events.
_ROOTS = frozenset(ENTRY_POINTS["sim"])
#: Runs its callees in forked children and gets their results back.
_FORK_PARENT = "repro.snapshot.sweep:forked_map"
#: Runs inside such a child; its result carries the child's spans home.
_FORK_CHILD = "repro.faults.crashmatrix:run_cell"

# Span record layout (a list, for speed).
LAYER, NAME, KIND, PARENT, TRACE, HOST, CHILD, SIM0, SIM1, EPOCH = range(10)
ENTRY, ROOT, TASK = "entry", "root", "task"


class TracedHandler:
    """An RPC handler wrapped so each execution is an entry span.

    A class, not a closure: handler tables are pickled with the cluster
    by ``repro.snapshot``.
    """

    def __init__(self, handler: Callable[[Any], Any]):
        self.handler = handler

    def __call__(self, args: Any) -> Any:
        tracer = LayerTracer.active
        handler = self.handler
        layer = tracer.layer_of_module(inspect.getmodule(handler)) if tracer else None
        if layer is None:
            return handler(args)
        name = "rpc:" + getattr(handler, "__qualname__", repr(handler))
        return tracer.drive(handler(args), layer, name, ENTRY, None)


class LayerTracer:
    """Records spans for the patched entry points; see the module doc."""

    #: The installed tracer (unpickled handler wrappers find it here).
    active: Optional["LayerTracer"] = None

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Spans whose segment is open right now, innermost last.
        self.stack: List[list] = []
        self.spans: List[list] = []
        #: Bumped by :meth:`reset`; a span from an earlier epoch that
        #: resumes afterwards is re-registered with zeroed times.
        self.epoch = 0
        self.sim: Any = None
        #: Events dispatched inside root spans (``events_fired`` deltas).
        self.events = 0
        #: Span summaries shipped home by forked children.
        self.foreign: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._file_layers: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Attribution helpers
    # ------------------------------------------------------------------
    def layer_of_file(self, filename: str) -> Optional[str]:
        """The layer owning ``filename``: the package right under the
        innermost ``repro`` directory of its path, if that is a layer."""
        layer = self._file_layers.get(filename, "")
        if layer == "":
            dirs = filename.replace(os.sep, "/").split("/")[:-1]
            layer = None
            if "repro" in dirs:
                below = len(dirs) - dirs[::-1].index("repro")
                if below < len(dirs) and dirs[below] in LAYERS:
                    layer = dirs[below]
            self._file_layers[filename] = layer
        return layer

    def layer_of_module(self, module: Any) -> Optional[str]:
        filename = getattr(module, "__file__", None)
        return self.layer_of_file(filename) if filename else None

    def now(self) -> float:
        sim = self.sim
        return sim.now if sim is not None else 0.0

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def open(self, layer: str, name: str, kind: str, parent: Optional[list]) -> list:
        if parent is None and self.stack:
            parent = self.stack[-1]
        now = self.now()
        span = [layer, name, kind, parent,
                parent[TRACE] if parent is not None else None,
                0.0, 0.0, now, now, self.epoch]
        if span[TRACE] is None and kind == ENTRY:
            span[TRACE] = span
        self.spans.append(span)
        return span

    def drive(self, gen: Any, layer: str, name: str, kind: str,
              parent: Optional[list]) -> Any:
        """Generator that re-drives ``gen`` and times every resume."""
        stack = self.stack
        clock = time.perf_counter
        span = self.open(layer, name, kind, parent)
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            if span[EPOCH] != self.epoch:
                span[HOST] = span[CHILD] = 0.0
                span[SIM0] = self.now()
                span[EPOCH] = self.epoch
                self.spans.append(span)
            stack.append(span)
            started = clock()
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    pending, error = error, None
                    item = gen.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = clock() - started
                stack.pop()
                span[HOST] += elapsed
                sim = self.sim
                if sim is not None:
                    span[SIM1] = sim.now
                if stack:
                    stack[-1][CHILD] += elapsed
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded into gen
                error = thrown

    def call(self, fn: Callable[..., Any], layer: str, name: str, kind: str,
             args: tuple, kwargs: dict) -> Any:
        """Run plain ``fn`` as one single-segment span."""
        stack = self.stack
        span = self.open(layer, name, kind, None)
        stack.append(span)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            span[HOST] += elapsed
            span[SIM1] = self.now()
            if stack:
                stack[-1][CHILD] += elapsed

    def task_root(self, gen: Any) -> Any:
        """Wrap a task's coroutine in a task span if a layer owns it."""
        if not inspect.isgenerator(gen):
            return gen
        layer = self.layer_of_file(gen.gi_code.co_filename)
        if layer is None:
            return gen
        code = gen.gi_code
        name = "task:" + getattr(code, "co_qualname", code.co_name)
        parent = self.stack[-1] if self.stack else None
        return self.drive(gen, layer, name, TASK, parent)

    def reset(self) -> None:
        """Forget everything recorded so far (end of set-up)."""
        self.epoch += 1
        del self.spans[:]
        del self.foreign[:]
        self.events = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], layer: str, name: str,
              target: str) -> Callable[..., Any]:
        tracer = self
        if target in _ROOTS:
            @functools.wraps(fn)
            def traced_root(owner: Any, *args: Any, **kwargs: Any) -> Any:
                if tracer.stack and tracer.stack[-1][KIND] == ROOT:
                    return fn(owner, *args, **kwargs)
                sim = getattr(owner, "sim", owner)
                outer, tracer.sim = tracer.sim, sim
                before = getattr(sim, "events_fired", None)
                try:
                    return tracer.call(fn, layer, name, ROOT,
                                       (owner,) + args, kwargs)
                finally:
                    if before is not None:
                        tracer.events += sim.events_fired - before
                    tracer.sim = outer
            return traced_root
        if target == _FORK_PARENT:
            @functools.wraps(fn)
            def traced_fork_parent(*args: Any, **kwargs: Any) -> Any:
                span = tracer.open(layer, name, ENTRY, None)
                tracer.stack.append(span)
                started = time.perf_counter()
                try:
                    results = fn(*args, **kwargs)
                finally:
                    span[HOST] += time.perf_counter() - started
                    tracer.stack.pop()
                    if tracer.stack:
                        tracer.stack[-1][CHILD] += span[HOST]
                for result in results:
                    shipped = getattr(result, "bench_trace", None)
                    if shipped is not None:
                        tracer.foreign.append(shipped)
                        span[CHILD] += shipped["host_s"]
                return results
            return traced_fork_parent
        if target == _FORK_CHILD:
            @functools.wraps(fn)
            def traced_fork_child(*args: Any, **kwargs: Any) -> Any:
                first = len(tracer.spans)
                events = tracer.events
                result = tracer.call(fn, layer, name, ENTRY, args, kwargs)
                if os.getpid() != tracer.pid:
                    shipped = tracer.aggregate(tracer.spans[first:])
                    shipped["host_s"] = tracer.spans[first][HOST]
                    shipped["events"] = tracer.events - events
                    result.bench_trace = shipped
                return result
            return traced_fork_child
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                return tracer.drive(fn(*args, **kwargs), layer, name, ENTRY, None)
            return traced_gen

        @functools.wraps(fn)
        def traced_call(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(fn, layer, name, ENTRY, args, kwargs)
        return traced_call

    def _patch(self, owner: Any, attr: str, layer: str, target: str) -> None:
        raw = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr)
        if raw is None:
            raise AttributeError(attr)
        name = owner.__name__ + "." + attr if inspect.isclass(owner) else attr
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, layer, name, target))
        else:
            wrapped = self._wrap(raw, layer, name, target)
        setattr(owner, attr, wrapped)

    def _install_target(self, layer: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            if attr == "*":
                attrs = [key for key, value in vars(owner).items()
                         if not key.startswith("_") and inspect.isfunction(value)]
            else:
                attrs = [attr]
            for each in attrs:
                self._patch(owner, each, layer, target)
        except (ImportError, AttributeError):
            self.missing.append(target)

    def install(self) -> "LayerTracer":
        """Patch every entry point.  Call before any cluster is built."""
        LayerTracer.active = self
        tracer = self
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                self._install_target(layer, target)
        try:
            from repro.analysis.core import all_rules
            import repro.analysis  # noqa: F401 - registers the rules

            owners = {
                next(k for k in type(rule).__mro__ if "check" in vars(k))
                for rule in all_rules()
            }
            for owner in owners:
                self._patch(owner, "check", "analysis", "rule")
        except (ImportError, AttributeError):
            self.missing.append("repro.analysis.core:Rule.check")
        try:
            from repro.net import RpcPort
            from repro.sim import Task

            register = RpcPort.register
            init = Task.__init__
            restore = Task.__setstate__
        except (ImportError, AttributeError):
            self.missing.append("repro.net:RpcPort.register / repro.sim:Task")
            return self

        @functools.wraps(register)
        def traced_register(port: Any, service: str, handler: Any,
                            *args: Any, **kwargs: Any) -> Any:
            return register(port, service, TracedHandler(handler), *args, **kwargs)

        @functools.wraps(init)
        def traced_init(task: Any, sim: Any, gen: Any, *args: Any,
                        **kwargs: Any) -> None:
            init(task, sim, tracer.task_root(gen), *args, **kwargs)

        @functools.wraps(restore)
        def traced_restore(task: Any, state: dict) -> None:
            restore(task, state)
            if not task.done:
                task._gen = tracer.task_root(task._gen)

        RpcPort.register = traced_register
        Task.__init__ = traced_init
        Task.__setstate__ = traced_restore
        return self

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @staticmethod
    def aggregate(spans: Iterable[list]) -> Dict[str, Any]:
        """Per-layer and per-name totals of ``spans`` (picklable).

        A name's row is ``[calls, self host s, host s, sim s]``; sim time
        counts only client-side entry spans not nested in their own layer
        (the time a caller spent inside the layer).
        """
        layers: Dict[str, Dict[str, float]] = {}
        names: Dict[str, List[float]] = {}
        count = 0
        for span in spans:
            count += 1
            layer = span[LAYER]
            self_s = span[HOST] - span[CHILD]
            agg = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += self_s
            if span[KIND] != TASK:
                agg["calls"] += 1
            row = names.setdefault(layer + ":" + span[NAME], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += self_s
            row[2] += span[HOST]
            parent = span[PARENT]
            if (span[KIND] == ENTRY and not span[NAME].startswith("rpc:")
                    and (parent is None or parent[LAYER] != layer)):
                row[3] += span[SIM1] - span[SIM0]
        return {"layers": layers, "names": names, "spans": count}

    def summary(self) -> Dict[str, Any]:
        """Everything recorded since :meth:`reset`, children included."""
        total = self.aggregate(self.spans)
        events = self.events
        for shipped in self.foreign:
            events += shipped["events"]
            total["spans"] += shipped["spans"]
            for layer, agg in shipped["layers"].items():
                mine = total["layers"].setdefault(layer, {"self_s": 0.0, "calls": 0})
                for key, value in agg.items():
                    mine[key] += value
            for name, row in shipped["names"].items():
                mine_row = total["names"].setdefault(name, [0, 0.0, 0.0, 0.0])
                for index, value in enumerate(row):
                    mine_row[index] += value
        total["events"] = events
        total["forked_children"] = len(self.foreign)
        total["missing"] = list(self.missing)
        return total

    def write_spans(self, path: str) -> None:
        """Dump this process's spans as JSON lines."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "parent": ids.get(id(span[PARENT])),
                    "trace": ids.get(id(span[TRACE])),
                    "layer": span[LAYER],
                    "name": span[NAME],
                    "kind": span[KIND],
                    "host_s": span[HOST],
                    "self_s": span[HOST] - span[CHILD],
                    "sim_start": span[SIM0],
                    "sim_end": span[SIM1],
                }) + "\n")
