"""Whole-tree call graph for interprocedural rules.

One pass over every parsed module builds a :class:`CallGraph`:

* **Functions** — every ``def``/``async def`` (module-level, methods,
  nested) becomes a :class:`FunctionNode` keyed by
  ``(module.rel, qualname)``.
* **Classes** — a cross-module class-hierarchy index (merged by class
  name, exactly like the error-hierarchy census) used to resolve
  ``self.method(...)`` through base classes *and* subclass overrides.
* **Imports** — ``from .mod import name`` / ``from ..pkg import mod`` /
  absolute ``repro.`` imports are resolved to definitions, chasing
  ``__init__`` re-exports transitively.
* **Edges** — every call site is resolved once; besides plain calls the
  graph records *reference* edges for callables passed as values:
  ``rpc.register(name, self._handler)``, ``spawn(sim, factory)``,
  ``functools.partial(fn, ...)``, ``getattr(self, "method_name")``, and
  class constructions (edge to ``__init__``/``__call__``).

Resolution strategy, in decreasing precision:

1. lexical scope (nested defs, module functions, imported names);
2. ``self.``/``cls.`` receivers through the class-hierarchy index
   (nearest ancestor implementation plus every subclass override —
   dynamic dispatch may land on any of them);
3. module-alias receivers (``packaging.export_streams``);
4. a parameter annotated with a tree class (``txn: MigrationTxn``),
   resolved through the hierarchy like ``self``;
5. *fallback by attribute name*: ``obj.meth(...)`` with an untyped
   receiver resolves to every tree method named ``meth`` (minus a small
   blocklist of ubiquitous builtin-container method names).  Fallback
   edges are marked ``sharp=False`` so rules can demand precision.  An
   attribute passed as a call argument gets no fallback edge: by name
   alone, ``vm.resident`` is far likelier data than a callback.

The graph is deliberately a may-call over-approximation (union
semantics); rules that must not false-positive filter on ``sharp`` or
on candidate agreement (e.g. "all candidates are generators").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    ModuleInfo,
    Tree,
    call_args,
    enclosing_function,
    enclosing_statement,
    nested_suites,
    resolve_str_arg,
)

__all__ = ["CallEdge", "CallGraph", "ClassInfo", "FunctionNode"]

Key = Tuple[str, str]  # (module.rel, qualname)

#: Attribute names never resolved by the name-only fallback: they are
#: overwhelmingly builtin list/dict/set/str methods on untyped
#: receivers, and an edge guessed onto an unrelated tree method would
#: poison every downstream analysis.
_FALLBACK_BLOCKLIST = frozenset({
    "append", "extend", "insert", "sort", "reverse", "setdefault",
    "popitem", "strip", "lstrip", "rstrip", "split", "rsplit", "join",
    "format", "encode", "decode", "startswith", "endswith", "items",
    "keys", "values", "index", "copy", "replace", "lower", "upper",
    "remove", "discard", "add", "update", "pop", "clear", "popleft",
    "appendleft", "get",
})

#: What :meth:`CallGraph._walk_expr_calls` acts on (a lambda's body
#: is skipped, so it need not be looked for).
_EXPR_WALK_TYPES = (
    ast.Call, ast.Dict, ast.List, ast.Tuple, ast.Set, ast.Return,
    ast.Assign, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef,
)

#: Trees beside the source root whose code counts as a caller in the
#: dead-code report.  ``tests/`` is not one: a function only its own
#: unit test calls is still reported.
_CALLER_TREES = ("benchmarks", "examples", "tools")


@dataclass(frozen=True)
class FunctionNode:
    """One function definition anywhere in the tree."""

    rel: str                 #: defining module, relative to the root
    qualname: str            #: e.g. ``"FsServer._callback"``
    node: ast.AST            #: the FunctionDef / AsyncFunctionDef
    class_name: Optional[str]  #: immediate enclosing class, if a method
    is_generator: bool
    is_nested: bool          #: defined inside another function (closure)

    @property
    def key(self) -> Key:
        return (self.rel, self.qualname)

    @property
    def ident(self) -> str:
        """``rel::qualname``, the spelling of dumps and the kept list."""
        return f"{self.rel}::{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return f"<fn {self.rel}::{self.qualname}>"


@dataclass
class ClassInfo:
    """One class name's definitions across the tree (merged by name)."""

    name: str
    rel: str                             #: first defining module
    line: int = 0
    bases: Set[str] = field(default_factory=set)
    methods: Dict[str, FunctionNode] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """caller --(site)--> callee.  ``caller`` None = module-level code."""

    caller: Optional[FunctionNode]
    callee: FunctionNode
    module: ModuleInfo       #: module containing the site
    site: ast.AST            #: the Call (or the reference expression)
    call: Optional[ast.Call]  #: the ast.Call for call edges, None for refs
    kind: str                #: "call" | "ref"
    sharp: bool              #: False when resolved by name-only fallback


class _Scope:
    """Lexical scope node used while indexing and resolving."""

    __slots__ = ("function", "nested", "parent", "class_name")

    def __init__(self, function: Optional[FunctionNode],
                 parent: Optional["_Scope"], class_name: Optional[str]):
        self.function = function
        self.parent = parent
        self.class_name = class_name
        self.nested: Dict[str, FunctionNode] = {}


class CallGraph:
    """The whole-tree call graph; build with :meth:`build` (or, shared,
    via ``tree.callgraph()``)."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.functions: Dict[Key, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: List[CallEdge] = []
        self._edges_in: Dict[Key, List[CallEdge]] = {}
        self._call_targets: Dict[int, List[FunctionNode]] = {}
        self._stmt_calls: Dict[ast.stmt, List[ast.Call]] = {}
        self._ref_targets: Dict[int, List[FunctionNode]] = {}
        self._fn_by_ast: Dict[int, FunctionNode] = {}
        self._module_funcs: Dict[str, Dict[str, FunctionNode]] = {}
        self._module_classes: Dict[str, Dict[str, str]] = {}
        self._imports: Dict[str, Dict[str, Tuple[str, str, str]]] = {}
        self._methods_by_name: Dict[str, List[FunctionNode]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._scopes: Dict[int, _Scope] = {}  # id(func ast) -> scope
        self._unreferenced: Optional[List[FunctionNode]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, tree: Tree) -> "CallGraph":
        graph = cls(tree)
        for module in tree.parsed():
            graph._index_module(module)
        graph._index_hierarchy()
        for module in tree.parsed():
            graph._resolve_module(module)
        for edge in graph.edges:
            graph._edges_in.setdefault(edge.callee.key, []).append(edge)
        return graph

    # -- pass 1: definitions -------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        assert module.tree is not None
        self._module_funcs[module.rel] = {}
        self._module_classes[module.rel] = {}
        self._imports[module.rel] = {}
        self._collect_imports(module)
        root = _Scope(None, None, None)
        self._index_body(module, module.tree.body, root, [], None)

    def _index_body(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        scope: _Scope,
        qual: List[str],
        klass: Optional[ClassInfo],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(qual + [node.name])
                fn = FunctionNode(
                    rel=module.rel,
                    qualname=qualname,
                    node=node,
                    class_name=klass.name if klass is not None else None,
                    is_generator=node in module.generators,
                    is_nested=scope.function is not None,
                )
                self.functions[fn.key] = fn
                self._fn_by_ast[id(node)] = fn
                if klass is not None:
                    klass.methods.setdefault(node.name, fn)
                    self._methods_by_name.setdefault(node.name, []).append(fn)
                elif scope.function is None:
                    self._module_funcs[module.rel][node.name] = fn
                else:
                    scope.nested[node.name] = fn
                child = _Scope(fn, scope, None)
                self._scopes[id(node)] = child
                self._index_body(module, node.body, child, qual + [node.name],
                                 None)
            elif isinstance(node, ast.ClassDef):
                info = self.classes.get(node.name)
                if info is None:
                    info = ClassInfo(node.name, module.rel, node.lineno)
                    self.classes[node.name] = info
                info.bases.update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
                if scope.function is None:
                    self._module_classes[module.rel][node.name] = node.name
                self._index_body(module, node.body, scope,
                                 qual + [node.name], info)
            else:  # a def under if/for/while/with/try/match is in scope
                for suite in nested_suites(node):
                    self._index_body(module, suite, scope, qual, klass)

    def _collect_imports(self, module: ModuleInfo) -> None:
        """Map imported names to ("obj"|"module", module-rel-ish, name)."""
        table = self._imports[module.rel]
        package = _package_key(module.rel)
        for node in module.imports:
            if isinstance(node, ast.ImportFrom):
                base: Optional[Tuple[str, ...]]
                if node.level > 0:
                    up = node.level - 1
                    base = package[: len(package) - up] if up <= len(package) \
                        else None
                elif node.module and (
                    node.module == "repro" or node.module.startswith("repro.")
                ):
                    base = tuple(node.module.split(".")[1:])
                else:
                    base = None
                if base is None:
                    continue
                target = base
                if node.level > 0 and node.module:
                    target = base + tuple(node.module.split("."))
                for alias in node.names:
                    name = alias.asname or alias.name
                    if alias.name == "*":
                        continue
                    # `from pkg import mod` may name a submodule; record
                    # both readings, resolution tries object-first.
                    table[name] = ("obj", "/".join(target), alias.name)
            else:
                for alias in node.names:
                    dotted = alias.name
                    if dotted == "repro" or dotted.startswith("repro."):
                        name = alias.asname or dotted.split(".")[0]
                        table[name] = (
                            "module", "/".join(dotted.split(".")[1:]), ""
                        )

    def _index_hierarchy(self) -> None:
        for info in self.classes.values():
            for base in info.bases:
                self._subclasses.setdefault(base, set()).add(info.name)

    # -- pass 2: edges -------------------------------------------------
    def _resolve_module(self, module: ModuleInfo) -> None:
        assert module.tree is not None
        self._walk_suite(module, module.tree.body,
                         _Scope(None, None, None), None)

    def _walk_suite(self, module: ModuleInfo, body: Sequence[ast.stmt],
                    scope: _Scope, klass: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._fn_by_ast[id(stmt)]
                child = self._scopes[id(stmt)]
                child.class_name = klass
                if scope.function is None and klass is None:
                    self._module_funcs[module.rel].setdefault(stmt.name, fn)
                else:
                    scope.nested.setdefault(stmt.name, fn)
                self._record_decorators(module, stmt, scope)
                self._walk_suite(module, stmt.body, child, None)
            elif isinstance(stmt, ast.ClassDef):
                self._walk_suite(module, stmt.body, scope, stmt.name)
            else:
                self._walk_expr_calls(module, stmt, scope)

    def _walk_expr_calls(self, module: ModuleInfo, stmt: ast.stmt,
                         scope: _Scope) -> None:
        # Only subtrees holding a node handled below are expanded: the
        # same nodes are met in the same order, without the Names,
        # Constants and operators around them.
        wanted = module.index.holding(*_EXPR_WALK_TYPES).__contains__
        stack: List[ast.AST] = [stmt] if wanted(stmt) else []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a def under a compound statement: its body has a scope
                scope.nested.setdefault(node.name, self._fn_by_ast[id(node)])
                self._record_decorators(module, node, scope)
                self._walk_suite(module, node.body, self._scopes[id(node)],
                                 None)
                continue
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                self._record_call(module, node, scope)
                owner = scope.function and enclosing_statement(module, node)
                if owner is not None:
                    self._stmt_calls.setdefault(owner, []).append(node)
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
            stack.extend(filter(wanted, ast.iter_child_nodes(node)))

    def _record_call(self, module: ModuleInfo, call: ast.Call,
                     scope: _Scope) -> None:
        targets, sharp, klass = self._resolve_callable(
            module, call.func, scope
        )
        self._call_targets[id(call)] = targets
        caller = scope.function
        for target in targets:
            self.edges.append(CallEdge(
                caller=caller, callee=target, module=module, site=call,
                call=call, kind="call", sharp=sharp,
            ))
        # constructor edge: ClassName(...) -> __init__
        if klass is not None:
            init = self.resolve_method(klass.name, "__init__")
            for target in init:
                self.edges.append(CallEdge(
                    caller=caller, callee=target, module=module, site=call,
                    call=call, kind="call", sharp=True,
                ))
        # reference edges: callables passed as arguments (an attribute
        # only when resolved sharply, never by the name-only fallback)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if not isinstance(arg, ast.Attribute) or \
                    self._resolve_attribute(module, arg, scope)[1]:
                self._record_ref(module, arg, scope)

    def _record_decorators(self, module: ModuleInfo, definition: ast.AST,
                           scope: _Scope) -> None:
        """``@name`` and ``@name(...)`` hand the def to ``name``: a ref
        edge to the decorator, from the scope the def sits in."""
        for decorator in definition.decorator_list:
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            self._record_ref(module, decorator, scope)

    def _record_ref(self, module: ModuleInfo, node: ast.AST,
                    scope: _Scope) -> None:
        """Ref edges for a callable used as a value: callback argument,
        dict/list table entry, `return fn`, `alias = self._handler`."""
        for target, ref_sharp in self._resolve_reference(module, node, scope):
            self.edges.append(CallEdge(
                caller=scope.function, callee=target, module=module,
                site=node, call=None, kind="ref", sharp=ref_sharp,
            ))
            self._ref_targets.setdefault(id(node), []).append(target)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_callable(
        self, module: ModuleInfo, func: ast.AST, scope: _Scope
    ) -> Tuple[List[FunctionNode], bool, Optional[ClassInfo]]:
        """Resolve a call's target expression.

        Returns ``(functions, sharp, constructed_class)``.
        """
        if isinstance(func, ast.Name):
            found = self._resolve_scoped_name(module, func.id, scope)
            if isinstance(found, FunctionNode):
                return [found], True, None
            if isinstance(found, ClassInfo):
                return [], True, found
            return [], True, None
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(module, func, scope)
        return [], True, None

    def _resolve_attribute(
        self, module: ModuleInfo, func: ast.Attribute, scope: _Scope
    ) -> Tuple[List[FunctionNode], bool, Optional[ClassInfo]]:
        attr = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            # self.meth / cls.meth through the hierarchy
            if receiver.id in ("self", "cls"):
                klass = self._enclosing_class(scope)
                if klass is not None:
                    return self.resolve_method(klass, attr), True, None
                # a method written outside its class body: its siblings
                # are the module's functions
                sibling = self._module_funcs[module.rel].get(attr)
                return ([sibling] if sibling else []), True, None
            found = self._resolve_scoped_name(module, receiver.id, scope)
            if isinstance(found, ClassInfo):     # Klass.method(...)
                return self.resolve_method(found.name, attr), True, None
            entry = self._imports[module.rel].get(receiver.id)
            if entry is not None:
                resolved = self._resolve_import_attr(entry, attr)
                if isinstance(resolved, FunctionNode):
                    return [resolved], True, None
                if isinstance(resolved, ClassInfo):
                    return [], True, resolved
                return [], True, None
            # a parameter annotated with a tree class: `txn: MigrationTxn`
            klass = self._annotated_class(receiver.id, scope)
            if klass is not None:
                targets = self.resolve_method(klass, attr)
                if targets:
                    return targets, True, None
        # untyped receiver: fallback by method name
        if attr in _FALLBACK_BLOCKLIST:
            return [], False, None
        candidates = self._methods_by_name.get(attr, [])
        return list(candidates), False, None

    def _resolve_import_attr(self, entry: Tuple[str, str, str], attr: str):
        kind, target, objname = entry
        if kind == "module":
            return self._resolve_exported(target, attr, set())
        # `from pkg import mod` used as `mod.attr`
        submodule = f"{target}/{objname}" if target else objname
        return self._resolve_exported(submodule, attr, set())

    def _resolve_scoped_name(self, module: ModuleInfo, name: str,
                             scope: _Scope):
        current: Optional[_Scope] = scope
        while current is not None:
            if name in current.nested:
                return current.nested[name]
            current = current.parent
        fn = self._module_funcs[module.rel].get(name)
        if fn is not None:
            return fn
        if name in self._module_classes[module.rel]:
            return self.classes.get(name)
        entry = self._imports[module.rel].get(name)
        if entry is not None:
            kind, target, objname = entry
            if kind == "obj":
                return self._resolve_exported(target, objname, set())
        return None

    def _resolve_exported(self, module_key: str, name: str,
                          visited: Set[Tuple[str, str]]):
        """Chase ``name`` through a module's defs and re-exports."""
        rel = self._find_module(module_key)
        if rel is None or (rel, name) in visited:
            return None
        visited.add((rel, name))
        fn = self._module_funcs.get(rel, {}).get(name)
        if fn is not None:
            return fn
        if name in self._module_classes.get(rel, {}):
            return self.classes.get(name)
        entry = self._imports.get(rel, {}).get(name)
        if entry is not None:
            kind, target, objname = entry
            if kind == "obj":
                chased = self._resolve_exported(target, objname, visited)
                if chased is not None:
                    return chased
        return None

    def _find_module(self, module_key: str) -> Optional[str]:
        if not module_key:
            rel = "__init__.py"
            return rel if rel in self._module_funcs else None
        for candidate in (f"{module_key}.py", f"{module_key}/__init__.py"):
            if candidate in self._module_funcs:
                return candidate
        return None

    def _enclosing_class(self, scope: _Scope) -> Optional[str]:
        current: Optional[_Scope] = scope
        while current is not None:
            if current.class_name is not None:
                return current.class_name
            if current.function is not None and \
                    current.function.class_name is not None:
                return current.function.class_name
            current = current.parent
        return None

    def _annotated_class(self, name: str, scope: _Scope) -> Optional[str]:
        """Tree class that the nearest enclosing function annotates its
        parameter ``name`` with (a bare or quoted class name), if any."""
        current: Optional[_Scope] = scope
        while current is not None:
            if current.function is not None:
                args = current.function.node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg != name:
                        continue
                    note = arg.annotation
                    if isinstance(note, ast.Constant):
                        note_name = note.value
                    else:
                        note_name = getattr(note, "id", None)
                    return note_name if note_name in self.classes else None
            current = current.parent
        return None

    def resolve_method(self, class_name: str, attr: str) -> List[FunctionNode]:
        """Implementations ``attr`` may dispatch to from ``class_name``:
        the nearest ancestor implementation plus every subclass override."""
        out: List[FunctionNode] = []
        seen: Set[Key] = set()
        # upward: nearest definition along the bases
        queue = [class_name]
        visited: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in visited:
                continue
            visited.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            impl = info.methods.get(attr)
            if impl is not None:
                if impl.key not in seen:
                    seen.add(impl.key)
                    out.append(impl)
                break  # nearest wins on this chain
            queue.extend(sorted(info.bases))
        # downward: overrides anywhere below class_name
        for sub in sorted(self._transitive_subclasses(class_name)):
            info = self.classes.get(sub)
            if info is None:
                continue
            impl = info.methods.get(attr)
            if impl is not None and impl.key not in seen:
                seen.add(impl.key)
                out.append(impl)
        return out

    def _transitive_subclasses(self, class_name: str) -> Set[str]:
        out: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    queue.append(sub)
        return out

    def _resolve_reference(
        self, module: ModuleInfo, node: ast.AST, scope: _Scope
    ) -> List[Tuple[FunctionNode, bool]]:
        """Function(s) a value expression refers to (callback position)."""
        if isinstance(node, ast.Name):
            found = self._resolve_scoped_name(module, node.id, scope)
            if isinstance(found, FunctionNode):
                return [(found, True)]
            return []
        if isinstance(node, ast.Attribute):
            targets, sharp, _klass = self._resolve_attribute(
                module, node, scope
            )
            return [(t, sharp) for t in targets]
        if isinstance(node, ast.Call):
            func = node.func
            tail = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if tail == "partial" and node.args:
                # functools.partial(fn, ...): the wrapped fn is the target
                return self._resolve_reference(module, node.args[0], scope)
            if tail == "getattr" and len(node.args) >= 2:
                owner, name_arg = node.args[0], node.args[1]
                if (
                    isinstance(name_arg, ast.Constant)
                    and isinstance(name_arg.value, str)
                    and isinstance(owner, ast.Name)
                    and owner.id in ("self", "cls")
                ):
                    klass = self._enclosing_class(scope)
                    if klass is not None:
                        return [
                            (t, True)
                            for t in self.resolve_method(
                                klass, name_arg.value
                            )
                        ]
        return []

    # ------------------------------------------------------------------
    # Query API (used by the rules and the CLI)
    # ------------------------------------------------------------------
    def call_targets(self, call: ast.Call) -> List[FunctionNode]:
        return self._call_targets.get(id(call), [])

    def calls_in(self, stmt: ast.stmt) -> List[ast.Call]:
        """The calls in a function statement's own expressions — not in
        its nested suites, lambdas or except-clause types — in the order
        the walk met them."""
        return self._stmt_calls.get(stmt, [])

    def ref_targets(self, site: ast.AST) -> List[FunctionNode]:
        """Functions a value expression (callback argument, table entry)
        refers to — the callees of the ref edges recorded at it."""
        return self._ref_targets.get(id(site), [])

    def function_of(self, node: Optional[ast.AST]) -> Optional[FunctionNode]:
        """The FunctionNode for a def's AST node."""
        return self._fn_by_ast.get(id(node))

    def edges_in(self, fn: FunctionNode) -> List[CallEdge]:
        return self._edges_in.get(fn.key, [])

    def callers_of(self, fn: FunctionNode) -> List[FunctionNode]:
        seen: Set[Key] = set()
        out: List[FunctionNode] = []
        for edge in self.edges_in(fn):
            if edge.caller is not None and edge.caller.key not in seen:
                seen.add(edge.caller.key)
                out.append(edge.caller)
        return out

    def forwarded_args(
        self, module: ModuleInfo, site: ast.AST, param: str
    ) -> Optional[List[Tuple[ModuleInfo, ast.Call, ast.AST]]]:
        """The argument expressions that reach ``param``, a parameter
        of the function around ``site``, from that function's call
        sites, as ``(module, call, argument)``; None when ``site`` is
        in no function or ``param`` is not one of its positional
        parameters.

        A caller that passes one of its *own* parameters on (and gives
        it no literal default) is a forwarding helper: its call sites
        are chased instead, to any depth.  A call site that does not
        pass the parameter is skipped.
        """
        found: List[Tuple[ModuleInfo, ast.Call, ast.AST]] = []
        visited: Set[Tuple[Key, str]] = set()

        def chase(fn: FunctionNode, param: str) -> None:
            index = _param_index(fn.node, param)
            if index is None or (fn.key, param) in visited:
                return
            visited.add((fn.key, param))
            for edge in self.edges_in(fn):
                if edge.call is None:
                    continue
                args, kwargs = call_args(edge.call)
                arg = kwargs.get(
                    param, args[index] if index < len(args) else None
                )
                if arg is None:
                    continue
                if (
                    isinstance(arg, ast.Name)
                    and edge.caller is not None
                    and _param_index(edge.caller.node, arg.id) is not None
                    and resolve_str_arg(edge.module, edge.call, arg) is None
                ):
                    chase(edge.caller, arg.id)
                else:
                    found.append((edge.module, edge.call, arg))

        fn = self.function_of(enclosing_function(module, site))
        if fn is None or _param_index(fn.node, param) is None:
            return None
        chase(fn, param)
        return found

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def unreferenced(self) -> List[FunctionNode]:
        """Functions nothing refers to: no in-edge under the linted
        root and no mention by name in the repository's other caller
        trees (:data:`_CALLER_TREES`), where an attribute name keeps a
        method and a bare or imported name a module-level function.
        Not dunders, not decorated (properties and the like are reached
        without a Call).  An ``__all__`` export is no caller: a helper
        only its unit tests call is reported like any other."""
        if self._unreferenced is not None:
            return self._unreferenced
        attrs, names = self._outside_mentions()
        out: List[FunctionNode] = []
        for key in sorted(self.functions):
            fn = self.functions[key]
            if self._edges_in.get(key):
                continue
            name = fn.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if getattr(fn.node, "decorator_list", []):
                continue
            # the by-name fallback of untyped receivers, from outside
            if fn.class_name is not None and name in attrs:
                continue
            if fn.class_name is None and not fn.is_nested and name in names:
                continue
            out.append(fn)
        self._unreferenced = out
        return out

    def _outside_mentions(self) -> Tuple[Set[str], Set[str]]:
        """``(attribute names, bare and imported names)`` mentioned in
        the caller trees beside the source root (``<repo>/src/<pkg>`` or
        ``<repo>/<pkg>``).  Attribute names minus the fallback blocklist
        reach methods; bare names reach module-level functions only."""
        root = self.tree.root
        repo = root.parents[1] if root.parent.name == "src" else root.parent
        attrs: Set[str] = set()
        names: Set[str] = set()
        for tree_name in _CALLER_TREES:
            for module in Tree.load(repo / tree_name).parsed():
                for node in module.nodes_of(
                    ast.Attribute, ast.Name, ast.ImportFrom
                ):
                    if isinstance(node, ast.Attribute):
                        attrs.add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        names.update(alias.name for alias in node.names)
                    elif isinstance(node.ctx, ast.Load):
                        names.add(node.id)
        return attrs - _FALLBACK_BLOCKLIST, names

    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self._module_funcs),
            "functions": len(self.functions),
            "classes": len(self.classes),
            "edges": len(self.edges),
            "call_edges": sum(1 for e in self.edges if e.kind == "call"),
            "ref_edges": sum(1 for e in self.edges if e.kind == "ref"),
            "generators": sum(
                1 for f in self.functions.values() if f.is_generator
            ),
            "unreferenced": len(self.unreferenced()),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump (stable ordering) for ``lint --graph --json``."""
        nodes = [
            {
                "id": fn.ident,
                "file": fn.rel,
                "line": fn.line,
                "class": fn.class_name,
                "generator": fn.is_generator,
                "nested": fn.is_nested,
            }
            for key, fn in sorted(self.functions.items())
        ]
        edges = sorted(
            {
                (
                    e.caller.ident if e.caller else f"{e.module.rel}::<module>",
                    e.callee.ident,
                    e.kind,
                    bool(e.sharp),
                )
                for e in self.edges
            }
        )
        return {
            "stats": self.stats(),
            "nodes": nodes,
            "edges": [
                {"caller": c, "callee": t, "kind": k, "sharp": s}
                for (c, t, k, s) in edges
            ],
            "unreferenced": [fn.ident for fn in self.unreferenced()],
        }

    def render_report(self, kept: Optional[Mapping[str, str]] = None) -> str:
        """Human-readable reachability / dead-code report.  ``kept``
        maps ``rel::qualname`` to the reason an unreferenced function
        stays; those are listed apart, each with its reason."""
        kept = kept or {}
        stats = self.stats()
        lines = ["call graph:"]
        for key in (
            "modules", "functions", "classes", "edges", "call_edges",
            "ref_edges", "generators",
        ):
            lines.append(f"  {key:12} {stats[key]}")
        dead = self.unreferenced()
        lines.append(f"\nunreferenced functions ({len(dead)}) — no call or "
                     "reference edge under the linted root,")
        lines.append(f"no mention by name in {'/, '.join(_CALLER_TREES)}/ "
                     "beside it")
        lines.append("(excludes dunders and decorated defs)")
        lines.extend(
            f"  {fn.rel}:{fn.line} {fn.qualname}"
            for fn in dead if fn.ident not in kept
        )
        lines.extend(
            f"  kept {fn.rel}:{fn.line} {fn.qualname} — {kept[fn.ident]}"
            for fn in dead if fn.ident in kept
        )
        return "\n".join(lines)


def _param_index(func: ast.AST, name: str) -> Optional[int]:
    """0-based positional index of a parameter, after self/cls."""
    params = [arg.arg for arg in func.args.args]  # type: ignore[attr-defined]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    try:
        return params.index(name)
    except ValueError:
        return None


def _package_key(rel: str) -> Tuple[str, ...]:
    """Package of a module rel-path: ``kernel/process.py`` -> ("kernel",)."""
    parts = rel.split("/")
    parts[-1] = parts[-1][:-3]  # strip .py
    if parts[-1] == "__init__":
        parts.pop()
        return tuple(parts)
    return tuple(parts[:-1])
