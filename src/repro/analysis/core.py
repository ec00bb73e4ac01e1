"""Framework core: module loading, pragmas, the rule registry, driver.

The driver parses every ``*.py`` under one source root into a
:class:`Tree`, hands the whole tree to each registered :class:`Rule`
(rules are free to do cross-module analysis — the RPC conformance and
stream-collision rules depend on it), then filters the findings through
inline pragmas — the only suppression there is: a finding is fixed or
carries a reasoned pragma.

Pragma grammar (suppression is per-line, per-rule, never blanket)::

    some_call()  # lint: disable=rule-id(reason why this site is fine)
    # lint: disable=rule-a,rule-b(one reason for both)

A pragma suppresses matching findings on its own line and on the line
directly below it (for statements too long to share a line with their
justification).
"""

from __future__ import annotations

import ast
import gc
import pathlib
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "AstIndex",
    "CallMatcher",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "Tree",
    "all_rules",
    "collector_paused",
    "default_src_root",
    "dotted_name",
    "name_tail",
    "register_rule",
    "run_lint",
    "suffix_match",
]

#: ``# lint: disable=rule-one,rule-two(reason...)``
_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,()\- .:'\"/]+)")
_PRAGMA_ITEM = re.compile(r"([a-z0-9-]+)(?:\(([^)]*)\))?")


def default_src_root() -> pathlib.Path:
    """The package's own source tree (``src/repro`` in a checkout)."""
    return pathlib.Path(__file__).resolve().parents[1]


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a call target / attribute chain.

    ``self.host.rpc.call`` -> ``"self.host.rpc.call"``; unresolvable
    pieces (subscripts, calls) become ``"?"`` so suffix matching on the
    tail still works.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def suffix_match(name: str, suffixes: Iterable[str]) -> Optional[str]:
    """The first of ``suffixes`` that dotted ``name`` is, or ends with
    after a dot (``datetime.datetime.now`` matches ``datetime.now``)."""
    for suffix in suffixes:
        if name == suffix or name.endswith("." + suffix):
            return suffix
    return None


def name_tail(node: ast.AST) -> str:
    """The last component of :func:`dotted_name` of ``node``, without
    building the name."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return "?"


class CallMatcher:
    """Matches call targets against dotted ``suffixes``
    (:func:`suffix_match`), each target's root resolved through its
    module's absolute imports: with ``time.time`` among the suffixes,
    ``import time as t; t.time()`` and ``from time import time; time()``
    match too.

    The tail is tested first.  A target whose last component ends no
    suffix, or a bare name no import anywhere in ``tree`` binds to such
    a target, is turned away before any name is built; the module's
    imports are read only for the few that pass."""

    def __init__(self, tree: "Tree", suffixes: Iterable[str]):
        self.suffixes = tuple(suffixes)
        self.tails = frozenset(s.rsplit(".", 1)[-1] for s in self.suffixes)
        #: every name a bare-name call can match under
        self.names = set(self.tails)
        for module in tree.parsed():
            for bound, target in _import_bindings(module):
                if target.rpartition(".")[2] in self.tails:
                    self.names.add(bound)

    def match(self, module: "ModuleInfo",
              func: ast.AST) -> Optional[Tuple[str, str]]:
        """``(name as written, suffix)`` when call target ``func``
        matches one of the suffixes, else None."""
        if isinstance(func, ast.Attribute):
            if func.attr not in self.tails:
                return None
        elif not (isinstance(func, ast.Name) and func.id in self.names):
            return None
        name = dotted_name(func)
        root, dot, rest = name.partition(".")
        bound = None
        for bound_name, target in _import_bindings(module):
            if bound_name == root:
                bound = target
        resolved = name if bound is None else bound + dot + rest
        suffix = suffix_match(resolved, self.suffixes)
        return None if suffix is None else (name, suffix)


def _import_bindings(module: "ModuleInfo") -> Iterator[Tuple[str, str]]:
    """``(name, target)`` for each name the module's absolute imports
    bind to something other than itself, in binding order: ``import
    time as t`` binds ``t`` to ``time``, ``from time import perf_counter
    as clock`` binds ``clock`` to ``time.perf_counter``.  A relative
    import names a module of the tree, not a library one: left out."""
    for node in module.imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    yield alias.asname, alias.name
        elif node.level == 0 and node.module:
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, f"{node.module}.{alias.name}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    rule: str
    path: pathlib.Path       #: absolute path of the offending file
    rel: str                 #: path relative to the lint root (posix)
    line: int
    message: str
    snippet: str = ""        #: stripped source line

    def location(self, repo_root: pathlib.Path) -> str:
        """``file:line``, the file relative to ``repo_root`` if under it."""
        try:
            shown = self.path.relative_to(repo_root).as_posix()
        except ValueError:
            shown = str(self.path)
        return f"{shown}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "file": self.rel,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class AstIndex:
    """One module tree, traversed once, answering what every rule asks.

    ``nodes`` is exactly ``list(ast.walk(tree))``; every bucket
    :meth:`nodes_of` returns is the ``isinstance`` filter of that list
    in the same relative order, so a rule that takes the first match,
    ``break``s after one finding or ``setdefault``s an origin sees what
    a private ``ast.walk`` would have shown it.  ``parents`` comes out
    of the same traversal, and :meth:`holding` climbs it.
    """

    __slots__ = ("nodes", "parents", "_by_type", "_answers", "_holding",
                 "_subtrees")

    def __init__(self, tree: ast.AST):
        nodes: List[ast.AST] = []
        parents: Dict[ast.AST, ast.AST] = {}
        by_type: Dict[type, List[ast.AST]] = {}
        AST = ast.AST
        todo = deque([tree])
        while todo:
            node = todo.popleft()
            nodes.append(node)
            try:
                by_type[type(node)].append(node)
            except KeyError:
                by_type[type(node)] = [node]
            # ``ast.iter_child_nodes`` inlined: two generators per node less.
            for name in node._fields:
                field = getattr(node, name, None)
                if isinstance(field, AST):
                    parents[field] = node
                    todo.append(field)
                elif isinstance(field, list):
                    for item in field:
                        if isinstance(item, AST):
                            parents[item] = node
                            todo.append(item)
        self.nodes = nodes
        #: child node -> parent node, for dominance-style walks.
        self.parents = parents
        self._by_type = by_type
        self._answers: Dict[Tuple[type, ...], List[ast.AST]] = {}
        self._holding: Dict[Tuple[type, ...], Set[ast.AST]] = {}
        self._subtrees: Dict[ast.AST, List[ast.AST]] = {}

    def nodes_of(self, *types: type) -> List[ast.AST]:
        """Every node that is an instance of ``types``, in walk order.
        The list is shared between callers: read it, don't mutate it."""
        found = self._answers.get(types)
        if found is None:
            wanted = {kind for kind in self._by_type if issubclass(kind, types)}
            if not wanted:  # the module has none: nothing to scan for
                found = []
            elif len(wanted) == 1:
                found = self._by_type[wanted.pop()]
            else:  # several concrete types: their buckets, merged in order
                found = [node for node in self.nodes if type(node) in wanted]
            self._answers[types] = found
        return found

    def holding(self, *types: type) -> Set[ast.AST]:
        """Every node whose subtree (itself included) holds an instance
        of ``types``: a walk looking for them pushes only children in
        this set and still meets every match, in the same order.
        Shared between callers like :meth:`nodes_of`."""
        found = self._holding.get(types)
        if found is None:
            found = self._holding[types] = set()
            parents = self.parents
            for kind, bucket in self._by_type.items():
                if not issubclass(kind, types):
                    continue
                for node in bucket:
                    while node is not None and node not in found:
                        found.add(node)
                        node = parents.get(node)
        return found

    def subtree(self, root: ast.AST) -> List[ast.AST]:
        """``list(ast.walk(root))`` for a function or statement a rule
        inspects as a unit, kept so a second question about the same
        root costs nothing.  Only roots asked for are remembered."""
        found = self._subtrees.get(root)
        if found is None:
            found = self._subtrees[root] = list(ast.walk(root))
        return found


class ModuleInfo:
    """One parsed source file plus its pragma table and AST index."""

    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.source = path.read_text()
        self.error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(
                self.source, filename=str(path)
            )
        except SyntaxError as err:
            self.tree = None
            self.error = err

    # ------------------------------------------------------------------
    @cached_property
    def lines(self) -> List[str]:
        """The source split into lines, only for the few modules whose
        pragmas or finding snippets are read."""
        return self.source.splitlines()

    @cached_property
    def pragmas(self) -> Dict[int, Dict[str, str]]:
        """line number -> {rule_id -> reason}."""
        table: Dict[int, Dict[str, str]] = {}
        for index, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            for item in match.group(1).split(","):
                parsed = _PRAGMA_ITEM.match(item.strip())
                if parsed is None:
                    continue
                rule, reason = parsed.group(1), parsed.group(2) or ""
                table.setdefault(index, {})[rule] = reason
        return table

    def suppressed(self, rule: str, line: int) -> bool:
        """A pragma on the finding's line, or on the line above it
        (standalone-comment style), silences that rule there."""
        for candidate in (line, line - 1):
            if rule in self.pragmas.get(candidate, {}):
                return True
        return False

    # ------------------------------------------------------------------
    @cached_property
    def index(self) -> AstIndex:
        """The module's :class:`AstIndex`, built on first use.  Rules
        read the tree through it and never ``ast.walk`` a module."""
        assert self.tree is not None
        return AstIndex(self.tree)

    def nodes_of(self, *types: type) -> List[ast.AST]:
        return self.index.nodes_of(*types)

    def subtree(self, root: ast.AST) -> List[ast.AST]:
        return self.index.subtree(root)

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        return self.index.parents

    @cached_property
    def imports(self) -> List[ast.stmt]:
        """The ``import`` and ``from`` statements, in walk order: the
        one list every reader of the module's imports shares.  A walk
        pruned to the subtrees holding one finds them without the scan
        of every node that a two-type :meth:`nodes_of` key takes."""
        wanted = self.index.holding(ast.Import, ast.ImportFrom)
        found: List[ast.stmt] = []
        todo = deque([self.tree] if self.tree in wanted else [])
        while todo:
            node = todo.popleft()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(node)
            else:
                todo.extend(filter(wanted.__contains__,
                                   ast.iter_child_nodes(node)))
        return found

    @cached_property
    def generators(self) -> Set[ast.AST]:
        """The defs (and lambdas) that yield: each ``yield`` belongs to
        the nearest def or lambda around it, not to the ones outside."""
        return {
            _nearest(self, node, _DEFS + (ast.Lambda,))
            for node in self.nodes_of(ast.Yield, ast.YieldFrom)
        } - {None}

    @cached_property
    def constants(self) -> Dict[str, str]:
        """Module-level ``NAME = "literal"`` string constants."""
        assert self.tree is not None
        return _str_constants(self.tree.body)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node_or_line, message: str) -> Finding:
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else getattr(node_or_line, "lineno", 0)
        )
        return Finding(
            rule=rule,
            path=self.path,
            rel=self.rel,
            line=line,
            message=message,
            snippet=self.line_at(line),
        )


_T = TypeVar("_T")


class Tree:
    """Every parsed module under one source root."""

    def __init__(self, root: pathlib.Path, modules: Sequence[ModuleInfo]):
        self.root = root
        self.modules = list(modules)
        self._by_rel = {module.rel: module for module in self.modules}
        self._derived: Dict[Callable[["Tree"], object], object] = {}

    @classmethod
    def load(cls, root: pathlib.Path) -> "Tree":
        root = root.resolve()
        modules = [
            ModuleInfo(path, root)
            for path in sorted(root.rglob("*.py"))
            if "analysis" not in path.relative_to(root).parts[:1]
        ]
        return cls(root, modules)

    def module(self, rel: str) -> Optional[ModuleInfo]:
        return self._by_rel.get(rel)

    def parsed(self) -> List[ModuleInfo]:
        return [module for module in self.modules if module.tree is not None]

    def derived(self, build: Callable[["Tree"], _T]) -> _T:
        """``build(self)``, computed on first request and shared: a fact
        several rules want (the call graph, the RPC registration census,
        the RNG stream sites) costs one pass however many ask."""
        try:
            return self._derived[build]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def callgraph(self):
        """The whole-tree :class:`~repro.analysis.callgraph.CallGraph`,
        built on first use and shared by every interprocedural rule."""
        from .callgraph import CallGraph

        return self.derived(CallGraph.build)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
class Rule:
    """Base class: subclass, set ``id``/``description``, implement
    :meth:`check`, and register with :func:`register_rule`."""

    id: str = ""
    description: str = ""

    def check(self, tree: Tree) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if not rule.id:
        raise ValueError("rule needs an id")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> List[Rule]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0      #: silenced by inline pragmas
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with CPython's cyclic garbage collector paused, then
    restore the caller's setting.

    Every AST and call-graph object a lint builds stays alive until the
    lint returns, so a collection during the run scans them all and
    frees nothing.  That holds for the collection the pause puts off
    too: the first allocation after re-enabling would start it, still
    inside the lint, over every object allocated in the pause.  So the
    pause ends by moving those objects to the oldest generation without
    a scan (``gc.freeze()`` then ``gc.unfreeze()``), unless the caller
    has frozen objects of its own, which must stay frozen.  The lint's
    cyclic garbage is then reclaimed at the caller's next full
    collection."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def run_lint(
    src_root: Optional[pathlib.Path] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every module under ``src_root`` with the selected rules,
    with the cyclic collector paused (:func:`collector_paused`)."""
    root = (src_root or default_src_root()).resolve()
    selected = all_rules()
    if rule_ids is not None:
        wanted = set(rule_ids)
        unknown = wanted - {rule.id for rule in selected}
        if unknown:
            raise KeyError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
        selected = [rule for rule in selected if rule.id in wanted]

    with collector_paused():
        tree = Tree.load(root)
        result = LintResult()
        for module in tree.modules:
            if module.error is not None:
                result.parse_errors.append(
                    Finding(
                        rule="parse-error",
                        path=module.path,
                        rel=module.rel,
                        line=module.error.lineno or 0,
                        message=f"syntax error: {module.error.msg}",
                    )
                )
        raw: List[Finding] = []
        for rule in selected:
            raw.extend(rule.check(tree))
        kept: List[Finding] = []
        for finding in raw:
            module = tree.module(finding.rel)
            if module is not None and module.suppressed(finding.rule, finding.line):
                result.suppressed += 1
                continue
            kept.append(finding)
        kept.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))
        result.findings = kept
    return result


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------
def literal_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _nearest(
    module: ModuleInfo, node: ast.AST, kinds: Tuple[type, ...]
) -> Optional[ast.AST]:
    """The closest ancestor of ``node`` that is one of ``kinds``."""
    parents = module.parents
    current = parents.get(node)
    while current is not None and not isinstance(current, kinds):
        current = parents.get(current)
    return current


def enclosing_function(
    module: ModuleInfo, node: ast.AST
) -> Optional[ast.AST]:
    return _nearest(module, node, _DEFS)


#: The statements that hold statement suites, defs and classes aside.
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
             ast.AsyncWith, ast.Try, ast.TryStar, ast.Match)


def nested_suites(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The statement suites directly under a compound statement, in
    source order (none under a def or class: its body is a new scope)."""
    if not isinstance(stmt, _COMPOUND):
        return []
    clauses = getattr(stmt, "handlers", None) or getattr(stmt, "cases", [])
    return [getattr(stmt, "body", []), *(clause.body for clause in clauses),
            getattr(stmt, "orelse", []), getattr(stmt, "finalbody", [])]


def enclosing_statement(module: ModuleInfo, node: ast.AST) -> Optional[ast.AST]:
    """The statement whose own expressions hold ``node`` (a ``case``
    pattern or guard is its ``match``'s); None in an except-clause type."""
    owner = _nearest(module, node, (ast.stmt, ast.ExceptHandler))
    return None if isinstance(owner, ast.ExceptHandler) else owner


def enclosing_class(module: ModuleInfo, node: ast.AST) -> Optional[ast.ClassDef]:
    return _nearest(module, node, (ast.ClassDef,))  # type: ignore[return-value]


def _str_constants(body: Sequence[ast.stmt]) -> Dict[str, str]:
    """``NAME = "literal"`` string bindings directly in a module or
    class body."""
    table: Dict[str, str] = {}
    for node in body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = literal_str(node.value)
            if isinstance(target, ast.Name) and value is not None:
                table[target.id] = value
    return table


def resolve_str_arg(
    module: ModuleInfo, call_site: ast.AST, node: Optional[ast.AST]
) -> Optional[str]:
    """Resolve an argument to a string: literal, module constant, class
    constant via ``self.NAME`` / ``cls.NAME``, or a parameter's literal
    default in the enclosing function."""
    if node is None:
        return None
    direct = literal_str(node)
    if direct is not None:
        return direct
    if isinstance(node, ast.Name):
        value = module.constants.get(node.id)
        if value is not None:
            return value
        func = enclosing_function(module, call_site)
        if func is not None:
            value = _param_default(func, node.id)
            if value is not None:
                return value
        klass = enclosing_class(module, call_site)
        if klass is not None:
            return _str_constants(klass.body).get(node.id)
        return None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in ("self", "cls"):
            klass = enclosing_class(module, call_site)
            if klass is not None:
                return _str_constants(klass.body).get(node.attr)
        return None
    return None


def _param_default(func: ast.AST, name: str) -> Optional[str]:
    args = func.args  # type: ignore[union-attr]
    positional = args.posonlyargs + args.args
    defaults = args.defaults
    offset = len(positional) - len(defaults)
    for index, arg in enumerate(positional):
        if arg.arg == name and index >= offset:
            return literal_str(defaults[index - offset])
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == name:
            return literal_str(default)
    return None


def call_args(call: ast.Call) -> Tuple[List[ast.AST], Dict[str, ast.AST]]:
    return list(call.args), {
        kw.arg: kw.value for kw in call.keywords if kw.arg is not None
    }
