"""Nothing kept that nothing reads.

Every attribute the source assigns through ``self``, every
``@property`` it defines and every name it assigns at module level
(dunders aside) must be read somewhere in the repository: src, tests,
benchmarks, examples or tools.  A counter only ever bumped,
a table only ever filled, a property nothing asks for is state that
costs a write on every path and tells no one anything — delete it.
The dead-code report (``repro lint --graph``) covers functions; this
audit covers the state beside them.  No baseline file, no allow-list.

A reader of an attribute is any load of ``.name``, and a reader of a
module-level name is any load of ``name`` or ``.name``, except one that
is merely

* the receiver of a store or ``del`` (``x.name[k] = v``,
  ``x.name.y = v``, ``del x.name[k]``), augmented assignments included;
* the receiver of a mutating call used as a statement
  (``x.name.append(v)``).

The name in a string that is not a docstring counts as a reader too:
the perf harness reads counters by a dotted path, and ``getattr`` by
name.  Readers are matched by name, not by class.
"""

import ast
import functools
import pathlib
import re

from .helpers import REPO_ROOT, parsed_sources

THIS_FILE = pathlib.Path(__file__).resolve()
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: Container methods that change their receiver and whose result, in a
#: statement of its own, nobody looks at.
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_property(node):
    return isinstance(node, _DEFS) and any(
        isinstance(d, ast.Name) and d.id == "property"
        for d in node.decorator_list
    )


def _kept(node, owner, rel):
    """``(name, where)`` for each ``self.name`` stored and each property
    defined under ``node``, ``where`` naming the class it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _kept(child, child.name, rel)
            continue
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.ctx, ast.Store)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        ):
            yield child.attr, f"{rel}::{owner}.{child.attr}"
        elif _is_property(child):
            yield child.name, f"{rel}::{owner}.{child.name}"
        yield from _kept(child, owner, rel)


def _assigned(body, rel):
    """``(name, where)`` for each name a module's top level assigns,
    through ``if`` and ``try`` blocks; dunders are the interpreter's."""
    for node in body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
                for block in ("body", "orelse", "finalbody", "handlers"):
                    yield from _assigned(getattr(node, block, ()), rel)
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not (name.id.startswith("__")
                                 and name.id.endswith("__"))):
                    yield name.id, f"{rel}::{name.id}"


def _receivers(target):
    """The loads a store to ``target`` only passes through."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _receivers(element)
    elif isinstance(target, ast.Starred):
        yield from _receivers(target.value)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        yield target.value


def _read_names(nodes):
    """Every name a module reads: ``(attributes, variables)``, each by
    load or by string."""
    loads, strings, passed, docstrings = [], [], set(), set()
    for node in nodes:
        if isinstance(node, (ast.Attribute, ast.Name)):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                strings.append(node)
        elif isinstance(node, ast.Expr):
            value = node.value
            if isinstance(value, ast.Constant):
                docstrings.add(value)  # and the notes beside attributes
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in MUTATORS
            ):
                passed.add(value.func.value)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            for target in node.targets:
                passed.update(_receivers(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            passed.update(_receivers(node.target))
    words = set()
    for node in strings:
        if node not in docstrings:
            words.update(_WORD.findall(node.value))
    attributes = {node.attr for node in loads
                  if isinstance(node, ast.Attribute) and node not in passed}
    variables = {node.id for node in loads
                 if isinstance(node, ast.Name) and node not in passed}
    return attributes | words, variables | attributes | words


@functools.lru_cache(maxsize=None)
def _unread():
    """``(attributes and properties, module-level names)`` that nothing
    reads, each as sorted ``where`` strings."""
    kept, assigned = set(), set()
    read_attributes, read_variables = set(), set()
    for path, nodes in parsed_sources():
        if path == THIS_FILE:
            continue
        if SOURCE_ROOT in path.parents:
            rel = path.relative_to(SOURCE_ROOT).as_posix()
            kept.update(_kept(nodes[0], "<module>", rel))
            assigned.update(_assigned(nodes[0].body, rel))
        attributes, variables = _read_names(nodes)
        read_attributes |= attributes
        read_variables |= variables
    return (
        sorted(where for name, where in kept if name not in read_attributes),
        sorted(where for name, where in assigned if name not in read_variables),
    )


def test_every_kept_attribute_and_property_has_a_reader():
    unread = _unread()[0]
    assert unread == [], (
        f"{len(unread)} attributes or properties are kept but never read "
        f"anywhere in the repository — delete them: {unread}"
    )


def test_every_module_level_name_has_a_reader():
    unread = _unread()[1]
    assert unread == [], (
        f"{len(unread)} module-level names are assigned but never read "
        f"anywhere in the repository — delete them: {unread}"
    )
