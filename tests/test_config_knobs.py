"""Every ``ClusterParams`` field has a setter; everything else is a constant.

The audit of ROADMAP item 5(c), kept as a test: parse the whole tree,
collect every way a parameter can receive a value — a keyword argument,
an assignment to ``<...>params.<name>``, a dict key (``dict(seed=1)`` or
``{"seed": 1}`` on its way to ``**kwargs``) — and require that every
dataclass field is set by something outside ``config.py``.  A knob
nothing sets is a constant that has not been told yet.  No baseline
file, no allow-list.
"""

import ast
import dataclasses
import functools
import pathlib

import pytest

from repro.config import ClusterParams

from .helpers import REPO_ROOT, parsed_sources

THIS_FILE = pathlib.Path(__file__).resolve()

FIELDS = {field.name for field in dataclasses.fields(ClusterParams)}
CONSTANTS = set(ClusterParams.__annotations__) - FIELDS


def _sources():
    for path, nodes in parsed_sources():
        if path not in (REPO_ROOT / "src" / "repro" / "config.py", THIS_FILE):
            yield path.relative_to(REPO_ROOT), nodes


def _assigned_attributes(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        if isinstance(target, ast.Attribute):
            yield target


@functools.lru_cache(maxsize=None)
def _audit():
    """``name -> [where it is set]`` for fields; ``[where]`` for constants
    assigned through a ``params`` object."""
    setters = {name: [] for name in FIELDS}
    shadowed = []
    for path, nodes in _sources():
        for node in nodes:
            where = f"{path}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg in FIELDS:
                        setters[keyword.arg].append(where)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and key.value in FIELDS:
                        setters[key.value].append(where)
            for target in _assigned_attributes(node):
                if target.attr not in FIELDS and target.attr not in CONSTANTS:
                    continue
                if "params" not in ast.unparse(target.value):
                    continue  # ``self.page_size = ...`` on some other object
                if target.attr in FIELDS:
                    setters[target.attr].append(where)
                elif target.attr in CONSTANTS:
                    shadowed.append(f"{where} {ast.unparse(target)}")
    return setters, shadowed


def test_at_most_fifteen_fields_and_the_rest_are_constants():
    assert len(FIELDS) <= 15, sorted(FIELDS)
    assert "extras" not in ClusterParams.__annotations__
    for name in CONSTANTS:
        assert ClusterParams.__annotations__[name].startswith("ClassVar["), name
        assert name not in vars(ClusterParams()), name


def test_every_field_is_set_by_something():
    setters, _shadowed = _audit()
    never_set = sorted(name for name, sites in setters.items() if not sites)
    assert never_set == [], (
        f"{len(never_set)} ClusterParams fields nothing sets — make them "
        f"ClassVar constants: {never_set}"
    )


def test_no_file_assigns_a_constant_on_a_params_object():
    # With ClassVar that would shadow the constant for one instance
    # and leave every other host's view of it unchanged.
    _setters, shadowed = _audit()
    assert shadowed == []


def test_constants_cannot_be_passed_or_cloned():
    with pytest.raises(TypeError):
        ClusterParams(kernel_call_cpu=1.0)
    with pytest.raises(TypeError):
        ClusterParams().clone(page_size=1)
    assert ClusterParams().clone(fs_block_size=1024).fs_block_size == 1024
    assert ClusterParams().page_size == ClusterParams.page_size == 8192
