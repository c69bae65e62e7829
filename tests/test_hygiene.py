"""Source hygiene of the library modules: numpy is the only third-party
import, and every imported name is used."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "grasp"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "grasp"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """(top-level module, bound name or None, node) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name.split(".")[0], bound, node
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside grasp
            top = "grasp" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, None if top == "__future__" else alias.asname or alias.name, node


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node.returns


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used_names(tree):
    """Names the module reads, its ``__all__`` re-exports and quoted annotations included."""
    used = _names(tree)
    for a in _annotations(tree):
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            used |= _names(ast.parse(a.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_grasp(path):
    for top, _, node in _imports(_tree(path)):
        assert top in ALLOWED, f"{path.name}:{node.lineno} imports {top}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    for _, bound, node in _imports(tree):
        assert bound is None or bound in used, f"{path.name}:{node.lineno} never uses {bound}"


def _json_dump_calls(tree):
    """Line numbers of ``json.dump`` calls, and of ``dump`` imported from json."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "dump"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (node.lineno for alias in node.names if alias.name == "dump")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_writes_json_files(path):
    # errors.write_json is the one JSON file writer, so every file has one layout
    if path.name != "errors.py":
        assert not list(_json_dump_calls(_tree(path))), f"{path.name} calls json.dump"
