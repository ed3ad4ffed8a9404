"""The library's public surface is what the system calls: every public
function and class of `stmotion` is named in the code of `src/`, `demos/`
or `stbench/`, apart from the few names below, and every field of a public
dataclass is read there."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import stmotion

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in src/, demos/ or stbench/ calls, each with its reason.
UNCALLED = {
    "finite_diff_check": "the central-difference reference the gradient tests compare with",
    "angleaxis_from_rotmat": "the round trips of acceptance criterion 7",
    "rotmat_from_euler": "the round trips of acceptance criterion 7",
    "matched_vanilla_config": "the parameter-matched baseline of acceptance criterion 9",
}


def _nodes_in_code():
    """Every AST node of the system's Python files."""
    for folder in ("src", "demos", "stbench"):
        for path in (ROOT / folder).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(), str(path)))


def _public_objects():
    """(name, object) of every public function and class defined in `stmotion`."""
    for info in pkgutil.iter_modules(stmotion.__path__):
        mod = importlib.import_module(f"stmotion.{info.name}")
        yield from ((name, obj) for name, obj in vars(mod).items()
                    if not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__)


def test_every_public_function_and_class_has_a_caller():
    names = set()
    for node in _nodes_in_code():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert {name for name, _ in _public_objects()} - names == set(UNCALLED)


def test_every_dataclass_field_is_read():
    read = {node.attr for node in _nodes_in_code()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{name}.{f.name}" for name, obj in _public_objects()
              if dataclasses.is_dataclass(obj)
              for f in dataclasses.fields(obj) if f.name not in read}
    assert unread == set()
