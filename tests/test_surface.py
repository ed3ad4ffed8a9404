"""The library's public surface is what the system calls: every public
function and class of `stmotion` is named in the code of `src/`, `demos/`
or `stbench/`, apart from the few names below, and every field of a public
dataclass is read there."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import stmotion
from stmotion import cli, model, training

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


def test_every_train_flag_sets_its_config_key():
    # a flag's dest is the ModelConfig/TrainConfig field it sets; the rest name files or a budget
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices["train"]._actions if a.dest != "help"}
    fields = {f.name for cls in (model.ModelConfig, training.TrainConfig)
              for f in dataclasses.fields(cls)}
    assert dests - fields == {"data", "config", "out_dir", "memory_budget"}


def test_the_package_root_binds_no_public_function_or_class():
    # each name lives in its module; `forward` stays bound because stbench's
    # tracer test wraps it at every alias, the root included
    bound = {name for name, obj in vars(stmotion).items()
             if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert bound == {"forward"}
