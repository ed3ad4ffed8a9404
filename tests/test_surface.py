"""The library's public surface is what the system calls: every public
function and class of `stmotion` is named in the code of `src/`, `demos/`
or `stbench/`, apart from the few names below."""

import ast
import importlib
import pkgutil
from pathlib import Path

import stmotion

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in src/, demos/ or stbench/ calls, each with its reason.
UNCALLED = {
    "finite_diff_check": "the central-difference reference the gradient tests compare with",
    "mul": "weights the finite-difference losses of the gradient tests",
    "angleaxis_from_rotmat": "the round trips of acceptance criterion 7",
    "rotmat_from_euler": "the round trips of acceptance criterion 7",
    "matched_vanilla_config": "the parameter-matched baseline of acceptance criterion 9",
}


def _names_in_code() -> set[str]:
    """Every name loaded or attribute read in the system's Python files."""
    names = set()
    for folder in ("src", "demos", "stbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_and_class_has_a_caller():
    public = set()
    for info in pkgutil.iter_modules(stmotion.__path__):
        mod = importlib.import_module(f"stmotion.{info.name}")
        public |= {name for name, obj in vars(mod).items()
                   if not name.startswith("_") and callable(obj)
                   and getattr(obj, "__module__", None) == mod.__name__}
    assert public - _names_in_code() == set(UNCALLED)
