"""README's Python examples name only what the package defines."""

import ast
import importlib
import re
import types
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _resolve(module_name, name):
    """``module_name.name`` as an attribute or a submodule, else None."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def unresolved_names(source):
    """Names ``source`` imports from ``ricciflow`` or reads off one of its
    modules that do not exist."""
    tree = ast.parse(source)
    missing, modules = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "ricciflow"):
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing


def test_readme_python_blocks_name_existing_objects():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    assert [name for block in blocks for name in unresolved_names(block)] == []


def test_stale_names_are_reported():
    stale = ("from ricciflow import variation\n"
             "from ricciflow.mesh import build_icosphere, build_cube\n"
             "variation.surface_rate(snap, 1, 'unnormalized')\n"
             "variation.rhs_unnormalized_surface(snap, 1)\n")
    assert unresolved_names(stale) == ["ricciflow.mesh.build_cube",
                                       "variation.rhs_unnormalized_surface"]
