"""Every function, class and method in ``src/xldv`` is used by the package
itself or by ``perfbench/``; code that only tests reach is deleted.

A definition counts as used when its name appears as a ``Name``, an
``Attribute`` or an imported name anywhere in ``src/`` or ``perfbench/``
outside an ``__init__.py``: a package's re-export is not a use. The match is
by name only, so it can miss dead code that shares a name with something
live, but it never flags live code. Not checked: dunder methods,
which Python calls, and methods that override a method of a base class from
outside xldv (``argparse.ArgumentParser.error``), which that class calls.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xldv"

# Used only by tests, and kept on purpose.
ALLOWED = {
    "backend.cosine_score": "scalar oracle for CosineScorer.score_pairs",
    "corpus.envelope_distance": "scalar definition that _envelope_distances vectorises",
    "phonenet.reconstruct_low_rank": "Eckart-Young oracle for svd_decompose",
}


def _overrides_external(module, cls_name, name):
    cls = getattr(importlib.import_module(f"xldv.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("xldv"))


def _definitions():
    """(module.qualname, name) of each top-level def/class and each method."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.FunctionDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not _overrides_external(module, node.name, item.name)):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references():
    names = set()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_is_used_outside_tests():
    used = _references()
    unused = {qual for qual, name in _definitions() if name not in used}
    assert unused == set(ALLOWED), (
        f"used only by tests (delete, or allow with a reason): "
        f"{sorted(unused - set(ALLOWED))}; allowed but now used: "
        f"{sorted(set(ALLOWED) - unused)}"
    )
