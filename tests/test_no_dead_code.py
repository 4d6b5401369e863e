"""Every function, class and method in ``src/xldv`` is used by the package
itself or by ``perfbench/``; code that only tests reach is deleted.

Two guards check it. The static one: a definition counts as used when its
name appears as a ``Name``, an ``Attribute`` or an imported name anywhere in
``src/`` or ``perfbench/`` outside an ``__init__.py``: a package's re-export
is not a use. The match is by name only, so it can miss dead code that shares
a name with something live, but it never flags live code. Not checked: dunder
methods, which Python calls, and methods that override a method of a base
class from outside xldv (``argparse.ArgumentParser.error``), which that class
calls.

The runtime one sees what the name match cannot: a fresh interpreter imports
xldv under ``sys.setprofile``, runs ``xldv all`` on the tiny test config
through a config file and then ``validate-config``, and every function and
method in ``src/xldv`` (dunders aside) must have been entered. The stage
workers run in that process, so their calls count too. ``NOT_RUN`` lists each
exception with its reason; a forked path, input form or parameter that only
tests reach fails the guard.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

from test_config_cli import TINY_OVERRIDES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xldv"

# Used only by tests, and kept on purpose.
ALLOWED = {}

# Defined in src/xldv but not entered by a tiny run, and kept on purpose.
NOT_RUN = {
    "cli._Parser.error": "error path: argparse calls it on a bad command line",
    "nn.layers.Layer._bad": "error path: builds a layer's InvalidArgumentError",
    "nn.layers.Layer.build": "abstract",
    "nn.layers.Layer.forward": "abstract",
    "nn.layers.Layer.input_grad": "abstract",
    "nn.layers.Layer.backward": "perfbench's per-layer timing calls it",
    "nn.graph.NetworkGraph.find_first_nonfinite": "names the layer of a non-finite loss",
    "workers._Capture.emit": "worker internals, replaced by a list comprehension here",
    "workers._start_worker": "worker internals, replaced by a list comprehension here",
    "workers._run_items": "worker internals, replaced by a list comprehension here",
    "workers.worker_count": "worker internals, replaced by a list comprehension here",
    "workers.map_ordered": "replaced by a list comprehension here",
}

# Run in a fresh interpreter, so that calls made while xldv imports count.
TRACE = """
import json, sys

src, config, out = sys.argv[1:]
entered = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
from xldv import corpus, workers
from xldv.cli import main


def in_process(fn, items, config=None):
    return [fn(item) for item in items]


workers.map_ordered = corpus.map_ordered = in_process
codes = [main(["all", "--config", config, "--quiet"]),
         main(["validate-config", "--config", config])]
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def _overrides_external(module, cls_name, name):
    cls = getattr(importlib.import_module(f"xldv.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("xldv"))


def _module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _definitions():
    """(module.qualname, name) of each top-level def/class and each method."""
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
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


def _functions():
    """{(file, first line of its code object): module.qualname} of every function,
    method and nested function in src/xldv except dunders."""
    found = {}

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    # a decorated function's code starts at its first decorator
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path), first)] = f"{prefix}{node.name}"
                visit(node.body, path, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, path,
              f"{_module_name(path)}.")
    return found


def test_a_tiny_run_enters_every_function(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text("".join(f"{kv.replace('=', ' = ', 1)}\n" for kv in TINY_OVERRIDES))
    out = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("XLDV_RUN_DIR", None)  # the run goes to runs/<config hash> under tmp_path
    subprocess.run([sys.executable, "-c", TRACE, str(SRC), str(config), str(out)],
                   cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)
    traced = json.loads(out.read_text())
    assert traced["codes"] == [0, 0]
    functions = _functions()
    entered = {functions[tuple(key)] for key in traced["entered"] if tuple(key) in functions}
    missed = set(functions.values()) - entered
    assert missed == set(NOT_RUN), (
        f"not entered by a tiny run (delete, or list in NOT_RUN with a reason): "
        f"{sorted(missed - set(NOT_RUN))}; listed but entered or gone: "
        f"{sorted(set(NOT_RUN) - missed)}"
    )
