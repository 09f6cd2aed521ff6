"""Source hygiene, by stdlib `ast` scans of each `pargal` module.

* Every name a module imports is used there: a name counts as used when
  it appears as a name anywhere in the module (attribute roots included)
  or is listed in the module's `__all__`.
* No module writes module state at run time: no `global` statement, no
  assignment to an attribute of an imported module, and no builtin
  `setattr`, whose target a scan cannot tell from a module.  Run-time
  settings travel on the objects they govern.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pargal"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_sees_unused_and_used_names():
    src = ("from __future__ import annotations\nimport json\nimport os\n"
           "from math import gcd, prod\nfrom . import x\n"
           "__all__ = ['x']\nprint(os.sep, prod([]))\n")
    assert unused_imports(src) == ["gcd (line 4)", "json (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_state_writes(source: str) -> list[str]:
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or (isinstance(node, ast.ImportFrom) and node.module is None)
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"global (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr"):
            found.append(f"setattr (line {node.lineno})")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{t.value.id}.{t.attr} (line {node.lineno})"
                      for t in targets
                      if isinstance(t, ast.Attribute)
                      and isinstance(t.value, ast.Name)
                      and t.value.id in modules]
    return found


def test_scan_sees_module_state_writes():
    src = ("import numpy as np\nfrom . import crossed\nfrom .x import y\n"
           "LIMIT = 1\n"
           "def f(obj):\n    global LIMIT\n    crossed.LIMIT = 2\n"
           "    np.x += 1\n    y.z = 3\n    obj.w = 4\n"
           "    setattr(crossed, 'LIMIT', 5)\n")
    assert module_state_writes(src) == [
        "global (line 6)", "crossed.LIMIT (line 7)", "np.x (line 8)",
        "setattr (line 11)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_state_writes(path):
    assert module_state_writes(path.read_text()) == []
