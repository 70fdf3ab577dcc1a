"""Every module-level function of the package is called by the package or
by the benchmark, not only by tests.

A function counts as called when its name appears outside its own body: as
a name or an attribute anywhere in ``src/curvespace``, or as an attribute in
``perfbench``, which reaches the package as ``ctx.cs.<module>.<name>`` and
defines helpers of its own whose bare names must not count.  A module-level
``__getattr__`` (PEP 562) counts as called: the interpreter calls it on every
attribute lookup that misses the module, such as perfbench's ``ctx.cs.oracle``.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_package_function_has_a_caller():
    sources = sorted((ROOT / "src" / "curvespace").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    defined = []
    # name -> every (file, enclosing module-level def or None) it appears in
    users = defaultdict(set)
    for path in sources + bench:
        counted = (ast.Name, ast.Attribute) if path in sources else (ast.Attribute,)
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = stmt.name if isinstance(stmt, DEFS) else None
            if path in sources and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, counted):
                    users[node.id if isinstance(node, ast.Name) else node.attr].add((path, owner))
    uncalled = sorted(name for path, name in defined
                      if name != "__getattr__" and not users[name] - {(path, name)})
    assert not uncalled, f"functions that only tests call: {', '.join(uncalled)}"
