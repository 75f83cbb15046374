"""No process-global simulation state.

Two runs of one spec in one process must not see each other: nothing in
the simulation packages may keep a counter at module level that a run
advances.  This parses their sources and fails on any ``global``
statement and on any ``itertools.count()`` evaluated at import, that is
outside a function body.
"""

import ast
import pathlib

import repro

PACKAGES = ("sim", "memory", "host", "pim", "system")


def _evaluated_at_import(node):
    """The nodes under ``node`` that run when its module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _evaluated_at_import(child)


def test_simulation_packages_hold_no_process_global_state():
    root = pathlib.Path(repro.__file__).parent
    offences = []
    for package in PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            name = f"{package}/{path.name}"
            tree = ast.parse(path.read_text(), str(path))
            offences += [f"{name}:{node.lineno}: global"
                         for node in ast.walk(tree)
                         if isinstance(node, ast.Global)]
            offences += [f"{name}:{node.lineno}: itertools.count() at import"
                         for node in _evaluated_at_import(tree)
                         if isinstance(node, ast.Call)
                         and ast.unparse(node.func) in ("itertools.count",
                                                        "count")]
    assert not offences, "\n".join(offences)
