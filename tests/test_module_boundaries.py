"""No module of the package reads another module's private names: a name
that starts with an underscore is read only in the module that defines it.
Anything a sibling needs is public."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "tamestrata")


def _modules():
    return sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


def _private_reads(name, tree, siblings):
    """(module, line, text) of each sibling._name and from .x import _name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.value.id != name
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append((name, node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level:
            found += [(name, node.lineno, f"from .{node.module or ''} import {a.name}")
                      for a in node.names if a.name.startswith("_")
                      and not a.name.startswith("__")]
    return found


def test_no_module_reads_a_sibling_private_name():
    siblings = set(_modules())
    found = []
    for name in _modules():
        with open(os.path.join(SRC, name + ".py")) as fh:
            found += _private_reads(name, ast.parse(fh.read()), siblings)
    assert not found


def test_private_reads_are_detected():
    tree = ast.parse("from . import oracle\nfrom .ffq import _log_tables\n"
                     "n = oracle._MAX_N\n")
    assert [line for _, line, _ in _private_reads("cli", tree, {"oracle", "ffq"})] \
        == [2, 3]
