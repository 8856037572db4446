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


def _oracle_reads(tree):
    """(line, text) of each name translate takes from .oracle that is not
    an oracle_* question, and of each attribute it reads off a model: the
    closed-form side asks the oracle whole questions and leaves every
    quotient, cut and lattice to it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [a.name for a in node.names]
            if node.module is None:
                names = [n for n in names if n == "oracle"]
            elif node.module != "oracle":
                continue
            found += [(node.lineno, f"from .{node.module or ''} import {n}")
                      for n in names if not n.startswith("oracle_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "model"):
            found.append((node.lineno, f"model.{node.attr}"))
    return found


def test_translate_asks_the_oracle_whole_questions():
    with open(os.path.join(SRC, "translate.py")) as fh:
        assert not _oracle_reads(ast.parse(fh.read()))


def test_oracle_reads_are_detected():
    tree = ast.parse("from .oracle import oracle_index, Subspace\n"
                     "from . import oracle, strata\n"
                     "def f(model):\n"
                     "    return model.quotient_context(model.e_A)\n"
                     "from .strata import nu_A\n")
    assert sorted(line for line, _ in _oracle_reads(tree)) == [1, 2, 4, 4]
