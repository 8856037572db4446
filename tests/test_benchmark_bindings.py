"""The benchmark traces the library by attribute name: every traced
attribute must exist, and every binding site a traced pass must call must
hold the traced function.  The lists are read from the benchmark's source,
not imported, so this test changes nothing there."""

import ast
import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _literal(filename, name):
    with open(os.path.join(BENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in perfbench/{filename}")


def _resolve(module, dotted):
    """The object the tracer would wrap, or None when the name is gone; the
    tracer reads each name from its owner's own namespace."""
    owner = importlib.import_module(f"tamestrata.{module}")
    for part in dotted.split("."):
        owner = vars(owner).get(part)
        if owner is None:
            return None
    return owner


TRACED = _literal("tracer.py", "SPANS") + _literal("tracer.py", "LEAVES")


def test_traced_attributes_exist():
    missing = [f"{module}.{attr}" for module, attr, _ in TRACED
               if not callable(_resolve(module, attr))]
    assert not missing


def test_required_sites_hold_the_traced_function():
    originals = {}
    for module, attr, span in TRACED:
        originals.setdefault(span, []).append(_resolve(module, attr))
    wrong = []
    for workload, sites in _literal("run.py", "REQUIRED_SITES").items():
        for span, site in sites:
            held = _resolve(*site.split(".", 1))
            if held is None or not any(held is fn for fn in originals[span]):
                wrong.append(f"{workload}: {site} ({span})")
    assert not wrong
