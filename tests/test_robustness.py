"""Properties of the source itself."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import tamestrata


def test_no_assert_statements():
    # `python -O` strips assert statements, so mathematical checks raise
    # VerificationFailed explicitly instead
    root = pathlib.Path(tamestrata.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_documents_identical_under_optimize_flag():
    # the checks must not live in asserts: a run under `python -O` gives
    # byte-identical documents
    src = os.path.dirname(os.path.dirname(tamestrata.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    calls = [
        ["check-minimal", "--tower", "desk5", "--element",
         '[[[-1,2],[0,1]],[[1,2],[1,0]]]', "--upper", "0", "--lower", "2"],
        ["check-minimal", "--tower", "deep5", "--element",
         '{"level": 0, "terms": [[[-1,8],[0,1]]], "prec": [1,1]}',
         "--upper", "0", "--lower", "3"],
        ["check-minimal", "--tower", "deep5", "--element",
         '{"level": 0, "terms": [[[-1,8],[0,1]],[[1,4],[1,0]]], '
         '"prec": [1,1]}', "--upper", "0", "--lower", "1"],
        ["defseq", "--tower", "desk5", "--N", "4",
         "--element", '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'],
        ["defseq", "--tower", "desk5", "--N", "4",
         "--element", '[[[-3,2],[1,0]],[[-1,1],[1,0]]]'],       # exit 2
    ]
    for args in calls:
        runs = [subprocess.run([sys.executable, *flags, "-m", "tamestrata.cli",
                                *args], capture_output=True, env=env)
                for flags in ([], ["-O"])]
        assert runs[0].stdout == runs[1].stdout, args
        assert runs[0].returncode == runs[1].returncode, args
        assert runs[0].stdout.startswith(b'{"kind":'), args


def test_benchmark_tracer_bindings_resolve():
    # perfbench/tracer.py wraps library functions by name and reads
    # vars(owner)[name]; a rename or deletion must fail here, not in a
    # benchmark run
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "perfbench" / "tracer.py")
    if not path.exists():
        pytest.skip("perfbench/ is not next to the tests")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _ in tracer.SPANS + tracer.LEAVES:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        *outer, name = attr.split(".")
        for part in outer:
            owner = vars(owner).get(part)
            if owner is None:
                break
        if owner is None or name not in vars(owner):
            missing.append(f"{modname}.{attr}")
    assert not missing, missing


def _empty_container(node):
    """An empty dict, list or set: {}, [], dict(), list() or set()."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and not node.args and not node.keywords
            and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set"))


def test_no_module_level_memos():
    # an empty container bound at module level is a global memo: it lives as
    # long as the process and keeps every key it was given alive
    root = pathlib.Path(tamestrata.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and _empty_container(node.value)]
    assert not found, found
