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


_BUILDERS = ("model_build", "MatrixModel")


def _stray_model_builds(tree, helper="oracle_model"):
    """Line of each mention of a model builder outside the gate every
    command and suite takes its models from."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == helper:
            inside |= {id(n) for n in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside
                  and (isinstance(node, ast.Attribute) and node.attr in _BUILDERS
                       or isinstance(node, ast.Name) and node.id in _BUILDERS
                       or isinstance(node, ast.alias) and node.name in _BUILDERS))


def _parse(name):
    with open(os.path.join(SRC, name + ".py")) as fh:
        return ast.parse(fh.read())


def test_models_are_built_only_in_the_oracle_gate():
    # strata.oracle_model is the one place outside the oracle that names a
    # model builder: cli, verifysuite and translate name none at all
    found = [(name, line) for name in ("cli", "verifysuite", "translate")
             for line in _stray_model_builds(_parse(name), helper="")]
    strata = _parse("strata")
    found += [("strata", line) for line in _stray_model_builds(strata)]
    assert not found
    gate = next(node for node in strata.body if isinstance(node, ast.FunctionDef)
                and node.name == "oracle_model")
    assert _stray_model_builds(gate, helper="")


def test_stray_model_builds_are_detected():
    tree = ast.parse("from . import oracle\n"
                     "from .oracle import model_build\n"
                     "def oracle_model(models, order):\n"
                     "    return oracle.model_build(order)\n"
                     "def suite_x(models):\n"
                     "    build = oracle.MatrixModel\n"
                     "    return oracle.model_build(order)\n")
    assert _stray_model_builds(tree) == [2, 6, 7]
    assert _stray_model_builds(tree, helper="") == [2, 4, 6, 7]


def _identity_keys(tree):
    """Line of each call of the builtin id: towers, orders and records
    compare by value, so nothing in the package keys by object identity."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id"]


def test_no_module_keys_by_object_identity():
    found = []
    for name in _modules():
        with open(os.path.join(SRC, name + ".py")) as fh:
            found += [(name, line) for line in _identity_keys(ast.parse(fh.read()))]
    assert not found


def test_identity_keys_are_detected():
    tree = ast.parse("key = (id(tower), N)\nn = order.id\nk = ident(x)\n"
                     "if id(a) not in seen:\n    pass\n")
    assert _identity_keys(tree) == [1, 4]


_CROSS_CHECKS = ("via_sr", "via_galois", "consistent")


def _cross_check_reads(tree):
    """Line of each read of a minimality cross-check: a build decides
    minimality by its definition, and the two other routes run only when
    a report's reader asks for them."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _CROSS_CHECKS)


def test_builds_read_no_minimality_cross_check():
    found = []
    for name in ("strata", "translate", "corpus"):
        with open(os.path.join(SRC, name + ".py")) as fh:
            found += [(name, line) for line in _cross_check_reads(ast.parse(fh.read()))]
    assert not found


def test_cross_check_reads_are_detected():
    tree = ast.parse("rep = is_minimal(c, 0, 1)\n"
                     "ok = rep.minimal and rep.via_sr\n"
                     "via_galois = rep.cond_gcd\n"
                     "if is_minimal(c, 0, 2).consistent:\n"
                     "    pass\n"
                     "g = getattr(rep, 'via_galois_count', rep.via_galois)\n")
    assert _cross_check_reads(tree) == [2, 4, 6]


_MUTABLE = ("dict", "list", "set", "Dict", "List", "Set")


def _is_named_tuple(node):
    return (isinstance(node, ast.Name) and node.id == "NamedTuple"
            or isinstance(node, ast.Attribute) and node.attr == "NamedTuple")


def _mutable_annotation(node):
    """Whether an annotation names a dict, list or set, bare or subscripted."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id in _MUTABLE
            or isinstance(node, ast.Attribute) and node.attr in _MUTABLE)


def _mutable_record_fields(tree):
    """(line, field) of each NamedTuple field annotated as a dict, list or
    set, in class form (field: dict) or functional form (("field", dict)):
    a record shares its fields with every copy, so a mutable one is state
    every reader of a cached record can change."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_named_tuple,
                                                      node.bases)):
            found += [(f.lineno, f.target.id) for f in node.body
                      if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)
                      and _mutable_annotation(f.annotation)]
        elif (isinstance(node, ast.Call) and _is_named_tuple(node.func)
              and len(node.args) > 1
              and isinstance(node.args[1], (ast.List, ast.Tuple))):
            found += [(f.lineno, f.elts[0].value) for f in node.args[1].elts
                      if isinstance(f, ast.Tuple) and len(f.elts) == 2
                      and isinstance(f.elts[0], ast.Constant)
                      and _mutable_annotation(f.elts[1])]
    return found


def test_no_record_declares_a_mutable_field():
    found = [(name, *field) for name in _modules()
             for field in _mutable_record_fields(_parse(name))]
    assert not found


def test_mutable_record_fields_are_detected():
    tree = ast.parse("import typing\n"
                     "class A(NamedTuple):\n"
                     "    n: int\n"
                     "    notes: dict\n"
                     "    rows: typing.List[int]\n"
                     "    tags: frozenset\n"
                     "class B(NamedTuple('B', [('order', int),\n"
                     "                         ('notes', dict)])):\n"
                     "    __slots__ = ()\n"
                     "C = typing.NamedTuple('C', (('seen', set[int]),\n"
                     "                            ('key', tuple)))\n"
                     "class D:\n"
                     "    cache: dict\n")
    assert sorted(_mutable_record_fields(tree)) == [
        (4, "notes"), (5, "rows"), (8, "notes"), (10, "seen")]


# Public names no module of the package reads, each with its reason.  An
# entry that gains a caller in the package, or whose name is gone, is stale.
API = {
    "ffq.FqField.gen": "the README's tour builds elements from it",
    "tame.Tower.is_subgroup": "the chain enumeration the ROADMAP plans "
                              "finds subgroups with it",
    "tame.series_equal": "perfbench traces it by name",
    "tame.trace_norm": "perfbench traces it by name",
    "strata.verify_defining_sequence": "perfbench traces it by name",
}


def _public_defs(tree):
    """(qualified name, node) of each module-level def or class and each
    method of such a class, whose name does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def _mentions(tree, skip=frozenset()):
    """Every name, attribute and imported name in tree, outside the nodes
    whose ids are in skip."""
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _uncalled(trees):
    """module.name of each public def that no module mentions outside the
    def's own body; trees maps a module name to its parsed source."""
    everywhere = {name: _mentions(tree) for name, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            short = qualname.rsplit(".", 1)[-1]
            body = {id(n) for n in ast.walk(node)}
            if not (short in _mentions(tree, body) or any(
                    short in names for other, names in everywhere.items()
                    if other != module)):
                found.add(f"{module}.{qualname}")
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    trees = {}
    for name in _modules():
        with open(os.path.join(SRC, name + ".py")) as fh:
            trees[name] = ast.parse(fh.read())
    uncalled = _uncalled(trees)
    assert not uncalled - API.keys(), "public names without a caller"
    assert not API.keys() - uncalled, "stale API entries"
    assert all(API.values())


def test_uncalled_public_names_are_detected():
    trees = {
        "a": ast.parse("def used():\n    return 1\n"
                       "def unused():\n    return unused()\n"
                       "def _private():\n    return 0\n"
                       "class Box:\n"
                       "    def get(self):\n        return self.put()\n"
                       "    def put(self):\n        return used()\n"
                       "    def _hidden(self):\n        pass\n"
                       "class _Inner:\n    def lonely(self):\n        pass\n"),
        "b": ast.parse("from .a import Box\nx = Box().get()\n"),
    }
    assert _uncalled(trees) == {"a.unused"}


# each per-datum check's closed form or oracle question, by the module that
# defines it: past that module, only verifysuite's list of checks reads it
_CHECKED = {"round_trip_agrees": "translate", "oracle_k0": "oracle",
            "oracle_char_module_min_ord": "oracle",
            "char_module_valuation": "translate"}


def _stray_checks(trees):
    """(module, name) of each mention of a per-datum check outside the
    module that defines it and verifysuite."""
    return sorted((module, name) for module, tree in trees.items()
                  for name in _mentions(tree) & _CHECKED.keys()
                  if module not in (_CHECKED[name], "verifysuite"))


def test_per_datum_checks_are_read_only_by_verifysuite():
    assert not _stray_checks({name: _parse(name) for name in _modules()})


def test_stray_checks_are_detected():
    trees = {
        "cli": ast.parse("from . import translate\n"
                         "ok = translate.round_trip_agrees(bk, yu)\n"),
        "strata": ast.parse("from .oracle import oracle_k0\n"),
        "corpus": ast.parse("char_module_valuation = None\n"),
        "verifysuite": ast.parse(
            "v = oracle.oracle_char_module_min_ord(m, c, 0, 1)\n"),
        "oracle": ast.parse("def oracle_k0(model, beta):\n"
                            "    return oracle_k0(model, -beta)\n"),
    }
    assert _stray_checks(trees) == [("cli", "round_trip_agrees"),
                                    ("corpus", "char_module_valuation"),
                                    ("strata", "oracle_k0")]
