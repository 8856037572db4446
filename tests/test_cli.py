import copy
import json
import os
import random
import subprocess
import sys

import pytest

import tamestrata
from tamestrata import (cli, corpus, errors, oracle, strata, tame, translate,
                        verifysuite)


def run_cli(args):
    code, doc = cli.run(args)
    return code, doc


def _subprocess_env():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(tamestrata.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return env


def test_check_minimal_desk():
    code, doc = run_cli(["check-minimal", "--tower", "desk5",
                         "--element", '[[[-1,2],[0,1]]]',
                         "--upper", "0", "--lower", "2"])
    assert code == 0
    assert doc["kind"] == "report"
    assert doc["payload"]["minimal"] is True
    assert doc["payload"]["depth"] == [1, 2]


def test_ge1_command():
    code, doc = run_cli(["ge1", "--tower", "desk5",
                         "--element", '[[[-1,2],[0,1]]]',
                         "--upper", "0", "--lower", "2"])
    assert code == 0
    assert doc["payload"]["passed"] is True
    assert len(doc["payload"]["pairs"]) == 6


def test_sr_command():
    code, doc = run_cli(["sr", "--tower", "desk5",
                         "--element", '[[[-1,2],[0,1]],[[1,2],[0,1]]]'])
    assert code == 0
    assert doc["payload"]["coeff"] == [0, 1]
    assert doc["payload"]["exponent"] == [-1, 2]


def test_decompose_and_defseq(tmp_path):
    element = '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'
    code, doc = run_cli(["decompose", "--tower", "desk5", "--N", "4",
                         "--element", element])
    assert code == 0
    assert [b[0] for b in doc["payload"]["blocks"]] == [0, 1]
    code, doc = run_cli(["defseq", "--tower", "desk5", "--N", "4",
                         "--element", element])
    assert code == 0
    assert doc["payload"]["case"] == "B"
    assert doc["payload"]["r"] == [0, 1]
    assert doc["payload"]["n"] == 2


def test_bk2yu_yu2bk_round_trip(tmp_path):
    element = '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'
    _, bk_doc = run_cli(["defseq", "--tower", "desk5", "--N", "4",
                         "--element", element])
    bk_path = tmp_path / "bk.json"
    bk_path.write_text(json.dumps(bk_doc))
    code, yu_doc = run_cli(["bk2yu", "--datum", str(bk_path)])
    assert code == 0
    assert yu_doc["payload"]["dims"] == [1, 2, 4]
    assert yu_doc["payload"]["depths"] == [[1, 2], [1, 1], [1, 1]]
    yu_path = tmp_path / "yu.json"
    yu_path.write_text(json.dumps(yu_doc))
    code, bk_doc2 = run_cli(["yu2bk", "--datum", str(yu_path)])
    assert code == 0
    assert bk_doc2 == bk_doc


def _append_dim(payload):
    payload["dims"].append(99)


def _wrong_dim(payload):
    payload["dims"][0] += 1


def _wrong_depth(payload):
    payload["depths"][0] = [1, 3]


def _short_depth(payload):
    payload["depths"][0] = [1]


def _no_steps(payload):
    payload["depths"] = payload["dims"] = payload["characters"] = []


def _rho_slot(payload):
    payload["rho_slot"] = "tampered"


def _extra_field(payload):
    payload["extra"] = 1


def _unreduced_depth(payload):
    payload["depths"][0] = [2 * x for x in payload["depths"][0]]


def _true_for_one(payload):
    assert payload["tower"]["base_modulus"][1] == 1
    payload["tower"]["base_modulus"][1] = True


@pytest.mark.parametrize("tamper, error, exit_code", [
    (_append_dim, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_wrong_dim, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_wrong_depth, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_short_depth, "ValueError", cli.EXIT_INPUT),
    (_no_steps, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_rho_slot, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_extra_field, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_unreduced_depth, "VerificationFailed", cli.EXIT_VERIFICATION),
    (_true_for_one, "ValueError", cli.EXIT_INPUT),
], ids=["dims-length", "dims-value", "depths-value", "depths-one-entry",
        "depths-empty", "rho-slot", "extra-field", "depths-unreduced",
        "true-for-one"])
def test_tampered_yu_document_is_rejected(tmp_path, tamper, error, exit_code):
    # dims and depths must agree with the characters, not only be ordered;
    # every stated field is the one the datum re-emits, so rho_slot is the
    # fixed out-of-scope marker, a depth is a reduced rational and no field
    # is one emit_yu never writes; a coefficient is an int, not true; a
    # malformed rational or an empty depth vector ends in an error
    # document, not a traceback
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
    tamper(yu_doc["payload"])
    path = tmp_path / "yu.json"
    path.write_text(json.dumps(yu_doc))
    for command in ("yu2bk", "tables", "ledger"):
        code, doc = run_cli([command, "--datum", str(path)])
        assert code == exit_code, command
        assert doc["payload"]["error"] == error, command


_BK_TAMPERS = {
    "r": lambda payload: payload.__setitem__("r", [0, 99]),
    "n": lambda payload: payload.__setitem__("n", 77),
    "case": lambda payload: payload.__setitem__(
        "case", {"A": "B", "B": "A"}[payload["case"]]),
    "theta-depth": lambda payload: payload["theta_factors"][0].__setitem__(
        "depth", [7, 3]),
    "notes": lambda payload: payload.__setitem__("notes", {"kappa": "tampered"}),
    "theta-c-prec": lambda payload: payload["theta_factors"][0]["c"].__setitem__(
        "prec", [3, 1]),
    "tower-modulus": lambda payload: payload["tower"].pop("base_modulus"),
    "true-for-one": _true_for_one,
}


@pytest.mark.parametrize("tamper", sorted(_BK_TAMPERS))
@pytest.mark.parametrize("command", ["bk2yu", "tables", "ledger"])
def test_tampered_bk_document_is_rejected(tmp_path, command, tamper):
    # n, r, case and the character factors must be the ones the blocks
    # build; factor i's element is block i's, and an inline tower is stated
    # in full, each value of the JSON type emit_bk writes, and a modulus
    # coefficient of true is bad input before any datum is built
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    bk_doc = cli.emit_bk(bk)
    _BK_TAMPERS[tamper](bk_doc["payload"])
    path = tmp_path / "bk.json"
    path.write_text(json.dumps(bk_doc))
    code, doc = run_cli([command, "--datum", str(path)])
    assert (code, doc["payload"]["error"]) == (
        (cli.EXIT_INPUT, "ValueError") if tamper == "true-for-one"
        else (cli.EXIT_VERIFICATION, "VerificationFailed"))


@pytest.mark.parametrize("tamper", [
    lambda payload: payload.__setitem__("n", 77),
    lambda payload: payload.__setitem__("notes", {"kappa": "tampered"}),
], ids=["n", "notes"])
def test_tampered_type_b_document_is_rejected(tmp_path, tamper):
    # a type (b) datum states its tower, N, kind and notes, and nothing else
    bk = dict(corpus.datum_corpus())["desk5/N=4/type-b"]
    bk_doc = cli.emit_bk(bk)
    path = tmp_path / "bk.json"
    path.write_text(json.dumps(bk_doc))
    assert run_cli(["bk2yu", "--datum", str(path)])[0] == cli.EXIT_OK
    tamper(bk_doc["payload"])
    path.write_text(json.dumps(bk_doc))
    code, doc = run_cli(["bk2yu", "--datum", str(path)])
    assert code == cli.EXIT_VERIFICATION
    assert doc["payload"]["error"] == "VerificationFailed"


def test_a_shallowest_block_of_depth_zero_is_named(tmp_path):
    # blocks that pass every other check of a defining sequence, but whose
    # shallowest block has depth 0 = r_0, build no simple stratum
    bk = dict(corpus.datum_corpus())["desk2b/N=6/levels=0-1-2/base=1"]
    bk_doc = cli.emit_bk(bk)
    for key in ("n", "r", "case", "theta_factors"):
        del bk_doc["payload"][key]
    bk_doc["payload"]["blocks"] = [
        [0, {"level": 0, "terms": [[[0, 1], [0, 1]]], "prec": None}],
        [1, {"level": 1, "terms": [[[-1, 3], [1, 0]]], "prec": None}]]
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert code == cli.EXIT_VERIFICATION
    assert doc["payload"] == {
        "error": "VerificationFailed",
        "message": "the shallowest block has depth 0, not a positive one"}


def _run_on(tmp_path, command, doc):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    return run_cli([command, "--datum", str(path)])


@pytest.mark.parametrize("label", ["desk5/N=4/levels=0-1/base=1",
                                   "desk5/N=4/type-b"])
@pytest.mark.parametrize("kind", ["x", ["a"], None, "A"])
def test_bk_kind_outside_its_vocabulary_is_an_input_error(tmp_path, label, kind):
    bk_doc = cli.emit_bk(dict(corpus.datum_corpus())[label])
    bk_doc["payload"]["kind"] = kind
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "ValueError"


def test_absent_bk_kind_means_type_a(tmp_path):
    bk_doc = cli.emit_bk(dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"])
    want = _run_on(tmp_path, "bk2yu", bk_doc)
    del bk_doc["payload"]["kind"]
    assert _run_on(tmp_path, "bk2yu", bk_doc) == want
    assert want[0] == cli.EXIT_OK


@pytest.mark.parametrize("case", ["x", "a", None, ["A"]])
def test_yu_case_outside_its_vocabulary_is_an_input_error(tmp_path, case):
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
    yu_doc["payload"]["case"] = case
    code, doc = _run_on(tmp_path, "yu2bk", yu_doc)
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "ValueError"


@pytest.mark.parametrize("level, error", [
    (False, "ValueError"), (True, "ValueError"), ("0", "ValueError"),
    (None, "ValueError"), (3, "BadLevel"), (-1, "BadLevel")])
def test_a_level_is_an_int_in_the_chain(tmp_path, level, error):
    # in an element, in a bk block and in a yu character, realised or not:
    # false is not level 0, and a level outside desk5's 0..2 is no level
    element = json.dumps({"level": level, "terms": [[[-1, 2], [0, 1]]],
                          "prec": None})
    code, doc = run_cli(["check-minimal", "--tower", "desk5", "--element",
                         element, "--upper", "0", "--lower", "2"])
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, error)
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    bk_doc = cli.emit_bk(bk)
    bk_doc["payload"]["blocks"][0][0] = level
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, error)
    for i in (0, 2):                    # character 2 is case B's trivial one
        yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
        yu_doc["payload"]["characters"][i][0] = level
        code, doc = _run_on(tmp_path, "yu2bk", yu_doc)
        assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, error), i


@pytest.mark.parametrize("pair", [[True, 2], [1, None], [1.0, 2], ["1", 2],
                                  [1, False]])
def test_rational_of_non_integers_is_an_input_error(tmp_path, pair):
    # in the first depth and in a term exponent: bool, null, float and
    # string entries are not read as numbers
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
    yu_doc["payload"]["depths"][0] = pair
    code, doc = _run_on(tmp_path, "yu2bk", yu_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")
    bk_doc = cli.emit_bk(bk)
    bk_doc["payload"]["blocks"][0][1]["terms"][0][0] = pair
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")


@pytest.mark.parametrize("entry", [True, False, "1", None, [1]])
def test_a_coefficient_is_an_int(tmp_path, entry):
    # in --element, in a bk block, and in a tower file's zeta, stated moduli
    # and twists: true is not 1, and a string, a null or a list is no entry
    code, doc = run_cli(["sr", "--tower", "desk5", "--element",
                         json.dumps([[[-1, 2], [entry, 1]]])])
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")
    bk_doc = cli.emit_bk(dict(corpus.datum_corpus())[
        "desk5/N=4/levels=0-1/base=1"])
    bk_doc["payload"]["blocks"][0][1]["terms"][0][1][0] = entry
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")
    for key in ("zeta", "base_modulus", "residue_modulus", "levels"):
        tower = cli.emit_tower(corpus.desk_tower_5())
        vector = tower["payload"][key]
        if key == "levels":
            vector = vector[1][1][1]            # the twist of (0, -1)
        vector[0] = entry
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(tower))
        code, doc = run_cli(["sr", "--tower", str(path), "--element",
                             "[[[-1,2],[0,1]]]"])
        assert (code, doc["payload"]["error"]) == (
            cli.EXIT_INPUT, "ValueError"), key


@pytest.mark.parametrize("power", [True, "1"])
def test_a_frobenius_power_is_an_int(tmp_path, power):
    # in a tower file's levels: true is not power 1, and "1" is no power
    tower = cli.emit_tower(corpus.desk_tower_5())
    tower["payload"]["levels"][2][2][0] = power
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, doc = run_cli(["sr", "--tower", str(path), "--element",
                         "[[[-1,2],[1,1]]]"])
    assert (code, doc["payload"]) == (cli.EXIT_INPUT, {
        "error": "ValueError",
        "message": f"Frobenius power {power!r} is not an integer"})


def test_a_bare_int_coefficient_is_a_constant(tmp_path):
    _, vector = run_cli(["sr", "--tower", "desk5",
                         "--element", "[[[-1,2],[3,0]]]"])
    _, bare = run_cli(["sr", "--tower", "desk5", "--element", "[[[-1,2],3]]"])
    assert bare == vector and vector["kind"] == "element"
    tower = cli.emit_tower(corpus.desk_tower_5())
    tower["payload"]["zeta"] = 1
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    assert run_cli(["sr", "--tower", str(path),
                    "--element", "[[[-1,2],[3,0]]]"]) == (cli.EXIT_OK, vector)


def test_repeated_exponent_is_an_input_error(tmp_path):
    # a term list states each exponent once: an element, a bk block and a
    # yu character that repeat one are rejected, not merged
    code, doc = run_cli(["defseq", "--tower", "desk5", "--N", "4", "--element",
                         '[[[-1,1],[0,1]],[[-1,2],[1,0]],[[-1,2],[1,0]]]'])
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")
    assert "-1/2" in doc["payload"]["message"]
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    bk_doc = cli.emit_bk(bk)
    terms = bk_doc["payload"]["blocks"][0][1]["terms"]
    terms.append(terms[0])
    code, doc = _run_on(tmp_path, "bk2yu", bk_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")
    yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
    terms = yu_doc["payload"]["characters"][0][1]["terms"]
    terms.append(terms[0])
    code, doc = _run_on(tmp_path, "yu2bk", yu_doc)
    assert (code, doc["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")


def _set_character(i, terms, level=None):
    def tamper(payload):
        char = payload["characters"][i]
        char[1] = {"level": char[0] if level is None else level,
                   "terms": terms, "prec": None}
    return tamper


def _null_character(i):
    def tamper(payload):
        payload["characters"][i][1] = None
    return tamper


def _flip_case(payload):
    payload["case"] = "A" if payload["case"] == "B" else "B"


def _deepen_first(payload):
    payload["depths"][0] = payload["characters"][0][2] = [3, 4]


@pytest.mark.parametrize("label, tamper, error, exit_code", [
    # t^-1 is an F-scalar, not minimal for levels 1/2
    ("desk5/N=4/levels=0-1-2/base=1", _set_character(1, [[[-1, 1], [1, 0]]]),
     "NotMinimalSummand", cli.EXIT_VERIFICATION),
    # the stated depths agree, but ord(c_0) = -1/2
    ("desk5/N=4/levels=0-1-2/base=1", _deepen_first,
     "VerificationFailed", cli.EXIT_VERIFICATION),
    ("desk5/N=4/levels=0-1-2/base=1", _set_character(1, []),
     "ZeroToPrecision", cli.EXIT_INPUT),
    # case B with a realised top character: depths 1/2, 1, 1 build no datum
    ("desk5/N=4/levels=0-1/base=1", _set_character(2, [[[-1, 1], [1, 0]]], 2),
     "ValuationOrder", cli.EXIT_VERIFICATION),
    # the trivial top character builds case B, with depths 1/2, 1, 1
    ("desk5/N=4/levels=0-1-2/base=1", _null_character(2),
     "VerificationFailed", cli.EXIT_VERIFICATION),
    ("desk5/N=4/type-b", _flip_case, "VerificationFailed",
     cli.EXIT_VERIFICATION),
], ids=["not-minimal", "order-vs-depth", "no-terms", "case-b-top",
        "top-trivial", "type-b-case-flip"])
def test_yu_to_bk_rejects_a_character_that_builds_no_datum(
        tmp_path, label, tamper, error, exit_code):
    bk = dict(corpus.datum_corpus())[label]
    yu_doc = cli.emit_yu(translate.bk_to_yu(bk))
    assert _run_on(tmp_path, "yu2bk", yu_doc)[0] == cli.EXIT_OK
    tamper(yu_doc["payload"])
    code, doc = _run_on(tmp_path, "yu2bk", yu_doc)
    assert code == exit_code
    assert doc["payload"]["error"] == error


def test_tables_and_ledger(tmp_path):
    element = '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'
    _, bk_doc = run_cli(["defseq", "--tower", "desk5", "--N", "4",
                         "--element", element])
    bk_path = tmp_path / "bk.json"
    bk_path.write_text(json.dumps(bk_doc))
    code, tab_doc = run_cli(["tables", "--datum", str(bk_path),
                             "--oracle", "check"])
    assert code == 0
    assert tab_doc["payload"]["comparisons"] == {"H1=Kd+": True, "J0=oKd": True}
    code, led_doc = run_cli(["ledger", "--datum", str(bk_path),
                             "--oracle", "on"])
    assert code == 0
    verdicts = led_doc["payload"]["verdicts"]
    assert verdicts["product_identity"] and verdicts["even_exponents"]


def test_tower_file_round_trip(tmp_path):
    doc = cli.emit_tower(corpus.desk_tower_5())
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["check-minimal", "--tower", str(path),
                         "--element", '[[[-1,2],[0,1]]]',
                         "--upper", "0", "--lower", "2"])
    assert code == 0 and out["payload"]["minimal"] is True


def test_input_error_exit_code():
    code, doc = run_cli(["check-minimal", "--tower", "desk5",
                         "--element", '[[[-1,2],[0,0]]]',     # zero element
                         "--upper", "0", "--lower", "2"])
    assert code == 3
    assert doc["kind"] == "error"
    assert doc["payload"]["error"] == "ZeroToPrecision"


def test_verification_error_exit_code():
    # s^{-3} + t^{-1} is not decomposable along the desk chain
    code, doc = run_cli(["decompose", "--tower", "desk5", "--N", "4",
                         "--element", '[[[-3,2],[1,0]],[[-1,1],[1,0]]]'])
    assert code == 2
    assert doc["payload"]["error"] == "NotDecomposable"


def test_unknown_schema_version_rejected(tmp_path):
    doc = cli.emit_tower(corpus.desk_tower_5())
    doc["schema_version"] = "99"
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["sr", "--tower", str(path),
                         "--element", '[[[-1,2],[0,1]]]'])
    assert code == 3 and out["kind"] == "error"


def test_determinism_byte_identical():
    args = ["check-minimal", "--tower", "desk5",
            "--element", '[[[-1,2],[0,1]]]', "--upper", "0", "--lower", "2"]
    out1 = json.dumps(run_cli(args)[1], sort_keys=True, separators=(",", ":"))
    out2 = json.dumps(run_cli(args)[1], sort_keys=True, separators=(",", ":"))
    assert out1 == out2


def _wire(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_serialization_round_trip_fixtures():
    # every corpus document parses to its datum and re-emits byte-identically
    data = corpus.datum_corpus()
    for label, bk in data:
        yu = translate.bk_to_yu(bk)
        for datum, parse, emit in ((bk, cli.parse_bk, cli.emit_bk),
                                   (yu, cli.parse_yu, cli.emit_yu)):
            text = _wire(emit(datum))
            back = parse(json.loads(text))
            assert translate.skeletons_agree(datum, back), label
            assert _wire(emit(back)) == text, label
    assert len(data) == 70


def test_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "tamestrata.cli", "sr", "--tower", "desk5",
         "--element", '[[[-1,2],[0,1]]]'],
        capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["payload"]["exponent"] == [-1, 2]


def test_verify_single_suite():
    code, doc = run_cli(["verify", "--suite", "monomial-group",
                         "--oracle", "off"])
    assert code == 0
    assert doc["payload"]["suites"][0]["passed"] is True


def test_verify_oracle_off_skips_oracle_suites(monkeypatch):
    # the oracle-only suite is skipped, the two with oracle cross-checks
    # run their closed forms alone; no matrix model is built
    def no_model(order):
        raise AssertionError("a matrix model was built with the oracle off")

    monkeypatch.setattr(oracle, "model_build", no_model)
    code, doc = run_cli(["verify", "--suite",
                         "critical-exponent,filtration-equalities,character-depth",
                         "--oracle", "off"])
    assert code == 0
    suites = doc["payload"]["suites"]
    assert [s["name"] for s in suites] == [
        "critical-exponent", "filtration-equalities", "character-depth"]
    assert all(s["passed"] for s in suites)
    assert "skipped" in suites[0]["detail"]
    assert "(0 with oracle)" in suites[1]["detail"]


def test_verify_user_corpus(tmp_path):
    data = [bk for _, bk in corpus.datum_corpus()[:2]]
    docs = [cli.emit_bk(bk) for bk in data]
    docs.append(cli.emit_yu(translate.bk_to_yu(data[0])))
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(docs))
    code, doc = run_cli(["verify", "--corpus", str(path), "--oracle", "check"])
    assert code == 0
    suites = doc["payload"]["suites"]
    assert [s["name"] for s in suites] == [f"corpus[{i}]" for i in range(3)]
    assert all(s["passed"] for s in suites)
    assert suites[2]["detail"] == suites[0]["detail"]


def test_verify_corpus_builds_one_model_per_order(tmp_path, monkeypatch):
    # each document parses its own tower; one order still gets one model
    data = [bk for _, bk in corpus.datum_corpus()]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([cli.emit_bk(bk) for bk in data]))
    built = []
    build = oracle.model_build
    monkeypatch.setattr(oracle, "model_build",
                        lambda order: built.append(order) or build(order))
    code, doc = run_cli(["verify", "--corpus", str(path), "--oracle", "check"])
    assert code == 0 and len(doc["payload"]["suites"]) == len(data) == 70
    orders = {bk.order.key() for bk in data
              if bk.kind == "a" and bk.order.N <= oracle.MAX_N}
    assert len(built) == len(orders) == 6
    assert {order.key() for order in built} == orders


def test_truncated_block_round_trips(tmp_path):
    # a round trip hands back the very series it was given, precision too;
    # theta factor 0 carries block 0's element, so it is truncated with it
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    doc = cli.emit_bk(bk)
    doc["payload"]["blocks"][0][1]["prec"] = [3, 1]
    doc["payload"]["theta_factors"][0]["c"]["prec"] = [3, 1]
    datum, docs = tmp_path / "bk.json", tmp_path / "corpus.json"
    datum.write_text(json.dumps(doc))
    docs.write_text(json.dumps([doc]))
    for command in ("bk2yu", "tables"):
        assert run_cli([command, "--datum", str(datum)])[0] == cli.EXIT_OK
    # the oracle's k0 and character valuations raise PrecisionExhausted on
    # block 0, which lies below the model window: that fails the datum,
    # whose detail names the two failed checks, and the run goes on
    for mode, passed, detail in (
            ("off", True, "round trip, tables, character depth"),
            ("check", False, "k0, character depth")):
        code, out = run_cli(["verify", "--corpus", str(docs), "--oracle", mode])
        assert code == (cli.EXIT_OK if passed else cli.EXIT_VERIFICATION), out
        assert out["payload"]["suites"] == [
            {"name": "corpus[0]", "passed": passed, "detail": detail}]
    truncated, _ = cli._load_datum(doc)
    entry, model = truncated.seq.entries[0], oracle.model_build(truncated.order)
    with pytest.raises(errors.PrecisionExhausted):
        oracle.oracle_k0(model, entry.beta)
    with pytest.raises(errors.PrecisionExhausted):
        oracle.oracle_char_module_min_ord(
            model, entry.c, entry.level, -strata.nu_A(truncated.order, entry.c))


@pytest.mark.parametrize("index, value, message", [
    (1, 5, "levels[1] 5 is not a list of [power, twist] pairs"),
    (1, [5], "levels[1] entry 5 is not a [power, twist] pair"),
    (1, [[1]], "levels[1] entry [1] is not a [power, twist] pair"),
    (1, [[0, [1], 7]],
     "levels[1] entry [0, [1], 7] is not a [power, twist] pair"),
    (None, 5, "levels 5 is not a list"),
    (None, "ab", "levels 'ab' is not a list"),
])
def test_a_level_is_a_list_of_pairs(tmp_path, index, value, message):
    # a tower file's levels list each level's automorphisms as
    # [power, twist] pairs
    tower = cli.emit_tower(corpus.desk_tower_5())
    if index is None:
        tower["payload"]["levels"] = value
    else:
        tower["payload"]["levels"][index] = value
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, doc = run_cli(["sr", "--tower", str(path), "--element",
                         "[[[-1,2],[1,1]]]"])
    assert (code, doc["payload"]) == (cli.EXIT_INPUT, {
        "error": "ValueError", "message": message})


def test_tower_file_default_moduli(tmp_path):
    doc = cli.emit_tower(corpus.desk_tower_3())
    del doc["payload"]["base_modulus"]
    del doc["payload"]["residue_modulus"]
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["ge1", "--tower", str(path),
                         "--element", '[[[-1,2],[1,0]]]',
                         "--upper", "0", "--lower", "1"])
    assert code == 0 and out["payload"]["passed"] is True


def test_shared_parser_keeps_no_state_between_runs():
    # in-process runs share one parser; each must give the document of the
    # same call in a fresh interpreter, so no option leaks into the next run
    element = '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'
    calls = [
        ["sr", "--tower", "desk5", "--prec", "1/3",
         "--element", '[[[-1,2],[0,1]]]'],                # usage error, exit 3
        ["sr", "--tower", "desk5", "--element", '[[[-1,2],[0,1]]]'],
        ["check-minimal", "--tower", "desk5", "--element", '[[[-1,2],[0,1]]]',
         "--upper", "0", "--lower", "2"],
        ["defseq", "--tower", "desk5", "--N", "4", "--element", element],
        ["--human", "ge1", "--tower", "desk3", "--element", '[[[-1,2],[1,0]]]',
         "--upper", "0", "--lower", "1"],
        ["check-minimal", "--tower", "desk5",
         "--element", '[[[-1,2],[0,1]]]', "--upper", "0", "--lower", "2"],
    ]
    codes = []
    for args in calls:
        code, doc = cli.run(args)
        out = subprocess.run([sys.executable, "-m", "tamestrata.cli", *args],
                             capture_output=True, text=True,
                             env=_subprocess_env())
        if "--human" not in args:
            assert out.stdout.strip() == json.dumps(
                doc, sort_keys=True, separators=(",", ":")), args
        assert out.returncode == code, args
        codes.append(code)
    assert codes == [3, 0, 0, 0, 0, 0]


def test_human_check_minimal_shows_series(capsys):
    code = cli.main(["--human", "check-minimal", "--tower", "desk5",
                     "--element", '[[[-1,2],[0,1]],[[1,2],[1,0]]]',
                     "--upper", "0", "--lower", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "kind: report"
    assert "element: (1w^1)*s^-1/2 + (1)*s^1/2 @E0" in out
    assert "minimal: True" in out
    assert not any("terms" in line for line in out)


def test_human_defseq_shows_blocks(capsys):
    # each theta factor starts its own entry, each [level, series] block and
    # each domain pair sits on one line, and a depth [n, d] prints as n/d
    code = cli.main(["--human", "defseq", "--tower", "desk5", "--N", "4",
                     "--element", '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("kind: bk_datum\ntower: p=5 e=2 f=2\n")
    assert "blocks:\n  - [0, (1)*s^-1/2 @E0]\n  - [1, (1w^1)*s^-1 @E1]\n" in out
    assert out.endswith("""theta_factors:
  - level: 0
    c: (1)*s^-1/2 @E0
    depth: 1/2
    det_domain:
      - [0, 1]
    psi_domain:
      - [1, 1]
      - [2, 2]
  - level: 1
    c: (1w^1)*s^-1 @E1
    depth: 1
    det_domain:
      - [0, 1]
      - [1, 1]
    psi_domain:
      - [2, 2]
""")
    assert "terms" not in out


def test_human_element_document_shows_terms(capsys):
    code = cli.main(["--human", "sr", "--tower", "desk5",
                     "--element", '{"level": 0, "terms": [[[-1,2],[0,1]]], '
                                  '"prec": [3,1]}'])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "terms: (1w^1)*s^-1/2" in out


def _library_error_classes():
    """Every TameStrataError subclass defined in errors.py, by walking the
    __subclasses__() tree."""
    found, todo = [], [errors.TameStrataError]
    while todo:
        cls = todo.pop()
        if cls.__module__ == errors.__name__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _library_error_classes(),
                         ids=lambda cls: cls.__name__)
def test_exit_rule_for_every_library_error(monkeypatch, cls):
    # the rule: a VerificationError exits 2, every other library error 3,
    # both with the same error document
    def fail(args):
        raise cls("planted")
    monkeypatch.setattr(cli, "_load_tower", fail)
    code, doc = run_cli(["sr", "--tower", "desk5", "--element", "[]"])
    want = (cli.EXIT_VERIFICATION if issubclass(cls, errors.VerificationError)
            else cli.EXIT_INPUT)
    assert code == want
    assert doc == cli.document("error", {"error": cls.__name__,
                                         "message": "planted"})


def test_exit_rule_covers_both_families():
    classes = _library_error_classes()
    verification = [c for c in classes if issubclass(c, errors.VerificationError)]
    assert errors.VerificationFailed in verification
    assert errors.PrecisionExhausted in classes
    assert len(verification) < len(classes)


@pytest.mark.parametrize("exc", [OSError, KeyError, ValueError, TypeError,
                                 json.JSONDecodeError("bad", "x", 0)])
def test_exit_rule_for_bad_input_builtins(monkeypatch, exc):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "_load_tower", fail)
    code, doc = run_cli(["sr", "--tower", "desk5", "--element", "[]"])
    assert code == cli.EXIT_INPUT and doc["kind"] == "error"


def test_other_exceptions_are_not_input_errors(monkeypatch):
    def fail(args):
        raise RuntimeError("not an input problem")
    monkeypatch.setattr(cli, "_load_tower", fail)
    with pytest.raises(RuntimeError):
        run_cli(["sr", "--tower", "desk5", "--element", "[]"])


@pytest.mark.parametrize("element", [
    '[[[1,0],[1,0]]]',                                      # term exponent
    '{"level": 0, "terms": [[[-1,2],[1,0]]], "prec": [1,0]}',  # precision
])
def test_zero_denominator_is_an_input_error(element):
    code, doc = run_cli(["check-minimal", "--tower", "desk5",
                         "--element", element, "--upper", "0", "--lower", "2"])
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "ValueError"
    assert "[1, 0]" in doc["payload"]["message"]


def test_tower_help_lists_every_builtin(capsys):
    with pytest.raises(SystemExit):
        cli.run(["sr", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "/".join(corpus.BUILTIN_TOWERS) in help_text


def test_every_builtin_tower_loads_by_name():
    for name in corpus.BUILTIN_TOWERS:
        code, doc = run_cli(["sr", "--tower", name,
                             "--element", '[[[-1,1],[1,0]]]'])
        assert code == 0, (name, doc)
    code, doc = run_cli(["check-minimal", "--tower", "desk2b",
                         "--element", '[[[-1,3],[1,0]]]',
                         "--upper", "0", "--lower", "1"])
    assert code == 0 and doc["payload"]["consistent"] is True


def test_unknown_tower_name_is_an_input_error():
    # a bare name with no such file is a mistyped built-in name: the error
    # lists the valid names; a missing path stays a missing file
    code, doc = run_cli(["sr", "--tower", "desk7", "--element", "[]"])
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "KeyError"
    for name in corpus.BUILTIN_TOWERS:
        assert repr(name) in doc["payload"]["message"]
    code, doc = run_cli(["sr", "--tower", "./desk7", "--element", "[]"])
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "FileNotFoundError"


def test_key_error_message_has_no_repr_quotes():
    # str() of a KeyError quotes its message; the document carries it plain
    code, doc = run_cli(["sr", "--tower", "desk7", "--element", "[]"])
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["message"].startswith("unknown tower 'desk7'; ")


def test_unknown_suite_names_the_suites():
    code, doc = run_cli(["verify", "--suite", "round-trips,nosuch"])
    assert code == cli.EXIT_INPUT
    assert doc["payload"]["error"] == "KeyError"
    message = doc["payload"]["message"]
    assert message.startswith("unknown suite 'nosuch'; ")
    for name in verifysuite.ALL_SUITES:
        assert repr(name) in message


def test_ledger_on_deep_datum_uses_the_oracle(tmp_path):
    # N = 16 lies within the oracle bound, so every index has a model
    bk = next(bk for _, bk in corpus.datum_corpus()
              if bk.kind == "a" and bk.order.tower is corpus.deep_tower_5()
              and bk.seq.s > 0)
    assert bk.order.N == 16
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cli.emit_bk(bk)))
    code, doc = run_cli(["ledger", "--datum", str(path), "--oracle", "on"])
    assert code == cli.EXIT_OK, doc
    indices = doc["payload"]["indices"]
    assert indices and {e["provenance"] for e in indices} == {"oracle"}
    assert doc["payload"]["verdicts"]["singles_match_oracle"] is True


def test_ledger_on_type_b_datum_builds_no_model(tmp_path, monkeypatch):
    order = strata.make_order(corpus.desk_tower_5(), 4)
    path = tmp_path / "bk_b.json"
    bk = translate.BKDatumSkeleton(order)
    path.write_text(json.dumps(cli.emit_bk(bk)))
    _, off = run_cli(["ledger", "--datum", str(path), "--oracle", "off"])
    built = []
    monkeypatch.setattr(oracle, "model_build",
                        lambda *args: built.append(args))
    for mode in ("on", "check"):
        code, doc = run_cli(["ledger", "--datum", str(path), "--oracle", mode])
        assert code == 0 and doc == off
    assert built == []


def _defseq_datum(tmp_path):
    _, doc = run_cli(["defseq", "--tower", "desk5", "--N", "4",
                      "--element", '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'])
    path = tmp_path / "bk.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


@pytest.mark.parametrize("N", ["0", "-4"])
def test_defseq_rejects_a_level_below_one(N):
    code, doc = run_cli(["defseq", "--tower", "desk5", "--N", N,
                         "--element", '[[[-1,1],[0,1]],[[-1,2],[1,0]]]'])
    assert code == cli.EXIT_INPUT
    assert doc["kind"] == "error" and doc["payload"]["error"] == "BadLevel"
    assert f"N={N}" in doc["payload"]["message"]


def test_ledger_rejects_a_datum_with_N_0(tmp_path):
    path, doc = _defseq_datum(tmp_path)
    doc["payload"]["N"] = 0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out = run_cli(["ledger", "--datum", path])
    assert code == cli.EXIT_INPUT
    assert out["kind"] == "error" and out["payload"]["error"] == "BadLevel"


def test_human_yu_depths_are_rationals(tmp_path, capsys):
    path, _ = _defseq_datum(tmp_path)
    assert cli.main(["--human", "bk2yu", "--datum", path]) == 0
    out = capsys.readouterr().out.splitlines()
    at = out.index("depths:")
    assert out[at + 1:at + 4] == ["  - 1/2", "  - 1", "  - 1"]
    assert "  - [0, (1)*s^-1/2 @E0, 1/2]" in out
    assert "  - [2, None, 1]" in out


def test_tables_oracle_on_and_check_are_one_setting(tmp_path, monkeypatch):
    # "off" skips the oracle; "on" and "check" both build the model
    path, _ = _defseq_datum(tmp_path)
    built = []
    build = oracle.model_build
    monkeypatch.setattr(oracle, "model_build",
                        lambda order: built.append(order) or build(order))
    docs, builds = {}, {}
    for mode in ("off", "on", "check"):
        code, docs[mode] = run_cli(["tables", "--datum", path, "--oracle", mode])
        assert code == 0
        builds[mode] = len(built)
    assert builds == {"off": 0, "on": 1, "check": 2}
    assert docs["off"] == docs["on"] == docs["check"]


def _corpus_of(tmp_path, doc):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([doc]))
    return str(path)


def test_a_broken_table_normalization_fails_tables_and_corpus(
        tmp_path, monkeypatch, capsys):
    # the Yu-side tables lose their last factor, as in the
    # filtration-equalities suite's test; both commands read one comparison
    path, doc = _defseq_datum(tmp_path)
    normalize = translate.normalize_table
    monkeypatch.setattr(translate, "normalize_table", lambda t: (
        normalize(t)[:-1] if t.name in ("Kd+", "oKd") else normalize(t)))
    code, out = run_cli(["tables", "--datum", path, "--oracle", "off"])
    assert code == cli.EXIT_VERIFICATION
    assert out["payload"]["comparisons"] == {"H1=Kd+": False,
                                             "J0=oKd": False}
    code, out = run_cli(["verify", "--corpus", _corpus_of(tmp_path, doc),
                         "--oracle", "off"])
    assert code == cli.EXIT_VERIFICATION
    assert out["payload"]["suites"] == [
        {"name": "corpus[0]", "passed": False, "detail": "tables"}]
    assert capsys.readouterr().err == "FAIL corpus[0]: tables\n"


def test_a_broken_round_trip_fails_its_suite_and_the_run_goes_on(
        monkeypatch, capsys):
    # yu_to_bk builds from all but the last realised character, and most
    # such builds raise: each is a failed round trip, not the run's end
    make = translate.make_bk_datum
    monkeypatch.setattr(translate, "make_bk_datum",
                        lambda order, c_list: make(order, c_list[:-1]))
    code, out = run_cli(["verify", "--suite", "round-trips,monomial-group",
                         "--oracle", "off"])
    assert code == cli.EXIT_VERIFICATION
    assert [(s["name"], s["passed"]) for s in out["payload"]["suites"]] == [
        ("round-trips", False), ("monomial-group", True)]
    assert capsys.readouterr().err.startswith("FAIL round-trips: 70 data")


def test_a_shifted_single_index_fails_ledger_and_corpus(
        tmp_path, monkeypatch, capsys):
    path, doc = _defseq_datum(tmp_path)
    single = translate.single_index_log
    monkeypatch.setattr(translate, "single_index_log",
                        lambda *args: single(*args) + 1)
    code, out = run_cli(["ledger", "--datum", path])
    assert code == cli.EXIT_VERIFICATION
    assert out["payload"]["verdicts"]["singles_match_oracle"] is False
    # an entry under provenance "oracle" holds the oracle's index
    assert out["payload"]["indices"][0] == {
        "name": "[U^1(B_1):U^2(B_1)]", "log_p": 4, "provenance": "oracle"}
    code, out = run_cli(["verify", "--corpus", _corpus_of(tmp_path, doc),
                         "--oracle", "check"])
    assert code == cli.EXIT_VERIFICATION
    assert out["payload"]["suites"] == [
        {"name": "corpus[0]", "passed": False, "detail": "ledger"}]
    assert capsys.readouterr().err == "FAIL corpus[0]: ledger\n"


@pytest.mark.parametrize("module, name, mode, failed", [
    (strata, "k0_closed", "check", "k0"),
    (translate, "char_module_valuation", "off", "character depth"),
], ids=["k0", "character-depth"])
def test_a_shifted_closed_form_fails_verify_corpus(tmp_path, monkeypatch,
                                                   module, name, mode, failed):
    # verify --corpus runs the suites' per-datum checks, k0 and character
    # depth included, on each document it is given, and names the one that
    # fails
    doc = cli.emit_bk(dict(corpus.datum_corpus())[
        "desk5/N=4/levels=0-1-2/base=1"])
    closed = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: (
        None if (v := closed(*args)) is None else v + 1))
    code, out = run_cli(["verify", "--corpus", _corpus_of(tmp_path, doc),
                         "--oracle", mode])
    assert code == cli.EXIT_VERIFICATION
    assert out["payload"]["suites"] == [
        {"name": "corpus[0]", "passed": False, "detail": failed}]


@pytest.mark.parametrize("args", [
    ["sr", "--tower", "desk5"],
    ["tables", "--datum", "bk.json", "--oracle", "maybe"],
    ["sr", "--tower", "desk5", "--prec", "1", "--element", "[]"],
    ["decompose", "--tower", "desk5", "--N", "four", "--element", "[]"],
    [],
], ids=["missing-element", "invalid-oracle", "leftover-prec", "bad-int",
        "no-subcommand"])
def test_usage_error_exits_3_with_error_document(args):
    # exit 2 means a verification failure, so a usage error must not use it
    code, doc = run_cli(args)
    assert code == cli.EXIT_INPUT
    assert doc["kind"] == "error" and doc["payload"]["error"] == "UsageError"
    out = subprocess.run([sys.executable, "-m", "tamestrata.cli", *args],
                         capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == cli.EXIT_INPUT
    assert json.loads(out.stdout) == doc
    assert out.stderr.startswith("usage: tamestrata")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "--help"])
    assert exc.value.code == 0
    assert "on and check cross-check" in " ".join(capsys.readouterr().out.split())
    out = subprocess.run([sys.executable, "-m", "tamestrata.cli", "--help"],
                         capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == 0 and out.stdout.startswith("usage: tamestrata")


@pytest.mark.parametrize("command, content", [
    ("verify --corpus", [1]),
    ("verify --corpus", {}),
    ("verify --corpus", "bk_datum"),
    ("verify --corpus", [[1]]),
    ("tables --datum", [{}]),
    ("ledger --datum", 1),
    ("bk2yu --datum", []),
    ("yu2bk --datum", "yu_datum"),
], ids=str)
def test_non_object_documents_are_input_errors(tmp_path, command, content):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(content))
    code, doc = run_cli([*command.split(), str(path)])
    assert code == cli.EXIT_INPUT
    assert doc["kind"] == "error" and doc["payload"]["error"] == "ValueError"


def test_a_float_in_a_document_is_an_input_error(tmp_path):
    # the wire format holds no floats: an e of 2.0 next to the same tower
    # with e = 2 is rejected when read, in a fresh interpreter too
    _, doc = _defseq_datum(tmp_path)
    floated = copy.deepcopy(doc)
    floated["payload"]["tower"]["e"] = 2.0
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([doc, floated]))
    out = subprocess.run([sys.executable, "-m", "tamestrata.cli", "verify",
                          "--corpus", str(path), "--oracle", "off"],
                         capture_output=True, text=True, env=_subprocess_env())
    assert out.returncode == cli.EXIT_INPUT, out.stderr
    err = json.loads(out.stdout)
    assert err["kind"] == "error" and err["payload"]["error"] == "ValueError"
    code, err = run_cli(["sr", "--tower", "desk5", "--element", "[[[-1,2],[0,1.0]]]"])
    assert (code, err["payload"]["error"]) == (cli.EXIT_INPUT, "ValueError")


def test_tower_and_order_sizes_are_integers():
    # after the tower with e = 2, so a cache keyed on e == 2.0 would hit
    tame.make_tower(5, 2, 2)
    for e in (2.0, True):
        with pytest.raises(errors.BadChain):
            tame.make_tower(5, e, 2)
    with pytest.raises(errors.BadLevel):
        strata.make_order(corpus.desk_tower_5(), 4.0)


_MUTATED_DATA = ["desk5/N=4/levels=0-1/base=1", "desk5/N=4/levels=0-1-2/base=1",
                 "desk3/N=4/levels=1-2/base=2", "desk2/N=6/levels=0-1/base=1",
                 "desk5/N=4/type-b"]
_MUTANT_VALUES = [0, 1, -1, 2, 7, None, True, False, 2.0, "x", "A", "b", [],
                  {}, [1, 2], [2, 4], [6, 0], [1], {"k": 1}]


def _fields(obj):
    """(holder, key) for every value inside a JSON document."""
    keys = obj.keys() if isinstance(obj, dict) else (
        range(len(obj)) if isinstance(obj, list) else ())
    for key in list(keys):
        yield obj, key
        yield from _fields(obj[key])


def _mutant(doc, rng):
    """doc with one field set to a listed value, deleted, or added."""
    doc = copy.deepcopy(doc)
    fields = list(_fields(doc))
    value = rng.choice(_MUTANT_VALUES)
    op = rng.choice(("set", "delete", "add"))
    if op == "add":
        rng.choice([doc] + [h[k] for h, k in fields
                            if isinstance(h[k], dict)])["extra"] = value
        return doc
    holder, key = rng.choice(fields)
    if op == "set":
        holder[key] = value
    else:
        del holder[key]
    return doc


def test_one_field_mutations_are_rejected_or_re_emitted(tmp_path):
    # an accepted document states only fields its datum re-emits, with the
    # same JSON values; anything else is an error document with exit 2 or 3
    data = dict(corpus.datum_corpus())
    originals = []
    for label in _MUTATED_DATA:
        bk = data[label]
        originals += [("bk2yu", cli.parse_bk, cli.emit_bk, cli.emit_bk(bk)),
                      ("yu2bk", cli.parse_yu, cli.emit_yu,
                       cli.emit_yu(translate.bk_to_yu(bk)))]
    rng = random.Random(0)
    path = tmp_path / "datum.json"
    for n in range(300):
        command, parse, emit, doc = rng.choice(originals)
        doc = _mutant(doc, rng)
        path.write_text(json.dumps(doc))
        code, out = cli.run([command, "--datum", str(path)])
        if code != cli.EXIT_OK:
            assert code in (cli.EXIT_VERIFICATION, cli.EXIT_INPUT), (n, doc)
            assert out["kind"] == "error", (n, doc)
            continue
        again = emit(parse(doc))["payload"]
        assert all(key in again and json.dumps(again[key], sort_keys=True)
                   == json.dumps(value, sort_keys=True)
                   for key, value in doc["payload"].items()), (n, doc)
        if command == "yu2bk":
            # and a yu document yu2bk accepts is bk2yu of what it prints
            back = cli.emit_yu(translate.bk_to_yu(cli.parse_bk(out)))
            assert back["payload"] == again, (n, doc)
