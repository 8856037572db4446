"""A CLI launch loads only what its command runs: the oracle and the verify
suites load on demand, and no record needs dataclasses.  What a launch
loads is checked in a fresh interpreter, because this process has loaded
everything."""

import json
import os
import subprocess
import sys

import pytest

import tamestrata
from tamestrata import cli, oracle

HEAVY = ("tamestrata.oracle", "tamestrata.verifysuite", "dataclasses")

# defseq, bk2yu and yu2bk on its output, tables --oracle off on the bk
# datum, ledger --oracle off on a one-level type (a) datum and the default
# ledger on a type (b) one; then tables --oracle check on the yu datum
SCRIPT = """
import json, os, sys
from tamestrata import cli
tmp = sys.argv[1]

def save(name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path

code, bk = cli.run(["defseq", "--tower", "desk5", "--N", "4", "--element",
                    "[[[-1,1],[0,1]],[[-1,2],[1,0]]]"])
bk_path = save("bk.json", bk)
codes = [code]
code, yu = cli.run(["bk2yu", "--datum", bk_path])
codes.append(code)
yu_path = save("yu.json", yu)
codes.append(cli.run(["yu2bk", "--datum", yu_path])[0])
codes.append(cli.run(["tables", "--datum", bk_path, "--oracle", "off"])[0])
code, one_level = cli.run(["defseq", "--tower", "desk5", "--N", "4",
                           "--element", "[[[-1,1],[1,0]]]"])
codes.append(code)
one_level_path = save("one_level.json", one_level)
codes.append(cli.run(["ledger", "--datum", one_level_path,
                      "--oracle", "off"])[0])
type_b = dict(bk, payload={"tower": bk["payload"]["tower"], "N": 4,
                           "kind": "b"})
codes.append(cli.run(["ledger", "--datum", save("b.json", type_b)])[0])
before = sorted(m for m in {heavy} if m in sys.modules)
codes.append(cli.run(["tables", "--datum", yu_path, "--oracle", "check"])[0])
after = sorted(m for m in {heavy} if m in sys.modules)
print(json.dumps([codes, before, after]))
""".replace("{heavy}", repr(HEAVY))


def _fresh(code, *args):
    src = os.path.dirname(os.path.dirname(tamestrata.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_oracle_free_commands_load_neither_oracle_nor_dataclasses(tmp_path):
    codes, before, after = json.loads(_fresh(SCRIPT, str(tmp_path)))
    assert codes == [0] * 8
    assert before == []
    assert "tamestrata.oracle" in after


def test_package_loads_submodules_on_first_use():
    code = ("import sys, tamestrata\n"
            "print('tamestrata.oracle' in sys.modules, tamestrata.oracle.MAX_N)\n"
            "try:\n"
            "    tamestrata.no_such_module\n"
            "except AttributeError:\n"
            "    print('AttributeError')\n")
    assert _fresh(code).split() == ["False", "16", "AttributeError"]


@pytest.mark.parametrize("command", ["tables", "ledger", "verify"])
def test_oracle_help_states_the_oracle_bound(command, capsys):
    with pytest.raises(SystemExit):
        cli.run([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"wherever N <= {oracle.MAX_N}" in help_text
