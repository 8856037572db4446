"""Command-line surface and the JSON document wire format.

Documents are {"schema_version": ..., "kind": ..., "payload": ...} with a
deterministic field order.  Exact values only: rationals are [numerator,
denominator] pairs, residue-field elements are coefficient vectors over
F_p; a JSON float is rejected when read.  A datum document is the one its
datum re-emits (_as_emitted).  Pretty unicode rendering is opt-in via
--human and never part of the wire format.

Exit codes: 0 success (and --help); 2 when a VerificationError is raised
(a constructed object fails a check it must satisfy, a datum document is
not the one its datum re-emits, a Yu datum is not the translation of the
datum it builds, or a suite fails); 3 for a usage error (a missing or
unknown option, an invalid choice), any other TameStrataError, and
OSError, KeyError, ValueError or TypeError (bad input, a float included).
Both failure codes come with an error document naming the exception class
and its message.

run turns --oracle into the invocation's map from order to model (None
when off), and every command takes its models from strata.oracle_model.
A launch loads the oracle only once a model is built (tables --oracle
on/check, ledger with a model, verify) and the suites only in verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import corpus, minimal, strata, tame, translate
from .errors import (TameStrataError, UsageError, VerificationError,
                     VerificationFailed)
from .ffq import FqField

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _frac(x) -> list:
    """[numerator, denominator] of an int or a Fraction."""
    return [x.numerator, x.denominator]


def _unfrac(pair) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"rational {pair!r} is not a [num, den] pair")
    if any(type(x) is not int for x in pair):      # bool is not an int here
        raise ValueError(f"rational {pair!r} has an entry that is not an "
                         "integer")
    if pair[1] == 0:
        raise ValueError(f"rational {list(pair)} has a zero denominator")
    return Fraction(pair[0], pair[1])


def _coeffs(value, optional=False):
    """value, a coefficient vector or a bare int (a constant), all ints
    (true is not 1); an optional vector may be null, left to its default."""
    entries = (value if type(value) is list
               else [] if optional and value is None else [value])
    if any(type(c) is not int for c in entries):
        raise ValueError(f"coefficients {value!r} are not all integers")
    return value


def document(kind: str, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def emit_tower(tower: tame.Tower) -> dict:
    return document("tower", {
        "p": tower.base.p,
        "base_degree": tower.base.f,
        "base_modulus": list(tower.base.modulus),
        "e": tower.e,
        "f": tower.f,
        "residue_modulus": list(tower.k.modulus),
        "zeta": list(tower.zeta.coeffs),
        "levels": [sorted([[g.frob_power, list(g.twist.coeffs)] for g in H])
                   for H in tower.chain],
    })


def parse_tower(doc) -> tame.Tower:
    payload = _payload(doc, "tower")
    # omitted moduli fall back to the deterministic defaults
    base = FqField(payload["p"], payload["base_degree"],
                   _coeffs(payload.get("base_modulus"), optional=True))
    residue = FqField(payload["p"], payload["base_degree"] * payload["f"],
                      _coeffs(payload.get("residue_modulus"), optional=True))
    zeta = residue.elem(_coeffs(payload["zeta"]))
    if type(payload["levels"]) is not list:
        raise ValueError(f"levels {payload['levels']!r} is not a list")
    levels = tuple(
        frozenset(tame.GaloisElement(_int(j, "Frobenius power"),
                                     residue.elem(_coeffs(coeffs)))
                  for j, coeffs in _pairs(H, f"levels[{n}]"))
        for n, H in enumerate(payload["levels"]))
    return tame.Tower(tame.TowerSpec(base, payload["e"], payload["f"],
                                     residue, zeta, levels))


def emit_series(a: tame.TameSeries) -> dict:
    return {
        "level": a.level,
        "terms": [[_frac(Fraction(k, a.tower.e)), list(c.coeffs)]
                  for k, c in a.terms],
        "prec": None if a.prec_k is None else _frac(a.prec()),
    }


def parse_series(tower: tame.Tower, payload) -> tame.TameSeries:
    """A series from its terms, each exponent stated once."""
    terms = [(_unfrac(exp), tower.k.elem(_coeffs(coeffs)))
             for exp, coeffs in payload["terms"]]
    seen = set()
    for exp, _ in terms:
        if exp in seen:
            raise ValueError(f"term list repeats the exponent {exp}")
        seen.add(exp)
    prec = None if payload.get("prec") is None else _unfrac(payload["prec"])
    return tower.series(_level(tower, payload.get("level", 0)), terms, prec)


def _int(value, name: str) -> int:
    """A stated int (false is not 0); name names it in the error."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _pairs(value, name: str) -> list:
    """A stated list of [power, twist] pairs; name names it in the error."""
    if type(value) is not list:
        raise ValueError(f"{name} {value!r} is not a list of "
                         "[power, twist] pairs")
    for entry in value:
        if type(entry) is not list or len(entry) != 2:
            raise ValueError(f"{name} entry {entry!r} is not a "
                             "[power, twist] pair")
    return value


def _level(tower: tame.Tower, level) -> int:
    """A stated chain level: an int in the tower's chain."""
    return tower.check_level(_int(level, "level"))


def emit_c_list(order, c_list) -> dict:
    return document("c_list", {
        "tower": emit_tower(order.tower)["payload"],
        "N": order.N,
        "blocks": [[lvl, emit_series(c)] for lvl, c in c_list],
    })


def emit_bk(bk: translate.BKDatumSkeleton) -> dict:
    order = bk.order
    payload = {
        "tower": emit_tower(order.tower)["payload"],
        "N": order.N,
        "kind": bk.kind,
        "notes": dict.fromkeys(("kappa", "sigma", "Lambda"),
                               translate.OUT_OF_SCOPE),
    }
    if bk.kind == "a":
        payload.update(
            blocks=[[e.level, emit_series(e.c)] for e in bk.seq.entries],
            n=bk.seq.n, r=[e.r for e in bk.seq.entries], case=bk.seq.case,
            theta_factors=[
                {"level": cf.level, "c": emit_series(cf.c),
                 "depth": _frac(cf.depth),
                 "det_domain": [[l, m] for l, m, _ in cf.det_domain],
                 "psi_domain": [[l, m] for l, m, _ in cf.psi_domain]}
                for cf in bk.theta_factors])
    return document("bk_datum", payload)


def parse_bk(doc) -> translate.BKDatumSkeleton:
    """The datum the blocks (type (a)) or the order (type (b)) build, which
    must re-emit every field the document states (see _as_emitted)."""
    payload = _payload(doc, "bk_datum")
    tower = parse_tower(document("tower", payload["tower"]))
    order = strata.make_order(tower, payload["N"])
    kind = payload.get("kind", "a")
    if kind not in ("a", "b"):
        raise ValueError(f"datum kind {kind!r} is not \"a\" or \"b\"")
    bk = (translate.BKDatumSkeleton(order) if kind == "b" else
          translate.make_bk_datum(order, [(_level(tower, lvl),
                                           parse_series(tower, ser))
                                          for lvl, ser in payload["blocks"]]))
    return _as_emitted(bk, payload, emit_bk, f"a type ({kind}) datum")


def emit_yu(yu: translate.YuDatumSkeleton) -> dict:
    order = yu.point
    return document("yu_datum", {
        "tower": emit_tower(order.tower)["payload"],
        "N": order.N,
        "dims": list(yu.dims),
        "depths": [_frac(r) for r in yu.depths],
        "case": yu.case,
        "characters": [
            [lvl, None if c is None else emit_series(c), _frac(r)]
            for lvl, c, r in yu.characters],
        "rho_slot": yu.rho_slot,
    })


def parse_yu(doc) -> translate.YuDatumSkeleton:
    payload = _payload(doc, "yu_datum")
    tower = parse_tower(document("tower", payload["tower"]))
    order = strata.make_order(tower, payload["N"])
    characters = tuple(
        (_level(tower, lvl), None if ser is None else parse_series(tower, ser),
         _unfrac(r))
        for lvl, ser, r in payload["characters"])
    case = payload["case"]
    if case not in ("A", "B"):
        raise ValueError(f"case {case!r} is not \"A\" or \"B\"")
    yu = translate.YuDatumSkeleton(
        order, tuple(payload["dims"]),
        tuple(_unfrac(r) for r in payload["depths"]), characters, case)
    return _as_emitted(yu, payload, emit_yu, "a yu datum")


def _as_emitted(datum, payload, emit, name):
    """datum, once each top-level field payload states is one emit(datum)
    writes, with the same JSON value; a field left out is the emitted one."""
    emitted = emit(datum)["payload"]
    for key, value in payload.items():
        if key not in emitted:
            raise VerificationFailed(f"{name} has no {key}")
        if not _same_json(value, emitted[key]):
            raise VerificationFailed(f"stated {key} is not what the datum builds")
    return datum


def _same_json(a, b) -> bool:
    """a == b with JSON types kept apart, so that true is not 1."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(v, b[k])
                                            for k, v in a.items())
    return a == b


def emit_table(table: translate.FiltrationTable) -> dict:
    return {"name": table.name,
            "factors": [[l, m, lab] for l, m, lab in table.factors]}


def _payload(doc, kind):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a {kind} document, got a "
                         + type(doc).__name__)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')}")
    if doc.get("kind") != kind:
        raise ValueError(f"expected a {kind} document, got {doc.get('kind')}")
    return doc["payload"]


# ---------------------------------------------------------------------------
# human rendering
# ---------------------------------------------------------------------------

def _is_series(obj) -> bool:
    return isinstance(obj, dict) and "terms" in obj


def _human_series(payload) -> str:
    """(c)*s^e terms, w the residue-field generator, then O(s^prec) and
    the level tag @E_level when the payload has them."""
    bits = []
    for exp, coeffs in payload["terms"]:
        e = _unfrac(exp)
        coeff = "+".join(f"{c}w^{i}" if i else str(c)
                         for i, c in enumerate(coeffs) if c) or "0"
        bits.append(f"({coeff})*s^{e}")
    out = " + ".join(bits) if bits else "0"
    if payload.get("prec") is not None:
        out += f" + O(s^{_unfrac(payload['prec'])})"
    if payload.get("level") is not None:
        out += f" @E{payload['level']}"
    return out


def _rat(pair):
    return None if pair is None else _unfrac(pair)


def _rat_last(rows):
    return [[*row[:-1], _rat(row[-1])] for row in rows]


# how the [n, d] rationals held under a key become Fractions for --human
_RATIONALS = {"depth": _rat, "exponent": _rat, "prec": _rat,
              "depths": lambda v: list(map(_rat, v)),
              "characters": _rat_last, "pairs": _rat_last}


def _human_inline(obj) -> str:
    """One line: a series as its terms, a list in brackets."""
    if _is_series(obj):
        return _human_series(obj)
    if isinstance(obj, list):
        return "[" + ", ".join(map(_human_inline, obj)) + "]"
    return str(obj)


def _render_human(doc) -> str:
    """One line per field; each list entry on its own "- " line, where an
    object inside a list starts its first field."""
    lines = [f"kind: {doc['kind']}"]

    def walk(obj, pad):
        for k, v in obj.items():
            v = _RATIONALS[k](v) if k in _RATIONALS else v
            if k == "tower":
                v = f"p={v['p']} e={v['e']} f={v['f']}"
            elif k == "terms":          # the payload is itself a series
                v = {"terms": v}
            if isinstance(v, dict) and not _is_series(v):
                lines.append(f"{pad}{k}:")
                walk(v, pad + "  ")
            elif isinstance(v, list):
                lines.append(f"{pad}{k}:")
                for item in v:
                    if isinstance(item, dict) and item and not _is_series(item):
                        start = len(lines)
                        walk(item, pad + "    ")
                        lines[start] = f"{pad}  - {lines[start].lstrip()}"
                    else:
                        lines.append(f"{pad}  - {_human_inline(item)}")
            else:
                lines.append(f"{pad}{k}: {_human_inline(v)}")
    walk(doc["payload"], "")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _loads(text):
    def no_float(number):
        raise ValueError(f"{number} is not exact: a document holds no floats")
    return json.loads(text, parse_float=no_float, parse_constant=no_float)


def _read_json(path):
    with open(path) as fh:
        return _loads(fh.read())


def _load_tower(args) -> tame.Tower:
    """A built-in name or a tower file; an unknown bare name lists the names."""
    name = args.tower
    if name not in corpus.BUILTIN_TOWERS:
        try:
            return parse_tower(_read_json(name))
        except FileNotFoundError:
            if os.path.dirname(name):
                raise
    return corpus.named_tower(name)


def _load_element(tower, text) -> tame.TameSeries:
    data = _loads(text)
    if isinstance(data, dict):
        return parse_series(tower, data)
    return parse_series(tower, {"level": 0, "terms": data, "prec": None})


def cmd_check_minimal(args):
    tower = _load_tower(args)
    c = _load_element(tower, args.element)
    report = minimal.is_minimal(c, args.upper, args.lower)
    return EXIT_OK, document("report", {
        "operation": "check-minimal",
        "upper": args.upper, "lower": args.lower,
        "element": emit_series(c),
        "minimal": report.minimal,
        "cond_generates": report.cond_generates,
        "cond_gcd": report.cond_gcd,
        "cond_residue": report.cond_residue,
        "via_sr": report.via_sr,
        "via_galois": report.via_galois,
        "depth": _frac(report.depth),
        "consistent": report.consistent,
    })


def cmd_ge1(args):
    tower = _load_tower(args)
    c = _load_element(tower, args.element)
    report = minimal.ge1_check(c, args.upper, args.lower)
    return EXIT_OK, document("report", {
        "operation": "ge1",
        "passed": report.passed,
        "depth": _frac(report.depth),
        "pairs": [
            [[g.frob_power, list(g.twist.coeffs)],
             [h.frob_power, list(h.twist.coeffs)],
             None if o is None else _frac(o)]
            for g, h, o in report.pairs],
    })


def cmd_sr(args):
    tower = _load_tower(args)
    c = _load_element(tower, args.element)
    mono = tame.sr_standard_rep(c)
    payload = emit_series(mono.to_series(tower))
    payload["coeff"] = list(mono.coeff.coeffs)
    payload["exponent"] = _frac(mono.exponent)
    return EXIT_OK, document("element", payload)


def cmd_decompose(args):
    tower = _load_tower(args)
    order = strata.make_order(tower, args.N)
    beta = _load_element(tower, args.element)
    c_list = strata.decompose_split_form(order, beta)
    return EXIT_OK, emit_c_list(order, c_list)


def cmd_defseq(args):
    tower = _load_tower(args)
    order = strata.make_order(tower, args.N)
    beta = _load_element(tower, args.element)
    seq = strata.split_form_sequence(order, beta)
    return EXIT_OK, emit_bk(translate.BKDatumSkeleton(order, seq))


def cmd_bk2yu(args):
    bk = parse_bk(_read_json(args.datum))
    return EXIT_OK, emit_yu(translate.bk_to_yu(bk))


def cmd_yu2bk(args):
    yu = parse_yu(_read_json(args.datum))
    return EXIT_OK, emit_bk(translate.yu_to_bk(yu))


def _load_datum(doc):
    """(bk, yu) from a bk_datum document or, failing that, a yu_datum one."""
    if isinstance(doc, dict) and doc.get("kind") == "bk_datum":
        bk = parse_bk(doc)
        return bk, translate.bk_to_yu(bk)
    yu = parse_yu(doc)
    return translate.yu_to_bk(yu), yu


def cmd_tables(args):
    bk, yu = _load_datum(_read_json(args.datum))
    payload = {"bk": {}, "yu": {}, "comparisons": {}}
    if bk.kind == "a":
        tabs = translate.h_group_table(bk.seq)
        ytabs = translate.yu_group_table(yu)
        payload["bk"] = {k: emit_table(t) for k, t in tabs.items()}
        payload["yu"] = {k: emit_table(t) for k, t in ytabs.items()}
        payload["comparisons"] = translate.table_equalities(
            tabs, ytabs, strata.oracle_model(args.models, bk.order))
    code = EXIT_OK if all(payload["comparisons"].values()) else EXIT_VERIFICATION
    return code, document("table", payload)


def cmd_ledger(args):
    bk, yu = _load_datum(_read_json(args.datum))
    # a type (b) ledger has no index to check, so it takes no model
    model = (strata.oracle_model(args.models, bk.order) if bk.kind == "a"
             else None)
    entries, verdicts = translate.ledger_indices(bk, yu, model)
    code = EXIT_OK if translate.ledger_holds(verdicts) else EXIT_VERIFICATION
    return code, document("ledger", {
        "indices": [{"name": e.name, "log_p": e.value,
                     "provenance": e.provenance} for e in entries],
        "verdicts": verdicts,
    })


def cmd_verify(args):
    if args.corpus:
        results = _verify_user_corpus(args)
    else:
        from . import verifysuite
        names = None if args.suite == "all" else args.suite.split(",")
        results = verifysuite.run_suites(names, args.models is not None)
    ok = all(passed for _, passed, _ in results)
    payload = {"suites": [{"name": n, "passed": p, "detail": d}
                          for n, p, d in results]}
    for n, p, d in results:
        print(f"{'PASS' if p else 'FAIL'} {n}: {d}", file=sys.stderr)
    return (EXIT_OK if ok else EXIT_VERIFICATION), document("report", payload)


def _verify_user_corpus(args):
    """verifysuite.check_datum on each document of a datum list: a datum
    passes when every check that ran on it does.  The detail of a passing
    datum names the checks that ran, of a failing one those that failed."""
    from . import verifysuite
    docs = _read_json(args.corpus)
    if not isinstance(docs, list):
        raise ValueError("a corpus is a list of documents, not a "
                         + type(docs).__name__)
    results = []
    for idx, doc in enumerate(docs):
        checks = verifysuite.check_datum(*_load_datum(doc), args.models)
        failed = [name for name, verdicts in checks if not all(verdicts)]
        results.append((f"corpus[{idx}]", not failed, ", ".join(
            failed or [name for name, _ in checks])))
    return results


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError, which exits 3 with an error document,
    instead of exiting 2, the verification-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every run shares it."""
    parser = _Parser(
        prog="tamestrata",
        description="exact arithmetic for tame towers of local fields")
    parser.add_argument("--human", action="store_true",
                        help="pretty-print instead of emitting JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def tower_opts(p, element=True):
        p.add_argument("--tower", required=True,
                       help="tower file or builtin name ("
                            + "/".join(corpus.BUILTIN_TOWERS) + ")")
        if element:
            p.add_argument("--element", required=True,
                           help="JSON term list [[[kn,kd],[coeffs]],...]")

    p = add("check-minimal", cmd_check_minimal, help="minimality report")
    tower_opts(p)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)

    p = add("ge1", cmd_ge1, help="genericity condition on embedding pairs")
    tower_opts(p)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)

    p = add("sr", cmd_sr, help="standard representative monomial")
    tower_opts(p)

    p = add("decompose", cmd_decompose, help="split into minimal blocks")
    tower_opts(p)
    p.add_argument("--N", type=int, required=True, help="dim_F V")

    p = add("defseq", cmd_defseq, help="build and verify a defining sequence")
    tower_opts(p)
    p.add_argument("--N", type=int, required=True)

    p = add("bk2yu", cmd_bk2yu, help="translate a BK skeleton")
    p.add_argument("--datum", required=True)

    p = add("yu2bk", cmd_yu2bk, help="translate a Yu skeleton")
    p.add_argument("--datum", required=True)

    def oracle_opt(p, default):
        p.add_argument("--oracle", choices=["on", "off", "check"], default=default,
                       help="off skips the oracle; on and check cross-check "
                            f"wherever N <= {strata.ORACLE_MAX_N}")

    p = add("tables", cmd_tables, help="filtration group tables")
    p.add_argument("--datum", required=True)
    oracle_opt(p, "off")

    p = add("ledger", cmd_ledger, help="index ledger")
    p.add_argument("--datum", required=True)
    oracle_opt(p, "on")

    p = add("verify", cmd_verify, help="run the property suites")
    p.add_argument("--suite", default="all",
                   help="comma-separated suite names or 'all'")
    oracle_opt(p, "check")
    p.add_argument("--corpus", default=None,
                   help="JSON list of datum documents to check instead of "
                        "the built-in corpus, by the per-datum checks the "
                        "suites run")
    return parser


def run(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        # "on" and "check" are synonyms: the oracle is one on/off switch,
        # and on, the invocation's one map from order to model
        args.models = {} if getattr(args, "oracle", "off") != "off" else None
        return args.fn(args)
    except VerificationError as exc:
        code, err = EXIT_VERIFICATION, exc
    except (TameStrataError, OSError, KeyError, ValueError, TypeError) as exc:
        code, err = EXIT_INPUT, exc
    # str() of a KeyError is the repr of its argument; report the message
    message = (str(err.args[0]) if isinstance(err, KeyError)
               and len(err.args) == 1 else str(err))
    return code, document("error", {
        "error": type(err).__name__, "message": message})


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    code, doc = run(args_list)
    if "--human" in args_list:
        print(_render_human(doc))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
