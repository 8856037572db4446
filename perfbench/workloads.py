"""Workload definitions: fixed input selection, seeded generators, item runners.

Everything that decides how much work a run does lives here as constants,
so that widening a bound inside the library (the oracle's size limit, the
verify suites' N bounds, the corpus defaults) never changes the benchmark's
work.  Generators run in the parent process, before any timed region, and
produce plain JSON documents.  Runners execute one item in a worker process
and return the item's answer as plain Python values; an answer that fails
its independent check raises CheckFailed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from tamestrata import cli, corpus, minimal, oracle, strata, tame, translate
from tamestrata.errors import OracleRequired, TameStrataError
from tamestrata.ffq import FqElem
from tamestrata.tame import CMonomial, GaloisElement, TameSeries

WORKLOADS = ("galois-enum", "oracle-crosscheck", "datum-pipeline")

# -- galois-enum ----------------------------------------------------------

# Towers of the exhaustive enumeration: the four desk towers and every
# standard two-level tower (p in {2,3,5}, e in {1,2,3}, f in {1,2}).
GALOIS_DESK_TOWERS = ("desk5", "desk3", "desk2", "desk2b")
ORD_WINDOW = (-6, -1)
# Seeded random level elements per pass: up to RANDOM_TERMS terms with
# exponents (in units of the level's uniformizer) drawn from RANDOM_EXP.
GALOIS_RANDOM_ITEMS = 400
RANDOM_TERMS = 4
RANDOM_EXP = (-6, 6)

# -- oracle-crosscheck ----------------------------------------------------

# (name, tower, N) orders whose corpus data are checked against the oracle:
# one order per N, so that the model size grows from N=2 to N=8 while a
# pass stays short enough (about 3 s on a 2-vCPU x86_64 VM) for every item
# to be repeated some ten times in a run; desk3 (N=4) and desk2b (N=6) would
# add a second order of the same size and 70% to a pass.
ORACLE_ORDERS = (
    ("std3e2f1", "std3e2f1", 2),
    ("desk5", "desk5", 4),
    ("desk2", "desk2", 6),
)
# The N=8 order; a seeded sample of its data joins the table checks: one
# datum per level pattern, with the depth base drawn by seed.  The cost of
# an N=8 check follows the level pattern far more than the base, and the
# N=8 character and k0 checks cost 0.1-3 s per datum, so any other sample
# would make the work of a pass swing with the seed.
ORACLE_WIDE_ORDER = ("desk5x2", "desk5", 8)
# Largest N that takes part in each check (the sample is added on top).
# The N=6 character checks would cost more than half of a pass (0.3 s per
# deep entry), and a long pass leaves each item too few repeats in a run
# for its fastest latency to be steady; N=6 is still built and checked by
# the table suite.
ORACLE_CHECK_MAX_N = {"k0": 4, "tables": 6, "ledger": 4, "char": 4}

# -- datum-pipeline -------------------------------------------------------

PIPELINE_TOWERS = ("desk5", "desk3", "desk2", "desk2b", "deep5")
PIPELINE_N_FACTORS = (1, 2)
# A pass holds every item shape PIPELINE_REPEATS times, each time with new
# random content; the shapes (tower, N factor, level pattern, term count,
# kind) are fixed so that the work per pass does not swing with the seed.
# The split search grows fast with the number of terms, so deep5 gets no
# extra terms and alternates its N factor instead of taking both.
PIPELINE_REPEATS = 2
PIPELINE_CLI_EVERY = 3          # every third chain shape goes through cli.run
REJECT_CLASSES = {"reject-no-level": "NotInLevel",
                  "reject-non-minimal": "NotMinimalSummand",
                  "reject-truncated": "PrecisionExhausted"}

# Per-workload shrink used by the benchmark's own tests (--size tiny).
TINY = {"galois_exhaustive": 60, "galois_random": 20, "pipeline_shapes": 8}


class CheckFailed(Exception):
    """An item's answer disagrees with its independent check."""


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# towers and documents
# ---------------------------------------------------------------------------

def std_name(tower):
    return f"std{tower.base.p}e{tower.e}f{tower.f}"


def tower_table(names):
    """name -> built-in tower, for desk names and std<p>e<e>f<f> names."""
    out = {}
    if any(n.startswith("std") for n in names):
        for tw in corpus.standard_towers():
            out[std_name(tw)] = tw
    for n in names:
        if not n.startswith("std"):
            out[n] = corpus.named_tower(n)
    return out


def frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def series_doc(a):
    return cli.emit_series(a)


def decode_series(tower, payload):
    """Benchmark-side decoder for element payloads of the wire format."""
    terms = [(Fraction(*exp), tower.k.elem(coeffs))
             for exp, coeffs in payload["terms"]]
    prec = payload.get("prec")
    return tower.series(payload["level"], terms,
                        None if prec is None else Fraction(*prec))


def canon(obj):
    """Plain JSON value of an item answer (run outside the timed region)."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return frac(obj)
    if isinstance(obj, FqElem):
        return list(obj.coeffs)
    if isinstance(obj, GaloisElement):
        return [obj.frob_power, list(obj.twist.coeffs)]
    if isinstance(obj, CMonomial):
        return [list(obj.coeff.coeffs), frac(obj.exponent)]
    if isinstance(obj, TameSeries):
        return [obj.level, [[k, list(c.coeffs)] for k, c in obj.terms],
                obj.prec_k]
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def wire(doc):
    """A JSON document as the CLI prints it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canon_json(obj):
    return wire(canon(obj))


# ---------------------------------------------------------------------------
# input generation (parent process, before timing)
# ---------------------------------------------------------------------------

def generate(workload, seed, tiny=False):
    """Item documents for one pass; each carries "fixed": True when it does
    not depend on the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "galois-enum":
        return _gen_galois(rng, tiny)
    if workload == "oracle-crosscheck":
        return _gen_oracle(rng, tiny)
    if workload == "datum-pipeline":
        return _gen_pipeline(rng, tiny)
    raise KeyError(workload)


def galois_tower_names():
    return list(GALOIS_DESK_TOWERS) + [std_name(t)
                                       for t in corpus.standard_towers()]


def _gen_galois(rng, tiny):
    names = galois_tower_names()
    towers = tower_table(names)
    items = []
    for name in names:
        tw = towers[name]
        for upper in range(tw.d):
            for lower in range(upper + 1, tw.d + 1):
                for mono in tame.monomials_in_level(tw, upper, *ORD_WINDOW):
                    items.append({"op": "minimal", "fixed": True, "tower": name,
                                  "upper": upper, "lower": lower,
                                  "x": series_doc(mono)})
    if tiny:
        items = items[::max(1, len(items) // TINY["galois_exhaustive"])]
    count = TINY["galois_random"] if tiny else GALOIS_RANDOM_ITEMS
    for i in range(count):
        # the shape (tower, levels, term counts) is fixed by position and the
        # seed draws the content, so the work of a pass does not swing with it
        name = names[i % len(names)]
        tw = towers[name]
        level = (i // len(names)) % (tw.d + 1)
        items.append({"op": "level-element", "fixed": False, "tower": name,
                      "level": level, "to": tw.d - i % (tw.d - level + 1),
                      "x": series_doc(_random_level_element(
                          rng, tw, level, 1 + i % RANDOM_TERMS)),
                      "y": series_doc(_random_level_element(
                          rng, tw, 0, 1 + (i + 2) % RANDOM_TERMS))})
    return items


def _random_level_element(rng, tower, level, count):
    subfield = [c for c in tower.residue_subfield(level) if not c.is_zero()]
    m = tower.e // tower.level_e(level)
    exps = rng.sample(range(RANDOM_EXP[0], RANDOM_EXP[1] + 1), count)
    return tower.series(level, [(Fraction(m * k, tower.e), rng.choice(subfield))
                                for k in exps])


def oracle_orders():
    return ORACLE_ORDERS + (ORACLE_WIDE_ORDER,)


def _gen_oracle(rng, tiny):
    """Item documents naming corpus data by label.

    Checks run suite by suite, each suite with its own models, the way the
    verify command runs them.
    """
    orders = oracle_orders()
    towers = tower_table({t for _, t, _ in orders})
    named = [(name, strata.make_order(towers[t], N)) for name, t, N in orders]
    data = [(label, bk) for label, bk in corpus.datum_corpus_for_orders(named)
            if bk.kind == "a"]
    wide = [(label, bk) for label, bk in data
            if label.startswith(ORACLE_WIDE_ORDER[0] + "/")]
    patterns = {}
    for label, bk in wide:
        patterns.setdefault(label.split("/base=")[0], []).append((label, bk))
    sample = [rng.choice(group) for group in patterns.values()]
    data = [d for d in data if d not in wide]
    if tiny:
        data, sample = [(l, bk) for l, bk in data if bk.order.N <= 2][:4], []

    def fixed(check):
        return [(l, bk) for l, bk in data if bk.order.N <= ORACLE_CHECK_MAX_N[check]]

    items = [{"op": "k0", "fixed": True, "label": label}
             for label, _ in fixed("k0")]
    for name, _, N in ORACLE_ORDERS:
        if N <= ORACLE_CHECK_MAX_N["k0"] and not (tiny and N > 2):
            items.append({"op": "k0-central", "fixed": True, "order": name})
    tables = [(d, True) for d in fixed("tables")] + [(d, False) for d in sample]
    for (label, _), is_fixed in tables:
        for pair in (["H1", "Kd+"], ["J0", "oKd"]):
            items.append({"op": "tables", "fixed": is_fixed, "label": label,
                          "pair": pair})
    items += [{"op": "ledger", "fixed": True, "label": label}
              for label, _ in fixed("ledger")]
    for label, bk in fixed("char"):
        for i in range(bk.seq.s + 1):
            for step in (1, 0):
                items.append({"op": "char", "fixed": True, "label": label,
                              "entry": i, "step": step})
    return items


def level_patterns(d):
    """Chain-level patterns of a defining sequence, as the corpus uses them."""
    pats = []
    for start in range(d):
        pats.append(list(range(start, d)))        # Case B
        pats.append(list(range(start, d + 1)))    # Case A
    pats.append([d])
    return pats


def pipeline_shapes(towers):
    """(kind, tower, N factor, level pattern or None, extra term) per item."""
    shapes, chains = [], 0
    for name in PIPELINE_TOWERS:
        deep = name == "deep5"
        for j, pat in enumerate(level_patterns(towers[name].d)):
            factors = (PIPELINE_N_FACTORS[j % 2],) if deep else PIPELINE_N_FACTORS
            for nf in factors:
                chains += 1
                kind = "cli" if chains % PIPELINE_CLI_EVERY == 0 else "chain"
                shapes.append((kind, name, nf, pat, not deep and (j + nf) % 2 == 1))
        for k, kind in enumerate(REJECT_CLASSES):
            shapes.append((kind, name, PIPELINE_N_FACTORS[k % 2], None, False))
    return shapes


def _gen_pipeline(rng, tiny):
    towers = tower_table(PIPELINE_TOWERS)
    shapes = pipeline_shapes(towers)
    if tiny:
        shapes = [s for s in shapes if s[1] == "desk5"][-TINY["pipeline_shapes"]:]
    shapes = shapes * (1 if tiny else PIPELINE_REPEATS)
    rng.shuffle(shapes)
    gen = _ChainGenerator(towers)
    items = []
    for kind, name, nf, pattern, extra in shapes:
        tw = towers[name]
        N = nf * tw.level_degree(0)
        order = strata.make_order(tw, N)
        c_list = gen.chain(rng, name, order, kind, pattern, extra)
        beta = c_list[0][1]
        for _, c in c_list[1:]:
            beta = beta + c
        doc = {"op": kind, "fixed": False, "tower": name, "N": N,
               "beta": series_doc(beta)}
        if kind == "reject-no-level":
            # one term at exponent 1/(2e): outside every level's value group
            doc["beta"]["terms"].append([[1, 2 * tw.e], [1] + [0] * (tw.k.f - 1)])
        elif kind == "reject-truncated":
            last = beta.terms[-1][0]
            doc["beta"]["prec"] = frac(Fraction(last + 1, tw.e))
        elif kind == "reject-non-minimal":
            # block 0 replaced by an element of the next level's field: it
            # cannot generate its own step, whatever its coefficient
            (l0, _), (l1, c1) = c_list[0], c_list[1]
            o = c1.ord() + Fraction(1, tw.level_e(l1))
            c0 = rng.choice(tame.monomials_in_level(tw, l1, o, o))
            doc["blocks"] = [[lvl, series_doc(c)]
                             for lvl, c in [(l0, c0)] + c_list[1:]]
            del doc["beta"]
        items.append(doc)
    return items


class _ChainGenerator:
    """Random verified block lists: minimal monomials per chain level."""

    def __init__(self, towers):
        self.towers = towers
        self._cands = {}

    def minimal_candidates(self, name, level, low, ord_):
        key = (name, level, low, ord_)
        if key not in self._cands:
            tw = self.towers[name]
            out = []
            if (ord_ * tw.level_e(level)).denominator == 1:
                for mono in tame.monomials_in_level(tw, level, ord_, ord_):
                    try:
                        if minimal.is_minimal(mono, level, low).minimal:
                            out.append(mono)
                    except TameStrataError:
                        continue
            self._cands[key] = out
        return self._cands[key]

    def patterns(self, d, kind):
        pats = level_patterns(d)
        if kind == "reject-non-minimal":
            pats = [p for p in pats if len(p) >= 2]
        elif kind == "reject-truncated":
            # a nontrivial stabiliser makes the tail decide k0
            pats = [p for p in pats if 1 <= p[0] < d]
        return pats

    def chain(self, rng, name, order, kind, pattern=None, extra=False):
        tw = self.towers[name]
        for _ in range(50):
            levels = pattern or rng.choice(self.patterns(tw.d, kind))
            depth = rng.randint(1, 3)
            c_list = []
            for i, lvl in enumerate(levels):
                low = levels[i + 1] if i + 1 < len(levels) else tw.d
                feasible = [t for t in range(depth, depth + 4 * order.e_A)
                            if self.minimal_candidates(
                                name, lvl, low, Fraction(-t, order.e_A))]
                if not feasible:
                    break
                t = rng.choice(feasible[:3])
                c = rng.choice(self.minimal_candidates(
                    name, lvl, low, Fraction(-t, order.e_A)))
                c_list.append((lvl, c))
                depth = t + 1
            else:
                if extra:
                    c_list = self._extra_term(rng, tw, c_list)
                try:
                    translate.make_bk_datum(order, c_list)
                except TameStrataError:
                    continue
                return c_list
        raise RuntimeError(f"no chain found for {name} N={order.N}")

    def _extra_term(self, rng, tw, c_list):
        """Give one block one more term, between its ord and the next
        shallower block's, in the block's own level."""
        slots = []
        for i, (lvl, c) in enumerate(c_list):
            hi = c_list[i - 1][1].ord() if i else Fraction(1)
            o = c.ord() + Fraction(1, tw.level_e(lvl))
            while o < hi:
                slots.append((i, o))
                o += Fraction(1, tw.level_e(lvl))
        if not slots:
            return c_list
        i, o = rng.choice(slots)
        lvl, c = c_list[i]
        out = list(c_list)
        out[i] = (lvl, c + rng.choice(tame.monomials_in_level(tw, lvl, o, o)))
        return out


# ---------------------------------------------------------------------------
# worker side: set-up, decoding, item runners
# ---------------------------------------------------------------------------

def setup(workload):
    """What a user of the workload pays before the first item: built-in
    towers, and for oracle-crosscheck the corpus of its orders."""
    ctx = {}
    if workload == "galois-enum":
        ctx["towers"] = tower_table(galois_tower_names())
    elif workload == "oracle-crosscheck":
        orders = oracle_orders()
        towers = tower_table({t for _, t, _ in orders})
        named = [(name, strata.make_order(towers[t], N))
                 for name, t, N in orders]
        ctx["towers"] = towers
        ctx["orders"] = dict(named)
        ctx["data"] = dict(corpus.datum_corpus_for_orders(named))
    else:
        ctx["towers"] = tower_table(PIPELINE_TOWERS)
    return ctx


def decode(workload, ctx, doc):
    """Item document -> runner arguments (outside the timed region)."""
    if workload == "galois-enum":
        tw = ctx["towers"][doc["tower"]]
        args = dict(doc, x=decode_series(tw, doc["x"]))
        if "y" in doc:
            args["y"] = decode_series(tw, doc["y"])
        args["tw"] = tw
        return args
    return doc


class Runner:
    """Runs one workload's items in a worker; holds per-pass state (the
    oracle models of the current suite, the CLI scratch files)."""

    def __init__(self, workload, ctx, workdir):
        self.workload = workload
        self.ctx = ctx
        self.workdir = workdir
        self.models = {}
        self.suite = None

    def run(self, item):
        if self.workload == "galois-enum":
            return self._galois(item)
        if self.workload == "oracle-crosscheck":
            return self._oracle(item)
        return self._pipeline(item)

    # -- galois-enum --------------------------------------------------------

    def _galois(self, it):
        x, tw = it["x"], it["tw"]
        if it["op"] == "minimal":
            rep = minimal.is_minimal(x, it["upper"], it["lower"])
            need(rep.consistent, "minimality routes disagree")
            ge1 = minimal.ge1_check(x, it["upper"], it["lower"])
            need(ge1.passed == rep.minimal, "GE1 differs from minimality")
            return [rep.minimal, rep.cond_generates, rep.cond_gcd,
                    rep.cond_residue, rep.via_sr, rep.via_galois, rep.depth,
                    ge1.passed, ge1.pairs]
        y, level, to = it["y"], it["level"], it["to"]
        sx, sy = tame.sr_standard_rep(x), tame.sr_standard_rep(y)
        sxy = tame.sr_standard_rep(x * y)
        need(sxy == tame.CMonomial(sx.coeff * sy.coeff,
                                   sx.exponent + sy.exponent),
             "standard representative is not multiplicative")
        stab = tame.stabilizer_within(x, tw.group)
        need(tw.chain[level] <= stab, "stabiliser misses the level subgroup")
        for g in tw.group:
            need((g in stab) == tame.is_fixed_by(x, g),
                 "stabiliser differs from termwise fixedness")
        tr = tame.trace_norm("trace", x, level, to)
        nm = tame.trace_norm("norm", x, level, to)
        need(tr.level == to and tr.in_level(to), "trace leaves the target level")
        need(nm.level == to and nm.in_level(to), "norm leaves the target level")
        return [sxy, sorted(stab, key=lambda g: g.sort_key()), tr, nm]

    # -- oracle-crosscheck --------------------------------------------------

    def _model(self, order):
        if order.key() not in self.models:
            self.models[order.key()] = oracle.model_build(order)
        return self.models[order.key()]

    def _oracle(self, it):
        op = it["op"]
        suite = op if op != "k0-central" else "k0"
        if suite != self.suite:      # each suite builds its own models
            self.suite, self.models = suite, {}
        if op == "k0-central":
            order = self.ctx["orders"][it["order"]]
            beta = order.tower.pi_F() ** -1
        else:
            bk = self.ctx["data"][it["label"]]
            order = bk.order
        model = self._model(order)
        if op in ("k0", "k0-central"):
            if op == "k0":
                beta = bk.seq.entries[0].beta
            closed = strata.k0_closed(order, beta)
            ora = oracle.oracle_k0(model, beta.at_level(0))
            need(closed == ora, "closed-form k0 differs from the oracle")
            return [closed]
        if op == "tables":
            a, b = it["pair"]
            yu = translate.bk_to_yu(bk)
            tabs = translate.h_group_table(bk.seq)
            ytabs = translate.yu_group_table(yu)
            ok = translate.table_compare(tabs[a], ytabs[b], model)
            need(ok, f"{a} and {b} differ as lattices")
            return [tabs[a].pairs(), ytabs[b].pairs(), ok]
        if op == "ledger":
            yu = translate.bk_to_yu(bk)
            entries, verdicts = translate.ledger_indices(bk, yu, model)
            need(verdicts["product_identity"] and verdicts["even_exponents"]
                 and verdicts["singles_match_oracle"], "ledger verdict failed")
            return [[(e.name, e.value) for e in entries], verdicts]
        entry = bk.seq.entries[it["entry"]]
        v = -strata.nu_A(order, entry.c) + it["step"]
        closed = translate.char_module_valuation(entry.c, (entry.level, v), order)
        need((closed >= 1) == bool(it["step"]), "character depth is off")
        ora = oracle.oracle_char_module_min_ord(model, entry.c, entry.level, v)
        need(closed == ora, "trace-module valuation differs from the oracle")
        return [closed]

    # -- datum-pipeline -----------------------------------------------------

    def _pipeline(self, it):
        if it["op"] == "cli":
            return self._pipeline_cli(it)
        tw = self.ctx["towers"][it["tower"]]
        order = strata.make_order(tw, it["N"])
        if it["op"] == "reject-non-minimal":
            c_list = [(lvl, cli.parse_series(tw, ser))
                      for lvl, ser in it["blocks"]]
            translate.make_bk_datum(order, c_list)
            raise CheckFailed("non-minimal block list was accepted")
        beta = cli.parse_series(tw, it["beta"])
        c_list = strata.decompose_split_form(order, beta)
        bk = translate.make_bk_datum(order, c_list)
        k0 = strata.k0_closed(order, beta)
        seq = bk.seq
        if seq.s:
            want = -seq.entries[1].r
        elif seq.entries[0].level == tw.d:
            want = None
        else:
            want = strata.nu_A(order, beta)
        need(k0 == want, "k0 differs from the defining sequence")
        total = c_list[0][1]
        for _, c in c_list[1:]:
            total = total + c
        need(tame.series_equal(total, beta), "blocks do not sum to beta")
        yu = translate.bk_to_yu(bk)
        need(translate.skeletons_agree(bk, translate.yu_to_bk(yu)),
             "BK -> Yu -> BK is not the identity")
        tabs = translate.h_group_table(seq)
        ytabs = translate.yu_group_table(yu)
        need(translate.table_compare(tabs["H1"], ytabs["Kd+"]), "H1 != Kd+")
        need(translate.table_compare(tabs["J0"], ytabs["oKd"]), "J0 != oKd")
        ledger = _closed_form_ledger(bk, yu)
        text = wire(cli.emit_bk(bk))
        bk2 = cli.parse_bk(json.loads(text))
        need(translate.skeletons_agree(bk, bk2), "parse(emit(bk)) differs")
        need(wire(cli.emit_bk(bk2)) == text,
             "emit(parse(emit(bk))) is not byte-identical")
        return {"bk": text, "k0": k0, "ledger": ledger}

    def _pipeline_cli(self, it):
        bk_path = os.path.join(self.workdir, "bk.json")
        yu_path = os.path.join(self.workdir, "yu.json")
        code, bk = cli.run(["defseq", "--tower", it["tower"], "--N",
                            str(it["N"]), "--element", json.dumps(it["beta"])])
        need(code == 0, f"defseq exited {code}: {bk['payload']}")
        _write_json(bk_path, bk)
        code, yu = cli.run(["bk2yu", "--datum", bk_path])
        need(code == 0, f"bk2yu exited {code}")
        _write_json(yu_path, yu)
        code, back = cli.run(["yu2bk", "--datum", yu_path])
        need(code == 0 and back == bk, "yu2bk does not give back the BK document")
        code, tab = cli.run(["tables", "--datum", bk_path, "--oracle", "off"])
        need(code == 0 and all(tab["payload"]["comparisons"].values()),
             "tables comparison failed")
        return [bk, yu, tab]


def _closed_form_ledger(bk, yu):
    """ledger_indices without a model: entries when the Yu side has one
    level, otherwise it must ask for the oracle."""
    if yu.d == 0:
        entries, verdicts = translate.ledger_indices(bk, yu, None)
        need(verdicts["product_identity"] and verdicts["even_exponents"],
             "closed-form ledger verdict failed")
        return [(e.name, e.value) for e in entries]
    try:
        translate.ledger_indices(bk, yu, None)
    except OracleRequired:
        return "oracle-required"
    raise CheckFailed("composite ledger did not ask for the oracle")


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(wire(doc))
