"""Property suites behind the acceptance criteria and the verify command.

Every suite is called as suite(models) and returns (passed, detail); its
name is its key in ALL_SUITES.  models is the run's map from an order
(orders compare by value) to its matrix model, or None when the oracle is
off.  Suites get their models from strata.oracle_model, so a run builds
each order's model once, on first use, and every suite reads that one.
The per-datum checks are one list, CHECKS, which check_datum runs on one
datum: the five datum suites count one check each over the corpus, and
verify --corpus runs them all on each document.  The suites are exact:
every comparison is integer or rational equality, and wherever a closed
form is checked the comparison target comes from an independent route
(exhaustive enumeration, Galois differences, or the matrix oracle).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import corpus, minimal, oracle, strata, tame, translate
from .errors import PrecisionExhausted, VerificationError, VerificationFailed

ORD_RANGE = (-6, -1)


def _enum_towers():
    towers = [(name, corpus.named_tower(name))
              for name in ("desk5", "desk3", "desk2", "desk2b")]
    towers += [(f"std{t.base.p}e{t.e}f{t.f}", t) for t in corpus.standard_towers()]
    return towers


def _monomial_cases():
    """(monomial, upper, lower) for each level pair upper < lower of each
    enumerated tower and each monomial of level upper with ord in ORD_RANGE."""
    for _, tower in _enum_towers():
        for upper in range(tower.d):
            for lower in range(upper + 1, tower.d + 1):
                for mono in tame.monomials_in_level(tower, upper, *ORD_RANGE):
                    yield mono, upper, lower


def suite_minimal_equivalence(models):
    """Definition, standard-representative and Galois routes agree."""
    wrong = [not minimal.is_minimal(*case).consistent
             for case in _monomial_cases()]
    return not any(wrong), f"{len(wrong)} cases, {sum(wrong)} disagreements"


def suite_generic_iff_minimal(models):
    """GE1 passes exactly on the minimal elements."""
    wrong = [minimal.ge1_check(*case).passed != minimal.is_minimal(*case).minimal
             for case in _monomial_cases()]
    return not any(wrong), f"{len(wrong)} cases, {sum(wrong)} disagreements"


def _random_level_element(rng, tower, level):
    subfield = tower.residue_subfield(level)
    m = tower.e // tower.level_e(level)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        k = m * rng.randint(-6, 6)
        c = rng.choice(subfield)
        if not c.is_zero():
            terms[k] = c
    if not terms:
        terms = {0: tower.k.one()}
    return tower.series(level, [(Fraction(k, tower.e), c)
                                for k, c in terms.items()])


def suite_valuation_lemma(models):
    """nu_A * e(E|F) = e_A * nu_E on 1000 random elements, 150 of them
    cross-checked against matrix valuations."""
    rng = random.Random(20240811)
    towers = _enum_towers()
    orders = {}
    checked = oracle_checked = failures = 0
    while checked < 1000:
        name, tower = towers[checked % len(towers)]
        level = rng.randint(0, tower.d)
        x = _random_level_element(rng, tower, level)
        if x.is_zero_to_prec():
            continue
        if tower not in orders:
            orders[tower] = strata.make_order(tower, tower.level_degree(0))
        order = orders[tower]
        o, nu_E = tame.ord_and_nu(x, level)
        lhs = strata.nu_A(order, x) * tower.level_e(level)
        rhs = order.e_A * nu_E
        if lhs != rhs:
            failures += 1
        model = (strata.oracle_model(models, order) if oracle_checked < 150
                 and order.N <= 4 and x.in_level(0) else None)
        if model is not None:
            if oracle.oracle_nu(model, x) != strata.nu_A(order, x):
                failures += 1
            oracle_checked += 1
        checked += 1
    return failures == 0, (f"{checked} identities, {oracle_checked} oracle "
                           f"matrix checks, {failures} failures")


def _character_depth(bk, yu, model):
    """psi_c trivial one step above its depth and not at it, on each level,
    by trace-module valuations that the oracle also finds given a model."""
    verdicts = []
    for e in bk.seq.entries:
        v = -strata.nu_A(bk.order, e.c)
        hi, lo = (translate.char_module_valuation(e.c, (e.level, m), bk.order)
                  for m in (v + 1, v))
        verdicts.append(hi >= 1 > lo and (model is None or [hi, lo] == [
            oracle.oracle_char_module_min_ord(model, e.c, e.level, m)
            for m in (v + 1, v)]))
    return verdicts


# name: (scope, check), in the order check_datum runs them; a check runs on
# "all" data, on type "a" data, or on type (a) data with a "model"
CHECKS = {
    "round trip": ("all", lambda bk, yu, model: [
        translate.round_trip_agrees(bk, yu)]),
    "tables": ("a", lambda bk, yu, model: list(translate.table_equalities(
        translate.h_group_table(bk.seq), translate.yu_group_table(yu),
        model).values())),
    "k0": ("model", lambda bk, yu, model: [
        strata.k0_closed(bk.order, e.beta) == oracle.oracle_k0(model, e.beta)
        for e in bk.seq.entries]),
    "ledger": ("model", lambda bk, yu, model: [translate.ledger_holds(
        translate.ledger_indices(bk, yu, model)[1])]),
    "character depth": ("a", _character_depth),
}


def check_datum(bk, yu, models, names=None):
    """(name, verdicts) of each check of CHECKS (or of names) that runs on
    bk and its translation yu, one verdict per case.  Checks past the round
    trip take the model of bk's order from strata.oracle_model, so a round
    trip alone builds none.  A check that raises VerificationError or
    PrecisionExhausted has one failed case, and the next check runs."""
    results = []
    for name in names or CHECKS:
        scope, check = CHECKS[name]
        if scope != "all" and bk.kind == "b":
            continue
        model = None if scope == "all" else strata.oracle_model(models, bk.order)
        if scope == "model" and model is None:
            continue
        try:
            results.append((name, check(bk, yu, model)))
        except (VerificationError, PrecisionExhausted):
            results.append((name, [False]))
    return results


def _runs(name, models):
    """(cases, failures, runs): the verdicts of the check name counted over
    runs, its (datum, verdicts) on each corpus datum it runs on."""
    runs = [(bk, verdicts) for _, bk in corpus.datum_corpus() for _, verdicts
            in check_datum(bk, translate.bk_to_yu(bk), models, [name])]
    verdicts = [v for _, run in runs for v in run]
    return len(verdicts), verdicts.count(False), runs


def _counted(check, cases_label, failures_label):
    """The suite that counts the check's cases and failures on the corpus."""
    def suite(models):
        cases, failures, _ = _runs(check, models)
        return failures == 0, (f"{cases} {cases_label}, "
                               f"{failures} {failures_label}")
    return suite


def suite_critical_exponent(models):
    """Closed-form k0 equals the commutator-space oracle on every entry
    beta of every type (a) corpus datum within the oracle bound and on
    pi_F^-1 of each such order."""
    cases, failures, runs = _runs("k0", models)
    for order in dict.fromkeys(bk.order for bk, _ in runs):
        beta = order.tower.pi_F() ** -1
        cases += 1
        failures += strata.k0_closed(order, beta) != oracle.oracle_k0(
            strata.oracle_model(models, order), beta)
    return failures == 0, f"{cases} strata, {failures} disagreements"


def suite_filtration_equalities(models):
    """H1 = Kd+ and J0 = oKd on every type (a) corpus datum, by the oracle
    within its bound (each corpus pair has one factor set, so one lattice)
    and by normalization beyond it or with the oracle off."""
    cases, failures, runs = _runs("tables", models)
    with_oracle = sum(len(verdicts) for bk, verdicts in runs
                      if strata.oracle_model(models, bk.order) is not None)
    return failures == 0, (f"{cases} comparisons ({with_oracle} with oracle), "
                           f"{failures} failed")


def suite_monomial_group(models):
    """The monomial group is choice-free and sr is multiplicative on it.

    Every admissible uniformizer choice generates the same monomial set
    (exhaustively up to ord bound 6), and the standard representative is
    the identity on monomials and multiplicative on products.
    """
    failures = checks = 0
    for name in ("desk5", "desk3", "desk2"):
        tower = corpus.named_tower(name)
        for level in range(tower.d + 1):
            monos = tame.monomials_in_level(tower, level, -6, 6)
            mono_keys = {m.terms for m in monos}
            roots = [c for c in tower.residue_subfield(level) if not c.is_zero()]
            e_i = tower.level_e(level)
            unifs = [m for m in monos if m.ord() == Fraction(1, e_i)]
            if not unifs:
                raise VerificationFailed(
                    f"no monomial uniformizer of level {level} in the window")
            for pi in unifs:
                generated = set()
                for a in range(-6 * e_i, 6 * e_i + 1):
                    pia = pi ** a
                    for z in roots:
                        generated.add((tower.monomial(z, 0) * pia).terms)
                checks += 1
                if generated != mono_keys:
                    failures += 1
            for m in monos[:40]:
                checks += 1
                if tame.sr_standard_rep(m).to_series(tower).terms != m.terms:
                    failures += 1
        rng = random.Random(99)
        for _ in range(60):
            a = _random_level_element(rng, tower, 0)
            b = _random_level_element(rng, tower, 0)
            if a.is_zero_to_prec() or b.is_zero_to_prec():
                continue
            checks += 1
            sra = tame.sr_standard_rep(a)
            srb = tame.sr_standard_rep(b)
            srab = tame.sr_standard_rep(a * b)
            if srab != tame.CMonomial(sra.coeff * srb.coeff,
                                      sra.exponent + srb.exponent):
                failures += 1
    return failures == 0, f"{checks} checks, {failures} failures"


ALL_SUITES = {
    "minimal-equivalence": suite_minimal_equivalence,
    "generic-iff-minimal": suite_generic_iff_minimal,
    "valuation-lemma": suite_valuation_lemma,
    "critical-exponent": suite_critical_exponent,
    "filtration-equalities": suite_filtration_equalities,
    # the ledger's product identity, even exponents and singles matching
    # the oracle, on each type (a) datum within the oracle bound
    "index-identity": _counted("ledger", "data", "failed verdicts"),
    "character-depth": _counted("character depth", "levels", "failures"),
    # yu_to_bk . bk_to_yu is the identity on every corpus datum
    "round-trips": _counted("round trip", "data (>= 50 required)", "failures"),
    "monomial-group": suite_monomial_group,
}


_ORACLE_ONLY = ("valuation-lemma", "critical-exponent", "index-identity")


def run_suites(names=None, use_oracle=True):
    """(name, passed, detail) of each named suite, all reading one map of
    models.

    Without the oracle, the suites that can run without it drop their
    oracle cross-checks and the suites whose whole point is the oracle
    are skipped.
    """
    names = names or list(ALL_SUITES)
    unknown = [name for name in names if name not in ALL_SUITES]
    if unknown:
        raise KeyError(f"unknown suite {unknown[0]!r}; "
                       f"choose from {list(ALL_SUITES)}")
    models = {} if use_oracle else None
    results = []
    for name in names:
        if models is None and name in _ORACLE_ONLY:
            results.append((name, True, "skipped (oracle off)"))
        else:
            results.append((name, *ALL_SUITES[name](models)))
    return results
