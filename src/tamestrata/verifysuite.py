"""Property suites behind the acceptance criteria and the verify command.

Every suite is called as suite(models) and returns (passed, detail); its
name is its key in ALL_SUITES.  models is the run's map from an order
(orders compare by value) to its matrix model, or None when the oracle is
off.  Suites get their models from strata.oracle_model, so a run builds
each order's model once, on first use, and every suite reads that one.
The suites are exact: every comparison is integer or rational equality,
and wherever a closed form is checked the comparison target comes from an
independent route (exhaustive enumeration, Galois differences, or the
matrix oracle).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import corpus, minimal, oracle, strata, tame, translate
from .errors import VerificationFailed

ORD_RANGE = (-6, -1)


def _enum_towers():
    towers = [(name, corpus.named_tower(name))
              for name in ("desk5", "desk3", "desk2", "desk2b")]
    towers += [(f"std{t.base.p}e{t.e}f{t.f}", t) for t in corpus.standard_towers()]
    return towers


def _type_a(models):
    """(datum, model or None) for every type (a) corpus datum."""
    return [(bk, strata.oracle_model(models, bk.order))
            for _, bk in corpus.datum_corpus() if bk.kind == "a"]


def _level_pairs(tower):
    return [(u, l) for u in range(tower.d)
            for l in range(u + 1, tower.d + 1)]


def suite_minimal_equivalence(models):
    """Definition, standard-representative and Galois routes agree."""
    cases = failures = 0
    for name, tower in _enum_towers():
        for upper, lower in _level_pairs(tower):
            for mono in tame.monomials_in_level(tower, upper, *ORD_RANGE):
                cases += 1
                if not minimal.is_minimal(mono, upper, lower).consistent:
                    failures += 1
    return failures == 0, f"{cases} cases, {failures} disagreements"


def suite_generic_iff_minimal(models):
    """GE1 passes exactly on the minimal elements."""
    cases = failures = 0
    for name, tower in _enum_towers():
        for upper, lower in _level_pairs(tower):
            for mono in tame.monomials_in_level(tower, upper, *ORD_RANGE):
                cases += 1
                ge1 = minimal.ge1_check(mono, upper, lower).passed
                mini = minimal.is_minimal(mono, upper, lower).minimal
                if ge1 != mini:
                    failures += 1
    return failures == 0, f"{cases} cases, {failures} disagreements"


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


def suite_critical_exponent(models):
    """Closed-form k0 equals the commutator-space oracle on every entry
    beta of every type (a) corpus datum within the oracle bound and on
    pi_F^-1 of each such order."""
    data = [bk for bk, model in _type_a(models) if model is not None]
    cases = [(bk.order, entry.beta) for bk in data for entry in bk.seq.entries]
    cases += [(bk.order, bk.order.tower.pi_F() ** -1)
              for bk in {bk.order: bk for bk in data}.values()]
    failures = 0
    for order, beta in cases:
        if strata.k0_closed(order, beta) != oracle.oracle_k0(
                strata.oracle_model(models, order), beta):
            failures += 1
    return failures == 0, f"{len(cases)} strata, {failures} disagreements"


def suite_filtration_equalities(models):
    """H1 = Kd+ and J0 = oKd on every type (a) corpus datum, decided by the
    oracle within its bound: as lattices where the factor sets differ."""
    cases = with_oracle = failures = 0
    for bk, model in _type_a(models):
        equalities = translate.table_equalities(
            translate.h_group_table(bk.seq),
            translate.yu_group_table(translate.bk_to_yu(bk)), model)
        for held in equalities.values():
            cases += 1
            with_oracle += model is not None
            if not held:
                failures += 1
    return failures == 0, (f"{cases} comparisons ({with_oracle} with oracle), "
                           f"{failures} failed")


def suite_index_identity(models):
    """Product identity and even exponents for the index ledger, on every
    type (a) datum within the oracle bound."""
    cases = failures = 0
    for bk, model in _type_a(models):
        if model is None:
            continue
        _, verdicts = translate.ledger_indices(bk, translate.bk_to_yu(bk),
                                               model)
        cases += 1
        if not translate.ledger_holds(verdicts):
            failures += 1
    return failures == 0, f"{cases} data, {failures} failed verdicts"


def suite_character_depth(models):
    """psi_c trivial one step above its depth, nontrivial at it; the
    trace-module valuations are cross-checked against the oracle on every
    datum within its bound."""
    cases = failures = 0
    for bk, model in _type_a(models):
        for i in range(bk.seq.s + 1):
            entry = bk.seq.entries[i]
            v = -strata.nu_A(bk.order, entry.c)
            cases += 1
            hi = translate.char_module_valuation(entry.c, (entry.level, v + 1),
                                                 bk.order)
            lo = translate.char_module_valuation(entry.c, (entry.level, v),
                                                 bk.order)
            if not (hi >= 1 and lo < 1):
                failures += 1
            if model is not None:
                o_hi = oracle.oracle_char_module_min_ord(
                    model, entry.c, entry.level, v + 1)
                o_lo = oracle.oracle_char_module_min_ord(
                    model, entry.c, entry.level, v)
                if o_hi != hi or o_lo != lo:
                    failures += 1
    return failures == 0, f"{cases} levels, {failures} failures"


def suite_round_trips(models):
    """yu_to_bk . bk_to_yu is the identity on every corpus datum."""
    cases = failures = 0
    for _, bk in corpus.datum_corpus():
        cases += 1
        if not translate.round_trip_agrees(bk, translate.bk_to_yu(bk)):
            failures += 1
    return failures == 0, f"{cases} data (>= 50 required), {failures} failures"


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
    "index-identity": suite_index_identity,
    "character-depth": suite_character_depth,
    "round-trips": suite_round_trips,
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
