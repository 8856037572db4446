"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality, set equality); the
tolerances are zero by construction.  Each test prints a single PASS/FAIL
line so the acceptance run reads as a checklist; run with -s to see the
lines through pytest's capture.
"""

import time

import pytest

from tamestrata import verifysuite

_BUDGETS = {
    "minimal-equivalence": 30.0,     # criterion 1: < 30 s
    "critical-exponent": 120.0,      # criterion 4: < 2 min
}


def _run(name):
    start = time.time()
    passed, detail = verifysuite.ALL_SUITES[name]({})
    elapsed = time.time() - start
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail} "
          f"[{elapsed:.1f}s]")
    assert passed, f"{name}: {detail}"
    budget = _BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.1f}s)"
    return detail


def test_criterion_1_minimality_equivalence():
    # three criteria agree on 100% of exhaustive monomials, ord in [-6,-1],
    # over towers with p in {2,3,5}, e in {1,2,3}, f in {1,2}
    detail = _run("minimal-equivalence")
    assert ", 0 disagreements" in detail
    cases = int(detail.split()[0])
    assert cases >= 3 * 100          # at least three towers, fully enumerated


def test_criterion_2_generic_iff_minimal():
    detail = _run("generic-iff-minimal")
    assert ", 0 disagreements" in detail


def test_criterion_3_valuation_lemma():
    detail = _run("valuation-lemma")
    assert detail.startswith("1000 identities")


def test_criterion_4_critical_exponent():
    detail = _run("critical-exponent")
    cases = int(detail.split()[0])
    assert cases >= 10
    # every entry beta of the type (a) corpus within the oracle bound (122)
    # and pi_F^-1 of each of its six orders
    assert cases == 128


def test_criterion_5_filtration_equalities():
    detail = _run("filtration-equalities")
    # every comparison is made by the oracle
    assert detail.startswith("128 comparisons (128 with oracle)")


def test_criterion_6_index_identity():
    detail = _run("index-identity")
    cases = int(detail.split()[0])
    assert cases >= 10


def test_criterion_7_character_depth():
    _run("character-depth")


def test_criterion_8_round_trips():
    detail = _run("round-trips")
    cases = int(detail.split()[0])
    assert cases >= 50


def test_criterion_9_monomial_group_and_sr():
    _run("monomial-group")
