"""Precision propagation and the refusal to guess at unseen tails."""

from fractions import Fraction

import pytest

from tamestrata import corpus, minimal, strata, tame
from tamestrata.errors import PrecisionExhausted, TowerMismatch, ZeroToPrecision


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


def test_mul_precision_formula(desk):
    a = desk.series(0, [(Fraction(-1, 2), 1)], prec=2)
    b = desk.series(0, [(1, 1)], prec=3)
    prod = a * b
    # min(prec_a + ord_b, prec_b + ord_a) = min(2+1, 3-1/2) = 5/2
    assert prod.prec() == Fraction(5, 2)


def test_add_precision_min(desk):
    a = desk.series(0, [(0, 1)], prec=2)
    b = desk.series(0, [(1, 1)], prec=5)
    assert (a + b).prec() == 2


def test_inverse_precision_shift(desk):
    a = desk.series(0, [(-2, 1), (0, 1)], prec=4)
    inv = a.inverse()
    assert inv.prec() == 4 - 2 * (-2)    # prec - 2*ord
    check = a * inv - desk.one()
    assert check.is_zero_to_prec()


def test_exact_monomial_inverse_stays_exact(desk):
    m = desk.monomial(desk.k.gen(), Fraction(-3, 2))
    assert m.inverse().prec_k is None


def test_zero_to_precision_vs_exact_zero(desk):
    exact = desk.zero()
    assert not exact.terms and exact.prec_k is None
    fuzzy = desk.series(0, [], prec=3)
    assert fuzzy.is_zero_to_prec() and not (not fuzzy.terms and fuzzy.prec_k is None)
    with pytest.raises(ZeroToPrecision):
        fuzzy.ord()


def test_series_equal_raises_when_undecidable(desk):
    a = desk.series(2, [(0, 1)], prec=4)
    b = desk.series(2, [(0, 1)], prec=4)
    with pytest.raises(PrecisionExhausted):
        tame.series_equal(a, b)


def test_series_equal_rejects_inequivalent_towers(desk):
    other = corpus.desk_tower_3()
    assert other != desk
    with pytest.raises(TowerMismatch):
        tame.series_equal(desk.monomial(1, -1), other.monomial(1, -1))


def test_minimality_with_enough_precision(desk):
    # a unit multiple known to finite precision: the leading blocks decide
    w = desk.k.gen()
    u = (desk.one() + desk.monomial(1, Fraction(1, 2))).inverse()
    c = desk.monomial(w, Fraction(-1, 2)) * u
    assert c.prec_k is not None
    rep = minimal.is_minimal(c, 0, 2)
    assert rep.minimal and rep.consistent


def test_ge1_with_finite_precision(desk):
    w = desk.k.gen()
    u = (desk.one() + desk.monomial(1, Fraction(1, 2))).inverse()
    c = desk.monomial(w, Fraction(-1, 2)) * u
    assert minimal.ge1_check(c, 0, 2).passed


def test_k0_with_finite_precision(desk):
    w = desk.k.gen()
    order = strata.make_order(desk, 4)
    u = (desk.one() + desk.monomial(1, Fraction(1, 2))).inverse()
    beta = (desk.series(0, [(-1, w), (Fraction(-1, 2), 1)]) * u)
    assert strata.k0_closed(order, beta) == -1


def test_stabilizer_undecidable_tail(desk):
    a = desk.series(2, [(0, 1)], prec=Fraction(3, 2))
    with pytest.raises(PrecisionExhausted):
        tame.stabilizer_within(a, desk.group)
