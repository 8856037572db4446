from fractions import Fraction

import pytest

from tamestrata import corpus, minimal, tame
from tamestrata.errors import NotInLevel, ZeroToPrecision


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


def test_minimal_generator(desk):
    w = desk.k.gen()
    rep = minimal.is_minimal(desk.monomial(w, Fraction(-1, 2)), 0, 2)
    assert rep.minimal and rep.consistent
    assert rep.cond_gcd and rep.cond_residue and rep.cond_generates
    assert rep.depth == Fraction(1, 2)


def test_base_field_element_not_minimal(desk):
    t_inv = (desk.pi_F() ** -1).at_level(0)
    rep = minimal.is_minimal(t_inv, 0, 2)
    assert not rep.cond_generates
    assert not rep.minimal and rep.consistent


def test_minimal_relative_intermediate(desk):
    rep = minimal.is_minimal(desk.monomial(1, Fraction(-1, 2)), 0, 1)
    assert rep.minimal and rep.consistent


def test_gcd_failure_detected(desk):
    # s^{-2} = t^{-1} viewed at level 0 generates only E_1
    rep = minimal.is_minimal(desk.monomial(1, -1), 0, 2)
    assert not rep.cond_generates and rep.consistent
    # w*s^{-2}: generates E_1 as well, not E_0
    rep = minimal.is_minimal(desk.monomial(desk.k.gen(), -1), 0, 2)
    assert not rep.minimal and rep.consistent


def test_non_monomial_routes_agree(desk):
    w = desk.k.gen()
    c = desk.series(0, [(Fraction(-1, 2), w), (Fraction(1, 2), w)])
    assert minimal.is_minimal(c, 0, 2).consistent
    assert minimal.is_minimal(c, 0, 2).minimal


def test_zero_raises(desk):
    with pytest.raises(ZeroToPrecision):
        minimal.is_minimal(desk.zero(), 0, 2)


def test_element_outside_level_raises(desk):
    with pytest.raises(NotInLevel):
        minimal.is_minimal(desk.monomial(1, Fraction(-1, 2)), 1, 2)


def test_terminal_block_in_F_is_minimal_for_trivial_step(desk):
    c = (desk.pi_F() ** -2).at_level(2)
    rep = minimal.is_minimal(c, 2, 2)
    assert rep.minimal and rep.consistent


def test_ge1_passes_on_minimal(desk):
    w = desk.k.gen()
    report = minimal.ge1_check(desk.monomial(w, Fraction(-1, 2)), 0, 2)
    assert report.passed
    assert len(report.pairs) == 6
    assert all(o == Fraction(-1, 2) for _, _, o in report.pairs)


def test_ge1_fails_on_fixed_element(desk):
    t_inv = (desk.pi_F() ** -1).at_level(0)
    report = minimal.ge1_check(t_inv, 0, 1)
    assert not report.passed
    assert all(o is None for _, _, o in report.pairs)


def test_ge1_intermediate_depth(desk):
    report = minimal.ge1_check(desk.monomial(1, Fraction(-3, 2)), 0, 1)
    assert report.passed
    assert all(o == Fraction(-3, 2) for _, _, o in report.pairs)


def test_ge1_iff_minimal_enumeration(desk):
    # one-tower slice of the full acceptance enumeration
    for mono in tame.monomials_in_level(desk, 0, -3, -1):
        ge1 = minimal.ge1_check(mono, 0, 2).passed
        assert ge1 == minimal.is_minimal(mono, 0, 2).minimal


def test_scaling_by_one_units(desk):
    # multiplying by a 1-unit leaves the minimality verdict unchanged
    w = desk.k.gen()
    u = desk.one() + desk.monomial(1, Fraction(1, 2)) + desk.monomial(w, 1)
    for mono in tame.monomials_in_level(desk, 0, -2, -1)[:40]:
        before = minimal.is_minimal(mono, 0, 2).minimal
        after = minimal.is_minimal(mono * u, 0, 2).minimal
        assert before == after
