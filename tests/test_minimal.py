from fractions import Fraction

import pytest

from tamestrata import corpus, minimal, strata, tame, translate
from tamestrata.errors import (
    NotInLevel, PrecisionExhausted, TameStrataError, ZeroToPrecision,
)


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


def test_minimal_over_decides_the_stabiliser_once(desk, monkeypatch):
    # minimal_over's target is c's stabiliser: the report computes it once
    calls = []
    real = minimal.stabilizer_within
    monkeypatch.setattr(minimal, "stabilizer_within",
                        lambda c, H: calls.append(H) or real(c, H))
    assert minimal.minimal_over(desk.monomial(desk.k.gen(), Fraction(-1, 2)), 2)
    assert calls == [desk.chain[2]]


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


def _type_a_data():
    return [bk for _, bk in corpus.datum_corpus() if bk.kind == "a"]


def _steps(bk):
    """(element, upper, lower) of each block of a datum for its step, and
    of each beta_i for its level over F."""
    seq, d = bk.seq, bk.order.tower.d
    entries = seq.entries
    for i, e in enumerate(entries):
        low = entries[i + 1].level if i < seq.s else d
        yield e.c, e.level, low
        yield e.beta, e.level, d


def test_a_build_decides_no_cross_check(monkeypatch):
    # a build and k0 read only the definition route: no Galois conjugate
    data = _type_a_data()
    assert len(data) == 64
    applies = []
    real = tame.TameSeries.apply
    monkeypatch.setattr(tame.TameSeries, "apply",
                        lambda self, g: applies.append(g) or real(self, g))
    for bk in data:
        blocks = [(e.level, e.c) for e in bk.seq.entries]
        order = strata.make_order(bk.order.tower, bk.order.N)
        assert translate.make_bk_datum(order, blocks) == bk
        for e in bk.seq.entries:
            fresh = strata.make_order(bk.order.tower, bk.order.N)
            strata.k0_closed(fresh, e.beta)
    assert applies == []
    # the cross-checks still run when read, in either order, to one report
    c, upper, lower = next(_steps(data[0]))
    sr_first = minimal.is_minimal(c, upper, lower)
    assert sr_first.via_sr and sr_first.via_galois
    galois_first = minimal.is_minimal(c, upper, lower)
    assert galois_first.via_galois and galois_first.via_sr
    assert applies and sr_first == galois_first and galois_first.consistent


def _outcome(x, upper, lower):
    try:
        return minimal.is_minimal(x, upper, lower)
    except TameStrataError as exc:
        return type(exc)


def test_is_minimal_on_truncations_raises_or_agrees():
    # a truncation either raises PrecisionExhausted at the call or gives the
    # exact element's report, every field (the cross-checks too) readable
    agreed = 0
    for bk in _type_a_data():
        for x, upper, lower in _steps(bk):
            exact = _outcome(x, upper, lower)
            for prec in range(x.ord_k() + 1, x.terms[-1][0] + 2):
                cut = tame.TameSeries(x.tower, x.level,
                                      tuple(t for t in x.terms if t[0] < prec),
                                      prec)
                got = _outcome(cut, upper, lower)
                if got is PrecisionExhausted:
                    continue
                assert got == exact, (x, prec)
                if isinstance(got, minimal.MinimalityReport):
                    assert got.consistent == exact.consistent
                    agreed += 1
    assert agreed
