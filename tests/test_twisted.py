"""Towers whose uniformizer relation carries a nontrivial root of unity.

With t = zeta * s^e and zeta not fixed by Frobenius, the Frobenius lifts
in the Galois group carry twists outside mu_e, so these towers exercise
the fully general action.
"""

from fractions import Fraction

import pytest

from tamestrata import minimal, strata, tame, translate
from tamestrata.errors import NotSplitForm, RootOfUnityMissing
from tamestrata.ffq import FqField


@pytest.fixture(scope="module")
def twisted():
    # p=5, e=3, f=2, zeta = w^3 of order 8: solvable twist equations
    F25 = FqField(5, 2)
    z = F25.gen() ** 3
    base = tame.make_tower(5, 3, 2, zeta=list(z.coeffs))
    inertia = frozenset(g for g in base.group if g.frob_power == 0)
    return tame.make_tower(5, 3, 2, zeta=list(z.coeffs),
                           levels=(frozenset([base.identity]), inertia,
                                   base.group))


def test_group_and_levels(twisted):
    assert len(twisted.group) == 6
    # Frobenius lifts exist but their twists are not cube roots of unity
    lifts = [g for g in twisted.group if g.frob_power == 1]
    assert len(lifts) == 3
    assert all(g.twist ** 3 != twisted.k.one() for g in lifts)
    assert [twisted.level_e(i) for i in range(3)] == [3, 1, 1]
    assert [twisted.level_f(i) for i in range(3)] == [2, 2, 1]


def test_incompatible_zeta_rejected():
    # a zeta of full multiplicative order leaves the twist equation at the
    # Frobenius lift unsolvable for e = 3
    F25 = FqField(5, 2)
    gen24 = next(a for a in F25.elements()
                 if not a.is_zero() and a.multiplicative_order() == 24)
    with pytest.raises(RootOfUnityMissing):
        tame.make_tower(5, 3, 2, zeta=list(gen24.coeffs))


def test_uniformizer_relation(twisted):
    # every monomial uniformizer satisfies pi^e * (root of unity) = t
    for level in range(3):
        pi = twisted.uniformizer(level)
        e_i = twisted.level_e(level)
        ratio = twisted.pi_F() * (pi ** e_i).inverse()
        assert len(ratio.terms) == 1 and ratio.ord() == 0


def test_minimality_routes_agree_twisted(twisted):
    cases = 0
    for upper, lower in [(0, 1), (0, 2), (1, 2)]:
        for mono in tame.monomials_in_level(twisted, upper, -4, -1):
            cases += 1
            assert minimal.is_minimal(mono, upper, lower).consistent
            ge1 = minimal.ge1_check(mono, upper, lower).passed
            assert ge1 == minimal.is_minimal(mono, upper, lower).minimal
    assert cases > 100


def test_defining_sequence_round_trip_twisted(twisted):
    order = strata.make_order(twisted, twisted.level_degree(0))
    # find a two-block split-form element deterministically
    from tamestrata.corpus import blocks_for_levels
    blocks = blocks_for_levels(twisted, [0, 1], 1, order.e_A)
    assert blocks is not None
    bk = translate.make_bk_datum(order, blocks)
    yu = translate.bk_to_yu(bk)
    assert translate.skeletons_agree(bk, translate.yu_to_bk(yu))
    beta = bk.seq.entries[0].beta
    again = strata.decompose_split_form(order, beta)
    assert [lvl for lvl, _ in again] == [lvl for lvl, _ in blocks]


def test_mixed_chain_residue_degree_drop():
    # F_4((s)) > F_2((s)) > F_2((t)): the middle field loses the residue
    # extension but keeps the full ramification
    from tamestrata.corpus import desk_tower_2b
    tower = desk_tower_2b()
    assert [(tower.level_e(i), tower.level_f(i)) for i in range(3)] == \
        [(3, 2), (3, 1), (1, 1)]
    for upper, lower in [(0, 1), (0, 2), (1, 2)]:
        for mono in tame.monomials_in_level(tower, upper, -3, -1):
            assert minimal.is_minimal(mono, upper, lower).consistent


def test_not_split_form_without_trivial_top():
    # chain starting above {1}: terms outside E_0 are not split-form.
    # The public constructors already reject such series.
    base = tame.make_tower(5, 2, 2, residue_modulus=[2, 4, 1])
    tau = tame.GaloisElement(0, base.k.elem(-1))
    chain = (frozenset([base.identity, tau]), base.group)
    tower = tame.make_tower(5, 2, 2, residue_modulus=[2, 4, 1], levels=chain)
    order = strata.make_order(tower, tower.level_degree(0))
    with pytest.raises(tame.NotInLevel):
        tower.series(0, [(Fraction(-1, 2), 1)])
    # the defensive check still fires on an unvalidated series
    from tamestrata.tame import _make_series
    raw = _make_series(tower, 0, {-1: tower.k.one()}, None)
    with pytest.raises(NotSplitForm):
        strata.decompose_split_form(order, raw)
