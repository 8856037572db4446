"""The shortcuts of the minimality routes and of tower construction agree
with the definitions they replace.

* The residue route reads pi^-nu * c^e from leading terms; the reference
  builds the full series product.
* Twists are solved on discrete logs and subgroups are tested on
  (mult, log u) pairs; the references search all units and compose
  GaloisElements.
* tame.first_difference merges term tuples; the reference builds a - b and
  defers to series_equal when it vanishes to precision.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tamestrata import corpus, minimal, tame
from tamestrata.errors import (
    NotInLevel, PrecisionExhausted, RootOfUnityMissing, VerificationFailed,
)
from tamestrata.ffq import FqField
from tamestrata.tame import GaloisElement


def _twisted_tower():
    # p=5, e=3, f=2, zeta of order 8: Frobenius lifts twist outside mu_3
    z = FqField(5, 2).gen() ** 3
    base = tame.make_tower(5, 3, 2, zeta=list(z.coeffs))
    inertia = frozenset(g for g in base.group if g.frob_power == 0)
    return tame.make_tower(5, 3, 2, zeta=list(z.coeffs),
                           levels=(frozenset([base.identity]), inertia,
                                   base.group))


def _tower(name):
    if name == "twisted":
        return _twisted_tower()
    if name == "F2":
        return tame.make_tower(2, 1, 1)          # k_L = F_2: n = 1
    return corpus.named_tower(name)


TOWERS = ["desk5", "desk3", "desk2", "desk2b", "deep5", "twisted", "F2"]


def _random_element(rng, tw, level, truncate):
    """A seeded element of E_level: a sum of level monomials, truncated
    above its last term when asked."""
    monos = tame.monomials_in_level(tw, level, -2, 2)
    picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    out = picked[0]
    for m in picked[1:]:
        out = out + m
    if truncate and out.terms:
        out = out.truncate_k(out.terms[-1][0] + rng.randint(1, tw.e))
    return out


def _outcome(fn):
    try:
        return "ok", fn()
    except (PrecisionExhausted, VerificationFailed) as exc:
        return type(exc).__name__, str(exc)


# -- residue route ------------------------------------------------------------

def _full_product_residue(tw, c, pi, nu, e_rel):
    # the series the residue route used to build
    x = (pi ** (-nu)) * (c ** e_rel)
    if x.ord() != 0:
        raise VerificationFailed(f"unit part has order {x.ord()}, not 0")
    return x.leading()[1]


@pytest.mark.parametrize("name", TOWERS)
def test_leading_term_residue_matches_full_product(name):
    tw = _tower(name)
    rng = random.Random(f"residue-{name}")
    checked = {"ok": 0, "VerificationFailed": 0}
    for level in range(tw.d + 1):
        for truncate in (False, True):
            for _ in range(6):
                c = _random_element(rng, tw, level, truncate)
                if not c.terms:
                    continue
                for low in range(level, tw.d + 1):
                    pi = tw.uniformizer(low)
                    for nu in (-2, -1, 0, 1, 2):
                        for e_rel in (1, 2, 3):
                            old = _outcome(lambda: _full_product_residue(
                                tw, c, pi, nu, e_rel))
                            new = _outcome(lambda: minimal._unit_residue(
                                tw, *c.leading(), pi.leading(), nu, e_rel))
                            assert new == old, (c, low, nu, e_rel)
                            checked[old[0]] += 1
    assert checked["ok"] and checked["VerificationFailed"]


# -- group construction and subgroup tests ------------------------------------

def _search_group(base, e, f, residue, zeta):
    # every unit tried against u^e = zeta / frob^j(zeta)
    units = [a for a in residue.elements() if not a.is_zero()]
    out = []
    for j in range(f):
        target = zeta * zeta.frobenius(base.f, j).inverse()
        sols = [u for u in units if u ** e == target]
        if not sols:
            raise RootOfUnityMissing(f"no twist for j={j}")
        out.extend(GaloisElement(j, u) for u in sols)
    return out


def _composed_is_subgroup(tw, subset):
    s = frozenset(subset)
    return (tw.identity in s and s <= tw.group
            and all(tw.compose(a, tw.invert(b)) in s for a in s for b in s))


@pytest.mark.parametrize("name", TOWERS)
def test_log_solved_group_matches_unit_search(name):
    tw = _tower(name)
    solvable = 0
    for zeta in tw.k.elements():
        if zeta.is_zero():
            continue
        try:
            ref = _search_group(tw.base, tw.e, tw.f, tw.k, zeta)
        except RootOfUnityMissing:
            with pytest.raises(RootOfUnityMissing):
                tame._build_group(tw.base, tw.e, tw.f, tw.k, zeta)
            continue
        got = tame._build_group(tw.base, tw.e, tw.f, tw.k, zeta)
        # same elements, inserted in the same order, so iteration agrees too
        assert list(got) == list(frozenset(ref))
        solvable += 1
    assert solvable


@pytest.mark.parametrize("name", [n for n in TOWERS
                                  if len(_tower(n).group) <= 8])
def test_log_pair_subgroup_on_every_subset(name):
    tw = _tower(name)
    elems = sorted(tw.group, key=GaloisElement.sort_key)
    found = 0
    for r in range(len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            expect = _composed_is_subgroup(tw, subset)
            assert tw.is_subgroup(subset) == expect, subset
            found += expect
    assert found >= 2 or len(elems) == 1


@pytest.mark.parametrize("name", ["deep5", "twisted", "desk5"])
def test_log_pair_subgroup_on_seeded_subsets(name):
    tw = _tower(name)
    rng = random.Random(f"subgroup-{name}")
    elems = sorted(tw.group, key=GaloisElement.sort_key)
    outside = [GaloisElement(0, tw.k.zero()), GaloisElement(tw.f, tw.k.one())]
    found = 0
    for _ in range(150):
        gens = rng.sample(elems, rng.randint(1, 3))
        closed = set(tw.closure(gens))
        for subset in (closed, closed - {rng.choice(sorted(
                closed, key=GaloisElement.sort_key))},
                closed | {rng.choice(elems)}, closed | {rng.choice(outside)},
                set(rng.sample(elems, rng.randint(0, len(elems))))):
            expect = _composed_is_subgroup(tw, subset)
            assert tw.is_subgroup(subset) == expect
            found += expect
    assert found


def _composed_coset_reps(tw, H_small, H_big):
    reps = []
    for g in sorted(H_big, key=GaloisElement.sort_key):
        if not any(tw.compose(tw.invert(r), g) in H_small for r in reps):
            reps.append(g)
    return tuple(reps)


@pytest.mark.parametrize("name", TOWERS)
def test_log_pair_coset_reps_match_composition(name):
    tw = _tower(name)
    subgroups = {tw.closure([g, h]) for g in tw.group for h in tw.group}
    pairs = 0
    for small in subgroups:
        for big in subgroups:
            if small <= big:
                assert tw.coset_reps(small, big) == \
                    _composed_coset_reps(tw, small, big)
                pairs += 1
    assert pairs >= len(tw.chain)


def test_coset_reps_are_left_cosets():
    # H = <Frobenius lift> is not normal in S_3: g H and H g differ
    tw = corpus.desk_tower_2()
    phi = next(g for g in sorted(tw.group, key=GaloisElement.sort_key)
               if g.frob_power == 1)
    H = tw.closure([phi])
    reps = tw.coset_reps(H, tw.group)
    cosets = {frozenset(tw.compose(r, h) for h in H) for r in reps}
    assert len(reps) == 3 and len(cosets) == 3
    assert frozenset().union(*cosets) == tw.group


def test_f2_tower_group_and_chain():
    tw = tame.make_tower(2, 1, 1)
    assert tw._n == 1 and tw.group == {tw.identity}
    assert tw.is_subgroup([tw.identity]) and not tw.is_subgroup([])
    assert tw.coset_reps(tw.group, tw.group) == (tw.identity,)


# -- first differing term -----------------------------------------------------

def _difference_ord(a, b):
    d = a - b
    if d.terms:
        return d.ord_k()
    tame.series_equal(a, b)     # raises unless a = b exactly
    return None


@pytest.mark.parametrize("name", TOWERS)
def test_first_difference_matches_series_difference(name):
    tw = _tower(name)
    rng = random.Random(f"difference-{name}")
    seen = set()
    for level in range(tw.d + 1):
        for truncate in (False, True):
            for _ in range(8):
                c = _random_element(rng, tw, level, truncate)
                try:
                    conj = [c.apply(g) for g in sorted(
                        tw.group, key=GaloisElement.sort_key)]
                except NotInLevel:              # a non-normal bottom level
                    continue
                # conjugates, a coarser truncation and an unrelated element
                extra = [c.truncate_k(c.terms[0][0] + 1) if c.terms else c,
                         _random_element(rng, tw, 0, rng.random() < 0.5)]
                for a, b in itertools.product(conj[:4] + extra, repeat=2):
                    old = _outcome(lambda: _difference_ord(a, b))
                    new = _outcome(lambda: tame.first_difference(a, b))
                    assert new == old, (a, b)
                    seen.add(old[0] if old[0] != "ok" else old[1] is None)
    assert {True, "PrecisionExhausted"} <= seen
    if len(tw.group) > 1:
        assert False in seen


def test_first_difference_examples():
    desk = corpus.desk_tower_5()
    w = desk.k.gen()
    a = desk.series(0, [(Fraction(-1, 2), 1), (0, w)], prec=2)
    assert tame.first_difference(a, a.apply(GaloisElement(0, desk.k.elem(-1)))) == -1
    assert tame.first_difference(a, a + desk.monomial(1, 1)) == 2
    assert tame.first_difference(desk.one(), desk.one()) is None
    with pytest.raises(PrecisionExhausted, match=r"s\^2$"):
        tame.first_difference(a, a + desk.monomial(1, 3))
