import json
import random
from fractions import Fraction

import pytest

from tamestrata import cli, corpus, tame
from tamestrata.errors import (
    BadChain, FieldMismatch, NotInLevel, NotTame, PrecisionExhausted, RootOfUnityMissing,
    ZeroToPrecision,
)
from tamestrata.ffq import FqField
from tamestrata.tame import GaloisElement, TowerSpec


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


def test_tower_make_desk(desk):
    assert desk.e == 2 and desk.f == 2
    assert len(desk.group) == 4
    assert [desk.level_degree(i) for i in range(3)] == [4, 2, 1]
    assert [desk.level_e(i) for i in range(3)] == [2, 1, 1]
    assert [desk.level_f(i) for i in range(3)] == [2, 2, 1]


def test_tower_make_rejects_wild():
    with pytest.raises(NotTame):
        tame.make_tower(5, 5, 1)


def test_tower_make_rejects_missing_roots():
    # e = 3 needs mu_3 in the residue field: 3 does not divide 5 - 1
    with pytest.raises(RootOfUnityMissing):
        tame.make_tower(5, 3, 1)


def test_tower_make_rejects_nonpositive_ramification():
    # the Tower validates e before solving the group or testing tameness
    for e in (0, -1):
        with pytest.raises(BadChain, match="e and f must be positive"):
            tame.make_tower(5, e, 2)


def test_default_chain_towers_round_trip_through_documents():
    for tw in [tame.make_tower(3, 2, 2), *corpus.standard_towers()]:
        copy = cli.parse_tower(json.loads(json.dumps(cli.emit_tower(tw))))
        assert copy.equivalent(tw) and tw.equivalent(copy)
        a, b = tw.monomial(1, -1), copy.monomial(1, -1)
        assert a + b == b + a == 2 * a


def test_tower_make_rejects_lazy_chain(desk):
    tau = GaloisElement(0, desk.k.elem(-1))
    h1 = frozenset([desk.identity, tau])
    spec = TowerSpec(desk.base, 2, 2, desk.k, desk.zeta, (h1, h1, desk.group))
    with pytest.raises(BadChain):
        tame.Tower(spec)


def test_series_arith_cancellation(desk):
    s_inv = desk.monomial(1, Fraction(-1, 2))
    z = s_inv + (-s_inv)
    assert z.is_zero_to_prec() and z.prec_k is None


def test_series_mul_monomials(desk):
    w = desk.k.gen()
    a = desk.monomial(w, -1)
    b = desk.monomial(1, 1)
    assert (a * b).terms == desk.monomial(w, 0).terms


def test_series_inverse_geometric(desk):
    one_plus_s = desk.one() + desk.monomial(1, Fraction(1, 2))
    inv = one_plus_s.inverse()
    assert inv.prec_k is not None
    back = one_plus_s * inv
    assert back.leading() == (0, desk.k.one())
    assert len(back.terms) == 1          # 1 + O(prec)
    # alternating signs
    signs = [c for _, c in inv.terms[:4]]
    assert signs[0] == desk.k.one() and signs[1] == desk.k.elem(-1)


def test_inverse_of_zero_raises(desk):
    with pytest.raises(ZeroToPrecision):
        desk.zero().inverse()


def test_ord_and_nu(desk):
    w = desk.k.gen()
    assert tame.ord_and_nu(desk.monomial(1, Fraction(-1, 2)), 0) == \
        (Fraction(-1, 2), -1)
    assert tame.ord_and_nu(desk.monomial(w, -1), 1) == (Fraction(-1), -1)
    assert tame.ord_and_nu(desk.pi_F() ** 3, 2) == (Fraction(3), 3)
    with pytest.raises(NotInLevel):
        tame.ord_and_nu(desk.monomial(1, Fraction(-1, 2)), 1)


def test_galois_elements_counts(desk):
    assert len(desk.galois_sorted(desk.chain[2])) == 4
    assert desk.galois_sorted(desk.chain[0]) == [desk.identity]
    assert len(desk.galois_sorted(desk.chain[1])) == 2


def test_galois_apply_action(desk):
    w = desk.k.gen()
    tau = GaloisElement(0, desk.k.elem(-1))
    a = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    ta = a.apply(tau)
    expect = desk.series(0, [(-1, w), (Fraction(-1, 2), -1)])
    assert ta.terms == expect.terms
    phi = GaloisElement(1, desk.k.one())
    wa = desk.monomial(w, -1).apply(phi)
    assert wa.terms == desk.monomial(w ** 5, -1).terms


def test_galois_apply_is_ring_morphism(desk):
    rng = random.Random(7)
    elems = [a for a in desk.k.elements() if not a.is_zero()]
    for g in desk.galois_sorted():
        for _ in range(20):
            a = desk.series(0, [(Fraction(rng.randint(-4, 4), 2),
                                 rng.choice(elems))])
            b = desk.series(0, [(Fraction(rng.randint(-4, 4), 2),
                                 rng.choice(elems))])
            assert (a * b).apply(g).terms == \
                (a.apply(g) * b.apply(g)).terms
            assert (a + b).apply(g).terms == \
                (a.apply(g) + b.apply(g)).terms
            assert a.apply(g).ord() == a.ord()


def test_stabilizer_field(desk):
    # (degree, e, f) of F[a] from the stabiliser of a, by Galois correspondence
    w = desk.k.gen()
    sub = tame.stabilizer_within(desk.monomial(w, 0), desk.group)
    assert desk.field_invariants(sub) == (2, 1, 2) and len(sub) == 2
    sub = tame.stabilizer_within(desk.monomial(1, Fraction(-1, 2)), desk.group)
    assert desk.field_invariants(sub) == (2, 2, 1)
    a = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    sub = tame.stabilizer_within(a, desk.group)
    assert desk.field_invariants(sub)[0] == 4 and sub == frozenset([desk.identity])
    assert tame.stabilizer_within(desk.zero(), desk.group) == desk.group
    assert desk.field_invariants(desk.group) == (1, 1, 1)


def test_stabilizer_precision_exhausted(desk):
    # visible parts of all conjugates agree; the tail is unknown
    a = desk.series(2, [(0, 1)], prec=1)
    with pytest.raises(PrecisionExhausted):
        tame.stabilizer_within(a, desk.group)


def test_sr_standard_rep(desk):
    w = desk.k.gen()
    a = desk.series(0, [(Fraction(-1, 2), w), (Fraction(1, 2), w)])
    mono = tame.sr_standard_rep(a)
    assert mono.coeff == w and mono.exponent == Fraction(-1, 2)
    c = desk.monomial(w, 3)
    assert tame.sr_standard_rep(c).to_series(desk).terms == c.terms


def test_sr_multiplicative(desk):
    rng = random.Random(3)
    elems = [a for a in desk.k.elements() if not a.is_zero()]
    for _ in range(50):
        a = desk.series(0, [(Fraction(k, 2), rng.choice(elems))
                            for k in rng.sample(range(-4, 5), 2)])
        b = desk.series(0, [(Fraction(k, 2), rng.choice(elems))
                            for k in rng.sample(range(-4, 5), 2)])
        sa, sb = tame.sr_standard_rep(a), tame.sr_standard_rep(b)
        sab = tame.sr_standard_rep(a * b)
        assert sab.coeff == sa.coeff * sb.coeff
        assert sab.exponent == sa.exponent + sb.exponent


def test_sr_commutes_with_galois(desk):
    rng = random.Random(11)
    elems = [a for a in desk.k.elements() if not a.is_zero()]
    for _ in range(200):
        a = desk.series(0, [(Fraction(k, 2), rng.choice(elems))
                            for k in rng.sample(range(-5, 6), rng.randint(1, 3))])
        if a.is_zero_to_prec():
            continue
        for g in desk.galois_sorted():
            lhs = tame.sr_standard_rep(a.apply(g)).to_series(desk)
            rhs = tame.sr_standard_rep(a).to_series(desk).apply(g)
            assert lhs.terms == rhs.terms


def test_trace_norm(desk):
    w = desk.k.gen()
    tr = tame.trace_norm("trace", desk.monomial(w, 0, level=1), 1, 2)
    assert tr.terms == desk.one().terms                      # w + w^5 = 1
    s_inv = desk.monomial(1, Fraction(-1, 2))
    assert tame.trace_norm("trace", s_inv, 0, 1).is_zero_to_prec()
    nm = tame.trace_norm("norm", s_inv, 0, 1)
    assert nm.terms == desk.monomial(-1, -1).terms           # -t^{-1}
    assert nm.in_level(1)


def test_conjugate_difference_ord_exhaustive():
    # distinct Galois images of a monomial differ at the monomial's own ord
    for factory in (corpus.desk_tower_5, corpus.desk_tower_3,
                    corpus.desk_tower_2):
        tower = factory()
        for m in tame.monomials_in_level(tower, 0, -3, 3):
            images = [m.apply(g) for g in tower.galois_sorted()]
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    d = images[i] - images[j]
                    if not d.is_zero_to_prec():
                        assert d.ord() == m.ord()


def test_monomials_in_level_counts(desk):
    # level 1 = F_25((t)): ord in [-2,-1] means t-exponents -2, -1
    monos = tame.monomials_in_level(desk, 1, -2, -1)
    assert len(monos) == 2 * 24
    assert all(m.in_level(1) for m in monos)


def test_serialization_of_exponents_is_exact(desk):
    a = desk.series(0, [(Fraction(-3, 2), 1)], prec=Fraction(7, 2))
    assert a.prec() == Fraction(7, 2)
    assert a.ord() == Fraction(-3, 2)


# ---------------------------------------------------------------------------
# the log-congruence core against the FqElem-arithmetic definitions
# ---------------------------------------------------------------------------

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
    if name.startswith("std"):
        return next(t for t in corpus.standard_towers()
                    if f"std{t.base.p}e{t.e}f{t.f}" == name)
    return corpus.named_tower(name)


TOWER_NAMES = (["desk5", "desk3", "desk2", "desk2b", "deep5", "twisted"]
               + [f"std{t.base.p}e{t.e}f{t.f}"
                  for t in corpus.standard_towers()])


def _ref_coeff(tw, g, k, c):
    return c.frobenius(tw.base.f, g.frob_power) * g.twist ** k


def _ref_image(a, g):
    tw = a.tower
    return tame._make_series(
        tw, 0, {k: _ref_coeff(tw, g, k, c) for k, c in a.terms}, a.prec_k)


def _ref_in_level(a, i):
    return all(not (_ref_image(a, g) - a).terms for g in a.tower.chain[i])


def _ref_stabilizer(a, H):
    return frozenset(g for g in H if g == a.tower.identity
                     or tame.series_equal(_ref_image(a, g), a))


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhausted:
        return PrecisionExhausted


def _monomials(tw):
    # every monomial of L with ord in [-3, 3], each at its natural level
    units = [c for c in tw.k.elements() if not c.is_zero()]
    out = []
    for k in range(-3 * tw.e, 3 * tw.e + 1):
        for c in units:
            m = tame._make_series(tw, 0, {k: c}, None)
            level = max(i for i in range(tw.d + 1) if _ref_in_level(m, i))
            out.append(tame._make_series(tw, level, {k: c}, None))
    return out


def _ref_tag(tw, g, level):
    # the largest i with H_i inside g H_level g^-1
    conj = {tw.compose(tw.compose(g, h), tw.invert(g)) for h in tw.chain[level]}
    return max((i for i in range(tw.d + 1) if tw.chain[i] <= conj), default=None)


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_apply_matches_frobenius_twist_formula(name):
    tw = _tower(name)
    tags = {(g, i): _ref_tag(tw, g, i) for g in tw.group for i in range(tw.d + 1)}
    for m in _monomials(tw):
        (k, c), = m.terms
        assert m.natural_level() == m.level
        for g in tw.group:
            r = m.apply(g)
            assert r.terms == ((k, _ref_coeff(tw, g, k, c)),)
            assert r.prec_k is None and r.in_level(r.level)
            assert r.level == tags[g, m.level]
            assert tame.is_fixed_by(m, g) == (r.terms == m.terms)


@pytest.mark.parametrize("name", TOWER_NAMES)
def test_fixedness_and_stabilizers_match_series_difference(name):
    tw = _tower(name)
    rng = random.Random(17)
    monos = _monomials(tw)
    samples = []
    for level in range(tw.d + 1):
        pool = [m for m in monos if m.level >= level]
        for _ in range(12):
            a = tw.zero(level)
            for m in rng.sample(pool, min(3, len(pool))):
                a = a + m
            if a.terms:
                samples.append(a)
    raised = 0
    for a in samples:
        levels = [i for i in range(tw.d + 1) if _ref_in_level(a, i)]
        assert [i for i in range(tw.d + 1) if a.in_level(i)] == levels
        assert a.natural_level() == max(levels)
        for g in tw.group:
            fixed = not (_ref_image(a, g) - a).terms
            assert tame.is_fixed_by(a, g) == fixed
            r = a.apply(g)
            assert r.terms == _ref_image(a, g).terms and r.in_level(r.level)
        for H in tw.chain + (tw.group,):
            assert tame.stabilizer_within(a, H) == _ref_stabilizer(a, H)
        # a truncation just past the last visible term
        b = a.truncate_k(a.terms[-1][0] + 1)
        new = _outcome(lambda: tame.stabilizer_within(b, tw.group))
        assert new == _outcome(lambda: _ref_stabilizer(b, tw.group))
        raised += new is PrecisionExhausted
    if len(tw.group) > 1:
        assert raised > 0


@pytest.mark.parametrize("name", ["desk5", "deep5", "twisted", "std2e3f2"])
def test_monomials_in_level_match_fixedness(name):
    tw = _tower(name)
    monos = _monomials(tw)
    for level in range(tw.d + 1):
        got = tame.monomials_in_level(tw, level, -3, 3)
        assert [m.terms for m in got] == \
            [m.terms for m in monos if m.level >= level]
        assert all(m.level == level for m in got)


def test_stabilizer_with_non_normal_bottom_level():
    # H_0 = <Frobenius lift> is not normal in S_3: its conjugate fields are
    # not chain fields, yet the stabiliser of a uniformizer of E_0 is exact
    base = tame.make_tower(2, 3, 2)
    phi = next(g for g in base.galois_sorted() if g.frob_power == 1)
    h0 = base.closure([phi])
    tw = tame.make_tower(2, 3, 2, levels=(h0, base.group))
    pi = tw.uniformizer(0)
    assert tame.stabilizer_within(pi, tw.group) == h0
    assert tame.stabilizer_within(pi, tw.group) == _ref_stabilizer(pi, tw.group)
    assert tw.field_invariants(h0) == (3, 3, 1)
    outside = [g for g in tw.group
               if tw.compose(tw.compose(g, phi), tw.invert(g)) not in h0]
    assert outside
    for g in outside:
        with pytest.raises(NotInLevel):
            pi.apply(g)


def test_constants_outside_k_F_get_a_sound_level(desk):
    w = desk.k.gen()
    phi = GaloisElement(1, desk.k.one())
    for a in (desk.pi_F() * w, desk.pi_F() + w, desk.one() - w):
        assert a.level == 1 and a.in_level(a.level)
        assert a.apply(phi).in_level(a.apply(phi).level)
    assert (desk.pi_F() * 3).level == desk.d
    base = tame.make_tower(2, 3, 2)
    lift = next(g for g in base.galois_sorted() if g.frob_power == 1)
    tw = tame.make_tower(2, 3, 2, levels=(base.closure([lift]), base.group))
    with pytest.raises(NotInLevel):
        tw.one() + tw.k.gen()           # F_4 \ F_2 lies in no chain field


def test_residue_constant_on_the_left(desk):
    # FqElem defers to the series' reflected operators
    w = desk.k.gen()
    t = desk.pi_F()
    assert w * t == t * w and (w * t).terms == ((desk.e, w * desk.zeta),)
    assert w + t == t + w
    assert w - t == -(t - w) and (w - t).terms != (t - w).terms
    with pytest.raises(FieldMismatch):
        FqField(3, 1).one() * t
    with pytest.raises(FieldMismatch):
        FqField(3, 1).one() + w


def test_trivial_unit_group():
    # k_L = F_2: one unit, logs live mod 1
    tw = tame.make_tower(2, 1, 1)
    a = tw.series(0, [(-2, 1), (1, 1)], prec=3)
    assert a.natural_level() == tw.d == 0
    assert a.apply(tw.identity).terms == a.terms
    assert tame.stabilizer_within(a, tw.group) == tw.group
    assert len(tame.monomials_in_level(tw, 0, -1, 1)) == 3


def test_series_equality_across_deserialised_tower(desk):
    copy = cli.parse_tower(cli.emit_tower(desk))
    assert copy is not desk and copy.equivalent(desk)
    w = desk.k.gen()
    terms = [(-1, w), (Fraction(-1, 2), 1)]
    a = desk.series(0, terms, prec=3)
    b = copy.series(0, [(-1, list(w.coeffs)), (Fraction(-1, 2), 1)], prec=3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != desk.series(0, terms) and a != desk.series(0, terms[:1], prec=3)
