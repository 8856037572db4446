import random
from fractions import Fraction

import pytest

from tamestrata import corpus, minimal, strata, tame
from tamestrata.errors import (
    NotDecomposable, NotMinimalSummand, ValuationOrder, ZeroToPrecision,
)


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


@pytest.fixture(scope="module")
def order(desk):
    return strata.make_order(desk, 4)


@pytest.fixture(scope="module")
def beta(desk):
    w = desk.k.gen()
    return desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])


def test_make_order(desk, order):
    assert order.m == (1, 2, 4)
    assert order.e_A == 2 and order.q == 5
    assert [order.e_B(i) for i in range(3)] == [1, 2, 2]


def test_nu_A(desk, order):
    w = desk.k.gen()
    assert strata.nu_A(order, desk.monomial(1, Fraction(-1, 2))) == -1
    assert strata.nu_A(order, desk.monomial(w, -1)) == -2
    assert strata.nu_A(order, desk.pi_F()) == 2
    with pytest.raises(ZeroToPrecision):
        strata.nu_A(order, desk.zero())


def test_k0_closed(desk, order, beta):
    w = desk.k.gen()
    assert strata.k0_closed(order, (desk.pi_F() ** -1).at_level(0)) is None
    assert strata.k0_closed(order, desk.monomial(w, Fraction(-1, 2))) == -1
    assert strata.k0_closed(order, beta) == -1


def test_stratum_classify(desk, order, beta):
    w = desk.k.gen()
    assert strata.stratum_classify(strata.Stratum(order, 2, 0, beta)) == "simple"
    assert strata.stratum_classify(strata.Stratum(order, 2, 1, beta)) == "pure"
    assert strata.stratum_classify(
        strata.Stratum(order, 3, 0, desk.monomial(w, -1))) == "neither"


def test_decompose_desk(desk, order, beta):
    w = desk.k.gen()
    blocks = strata.decompose_split_form(order, beta)
    assert [lvl for lvl, _ in blocks] == [0, 1]
    assert blocks[0][1].terms == desk.monomial(1, Fraction(-1, 2)).terms
    assert blocks[1][1].terms == desk.monomial(w, -1).terms


def test_decompose_single_minimal(desk, order):
    w = desk.k.gen()
    blocks = strata.decompose_split_form(order, desk.monomial(w, -1).at_level(0))
    assert [lvl for lvl, _ in blocks] == [1]


def test_decompose_degenerate_base_field(desk, order):
    t_inv = (desk.pi_F() ** -1).at_level(0)
    blocks = strata.decompose_split_form(order, t_inv)
    assert [lvl for lvl, _ in blocks] == [2]


def test_decompose_rejects_off_chain_field(desk, order):
    # s^{-3} + t^{-1} generates F_5((s)), which is not a chain level
    bad = desk.series(0, [(Fraction(-3, 2), 1), (-1, 1)])
    with pytest.raises(NotDecomposable):
        strata.decompose_split_form(order, bad)


@pytest.mark.parametrize("name", sorted(corpus.BUILTIN_TOWERS))
def test_decompose_returns_the_blocks_summed(name):
    # minimal blocks along a random level pattern, each given extra terms
    # of its own level between its leading term and the next shallower
    # block's: the split of their sum is exactly those blocks
    tw = corpus.named_tower(name)
    order = strata.make_order(tw, tw.level_degree(0))
    rng = random.Random(f"decompose/{name}")
    step = Fraction(1, tw.e)
    multi = 0
    for _ in range(30):
        levels = sorted(rng.sample(range(tw.d + 1), rng.randint(1, tw.d + 1)))
        blocks = corpus.blocks_for_levels(tw, levels, rng.randint(1, 3),
                                          order.e_A)
        if blocks is None:
            continue
        want = []
        for i, (lvl, c) in enumerate(blocks):
            top = blocks[i - 1][1].ord() - step if i else Fraction(2)
            extra = tame.monomials_in_level(tw, lvl, c.ord() + step, top)
            for m in rng.sample(extra, min(2, len(extra))):
                c = c + m
            want.append((lvl, c))
        beta = want[0][1]
        for _, c in want[1:]:
            beta = beta + c
        got = strata.decompose_split_form(order, beta)
        assert [(lvl, c.terms) for lvl, c in got] == \
            [(lvl, c.terms) for lvl, c in want]
        multi += len(want) > 1
    assert multi >= 5


def test_decompose_more_than_48_terms(desk, order):
    # the split is one scan, so the length of beta is not bounded
    w = desk.k.gen()
    top = desk.monomial(1, Fraction(-1, 2)) + desk.series(
        0, [(Fraction(k, 2), 1) for k in range(61)])
    beta = top + desk.monomial(w, -1)
    assert len(beta.terms) == 63
    blocks = strata.decompose_split_form(order, beta)
    assert [(lvl, c.terms) for lvl, c in blocks] == \
        [(0, top.terms), (1, desk.monomial(w, -1).terms)]


def test_build_defining_sequence(desk, order, beta):
    blocks = strata.decompose_split_form(order, beta)
    seq = strata.build_defining_sequence(order, blocks)
    assert seq.n == 2 and seq.s == 1 and seq.case == "B"
    assert [e.r for e in seq.entries] == [0, 1]
    assert seq.entries[0].beta.terms == beta.terms
    assert seq.entries[seq.s].level != desk.d


def test_build_case_A(desk, order):
    w = desk.k.gen()
    blocks = [(1, desk.monomial(w, -1)), (2, (desk.pi_F() ** -2).at_level(2))]
    seq = strata.build_defining_sequence(order, blocks)
    assert seq.case == "A" and seq.entries[seq.s].level == desk.d
    assert seq.n == 4


def test_build_single_block(desk, order):
    w = desk.k.gen()
    seq = strata.build_defining_sequence(
        order, [(0, desk.monomial(w, Fraction(-1, 2)))])
    assert seq.n == 1 and seq.s == 0 and seq.case == "B"


def test_build_rejects_bad_order(desk, order, beta):
    blocks = strata.decompose_split_form(order, beta)
    with pytest.raises(ValuationOrder):
        strata.build_defining_sequence(order, list(reversed(blocks)))


def test_build_rejects_nonminimal_summand(desk, order):
    # w*t^{-1} labelled at level 0 never generates E_0 over E_1
    w = desk.k.gen()
    with pytest.raises(NotMinimalSummand):
        strata.build_defining_sequence(
            order, [(0, desk.monomial(w, -1).at_level(0)),
                    (2, (desk.pi_F() ** -3).at_level(2))])


def test_verify_report_checks(desk, order, beta):
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    report = strata.verify_defining_sequence(seq)
    assert report.passed
    assert set(report.checks) == {
        "a_strata_simple", "b_levels_increase", "c_fields_nested",
        "d_k0_steps", "e_terminal_k0", "f_derived_simple"}


def test_verify_detects_tampering(desk, order, beta):
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    swapped = strata.DefiningSeq(
        order, seq.n,
        (strata.SeqEntry(0, seq.entries[0].beta, 0, seq.entries[1].c),
         strata.SeqEntry(2, seq.entries[1].beta, 1, seq.entries[0].c)),
        seq.s, seq.case)
    report = strata.verify_defining_sequence(swapped)
    assert not report.passed


def test_verify_detects_a_shifted_step(desk, order, beta):
    # r_1 one off breaks nu_A(beta_0 - beta_1) = -r_1
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    e1 = seq.entries[1]
    shifted = strata.DefiningSeq(
        order, seq.n,
        (seq.entries[0], strata.SeqEntry(e1.r + 1, e1.beta, e1.level, e1.c)),
        seq.s, seq.case)
    report = strata.verify_defining_sequence(shifted)
    assert report.checks["d_k0_steps"] is False


def test_roundtrip_decompose_build(desk, order):
    # sum of blocks reproduces beta termwise for every corpus sequence
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a" or bk.order.tower is not desk:
            continue
        seq = bk.seq
        total = seq.entries[0].c
        for e in seq.entries[1:]:
            total = total + e.c
        assert total.terms == seq.entries[0].beta.terms
        again = strata.decompose_split_form(bk.order, seq.entries[0].beta)
        rebuilt = strata.build_defining_sequence(bk.order, again)
        assert rebuilt.n == seq.n and rebuilt.case == seq.case
        assert [e.r for e in rebuilt.entries] == [e.r for e in seq.entries]


def test_intermediate_strata_simple(desk, order, beta):
    # [A, n, r_{i+1}-1, beta_i] is simple for each verified sequence entry
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    for i in range(seq.s):
        st = strata.Stratum(order, seq.n, seq.entries[i + 1].r - 1,
                            seq.entries[i].beta)
        assert strata.stratum_classify(st) == "simple"


def test_depth_monotonicity(order):
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        depths = [Fraction(-strata.nu_A(bk.order, e.c), bk.order.e_A)
                  for e in bk.seq.entries]
        assert all(a < b for a, b in zip(depths, depths[1:]))


def test_build_decides_each_block_once(monkeypatch):
    # the build reads the terminal k0 off its own report for block s, so it
    # never re-decides minimality of beta_s = c_s through minimal_over
    calls = []
    real = strata.minimal_over
    monkeypatch.setattr(strata, "minimal_over",
                        lambda *args: calls.append(args) or real(*args))
    seqs = [strata.build_defining_sequence(
                bk.order, [(e.level, e.c) for e in bk.seq.entries])
            for _, bk in corpus.datum_corpus() if bk.kind == "a"]
    assert seqs and not calls
    monkeypatch.undo()
    for seq in seqs:
        tw = seq.order.tower
        lows = [e.level for e in seq.entries[1:]] + [tw.d]
        reports = [minimal.is_minimal(e.c, e.level, low)
                   for e, low in zip(seq.entries, lows)]
        # the standalone check decides k0 of beta_s afresh and agrees
        report = strata.verify_defining_sequence(seq)
        assert report == strata._verify(seq, reports) and report.passed
