import random
from collections import Counter
from fractions import Fraction

import pytest

from reference import assemble_sequence, sequence_conditions
from tamestrata import cli, corpus, strata, tame, translate
from tamestrata.errors import (
    NotDecomposable, NotInLevel, NotMinimalSummand, PrecisionExhausted,
    TowerMismatch, ValuationOrder, VerificationFailed, ZeroToPrecision,
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


def test_k0_closed_truncated_central_beta_raises(desk, order):
    # an unseen term w * s^(-1/2) would make k0 = -1, so a truncated beta
    # whose visible terms lie in F is not taken for a central one
    central = (desk.pi_F() ** -1).at_level(0)
    for truncated in (central.truncate_k(-1), desk.zero().truncate_k(0)):
        assert truncated.prec_k is not None
        with pytest.raises(PrecisionExhausted):
            strata.k0_closed(order, truncated)
    assert strata.k0_closed(order, desk.zero()) is None


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
    assert strata.verify_defining_sequence(seq) is True


def test_verify_detects_tampering(desk, order, beta):
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    swapped = strata.DefiningSeq(
        order, seq.n,
        (strata.SeqEntry(0, seq.entries[0].beta, 0, seq.entries[1].c),
         strata.SeqEntry(2, seq.entries[1].beta, 1, seq.entries[0].c)),
        seq.s, seq.case)
    assert strata.verify_defining_sequence(swapped) is False


def test_verify_detects_a_shifted_step(desk, order, beta):
    # r_1 one off breaks nu_A(beta_0 - beta_1) = -r_1
    seq = strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))
    e1 = seq.entries[1]
    shifted = strata.DefiningSeq(
        order, seq.n,
        (seq.entries[0], strata.SeqEntry(e1.r + 1, e1.beta, e1.level, e1.c)),
        seq.s, seq.case)
    assert strata.verify_defining_sequence(shifted) is False


def _block_lists(seed, count):
    """count seeded (tower, N, blocks), then each corpus datum's blocks.
    The tower is a built-in or standard one and N is [E_0:F] or twice it.
    A list has 1-3 blocks at sorted random levels, reversed one time in
    ten; a block sums 1-3 monomials of its level, at distinct exponents
    from -8 to 1 in units of the level's uniformizer, and one in five is
    truncated 1-4 of those units above its top term."""
    rng = random.Random(seed)
    towers = ([corpus.named_tower(name) for name in sorted(corpus.BUILTIN_TOWERS)]
              + list(corpus.standard_towers()))
    monomials = {}          # (tower, level) -> [(k, monomials)]
    for _ in range(count):
        tw = rng.choice(towers)
        N = tw.level_degree(0) * rng.choice((1, 2))
        levels = sorted(rng.randrange(tw.d + 1) for _ in range(rng.randint(1, 3)))
        blocks = []
        for lvl in levels:
            if (tw, lvl) not in monomials:
                by_k = {}
                e_i = tw.level_e(lvl)
                for mono in tame.monomials_in_level(
                        tw, lvl, Fraction(-8, e_i), Fraction(1, e_i)):
                    by_k.setdefault(mono.terms[0][0], []).append(mono)
                monomials[tw, lvl] = sorted(by_k.items())
            cands = monomials[tw, lvl]
            c = None
            for _, monos in rng.sample(cands, min(len(cands), rng.randint(1, 3))):
                mono = rng.choice(monos)
                c = mono if c is None else c + mono
            if rng.random() < 0.2:
                unit = tw.e // tw.level_e(lvl)
                c = c.truncate_k(c.terms[-1][0] + rng.randint(1, 4) * unit)
            blocks.append((lvl, c))
        if rng.random() < 0.1:
            blocks.reverse()
        yield tw, N, blocks
    for _, bk in corpus.datum_corpus():
        if bk.kind == "a":
            yield (bk.order.tower, bk.order.N,
                   [(e.level, e.c) for e in bk.seq.entries])


def test_build_accepts_exactly_the_lists_whose_conditions_hold():
    # the build's one pass of checks accepts a block list exactly when the
    # six named conditions, each decided afresh, hold on the sequence it
    # spells; each rejection has the class the former second verification
    # pass gave, and a shallowest block of depth <= 0 is named
    outcomes = Counter()
    for tw, N, blocks in _block_lists(7, 2000):
        order = strata.make_order(tw, N)
        spelled = assemble_sequence(order, blocks)
        holds = all(sequence_conditions(spelled).values())
        try:
            seq = strata.build_defining_sequence(order, blocks)
        except (ValuationOrder, NotMinimalSummand, PrecisionExhausted,
                VerificationFailed) as exc:
            assert not holds, blocks
            if isinstance(exc, VerificationFailed):
                depth = -strata.nu_A(order, blocks[0][1])
                assert f"shallowest block has depth {depth}," in str(exc)
            outcomes[type(exc).__name__] += 1
            continue
        assert holds and seq == spelled, blocks
        outcomes["built"] += 1
    assert outcomes == {"built": 458, "ValuationOrder": 1118,
                        "NotMinimalSummand": 315, "PrecisionExhausted": 144,
                        "VerificationFailed": 29}


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


def test_intermediate_strata_simple():
    # [A, n, r_{i+1}-1, beta_i] is simple: beta_i is pure of depth n and
    # its critical exponent is -r_{i+1}
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        seq = bk.seq
        for i in range(seq.s):
            beta_i = seq.entries[i].beta
            assert strata.nu_A(bk.order, beta_i) == -seq.n, label
            assert strata.k0_closed(bk.order, beta_i) == -seq.entries[i + 1].r, label


def test_depths_read_off_the_sequence():
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        seq, order = bk.seq, bk.order
        assert seq.depths == tuple(-strata.nu_A(order, e.c) for e in seq.entries)
        assert [cf.depth for cf in bk.theta_factors] == [
            Fraction(v, order.e_A) for v in seq.depths]


def test_depth_monotonicity(order):
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        depths = [Fraction(-strata.nu_A(bk.order, e.c), bk.order.e_A)
                  for e in bk.seq.entries]
        assert all(a < b for a, b in zip(depths, depths[1:]))


def test_build_decides_each_block_once(monkeypatch):
    # block s's own minimality check is the terminal one, so the build never
    # re-decides minimality of beta_s = c_s through minimal_over
    calls = []
    real = strata.minimal_over
    monkeypatch.setattr(strata, "minimal_over",
                        lambda *args: calls.append(args) or real(*args))
    # fresh orders: the corpus orders already keep these sequences
    seqs = [strata.build_defining_sequence(
                strata.make_order(bk.order.tower, bk.order.N),
                [(e.level, e.c) for e in bk.seq.entries])
            for _, bk in corpus.datum_corpus() if bk.kind == "a"]
    assert seqs and not calls
    monkeypatch.undo()
    assert all(strata.verify_defining_sequence(seq) for seq in seqs)


def test_nu_A_is_e_A_times_ord_on_the_corpus():
    checked = 0
    for _, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        for e in bk.seq.entries:
            for x in (e.c, e.beta):
                assert strata.nu_A(bk.order, x) == bk.order.e_A * x.ord()
                checked += 1
    assert checked > 100


def test_nu_A_raises_off_the_order_lattice():
    # E_0 = F: the order's period is 1, and s^-1 has ord -1/2
    tw = tame.make_tower(5, 2, 1, levels=(tame.make_tower(5, 2, 1).group,))
    order = strata.make_order(tw, 1)
    assert order.e_A == 1 and tw.e == 2
    half = tame.TameSeries(tw, 0, ((-1, tw.k.one()),), None)
    with pytest.raises(NotInLevel):
        strata.nu_A(order, half)
    assert strata.nu_A(order, half * half) == -1
    with pytest.raises(ZeroToPrecision):
        strata.nu_A(order, tame.TameSeries(tw, 0, (), 3))


def _counting_is_minimal(monkeypatch):
    calls = []
    real = strata.is_minimal
    monkeypatch.setattr(strata, "is_minimal",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_equal_blocks_verify_once_per_order(desk, beta, monkeypatch):
    order = strata.make_order(desk, 4)
    bk = translate.make_bk_datum(order, strata.decompose_split_form(order, beta))
    # equal content in new objects, as a caller rebuilding the blocks has
    copies = [(e.level, tame.TameSeries(desk, e.c.level, e.c.terms, e.c.prec_k))
              for e in bk.seq.entries]
    calls = _counting_is_minimal(monkeypatch)
    again = translate.make_bk_datum(order, copies)
    assert strata.k0_closed(order, beta) == -bk.seq.depths[0]
    back = translate.yu_to_bk(translate.bk_to_yu(bk))
    assert not calls
    assert again.seq is bk.seq and back.seq is bk.seq
    assert [e.c.level for e in again.seq.entries] == \
        [c.level for _, c in copies]
    assert cli.emit_bk(again) == cli.emit_bk(bk)
    # a new order verifies the same blocks afresh
    strata.build_defining_sequence(strata.make_order(desk, 4), copies)
    assert calls


def test_failed_block_list_raises_alike_every_time(desk):
    order = strata.make_order(desk, 4)
    w = desk.k.gen()
    blocks = [(0, desk.monomial(w, -1).at_level(0)),
              (2, (desk.pi_F() ** -3).at_level(2))]
    raised = []
    for _ in range(2):
        with pytest.raises(NotMinimalSummand) as info:
            strata.build_defining_sequence(order, blocks)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] and not order.verified


def test_parsed_datum_verifies_again(desk, beta, monkeypatch):
    order = strata.make_order(desk, 4)
    bk = translate.make_bk_datum(order, strata.decompose_split_form(order, beta))
    doc = cli.emit_bk(bk)
    calls = _counting_is_minimal(monkeypatch)
    parsed = cli.parse_bk(doc)
    assert calls and parsed.order is not order and parsed.seq is not bk.seq
    assert cli.emit_bk(parsed) == doc


def test_order_identity_ignores_the_memo(desk, beta):
    a, b = strata.make_order(desk, 4), strata.make_order(desk, 4)
    strata.decompose_split_form(a, beta)
    assert a.verified and not b.verified
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    assert repr(a) == repr(b) and "verified" not in repr(a)


def test_blocks_over_another_tower_raise_first():
    # desk2 and desk2b share p, e and f but not their chains
    other = corpus.named_tower("desk2b")
    data = [bk for label, bk in corpus.datum_corpus()
            if label.startswith("desk2/") and bk.kind == "a"]
    assert len(data) == 10
    for bk in data:
        order = strata.make_order(other, bk.order.N)
        blocks = [(e.level, e.c) for e in bk.seq.entries]
        with pytest.raises(TowerMismatch):
            strata.build_defining_sequence(order, blocks)
        # the check precedes the others: a misordered list raises it too
        with pytest.raises(TowerMismatch):
            strata.build_defining_sequence(order, blocks[::-1])
        assert not order.verified
