import types
from fractions import Fraction

import pytest

from tamestrata import cli, corpus, oracle, strata, translate
from tamestrata.errors import (
    NotMinimalSummand, OracleRequired, OrderMismatch, VerificationError,
    VerificationFailed,
)


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


@pytest.fixture(scope="module")
def order(desk):
    return strata.make_order(desk, 4)


@pytest.fixture(scope="module")
def desk_bk(desk, order):
    w = desk.k.gen()
    beta = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    return translate.make_bk_datum(
        order, strata.decompose_split_form(order, beta))


@pytest.fixture(scope="module")
def model(order):
    return oracle.model_build(order)


def test_bk_to_yu_desk(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    assert yu.dims == (1, 2, 4)
    assert yu.depths == (Fraction(1, 2), Fraction(1), Fraction(1))
    assert yu.case == "B" and yu.d == 2
    assert yu.characters[-1][1] is None


def test_bk_to_yu_single_minimal(desk, order):
    w = desk.k.gen()
    bk = translate.make_bk_datum(order, [(0, desk.monomial(w, Fraction(-1, 2)))])
    yu = translate.bk_to_yu(bk)
    assert yu.dims == (1, 4)
    assert yu.depths == (Fraction(1, 2), Fraction(1, 2))
    assert yu.case == "B" and yu.d == 1


def test_bk_to_yu_case_A(desk, order):
    w = desk.k.gen()
    bk = translate.make_bk_datum(
        order, [(1, desk.monomial(w, -1)), (2, (desk.pi_F() ** -2).at_level(2))])
    yu = translate.bk_to_yu(bk)
    assert yu.case == "A"
    assert yu.dims == (2, 4)
    assert yu.depths == (Fraction(1), Fraction(2))
    assert yu.characters[-1][1] is not None       # folded top character


def test_type_b_round_trip(order):
    bk = translate.BKDatumSkeleton(order)
    yu = translate.bk_to_yu(bk)
    assert yu.d == 0 and yu.dims == (4,) and yu.depths == (Fraction(0),)
    bk2 = translate.yu_to_bk(yu)
    assert bk2.kind == "b"
    assert translate.skeletons_agree(bk, bk2)


def test_yu_to_bk_depth_mismatch(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    bad = translate.YuDatumSkeleton(
        yu.point, yu.dims, (Fraction(1), Fraction(1, 2), Fraction(1, 2)),
        yu.characters, yu.case)
    with pytest.raises(VerificationFailed):
        translate.yu_to_bk(bad)


def test_yu_to_bk_ord_mismatch(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    chars = list(yu.characters)
    lvl, c, r = chars[0]
    chars[0] = (lvl, c, r + 1)
    bad = translate.YuDatumSkeleton(yu.point, yu.dims,
                                    (r + 1,) + yu.depths[1:], tuple(chars),
                                    yu.case)
    with pytest.raises(VerificationFailed):
        translate.yu_to_bk(bad)


def test_yu_to_bk_nonminimal_realizer(desk, order, desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    chars = list(yu.characters)
    # replace the level-0 realizer by an element of E_1 (same depth)
    chars[0] = (0, desk.monomial(desk.k.gen(), Fraction(-1, 1)).at_level(0),
                Fraction(1))
    bad = translate.YuDatumSkeleton(yu.point, yu.dims,
                                    (Fraction(1),) + yu.depths[1:],
                                    tuple(chars), yu.case)
    with pytest.raises((NotMinimalSummand, VerificationFailed)):
        translate.yu_to_bk(bad)


def test_round_trips_on_corpus():
    for label, bk in corpus.datum_corpus():
        yu = translate.bk_to_yu(bk)
        bk2 = translate.yu_to_bk(yu)
        assert translate.skeletons_agree(bk, bk2), label
        yu2 = translate.bk_to_yu(bk2)
        assert translate.skeletons_agree(yu, yu2), label


def test_a_bk_datum_is_its_order_and_sequence(desk_bk, order):
    # the kind and the character factors are read off the sequence, so no
    # copy can state a kind or factors its sequence does not give
    assert translate.BKDatumSkeleton._fields == ("order", "seq")
    assert desk_bk == (order, desk_bk.seq) and desk_bk.kind == "a"
    b = translate.BKDatumSkeleton(order)
    assert b == (order, None) and (b.kind, b.theta_factors) == ("b", ())
    for field in ("kind", "theta_factors", "notes"):
        with pytest.raises(ValueError):
            desk_bk._replace(**{field: None})
    assert "rho_slot" not in translate.YuDatumSkeleton._fields
    assert translate.bk_to_yu(desk_bk).rho_slot == translate.OUT_OF_SCOPE


def test_a_round_trip_that_raises_is_a_failed_one(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    bad = yu._replace(case="A" if yu.case == "B" else "B")
    with pytest.raises(VerificationError):
        translate.yu_to_bk(bad)
    assert translate.round_trip_agrees(desk_bk, yu)
    assert not translate.round_trip_agrees(desk_bk, bad)


def _mutable_parts(obj, path, seen):
    """Paths of the dicts, lists and sets reachable from obj through
    tuples, frozensets, read-only mappings and object fields, leaving out
    an order's verified map (a memo that only gains entries)."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (dict, list, set)):
        return [path]
    if isinstance(obj, (tuple, frozenset)):
        items = enumerate(obj)
    elif isinstance(obj, types.MappingProxyType):
        items = obj.items()
    else:
        names = (getattr(type(obj), "__slots__", None)
                 or getattr(obj, "__dict__", ()))
        items = [(name, getattr(obj, name)) for name in names
                 if not (isinstance(obj, strata.OrderDesc)
                         and name == "verified")]
    return [p for key, item in items
            for p in _mutable_parts(item, f"{path}/{key}", seen)]


def test_cached_corpus_data_hold_no_mutable_state():
    # the corpus is cached for the process, so one reader's edit would
    # reach every later reader
    found = []
    for label, bk in corpus.datum_corpus():
        found += _mutable_parts(bk, label, set())
        found += _mutable_parts(translate.bk_to_yu(bk), label + "/yu", set())
    assert not found
    bk = dict(corpus.datum_corpus())["desk5/N=4/levels=0-1/base=1"]
    before = cli.emit_bk(bk)
    cli.emit_bk(bk)["payload"]["notes"]["kappa"] = "x"
    assert cli.emit_bk(bk) == before


def _with_entry(bk, i, **fields):
    entries = list(bk.seq.entries)
    entries[i] = entries[i]._replace(**fields)
    return bk._replace(seq=bk.seq._replace(entries=tuple(entries)))


def _with_character(yu, i, *fields):
    chars = list(yu.characters)
    chars[i] = fields
    return yu._replace(characters=tuple(chars))


def test_yu_to_bk_rejects_a_nulled_character_or_a_flipped_case():
    # yu_to_bk accepts only the translation of the datum it builds: nulling
    # a realised character (Case A to B, or a step dropped) or flipping the
    # case (on a type (b) datum too) gives a skeleton that datum does not
    # translate to, or one whose characters build no datum
    tried = 0
    for label, bk in corpus.datum_corpus():
        yu = translate.bk_to_yu(bk)
        tampered = [yu._replace(case="B" if yu.case == "A" else "A")]
        tampered += [_with_character(yu, i, lvl, None, r)
                     for i, (lvl, c, r) in enumerate(yu.characters)
                     if c is not None]
        for bad in tampered:
            with pytest.raises(VerificationError):
                translate.yu_to_bk(bad)
        tried += len(tampered)
    assert tried == 192


def test_skeletons_agree_can_say_no(desk, desk_bk):
    # one field changed at a time; every copy disagrees with the original
    yu = translate.bk_to_yu(desk_bk)
    lvl, c, r = yu.characters[0]
    seq, e0 = desk_bk.seq, desk_bk.seq.entries[0]
    yu_copies = [
        yu._replace(dims=yu.dims[:-1] + (yu.dims[-1] + 1,)),
        yu._replace(depths=(yu.depths[0] + 1,) + yu.depths[1:]),
        yu._replace(case="A" if yu.case == "B" else "B"),
        _with_character(yu, 0, lvl + 1, c, r),
        _with_character(yu, 0, lvl, c + 1, r),
        _with_character(yu, 0, lvl, c, r + 1),
        _with_character(yu, 0, lvl, None, r),
    ]
    bk_copies = [
        desk_bk._replace(seq=None),
        desk_bk._replace(order=strata.make_order(desk, 8)),
        desk_bk._replace(seq=seq._replace(n=seq.n + 1)),
        _with_entry(desk_bk, 0, r=e0.r + 1),
        _with_entry(desk_bk, 0, level=e0.level + 1),
        _with_entry(desk_bk, 0, c=e0.c + 1),
        desk_bk._replace(seq=seq._replace(case="A" if seq.case == "B" else "B")),
    ]
    for i, x in enumerate(yu_copies + bk_copies):
        original = yu if i < len(yu_copies) else desk_bk
        assert not translate.skeletons_agree(original, x), i
        assert not translate.skeletons_agree(x, original), i
    assert not translate.skeletons_agree(desk_bk, yu)
    # a parsed copy lies over a new Tower object and still agrees
    bk_copy = cli.parse_bk(cli.emit_bk(desk_bk))
    yu_copy = cli.parse_yu(cli.emit_yu(yu))
    assert bk_copy.order.tower is not desk and yu_copy.point.tower is not desk
    assert translate.skeletons_agree(desk_bk, bk_copy)
    assert translate.skeletons_agree(yu, yu_copy)


def test_skeletons_over_other_towers_disagree():
    # desk5 and desk3 data of one shape differ only in their towers
    data = dict(corpus.datum_corpus())
    a = data["desk5/N=4/levels=0-1/base=1"]
    b = data["desk3/N=4/levels=0-1/base=1"]
    assert (a.kind, a.order.N, a.seq.n, a.seq.case) == (
        b.kind, b.order.N, b.seq.n, b.seq.case)
    assert not translate.skeletons_agree(a, b)
    assert not translate.skeletons_agree(translate.bk_to_yu(a),
                                         translate.bk_to_yu(b))


def test_parsed_copies_of_one_order_compare(desk_bk, model):
    # two documents parse to two towers; their tables and ledger still pair
    bk1, bk2 = (cli.parse_bk(cli.emit_bk(desk_bk)) for _ in range(2))
    assert bk1.order.tower is not bk2.order.tower
    yu2 = translate.bk_to_yu(bk2)
    tabs, ytabs = translate.h_group_table(bk1.seq), translate.yu_group_table(yu2)
    for m in (None, model):
        assert translate.table_compare(tabs["H1"], ytabs["Kd+"], m)
        assert translate.table_compare(tabs["J0"], ytabs["oKd"], m)
    assert (translate.ledger_indices(bk1, yu2, model)
            == translate.ledger_indices(desk_bk, translate.bk_to_yu(desk_bk),
                                        model))


def test_h_group_table_desk(desk_bk):
    tabs = translate.h_group_table(desk_bk.seq)
    assert tabs["H1"].pairs() == ((0, 1), (1, 1), (2, 2))
    assert tabs["J1"].pairs() == ((0, 1), (1, 1), (2, 1))
    assert tabs["J0"].pairs() == ((0, 0), (1, 1), (2, 1))


def test_h_table_single_minimal_n1(desk, order):
    w = desk.k.gen()
    bk = translate.make_bk_datum(order, [(0, desk.monomial(w, Fraction(-1, 2)))])
    tabs = translate.h_group_table(bk.seq)
    assert tabs["H1"].pairs() == tabs["J1"].pairs()     # [1/2]+1 = [(1+1)/2] = 1


def test_yu_group_table_desk(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    ytabs = translate.yu_group_table(yu)
    assert ytabs["Kd+"].pairs() == ((0, 1), (1, 1), (2, 2))
    assert ytabs["oKd"].pairs() == ((0, 0), (1, 1), (2, 1))
    assert ytabs["J2"].pairs() == ((1, 2), (2, 1))
    assert ytabs["J2+"].pairs() == ((1, 2), (2, 2))
    labels = [f[2] for f in ytabs["Kd+"].factors]
    assert labels == ["0+", "1/4+", "1/2+"]


def test_table_compare(desk_bk, model):
    yu = translate.bk_to_yu(desk_bk)
    tabs = translate.h_group_table(desk_bk.seq)
    ytabs = translate.yu_group_table(yu)
    assert translate.table_compare(tabs["H1"], ytabs["Kd+"])
    assert translate.table_compare(tabs["J0"], ytabs["oKd"])
    assert not translate.table_compare(tabs["J1"], ytabs["Kd+"])
    assert translate.table_compare(tabs["H1"], ytabs["Kd+"], model)
    assert not translate.table_compare(tabs["J1"], ytabs["Kd+"], model)


def _datum_over_another_order(order):
    """A type (a) corpus datum whose order differs from order."""
    return next(bk for _, bk in corpus.datum_corpus()
                if bk.kind == "a" and bk.order != order)


def test_table_compare_rejects_tables_over_different_orders(desk_bk, order):
    other = _datum_over_another_order(order)
    tabs = translate.h_group_table(desk_bk.seq)
    other_tabs = translate.h_group_table(other.seq)
    with pytest.raises(OrderMismatch):
        translate.table_compare(tabs["H1"], other_tabs["H1"])


def test_ledger_rejects_skeletons_over_different_orders(desk_bk, order):
    other = _datum_over_another_order(order)
    with pytest.raises(OrderMismatch):
        translate.ledger_indices(desk_bk, translate.bk_to_yu(other))


def test_char_factor_domains(desk_bk):
    cf0 = desk_bk.theta_factors[0]
    assert [f[:2] for f in cf0.det_domain] == [(0, 1)]
    assert [f[:2] for f in cf0.psi_domain] == [(1, 1), (2, 2)]
    assert cf0.depth == Fraction(1, 2)
    cf1 = desk_bk.theta_factors[1]
    assert [f[:2] for f in cf1.det_domain] == [(0, 1), (1, 1)]
    assert [f[:2] for f in cf1.psi_domain] == [(2, 2)]
    assert len(desk_bk.theta_factors) == desk_bk.seq.s + 1


def test_char_factor_case_A_terminal(desk, order):
    w = desk.k.gen()
    bk = translate.make_bk_datum(
        order, [(1, desk.monomial(w, -1)), (2, (desk.pi_F() ** -2).at_level(2))])
    cf = bk.theta_factors[1]
    assert cf.psi_domain == ()
    assert cf.det_domain == translate.h_group_table(bk.seq)["H1"].factors


def test_char_module_valuation(desk, order):
    w = desk.k.gen()
    c = desk.monomial(w, -1)
    assert translate.char_module_valuation(c, (1, 3), order) == 1
    assert translate.char_module_valuation(c, (1, 2), order) == 0
    assert translate.char_module_valuation(c, (1, 5), order) == 2


def test_single_index_log(order):
    assert translate.single_index_log(order, 1, 1, 2) == 4
    assert translate.single_index_log(order, 0, 1, 2) == 2
    assert translate.single_index_log(order, 2, 1, 2) == 8


def test_ledger_requires_oracle(desk_bk):
    yu = translate.bk_to_yu(desk_bk)
    with pytest.raises(OracleRequired):
        translate.ledger_indices(desk_bk, yu, None)


def test_ledger_verdicts(desk_bk, model):
    yu = translate.bk_to_yu(desk_bk)
    entries, verdicts = translate.ledger_indices(desk_bk, yu, model)
    names = {e.name: e.value for e in entries}
    assert names["[J1:H1]"] == 4
    assert names["[J^1:J^1+]"] == 0 and names["[J^2:J^2+]"] == 4
    assert verdicts == {"product_identity": True, "even_exponents": True,
                        "singles_match_oracle": True}


def test_deep_chain_tables_shape():
    # a d = 3 datum over the four-step tower
    deep = corpus.deep_tower_5()
    order = strata.make_order(deep, deep.level_degree(0))
    data = [bk for _, bk in corpus.datum_corpus()
            if bk.kind == "a" and bk.order.tower is deep and bk.seq.s == 2
            and bk.seq.case == "B"]
    assert data
    bk = data[0]
    yu = translate.bk_to_yu(bk)
    assert yu.d == 3 and len(yu.dims) == 4
    tabs = translate.h_group_table(bk.seq)
    ytabs = translate.yu_group_table(yu)
    assert len(tabs["H1"].factors) == 4
    assert translate.table_compare(tabs["H1"], ytabs["Kd+"])
    assert translate.table_compare(tabs["J0"], ytabs["oKd"])
    assert set(ytabs) == {"Kd+", "oKd", "J1", "J1+", "J2", "J2+", "J3", "J3+"}


def test_ledger_single_minimal_n1(desk, order, model):
    # n = 1: the two lattices coincide and [J1:H1] = 1
    w = desk.k.gen()
    bk = translate.make_bk_datum(order, [(0, desk.monomial(w, Fraction(-1, 2)))])
    yu = translate.bk_to_yu(bk)
    entries, verdicts = translate.ledger_indices(bk, yu, model)
    names = {e.name: e.value for e in entries}
    assert names["[J1:H1]"] == 0
    assert verdicts["product_identity"] and verdicts["even_exponents"]
