import json
import random
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tamestrata import cli, corpus, oracle, strata, tame, translate
from tamestrata.errors import (NotInLevel, NotNested, PrecisionExhausted,
                               TooLarge)
from tamestrata.ffq import FqField
from tamestrata.oracle import Subspace

from reference import (
    ad_equations_per_call, char_module_min_ord_in_kL, commutant_by_kernel,
    elt_to_matrix_by_products, generator_matrices, hj_by_sums, intersect,
    mat_mul, mat_sub, rows, span, vec_to_matrix,
)


@pytest.fixture(scope="module")
def desk():
    return corpus.desk_tower_5()


@pytest.fixture(scope="module")
def order(desk):
    return strata.make_order(desk, 4)


@pytest.fixture(scope="module")
def model(order):
    return oracle.model_build(order)


@pytest.fixture(scope="module")
def desk_seq(desk, order):
    w = desk.k.gen()
    beta = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    return strata.build_defining_sequence(
        order, strata.decompose_split_form(order, beta))


def test_subspace_rref_ops():
    # rows are sparse {column: x} dicts: [1, 2, 0, 0] is {0: 1, 1: 2}
    s = Subspace(5, 4, [{0: 1, 1: 2}, {2: 1, 3: 1}])
    assert s.dim == 2
    assert s.contains({0: 2, 1: 4, 2: 3, 3: 3})
    assert not s.contains({0: 1})
    t = Subspace(5, 4, [{0: 1}])
    assert span(s, t).dim == 3
    assert intersect(s, t).dim == 0
    assert span(s, t).contains_space(s)


# -- the sparse RREF against a dense reference --------------------------------

def _dense_rref(rows, width, p):
    """Reference: textbook Gauss-Jordan elimination on dense lists."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(width):
        at = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if at is None:
            continue
        m[rank], m[at] = m[at], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def _dense(row, width):
    return [row.get(c, 0) for c in range(width)]


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _random_matrix(rng, p, nrows, width):
    density = rng.choice((0.15, 0.4, 0.8))
    rows = [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(width)] for _ in range(nrows)]
    # a few combinations of earlier rows, so that the rank drops
    for _ in range(rng.randrange(3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(p)
            rows.append([x + c * y for x, y in zip(a, b)])
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_rref_matches_dense_reference(p):
    rng = random.Random(7 * p)
    for _ in range(60):
        width = rng.randrange(1, 13)
        a = _random_matrix(rng, p, rng.randrange(0, 9), width)
        b = _random_matrix(rng, p, rng.randrange(0, 9), width)
        sa = Subspace(p, width, [_sparse(r) for r in a])
        sb = Subspace(p, width, [_sparse(r) for r in b])
        ref_a = _dense_rref(a, width, p)
        # rank and the RREF rows themselves
        assert sa.dim == len(ref_a)
        assert [_dense(r, width) for r in rows(sa)] == ref_a
        assert sorted(sa._rows) == [row.index(1) for row in ref_a]
        # contains: combinations of the rows are in, anything else is not
        for _ in range(5):
            coeffs = [rng.randrange(p) for _ in a]
            vec = [sum(c * row[j] for c, row in zip(coeffs, a))
                   for j in range(width)]
            assert sa.contains(_sparse(vec))
            vec = [rng.randrange(p) for _ in range(width)]
            inside = len(_dense_rref(a + [vec], width, p)) == len(ref_a)
            assert sa.contains(_sparse(vec)) == inside
        # sum
        ref_sum = _dense_rref(a + b, width, p)
        assert [_dense(r, width) for r in rows(span(sa, sb))] == ref_sum
        # intersect: in both spaces, of dimension dim A + dim B - dim(A+B),
        # and in RREF
        meet = intersect(sa, sb)
        assert meet.dim == sa.dim + sb.dim - len(ref_sum)
        assert sa.contains_space(meet) and sb.contains_space(meet)
        dense_meet = [_dense(r, width) for r in rows(meet)]
        assert dense_meet == _dense_rref(dense_meet, width, p)
        # kernel: width - rank independent vectors annihilating every row
        kernel = sa.kernel()
        assert len(kernel) == width - len(ref_a)
        dense_kernel = [_dense(v, width) for v in kernel]
        assert len(_dense_rref(dense_kernel, width, p)) == len(kernel)
        for v in dense_kernel:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) % p == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_image_dim_equals_kernel_projection(p):
    # the image of the solutions in the first `width` positions, counted
    # off the echelon form, against the projected kernel; random rows
    # couple the positions below the width with free positions past it
    rng = random.Random(11 * p)
    for _ in range(60):
        width = rng.randrange(1, 13)
        a = _random_matrix(rng, p, rng.randrange(0, 9), width)
        layers = SimpleNamespace(eqs=Subspace(p, width, [_sparse(r) for r in a]))
        kernel = layers.eqs.kernel()
        for cut in range(width + 1):
            image = Subspace(p, cut, [{q: x for q, x in v.items() if q < cut}
                                      for v in kernel])
            assert oracle._image_dim(layers, cut) == image.dim, (a, cut)
            # the rows pivoted past the cut do not change the image, which
            # _centraliser_image reads off the others, with no elimination
            low = {piv: row for piv, row in layers.eqs._rows.items()
                   if piv < cut}
            assert image == Subspace(p, cut, [
                {q: x for q, x in v.items() if q < cut}
                for v in oracle.nullspace(low, width, p)]), (a, cut)


def test_model_build_too_large(desk):
    with pytest.raises(TooLarge):
        oracle.model_build(strata.make_order(desk, 20))


def test_matrix_valuations(desk, model):
    w = desk.k.gen()
    assert oracle.oracle_nu(model, desk.monomial(1, Fraction(-1, 2))) == -1
    assert oracle.oracle_nu(model, desk.monomial(w, -1)) == -2
    assert oracle.oracle_nu(model, desk.pi_F().at_level(0)) == 2
    assert oracle.oracle_nu(model, desk.monomial(w, 0)) == 0


def test_matrix_needs_the_model_window(desk, model):
    # a truncated element whose unknown tail reaches into the t-window the
    # model keeps has no matrix
    short = desk.series(0, [(-1, desk.k.gen())], prec=3)
    with pytest.raises(PrecisionExhausted):
        model.elt_to_matrix(short)


def test_matrix_ignores_the_level_tag(desk, model):
    # an element at any level has the matrix of its level-0 tag, which the
    # model caches once
    t = desk.pi_F()
    assert t.level == desk.d
    assert model.elt_to_matrix(t) is model.elt_to_matrix(t.at_level(0))
    assert oracle.oracle_nu(model, t) == 2


def test_matrix_of_a_series_outside_E0_raises_not_in_level():
    # chain starting above {1}, as in test_twisted: only an unvalidated
    # series can lie outside E_0
    base = tame.make_tower(5, 2, 2, residue_modulus=[2, 4, 1])
    tau = tame.GaloisElement(0, base.k.elem(-1))
    chain = (frozenset([base.identity, tau]), base.group)
    tower = tame.make_tower(5, 2, 2, residue_modulus=[2, 4, 1], levels=chain)
    model = oracle.model_build(strata.make_order(tower, tower.level_degree(0)))
    from tamestrata.tame import _make_series
    with pytest.raises(NotInLevel):
        model.elt_to_matrix(_make_series(tower, 0, {-1: tower.k.one()}, None))


def test_field_relation_reproduced(desk, model):
    # s^e * zeta = t must hold between the generator matrices
    s_mat = model.elt_to_matrix(desk.monomial(1, Fraction(1, 2)))
    t_mat = model.elt_to_matrix(desk.pi_F().at_level(0))
    lhs = mat_mul(model.N, s_mat, s_mat)
    assert mat_sub(lhs, t_mat) == {}


def test_oracle_k0_matches_closed_form(desk, order, model):
    w = desk.k.gen()
    beta = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    for x in (beta, desk.monomial(w, Fraction(-1, 2)),
              (desk.pi_F() ** -1).at_level(0)):
        assert oracle.oracle_k0(model, x) == strata.k0_closed(order, x)


def test_oracle_hj_desk(model, desk_seq):
    h, j = oracle.oracle_hj(model, desk_seq)
    quot = model.quotient_context(desk_seq.n // 2 + 1)
    # h = B_0 + Q_1 + P^2 and j = B_0 + Q_1 + P, computed independently
    b0 = quot.order_level(0, 0)
    q1 = quot.order_level(1, 1)
    h_direct = span(b0, q1)
    j_direct = span(b0, q1, quot.radical_power(1))
    assert h == h_direct
    assert j == j_direct
    assert j_direct.contains_space(h)


def test_oracle_index_multiplicative(model):
    quot = model.quotient_context(3)
    p0 = quot.radical_power(0)
    p1 = quot.radical_power(1)
    p2 = quot.radical_power(2)
    i01 = oracle.oracle_index(model, p0, p1)
    i12 = oracle.oracle_index(model, p1, p2)
    i02 = oracle.oracle_index(model, p0, p2)
    assert i01 + i12 == i02
    assert i12 == 8                      # dim P/P^2 = N^2/e_A = 8 over F_5
    assert oracle.oracle_index(model, p1, p1) == 0
    with pytest.raises(NotNested):
        oracle.oracle_index(model, p2, p1)


def test_hj_equals_plain_sums():
    # each step of the recursion is the cut plus b_i's rows pivoted below
    # it, on every type (a) corpus datum the oracle takes
    models, data = {}, 0
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a" or bk.order.N > oracle.MAX_N:
            continue
        if bk.order not in models:
            models[bk.order] = oracle.model_build(bk.order)
        model = models[bk.order]
        assert oracle.oracle_hj(model, bk.seq) == hj_by_sums(model, bk.seq), \
            label
        data += 1
    assert data == 64


def test_h_in_j_for_corpus(desk):
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a" or bk.order.N > 4:
            continue
        model = oracle.model_build(bk.order)
        h, j = oracle.oracle_hj(model, bk.seq)
        assert j.contains_space(h), label
        break


def test_table_lattice_matches_hj(model, desk_seq):
    tabs = translate.h_group_table(desk_seq)
    h, j = oracle.oracle_hj(model, desk_seq)
    M = desk_seq.n // 2 + 1
    quot = model.quotient_context(M)
    h_from_table = oracle.oracle_table_lattice(model, tabs["H1"].pairs(), M)
    j_from_table = oracle.oracle_table_lattice(model, tabs["J1"].pairs(), M)
    p1 = quot.radical_power(1)
    assert h_from_table == intersect(h, p1)
    assert j_from_table == intersect(j, p1)


def _plain_table_lattice(model, factors, M):
    quot = model.quotient_context(M)
    out = Subspace(model.p, len(quot.coords))
    for level, exponent in factors:
        out = span(out, quot.order_level(level, exponent))
    return out


def test_table_lattice_equals_plain_sum():
    # the lattice summed from the largest level down, each factor adding
    # only its rows below the starts already taken, is the plain sum of
    # every factor: on every table of every corpus order with N <= 8, on
    # the factors reversed, and with the first level repeated
    models, tables_seen = {}, 0
    for label, bk in corpus.datum_corpus():
        order = bk.order
        if order.N > 8:
            continue
        if order not in models:
            models[order] = oracle.model_build(order)
        model = models[order]
        tables = {("yu", name): table for name, table
                  in translate.yu_group_table(translate.bk_to_yu(bk)).items()}
        if bk.kind == "a":
            tables.update({("bk", name): table for name, table
                           in translate.h_group_table(bk.seq).items()})
        for name, table in tables.items():
            pairs = table.pairs()
            M = max([m for _, m in pairs] + [1]) + model.e_A
            level, exponent = pairs[0]
            for factors in (pairs, pairs[::-1],
                            pairs + ((level, exponent + 1),)):
                assert oracle.oracle_table_lattice(model, factors, M) \
                    == _plain_table_lattice(model, factors, M), \
                    (label, name, factors)
            tables_seen += 1
        assert oracle.oracle_table_lattice(model, (), 2).dim == 0
    assert len(models) == len(CORPUS_ORDERS)
    assert tables_seen == 380
    # and no held commutant was changed on the way
    for order, model in models.items():
        fresh = oracle.model_build(order)
        for level, (M, space) in model._commutants.items():
            assert space == fresh.commutant_in_quotient(
                level, fresh.quotient_context(M)), (order, level, M)


def test_scalar_generators_add_no_equations():
    # both generators of the top level act as F-scalars, and so does
    # desk5's level-1 uniformizer t = pi_F: none enters a system, and the
    # top level has none
    for name in EQUIVALENCE_ORDERS + CORPUS_ORDERS:
        model = _equivalence_model(name)
        d = model.tower.d
        assert _scalar_levels(model) == {d}, name
        quot = model.quotient_context(2)
        assert model.commutant_in_quotient(d, quot) \
            == quot.radical_power(0), name
        assert d not in model._systems, name
    model = _equivalence_model("desk5")
    model.commutant_in_quotient(1, model.quotient_context(2))
    assert len(model._systems[1].terms) == 1


def test_whole_questions_match_their_parts(model, desk_seq):
    # the ledger's and the tables' questions, against the lattices they
    # are answered from
    h, j = oracle.oracle_hj(model, desk_seq)
    quot = model.quotient_context(desk_seq.n // 2 + 1)
    p1 = quot.radical_power(1)
    assert oracle.oracle_j1h1_index(model, desk_seq) \
        == intersect(j, p1).dim - intersect(h, p1).dim == 4
    for level in range(model.tower.d + 1):
        for a, b in ((1, 1), (1, 2), (1, 3), (2, 3)):
            assert oracle.oracle_step_index(model, level, a, b) \
                == translate.single_index_log(model.order, level, a, b)
    tabs = translate.h_group_table(desk_seq)
    assert oracle.oracle_tables_equal(model, tabs["H1"].pairs(),
                                      tabs["H1"].pairs())
    assert not oracle.oracle_tables_equal(model, tabs["H1"].pairs(),
                                          tabs["J1"].pairs())
    with pytest.raises(NotNested):
        oracle.oracle_index(model, model.quotient_context(3).radical_power(1),
                            model.quotient_context(2).radical_power(1))


def _counted_solves(monkeypatch):
    """A list that grows by one at each commutant solve from now on."""
    solves = []
    solve = oracle.MatrixModel.commutant_in_quotient

    def counted(self, level, quot):
        solves.append((level, quot.M))
        return solve(self, level, quot)

    monkeypatch.setattr(oracle.MatrixModel, "commutant_in_quotient", counted)
    return solves


def _table_pairs(bk):
    """BK's and Yu's tables for the paper's two equalities, as pairs."""
    tabs = translate.h_group_table(bk.seq)
    ytabs = translate.yu_group_table(translate.bk_to_yu(bk))
    return [(tabs[a].pairs(), ytabs[b].pairs())
            for a, b in (("H1", "Kd+"), ("J0", "oKd"))]


def _lattices_agree(model, pairs_a, pairs_b):
    M = max(m for _, m in pairs_a + pairs_b) + model.e_A
    return (oracle.oracle_table_lattice(model, pairs_a, M)
            == oracle.oracle_table_lattice(model, pairs_b, M))


def test_equal_factor_sets_are_one_lattice_without_a_solve(monkeypatch,
                                                          tmp_path):
    # BK's exponents v//2 + 1 and (v+1)//2 are Yu's floor(v/2) + 1 and
    # ceil(v/2), and Case B's extra factor is Yu's trivial top character:
    # each translated pair has one factor set, which the oracle calls equal
    # with no solve, and whose two lattices, built anyway, are equal
    solves = _counted_solves(monkeypatch)
    models, compared = {}, 0
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a" or bk.order.N > 8:
            continue
        if bk.order not in models:
            models[bk.order] = oracle.model_build(bk.order)
        model = models[bk.order]
        for pairs_a, pairs_b in _table_pairs(bk):
            assert set(pairs_a) == set(pairs_b), label
            del solves[:]
            assert oracle.oracle_tables_equal(model, pairs_a, pairs_b), label
            assert solves == [], label
            assert _lattices_agree(model, pairs_a, pairs_b), label
            compared += 1
    assert compared == 100
    # the deep5 N=16 datum, through `tables --oracle check`
    deep = next(bk for _, bk in corpus.datum_corpus()
                if bk.kind == "a" and bk.order.tower is corpus.deep_tower_5()
                and bk.seq.s > 0)
    assert deep.order.N == 16
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cli.emit_bk(deep)))
    answers = []
    tables_equal = oracle.oracle_tables_equal

    def recorded(*args):
        answers.append(tables_equal(*args))
        return answers[-1]

    monkeypatch.setattr(oracle, "oracle_tables_equal", recorded)
    del solves[:]
    code, doc = cli.run(["tables", "--datum", str(path), "--oracle", "check"])
    assert code == cli.EXIT_OK, doc
    assert doc["payload"]["comparisons"] == {"H1=Kd+": True, "J0=oKd": True}
    assert answers == [True, True] and solves == []
    model = oracle.model_build(deep.order)
    for pairs_a, pairs_b in _table_pairs(deep):
        assert _lattices_agree(model, pairs_a, pairs_b)


def test_differing_factor_sets_are_compared_as_lattices(monkeypatch):
    # a factor the table absorbs changes the set but not the lattice, and
    # a Yu table that loses its last factor presents a smaller one: both
    # are decided by solving
    solves = _counted_solves(monkeypatch)
    models, compared = {}, 0
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a" or bk.order.N > 8:
            continue
        if bk.order not in models:
            models[bk.order] = oracle.model_build(bk.order)
        model = models[bk.order]
        for pairs_a, pairs_b in _table_pairs(bk):
            level, exponent = pairs_a[0]
            absorbed = pairs_a + ((level, exponent + 1),)
            del solves[:]
            assert oracle.oracle_tables_equal(model, pairs_b, absorbed), label
            assert solves, label
            assert not oracle.oracle_tables_equal(model, pairs_a,
                                                  pairs_b[:-1]), label
            compared += 1
    assert compared == 100


def test_equal_step_has_index_zero_without_a_solve(monkeypatch, order):
    # [Q^a : Q^a] = 1 is answered before any quotient is laid out; a
    # fresh model's distinct steps still solve, and agree with the closed
    # form
    solves = _counted_solves(monkeypatch)
    model = oracle.model_build(order)
    for level in range(model.tower.d + 1):
        for a in (1, 2, 3):
            assert oracle.oracle_step_index(model, level, a, a) == 0
    assert solves == [] and model._quotients == {}
    for level in range(model.tower.d + 1):
        assert oracle.oracle_step_index(model, level, 1, 3) \
            == translate.single_index_log(order, level, 1, 3)
    assert solves


def test_model_build_does_no_series_arithmetic(monkeypatch):
    # the oracle must not run on the ring code the closed forms use: every
    # input is prepared first, then each series operation raises
    label, bk = next((label, bk) for label, bk in corpus.datum_corpus()
                     if bk.kind == "a" and bk.order.N == 4)
    order, seq = bk.order, bk.seq
    entry = seq.entries[0]
    exponent = 1 - strata.nu_A(order, entry.c)
    closed = (strata.k0_closed(order, entry.beta),
              translate.char_module_valuation(entry.c, (entry.level, exponent),
                                              order))
    pairs = translate.h_group_table(seq)["H1"].pairs()

    def forbidden(*args, **kwargs):
        raise AssertionError("series arithmetic in the oracle")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__", "__pow__", "inverse"):
        monkeypatch.setattr(tame.TameSeries, name, forbidden)
    model = oracle.model_build(order)
    assert oracle.oracle_k0(model, entry.beta) == closed[0], label
    assert oracle.oracle_char_module_min_ord(
        model, entry.c, entry.level, exponent) == closed[1], label
    M = seq.n // 2 + 1
    lattice = oracle.oracle_table_lattice(model, pairs, M)
    h, j = oracle.oracle_hj(model, seq)
    assert oracle.oracle_index(model, j, h) >= 0
    assert lattice.width == h.width


def test_char_module_matches_closed_form(desk, order, model):
    w = desk.k.gen()
    c = desk.monomial(w, -1)
    for m in (1, 2, 3, 4):
        closed = translate.char_module_valuation(c, (1, m), order)
        assert oracle.oracle_char_module_min_ord(model, c, 1, m) == closed


def test_oracle_on_sextic_order():
    # N = 6 over the S_3 tower: nontrivial e_A = 3 and residue degree 2
    tower = corpus.desk_tower_2()
    order6 = strata.make_order(tower, 6)
    model6 = oracle.model_build(order6)
    w = tower.k.gen()
    assert oracle.oracle_nu(model6, tower.monomial(1, Fraction(-1, 3))) == -1
    assert oracle.oracle_nu(model6, tower.pi_F().at_level(0)) == 3
    data = [bk for _, bk in corpus.datum_corpus()
            if bk.kind == "a" and bk.order.tower is tower and bk.seq.s == 1]
    assert data
    bk = data[0]
    beta = bk.seq.entries[0].beta
    assert oracle.oracle_k0(model6, beta) == strata.k0_closed(bk.order, beta)
    yu = translate.bk_to_yu(bk)
    entries, verdicts = translate.ledger_indices(bk, yu, model6)
    assert verdicts["product_identity"] and verdicts["even_exponents"]
    assert verdicts["singles_match_oracle"]


def test_block_model_with_m0_two(desk):
    # N = 8: V is a free rank-2 module over E_0
    order8 = strata.make_order(desk, 8)
    assert order8.m == (2, 4, 8)
    model8 = oracle.model_build(order8)
    w = desk.k.gen()
    assert oracle.oracle_nu(model8, desk.monomial(1, Fraction(-1, 2))) == -1
    assert oracle.oracle_nu(model8, desk.monomial(w, -1)) == -2
    beta = desk.series(0, [(-1, w), (Fraction(-1, 2), 1)])
    assert oracle.oracle_k0(model8, beta) == strata.k0_closed(order8, beta) == -1


# -- the direct routes against their references ------------------------------

def _equivalence_model(name):
    if name == "std3e2f1":
        tower = next(t for t in corpus.standard_towers()
                     if (t.base.p, t.e, t.f) == (3, 2, 1))
        N = 2
    elif name == "q9e2f2":
        # k_F = F_9, so each matrix entry has two F_p coordinates
        tower, N = tame.make_tower(3, 2, 2, base_f=2), 4
    elif name in CORPUS_ORDERS:
        return oracle.model_build(_corpus_orders()[name])
    else:
        tower, N = corpus.named_tower(name), {"desk5": 4, "desk2": 6}[name]
    return oracle.model_build(strata.make_order(tower, N))


def _scalar_levels(model):
    """The levels whose generators all act as F-scalars."""
    return {level for level in range(model.tower.d + 1)
            if all(oracle._lies_in_F(model, g)
                   for g in generator_matrices(model, level))}


def _corpus_orders():
    """Label of its first datum -> order, for each corpus order with N <= 8."""
    firsts = {}
    for label, bk in corpus.datum_corpus():
        if bk.order.N <= 8:
            firsts.setdefault(bk.order.key(), (label, bk.order))
    return dict(firsts.values())


EQUIVALENCE_ORDERS = ("std3e2f1", "desk5", "desk2", "q9e2f2")
CORPUS_ORDERS = ("desk5/N=4/levels=0-1/base=1", "desk3/N=4/levels=0-1/base=1",
                 "desk2/N=6/levels=0-1/base=1", "desk2b/N=6/levels=0-1/base=1",
                 "desk5x2/N=8/levels=0-1/base=1")


def test_corpus_orders_are_every_small_corpus_order():
    assert tuple(_corpus_orders()) == CORPUS_ORDERS


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS + CORPUS_ORDERS)
def test_radical_cut_equals_intersection(name):
    model = _equivalence_model(name)
    quot = model.quotient_context(2 * model.e_A + 1)
    for level in range(model.tower.d + 1):
        comm = quot.order_level(level, 0)
        for k in range(quot.M + 1):
            cut = quot.radical_cut(comm, k)
            assert cut == intersect(comm, quot.radical_power(k)), (level, k)
            assert [min(row) for row in rows(cut)] == sorted(cut._rows)


def _cells(quot):
    """Position of each cell (row, col, w) of quot: its first coordinate."""
    return {(r, c, w): pos for pos, (r, c, w, i) in enumerate(quot.coords)
            if i == 0}


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_quotients_are_prefixes_in_valuation_order(name):
    # one model lays out its largest quotient first and slices the smaller
    # ones from it, another grows its layout one M at a time: both give
    # each cell of valuation in [0, M) once, in valuation order, and each
    # A/P^M as a prefix of A/P^M'
    model, grown = _equivalence_model(name), _equivalence_model(name)
    e_A, N = model.e_A, model.N
    M_max = 3 * e_A + 1
    big = model.quotient_context(M_max)
    assert big.vals == sorted(big.vals)
    cells = {(r, c, w): e_A * w + model.block_of(r) - model.block_of(c)
             for r in range(N) for c in range(N)
             for w in range(-N - 1, M_max + 1)}
    assert _cells(big).keys() == {cell for cell, v in cells.items()
                                  if 0 <= v < M_max}
    assert len(big.coords) == model.deg_F * len(_cells(big))
    assert big.vals == [cells[r, c, w] for r, c, w, _ in big.coords]
    for M in range(M_max + 1):
        quot = grown.quotient_context(M)
        assert quot.coords == model.quotient_context(M).coords, M
        assert quot.vals == model.quotient_context(M).vals, M
    for M in range(M_max):
        quot = model.quotient_context(M)
        assert quot.coords == big.coords[:len(quot.coords)]
        assert _cells(quot).items() <= _cells(big).items()
        assert quot.vals == big.vals[:len(quot.coords)]
        assert len(quot.coords) == sum(v < M for v in big.vals)


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_projections_equal_dense_reference(name):
    # reference: a kernel of the level-0 commutant equations in
    # A/P^(2 e_A + 1), and the RREF commutant held there, mapped to each
    # coarser A/P^M cell by cell and re-reduced
    model = _equivalence_model(name)
    tower, p = model.tower, model.p
    big = model.quotient_context(2 * model.e_A + 1)
    gens = [tower.monomial(tower.residue_generator(0), 0),
            tower.uniformizer(0)]
    mats = [model.elt_to_matrix(g.at_level(0)) for g in gens]
    layers = oracle._Layers(model, mats, 0)
    layers.extend(big, big.M)
    kernel = layers.eqs.kernel()
    held = model.commutant_in_quotient(0, big)
    for M in range(big.M + 1):
        quot = model.quotient_context(M)
        width = len(quot.coords)
        cells = _cells(quot)

        def reference(rows):
            dense = []
            for row in rows:
                vec = [0] * width
                for q, x in row.items():
                    r, c, w, i = big.coords[q]
                    if (r, c, w) in cells:
                        vec[cells[(r, c, w)] + i] = x
                dense.append(vec)
            return _dense_rref(dense, width, p)

        got = [_dense(r, width) for r in rows(quot.project(kernel))]
        assert got == reference(kernel), M
        got = [_dense(r, width) for r in rows(quot.project(rows(held)))]
        assert got == reference(rows(held)), M


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_projected_commutant_equals_fresh_solve(name):
    model = _equivalence_model(name)
    M_max = 2 * model.e_A + 1
    levels = range(model.tower.d + 1)
    for level in levels:
        model.commutant_in_quotient(level, model.quotient_context(M_max))
    for M in range(1, M_max):
        fresh = _equivalence_model(name)
        for level in levels:
            projected = model.commutant_in_quotient(
                level, model.quotient_context(M))
            solved = fresh.commutant_in_quotient(
                level, fresh.quotient_context(M))
            assert projected == solved, (level, M)
            _assert_commutes_mod(model, level, projected, M)
    assert all(model._commutants[level][0] == M_max for level in levels)


def _assert_commutes_mod(model, level, space, M):
    # each row truncates an element of B_level, and the generators are
    # integral, so the row commutes with them modulo P^M
    coords = model.quotient_context(M).coords
    for row in rows(space):
        x = vec_to_matrix(model, row, coords)
        for g in generator_matrices(model, level):
            ad = mat_sub(mat_mul(model.N, g, x), mat_mul(model.N, x, g))
            assert model.block_val(ad) is None or model.block_val(ad) >= M


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_direct_ad_equals_matrix_products(name):
    model = _equivalence_model(name)
    tower, N, deg_F = model.tower, model.N, model.deg_F
    quot = model.quotient_context(model.e_A + 1)
    elements = [tower.uniformizer(0) ** -1]
    for level in range(tower.d + 1):
        elements += [tower.monomial(tower.residue_generator(level), 0),
                     tower.uniformizer(level)]
    for x in elements:
        g = model.elt_to_matrix(x.at_level(0))
        pending = {}
        oracle._ad_equations(model, [model._ad_terms(g)], {}, quot, 0,
                             len(quot.coords), pending)
        # each unknown's column of the equations, by (row, col, w, t)
        direct = [{} for _ in quot.coords]
        for val, layer in pending.items():
            for out, row in layer.items():
                cell, t = divmod(out, deg_F)
                a, b = divmod(cell, N)
                w, rest = divmod(val - model.block_of(a) + model.block_of(b),
                                 model.e_A)
                assert rest == 0 and cell < N * N, (val, out)
                for j, y in row.items():
                    if y % model.p:
                        direct[j][(a, b, w, t)] = y % model.p
        for (r, c, w, i), got in zip(quot.coords, direct):
            e = {(r, c): {w: model._kF_basis[i]}}
            ad = mat_sub(mat_mul(N, g, e), mat_mul(N, e, g))
            want = {}
            for (a, b), ser in ad.items():
                for w2, coeff in ser.items():
                    for t, y in enumerate(model.kF_coords(coeff)):
                        if y % model.p:
                            want[(a, b, w2, t)] = y % model.p
            assert got == want, (x, (r, c, w, i))


def _min_ord_or_raise(model, c, level, exponent):
    try:
        return oracle.oracle_char_module_min_ord(model, c, level, exponent)
    except PrecisionExhausted:
        return PrecisionExhausted


def _char_module_min_ord_by_products(model, c, level, exponent):
    # reference: the full product c * X for each probe X, then its trace
    cmat = model.elt_to_matrix(c.at_level(0))
    nu_c = model.block_val(cmat)
    M = exponent + abs(nu_c) + 3 * model.e_A
    quot = model.quotient_context(M)
    best = None
    for row in rows(quot.order_level(level, exponent)):
        prod = mat_mul(model.N, cmat, vec_to_matrix(model, row, quot.coords))
        trace = {}
        for i in range(model.N):
            for w, x in prod.get((i, i), {}).items():
                trace[w] = trace[w] + x if w in trace else x
        tr = min((w for w, x in trace.items() if not x.is_zero()), default=None)
        if tr is not None and (best is None or tr < best):
            best = tr
    if best is None or best >= -(-(M + nu_c) // model.e_A):
        return PrecisionExhausted
    return best


@pytest.mark.parametrize("name", ["std3e2f1", "desk5"])
def test_char_module_min_ord_equals_product_route(name):
    model = _equivalence_model(name)
    tower, order = model.tower, model.order
    for level in range(tower.d + 1):
        pi = tower.uniformizer(level)
        theta = tower.monomial(tower.residue_generator(level), 0, level=level)
        for c in (pi.inverse(), theta * pi ** -2 + pi.inverse()):
            for step in (0, 1):
                exponent = -strata.nu_A(order, c) + step
                got = _min_ord_or_raise(model, c, level, exponent)
                want = _char_module_min_ord_by_products(
                    model, c, level, exponent)
                assert got == want, (level, c, step)
                if got is not PrecisionExhausted:
                    assert got == translate.char_module_valuation(
                        c, (level, exponent), order)


def test_char_module_min_ord_equals_kL_sums():
    # every character case of the corpus, as the character-depth suite
    # asks it: the trace in k_F coordinates, read until the valuation bound
    # stops it, against the full scan summed in k_L
    models, cases = {}, 0
    for label, bk in corpus.datum_corpus():
        if bk.kind != "a":
            continue
        if bk.order not in models:
            models[bk.order] = oracle.model_build(bk.order)
        model = models[bk.order]
        for entry in bk.seq.entries:
            v = -strata.nu_A(bk.order, entry.c)
            for exponent in (v, v + 1):
                got = _min_ord_or_raise(model, entry.c, entry.level, exponent)
                want = char_module_min_ord_in_kL(
                    model, entry.c, entry.level, exponent)
                assert got == want, (label, entry.level, exponent)
                cases += 1
    assert cases == 2 * 122         # two exponents per entry


@pytest.mark.parametrize("name", ["desk5", "desk2", "q9e2f2"])
def test_char_module_min_ord_of_sums_equals_kL_sums(name):
    # seeded sums of 2 or 3 monomials of one level at the exponents v, v+1
    # and v+2: in 34 of the 72 cases the scan reads past its first row, and
    # in 5 a later row lowers the least trace
    model = _equivalence_model(name)
    tower, order = model.tower, model.order
    rng = random.Random(32)
    for level in range(tower.d + 1):
        monos = tame.monomials_in_level(tower, level, -2, 0)
        for _ in range(3):
            first, *rest = rng.sample(monos, rng.choice((2, 3)))
            c = sum(rest, first)
            v = -strata.nu_A(order, c)
            for exponent in (v, v + 1, v + 2):
                assert _min_ord_or_raise(model, c, level, exponent) == \
                    char_module_min_ord_in_kL(model, c, level, exponent), (
                        level, c, exponent)


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS + CORPUS_ORDERS)
def test_commutant_equals_plain_kernel_route(name):
    # one model asked for M = 1, ..., 2 e_A + 1 in turn, against a kernel
    # of every generator's equations re-eliminated and projected
    model, plain = _equivalence_model(name), _equivalence_model(name)
    for M in range(1, 2 * model.e_A + 2):
        for level in range(model.tower.d + 1):
            got = model.commutant_in_quotient(level, model.quotient_context(M))
            want = commutant_by_kernel(plain, level, plain.quotient_context(M))
            assert got == want, (level, M)


def _coordinate_towers():
    desk2 = corpus.desk_tower_2()
    phi = next(g for g in desk2.group
               if g.frob_power == 1 and g.twist == desk2.k.one())
    return {
        "desk5": corpus.desk_tower_5(),
        "desk3": corpus.desk_tower_3(),
        "desk2": desk2,
        "p3q9e2f2": tame.make_tower(3, 2, 2, base_f=2),
        # H_0 != 1, so k_{E_0} = F_2 is smaller than k_L = F_4
        "desk2-fixed-phi": tame.make_tower(
            2, 3, 2, levels=(desk2.closure([phi]), desk2.group)),
    }


@pytest.mark.parametrize("name", sorted(_coordinate_towers()))
def test_coordinate_tables_rebuild_their_fields(name):
    tower = _coordinate_towers()[name]
    model = oracle.model_build(strata.make_order(tower, tower.level_degree(0)))
    k_F = set(tower.residue_subfield(tower.d))
    k_E0 = set(tower.residue_subfield(0))

    def from_coords(coords):
        acc = tower.k.zero()
        for x, basis in zip(coords, model._kF_basis):
            acc = acc + basis * x
        return acc

    for c in k_F:
        assert from_coords(model.kF_coords(c)) == c
        assert model._kF_elems[model.kF_coords(c)] == c
    for c in k_E0:
        coords = model.residue_coords(c)
        rebuilt = tower.k.zero()
        for b in range(model.f0):
            part = coords[b * model.deg_F:(b + 1) * model.deg_F]
            rebuilt = rebuilt + model.theta ** b * from_coords(part)
        assert rebuilt == c
    outside = [c for c in tower.k.elements() if c not in k_F]
    assert outside
    for c in outside:
        with pytest.raises(PrecisionExhausted):
            model.kF_coords(c)
        if c not in k_E0:
            with pytest.raises(PrecisionExhausted):
                model.residue_coords(c)
    assert (len(k_E0) < tower.k.order) == (name == "desk2-fixed-phi")


# -- the layered elimination ---------------------------------------------------

def _small_strata():
    """(order, beta) of every entry beta of the N <= 8 type (a) corpus data
    and pi_F^-1 of each of their orders, with one model per order."""
    data = [bk for _, bk in corpus.datum_corpus()
            if bk.kind == "a" and bk.order.N <= 8]
    models = {}
    for bk in data:
        if bk.order.key() not in models:
            models[bk.order.key()] = oracle.model_build(bk.order)
    cases = [(bk.order, entry.beta) for bk in data for entry in bk.seq.entries]
    cases += [(bk.order, bk.order.tower.pi_F() ** -1)
              for bk in {bk.order.key(): bk for bk in data}.values()]
    return [(models[order.key()], beta.at_level(0)) for order, beta in cases]


def test_scan_dimensions_equal_kernel_projections():
    # the k-scan reads the image dimension in A/P off the growing echelon
    # form at extent k + n; the reference solves x mod P^J against the
    # equations of ad_beta(x) in P^k in a Subspace of its own and projects
    # the kernel
    cases = _small_strata()
    assert len(cases) == 95
    strata_seen = 0
    for model, beta in cases:
        bmat = model.elt_to_matrix(beta)
        if oracle._lies_in_F(model, bmat):
            continue
        strata_seen += 1
        n = -model.block_val(bmat)
        J = 2 * n + 2 * model.e_A + 1
        big, res = model.quotient_context(J), model.quotient_context(1)
        width = len(res.coords)
        equations = {}
        oracle._ad_equations(model, [model._ad_terms(bmat)], {}, big, 0,
                             len(big.coords), equations)
        layers = oracle._Layers(model, [bmat], -n)
        reference = Subspace(model.p, len(big.coords))
        for k in range(-n, J - n):
            layers.extend(big, k + n)
            for row in equations.get(k - 1, {}).values():
                reference.add(row)
            want = res.project(reference.kernel()).dim
            assert oracle._image_dim(layers, width) == want, (beta, k)
    assert strata_seen == 60        # the rest lie in F


def _systems_of_small_orders():
    """(model, mats, shift, top) for every corpus order with N <= 8: each
    level's system (its generators that are not F-scalars) up to extent
    2 e_A + 1, and one k_0 system per type (a) datum with an entry beta
    not in F (the first such) up to extent J = 2n + 2 e_A + 1."""
    out = []
    for order in _corpus_orders().values():
        model = oracle.model_build(order)
        for level in range(model.tower.d + 1):
            mats = [g for g in generator_matrices(model, level)
                    if not oracle._lies_in_F(model, g)]
            if mats:
                out.append((model, mats, 0, 2 * model.e_A + 1))
        for _, bk in corpus.datum_corpus():
            if bk.kind != "a" or bk.order != order:
                continue
            bmat = next((m for m in (model.elt_to_matrix(e.beta.at_level(0))
                                     for e in bk.seq.entries)
                         if not oracle._lies_in_F(model, m)), None)
            if bmat is None:
                continue
            n = -model.block_val(bmat)
            out.append((model, [bmat], -n, 2 * n + 2 * model.e_A + 1))
    return out


def _mod_p(layer, p):
    """A pending layer reduced mod p, zero entries and rows dropped."""
    out = {}
    for key, row in layer.items():
        row = {j: x % p for j, x in row.items() if x % p}
        if row:
            out[key] = row
    return out


def test_cell_tables_give_the_reference_rows_mod_p():
    # each system extended one extent at a time holds, in pending and in
    # the rows it adds, the per-call reference's rows reduced mod p, and
    # no row holds a zero entry or is empty
    systems = _systems_of_small_orders()
    assert len(systems) == 50
    for model, mats, shift, top in systems:
        p = model.p
        quot = model.quotient_context(top)
        layers = oracle._Layers(model, mats, shift)
        added = []

        def recorded(row, add=layers.eqs.add):
            added.append(dict(row))
            return add(row)

        layers.eqs.add = recorded
        want = {}
        for extent in range(1, top + 1):
            start, before = layers.eqs.width, layers.extent
            added.clear()
            layers.extend(quot, extent)
            ad_equations_per_call(model, layers.terms, quot, start,
                                  layers.eqs.width, want)
            popped = [row for val in range(before + shift, extent + shift)
                      for row in _mod_p(want.pop(val, {}), p).values()]
            assert (sorted(sorted(r.items()) for r in added)
                    == sorted(sorted(r.items()) for r in popped)), extent
            left = {val: _mod_p(layer, p) for val, layer in want.items()}
            assert layers.pending == {val: layer for val, layer in left.items()
                                      if layer}, extent
            for row in added + [row for layer in layers.pending.values()
                                for row in layer.values()]:
                assert row and all(0 < x < p for x in row.values())


def test_a_system_builds_each_cell_table_once(monkeypatch, model):
    # a k_0 system extended one extent at a time to J builds each cell's
    # table at most once, however many extents its unknowns enter at
    built = []
    cell_table = oracle._cell_table

    def counted(*args):
        built.append(args[2:])
        return cell_table(*args)

    monkeypatch.setattr(oracle, "_cell_table", counted)
    w = model.tower.k.gen()
    bmat = model.elt_to_matrix(model.tower.series(
        0, [(-1, w), (Fraction(-1, 2), 1)]))
    n = -model.block_val(bmat)
    J = 2 * n + 2 * model.e_A + 1
    layers = oracle._Layers(model, [bmat], -n)
    quot = model.quotient_context(J)
    for extent in range(1, J + 1):
        layers.extend(quot, extent)
    assert len(set(built)) == len(built) == len(layers.tables)
    assert len(built) <= model.N ** 2 * model.deg_F
    assert layers.eqs.width > len(built)        # cells recur across extents


def _twisted_tower():
    # p=5, e=3, f=2, zeta = w^3 of order 8, as in test_twisted.py
    z = FqField(5, 2).gen() ** 3
    base = tame.make_tower(5, 3, 2, zeta=list(z.coeffs))
    inertia = frozenset(g for g in base.group if g.frob_power == 0)
    return tame.make_tower(5, 3, 2, zeta=list(z.coeffs),
                           levels=(frozenset([base.identity]), inertia,
                                   base.group))


def test_elt_to_matrix_equals_products_per_term():
    # every corpus entry c and beta, and pi_F^-1 and both generators of
    # every level, on every corpus order (the five built-in towers', desk5x2
    # with m_0 = 2 among them) and on a tower whose zeta is not 1, so that
    # the factor's zeta^-w varies with w; against a plain product per term
    orders = {}
    for _, bk in corpus.datum_corpus():
        orders.setdefault(bk.order.key(), bk.order)
    orders = list(orders.values())
    assert len({o.tower for o in orders}) == 5
    assert [o.m[0] for o in orders].count(2) == 1      # desk5x2
    twisted = _twisted_tower()
    orders.append(strata.make_order(twisted, twisted.level_degree(0)))
    checked = 0
    for order in orders:
        model = oracle.model_build(order)
        tower = order.tower
        xs = [tower.pi_F() ** -1]
        for level in range(tower.d + 1):
            xs += [tower.monomial(tower.residue_generator(level), 0),
                   tower.uniformizer(level)]
        for _, bk in corpus.datum_corpus():
            if bk.kind == "a" and bk.order == order:
                xs += [x for e in bk.seq.entries for x in (e.c, e.beta)]
        for x in xs:
            x = x.at_level(0)
            assert (model.elt_to_matrix(x)
                    == elt_to_matrix_by_products(model, x)), x
            checked += 1
    assert checked == 295


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_commutant_grows_one_system_per_level(name, monkeypatch):
    # one model asked for M = 1, 2, ..., 2 e_A + 1 in turn extends each
    # level's system and answers as a fresh model solving at that M; a
    # level whose generators all act as F-scalars has no system and is the
    # whole quotient, with no solve
    model = _equivalence_model(name)
    levels = range(model.tower.d + 1)
    scalar = _scalar_levels(model)
    assert scalar
    solves = []
    image_dim = oracle._image_dim

    def counted(layers, width):
        solves.append(layers)
        return image_dim(layers, width)

    monkeypatch.setattr(oracle, "_image_dim", counted)
    systems = {}
    for M in range(1, 2 * model.e_A + 2):
        fresh = _equivalence_model(name)
        for level in levels:
            solves.clear()
            quot = model.quotient_context(M)
            got = model.commutant_in_quotient(level, quot)
            if level in scalar:
                assert got == quot.radical_power(0) and not solves, (level, M)
                assert level not in model._systems
                continue
            want = fresh.commutant_in_quotient(level, fresh.quotient_context(M))
            assert got == want, (level, M)
            held = model._systems[level]
            assert systems.setdefault(level, held) is held
            assert held.extent >= M + model.e_A


@pytest.mark.parametrize("name", EQUIVALENCE_ORDERS)
def test_concurrent_callers_agree(name, monkeypatch):
    # two threads ask one model for different M of one level: the first is
    # held inside its solve until the second has finished, so the second
    # finds the level's system taken out and solves in a system of its own
    image_dim = oracle._image_dim
    e_A = _equivalence_model(name).e_A
    inside, second_done = threading.Event(), threading.Event()

    def held_back(layers, width):
        if threading.current_thread().name == "first":
            inside.set()
            assert second_done.wait(10)
        return image_dim(layers, width)

    monkeypatch.setattr(oracle, "_image_dim", held_back)
    wants = {}
    for first, second in ((2 * e_A + 1, e_A + 1), (e_A + 1, 2 * e_A + 1)):
        model = _equivalence_model(name)
        scalar = _scalar_levels(model)
        for level in range(model.tower.d + 1):
            if level in scalar:
                # no solve to hold back: each caller gets the whole quotient
                for M in (1, first, second):
                    quot = model.quotient_context(M)
                    assert model.commutant_in_quotient(level, quot) \
                        == quot.radical_power(0), (level, M)
                continue
            got = {1: model.commutant_in_quotient(
                level, model.quotient_context(1))}
            inside.clear()
            second_done.clear()

            def ask(M):
                got[M] = model.commutant_in_quotient(
                    level, model.quotient_context(M))

            thread = threading.Thread(target=ask, args=(first,), name="first")
            thread.start()
            assert inside.wait(10)
            assert level not in model._systems
            ask(second)
            second_done.set()
            thread.join(10)
            assert not thread.is_alive()
            assert level in model._systems
            for M in (1, first, second):
                if (level, M) not in wants:
                    fresh = _equivalence_model(name)
                    wants[level, M] = fresh.commutant_in_quotient(
                        level, fresh.quotient_context(M))
                assert got[M] == wants[level, M], (level, M)


def test_concurrent_callers_stress():
    # rounds of more threads than cores, released together with a short
    # switch interval, each asking one model for another M of one level;
    # every answer must be a fresh model's
    name = "desk2"
    e_A = _equivalence_model(name).e_A
    Ms = [e_A + 1, e_A + 2, 2 * e_A + 1, 3 * e_A + 1]
    got, errors = [], []

    def work(model, level, M, barrier):
        try:
            barrier.wait(10)
            got.append((level, M, model.commutant_in_quotient(
                level, model.quotient_context(M))))
        except Exception as exc:        # reported below, in the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            model = _equivalence_model(name)
            for level in range(model.tower.d + 1):
                # the level's system exists, so every thread extends it
                model.commutant_in_quotient(level, model.quotient_context(1))
                barrier = threading.Barrier(len(Ms))
                threads = [threading.Thread(target=work,
                                            args=(model, level, M, barrier))
                           for M in Ms]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors
    fresh = {}
    for level, M, space in got:
        if (level, M) not in fresh:
            other = _equivalence_model(name)
            fresh[level, M] = other.commutant_in_quotient(
                level, other.quotient_context(M))
        assert space == fresh[level, M], (level, M)
    assert len(got) == 5 * (model.tower.d + 1) * len(Ms)


def test_stopping_rule_still_bites(monkeypatch, model):
    # an image dimension that never repeats must exhaust the five extents,
    # each compared with the one e_A before it, also when the held system
    # already reaches past M + 4 e_A
    seen = []

    def never_repeats(layers, width):
        seen.append(layers.extent)
        return len(seen)

    e_A, M = model.e_A, 2
    tower = model.tower
    mats = [model.elt_to_matrix(g.at_level(0))
            for g in (tower.monomial(tower.residue_generator(0), 0),
                      tower.uniformizer(0))]
    target = model.quotient_context(M)
    held = oracle._Layers(model, mats, 0)
    far = M + 6 * e_A
    held.extend(model.quotient_context(far), far)
    monkeypatch.setattr(oracle, "_image_dim", never_repeats)
    for layers, start in ((oracle._Layers(model, mats, 0), M), (held, far)):
        seen.clear()
        with pytest.raises(PrecisionExhausted):
            oracle._centraliser_image(layers, target)
        assert seen == [start + s * e_A for s in range(5)]
    seen.clear()
    fresh = oracle.model_build(model.order)
    with pytest.raises(PrecisionExhausted):
        fresh.commutant_in_quotient(0, fresh.quotient_context(M))
    assert seen == [M + s * e_A for s in range(5)]
    assert 0 not in fresh._systems
