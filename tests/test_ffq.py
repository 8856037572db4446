import pytest

from tamestrata import ffq
from tamestrata.errors import (
    BadDegree, DivisionByZero, FieldMismatch, NotPrime, ReducibleModulus,
)


@pytest.fixture
def F25():
    return ffq.FqField(5, 2, [2, 4, 1])   # x^2 - x - 3


def test_make_prime_field():
    F5 = ffq.FqField(5, 1, [0, 1])
    assert F5.order == 5
    assert F5.elem(7) == F5.elem(2)


def test_make_field_validates_modulus(F25):
    w = F25.gen()
    assert w * w == w + 3
    with pytest.raises(ReducibleModulus):
        ffq.FqField(5, 2, [4, 0, 1])      # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(NotPrime):
        ffq.FqField(6, 1, [0, 1])


def test_make_field_rejects_a_non_integer_prime_or_degree():
    with pytest.raises(NotPrime):
        ffq.FqField(5.0, 2)
    with pytest.raises(BadDegree):
        ffq.FqField(5, 2.0)
    with pytest.raises(NotPrime):
        ffq.default_modulus(5.0, 2)
    with pytest.raises(BadDegree):
        ffq.default_modulus(5, 2.0)


def test_arith(F25):
    w = F25.gen()
    assert w + (-w) == F25.zero()
    assert w * w == w + 3
    assert w ** 24 == F25.one()
    assert w.inverse() * w == F25.one()
    with pytest.raises(DivisionByZero):
        F25.zero().inverse()
    with pytest.raises(FieldMismatch):
        w + ffq.FqField(3, 1).one()


def test_operators_with_ints_and_zero_powers(F25):
    w, zero = F25.gen(), F25.zero()
    # an int on the left of - and on either side of / and ==
    assert 3 - w == F25.elem([3, 4]) == -(w - 3)
    assert w / 3 == w * F25.elem(3).inverse() == F25.elem([0, 2])
    assert w / w == 1
    with pytest.raises(DivisionByZero):
        w / 0
    assert zero ** 0 == F25.one()
    assert zero ** 3 == zero
    with pytest.raises(DivisionByZero):
        zero ** -1
    assert w != 3 and not (w == 3)
    assert F25.elem(8) == 3 and 3 == F25.elem(8)


def test_frobenius(F25):
    w = F25.gen()
    assert w.frobenius(1, 1) == w ** 5
    assert w.frobenius(1, 2) == w
    assert F25.elem(3).frobenius(1, 1) == F25.elem(3)
    with pytest.raises(BadDegree):
        w.frobenius(3, 1)


def test_generates(F25):
    w = F25.gen()
    assert w.orbit_size(1) == 2
    assert F25.one().orbit_size(1) == 1
    assert (w * w).orbit_size(1) == 2           # w + 3: orbit size 2
    assert F25.zero().orbit_size(1) == 1
    with pytest.raises(BadDegree):
        w.orbit_size(3)


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (5, 2), (5, 1), (2, 4)])
def test_field_axioms_exhaustive(p, f):
    # p^f <= 625 throughout: full check of the homomorphism property
    field = ffq.FqField(p, f)
    elems = list(field.elements())
    assert len(elems) == p ** f
    one = field.one()
    for a in elems:
        if not a.is_zero():
            assert a ** (p ** f - 1) == one
            assert a.inverse() * a == one
    for a in elems[: p ** f]:
        fa = a.frobenius(1, 1)
        for b in elems:
            assert (a * b).frobenius(1, 1) == fa * b.frobenius(1, 1)
            assert (a + b).frobenius(1, 1) == fa + b.frobenius(1, 1)


def _min_poly_degree(a):
    # degree of the minimal polynomial of a over the base subfield,
    # by direct linear dependence of powers
    p, f = a.field.p, a.field.f
    vecs = [a.field.one()]
    while True:
        vecs.append(vecs[-1] * a)
        rows = [list(v.coeffs) for v in vecs]
        if _rank(rows, p) < len(rows):
            return len(vecs) - 1


def _rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p,f", [(5, 2), (3, 3), (2, 4)])
def test_generates_matches_minimal_polynomial(p, f):
    # F_25, F_27, F_16: the Frobenius orbit size over F_p is the degree of
    # the minimal polynomial, so a generates iff it equals f
    field = ffq.FqField(p, f)
    for a in field.elements():
        if a.is_zero():
            continue
        assert a.orbit_size(1) == _min_poly_degree(a)


def test_default_modulus_deterministic():
    assert ffq.default_modulus(5, 2) == ffq.default_modulus(5, 2)
    m = ffq.default_modulus(2, 11)      # p^f <= 3125 range
    f = ffq.FqField(2, 11, m)
    assert f.order == 2048


@pytest.mark.parametrize("p,f", [(2, 1), (2, 4), (3, 2), (5, 2), (2, 6),
                                 (5, 3)])
def test_order_and_orbit_match_repeated_arithmetic(p, f):
    # references: the first power that is one, the first Frobenius power
    # over the degree-b subfield that returns to the element
    field = ffq.FqField(p, f)
    one = field.one()
    first_generator = None
    for a in field.elements():
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.multiplicative_order()
            continue
        order, x = 1, a
        while x != one:
            order, x = order + 1, x * a
        if first_generator is None and order == p ** f - 1:
            first_generator = a
        assert a.multiplicative_order() == order
        assert field.from_log(a.log()) == a
        for b in (d for d in range(1, f + 1) if f % d == 0):
            orbit, y = 1, a.frobenius(b, 1)
            while y != a:
                orbit, y = orbit + 1, y.frobenius(b, 1)
            assert a.orbit_size(b) == orbit
    # the log tables are built on the first generator in elements() order
    assert field.from_log(1) == first_generator


def test_field_equality_and_hash_are_structural():
    a, b = ffq.FqField(5, 2), ffq.FqField(5, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ffq.FqField(5, 2, [3, 0, 1]) and a != ffq.FqField(5, 1)
    assert hash(a.gen()) == hash(b.gen())


def test_equal_fields_share_read_only_tables():
    a, b = ffq.FqField(5, 2), ffq.FqField(5, 2)
    assert a is not b and len(a._exp) == len(a._log) == 24
    assert a._exp is b._exp and a._log is b._log
    with pytest.raises(TypeError):
        a._log[(0, 1)] = 0
    with pytest.raises(TypeError):
        a._exp[0] = (0, 1)


def test_modulus_tested_once_per_equal_field(monkeypatch):
    calls = []
    real = ffq._is_irreducible

    def counting(modulus, p):
        calls.append((tuple(modulus), p))
        return real(modulus, p)

    monkeypatch.setattr(ffq, "_is_irreducible", counting)
    # F_11[x]/(x^2 + 1), a field no other test builds
    a, b = ffq.FqField(11, 2, [1, 0, 1]), ffq.FqField(11, 2, [1, 0, 1])
    assert a == b and a._log is b._log
    assert calls == [((1, 0, 1), 11)]


def test_reducible_modulus_raises_on_every_construction():
    for _ in range(2):                    # x^2 + 1 = (x - 2)(x + 2) over F_5
        with pytest.raises(ReducibleModulus, match="reducible over F_5"):
            ffq.FqField(5, 2, [1, 0, 1])
