"""Exact arithmetic in finite fields F_{p^f}.

A field is described by its characteristic, its degree over F_p and a monic
irreducible modulus given as a coefficient list (low degree first).  Elements
are fixed-length coefficient vectors reduced against the modulus, so values
are canonical and can be compared and hashed structurally.  Products and
powers read discrete-log tables, built at construction and shared by equal
fields.  Everything is pure Python integer arithmetic; nothing here is
approximate.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from types import MappingProxyType

from .errors import (
    BadDegree, DivisionByZero, FieldMismatch, NotPrime, ReducibleModulus,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomials over F_p, coefficients low degree first
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        top = a[-1] % p
        shift = len(a) - 1 - dm
        if top:
            for i in range(dm):
                a[shift + i] = (a[shift + i] - top * m[i]) % p
        a.pop()
        _trim(a)
    return _trim([c % p for c in a])


def _poly_gcd(a, b, p):
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _poly_powmod(a, e, m, p):
    result = [1]
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(modulus, p):
    f = len(modulus) - 1
    if f < 1 or modulus[-1] != 1:
        return False
    if f == 1:
        return True
    # no factor of degree k < f: gcd(x^{p^k} - x, modulus) = 1 for all k < f
    xq = [0, 1]
    for _ in range(1, f):
        xq = _poly_powmod(xq, p, modulus, p)
        diff = _trim([(c - d) % p for c, d in
                      zip(xq + [0] * 2, [0, 1] + [0] * len(xq))])
        g = _poly_gcd(diff, modulus, p)
        if len(g) != 1:
            return False
    # x^{p^f} must reduce to x, ruling out a wrong-degree modulus
    xq = _poly_powmod(xq, p, modulus, p)
    return xq == [0, 1]


def _coeff_space(p, f):
    """Every coefficient vector of length f over F_p, first entry fastest."""
    coeffs = [0] * f
    while True:
        yield tuple(coeffs)
        i = 0
        while i < f:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        if i == f:
            return


@cache
def _log_tables(p, f, modulus):
    """(log, exp) of F_{p^f} = F_p[x]/(modulus), built once per field.

    One power walk per candidate: the nonzero coefficient vectors are
    tried in elements() order, each is multiplied by itself with
    polynomial arithmetic until its power returns to 1, and the first
    whose walk takes p^f - 1 steps is the generator.  Its walk is the
    antilog table.  The modulus must be irreducible: only a zero
    divisor's powers never reach 1.
    """
    n = p ** f - 1
    one = (1,) + (0,) * (f - 1)
    for cand in _coeff_space(p, f):
        if not any(cand):
            continue
        exp, cur = [one], cand
        while cur != one:
            exp.append(cur)
            red = _poly_mod(_poly_mul(list(cur), list(cand), p), modulus, p)
            cur = tuple(red) + (0,) * (f - len(red))
        if len(exp) == n:
            break
    return MappingProxyType({c: i for i, c in enumerate(exp)}), tuple(exp)


def default_modulus(p: int, f: int) -> list:
    """First monic irreducible of degree f over F_p in lexicographic order."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise BadDegree("degree must be >= 1")
    if f == 1:
        return [0, 1]
    for coeffs in _coeff_space(p, f):
        modulus = list(coeffs) + [1]
        if _is_irreducible(modulus, p):
            return modulus
    raise ReducibleModulus(f"no irreducible of degree {f} over F_{p}")


class FqField:
    """Descriptor of F_{p^f} with a fixed monic irreducible modulus.

    Multiplicative arithmetic runs on log/antilog tables (exact integer
    index arithmetic); the polynomial representation is only used for
    construction and for additive operations.

    The tables are built at construction by ``_log_tables`` and shared by
    every field with the same ``(p, f, modulus)``; they are read-only (a
    ``MappingProxyType`` and a tuple).  The generator is the first element,
    in ``elements()`` order, whose powers run through the whole group.
    """

    __slots__ = ("p", "f", "modulus", "_log", "_exp", "_hash")

    def __init__(self, p: int, f: int, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if f < 1:
            raise BadDegree("degree must be >= 1")
        if modulus is None:
            modulus = default_modulus(p, f)
        modulus = [c % p for c in modulus]
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree f")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
        self.p = p
        self.f = f
        self.modulus = tuple(modulus)
        self._log, self._exp = _log_tables(p, f, self.modulus)
        self._hash = hash((p, f, self.modulus))

    @property
    def order(self) -> int:
        return self.p ** self.f

    def elem(self, value) -> "FqElem":
        if isinstance(value, FqElem):
            if value.field != self:
                raise FieldMismatch("element of a different field")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.f - 1)
        else:
            coeffs = [c % self.p for c in value]
            if len(coeffs) > self.f:
                coeffs = _poly_mod(coeffs, list(self.modulus), self.p)
            coeffs = coeffs + [0] * (self.f - len(coeffs))
        return FqElem(self, tuple(coeffs))

    def from_log(self, i: int) -> "FqElem":
        """The element g^i for the generator g of the log tables."""
        return FqElem(self, self._exp[i % (self.order - 1)])

    def zero(self) -> "FqElem":
        return self.elem(0)

    def one(self) -> "FqElem":
        return self.elem(1)

    def gen(self) -> "FqElem":
        """Canonical generator: the residue of x (the field itself for f=1)."""
        if self.f == 1:
            return self.one()
        return self.elem([0, 1])

    def elements(self):
        """All p^f elements, lexicographic in coefficient vectors."""
        for coeffs in _coeff_space(self.p, self.f):
            yield FqElem(self, coeffs)

    def subfield_elements(self, degree: int):
        """Elements of the unique subfield of given absolute degree."""
        if self.f % degree:
            raise BadDegree(f"{degree} does not divide {self.f}")
        q = self.p ** degree
        return [a for a in self.elements() if a ** q == a]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FqField) and self.p == other.p
            and self.f == other.f and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FqField({self.p}, {self.f})"


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        """other as an element of this field; NotImplemented for an operand
        that is neither an int nor an FqElem (a series, say), so Python tries
        its reflected operator."""
        if isinstance(other, int):
            return self.field.elem(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch("operands live in different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in
                                        zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        if not any(self.coeffs) or not any(other.coeffs):
            return fld.zero()
        log = fld._log
        n = fld.order - 1
        return FqElem(fld, fld._exp[(log[self.coeffs] + log[other.coeffs]) % n])

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not any(self.coeffs):
            raise DivisionByZero("inverse of zero")
        fld = self.field
        return FqElem(fld, fld._exp[-fld._log[self.coeffs] % (fld.order - 1)])

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        fld = self.field
        if not any(self.coeffs):
            if e == 0:
                return fld.one()
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return fld.zero()
        n = fld.order - 1
        return FqElem(fld, fld._exp[(fld._log[self.coeffs] * e) % n])

    def frobenius(self, base_degree: int, k: int = 1) -> "FqElem":
        """a^(p^(base_degree*k)): Frobenius over the degree-base_degree subfield."""
        if self.field.f % base_degree:
            raise BadDegree(f"{base_degree} does not divide {self.field.f}")
        k %= self.field.f // base_degree
        return self ** (self.field.p ** (base_degree * k))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def log(self) -> int:
        """Discrete log to the generator of the field's log tables."""
        if not any(self.coeffs):
            raise DivisionByZero("zero has no discrete log")
        return self.field._log[self.coeffs]

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative order")
        n = self.field.order - 1
        return n // gcd(self.log(), n)

    def orbit_size(self, base_degree: int = 1) -> int:
        """Size of the Frobenius orbit over the degree-base_degree subfield.

        The least m >= 1 with a^(q^m) = a, q = p^base_degree; a generates
        the field over that subfield iff this is f / base_degree.
        """
        if self.field.f % base_degree:
            raise BadDegree(f"{base_degree} does not divide {self.field.f}")
        if self.is_zero():
            return 1
        order, q = self.multiplicative_order(), self.field.p ** base_degree
        m = 1
        while pow(q, m, order) != 1 % order:
            m += 1
        return m

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        return (isinstance(other, FqElem) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Fq{self.field.order}{list(self.coeffs)}"
