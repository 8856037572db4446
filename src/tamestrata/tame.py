"""Tame towers of local fields in equal characteristic.

The ambient field is L = k_L((s)) over F = k_F((t)), with t = zeta * s^e for
a prime-to-p root of unity zeta in k_L.  Every automorphism of L over F acts
as a Frobenius power on coefficients and multiplies s by a constant twist:

    g(c * s^k) = frob^j(c) * twist^k * s^k        g = (j, twist)

so the Galois group is metacyclic and entirely explicit.  Tower levels are
fixed fields of a chain of subgroups H_0 <= H_1 <= ... <= H_d = Gal(L/F),
giving E_0 ⊇ E_1 ⊇ ... ⊇ E_d = F.  Elements are truncated series with exact
rational exponents (denominator dividing e) and coefficients in k_L; a term
list plus a precision bound is always exact information, never a float.

Valuations are normalised so ord(t) = 1, hence ord(s) = 1/e.  Internally
exponents are stored as integers in units of 1/e ("s-exponents").

In discrete logs (n = |k_L^x|, b = [k_F : F_p]) g acts on a term by one
affine map mod n, tabulated once per equal TowerSpec:

    log c  ->  mult_g * log c + k * log u        mult_g = p^(b*j) mod n

so g fixes c * s^k iff (mult_g - 1) * log c + k * log u = 0 (mod n), and
fixedness, levels and stabilisers are integer congruences.  apply tags
g(a), a in E_level, with the largest i such that H_i <= g H_level g^-1
(g(a) is fixed by that conjugate, so it lies in E_i): possibly deeper than
the natural level, always sound.  If no H_i fits (a non-normal H_0),
apply falls back to natural_level.

The group and subgroup checks run on the same pairs: the twists of the
Frobenius power j solve e * log u = (1 - p^(b*j)) * log zeta (mod n), a
chain entry is a subgroup iff its pairs are closed under composition, and
coset representatives are found by testing r^-1 * g on pairs, with

    (m, l) after (m', l') = (m*m', l + m*l')      (m, l)^-1 = (m^-1, -m^-1*l)

Tower.compose and Tower.invert work on GaloisElements, for callers that
need the elements themselves.

Everything a Tower derives from its spec (the group, the chain, these
tables, the level uniformizers and residue fields, the coset
representatives of chain pairs) is built by one cached builder keyed on
the spec's plain integers, read-only and shared by every tower with an
equal spec.  Tower objects stay distinct and keep no cache of their own,
but a tower is its spec: two towers compare equal, and hash alike,
exactly when their specs are equal, so records over towers compare by
value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    BadChain, BadLevel, NotASubgroup, NotInLevel, NotTame, PrecisionExhausted,
    RootOfUnityMissing, TowerMismatch, VerificationFailed, ZeroToPrecision,
)
from .ffq import FqElem, FqField


class GaloisElement(NamedTuple):
    """Automorphism (j, u): Frobenius power j on k_L, s -> u*s."""
    frob_power: int
    twist: FqElem

    def sort_key(self):
        return (self.frob_power, self.twist.coeffs)

    def __repr__(self):
        return f"Gal(j={self.frob_power}, u={list(self.twist.coeffs)})"


class TowerSpec(NamedTuple):
    """The data of a tower.  levels=None means the default chain
    {1} <= Gal(L/F) (Gal(L/F) alone when it is trivial); Tower resolves it
    and keeps the resolved chain in its spec."""
    base: FqField              # residue field of F
    e: int                     # ramification of L/F
    f: int                     # residue degree of L/F
    residue: FqField           # k_L, degree base.f * f over F_p
    zeta: FqElem               # t = zeta * s^e, a prime-to-p root of unity
    levels: tuple              # chain of subgroups H_0 <= ... <= H_d = Gal(L/F)


class _GaloisTables(NamedTuple):
    """Everything a tower derives from its spec (see _galois_tables).

    Read-only throughout: tuples, frozensets and MappingProxyTypes.  A
    group element g appears as its pair (mult_g, log u_g), which
    determines it.
    """
    mults: tuple               # mult_j = p^(b*j) mod n
    group: frozenset
    identity: GaloisElement
    identity_action: tuple     # the pair of the identity
    inertia: frozenset
    chain: tuple               # the resolved, validated chain H_0 < ... < H_d,
                               # with H_d the group object
    level_data: tuple          # (degree, e, f) over F of each E_i
    level_action: tuple        # pairs of the non-identity elements of H_i
    level_pairs: MappingProxyType   # H_i -> ((g, pair of g), ...) over H_i
    image_level: MappingProxyType   # pair of g -> level tag of g(E_i), per i
    uniformizers: tuple        # (k, c): c * s^k is the uniformizer of E_i
    subfields: tuple           # residue field of E_i, as elements of k_L
    generators: tuple          # first generator of each residue field
    cosets: MappingProxyType   # (H_i, H_j), i <= j -> coset representatives


def _spec_key(spec: TowerSpec) -> tuple:
    """The spec in plain ints: each level is a frozenset of (frob_power,
    twist coefficients); an element whose twist lies outside k_L stays
    itself, so that the builder rejects it."""
    base, k = spec.base, spec.residue
    levels = spec.levels
    if levels is not None:
        levels = tuple(frozenset((g.frob_power, g.twist.coeffs)
                                 if g.twist.field == k else g for g in H)
                       for H in levels)
    return (base.p, base.f, base.modulus, spec.e, spec.f, k.f, k.modulus,
            spec.zeta.coeffs, levels)


@cache
def _galois_tables(key: tuple) -> _GaloisTables:
    """The tables of a tower, built once per equal spec (keyed by
    _spec_key, from which the fields, zeta and chain are rebuilt) and
    shared by every Tower with it, as ffq._log_tables is by equal fields.

    Raises on a bad group or chain; an exception is not cached, so every
    construction from a bad spec raises again.
    """
    p, base_f, base_modulus, e, f, k_f, k_modulus, zeta, levels = key
    base, k = FqField(p, base_f, base_modulus), FqField(p, k_f, k_modulus)
    n = k.order - 1
    mults = _frobenius_mults(base, f, n)

    def action(g):
        return mults[g.frob_power % f], g.twist.log()

    group = _build_group(base, e, f, k, FqElem(k, zeta))
    # every level holds the group's own element objects, so comparing a
    # stabiliser with a level meets each element by identity
    by_key = {g.sort_key(): g for g in group}
    identity = by_key[(0, k.one().coeffs)]
    inertia = frozenset(g for g in group if g.frob_power == 0)
    if levels is None:
        levels = (frozenset([identity]), group) if len(group) > 1 else (group,)
    else:
        levels = tuple(frozenset(x if isinstance(x, GaloisElement)
                                 else by_key.get(x) or
                                 GaloisElement(x[0], FqElem(k, x[1]))
                                 for x in H) for H in levels)
    if not levels:
        raise BadChain("empty chain")
    for H in levels:
        if not _is_subgroup(H, group, identity, action, n):
            raise NotASubgroup(f"{sorted(H, key=GaloisElement.sort_key)}")
    for a, b in zip(levels, levels[1:]):
        if not (a < b):
            raise BadChain("chain subgroups must increase strictly")
    if levels[-1] != group:
        raise BadChain("last subgroup must be the full Galois group")
    chain, d = levels[:-1] + (group,), len(levels) - 1
    level_data = tuple(_field_invariants(e, f, inertia, H) for H in chain)

    # the action on discrete logs (see the module docstring): image[x][i]
    # is the level tag of g applied to an element of E_i, or None
    identity_action = action(identity)
    pair_chain = [frozenset(map(action, H)) for H in chain]
    level_action = tuple(tuple(P - {identity_action}) for P in pair_chain)
    image = {}
    for x in pair_chain[-1]:
        x_inv = _pair_invert(x, n, f)
        tags = []
        for P in pair_chain:
            conj = {_pair_compose(_pair_compose(x, h, n), x_inv, n) for h in P}
            tags.append(next((i for i in range(d, -1, -1)
                              if pair_chain[i] <= conj), None))
        image[x] = tuple(tags)

    # the first unit c, in elements() order, with c * s^(e/e_i) in E_i
    units = [(c, c.log()) for c in k.elements() if not c.is_zero()]
    uniformizers = []
    for i, (_, e_i, _) in enumerate(level_data):
        m = e // e_i
        c = next((c for c, lc in units
                  if _fixes(level_action[i], n, ((m, lc),))), None)
        if c is None:
            raise AssertionError(f"no monomial uniformizer at level {i}")
        uniformizers.append((m, c))

    subfields, generators = [], []
    for _, _, f_i in level_data:
        deg = base.f * f_i
        sub = tuple(k.subfield_elements(deg))
        theta = next((a for a in sub
                      if not a.is_zero() and a.orbit_size() == deg), None)
        if theta is None:
            raise AssertionError("no residue generator found")
        subfields.append(sub)
        generators.append(theta)

    cosets = {(chain[i], chain[j]): _coset_reps(chain[i], chain[j], action, n, f)
              for j in range(d + 1) for i in range(j + 1)}
    return _GaloisTables(
        mults, group, identity, identity_action, inertia, chain, level_data,
        level_action,
        MappingProxyType({H: tuple((g, action(g)) for g in H) for H in chain}),
        MappingProxyType(image), tuple(uniformizers), tuple(subfields),
        tuple(generators), MappingProxyType(cosets))


class Tower:
    """Validated tame tower; immutable after construction.

    The group, the chain, the action tables, the level uniformizers and
    residue fields and the coset representatives of chain pairs come from
    _galois_tables: read-only, and shared by every tower with an equal
    spec.  A tower fills no cache of its own.  Towers are distinct objects
    that compare and hash by spec, so a parsed copy equals its original.
    """

    def __init__(self, spec: TowerSpec):
        base, k = spec.base, spec.residue
        if any(type(x) is not int or x < 1 for x in (spec.e, spec.f)):
            raise BadChain("e and f must be positive integers")
        if spec.e % base.p == 0:
            raise NotTame(f"p={base.p} divides e={spec.e}")
        if k.p != base.p or k.f != base.f * spec.f:
            raise BadChain("residue field degree must be base.f * f")
        if (k.order - 1) % spec.e != 0:
            raise RootOfUnityMissing(f"e={spec.e} does not divide |k_L^x|")
        if spec.zeta.field != k or spec.zeta.is_zero():
            raise RootOfUnityMissing("zeta must be a nonzero element of k_L")
        tables = _galois_tables(_spec_key(spec))
        self._tables = tables
        self.spec = spec._replace(levels=tables.chain)
        self._hash = hash(self.spec)
        self.base = base
        self.k = k
        self.e = spec.e
        self.f = spec.f
        self.zeta = spec.zeta
        self.q = base.order
        self._n = k.order - 1
        self._mults = tables.mults
        self.group = tables.group
        self.identity = tables.identity
        self.inertia = tables.inertia
        self.chain = tables.chain
        self.d = len(self.chain) - 1
        self._level_data = tables.level_data
        self._level_action = tables.level_action
        self._image_level = tables.image_level
        # precision of the inverse of an exact series, in s-exponent units
        self.default_prec_k = max(8, 4 * self.e) * self.e

    # -- group construction ---------------------------------------------

    def compose(self, g: GaloisElement, h: GaloisElement) -> GaloisElement:
        """g after h."""
        j = (g.frob_power + h.frob_power) % self.f
        return GaloisElement(
            j, g.twist * h.twist.frobenius(self.base.f, g.frob_power))

    def invert(self, g: GaloisElement) -> GaloisElement:
        j = (-g.frob_power) % self.f
        return GaloisElement(j, g.twist.inverse().frobenius(self.base.f, j))

    def is_subgroup(self, subset) -> bool:
        return _is_subgroup(frozenset(subset), self.group, self.identity,
                            self.action, self._n)

    def closure(self, generators) -> frozenset:
        s = {self.identity}
        frontier = list(generators)
        while frontier:
            g = frontier.pop()
            if g in s:
                continue
            s.add(g)
            frontier.extend(self.compose(g, h) for h in list(s))
            frontier.append(self.invert(g))
        return frozenset(s)

    def action(self, g: GaloisElement):
        """(mult_g, log u_g): g maps log c in c*s^k to mult_g*log c + k*log u_g."""
        return self._mults[g.frob_power % self.f], g.twist.log()

    def field_invariants(self, H):
        """(degree, e, f) over F of the fixed field L^H of the subgroup H."""
        return _field_invariants(self.e, self.f, self.inertia, H)

    # -- level data -------------------------------------------------------

    def check_level(self, i: int) -> int:
        if not 0 <= i <= self.d:
            raise BadLevel(f"level {i} outside chain 0..{self.d}")
        return i

    def level_degree(self, i):
        return self._level_data[self.check_level(i)][0]

    def level_e(self, i):
        return self._level_data[self.check_level(i)][1]

    def level_f(self, i):
        return self._level_data[self.check_level(i)][2]

    def level_residue_degree(self, i):
        return self.base.f * self.level_f(i)

    def residue_subfield(self, i):
        """Elements of the residue field of E_i, as a subset of k_L."""
        return self._tables.subfields[self.check_level(i)]

    def residue_generator(self, i) -> FqElem:
        """First element of k_{E_i} generating it over F_p."""
        return self._tables.generators[self.check_level(i)]

    # -- series construction ----------------------------------------------

    def series(self, level, terms, prec=None) -> "TameSeries":
        """Build a series from (exponent, coefficient) pairs.

        Exponents are rationals in ord units (denominator dividing e);
        coefficients are k_L elements or ints.  prec of None means the
        element is known exactly.
        """
        level = self.check_level(level)
        acc = {}
        for exp, coeff in terms:
            exp = Fraction(exp)
            k = exp * self.e
            if k.denominator != 1:
                raise NotInLevel(f"exponent {exp} has denominator beyond 1/{self.e}")
            c = self.k.elem(coeff)
            if not c.is_zero():
                key = int(k)
                acc[key] = acc[key] + c if key in acc else c
        prec_k = None if prec is None else _to_int(Fraction(prec) * self.e, "prec")
        ser = _make_series(self, level, acc, prec_k)
        if not ser.in_level(level):
            raise NotInLevel(f"series is not fixed by the level-{level} subgroup")
        return ser

    def monomial(self, coeff, exponent, level=None) -> "TameSeries":
        exp = Fraction(exponent)
        c = self.k.elem(coeff)
        k = _to_int(exp * self.e, "exponent")
        ser = _make_series(self, 0, {k: c} if not c.is_zero() else {}, None)
        lvl = ser.natural_level() if level is None else self.check_level(level)
        if level is not None and not ser.in_level(lvl):
            raise NotInLevel(f"monomial is not fixed by the level-{lvl} subgroup")
        return _make_series(self, lvl, dict(ser._dict()), None)

    def zero(self, level=0) -> "TameSeries":
        return _make_series(self, self.check_level(level), {}, None)

    def one(self, level=None) -> "TameSeries":
        return _make_series(self, self.d if level is None else level,
                            {0: self.k.one()}, None)

    def pi_F(self) -> "TameSeries":
        """The fixed uniformizer t of the base field."""
        return _make_series(self, self.d, {self.e: self.zeta}, None)

    def uniformizer(self, i) -> "TameSeries":
        """The monomial uniformizer of E_i (a deterministic choice)."""
        k, c = self._tables.uniformizers[self.check_level(i)]
        return TameSeries(self, i, ((k, c),), None)

    def coset_reps(self, H_small, H_big):
        """Left coset representatives of H_small in H_big: the first element
        of each coset in sort_key order.  Chain pairs are tabulated;
        any other pair (a stabiliser, say) is split on each call."""
        key = (frozenset(H_small), frozenset(H_big))
        reps = self._tables.cosets.get(key)
        if reps is None:
            reps = _coset_reps(*key, self.action, self._n, self.f)
        return reps

    def __eq__(self, other):
        """Equal specs; deserialized copies interoperate with originals."""
        return self is other or (isinstance(other, Tower)
                                 and (self._tables is other._tables
                                      or self.spec == other.spec))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Tower(p={self.base.p}, q={self.q}, e={self.e}, f={self.f}, "
                f"levels={[self.level_degree(i) for i in range(self.d + 1)]})")


def _pair_compose(a, b, n):
    """a after b, on (mult, log u) pairs."""
    return a[0] * b[0] % n, (a[1] + a[0] * b[1]) % n


def _pair_invert(x, n, f):
    m_inv = pow(x[0], f - 1, n)             # mult^f = 1 (mod n)
    return m_inv, -m_inv * x[1] % n


def _frobenius_mults(base, f, n):
    """mult_j = p^(b*j) mod n: the j-th Frobenius power on discrete logs."""
    return tuple(pow(base.p, base.f * j, n) for j in range(f))


def _is_subgroup(s, group, identity, action, n) -> bool:
    """Closure under composition, tested on the (mult, log u) pairs; a
    finite subset with 1 that is closed under products is a subgroup."""
    if identity not in s or not s <= group:
        return False
    pairs = set(map(action, s))
    return all(_pair_compose(a, b, n) in pairs for a in pairs for b in pairs)


def _field_invariants(e, f, inertia, H):
    """(degree, e, f) over F of the fixed field L^H of the subgroup H.

    By Galois correspondence [L^H : F] = |G| / |H| and
    e(L | L^H) = |H & inertia|, so e(L^H | F) = e / |H & inertia|.
    """
    deg = (e * f) // len(H)
    e_H = e // len(H & inertia)
    return deg, e_H, deg // e_H


def _coset_reps(H_small, H_big, action, n, f):
    """The first element of each left coset of H_small in H_big, in
    sort_key order: g joins the coset of r iff r^-1 g lies in H_small,
    tested on log pairs."""
    small = set(map(action, H_small))
    reps, rep_inverses = [], []
    for g in sorted(H_big, key=GaloisElement.sort_key):
        x = action(g)
        if not any(_pair_compose(r_inv, x, n) in small for r_inv in rep_inverses):
            reps.append(g)
            rep_inverses.append(_pair_invert(x, n, f))
    return tuple(reps)


def _fixes(pairs, n, logs) -> bool:
    """True iff every (mult, log u) in pairs fixes every term c*s^k,
    given as (k, log c) in logs."""
    for k, lc in logs:
        for mult, lu in pairs:
            if ((mult - 1) * lc + k * lu) % n:
                return False
    return True


def _to_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NotInLevel(f"{what} {x} is not an integer in 1/e units")
    return int(x)


def _build_group(base, e, f, residue, zeta):
    """All (j, u) with g(t) = t, i.e. u^e = zeta / frob^j(zeta).

    Solved on discrete logs: e * log u = (1 - p^(b*j)) * log zeta (mod n)
    has gcd(e, n) solutions spaced n / gcd(e, n) apart when gcd(e, n)
    divides the right-hand side, and none otherwise.
    """
    n = residue.order - 1
    d = gcd(e, n)
    step = n // d
    e_inv = pow(e // d, -1, step)
    lz = zeta.log()
    elements = []
    for j, mult in enumerate(_frobenius_mults(base, f, n)):
        rhs = (1 - mult) * lz % n
        if rhs % d:
            raise RootOfUnityMissing(
                f"no twist with u^{e} = zeta^(1-q^{j}); "
                "zeta is incompatible with the Frobenius")
        l0 = rhs // d * e_inv % step
        sols = [residue.from_log(l0 + t * step) for t in range(d)]
        # residue.elements() order: it fixes the group's iteration order,
        # which corpus.desk_tower_2b reads through next(...)
        sols.sort(key=lambda u: u.coeffs[::-1])
        elements.extend(GaloisElement(j, u) for u in sols)
    group = frozenset(elements)
    if len(group) != e * f:
        raise RootOfUnityMissing("Galois group has wrong order")
    return group


def make_tower(p, e, f, base_f=1, base_modulus=None, residue_modulus=None,
               zeta=None, levels=None) -> Tower:
    """Convenience constructor; zeta defaults to 1, and levels=None to the
    default chain {1} <= Gal(L/F), which Tower resolves and validates."""
    base = FqField(p, base_f, base_modulus)
    residue = FqField(p, base_f * f, residue_modulus)
    z = residue.one() if zeta is None else residue.elem(zeta)
    return Tower(TowerSpec(base, e, f, residue, z,
                           None if levels is None else tuple(levels)))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

class TameSeries:
    """Truncated Laurent series sum c_k s^k, exponents in 1/e units.

    terms is an ascending tuple of (k, coeff) with nonzero coefficients;
    prec_k is the first unknown s-exponent (None = exactly known).  level
    is an assertion that the element lies in E_level.
    """

    __slots__ = ("tower", "level", "terms", "prec_k")

    def __init__(self, tower, level, terms, prec_k):
        self.tower = tower
        self.level = level
        self.terms = terms
        self.prec_k = prec_k

    # -- structure ---------------------------------------------------------

    def _dict(self):
        return {k: c for k, c in self.terms}

    def is_zero_to_prec(self) -> bool:
        return not self.terms

    def key(self):
        return (self.level, tuple((k, c.coeffs) for k, c in self.terms), self.prec_k)

    def ord(self) -> Fraction:
        if not self.terms:
            raise ZeroToPrecision("ord of a series with no visible terms")
        return Fraction(self.terms[0][0], self.tower.e)

    def ord_k(self) -> int:
        if not self.terms:
            raise ZeroToPrecision("ord of a series with no visible terms")
        return self.terms[0][0]

    def prec(self):
        return None if self.prec_k is None else Fraction(self.prec_k, self.tower.e)

    def leading(self):
        if not self.terms:
            raise ZeroToPrecision("no leading term")
        return self.terms[0]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "TameSeries":
        if isinstance(other, TameSeries):
            if self.tower != other.tower:
                raise TowerMismatch("series from different towers")
            return other
        if isinstance(other, (int, FqElem)):
            c = self.tower.k.elem(other)
            const = _make_series(self.tower, self.tower.d,
                                 {} if c.is_zero() else {0: c}, None)
            if not const.in_level(self.tower.d):     # c outside k_F
                const.level = const.natural_level()
            return const
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = _min_prec(self.prec_k, other.prec_k)
        acc = self._dict()
        for k, c in other.terms:
            acc[k] = acc[k] + c if k in acc else c
        return _make_series(self.tower, min(self.level, other.level), acc, prec)

    __radd__ = __add__

    def __neg__(self):
        return _make_series(self.tower, self.level,
                            {k: -c for k, c in self.terms}, self.prec_k)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = None
        for a, b in ((self, other), (other, self)):
            if a.prec_k is not None:
                lead = b.terms[0][0] if b.terms else b.prec_k
                if lead is None:
                    continue  # exact zero: product exact
                cand = a.prec_k + lead
                prec = cand if prec is None else min(prec, cand)
        acc = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                if prec is not None and k >= prec:
                    continue
                c = c1 * c2
                acc[k] = acc[k] + c if k in acc else c
        return _make_series(self.tower, min(self.level, other.level), acc, prec)

    __rmul__ = __mul__

    def inverse(self) -> "TameSeries":
        if not self.terms:
            raise ZeroToPrecision("inverse of a series with no visible terms")
        v, c0 = self.terms[0]
        lead_inv = _make_series(self.tower, self.level, {-v: c0.inverse()}, None)
        if len(self.terms) == 1:
            out_prec = None if self.prec_k is None else self.prec_k - 2 * v
            return _make_series(self.tower, self.level, lead_inv._dict(), out_prec)
        base_prec = self.prec_k if self.prec_k is not None else \
            self.tower.default_prec_k + v
        out_prec = base_prec - 2 * v
        # u = lead_inv * self = 1 + w with ord(w) > 0; invert by geometric series
        u = lead_inv * self
        w = u - 1
        need = out_prec + v  # s-precision required for (1+w)^-1
        inv_u = self.tower.one()
        power = self.tower.one()
        step = w.ord_k() if w.terms else need
        iterations = 0
        while iterations * max(step, 1) <= need:
            power = power * (-w)
            power = power.truncate_k(need)
            if power.is_zero_to_prec():
                break
            inv_u = inv_u + power
            iterations += 1
        result = (lead_inv * inv_u).truncate_k(out_prec)
        return _make_series(self.tower, self.level, result._dict(), out_prec)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def truncate_k(self, prec_k) -> "TameSeries":
        if prec_k is None:
            return self
        d = {k: c for k, c in self.terms if k < prec_k}
        new_prec = prec_k if self.prec_k is None else min(self.prec_k, prec_k)
        return _make_series(self.tower, self.level, d, new_prec)

    # -- Galois-related queries ---------------------------------------------

    def apply(self, g: GaloisElement) -> "TameSeries":
        tw = self.tower
        act = tw.action(g)
        mult, lu = act
        k_L = tw.k
        # g keeps each exponent and maps units to units: terms stay sorted
        terms = tuple((k, k_L.from_log(mult * c.log() + k * lu))
                      for k, c in self.terms)
        tags = tw._image_level.get(act)
        level = None if tags is None else tags[self.level]
        out = TameSeries(tw, level, terms, self.prec_k)
        if level is None:
            out.level = out.natural_level()
        return out

    def _logs(self):
        return [(k, c.log()) for k, c in self.terms]

    def in_level(self, i) -> bool:
        tw = self.tower
        pairs = tw._level_action[tw.check_level(i)]
        return not pairs or _fixes(pairs, tw._n, self._logs())

    def natural_level(self) -> int:
        tw = self.tower
        logs = self._logs()
        for i in range(tw.d, -1, -1):
            if _fixes(tw._level_action[i], tw._n, logs):
                return i
        raise NotInLevel("series lies in no chain level")

    def at_level(self, i) -> "TameSeries":
        i = self.tower.check_level(i)
        if not self.in_level(i):
            raise NotInLevel(f"series is not fixed by the level-{i} subgroup")
        return _make_series(self.tower, i, self._dict(), self.prec_k)

    def __eq__(self, other):
        return (isinstance(other, TameSeries)
                and self.tower == other.tower
                and self.terms == other.terms and self.prec_k == other.prec_k)

    def __hash__(self):
        return hash((self.terms, self.prec_k))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            bits = []
            for k, c in self.terms[:6]:
                exp = Fraction(k, self.tower.e)
                bits.append(f"{list(c.coeffs)}*s^{exp}")
            body = " + ".join(bits) + (" + ..." if len(self.terms) > 6 else "")
        tail = "" if self.prec_k is None else f" + O(s^{Fraction(self.prec_k, self.tower.e)})"
        return f"<{body}{tail} @E{self.level}>"


def _make_series(tower, level, acc: dict, prec_k) -> TameSeries:
    if prec_k is not None:
        acc = {k: c for k, c in acc.items() if k < prec_k}
    terms = tuple(sorted(((k, c) for k, c in acc.items() if not c.is_zero())))
    return TameSeries(tower, level, terms, prec_k)


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_equal(a: TameSeries, b: TameSeries) -> bool:
    """Exact equality test; raises PrecisionExhausted when undecidable."""
    if a.tower != b.tower:
        raise TowerMismatch("series from different towers")
    return first_difference(a, b) is None


def first_difference(a: TameSeries, b: TameSeries):
    """ord_k(a - b): the s-exponent of the lowest term of a - b, or None
    when a = b exactly.

    Merges the two term tuples instead of building a - b, and raises
    PrecisionExhausted when a and b agree on every term below the
    precision of a - b.  Both series must lie over the same tower
    (series_equal checks that first).
    """
    prec = _min_prec(a.prec_k, b.prec_k)
    for (ka, ca), (kb, cb) in zip(a.terms, b.terms):
        if ka != kb or ca.coeffs != cb.coeffs:
            k = min(ka, kb)
            break
    else:
        common = min(len(a.terms), len(b.terms))
        rest = a.terms[common:] or b.terms[common:]
        k = rest[0][0] if rest else None
    if k is not None and (prec is None or k < prec):
        return k
    if prec is None:
        return None
    raise _vanishes_below(a.tower, prec)


def _vanishes_below(tower, prec_k) -> PrecisionExhausted:
    return PrecisionExhausted(
        f"difference vanishes below precision s^{Fraction(prec_k, tower.e)}")


def is_fixed_by(a: TameSeries, g: GaloisElement) -> bool:
    """Termwise fixedness; exact, never precision-limited."""
    tw = a.tower
    return _fixes((tw.action(g),), tw._n, a._logs())


def ord_and_nu(a: TameSeries, level: int):
    """(ord, nu) of a at a chain level; nu is normalised so nu(pi_E) = 1."""
    tw = a.tower
    level = tw.check_level(level)
    if not a.terms:
        raise ZeroToPrecision("valuation of a series with no visible terms")
    if not a.in_level(level):
        raise NotInLevel(f"element does not lie in level {level}")
    o = a.ord()
    nu = o * tw.level_e(level)
    if nu.denominator != 1:
        raise VerificationFailed(
            f"valuation {nu} in level {level} is not integral")
    return o, int(nu)


def stabilizer_within(a: TameSeries, H) -> frozenset:
    """The g in H with g(a) = a, decided termwise by the log congruence.

    A chain subgroup H reads its (g, pair) list from the tower's tables;
    any other H looks each pair up.  A non-identity g fixing every visible
    term of a truncated a makes g(a) - a vanish to precision only, so this
    raises PrecisionExhausted as series_equal(a.apply(g), a) does.
    """
    tw = a.tower
    tables = tw._tables
    pairs = tables.level_pairs.get(H) if isinstance(H, frozenset) else None
    if pairs is None:
        pairs = [(g, tw.action(g)) for g in H]
    logs = a._logs()
    out = set()
    for g, act in pairs:
        if act != tables.identity_action:
            if not _fixes((act,), tw._n, logs):
                continue
            if a.prec_k is not None:
                raise _vanishes_below(tw, a.prec_k)
        out.add(g)
    return frozenset(out)


class CMonomial(NamedTuple("CMonomial", [("coeff", FqElem),
                                          ("exponent", Fraction)])):
    """Root of unity times a power of s: the canonical monomial form."""
    __slots__ = ()

    def __new__(cls, coeff, exponent):
        if coeff.is_zero():
            raise ZeroToPrecision("monomials have nonzero coefficients")
        return super().__new__(cls, coeff, exponent)

    def to_series(self, tower: Tower, level=None) -> TameSeries:
        return tower.monomial(self.coeff, self.exponent, level)


def sr_standard_rep(a: TameSeries) -> CMonomial:
    """Leading monomial of a; satisfies ord(a - sr(a)) > ord(a)."""
    k, c = a.leading()
    return CMonomial(c, Fraction(k, a.tower.e))


def trace_norm(which: str, a: TameSeries, from_level: int, to_level: int) -> TameSeries:
    """Trace or norm from E_from_level down to E_to_level."""
    tw = a.tower
    i, j = tw.check_level(from_level), tw.check_level(to_level)
    if j < i:
        raise BadLevel("target level must be at least the source level")
    if not a.in_level(i):
        raise NotInLevel(f"element does not lie in level {i}")
    a = a.at_level(i)
    H_i, H_j = tw.chain[i], tw.chain[j]
    conj = [a.apply(g) for g in tw.coset_reps(H_i, H_j)]
    if which == "trace":
        out = conj[0]
        for c in conj[1:]:
            out = out + c
    elif which == "norm":
        out = conj[0]
        for c in conj[1:]:
            out = out * c
    else:
        raise ValueError(f"unknown map {which!r}")
    if not all(is_fixed_by(out, g) for g in H_j):
        raise VerificationFailed(f"{which} result not fixed by level {j}")
    return _make_series(tw, j, out._dict(), out.prec_k)


def monomials_in_level(tower: Tower, level: int, ord_lo, ord_hi):
    """All monomials of E_level with ord in [ord_lo, ord_hi]."""
    level = tower.check_level(level)
    m = tower.e // tower.level_e(level)
    lo, hi = Fraction(ord_lo) * tower.e, Fraction(ord_hi) * tower.e
    k_lo = -((-lo.numerator) // lo.denominator)
    k_hi = hi.numerator // hi.denominator
    pairs = tower._level_action[level]
    units = [(c, c.log()) for c in tower.k.elements() if not c.is_zero()]
    out = []
    for k in range(k_lo, k_hi + 1):
        if k % m:
            continue
        for c, lc in units:
            if _fixes(pairs, tower._n, ((k, lc),)):
                out.append(_make_series(tower, level, {k: c}, None))
    return out
