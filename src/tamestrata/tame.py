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
affine map mod n, tabulated once per tower:

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from .errors import (
    BadChain, BadLevel, NotASubgroup, NotInLevel, NotTame, PrecisionExhausted,
    RootOfUnityMissing, TowerMismatch, VerificationFailed, ZeroToPrecision,
)
from .ffq import FqElem, FqField


@dataclass(frozen=True)
class GaloisElement:
    """Automorphism (j, u): Frobenius power j on k_L, s -> u*s."""
    frob_power: int
    twist: FqElem

    def sort_key(self):
        return (self.frob_power, self.twist.coeffs)

    def __repr__(self):
        return f"Gal(j={self.frob_power}, u={list(self.twist.coeffs)})"


@dataclass(frozen=True)
class TowerSpec:
    """The data of a tower.  levels=None means the default chain
    {1} <= Gal(L/F) (Gal(L/F) alone when it is trivial); Tower resolves it
    and keeps the resolved chain in its spec."""
    base: FqField              # residue field of F
    e: int                     # ramification of L/F
    f: int                     # residue degree of L/F
    residue: FqField           # k_L, degree base.f * f over F_p
    zeta: FqElem               # t = zeta * s^e, a prime-to-p root of unity
    levels: tuple              # chain of subgroups H_0 <= ... <= H_d = Gal(L/F)


class Tower:
    """Validated tame tower; immutable after construction."""

    def __init__(self, spec: TowerSpec):
        base, k = spec.base, spec.residue
        if spec.e < 1 or spec.f < 1:
            raise BadChain("e and f must be positive")
        if spec.e % base.p == 0:
            raise NotTame(f"p={base.p} divides e={spec.e}")
        if k.p != base.p or k.f != base.f * spec.f:
            raise BadChain("residue field degree must be base.f * f")
        if (k.order - 1) % spec.e != 0:
            raise RootOfUnityMissing(f"e={spec.e} does not divide |k_L^x|")
        if spec.zeta.field != k or spec.zeta.is_zero():
            raise RootOfUnityMissing("zeta must be a nonzero element of k_L")
        self.base = base
        self.k = k
        self.e = spec.e
        self.f = spec.f
        self.zeta = spec.zeta
        self.q = base.order
        self._n = k.order - 1
        self._mults = _frobenius_mults(base, self.f, self._n)
        self.group = _build_group(base, self.e, self.f, k, self.zeta)
        self.identity = GaloisElement(0, k.one())
        self.inertia = frozenset(g for g in self.group if g.frob_power == 0)
        if spec.levels is None:
            trivial = frozenset([self.identity])
            spec = replace(spec, levels=(trivial, self.group)
                           if len(self.group) > 1 else (self.group,))
        self.spec = spec
        self.chain = self._validate_chain(spec.levels)
        self.d = len(self.chain) - 1
        self._level_data = [self.field_invariants(H) for H in self.chain]
        self._build_action()
        # precision of the inverse of an exact series, in s-exponent units
        self.default_prec_k = max(8, 4 * self.e) * self.e
        self._uniformizers = {}
        self._subfield_cache = {}
        self._theta_cache = {}
        self._coset_cache = {}

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
        """Closure under composition, tested on the (mult, log u) pairs; a
        finite subset with 1 that is closed under products is a subgroup."""
        s = frozenset(subset)
        if self.identity not in s or not s <= self.group:
            return False
        n = self._n
        pairs = set(map(self.action, s))
        return all(_pair_compose(a, b, n) in pairs for a in pairs for b in pairs)

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

    def _validate_chain(self, levels):
        chain = tuple(frozenset(H) for H in levels)
        if not chain:
            raise BadChain("empty chain")
        for H in chain:
            if not self.is_subgroup(H):
                raise NotASubgroup(f"{sorted(H, key=GaloisElement.sort_key)}")
        for a, b in zip(chain, chain[1:]):
            if not (a < b):
                raise BadChain("chain subgroups must increase strictly")
        if chain[-1] != self.group:
            raise BadChain("last subgroup must be the full Galois group")
        return chain

    def _build_action(self):
        """Tabulate the action on discrete logs (see the module docstring).

        Each g is handled as its pair (mult_g, log u_g), which determines
        it.  _level_action[i] holds the pairs of the non-identity elements
        of H_i; _image_level[pair][i] is the level tag of g applied to an
        element of E_i, or None.  Never mutated.
        """
        n = self._n
        self._identity_action = self.action(self.identity)
        chain = [frozenset(map(self.action, H)) for H in self.chain]
        self._level_action = tuple(tuple(H - {self._identity_action})
                                   for H in chain)

        image = {}
        for x in chain[-1]:
            x_inv = _pair_invert(x, n, self.f)
            tags = []
            for H in chain:
                conj = {_pair_compose(_pair_compose(x, h, n), x_inv, n)
                        for h in H}
                tags.append(next((i for i in range(self.d, -1, -1)
                                  if chain[i] <= conj), None))
            image[x] = tuple(tags)
        self._image_level = MappingProxyType(image)

    def action(self, g: GaloisElement):
        """(mult_g, log u_g): g maps log c in c*s^k to mult_g*log c + k*log u_g."""
        return self._mults[g.frob_power % self.f], g.twist.log()

    def field_invariants(self, H):
        """(degree, e, f) over F of the fixed field L^H of the subgroup H.

        By Galois correspondence [L^H : F] = |G| / |H| and
        e(L | L^H) = |H & inertia|, so e(L^H | F) = e / |H & inertia|.
        """
        deg = (self.e * self.f) // len(H)
        e_H = self.e // len(H & self.inertia)
        return deg, e_H, deg // e_H

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
        i = self.check_level(i)
        if i not in self._subfield_cache:
            deg = self.level_residue_degree(i)
            self._subfield_cache[i] = tuple(self.k.subfield_elements(deg))
        return self._subfield_cache[i]

    def residue_generator(self, i) -> FqElem:
        """First element of k_{E_i} generating it over F_p."""
        i = self.check_level(i)
        if i not in self._theta_cache:
            deg = self.level_residue_degree(i)
            for a in self.residue_subfield(i):
                if not a.is_zero() and a.orbit_size() == deg:
                    self._theta_cache[i] = a
                    break
            else:
                raise AssertionError("no residue generator found")
        return self._theta_cache[i]

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
        """A monomial uniformizer of E_i (cached, deterministic choice)."""
        i = self.check_level(i)
        if i not in self._uniformizers:
            m = self.e // self.level_e(i)
            for c in self.k.elements():
                if c.is_zero():
                    continue
                if _fixes(self._level_action[i], self._n, ((m, c.log()),)):
                    self._uniformizers[i] = _make_series(self, i, {m: c}, None)
                    break
            else:
                raise AssertionError(f"no monomial uniformizer at level {i}")
        return self._uniformizers[i]

    def galois_sorted(self, subset=None):
        return sorted(self.group if subset is None else subset,
                      key=GaloisElement.sort_key)

    def equivalent(self, other) -> bool:
        """Same tower data; deserialized copies interoperate with originals."""
        return self is other or (isinstance(other, Tower)
                                 and self.spec == other.spec)

    def coset_reps(self, H_small, H_big):
        """Left coset representatives of H_small in H_big (cached): the
        first element of each coset in galois_sorted order, where g joins
        the coset of r iff r^-1 g lies in H_small, tested on log pairs."""
        key = (frozenset(H_small), frozenset(H_big))
        if key not in self._coset_cache:
            n = self._n
            small = set(map(self.action, key[0]))
            reps, rep_inverses = [], []
            for g in self.galois_sorted(H_big):
                x = self.action(g)
                if not any(_pair_compose(r_inv, x, n) in small
                           for r_inv in rep_inverses):
                    reps.append(g)
                    rep_inverses.append(_pair_invert(x, n, self.f))
            self._coset_cache[key] = tuple(reps)
        return self._coset_cache[key]

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

    def is_exact_zero(self) -> bool:
        return not self.terms and self.prec_k is None

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
            if not self.tower.equivalent(other.tower):
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
            if k in acc:
                s = acc[k] + c
                if s.is_zero():
                    del acc[k]
                else:
                    acc[k] = s
            else:
                acc[k] = c
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
        if self.is_exact_zero() or other.is_exact_zero():
            return _make_series(self.tower, min(self.level, other.level), {}, None)
        acc = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                if prec is not None and k >= prec:
                    continue
                c = c1 * c2
                if k in acc:
                    s = acc[k] + c
                    if s.is_zero():
                        del acc[k]
                    else:
                        acc[k] = s
                elif not c.is_zero():
                    acc[k] = c
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
                and self.tower.equivalent(other.tower)
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
    d = a - b
    if d.terms:
        return False
    if d.prec_k is None:
        return True
    raise _vanishes_below(d.tower, d.prec_k)


def first_difference(a: TameSeries, b: TameSeries):
    """ord_k(a - b): the s-exponent of the lowest term of a - b, or None
    when a = b exactly.

    Merges the two term tuples instead of building a - b, and raises
    PrecisionExhausted where series_equal(a, b) does: when a and b agree
    on every term below the precision of a - b.  Both series must lie
    over the same tower.
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

    A non-identity g fixing every visible term of a truncated a makes
    g(a) - a vanish to precision only, so this raises PrecisionExhausted
    as series_equal(a.apply(g), a) does.
    """
    tw = a.tower
    logs = a._logs()
    out = set()
    for g in H:
        act = tw.action(g)
        if act != tw._identity_action:
            if not _fixes((act,), tw._n, logs):
                continue
            if a.prec_k is not None:
                raise _vanishes_below(tw, a.prec_k)
        out.add(g)
    return frozenset(out)


@dataclass(frozen=True)
class CMonomial:
    """Root of unity times a power of s: the canonical monomial form."""
    coeff: FqElem
    exponent: Fraction

    def __post_init__(self):
        if self.coeff.is_zero():
            raise ZeroToPrecision("monomials have nonzero coefficients")

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
