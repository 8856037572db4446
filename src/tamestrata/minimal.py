"""Minimality of elements relative to a tower step, and the GE1 condition.

An element c of E_upper is minimal relative to E_upper/E_lower when it
generates the step and its leading data are as spread out as possible.
Three equivalent routes decide this.  is_minimal decides the first; its
report decides the other two, cross-checks, only when they are read:

  * the definition: generation, gcd(nu(c), e) = 1, and the normalised
    power of c generating the residue extension;
  * the standard representative: the leading monomial alone generates;
  * Galois differences: all pairs of distinct embeddings over E_lower
    separate c at the maximal possible valuation, -ord(c).

GE1 is the same separation condition phrased over pairs of embeddings of
E_i that agree on E_{i+1}; its equivalence with minimality is one of the
acceptance properties of this package.

Nothing is built only to read its first term.  The residue comes from
leading terms: valuation is multiplicative, so pi^-nu c^e has the leading
term c_pi^-nu * c_0^e at s-exponent e*k_0 - nu*k_pi, and the normalising
exponent check is that this is 0.  Each conjugate g(c) is computed once
and ord(g(c) - h(c)) is read off the merged term tuples by
tame.first_difference, which raises PrecisionExhausted exactly where
series_equal would.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .errors import NotInLevel, VerificationFailed, ZeroToPrecision
from .tame import TameSeries, Tower, first_difference, stabilizer_within


class MinimalityReport:
    """Minimality of c for the target subgroup H_up over the chain subgroup
    H_low of level lower (H_up left out is c's stabiliser in H_low, which
    asks whether c is minimal over the base).  The definition is decided
    here: cond_generates (E_lower[c] is the target), cond_gcd (gcd(nu(c),
    e(E_lower[c] | E_lower)) = 1), cond_residue (pi^-nu c^e generates the
    residue extension) and depth = -ord(c).  The cross-checks via_sr (the
    leading monomial generates the target) and via_galois (all embedding
    pairs separate c at depth -ord(c)) are decided on first read, each once.

    Neither can raise where the definition did not.  via_sr reads an exact
    monomial.  If a truncated c has conjugates g(c), h(c) that agree on
    every visible term, g != h coset representatives of H_up in H_low,
    then h^-1 g, a non-identity element of H_low, fixes every visible
    term, and stabilizer_within(c, H_low) has already raised
    PrecisionExhausted.
    """

    def __init__(self, c: TameSeries, lower: int, H_up=None):
        tw = c.tower
        self.depth = -c.ord()
        self._H_low = H_low = tw.chain[lower]
        stab = stabilizer_within(c, H_low)
        self._c, self._H_up = c, stab if H_up is None else H_up

        self.cond_generates = stab == self._H_up

        # invariants of E_lower, as the tower tabulates them, and of E' = E_lower[c]
        deg_low, e_low = tw.level_degree(lower), tw.level_e(lower)
        deg_prime, e_prime, _ = tw.field_invariants(stab)
        e_rel = e_prime // e_low
        f_rel = deg_prime // deg_low // e_rel

        k0, c0 = c.leading()
        nu_prime, rem = divmod(k0 * e_prime, tw.e)
        if rem:
            raise VerificationFailed(
                f"valuation {Fraction(k0 * e_prime, tw.e)} in E' is not integral")
        self.cond_gcd = gcd(nu_prime, e_rel) == 1

        pi_low = tw.uniformizer(lower)
        residue = _unit_residue(tw, k0, c0, pi_low.leading(), nu_prime, e_rel)
        self.cond_residue = (residue.orbit_size(tw.level_residue_degree(lower))
                             == f_rel)

    @property
    def minimal(self) -> bool:
        return self.cond_generates and self.cond_gcd and self.cond_residue

    @cached_property
    def via_sr(self) -> bool:
        # the leading term is fixed by whatever fixes c, so it lies in E_{c.level}
        c = self._c
        sr_series = TameSeries(c.tower, c.level, c.terms[:1], None)
        return stabilizer_within(sr_series, self._H_low) == self._H_up

    @cached_property
    def via_galois(self) -> bool:
        # an exact agreement (None) fails
        c = self._c
        reps = c.tower.coset_reps(self._H_up, self._H_low)
        return all(o == c.ord_k() for _, _, o in _pair_orders(c, reps))

    @property
    def consistent(self) -> bool:
        return self.minimal == self.via_sr == self.via_galois

    def _fields(self):
        return (self.cond_generates, self.cond_gcd, self.cond_residue,
                self.via_sr, self.via_galois, self.depth)

    def __eq__(self, other):
        return (isinstance(other, MinimalityReport)
                and self._fields() == other._fields())

    def __repr__(self):
        return f"MinimalityReport{self._fields()}"


class Ge1Report(NamedTuple):
    depth: Fraction
    pairs: tuple               # (g, g', ord of difference or None for +inf)
    passed: bool


def is_minimal(c: TameSeries, upper: int, lower: int) -> MinimalityReport:
    """Minimality of c relative to E_upper/E_lower (see MinimalityReport)."""
    tw = c.tower
    upper, lower = tw.check_level(upper), tw.check_level(lower)
    if upper > lower:
        raise NotInLevel("upper level must not be deeper than lower level")
    if not c.terms:
        raise ZeroToPrecision("minimality of a series with no visible terms")
    if not c.in_level(upper):
        raise NotInLevel(f"element does not lie in level {upper}")
    return MinimalityReport(c, lower, tw.chain[upper])


def _unit_residue(tw: Tower, k0, c0, pi_lead, nu, e_rel):
    """Residue of the unit pi^-nu * c^e_rel from leading terms.

    (k0, c0) is the leading term of c and pi_lead = (k_pi, c_pi) that of
    the monomial uniformizer pi; the unit's leading term is
    c_pi^-nu * c0^e_rel at s-exponent e_rel*k0 - nu*k_pi, which must be 0.
    """
    k_pi, c_pi = pi_lead
    unit_k = e_rel * k0 - nu * k_pi
    if unit_k != 0:
        raise VerificationFailed(
            f"unit part has order {Fraction(unit_k, tw.e)}, not 0")
    return c_pi ** (-nu) * c0 ** e_rel


def _pair_orders(c: TameSeries, elems):
    """(g, h, ord_k(g(c) - h(c)) or None) for each pair g before h of elems.

    Each conjugate is computed once, when first needed, so the applies and
    any PrecisionExhausted come in the order of a pair-by-pair scan.
    """
    conj = []
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            while len(conj) <= b:
                conj.append(c.apply(elems[len(conj)]))
            yield elems[a], elems[b], first_difference(conj[a], conj[b])


def minimal_over(c: TameSeries, lower: int) -> bool:
    """Minimality of c relative to E_lower[c]/E_lower."""
    return MinimalityReport(c, lower).minimal


def ge1_check(c: TameSeries, level_i: int, level_iplus1: int) -> Ge1Report:
    """GE1 for c in E_i against the step to E_{i+1}.

    Enumerates unordered pairs of embeddings of E_i over F that agree on
    E_{i+1} and differ on E_i; passes iff every difference has ord exactly
    ord(c).  A pair that fails to separate c is recorded with ord +inf
    (None) and fails the check.
    """
    tw = c.tower
    i = tw.check_level(level_i)
    i1 = tw.check_level(level_iplus1)
    if i > i1:
        raise NotInLevel("level_i must not be deeper than level_iplus1")
    if not c.terms:
        raise ZeroToPrecision("GE1 of a series with no visible terms")
    if not c.in_level(i):
        raise NotInLevel(f"element does not lie in level {i}")
    r = -c.ord()
    H_i, H_i1 = tw.chain[i], tw.chain[i1]
    pairs = []
    passed = True
    outer = tw.coset_reps(H_i1, tw.group)
    inner = tw.coset_reps(H_i, H_i1)
    for g0 in outer:
        sector = [tw.compose(g0, h) for h in inner]
        for g, h, o in _pair_orders(c, sector):
            pairs.append((g, h, None if o is None else Fraction(o, tw.e)))
            if o != c.ord_k():
                passed = False
    return Ge1Report(r, tuple(pairs), passed)
