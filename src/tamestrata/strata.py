"""Strata over the maximal compatible hereditary order.

The order is determined by the tower and the space dimension N: V is an
E_0-space of dimension m_0 = N/[E_0:F], the lattice chain is the powers of
the maximal order of E_0 acting on V, and the chain period over o_F equals
e(E_0|F).  On elements of tower levels the order valuation is then just
e_A * ord, which is what the brute-force matrix oracle re-derives.

Defining sequences are built from split-form elements: every term of beta
must lie in a chain level, and the split into blocks is forced, a new block
starting exactly where the generated field grows.  The one split is
accepted only when build_defining_sequence, the one place a sequence is
checked, accepts its blocks.

An order keeps each sequence that verified on it, keyed by its block
list's content, and returns it for an equal list: per order, successes
only.  So a decomposition, its datum, its critical exponent and its round
trip verify once; a parsed document makes a new order and verifies afresh.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    BadLevel, NotDecomposable, NotInLevel, NotMinimalSummand, NotSplitForm,
    PrecisionExhausted, TameStrataError, TowerMismatch, ValuationOrder,
    VerificationFailed, ZeroToPrecision,
)
from .minimal import is_minimal, minimal_over
from .tame import TameSeries, Tower, stabilizer_within

ORACLE_MAX_N = 16       # oracle.MAX_N, readable without loading the oracle


def oracle_model(models, order):
    """The run's model of order, built on first use and kept in models
    (order -> model); None when the oracle is off (models is None) or N
    exceeds ORACLE_MAX_N.  Every command and suite gets its models here."""
    if models is None or order.N > ORACLE_MAX_N:
        return None
    if order not in models:
        from . import oracle
        models[order] = oracle.model_build(order)
    return models[order]


class OrderDesc:
    """Immutable hereditary order descriptor: tower, N, m (m_i = N /
    [E_i : F]), e_A (the chain period over o_F, = e(E_0 | F)), q (the
    residue cardinality of F).  verified maps the content of each block
    list that verified on this order to its sequence (successes only), so
    it grows only by sequences callers built on this order.  ==, hash,
    repr and key() ignore it.
    """
    __slots__ = ("tower", "N", "m", "e_A", "q", "verified")

    def __init__(self, tower: Tower, N: int, m: tuple, e_A: int, q: int):
        for name, value in zip(self.__slots__, (tower, N, m, e_A, q, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"OrderDesc fields are read-only: {name!r}")
    __delattr__ = __setattr__

    def _values(self):
        return (self.tower, self.N, self.m, self.e_A, self.q)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return ("OrderDesc(tower={!r}, N={!r}, m={!r}, e_A={!r}, q={!r})"
                .format(*self._values()))

    def key(self):
        return (self.tower, self.N)

    def e_B(self, level: int) -> int:
        """Chain period of the level's order over its own integers."""
        return self.e_A // self.tower.level_e(level)


def make_order(tower: Tower, N: int) -> OrderDesc:
    deg0 = tower.level_degree(0)
    if type(N) is not int or N < 1:
        raise BadLevel(f"N={N!r} must be an integer of at least 1")
    if N % deg0:
        raise BadLevel(f"[E_0:F]={deg0} must divide N={N}")
    m = tuple(N // tower.level_degree(i) for i in range(tower.d + 1))
    return OrderDesc(tower, N, m, tower.level_e(0), tower.q)


class SeqEntry(NamedTuple):
    r: int
    beta: TameSeries
    level: int
    c: TameSeries


class DefiningSeq(NamedTuple):
    order: OrderDesc
    n: int
    entries: tuple    # SeqEntry, i = 0..s
    s: int
    case: str         # "A" if the terminal block lies in F, else "B"

    @property
    def depths(self) -> tuple:
        """(r_1, ..., r_s, n): the depth -nu_A(c_i) of each block, positive
        and strictly increasing by the build's checks."""
        return tuple(e.r for e in self.entries[1:]) + (self.n,)


def nu_A(order: OrderDesc, x: TameSeries) -> int:
    """Order valuation of a tower-level element: e_A * ord(x)."""
    if not x.terms:
        raise ZeroToPrecision("valuation of a series with no visible terms")
    v, rem = divmod(x.terms[0][0] * order.e_A, x.tower.e)
    if rem:
        raise NotInLevel("element is not in a level of this order's tower")
    return v


def k0_closed(order: OrderDesc, beta: TameSeries) -> Optional[int]:
    """Critical exponent; None encodes -infinity (central beta).

    A truncated beta whose visible terms lie in F raises
    PrecisionExhausted: an unseen term outside F would make k0 finite.
    """
    tw = order.tower
    if beta.is_zero_to_prec() or beta.in_level(tw.d):
        if beta.prec_k is not None:
            raise PrecisionExhausted(
                "k0 of a truncated beta whose visible terms lie in F")
        return None
    if minimal_over(beta, tw.d):
        return nu_A(order, beta)
    return -split_form_sequence(order, beta).depths[0]


def decompose_split_form(order: OrderDesc, beta: TameSeries):
    """The blocks of split_form_sequence(order, beta), as [(level, c)]
    shallowest first."""
    return [(e.level, e.c) for e in split_form_sequence(order, beta).entries]


def split_form_sequence(order: OrderDesc, beta: TameSeries) -> DefiningSeq:
    """The verified defining sequence of beta's forced block split.

    Terms are scanned from deepest to shallowest.  A block's level is the
    natural level of its deepest term; a term of strictly smaller level (a
    strictly larger field) starts the next block, and every other term
    joins the current one.  No other split can verify: in a defining
    sequence every term of c_i lies in E_{level_i}, the leading term of a
    minimal c_i generates its step, so its natural level is level_i, and
    levels decrease strictly from the deepest block on.  The split is
    verified in full by build_defining_sequence; a failed check raises
    NotDecomposable.
    """
    tw = order.tower
    if beta.is_zero_to_prec():
        raise ZeroToPrecision("cannot decompose a series with no visible terms")
    blocks = []       # [level, block], deepest first
    for k, c in beta.terms:
        try:
            term = tw.monomial(c, Fraction(k, tw.e))
        except NotInLevel as exc:
            raise NotSplitForm(f"term at exponent {Fraction(k, tw.e)} "
                               "lies in no chain level") from exc
        if blocks and term.level >= blocks[-1][0]:
            blocks[-1][1] = blocks[-1][1] + term
        else:
            blocks.append([term.level, term])
    c_list = [(lvl, c) for lvl, c in reversed(blocks)]
    try:
        return build_defining_sequence(order, c_list)
    except (NotMinimalSummand, ValuationOrder, VerificationFailed,
            NotInLevel) as exc:
        raise NotDecomposable("no block split of beta verifies") from exc


def build_defining_sequence(order: OrderDesc, c_list) -> DefiningSeq:
    """Assemble beta_i = sum of the blocks from i on, with checks.

    c_list is [(level, c)] ordered shallowest block first.  A block over
    another tower raises TowerMismatch before any other check; a list equal
    to one that verified on this order returns that sequence.  The list
    must be non-empty, each block must lie in its level, levels must
    strictly increase (fields strictly decrease), block depths -nu_A(c_i)
    must strictly increase, each c_i must be minimal for its step (level_i
    over level_{i+1}, c_s over F), each F[beta_i] must be the level-i field
    and the shallowest depth must be positive.

    These checks establish the conditions of a defining sequence
    (Bushnell-Kutzko 1993, 1.4-2.4):
    (a) each [A, n, r_i, beta_i] is simple: beta_i is pure of depth n,
        because c_s alone has the lowest valuation, and its k0 from the
        tail is -r_{i+1} (-n or -infinity for beta_s), so r_i < -k0 is (b);
    (b) r_0 < r_1 < ... < r_s < n: the depth order with r_0 = 0 < r_1,
        which is the positive shallowest depth;
    (c) F[beta_i] is the level-i field: checked, since it rests on BK's
        theory (minimal iff Galois separation), not on this arithmetic;
    (d) nu_A(beta_i - beta_{i+1}) = -r_{i+1}: the difference is c_i
        exactly.  Only block 0 can be truncated: a truncated block at a
        level >= 1 has a non-identity fixer in its level, so its
        minimality check raises PrecisionExhausted;
    (e) k0(beta_s) is -n or -infinity: block s's minimality over F;
    (f) each derived stratum is simple: each block's minimality check,
        and nu_A(c_i) = -r_{i+1} by the definition of r.
    """
    tw = order.tower
    for i, (_, c) in enumerate(c_list):
        if tw != c.tower:
            raise TowerMismatch(f"block {i} lies over another tower")
    key = tuple((lvl, c.key()) for lvl, c in c_list)
    seq = order.verified.get(key)
    if seq is not None:
        return seq
    s = len(c_list) - 1
    if s < 0:
        raise ValuationOrder("empty block list")
    levels = [lvl for lvl, _ in c_list]
    cs = [c for _, c in c_list]
    for i, (lvl, c) in enumerate(c_list):
        tw.check_level(lvl)
        if not c.in_level(lvl):
            raise NotInLevel(f"block {i} does not lie in level {lvl}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValuationOrder("block levels must strictly increase")
    nus = [nu_A(order, c) for c in cs]
    if any(-a >= -b for a, b in zip(nus, nus[1:])):
        raise ValuationOrder("block depths -nu_A(c_i) must strictly increase")
    for i in range(s + 1):
        low = levels[i + 1] if i < s else tw.d
        if not is_minimal(cs[i], levels[i], low).minimal:
            raise NotMinimalSummand(
                f"block {i} is not minimal relative to levels {levels[i]}/{low}")

    entries = []
    for i in range(s + 1):
        beta_i = cs[i]
        for cj in cs[i + 1:]:
            beta_i = beta_i + cj
        if stabilizer_within(beta_i, tw.group) != tw.chain[levels[i]]:
            raise VerificationFailed(
                f"F[beta_{i}] is not the level-{levels[i]} field")
        r_i = 0 if i == 0 else -nus[i - 1]
        entries.append(SeqEntry(r_i, beta_i, levels[i], cs[i]))
    if nus[0] >= 0:
        raise VerificationFailed(f"the shallowest block has depth {-nus[0]}, "
                                 "not a positive one")
    case = "A" if levels[s] == tw.d else "B"
    seq = DefiningSeq(order, -nus[s], tuple(entries), s, case)
    order.verified[key] = seq
    return seq


def verify_defining_sequence(seq: DefiningSeq) -> bool:
    """Whether seq is the sequence its blocks build on its order: every
    check of a defining sequence is made once, by build_defining_sequence,
    so a sequence holds exactly when its rebuild is equal to it."""
    try:
        return build_defining_sequence(
            seq.order, [(e.level, e.c) for e in seq.entries]) == seq
    except TameStrataError:
        return False
