"""Strata over the maximal compatible hereditary order.

The order is determined by the tower and the space dimension N: V is an
E_0-space of dimension m_0 = N/[E_0:F], the lattice chain is the powers of
the maximal order of E_0 acting on V, and the chain period over o_F equals
e(E_0|F).  On elements of tower levels the order valuation is then just
e_A * ord, which is what the brute-force matrix oracle re-derives.

Defining sequences are built from split-form elements: every term of beta
must lie in a chain level, and the split into blocks is forced, a new block
starting exactly where the generated field grows.  The one split is
accepted only when the full list of sequence conditions verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    BadLevel, NotDecomposable, NotInLevel, NotMinimalSummand, NotSplitForm,
    ValuationOrder, VerificationFailed, ZeroToPrecision,
)
from .minimal import is_minimal, minimal_over
from .tame import TameSeries, Tower, stabilizer_within


@dataclass(frozen=True)
class OrderDesc:
    """Hereditary order descriptor: N, per-level matrix sizes, period."""
    tower: Tower
    N: int
    m: tuple          # m_i = N / [E_i : F]
    e_A: int          # chain period over o_F, = e(E_0 | F)
    q: int            # residue cardinality of F

    def key(self):
        return (id(self.tower), self.N)

    def e_B(self, level: int) -> int:
        """Chain period of the level's order over its own integers."""
        return self.e_A // self.tower.level_e(level)


def make_order(tower: Tower, N: int) -> OrderDesc:
    deg0 = tower.level_degree(0)
    if N < 1:
        raise BadLevel(f"N={N} must be at least 1")
    if N % deg0:
        raise BadLevel(f"[E_0:F]={deg0} must divide N={N}")
    m = tuple(N // tower.level_degree(i) for i in range(tower.d + 1))
    return OrderDesc(tower, N, m, tower.level_e(0), tower.q)


@dataclass(frozen=True)
class Stratum:
    order: OrderDesc
    n: int
    r: int
    beta: TameSeries


@dataclass(frozen=True)
class SeqEntry:
    r: int
    beta: TameSeries
    level: int
    c: TameSeries


@dataclass(frozen=True)
class DefiningSeq:
    order: OrderDesc
    n: int
    entries: tuple    # SeqEntry, i = 0..s
    s: int
    case: str         # "A" if the terminal block lies in F, else "B"


@dataclass(frozen=True)
class VerifyReport:
    checks: dict
    details: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def nu_A(order: OrderDesc, x: TameSeries) -> int:
    """Order valuation of a tower-level element: e_A * ord(x)."""
    if not x.terms:
        raise ZeroToPrecision("valuation of a series with no visible terms")
    v = x.ord() * order.e_A
    if v.denominator != 1:
        raise NotInLevel("element is not in a level of this order's tower")
    return int(v)


def k0_closed(order: OrderDesc, beta: TameSeries) -> Optional[int]:
    """Critical exponent; None encodes -infinity (central beta)."""
    tw = order.tower
    if beta.is_zero_to_prec() or beta.in_level(tw.d):
        return None
    if minimal_over(beta, tw.d):
        return nu_A(order, beta)
    return nu_A(order, decompose_split_form(order, beta)[0][1])


def stratum_classify(st: Stratum) -> str:
    """'simple', 'pure' (pure but not simple) or 'neither'."""
    order = st.order
    if st.n <= st.r or st.r < 0:
        return "neither"
    if nu_A(order, st.beta) != -st.n:
        return "neither"
    k0 = k0_closed(order, st.beta)
    if k0 is None or st.r < -k0:
        return "simple"
    return "pure"


def decompose_split_form(order: OrderDesc, beta: TameSeries):
    """Split beta into minimal blocks assigned to chain levels.

    Terms are scanned from deepest to shallowest.  A block's level is the
    natural level of its deepest term; a term of strictly smaller level (a
    strictly larger field) starts the next block, and every other term
    joins the current one.  No other split can verify: in a defining
    sequence every term of c_i lies in E_{level_i}, the leading term of a
    minimal c_i generates its step, so its natural level is level_i, and
    levels decrease strictly from the deepest block on.  The split is
    verified in full by build_defining_sequence.  Blocks are returned as
    [(level, c)], shallowest first.
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
        build_defining_sequence(order, c_list)
    except (NotMinimalSummand, ValuationOrder, VerificationFailed,
            NotInLevel) as exc:
        raise NotDecomposable("no block split of beta verifies") from exc
    return c_list


def build_defining_sequence(order: OrderDesc, c_list) -> DefiningSeq:
    """Assemble beta_i = sum of the blocks from i on, with checks.

    c_list is [(level, c)] ordered shallowest block first; levels must be
    strictly increasing (fields strictly decreasing) and block depths
    -nu_A(c_i) strictly increasing.
    """
    tw = order.tower
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

    reports = []
    for i in range(s + 1):
        low = levels[i + 1] if i < s else tw.d
        rep = is_minimal(cs[i], levels[i], low)
        if not rep.minimal:
            raise NotMinimalSummand(
                f"block {i} is not minimal relative to levels {levels[i]}/{low}")
        reports.append(rep)

    n = -nus[s]
    entries = []
    for i in range(s + 1):
        beta_i = cs[i]
        for cj in cs[i + 1:]:
            beta_i = beta_i + cj
        r_i = 0 if i == 0 else -nus[i - 1]
        entries.append(SeqEntry(r_i, beta_i, levels[i], cs[i]))
    case = "A" if levels[s] == tw.d else "B"
    seq = DefiningSeq(order, n, tuple(entries), s, case)
    report = _verify(seq, reports)
    if not report.passed:
        failed = [k for k, ok in report.checks.items() if not ok]
        raise VerificationFailed(f"sequence checks failed: {failed}; "
                                 f"{report.details}")
    return seq


def verify_defining_sequence(seq: DefiningSeq) -> VerifyReport:
    """Named checks for a defining sequence.

    (a) every [A, n, r_i, beta_i] is simple
    (b) r_0 < r_1 < ... < r_s < n
    (c) fields F[beta_i] match the assigned levels, strictly nested
    (d) nu_A(beta_i - beta_{i+1}) = -r_{i+1} for i < s
    (e) k0(beta_s) is -n or -infinity
    (f) each derived stratum is simple: c_i minimal for its step and
        nu_A(c_i) = -r_{i+1}

    k0 of the intermediate beta_i is evaluated from the sequence tail
    (-r_{i+1} once the tail conditions hold), which is exactly the
    closed-form recursion, so (d) does not compare it with -r_{i+1}; the
    independent check of k0 is the matrix oracle.  k0 of beta_s is decided
    once and read by (a) and (e).
    """
    return _verify(seq, None)


def _verify(seq: DefiningSeq, reports) -> VerifyReport:
    """The checks of verify_defining_sequence.  reports, when given, are
    the minimality reports of c_0..c_s for their steps, as
    build_defining_sequence decided them; (f) reads them instead of
    deciding minimality again, and so does the terminal k0: beta_s is c_s,
    and report s ran the routes minimal_over(beta_s, d) would run."""
    order, tw = seq.order, seq.order.tower
    s, entries, n = seq.s, seq.entries, seq.n
    checks, details = {}, {}

    # k0 of beta_s if the sequence is sound, else 0, which fails (a) and (e)
    beta_s = entries[s].beta
    if beta_s.in_level(tw.d):
        k0_terminal = None
    elif reports[s].minimal if reports else minimal_over(beta_s, tw.d):
        k0_terminal = nu_A(order, beta_s)
    else:
        k0_terminal = 0

    ok = True
    for i in range(s + 1):
        pure = nu_A(order, entries[i].beta) == -n
        # k0 from the tail, justified by (e)/(f); -infinity is None
        k0 = -entries[i + 1].r if i < s else k0_terminal
        simple = pure and (k0 is None or entries[i].r < -k0)
        if not simple:
            ok = False
    checks["a_strata_simple"] = ok

    rs = [e.r for e in entries]
    checks["b_levels_increase"] = all(a < b for a, b in zip(rs, rs[1:])) and rs[-1] < n

    ok = True
    prev_stab = None
    for i in range(s + 1):
        stab = stabilizer_within(entries[i].beta, tw.group)
        if stab != tw.chain[entries[i].level]:
            ok = False
            details.setdefault("c", []).append(
                f"F[beta_{i}] is not the level-{entries[i].level} field")
        if prev_stab is not None and not (prev_stab < stab):
            ok = False
            details.setdefault("c", []).append(f"fields not strictly nested at {i}")
        prev_stab = stab
    checks["c_fields_nested"] = ok

    ok = True
    for i in range(s):
        r_next = entries[i + 1].r
        diff = entries[i].beta - entries[i + 1].beta
        if nu_A(order, diff) != -r_next:
            ok = False
    checks["d_k0_steps"] = ok

    checks["e_terminal_k0"] = k0_terminal is None or k0_terminal == -n

    ok = True
    for i in range(s + 1):
        low = entries[i + 1].level if i < s else tw.d
        r_derived = entries[i + 1].r if i < s else n
        if reports is not None:
            rep = reports[i]
        else:
            try:
                rep = is_minimal(entries[i].c, entries[i].level, low)
            except (ZeroToPrecision, NotInLevel):
                ok = False
                continue
        if not rep.minimal or nu_A(order, entries[i].c) != -r_derived:
            ok = False
    checks["f_derived_simple"] = ok

    return VerifyReport(checks, details)

