"""Datum-skeleton translation, filtration tables and the index ledger.

A BK skeleton is the arithmetic part of one construction's datum: the order
and a verified defining sequence (none for type (b)); the per-level
character realisation data is read off that sequence.  A Yu skeleton is
the arithmetic part of the other: twisted-Levi dimensions, a depth vector,
and per-level realizing elements.  A Yu skeleton translates when it is the
translation of the datum its realised characters build; BK ones always do.
Representation-level objects are out-of-scope markers.

Character statements never touch complex values: a character psi_c is
trivial on a filtration subgroup exactly when the trace module valuation
clears the conductor, so triviality questions are integer inequalities.

Filtration tables list factors (level, exponent); a factor means the
exponent-th congruence unit group of the order at that chain level.  For
the prefix-type tables compared here (increasing exponents along growing
levels) the corresponding lattice is the plain sum of the factors'
radical powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    BadLevel, NotMinimalSummand, OracleRequired, OrderMismatch,
    VerificationError, VerificationFailed, ZeroToPrecision,
)
from .minimal import is_minimal
from .strata import DefiningSeq, OrderDesc, build_defining_sequence, nu_A
from .tame import TameSeries


OUT_OF_SCOPE = "out-of-scope (representation-level)"


class CharFactor(NamedTuple):
    """Realisation data for one factor of a simple character."""
    level: int
    c: TameSeries
    depth: Fraction
    det_domain: tuple          # factors where the piece is phi o det
    psi_domain: tuple          # factors where the piece is psi_c


class FiltrationTable(NamedTuple):
    name: str
    order: OrderDesc
    factors: tuple             # (level, exponent, depth label or None)

    def pairs(self):
        return tuple((lvl, m) for lvl, m, _ in self.factors)


class LogIndex(NamedTuple):
    name: str
    value: int                 # the index is p^value
    provenance: str            # "oracle": no entry is made without a model


class BKDatumSkeleton(NamedTuple):
    """Type (a) (simple) with its verified defining sequence, or type (b)
    (maximal order, depth-zero slots only) with none."""
    order: OrderDesc
    seq: Optional[DefiningSeq] = None

    @property
    def kind(self) -> str:
        return "b" if self.seq is None else "a"

    @property
    def theta_factors(self) -> tuple:
        """Factor i is phi o det on H^1's factors 0..i and psi_{c_i} beyond
        them; Case A's terminal factor is phi o det on all of H^1."""
        if self.seq is None:
            return ()
        seq, h1 = self.seq, h_group_table(self.seq)["H1"].factors
        factors = []
        for i, (e, depth) in enumerate(zip(seq.entries, seq.depths)):
            cut = len(h1) if seq.case == "A" and i == seq.s else i + 1
            factors.append(CharFactor(e.level, e.c,
                                      Fraction(depth, seq.order.e_A),
                                      h1[:cut], h1[cut:]))
        return tuple(factors)


class YuDatumSkeleton(NamedTuple):
    point: OrderDesc           # stands for the building point y
    dims: tuple                # m_i = N / [E_i : F] along the Levi sequence
    depths: tuple              # r_0 < ... < r_{d-1} <= r_d
    characters: tuple          # (level, realizing element or None, depth)
    case: str                  # "A": folded nontrivial top character; "B": trivial
    rho_slot = OUT_OF_SCOPE    # a class constant, not a field

    @property
    def d(self) -> int:
        return len(self.dims) - 1


def make_bk_datum(order: OrderDesc, c_list) -> BKDatumSkeleton:
    """Type (a) skeleton from blocks; builds and verifies the sequence."""
    return BKDatumSkeleton(order, build_defining_sequence(order, c_list))


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

def h_group_table(seq: DefiningSeq):
    """Closed-form tables for H^1, J^1 and J^0 as factor lists."""
    tower = seq.order.tower
    levels = [e.level for e in seq.entries]
    depths = seq.depths
    case_b = seq.case == "B"

    def build(name, first_exp, exp):
        factors = [(levels[0], first_exp, None)]
        for i in range(1, seq.s + 1):
            factors.append((levels[i], exp(depths[i - 1]), None))
        if case_b:
            factors.append((tower.d, exp(depths[seq.s]), None))
        return FiltrationTable(name, seq.order, tuple(factors))

    h1 = build("H1", 1, lambda v: v // 2 + 1)
    j1 = build("J1", 1, lambda v: (v + 1) // 2)
    j0 = build("J0", 0, lambda v: (v + 1) // 2)
    return {"H1": h1, "J1": j1, "J0": j0}


def _mp_exponent(depth: Fraction, e_A: int, plus: bool) -> int:
    """Filtration depth to congruence exponent at a chain level."""
    x = depth * e_A
    if plus:
        return x.numerator // x.denominator + 1
    return -((-x.numerator) // x.denominator)


def yu_group_table(yu: YuDatumSkeleton):
    """Tables for K^d_+, the maximal compact oK^d, and each J^i, J^i_+."""
    order = yu.point
    tower = order.tower
    e_A = order.e_A
    levels = [lvl for lvl, _, _ in yu.characters]
    depths = yu.depths
    d = yu.d
    tables = {}

    kd_factors = [(levels[0], 1, "0+")]
    okd_factors = [(levels[0], 0, "0")]
    for i in range(1, d + 1):
        s_prev = depths[i - 1] / 2
        kd_factors.append((levels[i], _mp_exponent(s_prev, e_A, True),
                           f"{s_prev}+"))
        okd_factors.append((levels[i], _mp_exponent(s_prev, e_A, False),
                            f"{s_prev}"))
    tables["Kd+"] = FiltrationTable("Kd+", order, tuple(kd_factors))
    tables["oKd"] = FiltrationTable("oKd", order, tuple(okd_factors))

    for i in range(1, d + 1):
        r_prev = depths[i - 1]
        s_prev = r_prev / 2
        j = [(levels[i - 1], _mp_exponent(r_prev, e_A, False), f"{r_prev}"),
             (levels[i], _mp_exponent(s_prev, e_A, False), f"{s_prev}")]
        jp = [(levels[i - 1], _mp_exponent(r_prev, e_A, False), f"{r_prev}"),
              (levels[i], _mp_exponent(s_prev, e_A, True), f"{s_prev}+")]
        tables[f"J{i}"] = FiltrationTable(f"J{i}", order, tuple(j))
        tables[f"J{i}+"] = FiltrationTable(f"J{i}+", order, tuple(jp))
    return tables


def normalize_table(table: FiltrationTable) -> tuple:
    """Drop factors contained in another: (i, m) ⊆ (j, m') iff j >= i, m >= m'."""
    pairs = {}
    for lvl, m, _ in table.factors:
        if lvl not in pairs or m < pairs[lvl]:
            pairs[lvl] = m
    items = sorted(pairs.items())
    kept = []
    for lvl, m in items:
        if any(other_lvl >= lvl and m >= other_m and (other_lvl, other_m) != (lvl, m)
               for other_lvl, other_m in items):
            continue
        kept.append((lvl, m))
    return tuple(kept)


def table_compare(a: FiltrationTable, b: FiltrationTable, model=None) -> bool:
    """Equality of the groups two prefix-type tables present.

    With a matrix model the oracle decides it: equal factor sets present
    one lattice, and differing ones are compared as lattices, which also
    settles any case absorption cannot; without one the closed-form
    normalizations are compared.
    """
    if a.order != b.order:
        raise OrderMismatch("tables over different orders")
    if model is not None:
        from .oracle import oracle_tables_equal
        return oracle_tables_equal(model, a.pairs(), b.pairs())
    return normalize_table(a) == normalize_table(b)


def table_equalities(bk_tables, yu_tables, model=None) -> dict:
    """BK's H^1 = Yu's K^d_+ and J^0 = °K^d, the paper's two filtration
    equalities, by name: whether table_compare finds each to hold."""
    return {"H1=Kd+": table_compare(bk_tables["H1"], yu_tables["Kd+"], model),
            "J0=oKd": table_compare(bk_tables["J0"], yu_tables["oKd"], model)}


# ---------------------------------------------------------------------------
# character factors and module valuations
# ---------------------------------------------------------------------------

def char_module_valuation(c: TameSeries, factor, order: OrderDesc) -> int:
    """Min ord over F of Tr(c * Q_level^exponent): ceil((m + nu_A(c))/e_A).

    The character psi_c is trivial on the factor's unit group exactly when
    this value is at least 1.
    """
    level, m = factor[0], factor[1]
    order.tower.check_level(level)
    if not c.terms:
        raise ZeroToPrecision("no visible terms in the realizing element")
    v = m + nu_A(order, c)
    return -((-v) // order.e_A)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def bk_to_yu(bk: BKDatumSkeleton) -> YuDatumSkeleton:
    order, seq = bk
    tower = order.tower
    if seq is None:
        return YuDatumSkeleton(order, (order.N,), (Fraction(0),),
                               ((tower.d, None, Fraction(0)),), "B")
    levels = [e.level for e in seq.entries]
    depths = [Fraction(v, order.e_A) for v in seq.depths]
    dims = [order.N // tower.level_degree(lvl) for lvl in levels]
    chars = [(levels[i], seq.entries[i].c, depths[i]) for i in range(seq.s + 1)]
    if seq.case == "B":
        dims.append(order.N)
        depths.append(depths[-1])
        chars.append((tower.d, None, depths[-1]))
    return YuDatumSkeleton(order, tuple(dims), tuple(depths), tuple(chars),
                           seq.case)


def yu_to_bk(yu: YuDatumSkeleton) -> BKDatumSkeleton:
    """The BK datum yu's realised characters build (type (b) if none is),
    which yu must translate: one comparison checks the dims, the depths and
    their order, the case and each stated depth against its character."""
    order = yu.point
    c_list = [(lvl, c) for lvl, c, _ in yu.characters if c is not None]
    # the build checks minimality too; this names the realizing element, and
    # perfbench's datum-pipeline requires the call site (ROADMAP item 6)
    for i, (lvl, c) in enumerate(c_list):
        low = c_list[i + 1][0] if i + 1 < len(c_list) else order.tower.d
        if not is_minimal(c, lvl, low).minimal:
            raise NotMinimalSummand(
                f"realizing element {i} is not minimal for levels {lvl}/{low}")
    bk = make_bk_datum(order, c_list) if c_list else BKDatumSkeleton(order)
    if bk_to_yu(bk) != yu:
        raise VerificationFailed(
            "the Yu datum is not the translation of the datum it builds")
    return bk


def skeletons_agree(a, b) -> bool:
    """Two skeletons of the same flavour with equal fields."""
    return type(a) is type(b) and a == b


def round_trip_agrees(bk: BKDatumSkeleton, yu: YuDatumSkeleton) -> bool:
    """Whether yu, the translation of bk, translates back to bk; a raise is
    a no.  yu -> bk -> yu needs no check of its own: yu_to_bk returns only
    a datum whose translation is yu."""
    try:
        return skeletons_agree(bk, yu_to_bk(yu))
    except VerificationError:
        return False


# ---------------------------------------------------------------------------
# the index ledger
# ---------------------------------------------------------------------------

def single_index_log(order: OrderDesc, level: int, a: int, b: int) -> int:
    """log_p [U^a(B_level) : U^b(B_level)] in closed form (1 <= a <= b)."""
    tower = order.tower
    if not 1 <= a <= b:
        raise BadLevel("need 1 <= a <= b")
    m_i = order.m[level]
    e_B = order.e_B(level)
    deg = tower.level_residue_degree(level)
    num = deg * (b - a) * m_i * m_i
    if num % e_B:
        raise VerificationFailed(f"index exponent {num}/{e_B} is not integral")
    return num // e_B


def ledger_indices(bk: BKDatumSkeleton, yu: YuDatumSkeleton, model=None):
    """Index ledger plus verdicts.

    Every index is the oracle's, so a datum with indices needs a model;
    each single-group index is checked against its closed form.  Verdicts:
    the product identity between the Yu-side Heisenberg quotients and the
    single quotient J^1/H^1, and evenness of the exponents so that the
    dimension square roots are integral powers of p.
    """
    order = bk.order
    if yu.point != order:
        raise OrderMismatch("skeletons over different orders")
    verdicts = {"product_identity": True, "even_exponents": True,
                "singles_match_oracle": None}
    if bk.kind == "b" or model is None and yu.d == 0:
        return [], verdicts
    if model is None:
        raise OracleRequired("composite indices need the matrix model")
    from .oracle import oracle_j1h1_index, oracle_step_index

    levels = [lvl for lvl, _, _ in yu.characters]
    # step i: [U^a(B_l) : U^b(B_l)] at l = levels[i-1] and levels[i]
    vs = [int(yu.depths[i] * order.e_A) for i in range(yu.d)]
    steps = [((v + 1) // 2, v // 2 + 1) for v in vs]
    oracle_logs = {
        (lvl, a_exp, b_exp): oracle_step_index(model, lvl, a_exp, b_exp)
        for i, (a_exp, b_exp) in enumerate(steps, 1)
        for lvl in (levels[i - 1], levels[i])}

    entries = []
    singles_ok = True
    for i, (a_exp, b_exp) in enumerate(steps, 1):
        for lvl in (levels[i - 1], levels[i]):
            if a_exp < 1 or a_exp == b_exp:
                continue
            log = oracle_logs[(lvl, a_exp, b_exp)]
            if single_index_log(order, lvl, a_exp, b_exp) != log:
                singles_ok = False
            entries.append(LogIndex(f"[U^{a_exp}(B_{lvl}):U^{b_exp}(B_{lvl})]",
                                    log, "oracle"))
    verdicts["singles_match_oracle"] = singles_ok

    log_j1h1 = oracle_j1h1_index(model, bk.seq)
    entries.append(LogIndex("[J1:H1]", log_j1h1, "oracle"))
    if log_j1h1 % 2:
        verdicts["even_exponents"] = False

    total = 0
    for i, (a_exp, b_exp) in enumerate(steps, 1):
        log = (oracle_logs[(levels[i], a_exp, b_exp)]
               - oracle_logs[(levels[i - 1], a_exp, b_exp)])
        entries.append(LogIndex(f"[J^{i}:J^{i}+]", log, "oracle"))
        if log % 2:
            verdicts["even_exponents"] = False
        total += log
    verdicts["product_identity"] = (total == log_j1h1)
    return entries, verdicts


def ledger_holds(verdicts) -> bool:
    """Whether every verdict a ledger decided (not None) is true."""
    return all(v for v in verdicts.values() if v is not None)
