"""Built-in towers and a deterministic datum corpus for the checks.

The desk towers are small enough for exhaustive Galois work and for the
matrix oracle; the deeper tower exercises longer chains where only the
closed-form skeleton operations run.  Corpus generation is deterministic:
candidate monomials are scanned in a fixed order and the first ones that
pass the minimality requirements are kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import TameStrataError, VerificationFailed
from .minimal import is_minimal
from .strata import make_order
from .tame import GaloisElement, Tower, make_tower, monomials_in_level
from .translate import BKDatumSkeleton, make_bk_datum


@lru_cache(maxsize=None)
def desk_tower_5() -> Tower:
    """F_25((s)) > F_25((t)) > F_5((t)), s^2 = t, with omega^2 = omega + 3."""
    tower = make_tower(5, 2, 2, residue_modulus=[2, 4, 1])
    tau = GaloisElement(0, tower.k.elem(-1))
    chain = (frozenset([tower.identity]),
             frozenset([tower.identity, tau]),
             tower.group)
    return make_tower(5, 2, 2, residue_modulus=[2, 4, 1], levels=chain)


@lru_cache(maxsize=None)
def desk_tower_3() -> Tower:
    """F_9((s)) > F_9((t)) > F_3((t)), s^2 = t."""
    tower = make_tower(3, 2, 2)
    tau = GaloisElement(0, tower.k.elem(-1))
    chain = (frozenset([tower.identity]),
             frozenset([tower.identity, tau]),
             tower.group)
    return make_tower(3, 2, 2, levels=chain)


@lru_cache(maxsize=None)
def desk_tower_2() -> Tower:
    """F_4((s)) > F_4((t)) > F_2((t)), s^3 = t; the Galois group is S_3."""
    tower = make_tower(2, 3, 2)
    inertia = frozenset(g for g in tower.group if g.frob_power == 0)
    chain = (frozenset([tower.identity]), inertia, tower.group)
    return make_tower(2, 3, 2, levels=chain)


@lru_cache(maxsize=None)
def desk_tower_2b() -> Tower:
    """F_4((s)) > F_2((s)) > F_2((t)): residue degree drops mid-chain."""
    tower = make_tower(2, 3, 2)
    phi = next(g for g in tower.group
               if g.frob_power == 1 and g.twist == tower.k.one())
    sub = tower.closure([phi])
    chain = (frozenset([tower.identity]), sub, tower.group)
    return make_tower(2, 3, 2, levels=chain)


@lru_cache(maxsize=None)
def deep_tower_5() -> Tower:
    """F_25((s)) with s^8 = t over F_5((t)): a four-step chain."""
    tower = make_tower(5, 8, 2)
    mu = [g for g in tower.group if g.frob_power == 0]
    h1 = frozenset(g for g in mu if g.twist.multiplicative_order() <= 2)
    h2 = frozenset(g for g in mu if g.twist.multiplicative_order() <= 4)
    chain = (frozenset([tower.identity]), h1, h2, tower.group)
    return make_tower(5, 8, 2, levels=chain)


@lru_cache(maxsize=None)
def standard_towers():
    """Two-level towers over p in {2,3,5}, e in {1,2,3}, f in {1,2}."""
    combos = []
    for p in (2, 3, 5):
        for e in (1, 2, 3):
            for f in (1, 2):
                if e % p == 0 or (e == 1 and f == 1):
                    continue
                if (p ** f - 1) % e:
                    continue
                combos.append(make_tower(p, e, f))
    return combos


BUILTIN_TOWERS = {"desk5": desk_tower_5, "desk3": desk_tower_3,
                  "desk2": desk_tower_2, "desk2b": desk_tower_2b,
                  "deep5": deep_tower_5}


def named_tower(name: str) -> Tower:
    if name not in BUILTIN_TOWERS:
        raise KeyError(f"unknown tower {name!r}; "
                       f"choose from {sorted(BUILTIN_TOWERS)}")
    return BUILTIN_TOWERS[name]()


# ---------------------------------------------------------------------------
# corpus of data
# ---------------------------------------------------------------------------

def minimal_monomial(tower: Tower, upper: int, lower: int, target_nu: int,
                     e_A: int):
    """First monomial in E_upper with nu_A = -target_nu, minimal for the step."""
    want_ord = Fraction(-target_nu, e_A)
    if (want_ord * tower.e).denominator != 1:
        return None
    for mono in monomials_in_level(tower, upper, want_ord, want_ord):
        try:
            if is_minimal(mono, upper, lower).minimal:
                return mono
        except TameStrataError:
            continue
    return None


def blocks_for_levels(tower: Tower, levels, depth_base: int, e_A: int):
    """Deterministic (level, monomial) blocks along a level pattern."""
    blocks = []
    target = depth_base
    for i, lvl in enumerate(levels):
        low = levels[i + 1] if i + 1 < len(levels) else tower.d
        found = None
        t = target
        while t < target + 4 * e_A and found is None:
            found = minimal_monomial(tower, lvl, low, t, e_A)
            if found is not None:
                found = (lvl, found, t)
            else:
                t += 1
        if found is None:
            return None
        blocks.append(found)
        target = found[2] + 1
    return [(lvl, c) for lvl, c, _ in blocks]


def _level_patterns(d_t: int):
    patterns = []
    for start in range(d_t):
        patterns.append(list(range(start, d_t)))        # Case B
        patterns.append(list(range(start, d_t + 1)))    # Case A
    patterns.append([d_t])                              # depth in F only
    return patterns


def datum_corpus_for_orders(named_orders):
    """BK skeletons for the given orders; all verify at construction."""
    data = []
    for name, order in named_orders:
        tower = order.tower
        for base in (1, 2):
            for levels in _level_patterns(tower.d):
                blocks = blocks_for_levels(tower, levels, base, order.e_A)
                if blocks is None:
                    continue
                label = (f"{name}/N={order.N}/levels="
                         f"{'-'.join(map(str, levels))}/base={base}")
                data.append((label, make_bk_datum(order, blocks)))
        data.append((f"{name}/N={order.N}/type-b", BKDatumSkeleton(order)))
    return data


@lru_cache(maxsize=None)
def datum_corpus():
    """At least 50 BK skeletons spanning Cases A and B and d in {0,1,2,3}."""
    orders = []
    for name in BUILTIN_TOWERS:
        tower = named_tower(name)
        orders.append((name, make_order(tower, tower.level_degree(0))))
    t5 = desk_tower_5()
    orders.append(("desk5x2", make_order(t5, 2 * t5.level_degree(0))))
    data = datum_corpus_for_orders(orders)
    if len(data) < 50:
        raise VerificationFailed(f"corpus too small: {len(data)}")
    return data
