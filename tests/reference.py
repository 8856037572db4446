"""Plain references the oracle's tests compare against: the matrix product
and difference, a quotient vector as a matrix, and the sum and Zassenhaus
intersection of row spaces.  The oracle itself forms no matrix product,
sums only rows it does not hold and intersects only by a radical cut, so
these live with the tests.  So do the plain routes the oracle no longer
takes: a commutant solved from every generator and re-eliminated, h and j
as sums, traces summed in k_L, ad equations from per-call tables with
unreduced coefficients, and element matrices from a product per term.
The six named conditions of a defining sequence, each decided afresh,
are the reference for the one check build_defining_sequence makes.

A matrix is the oracle's {(row, col): {w: k_F element}} map of nonzero
t^w entries, and ``rows`` lists a Subspace's rows in pivot order."""

from tamestrata import oracle, strata
from tamestrata.errors import PrecisionExhausted, TameStrataError
from tamestrata.minimal import is_minimal, minimal_over
from tamestrata.oracle import Subspace
from tamestrata.tame import stabilizer_within


def rows(space):
    """The rows of a Subspace in pivot order."""
    return [space._rows[q] for q in sorted(space._rows)]


def _clean(entries):
    return {k: v for k, v in entries.items() if v}


def mat_mul(N, a, b):
    """The product of two N x N matrices."""
    out = {}
    for (r, k), ser1 in a.items():
        for c in range(N):
            ser2 = b.get((k, c))
            if not ser2:
                continue
            acc = out.setdefault((r, c), {})
            for w1, c1 in ser1.items():
                for w2, c2 in ser2.items():
                    w = w1 + w2
                    v = acc.get(w)
                    v = c1 * c2 if v is None else v + c1 * c2
                    if v.is_zero():
                        acc.pop(w, None)
                    else:
                        acc[w] = v
    return _clean(out)


def mat_sub(a, b):
    """The difference a - b."""
    out = {k: dict(v) for k, v in a.items()}
    for key, ser in b.items():
        acc = out.setdefault(key, {})
        for w, c in ser.items():
            v = acc.get(w)
            v = -c if v is None else v - c
            if v.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = v
    return _clean(out)


def vec_to_matrix(model, vec, coords):
    """The matrix of a sparse vector over a quotient's coordinates."""
    entries = {}
    for pos, x in vec.items():
        r, c, w, i = coords[pos]
        acc = entries.setdefault((r, c), {})
        add = model._kF_basis[i] * x
        acc[w] = acc[w] + add if w in acc else add
    return _clean({k: {w: c for w, c in v.items() if not c.is_zero()}
                   for k, v in entries.items()})


def span(*spaces):
    """The sum of row spaces of one quotient, every row eliminated anew."""
    first = spaces[0]
    return Subspace(first.p, first.width,
                    [row for space in spaces for row in space._rows.values()])


def intersect(a, b):
    """a ∩ b by Zassenhaus: row-reduce [A|A; B|0]; the rows whose pivot
    lies in the right half span the intersection there, already in RREF."""
    w = a.width
    combined = [{**r, **{c + w: x for c, x in r.items()}}
                for r in a._rows.values()]
    combined += b._rows.values()
    big = Subspace(a.p, 2 * w, combined)
    return Subspace._from_rref(
        a.p, w, {piv - w: {c - w: x for c, x in row.items()}
                 for piv, row in big._rows.items() if piv >= w})


def generator_matrices(model, level):
    """The matrices of the level's generators theta_level and pi_level."""
    tower = model.tower
    gens = [tower.monomial(tower.residue_generator(level), 0),
            tower.uniformizer(level)]
    return [model.elt_to_matrix(g.at_level(0)) for g in gens]


def commutant_by_kernel(model, level, quot):
    """B_level ∩ A in quot = A/P^M: the equations of every generator, F-scalars
    included, grown until the image dimension is stable; the rows pivoted
    below the width re-eliminated, their kernel projected."""
    layers = oracle._Layers(model, generator_matrices(model, level), 0)
    width = len(quot.coords)
    oracle._stable_dim(layers, quot.M, width)
    eqs = layers.eqs
    low = Subspace(eqs.p, eqs.width,
                   [row for piv, row in eqs._rows.items() if piv < width])
    return quot.project(low.kernel())


def hj_by_sums(model, seq):
    """h and j of a defining sequence by the recursion, each step a plain
    sum: b_s + P^(n//2 + 1), then b_i + (h ∩ P^(r_(i+1)//2 + 1)), and j
    with (r + 1)//2."""
    n, s = seq.n, seq.s
    quot = model.quotient_context(n // 2 + 1)
    b_s = quot.order_level(seq.entries[s].level, 0)
    h = span(b_s, quot.radical_power(n // 2 + 1))
    j = span(b_s, quot.radical_power((n + 1) // 2))
    for i in range(s - 1, -1, -1):
        r_next = seq.entries[i + 1].r
        b_i = quot.order_level(seq.entries[i].level, 0)
        h = span(b_i, quot.radical_cut(h, r_next // 2 + 1))
        j = span(b_i, quot.radical_cut(j, (r_next + 1) // 2))
    return h, j


def char_module_min_ord_in_kL(model, c, level, exponent):
    """Min ord of Tr(c * Q_level^exponent), each probe's trace summed in
    k_L; PrecisionExhausted (the class) where the oracle raises it."""
    cmat = model.elt_to_matrix(c.at_level(0))
    nu_c = model.block_val(cmat)
    M = exponent + abs(nu_c) + 3 * model.e_A
    quot = model.quotient_context(M)
    best = None
    for row in rows(quot.order_level(level, exponent)):
        acc = {}
        for pos, x in row.items():
            r, col, w, i = quot.coords[pos]
            scale = model._kF_basis[i] * x
            for w2, c2 in cmat.get((col, r), {}).items():
                key, v = w + w2, c2 * scale
                acc[key] = acc[key] + v if key in acc else v
        tr = min((w for w, v in acc.items() if not v.is_zero()), default=None)
        if tr is not None and (best is None or tr < best):
            best = tr
    if best is None or best >= -(-(M + nu_c) // model.e_A):
        return PrecisionExhausted
    return best


def ad_equations_per_call(model, terms, quot, start, stop, pending):
    """The equations of ad_g(x) = 0 for the unknowns quot.coords[start:stop],
    added to pending as ``oracle._ad_equations`` does, from cell tables
    built for this call only: the gx and xg parts of an output are summed
    per unknown, unreduced, so a coefficient or a whole row may be 0 mod p."""
    N, deg_F = model.N, model.deg_F
    tables = {}
    for j in range(start, stop):
        r, c, _, i = quot.coords[j]
        table = tables.get((r, c, i))
        if table is None:
            table = tables[r, c, i] = []
            for n, (by_col, by_row) in enumerate(terms):
                for a, val, vecs in by_col.get(r, ()):
                    base = ((n * N + a) * N + c) * deg_F
                    table.append((val, [(base + t, x)
                                        for t, x in enumerate(vecs[i]) if x]))
                for b, val, vecs in by_row.get(c, ()):
                    base = ((n * N + r) * N + b) * deg_F
                    table.append((val, [(base + t, -x)
                                        for t, x in enumerate(vecs[i]) if x]))
        v = quot.vals[j]
        for val, outputs in table:
            layer = pending.setdefault(v + val, {})
            for out, x in outputs:
                row = layer.setdefault(out, {})
                row[j] = row.get(j, 0) + x


def elt_to_matrix_by_products(model, x):
    """The matrix of multiplication by x (a series in E_0) as
    ``MatrixModel.elt_to_matrix`` builds it, each term of each column one
    product c * c_pi^(a - a2) * theta^b * zeta^-w, its k_F entries summed
    from the theta_F basis."""
    m, deg_F, k = model.m_pi, model.deg_F, model.tower.k
    entries = {}
    for col, (a, b, j) in enumerate(model.basis):
        for e, c in x.terms:
            w, a2 = divmod(e // m + a, model.e0)
            coords = model.residue_coords(
                c * model.c_pi ** (a - a2) * model.theta ** b
                * model.zeta ** -w)
            for b2 in range(model.f0):
                cF = k.zero()
                for y, basis in zip(coords[b2 * deg_F:(b2 + 1) * deg_F],
                                    model._kF_basis):
                    cF = cF + basis * y
                if not cF.is_zero():
                    entries.setdefault(
                        (model.index[(a2, b2, j)], col), {})[w] = cF
    return entries


def assemble_sequence(order, c_list):
    """The sequence a block list spells, with no check: beta_i = c_i + ...
    + c_s, r_0 = 0, r_i = -nu_A(c_{i-1}) and n = -nu_A(c_s)."""
    nus = [strata.nu_A(order, c) for _, c in c_list]
    s = len(c_list) - 1
    entries = []
    for i, (lvl, c) in enumerate(c_list):
        beta = c
        for _, cj in c_list[i + 1:]:
            beta = beta + cj
        entries.append(strata.SeqEntry(0 if i == 0 else -nus[i - 1],
                                       beta, lvl, c))
    case = "A" if c_list[s][0] == order.tower.d else "B"
    return strata.DefiningSeq(order, -nus[s], tuple(entries), s, case)


def _holds(check):
    """check(), with a check that cannot be decided counted as failed."""
    try:
        return check()
    except TameStrataError:
        return False


def sequence_conditions(seq):
    """The named conditions of a defining sequence, minimality decided
    afresh for each block and for beta_s:
    (a) every [A, n, r_i, beta_i] is simple, k0 of beta_i read from the
        tail as -r_{i+1}
    (b) r_0 < r_1 < ... < r_s < n
    (c) fields F[beta_i] match the assigned levels, strictly nested
    (d) nu_A(beta_i - beta_{i+1}) = -r_{i+1} for i < s
    (e) k0(beta_s) is -n or -infinity
    (f) each c_i is minimal for its step and nu_A(c_i) = -r_{i+1} (-n
        for c_s)."""
    order, tw = seq.order, seq.order.tower
    s, entries, n = seq.s, seq.entries, seq.n
    beta_s = entries[s].beta

    def k0_terminal():      # None is -infinity; 0 fails (a) and (e)
        if beta_s.in_level(tw.d):
            return None
        return strata.nu_A(order, beta_s) if minimal_over(beta_s, tw.d) else 0

    def simple(i):
        k0 = -entries[i + 1].r if i < s else k0_terminal()
        return (strata.nu_A(order, entries[i].beta) == -n
                and (k0 is None or entries[i].r < -k0))

    def fields():
        stabs = [stabilizer_within(e.beta, tw.group) for e in entries]
        return (all(st == tw.chain[e.level] for st, e in zip(stabs, entries))
                and all(a < b for a, b in zip(stabs, stabs[1:])))

    def derived(i):
        low, r = ((entries[i + 1].level, entries[i + 1].r) if i < s
                  else (tw.d, n))
        return (is_minimal(entries[i].c, entries[i].level, low).minimal
                and strata.nu_A(order, entries[i].c) == -r)

    rs = [e.r for e in entries]
    return {
        "a_strata_simple": all(_holds(lambda: simple(i)) for i in range(s + 1)),
        "b_levels_increase": all(a < b for a, b in zip(rs, rs[1:] + [n])),
        "c_fields_nested": _holds(fields),
        "d_k0_steps": all(_holds(lambda: strata.nu_A(
            order, entries[i].beta - entries[i + 1].beta) == -entries[i + 1].r)
            for i in range(s)),
        "e_terminal_k0": _holds(lambda: k0_terminal() in (None, -n)),
        "f_derived_simple": all(_holds(lambda: derived(i))
                                for i in range(s + 1)),
    }
