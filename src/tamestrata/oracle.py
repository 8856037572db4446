"""Brute-force ground truth in an explicit matrix model.

V is realised as E_0^{m_0} with the F-basis pi^a * theta^b * e_j (pi a
monomial uniformizer of E_0, theta a residue generator), matrices over
truncated t-series with coefficients in k_F, read off an element's terms
with k_L arithmetic alone (no series product, power or inverse).  The
order \\mathfrak{A} is the chain order of {p_{E_0}^k}; membership in radical
powers reads off block valuations e_A*val_t(entry) + a_row - a_col.  Every
lattice is a ``Subspace``, an F_p row space of a finite quotient A/P^M
that the oracle chooses itself: callers ask whole questions (an index, a
table equality) and never handle a quotient.  ``Subspace`` is the only
elimination routine here.  The F_p coordinates of a residue-field
coefficient (over k_F, and of k_{E_0} over k_F) are looked up in tables
each model enumerates once from k_L arithmetic.  No code is shared with
the closed-form paths, so agreement is evidence.

Rows are sparse {column: x} dicts: at N=16 a row of Q^k has at most 16
nonzeros, in quotients of up to 832 columns.  ``Subspace`` keeps them in
reduced row echelon form (RREF) with two indexes, pivot -> row and column
-> pivots of the rows nonzero there, so reducing a vector touches only the
pivots it hits and a new pivot is back-substituted only into the rows that
have it (structured elimination, after LaMacchia and Odlyzko, CRYPTO '90).

Coordinates are numbered in order of block valuation, then (row, col, w),
so fill-in stays within valuation layers, and:
- A/P^M is a prefix of A/P^M' for M < M', at the same positions, so a
  projection drops the positions past the width.  The rows of an RREF
  space pivoted below it, cut there, are still RREF and span the image
  (``_Quotient.truncate``); kernel vectors are row-reduced (``project``).
- P^k is a suffix.  A vector of an RREF space S is the combination of the
  rows given by its pivot entries, and a row lies in P^k iff its pivot
  (its smallest column) does, so S ∩ P^k is the set of rows with a pivot
  in P^k (``_Quotient.radical_cut``).

No row is eliminated whose result is already known:
1. A kernel is read off the rows of a system pivoted below a width, which
   are RREF already (``nullspace``).
2. A generator that acts as an F-scalar (``_lies_in_F``: the top level's,
   desk5's t) has ad_g = 0 and adds no equation; a level with no equation
   is the whole quotient, and has no system.
3. A model lays out its coordinates once: a smaller A/P^M is a slice of
   the largest layout, and a larger one appends the cells past it.
4. Each cell's outputs under ad are read once per system, merged mod p
   (``_cell_table``), so an unknown writes one nonzero entry per output
   and no row that is zero mod p is built or eliminated.
A held commutant is truncated to a smaller M as above.  A table's lattice
is summed from its largest level down: for l <= l', B_l ⊂ B_l', so once
Q_l'^k is in the sum, so is every row of a later Q_l^m pivoted in P^k (it
lies in Q_l^m ∩ P^k ⊂ Q_l'^k); only rows pivoted below every start taken
are added.  ``oracle_hj`` adds the same way.

Every kernel the oracle solves has its equations from one routine,
``_ad_equations``: ad_g(x) = 0 for every generator g, one sparse row per
output position, grouped by the output's block valuation.  ``ad_g`` of an
elementary matrix theta_F^i t^w e_rc is read off column r and row c of g,
with no matrix product.  Centralisers are commutants of generating
matrices of block valuation >= shift, so an unknown of valuation v reaches
only outputs of valuation v + shift or more.  Each centraliser is one
growing echelon form (``_Layers``): unknowns enter as a prefix of
A/P^extent, and each equation enters once, after its last unknown, in
increasing output valuation, so the system at one extent is a prefix of
the system at every larger one.  ``_centraliser_image`` grows the extent
in steps of e_A until two successive extents give one image dimension in
the target quotient (images shrink as the extent grows, so that is one
image), then reads the image once.  Each model keeps, per level, the
system and the commutant at the largest M stabilised so far: a smaller M
is the commutant's truncation, a larger one extends the system.  The
k-scan of ``oracle_k0`` is a prefix of beta's commutant system, so one
echelon form answers both.  Cached matrices and subspaces are shared: do
not mutate them.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    NotInLevel, NotNested, PrecisionExhausted, TooLarge, VerificationFailed,
    ZeroToPrecision,
)
from .strata import ORACLE_MAX_N as MAX_N, DefiningSeq, OrderDesc
from .tame import TameSeries

_PREC = 24      # t-window half-width of a model's element matrices


# ---------------------------------------------------------------------------
# F_p row spaces
# ---------------------------------------------------------------------------

class Subspace:
    """Row space over F_p in reduced row echelon form (RREF), sparse.

    A row is a dict {column: x} of its nonzero entries, 0 < x < p, with
    entry 1 at its pivot (its smallest column).  Two indexes keep the
    elimination local: ``_rows`` maps each pivot to its row, so reducing a
    vector touches only the pivots it hits, and ``_occ`` maps each
    non-pivot column to the pivots of the rows that are nonzero there, so
    back-substituting a new pivot touches only the rows it changes.

    A row dict is never changed in place, so subspaces may share rows.
    """

    def __init__(self, p, width, rows=()):
        self.p = p
        self.width = width
        self._rows = {}     # pivot -> row
        self._occ = {}      # non-pivot column -> pivots of rows nonzero there
        for r in rows:
            self.add(r)

    @classmethod
    def _from_rref(cls, p, width, rows) -> "Subspace":
        """Wrap a pivot -> row map already in RREF (rows not copied); its
        ``_occ`` is built when ``add`` or ``kernel`` first needs it."""
        out = cls(p, width)
        out._rows = rows
        out._occ = None
        return out

    def _index(self):
        occ = self._occ
        if occ is None:
            occ = {}
            for piv, row in self._rows.items():
                for c in row:
                    if c != piv:
                        occ.setdefault(c, set()).add(piv)
            self._occ = occ
        return occ

    @property
    def dim(self):
        return len(self._rows)

    def _reduce(self, vec):
        """vec minus its combination of rows: zero at every pivot."""
        p = self.p
        rows = self._rows
        out = {}
        hits = []
        for c, x in vec.items():
            x %= p
            if x:
                out[c] = x
                if c in rows:
                    hits.append(c)
        # a row is zero at the other pivots, so each hit is read once
        for q in hits:
            a = out[q]
            for c, y in rows[q].items():
                v = (out.get(c, 0) - a * y) % p
                if v:
                    out[c] = v
                else:
                    del out[c]
        return out

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the space."""
        vec = self._reduce(vec)
        if not vec:
            return False
        p = self.p
        piv = min(vec)
        inv = pow(vec[piv], p - 2, p)
        del vec[piv]
        tail = [(c, (x * inv) % p) for c, x in vec.items()]
        rows, occ = self._rows, self._index()
        new = {piv: 1}
        for c, y in tail:
            new[c] = y
            occ.setdefault(c, set()).add(piv)
        # back-substitute into the rows that are nonzero at piv
        for q in occ.pop(piv, ()):
            row = dict(rows[q])
            a = row.pop(piv)
            for c, y in tail:
                v = (row.get(c, 0) - a * y) % p
                if v:
                    if c not in row:
                        occ[c].add(q)
                    row[c] = v
                else:
                    del row[c]
                    occ[c].discard(q)
            rows[q] = row
        rows[piv] = new
        return True

    def kernel(self):
        """Basis of {x : r . x = 0 for every row r}, one vector per free
        column f: e_f minus f's entries of the rows, at their pivots."""
        p, rows, occ = self.p, self._rows, self._index()
        return [{f: 1, **{q: (-rows[q][f]) % p for q in occ.get(f, ())}}
                for f in range(self.width) if f not in rows]

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def contains_space(self, other) -> bool:
        return all(self.contains(r) for r in other._rows.values())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.width == other.width and self._rows == other._rows)


def nullspace(rows, width, p):
    """Basis of the right nullspace over F_p of rows, a pivot -> row map
    already in RREF: read off the rows, with no elimination."""
    return Subspace._from_rref(p, width, rows).kernel()


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class MatrixModel:
    def __init__(self, order: OrderDesc):
        tower = order.tower
        if order.N > MAX_N:
            raise TooLarge(f"N={order.N} exceeds the oracle bound {MAX_N}")
        self.order = order
        self.tower = tower
        self.N = order.N
        self.e_A = order.e_A
        self.p = tower.base.p
        self.deg_F = tower.base.f            # [k_F : F_p]
        e0, f0 = tower.level_e(0), tower.level_f(0)
        self.e0, self.f0 = e0, f0
        self.m0 = order.m[0]
        # the monomial uniformizer pi = c_pi s^m_pi of E_0, and t = zeta s^e
        (self.m_pi, self.c_pi), = tower.uniformizer(0).terms
        self.zeta = tower.zeta
        self.theta = tower.residue_generator(0)
        # F-basis of V: index (a, b, j) -> a + e0*(b + f0*j)
        self.basis = [(a, b, j) for j in range(self.m0)
                      for b in range(f0) for a in range(e0)]
        self.index = {v: i for i, v in enumerate(self.basis)}
        # k_F coordinates inside k_L, via the F_p-basis theta_F^i of k_F
        thetaF = tower.residue_generator(tower.d)
        self._kF_basis = [thetaF ** i for i in range(self.deg_F)]
        span = _coordinate_span(tower.k, self._kF_basis, self.p)
        self._kF_table = {v.coeffs: coords for v, coords in span.items()}
        self._kF_elems = {coords: v for v, coords in span.items()}   # inverse
        # residue coordinates of k_{E_0} over k_F: theta^b * theta_F^i
        span = _coordinate_span(
            tower.k, [(self.theta ** b) * basis for b in range(f0)
                      for basis in self._kF_basis], self.p)
        self._residue_table = {v.coeffs: coords for v, coords in span.items()}
        self._factors = {}         # (a - a2, b, w) -> elt_to_matrix's factor
        self._commutants = {}      # level -> (M, B_level ∩ A in A/P^M)
        self._systems = {}         # level -> its commutant's _Layers
        self._projections = {}     # (level, M) -> projection of the above
        self._quotients = {}
        self._layout = (0, [], [])  # (M, coords, vals) of the largest A/P^M
        self._matrix_cache = {}    # (terms, prec_k) -> its matrix

    # -- coefficient coordinate helpers -----------------------------------

    def kF_coords(self, c):
        """Coordinates of a k_F element in the theta_F basis."""
        coords = self._kF_table.get(c.coeffs)
        if coords is None:
            raise PrecisionExhausted("coefficient not in k_F")
        return coords

    def residue_coords(self, c):
        """(b, i) coordinates of a k_{E_0} element over theta^b theta_F^i."""
        coords = self._residue_table.get(c.coeffs)
        if coords is None:
            raise PrecisionExhausted("coefficient not in k_{E_0}")
        return coords

    def block_of(self, idx: int) -> int:
        return self.basis[idx][0]

    # -- element matrices ---------------------------------------------------

    def block_val(self, mat):
        """nu_A of a matrix: min over entries of e_A*w + a_row - a_col."""
        best = None
        for (r, c), ser in mat.items():
            delta = self.block_of(r) - self.block_of(c)
            for w in ser:
                v = self.e_A * w + delta
                best = v if best is None or v < best else best
        return best

    def elt_to_matrix(self, x: TameSeries) -> dict:
        """Matrix of multiplication by x in E_0 on V = E_0^{m0}, from terms:
        {(row, col): {w: k_F element}}, the nonzero t^w entries.  x may
        carry any level tag; a series outside E_0 raises NotInLevel.

        With pi = c_pi s^m and t = zeta s^e, column (a, b, j) is
        x pi^a theta^b e_j: a term c s^k of x gives t^w pi^a2 gamma, where
        k + a m = m (e0 w + a2), 0 <= a2 < e0, and gamma = c c_pi^(a - a2)
        theta^b zeta^-w in k_{E_0}, whose theta^b2 theta_F^i coordinates
        are the t^w entries of rows (a2, b2, j).  k -> (w, a2) is
        injective, so the terms of one column never collide.  The factor
        c_pi^(a - a2) theta^b zeta^-w depends on (a - a2, b, w) alone and is
        computed once per model; a k_F entry is looked up by its coordinates.
        """
        key = (x.terms, x.prec_k)       # the level tag changes no entry
        if key in self._matrix_cache:
            return self._matrix_cache[key]
        if not x.in_level(0):
            raise NotInLevel("element must lie in E_0")
        if x.prec_k is not None and x.prec_k < (_PREC + 1) * self.tower.e:
            raise PrecisionExhausted("element precision below the model window")
        m, deg_F = self.m_pi, self.deg_F
        if any(k % m for k, _ in x.terms):
            raise PrecisionExhausted("term outside E_0's value group")
        factors, elems = self._factors, self._kF_elems
        entries = {}
        for col, (a, b, j) in enumerate(self.basis):
            for k, c in x.terms:
                w, a2 = divmod(k // m + a, self.e0)
                factor = factors.get((a - a2, b, w))
                if factor is None:
                    factor = factors[a - a2, b, w] = (
                        self.c_pi ** (a - a2) * self.theta ** b
                        * self.zeta ** -w)
                coords = self.residue_coords(c * factor)
                for b2 in range(self.f0):
                    part = coords[b2 * deg_F:(b2 + 1) * deg_F]
                    if any(part):
                        row = self.index[(a2, b2, j)]
                        entries.setdefault((row, col), {})[w] = elems[part]
        self._matrix_cache[key] = entries
        return entries

    # -- quotient coordinates ----------------------------------------------

    def quotient_context(self, M: int):
        """A/P^M: a prefix of the largest layout laid out so far, which a
        larger M extends by the cells of valuation in [its M, M)."""
        quot = self._quotients.get(M)
        if quot is None:
            laid, coords, vals = self._layout
            if M > laid:
                cells = _cells(self, laid, M)
                coords = coords + [(r, c, w, i) for _, r, c, w in cells
                                   for i in range(self.deg_F)]
                vals = vals + [v for v, *_ in cells for _ in range(self.deg_F)]
                self._layout = (M, coords, vals)
            n = bisect_left(vals, M)
            quot = self._quotients[M] = _Quotient(self, M, coords[:n],
                                                  vals[:n])
        return quot

    # -- ad equations --------------------------------------------------------

    def _ad_terms(self, g):
        """Terms of g by column and by row: col -> [(row, val, coords)] and
        row -> [(col, val, coords)], val the term's block valuation and
        coords[i] the k_F coordinates of the entry times theta_F^i."""
        by_col, by_row = {}, {}
        for (a, b), ser in g.items():
            delta = self.block_of(a) - self.block_of(b)
            for w, coeff in ser.items():
                vecs = [self.kF_coords(coeff * basis)
                        for basis in self._kF_basis]
                val = self.e_A * w + delta
                by_col.setdefault(b, []).append((a, val, vecs))
                by_row.setdefault(a, []).append((b, val, vecs))
        return by_col, by_row

    # -- lattice subspaces ---------------------------------------------------

    def commutant_in_quotient(self, level: int, quot) -> Subspace:
        """Image of B_level ∩ A in A/P^M: the common commutant of the
        level's generators, stabilised by ``_centraliser_image``.

        Each level keeps one growing system of its equations, extended
        only when an M larger than any solved so far is asked for, and the
        image at that largest M; a smaller M is the truncation of that
        image.  A caller that extends a level's system takes it out of the
        model while it works and puts it back when done, so a concurrent
        caller starts a system of its own instead of sharing one.
        """
        held = self._commutants.get(level)
        if held is not None and held[0] >= quot.M:
            M_held, space = held
            if M_held == quot.M:
                return space
            key = (level, quot.M)
            if key not in self._projections:
                self._projections[key] = quot.truncate(space)
            return self._projections[key]
        layers = self._systems.pop(level, None)
        if layers is None:
            tower = self.tower
            gens = [tower.monomial(tower.residue_generator(level), 0),
                    tower.uniformizer(level)]
            mats = [self.elt_to_matrix(g) for g in gens]
            # integral generators: shift 0; an F-scalar adds no equation
            mats = [g for g in mats if not _lies_in_F(self, g)]
            if not mats:
                self._commutants[level] = (quot.M, quot.radical_power(0))
                return self._commutants[level][1]
            layers = _Layers(self, mats, 0)
        space = _centraliser_image(layers, quot)
        self._systems[level] = layers
        self._commutants[level] = (quot.M, space)
        return space


class _Quotient:
    """A/P^M, laid out as the cells (row, col, w) of block valuation in
    [0, M), deg_F coordinates apart, numbered in order of (valuation, row,
    col, w): its coordinates (row, col, w, i) and the block valuation of
    each coordinate, non-decreasing (so P^k starts at bisect_left(vals,
    k))."""

    __slots__ = ("model", "M", "coords", "vals")

    def __init__(self, model, M, coords, vals):
        self.model, self.M, self.coords, self.vals = model, M, coords, vals

    def radical_power(self, k: int) -> Subspace:
        return Subspace._from_rref(
            self.model.p, len(self.coords),
            {pos: {pos: 1} for pos, v in enumerate(self.vals) if v >= k})

    def radical_cut(self, space: Subspace, k: int) -> Subspace:
        """space ∩ P^k: the rows of space with a pivot in P^k."""
        start = bisect_left(self.vals, k)
        return Subspace._from_rref(
            self.model.p, space.width,
            {piv: row for piv, row in space._rows.items() if piv >= start})

    def truncate(self, space: Subspace) -> Subspace:
        """An RREF space of a finer quotient cut to this one: still RREF."""
        n = len(self.coords)
        return Subspace._from_rref(
            self.model.p, n, {piv: {q: x for q, x in row.items() if q < n}
                              for piv, row in space._rows.items() if piv < n})

    def project(self, rows) -> Subspace:
        """Span of rows of a finer quotient, cut to this one's positions."""
        n = len(self.coords)
        cut = ({q: x for q, x in row.items() if q < n} for row in rows)
        return Subspace(self.model.p, n, [row for row in cut if row])

    def order_level(self, level: int, k: int = 0) -> Subspace:
        """Image of P^k ∩ B_level = Q_level^k in this quotient."""
        comm = self.model.commutant_in_quotient(level, self)
        if k <= 0:
            return comm
        return self.radical_cut(comm, k)


def _cells(model, lo, hi):
    """The cells (valuation, row, col, w) of valuation in [lo, hi), sorted."""
    e_A = model.e_A
    cells = []
    for r in range(model.N):
        for c in range(model.N):
            delta = model.block_of(r) - model.block_of(c)
            w = -((delta - lo) // e_A)     # the least w of valuation >= lo
            while e_A * w + delta < hi:
                cells.append((e_A * w + delta, r, c, w))
                w += 1
    cells.sort()
    return cells


class _Layers:
    """The equations ad_g(x) = 0 (g in mats) for x in A/P^extent, as one
    growing echelon form ``eqs`` over the positions of x; ``terms`` holds
    each g's ``_ad_terms``, read off once, and ``tables`` each cell's
    outputs (``_cell_table``), built when the cell's first unknown enters
    and read by every later one, at any extent.

    Every g has block valuation >= shift, so an unknown of valuation v
    reaches only outputs of valuation v + shift or more, and the equations
    on outputs below extent + shift are complete.  Growing the extent adds
    unknowns as a prefix of A/P^extent and then those equations, each once,
    in increasing output valuation; the rest wait in ``pending``.  The rows
    already added never change, so the system at each extent is a prefix of
    the system at every larger one.
    """

    __slots__ = ("model", "terms", "tables", "shift", "extent", "eqs",
                 "pending")

    def __init__(self, model, mats, shift):
        if any(v is not None and v < shift
               for v in (model.block_val(g) for g in mats)):
            raise NotNested("generator below the valuation shift")
        self.model = model
        self.terms = [model._ad_terms(g) for g in mats]
        self.tables = {}        # cell (row, col, i) -> its _cell_table
        self.shift = shift
        self.extent = 0
        self.eqs = Subspace(model.p, 0)
        self.pending = {}       # output valuation -> {output: row}

    def extend(self, quot, extent):
        """Grow the unknowns to A/P^extent, a prefix of quot."""
        if extent <= self.extent:
            return
        stop = bisect_left(quot.vals, extent)
        _ad_equations(self.model, self.terms, self.tables, quot,
                      self.eqs.width, stop, self.pending)
        for val in range(self.extent + self.shift, extent + self.shift):
            for row in self.pending.pop(val, {}).values():
                self.eqs.add(row)
        self.eqs.width = stop
        self.extent = extent


def _image_dim(layers, width):
    """Dimension of the solutions' image in the first width positions: the
    free columns there, plus the rank of the other free columns' entries in
    the rows pivoted there (an RREF row is zero at the other pivots)."""
    eqs = layers.eqs
    tails = [{c: x for c, x in row.items() if c >= width}
             for piv, row in eqs._rows.items() if piv < width]
    return (width - len(tails)
            + Subspace(eqs.p, eqs.width, [t for t in tails if t]).dim)


def _stable_dim(layers, M, width):
    """The image dimension in the first width positions once it is stable:
    layers is extended from extent max(M, its own) in steps of e_A until
    two successive extents give the same dimension.  Images shrink as the
    extent grows, so equal dimensions mean equal images."""
    e_A = layers.model.e_A
    start = max(M, layers.extent)
    prev = None
    for extent in range(start, start + 4 * e_A + 1, e_A):
        layers.extend(layers.model.quotient_context(extent), extent)
        dim = _image_dim(layers, width)
        if dim == prev:
            return dim
        prev = dim
    raise PrecisionExhausted("centraliser image did not stabilise")


def _centraliser_image(layers, target) -> Subspace:
    """Image in target = A/P^M of the common commutant of layers'
    generators, once its dimension is stable (``_stable_dim``), read off
    the rows pivoted below the target's width: the other rows involve only
    positions past it."""
    width = len(target.coords)
    _stable_dim(layers, target.M, width)
    eqs = layers.eqs
    rows = {piv: row for piv, row in eqs._rows.items() if piv < width}
    return target.project(nullspace(rows, eqs.width, eqs.p))


def _ad_equations(model, terms, tables, quot, start, stop, pending):
    """Add the unknowns quot.coords[start:stop] to the equations of
    ad_g(x) = 0 for the generators g whose ``_ad_terms`` are terms.  pending
    maps an output block valuation to its equations {output: row}, an
    output (g's index, row, col, F_p coordinate) and a row a sparse
    {unknown: coefficient}, each coefficient nonzero mod p.

    An unknown theta_F^i t^w e_rc writes its cell (r, c, i)'s outputs, read
    from tables (the cell's ``_cell_table``, built here if absent), at
    valuations shifted by its own; each output gets one entry, so no entry
    or row is zero.
    """
    coords, vals = quot.coords, quot.vals
    for j in range(start, stop):
        r, c, _, i = coords[j]
        table = tables.get((r, c, i))
        if table is None:
            table = tables[r, c, i] = _cell_table(model, terms, r, c, i)
        v = vals[j]
        for val, outputs in table:
            layer = pending.setdefault(v + val, {})
            for out, x in outputs:
                row = layer.get(out)
                if row is None:
                    layer[out] = {j: x}
                else:
                    row[j] = x


def _cell_table(model, terms, r, c, i):
    """The outputs of ad_g(theta_F^i e_rc) for the generators g whose
    ``_ad_terms`` are terms, as [(valuation offset, [(output, x)])]: an
    output's block valuation is the unknown's plus the offset, which fixes
    its w, and x is its coefficient, nonzero mod p.

    For an elementary x = theta_F^i t^w e_rc, gx has column c equal to
    column r of g times theta_F^i t^w and xg has row r equal to row c of g
    times theta_F^i t^w, so no matrix product is formed.  The gx and xg
    parts of one output are summed and reduced mod p, and zeros dropped.
    """
    N, deg_F, p = model.N, model.deg_F, model.p
    merged = {}         # offset -> {output: coefficient}
    for n, (by_col, by_row) in enumerate(terms):
        for a, val, vecs in by_col.get(r, ()):
            base = ((n * N + a) * N + c) * deg_F
            acc = merged.setdefault(val, {})
            for t, x in enumerate(vecs[i]):
                if x:
                    acc[base + t] = acc.get(base + t, 0) + x
        for b, val, vecs in by_row.get(c, ()):
            base = ((n * N + r) * N + b) * deg_F
            acc = merged.setdefault(val, {})
            for t, x in enumerate(vecs[i]):
                if x:
                    acc[base + t] = acc.get(base + t, 0) - x
    table = []
    for val, acc in merged.items():
        outputs = [(out, x % p) for out, x in acc.items() if x % p]
        if outputs:
            table.append((val, outputs))
    return table


def _coordinate_span(k, basis, p):
    """Element -> F_p coordinates over basis, for every element of the span
    of basis (elements of k, linearly independent over F_p).

    The span is enumerated, so a lookup replaces a linear solve; an element
    outside the span has no entry.
    """
    span = {k.zero(): ()}
    for b in basis:
        multiples = [b * x for x in range(p)]
        span = {v + m: coords + (x,) for v, coords in span.items()
                for x, m in enumerate(multiples)}
    if len(span) != p ** len(basis):
        raise VerificationFailed("coordinate basis is linearly dependent")
    return span


# ---------------------------------------------------------------------------
# public oracle operations
# ---------------------------------------------------------------------------

def model_build(order: OrderDesc) -> MatrixModel:
    return MatrixModel(order)


def oracle_nu(model: MatrixModel, x: TameSeries) -> int:
    v = model.block_val(model.elt_to_matrix(x))
    if v is None:
        raise ZeroToPrecision("zero matrix has no valuation")
    return v


def oracle_k0(model: MatrixModel, beta: TameSeries):
    """Critical exponent by direct linear algebra; None is -infinity.

    The scan and the commutant share one system in x mod P^J: at extent
    k + n it holds the equations of ad_beta(x) in P^k (the unknowns past
    it are free), which is the scan's step k, and from extent J on it is
    beta's commutant.  The image in A/P shrinks along the scan and contains
    the commutant's, so the first k whose image has the commutant's
    dimension ends the scan, and k0 is one less.
    """
    bmat = model.elt_to_matrix(beta)
    if _lies_in_F(model, bmat):
        return None
    n = -model.block_val(bmat)
    J = 2 * n + 2 * model.e_A + 1
    big = model.quotient_context(J)
    width = len(model.quotient_context(1).coords)
    layers = _Layers(model, [bmat], -n)
    dims = []
    for extent in range(J):
        layers.extend(big, extent)
        dims.append(_image_dim(layers, width))
    comm = _stable_dim(layers, J, width)
    if comm not in dims:
        raise PrecisionExhausted("k0 scan did not terminate")
    k = dims.index(comm) - n
    return k - 1 if k > -n else None


def _lies_in_F(model, bmat):
    # beta acts as an F-scalar iff its matrix is scalar with F-entries;
    # multiplication by an E_0 element is scalar iff the element is in F.
    N = model.N
    diag = bmat.get((0, 0), {})
    for r in range(N):
        for c in range(N):
            ser = bmat.get((r, c), {})
            if r == c:
                if ser != diag:
                    return False
            elif ser:
                return False
    return True


def oracle_hj(model: MatrixModel, seq: DefiningSeq):
    """The h and j lattices of a defining sequence, by the recursion, as
    Subspaces of A/P^(n//2 + 1).  Each step b_i + (h ∩ P^k) adds to the cut
    only b_i's rows pivoted below P^k: b_i ⊂ b_(i+1) ⊂ h, the step before
    (A at i = s), so b_i ∩ P^k lies in the cut already."""
    quot = model.quotient_context(seq.n // 2 + 1)
    h = j = quot.radical_power(0)
    for entry, r in zip(seq.entries[::-1], seq.depths[::-1]):
        b = quot.order_level(entry.level, 0)
        h = _cut_plus(quot, h, r // 2 + 1, b)
        j = _cut_plus(quot, j, (r + 1) // 2, b)
    return h, j


def _cut_plus(quot, space, k, b):
    """(space ∩ P^k) + b, for b ∩ P^k ⊂ space."""
    out = quot.radical_cut(space, k)
    start = bisect_left(quot.vals, k)
    for piv, row in b._rows.items():
        if piv < start:
            out.add(row)
    return out


def oracle_j1h1_index(model: MatrixModel, seq: DefiningSeq) -> int:
    """log_p [J^1 : H^1], with J^1 = j ∩ P and H^1 = h ∩ P."""
    h, j = oracle_hj(model, seq)
    quot = model.quotient_context(seq.n // 2 + 1)
    return oracle_index(model, quot.radical_cut(j, 1), quot.radical_cut(h, 1))


def oracle_index(model: MatrixModel, big: Subspace, small: Subspace) -> int:
    """log_p of a lattice index, by dimension counting in one quotient A/P^M.

    Both lattices must have the same intersection with P^M (true for all
    the pairs this oracle is asked about: same tail by construction).  The
    quotients are prefixes of one another, so equal widths mean one M.
    """
    if big.width != small.width:
        raise NotNested("lattices in different quotients")
    if not big.contains_space(small):
        raise NotNested("claimed sublattice is not contained")
    return big.dim - small.dim


def oracle_step_index(model: MatrixModel, level: int, a: int, b: int) -> int:
    """log_p [Q_level^a : Q_level^b] (a <= b), counted in A/P^(b + e_A);
    a lattice has index 1 in itself, so a == b solves nothing."""
    if a == b:
        return 0
    quot = model.quotient_context(b + model.e_A)
    return oracle_index(model, quot.order_level(level, a),
                        quot.order_level(level, b))


def oracle_table_lattice(model: MatrixModel, factors, M: int) -> Subspace:
    """Lattice of a prefix-type factor table in A/P^M: the sum of the
    Q_level^exponent from the largest level down (see the module
    docstring), the first nonzero factor taken whole."""
    quot = model.quotient_context(M)
    out = Subspace(model.p, len(quot.coords))
    taken = out.width
    for level, exponent in sorted(factors, reverse=True):
        comm = quot.order_level(level)
        start = bisect_left(quot.vals, exponent)
        if not out.dim:
            out = quot.radical_cut(comm, exponent)      # a new space
        else:
            for piv, row in comm._rows.items():
                if start <= piv < taken:
                    out.add(row)
        taken = min(taken, start)
    return out


def oracle_tables_equal(model: MatrixModel, pairs_a, pairs_b) -> bool:
    """Whether two prefix-type tables, as (level, exponent) pairs, present
    one lattice.  A table's lattice is a function of its set of factors, so
    equal sets are equal with no solve; differing sets are compared in A/P^M
    with M = (largest exponent) + e_A, where P^M lies in both."""
    if set(pairs_a) == set(pairs_b):
        return True
    M = max([m for _, m in pairs_a + pairs_b] + [1]) + model.e_A
    return (oracle_table_lattice(model, pairs_a, M)
            == oracle_table_lattice(model, pairs_b, M))


def oracle_char_module_min_ord(model: MatrixModel, c: TameSeries,
                               level: int, exponent: int):
    """Min ord over F of Tr(c * Q_level^exponent), by spanning probes.

    Tr(c X) = sum_ab c_ab X_ba is summed from the entries of c and of each
    probe X directly, in k_F coordinates: each entry of c times each
    theta_F^i is looked up once, and no matrix product is formed.
    """
    cmat = model.elt_to_matrix(c)
    nu_c = model.block_val(cmat)
    M = exponent + abs(nu_c) + 3 * model.e_A
    quot = model.quotient_context(M)
    # X's cell (r, col) -> [(w2, coordinates of c_{col,r} theta_F^i by i)]
    terms = {(r, col): [(w2, [model.kF_coords(c2 * basis)
                              for basis in model._kF_basis])
                        for w2, c2 in ser.items()]
             for (col, r), ser in cmat.items()}
    best = None
    for row in quot.order_level(level, exponent)._rows.values():
        acc = {}
        for pos, x in row.items():
            r, col, w, i = quot.coords[pos]
            for w2, vecs in terms.get((r, col), ()):
                vec = acc.setdefault(w + w2, [0] * model.deg_F)
                for t, y in enumerate(vecs[i]):
                    vec[t] += x * y
        tr = min((w for w, vec in acc.items()
                  if any(y % model.p for y in vec)), default=None)
        if tr is not None and (best is None or tr < best):
            best = tr
    tail_bound = -(-(M + nu_c) // model.e_A)
    if best is None or best >= tail_bound:
        raise PrecisionExhausted("trace module window too small")
    return best
