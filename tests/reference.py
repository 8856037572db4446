"""Plain references the oracle's tests compare against: the matrix product
and difference, a quotient vector as a matrix, and the Zassenhaus
intersection of two row spaces.  The oracle itself forms no matrix product
and intersects only by a radical cut, so these live with the tests.

A matrix is the oracle's {(row, col): {w: k_F element}} map of nonzero
t^w entries."""

from tamestrata.oracle import Subspace


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
