"""Exact integer matrix algebra: Smith normal form, kernels, unimodular inverses.

Matrices are plain lists of lists of Python ints (row-major).  ``mul`` is
the package's one integer product, over the nonzeros of both factors, and
``diagonal`` its one reader of a Smith diagonal.  The Smith normal form is
the only elimination: kernels, exact solutions, ranks and unimodular
inverses are read off U a V = D.  ``smith_normal_form(a)`` returns
(U, D, V); the private ``_eliminate(a, build)`` behind it builds only the
transforms named in ``build``, from U, V, U^(-1) and V^(-1) (the inverse
of each row or column operation, applied on the other side).  Pivots are
chosen from the working matrix alone, so skipping a transform cannot move
D or any transform that is built.

All routines are deterministic; the Smith pivot rule is fixed (smallest
absolute nonzero value, ties broken row-major) so outputs are reproducible.
The pivot search stops at the first +-1, the pivot a full scan picks: nothing
nonzero is smaller, and every later entry loses the tie.  A pivot of 1
divides every entry, so its divisor-chain sweep is skipped.

The elimination works in proportion to the nonzeros of sparse input, with
the same integers out.  The pivot row is not written while its column is
cleared, so it is subtracted from each row below on its support alone, and
the row sweep visits only that support.  The inverse transforms add a
non-pivot row into the pivot row, and a non-pivot row is mostly still the
unit vector e_k it started as: one int per row records k (or -1 once the
row is negated, written as a pivot or hit by the divisor-chain fix-up), and
such an update is one entry, += q at k.

The scans over zeros run at C level.  The pivot search passes over a row
whose remainder is all zero with one ``any`` and walks the nonzeros of the
others through ``itertools.compress``; the column sweep visits only the
rows with a nonzero in the pivot column, and the supports of the pivot
row, of the row of V^T it subtracts and of ``mul``'s rows are read the
same way.  ``shape`` compares the row lengths as a set.

The elimination builds V and U^(-1) transposed, since their column
operations are then row operations.  ``_eliminate`` returns
(U, D, V^T, (U^(-1))^T, V^(-1)) as built, and its callers read them so:
``smith_normal_form`` builds U and V and transposes V^T back,
``elementary_divisors`` builds nothing and reads D, ``kernel_basis``
returns the trailing rows of V^T, and ``simplicial.cocharacter_group``
forms its basis from the trailing rows of V^T and (U^(-1))^T with no
transposed copy.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Sequence

from .errors import InvalidActionError, ShapeError

IntMat = list[list[int]]


def shape(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    r = len(a)
    if r and len(set(map(len, a))) > 1:
        raise ShapeError("ragged integer matrix")
    return r, len(a[0]) if r else 0


def identity(r: int) -> IntMat:
    out = zeros(r, r)
    for i, row in enumerate(out):
        row[i] = 1
    return out


def zeros(r: int, c: int) -> IntMat:
    return [[0] * c for _ in range(r)]


def copy(a) -> IntMat:
    return [list(row) for row in a]


def transpose(a) -> IntMat:
    r, c = shape(a)
    if r and not c:  # the 0 x r transpose would read as [] (0 x 0)
        raise ShapeError(f"the transpose of a {r}x0 matrix would lose its {r} columns")
    return [list(col) for col in zip(*a)]


def mul(a, b) -> IntMat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = range(cb)
    supports = [[(j, row[j]) for j in compress(cols, row)] for row in b]
    out = zeros(ra, cb)
    for row, orow in zip(a, out):
        for v, support in compress(zip(row, supports), row):
            for j, x in support:
                orow[j] += v * x
    return out


def diagonal(d) -> list[int]:
    """The nonzero diagonal entries of any r x c matrix D (or []), in order."""
    n = min(len(d), len(d[0])) if d else 0
    return [d[i][i] for i in range(n) if d[i][i]]


def inverse_unimodular(a) -> IntMat:
    """Integer inverse of a unimodular matrix, read off its Smith normal form:
    U a V = I gives a^(-1) = V U."""
    r, c = shape(a)
    if r != c:
        raise ShapeError("inverse of a non-square matrix")
    u, d, v = smith_normal_form(a)
    if diagonal(d) != [1] * r:
        raise InvalidActionError("matrix is not unimodular")
    return mul(v, u)


# ---------------------------------------------------------------------------
# Smith normal form


def _pivot(m: IntMat, t: int, rows: int, cols: int):
    best, least = None, 0
    span = range(t, cols)
    for i in range(t, rows):
        tail = m[i][t:]
        if any(tail):
            for j, v in compress(zip(span, tail), tail):
                if v < 0:
                    v = -v
                if not least or v < least:
                    best, least = (i, j), v
                    if v == 1:
                        return best
    return best


def smith_normal_form(a) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U a V = D, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.

    Pivot selection is the smallest nonzero absolute value, ties broken
    row-major, so the decomposition is reproducible.

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    >>> mul(mul(u, [[2, 4], [6, 8]]), v) == d
    True
    """
    u, d, vt, _, _ = _eliminate(a, ("u", "v"))
    return u, d, [list(col) for col in zip(*vt)]


def _eliminate(a, build) -> tuple[IntMat | None, ...]:
    """The elimination of smith_normal_form, with its transforms as built:
    (U, D, V^T, (U^(-1))^T, V^(-1)), each slot None unless ``build``, a
    collection, names it ("u", "v", "u_inv", "v_inv")."""
    rows, cols = shape(a)
    m = copy(a)
    # vt and ut hold the transposes of V and U^(-1): their column ops are row ops
    u = identity(rows) if "u" in build else None
    vt = identity(cols) if "v" in build else None
    ut = identity(rows) if "u_inv" in build else None
    vi = identity(cols) if "v_inv" in build else None
    # ue[k] (ve[k]) is j while row k of ut (vi) is still the unit vector e_j, else -1
    ue = None if ut is None else list(range(rows))
    ve = None if vi is None else list(range(cols))
    row_ops = [x for x in (m, u, ut) if x is not None]  # swapped and negated with the rows of m
    col_ops = [x for x in (vt, vi, ve) if x is not None]  # swapped with the columns of m
    t = 0
    while t < min(rows, cols):
        piv = _pivot(m, t, rows, cols)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                for x in row_ops:
                    x[t], x[pi] = x[pi], x[t]
                if ue is not None:
                    ue[t], ue[pi] = ue[pi], ue[t]
            if pj != t:
                for row in m[t:]:  # rows above t are zero from column t on
                    row[t], row[pj] = row[pj], row[t]
                for x in col_ops:
                    x[t], x[pj] = x[pj], x[t]
            mt = m[t]
            if mt[t] < 0:
                for x in row_ops:
                    x[t] = [-y for y in x[t]]
                mt = m[t]
                if ue is not None:
                    ue[t] = -1
            # reduce column t, visiting only the rows with a nonzero there; row t
            # is not written here, so it is subtracted on its support alone
            support = list(compress(range(t, cols), mt[t:]))
            dirty = False
            for i in compress(range(t + 1, rows), map(itemgetter(t), m[t + 1 :])):
                mi = m[i]
                q = mi[t] // mt[t]
                if q:
                    for j in support:
                        mi[j] -= q * mt[j]
                    if u is not None:
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if ut is not None:
                        if ue[i] >= 0:  # ut[i] = e_k
                            ut[t][ue[i]] += q
                        else:
                            ut[t] = [x + q * y for x, y in zip(ut[t], ut[i])]
                        ue[t] = -1
                if mi[t]:
                    dirty = True
            if dirty:
                piv = _pivot(m, t, rows, cols)
                continue
            # reduce row t; column t of m is zero off the diagonal by now
            dirty = False
            for j in support[1:]:  # support[0] is the pivot's column t
                q = mt[j] // mt[t]
                if q:
                    mt[j] -= q * mt[t]
                    if vt is not None:  # on the support of row t of V^T
                        vj, vtt = vt[j], vt[t]
                        for k in compress(range(cols), vtt):
                            vj[k] -= q * vtt[k]
                    if vi is not None:
                        if ve[j] >= 0:  # vi[j] = e_k
                            vi[t][ve[j]] += q
                        else:
                            vi[t] = [x + q * y for x, y in zip(vi[t], vi[j])]
                        ve[t] = -1
                if mt[j]:
                    dirty = True
            if dirty:
                piv = _pivot(m, t, rows, cols)
                continue
            # pivot must divide the remaining submatrix for the divisor chain
            rest = range(t + 1, rows) if mt[t] != 1 else ()  # 1 divides everything
            bad = next((i for i in rest if any(x % mt[t] for x in m[i][t + 1 :])), None)
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(mt, m[bad])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
            if ut is not None:
                ut[bad] = [x - y for x, y in zip(ut[bad], ut[t])]
                ue[bad] = -1
            piv = _pivot(m, t, rows, cols)
        t += 1
    return u, m, vt, ut, vi


def elementary_divisors(a) -> list[int]:
    return diagonal(_eliminate(a, ())[1])


def kernel_basis(a) -> list[list[int]]:
    """Basis (as columns) of the integer kernel; the basis spans a saturated
    sublattice since V is unimodular.  The columns of V past the rank are
    the trailing rows of V^T, as the elimination builds it."""
    _, d, vt, _, _ = _eliminate(a, ("v",))
    return vt[len(diagonal(d)) :]


def solve_exact(a, b) -> IntMat | None:
    """An integer solution X of a X = b (columns of b solved jointly), or None."""
    rows, cols = shape(a)
    rb, cb = shape(b)
    if rb != rows:
        raise ShapeError("right-hand side has the wrong height")
    u, d, v = smith_normal_form(a)
    c = mul(u, b)
    y = zeros(cols, cb)
    for i in range(max(rows, cols)):
        di = d[i][i] if i < min(rows, cols) else 0
        for j in range(cb):
            rhs = c[i][j] if i < rows else 0
            if di:
                q, r = divmod(rhs, di)
                if r:
                    return None
                if i < cols:
                    y[i][j] = q
            elif i < rows and rhs:
                return None
    return mul(v, y)
