"""Exact integer matrix algebra: Smith normal form, kernels, unimodular inverses.

The public functions take and return lists of int rows.  Inside, a matrix
is a list of sparse rows, one dict {column: value} of the nonzeros per row,
its width carried beside it: ``_rows`` reads a dense matrix in, ``_dense``
and ``_columns`` write sparse rows out as the rows or the columns of a
dense one, and each dense caller converts once.  ``simplicial`` builds its
differentials and relations as sparse rows (the degree classes through
``_rows``) and writes out dense only the matrices it returns.  A public
function reads each matrix it takes through ``_read``, which checks it: a
matrix or a row that is not a sequence is bad-matrix, an entry that is not
an exact int (a bool, a float) bad-type, and a ragged matrix a ShapeError.
``mul`` is the one integer product, over the nonzeros of both factors.

The Smith normal form is the only elimination: kernels, exact solutions,
ranks and unimodular inverses are read off U a V = D.  The private
``_eliminate(rows, cols, *, u, v, carry)`` behind ``smith_normal_form``
returns the Smith diagonal as a list (only ``smith_normal_form`` builds the
dense D) and builds only the transforms whose keyword flag is set, U and
V, and V^(-1) carry when given rows to carry: the inverse of each column
operation is applied, as a row operation, to a copy of those rows, as
homology codes apply each column operation on one boundary matrix to the
next (Kaczynski, Mischaikow and Mrozek, Computational Homology, ch. 3).
The identity rows give V^(-1).  Pivots are chosen from the working matrix
alone, so skipping a transform cannot move D or any transform that is
built.  The pivot rule is fixed: the smallest absolute nonzero value, ties
broken row-major by current position.  The search stops at the first row
holding a +-1, the pivot a full scan picks, and a pivot of 1 divides every
entry, so its divisor-chain sweep is skipped.

The elimination is the sparse one of Dumas, Saunders and Villard (J.
Symbolic Comput. 32 (2001)); a pivot step touches only the nonzeros it
changes.  Rows move: a row swap exchanges two working rows, and the same
two rows of U, in place, so both are kept by position.  Columns are
tracked: two permutations map a column position to the original column
and back, a column swap exchanges two entries of each, and V^T and the
carried rows, indexed by original column, are put in position order once,
at the end.  The rows before the pivot's position are finished pivot rows,
each holding its pivot alone, so the column sweep walks the rows past the
pivot, skips each with no entry in the pivot column, and subtracts the
pivot row from the others on its own support; the row sweep writes only
the pivot row, whose column is zero off the pivot by then.  Each row's
update reads only the pivot row (column), and the pivot row of the carried
rows sums the updates, so the order in which a sweep visits the rows
(entries) does not change the integers.

The elimination builds V transposed, since its column operations are then
row operations, and returns (U, diagonal, V^T, V^(-1) carry) as built, as
sparse rows in position order.  ``smith_normal_form`` writes U out dense
and the rows of V^T as the columns of V, ``elementary_divisors`` builds
nothing and reads the diagonal, ``kernel_basis`` returns the trailing rows
of V^T, and ``simplicial.cocharacter_group`` carries d^1 through the
elimination of d^2 for V^(-1) d^1, and forms its basis from the trailing
rows of V^T.

``_forest(rows, cols)``, beside ``_eliminate``, replays the lift form (the
diagonal and the trailing columns of U^(-1)) on rows that are each zero or
a graph edge +-(e_u - e_v), the rows ``cocharacter_group`` meets past the
rank of d^2: a graph incidence matrix is totally unimodular (Schrijver,
Theory of Linear and Integer Programming, ch. 19), every pivot is 1, and
the elimination contracts edges, so a union-find spanning-forest search
gives the rank, the rows left past it and their order, each a unit column
of U^(-1).  It returns None on any other row; ``cocharacter_group`` then
eliminates for U and inverts it with ``inverse_unimodular``.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .errors import InvalidActionError, MalformedInputError, ShapeError

IntMat = list[list[int]]
Rows = list[dict[int, int]]


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


def _rows(a) -> Rows:
    """The sparse rows of a dense matrix: {column: value} of each row's nonzeros."""
    return [dict(compress(enumerate(row), row)) for row in a]


def _dense(rows: Rows, width: int) -> IntMat:
    """The dense matrix of sparse rows of the given width."""
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _columns(rows: Rows, height: int) -> IntMat:
    """The dense height x len(rows) matrix whose column j is sparse row j."""
    out = zeros(height, len(rows))
    for j, row in enumerate(rows):
        for i, x in row.items():
            out[i][j] = x
    return out


def _read(a) -> tuple[Rows, int, int]:
    """A matrix a public function takes, read in: its sparse rows and its
    shape.  A matrix or a row that is not a sequence is bad-matrix, an
    entry that is not an exact int (a bool, a float) bad-type, and a ragged
    matrix a ShapeError."""
    seq = MalformedInputError.sequence
    m = [seq(row, "bad-matrix", "matrix row") for row in seq(a, "bad-matrix", "matrix")]
    # witt._ints' rule, spelled here since witt imports this module
    bad = next(((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if type(x) is not int), None)
    if bad is not None:
        i, j, x = bad
        raise MalformedInputError(f"matrix entry ({i}, {j}) must be an integer, got {x!r}", code="bad-type")
    return (_rows(m), *shape(m))


def mul(a, b) -> IntMat:
    """a b, summed over the nonzeros of both factors."""
    a, ra, ca = _read(a)
    b, rb, cb = _read(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for i, v in row.items():
            for j, x in b[i].items():
                acc[j] = acc.get(j, 0) + v * x
        out.append(acc)
    return _dense(out, cb)


def diagonal(d) -> list[int]:
    """The nonzero diagonal entries of any r x c matrix D (or []), in order."""
    n = min(len(d), len(d[0])) if d else 0
    return [d[i][i] for i in range(n) if d[i][i]]


def inverse_unimodular(a) -> IntMat:
    """Integer inverse of a unimodular matrix, read off its Smith normal form:
    U a V = I gives a^(-1) = V U."""
    _, r, c = _read(a)
    if r != c:
        raise ShapeError("inverse of a non-square matrix")
    u, d, v = smith_normal_form(a)
    if diagonal(d) != [1] * r:
        raise InvalidActionError("matrix is not unimodular")
    return mul(v, u)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(a) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U a V = D, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.

    Pivot selection is the smallest nonzero absolute value, ties broken
    row-major, so the decomposition is reproducible.  The matrix is checked
    here, where it enters (_read).

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    >>> mul(mul(u, [[2, 4], [6, 8]]), v) == d
    True
    """
    m, rows, cols = _read(a)
    u, diag, vt = _eliminate(m, cols, u=True, v=True)[:3]
    d = zeros(rows, cols)
    for i, x in enumerate(diag):
        d[i][i] = x
    return _dense(u, rows), d, _columns(vt, cols)


def _axpy(dst: dict[int, int], q: int, src: dict[int, int]) -> None:
    """dst += q src on the support of src, for q != 0; an entry that cancels
    is dropped."""
    get = dst.get
    for k, x in src.items():
        y = get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _eliminate(rows: Rows, cols: int, *, u: bool = False, v: bool = False, carry: Rows | None = None) -> tuple:
    """The elimination of smith_normal_form on sparse rows (each a dict of
    nonzeros; not written) of the given width: (U, diagonal, V^T,
    V^(-1) carry), as sparse rows, each transform None unless its flag is
    set and the last None unless carry, cols sparse rows (not written
    either), is given.  carry=[{j: 1} for j in range(cols)] gives V^(-1).

    V^(-1) is the product of the inverses of the column operations, each
    applied as a row operation on the other side; the same operations
    applied to a copy of the carried rows give V^(-1) carry, in the same
    exact integers, with no product formed.

    Rows move: the working rows and the rows of U are swapped in place, by
    position.  Columns are tracked by two permutations, and V^T and the
    carried rows, kept by original column, are put in position order at
    the end.  The rows before position t are finished pivot rows, each
    {pc: p}, zero in any later pivot column, so the column sweep walks the
    rows past the pivot."""
    n = len(rows)
    m = [dict(row) for row in rows]  # the working rows, by position
    colat, colpos = list(range(cols)), list(range(cols))  # position -> original column, and back
    # U by position, the others by original column; vt holds the transpose of V: its column ops are row ops
    u = [{i: 1} for i in range(n)] if u else None
    vt = [{j: 1} for j in range(cols)] if v else None
    w = None if carry is None else [dict(row) for row in carry]
    diag: list[int] = []
    t = 0
    while t < min(n, cols):
        # the pivot: the least |v| in the rows at positions t.., ties row-major by position
        least = 0
        for i in range(t, n):
            row = m[i]
            if row:
                x = min(map(abs, row.values()))
                if not least or x < least:
                    least, pi = x, i
                    if x == 1:
                        break
        if not least:
            break
        row = m[pi]
        pc = -1  # the first column by position holding +-least
        for j, x in row.items():
            if (x == least or x == -least) and (pc < 0 or colpos[j] < colpos[pc]):
                pc = j
        if pi != t:
            m[t], m[pi] = row, m[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        pj = colpos[pc]
        if pj != t:
            c = colat[t]
            colat[t], colat[pj], colpos[pc], colpos[c] = pc, c, t, pj
        p = row[pc]
        if p < 0:
            p = -p
            row = m[t] = {j: -x for j, x in row.items()}
            if u is not None:
                u[t] = {k: -x for k, x in u[t].items()}
        # reduce column pc in the rows past the pivot (those before it are 0
        # there); the pivot row is not written here, so it is subtracted on
        # its support
        dirty = False
        for i in range(t + 1, n):
            mi = m[i]
            y = mi.get(pc)
            if y is None:
                continue
            q = y // p
            if q:
                _axpy(mi, -q, row)
                if u is not None:
                    _axpy(u[i], -q, u[t])
            if pc in mi:
                dirty = True
        if dirty:
            continue
        # reduce the pivot row; column pc is zero off the pivot by now
        for j, x in list(row.items()):
            if j == pc:
                continue
            q = x // p
            if q:
                x -= q * p
                if x:
                    row[j] = x
                else:
                    del row[j]
                if vt is not None:
                    _axpy(vt[j], -q, vt[pc])
                if w is not None:
                    _axpy(w[pc], q, w[j])
            if x:
                dirty = True
        if dirty:
            continue
        # the pivot must divide the rest for the divisor chain (1 divides everything)
        bad = None if p == 1 else next((i for i in range(t + 1, n) if any(x % p for x in m[i].values())), None)
        if bad is not None:
            row.update(m[bad])  # the pivot row is {pc: p}, and row bad is 0 at pc
            if u is not None:
                _axpy(u[t], 1, u[bad])
            continue
        diag.append(p)
        t += 1
    vt, w = (None if x is None else [x[k] for k in colat] for x in (vt, w))
    return u, diag, vt, w


def _forest(rows: Rows, cols: int) -> tuple[int, list[int]] | None:
    """The lift form of _eliminate(rows, cols, u=True) replayed by a
    spanning-forest search, when every row is zero or an edge
    +-(e_u - e_v), u != v: the rank t (the diagonal is [1] * t) and the
    original indices k of the rows left past it, in position order, for
    each of which column t + i of U^(-1) is the unit vector e_k.  None when
    a row is not an edge; the caller then runs _eliminate and inverts U.

    The replay is exact because of _eliminate's pivot rule.  On edge rows
    every nonzero entry is +-1, so the pivot at step t is 1, in the first
    nonzero row at a position >= t, where the search breaks.  The column
    sweep turns every row through the pivot column into another edge or
    into zero: it contracts the pivot edge, so a row is zero exactly when
    the earlier pivots have joined its two ends.  A step with pivot 1 ends
    in one pass, with no remainder and no divisor-chain fix-up, and the
    inverse of each of its row operations writes only the pivot column of
    U^(-1), so the columns past the rank stay the unit columns they
    started as.  Neither the pivot column nor a column swap decides which
    rows vanish or where a row goes.  So the scan below, which swaps
    original row indices where _eliminate swaps its rows, swaps position t
    with the first row whose ends are not yet joined and joins them
    (union-find with path halving; Tarjan, J. ACM 22 (1975)), gives the
    rank, the rows left and their order.  The rows passed over stay joined, so one pass visits each
    row once, and the rows from its position on are still unmoved.  A
    change to _eliminate's pivot rule must change this function too."""
    parent = list(range(cols))
    at = list(range(len(rows)))  # position -> original row, after _eliminate's row swaps
    t = 0
    for k, row in enumerate(rows):  # row k is at position k
        if not row:
            continue
        if len(row) != 2:
            return None
        (u, x), (v, y) = row.items()
        if x * y != -1:
            return None
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            at[t], at[k] = k, at[t]
            t += 1
    return t, at[t:]


def elementary_divisors(a) -> list[int]:
    m, _, cols = _read(a)
    return _eliminate(m, cols)[1]


def kernel_basis(a) -> list[list[int]]:
    """Basis (as columns) of the integer kernel; the basis spans a saturated
    sublattice since V is unimodular.  The columns of V past the rank are
    the trailing rows of V^T, as the elimination builds it."""
    m, _, cols = _read(a)
    _, diag, vt = _eliminate(m, cols, v=True)[:3]
    return _dense(vt[len(diag) :], cols)


def solve_exact(a, b) -> IntMat | None:
    """An integer solution X of a X = b (columns of b solved jointly), or None."""
    _, rows, cols = _read(a)
    _, rb, cb = _read(b)
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
