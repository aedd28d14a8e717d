"""Sigma-linear algebra over W_n(k): filtered modules with Frobenius and
Verschiebung, tensor and twisted-dual constructions, Newton slopes.

A sigma-linear map is stored as a matrix M with the convention
v |-> M . sigma(v), sigma applied entrywise to the coordinate column; a
sigma^(-1)-linear map as v |-> M . sigma^(-1)(v).  Matrices over the Witt
ring are kept as coordinate rows: lists of lists of canonical coordinate
tuples.  A FilteredFModule stores its F and V that way, every kernel reads
and builds such rows, and one product kernel serves them all.  It packs
each row of its right factor into one int, applying sigma or sigma^(-1)
inside the packing when asked, and folds the modulus onto each packed row
of the product at once before cutting it into coordinates.

A WMat is an immutable tuple of tuples of WittElem; wm_shape reads its
shape.  A module's f_mat and v_mat are such boxed views of its rows, built
on first read.  Four boxed functions remain beside the row kernels: wm_mul,
wm_sigma, wm_sigma_inv and charpoly.  No verb calls them; they are the
entry points the span tracer in bench/layers.py binds by name, and each
boxes a WittElem per entry only for what it hands back.

Entries are checked once, where a WittElem matrix enters the rows (_coords:
a module's or a motive presentation's constructor, one of the four): a
non-matrix is bad-matrix, a non-element bad-element, an element of another
ring IncompatibleRingsError (wm_shape reads no entry).  The kernels never
check again.

The weight flag is stored in an adapted basis: one weight per basis vector,
non-decreasing along the basis (lowest weight first), with W_j spanned by
the basis vectors of weight <= j.  Graded pieces are free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter, lshift, mul
from typing import Sequence

from .errors import (
    IncompatibleRingsError,
    MalformedInputError,
    PrecisionError,
    ShapeError,
    SingularFrobeniusError,
)
from .witt import RingParams, WittElem, _ints

WMat = tuple[tuple[WittElem, ...], ...]
Rows = list[list[tuple[int, ...]]]  # coordinate rows, the kernels' one operand type

__all__ = [
    "FilteredFModule",
    "SlopeProfile",
    "VerifyReport",
    "verify",
    "tensor",
    "twisted_dual",
    "newton_slopes",
    "direct_sum",
    "wm_shape",
    "wm_mul",
    "wm_sigma",
    "wm_sigma_inv",
    "charpoly",
]


# ---------------------------------------------------------------------------
# matrix helpers


def _matrix(m):
    """m, if it is a tuple or list of rows that are tuples or lists, else bad-matrix."""
    if not isinstance(m, (tuple, list)):
        raise MalformedInputError(f"matrix must be a sequence of rows, got {m!r}", code="bad-matrix")
    for i, row in enumerate(m):
        if not isinstance(row, (tuple, list)):
            raise MalformedInputError(f"matrix row {i} must be a sequence, got {row!r}", code="bad-matrix")
    return m


def _int_rows(params: RingParams, m: Sequence[Sequence[int]]) -> Rows:
    """The coordinate rows of an integer matrix."""
    pn, pad = params.pn, (0,) * (params.a - 1)
    return [[(x % pn,) + pad for x in row] for row in m]


def wm_shape(a: WMat) -> tuple[int, int]:
    """(rows, columns) of a matrix or of coordinate rows; it reads no entry."""
    return len(_matrix(a)), (len(a[0]) if a else 0)


@lru_cache(maxsize=256)  # pure in its arguments (equal rings share a packing); bounded
def _packing(params: RingParams, terms: int, table: str | None = None):
    """(pack, pack_rows, cutter) between coordinate entries and the ints the
    kernels use, for sums of `terms` products.

    pack: an entry packs to its coordinate polynomial at 2^bits (its
    coordinate when a = 1), so an int product packs the length-(2a-1)
    polynomial product, one field per degree.  pack_rows: each row of the
    right factor packs into one int, entries 2a-1 fields apart; when `table`
    names sigma's matrix S (or sigma^(-1)'s), x packs to sum_j x_j S_j, with
    S_j column j of S packed, which is sigma(x) with unreduced fields.
    cutter(count): cuts a packed int of count entries into coordinate tuples.
    It folds the fields of degree >= a of every entry at once onto the low
    ones, by the packed t^d mod f (RingParams.reduction_table), and then
    reduces each coordinate once by p^n.  reduce: the same fold and
    reduction on one packed entry, each coordinate shifted back into its
    field, so reduce(s) == pack(cutter(1)(s)[0]) with no tuple.  bits is
    the bit length of the largest value a field can reach, before or after
    the fold (all coordinates at p^n - 1 reach it), so no field carries.

    At a > 1 the fold in cut and reduce, and reduce's pass over the fields,
    are plain loops: reduce runs once per dot product in _charpoly, and a
    generator there would add a frame to each call, which costs more than
    the a - 1 folds it runs."""
    pn, a = params.pn, params.a
    sigma = getattr(params, table) if table and a > 1 else None
    # the largest value of a right-factor field, of the field of degree d of
    # a sum of `terms` products, and of a field of degree < a after the fold
    right = [pn - 1] * a if sigma is None else [(pn - 1) * sum(row) for row in sigma]
    high = [terms * (pn - 1) * sum(right[max(0, d - a + 1) : d + 1]) for d in range(2 * a - 1)]
    folded = [high[i] + sum(h * r[i] for h, r in zip(high[a:], params.reduction_table)) for i in range(a)]
    bits = max(high + folded).bit_length()
    width, mask, powers = (2 * a - 1) * bits, (1 << bits) - 1, [1 << (bits * i) for i in range(a)]

    def packed(coords) -> int:
        return sum(map(mul, coords, powers))

    cols = powers if sigma is None else [packed(col) for col in zip(*sigma)]
    pack, pack_right = (itemgetter(0),) * 2 if a == 1 else (packed, lambda c: sum(map(mul, c, cols)))
    folds = [(bits * d, packed(r)) for d, r in enumerate(params.reduction_table, a)]

    def pack_rows(m) -> list[int]:
        shifts = [width * e for e in range(len(m[0]))] if m else ()
        return [sum(map(lshift, map(pack_right, row), shifts)) for row in m]

    @lru_cache(maxsize=64)
    def cutter(count: int):
        starts = [width * e for e in range(count)]
        low, field0 = (sum(m << k for k in starts) for m in ((1 << bits * a) - 1, mask))
        coords = [k + i for k in starts for i in range(0, bits * a, bits)]

        def cut(s: int) -> list[tuple[int, ...]]:
            if not folds:  # a = 1: an entry is its one coordinate
                return [(((s >> k) & mask) % pn,) for k in coords]
            t = s & low
            for k, r in folds:
                t += ((s >> k) & field0) * r
            return list(zip(*[iter([((t >> k) & mask) % pn for k in coords])] * a))

        return cut

    fields, low = [bits * i for i in range(a)], (1 << bits * a) - 1

    def reduce(s: int) -> int:
        t = s & low
        for k, r in folds:
            t += ((s >> k) & mask) * r
        out = 0
        for k in fields:
            out += ((t >> k) & mask) % pn << k
        return out

    return pack, pack_rows, cutter, (lambda s: (s & mask) % pn) if a == 1 else reduce


def _coords(params: RingParams, m: WMat) -> Rows:
    """m's coordinate rows: the one place a WittElem matrix enters the row
    world, so the one check that m is a matrix (bad-matrix) and of each
    entry's type (bad-element) and ring (IncompatibleRingsError)."""
    if not all(type(x) is WittElem and (x.params is params or x.params == params) for row in _matrix(m) for x in row):
        if any(type(x) is not WittElem for row in m for x in row):
            raise MalformedInputError("matrix entries must be Witt elements", code="bad-element")
        raise IncompatibleRingsError("matrix entry from a different ring")
    return [[x.coords for x in row] for row in m]


def _box(params: RingParams, rows) -> WMat:
    """Coordinate rows as a WMat: the one boxing pass at the API boundary."""
    return tuple(tuple(WittElem._raw(params, c) for c in row) for row in rows)


def _mul(params: RingParams, a, b, table: str | None = None) -> list[list[tuple[int, ...]]]:
    """The product kernel: a . b on coordinate rows, or a . sigma^(+-1)(b)
    when table names sigma's (sigma^(-1)'s) matrix, which goes into the
    packing of b.  Each row of b packs into one int, so a row of the product
    is one sum of int products, folded by the modulus once and cut."""
    pack, pack_rows, cutter, _ = _packing(params, len(b), table)
    cut, rows_b = cutter(len(b[0]) if b else 0), pack_rows(b)
    return [cut(sum(map(mul, map(pack, row), rows_b))) for row in a]


def wm_mul(params: RingParams, a: WMat, b: WMat) -> WMat:
    x, y = _coords(params, a), _coords(params, b)
    (ra, ca), (rb, cb) = wm_shape(x), wm_shape(y)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return _box(params, _mul(params, x, y))


def _sigma_rows(params: RingParams, rows, table: str):
    """The ring's `table` (S or S^(a-1)) on each coordinate entry; rows itself
    when a = 1.  Plain loops, with the table and p^n in locals: the call is
    the one Python frame, where a comprehension or a witt._apply call per
    entry would cost a frame each, more than the few products it runs."""
    if params.a == 1:
        return rows
    s, pn = getattr(params, table), params.pn
    out = []
    for row in rows:
        new = []
        for c in row:
            coords = []
            for srow in s:
                coords.append(sum(map(mul, srow, c)) % pn)
            new.append(tuple(coords))
        out.append(new)
    return out


def _sigma_each(a: WMat, table: str) -> WMat:
    """_sigma_rows on the entries of a, checked by _coords against the ring
    of its first entry (these functions take no ring) and boxed; a itself
    when a = 1 or a has no entry."""
    first = next(chain.from_iterable(_matrix(a)), None)
    params = first.params if type(first) is WittElem else None  # None: _coords raises bad-element
    rows = _coords(params, a)
    return a if params is None or params.a == 1 else _box(params, _sigma_rows(params, rows, table))


def wm_sigma(a: WMat) -> WMat:
    return _sigma_each(a, "frobenius_matrix")


def wm_sigma_inv(a: WMat) -> WMat:
    return _sigma_each(a, "frobenius_inverse_matrix")


def _kron(params: RingParams, a: Rows, b: Rows) -> Rows:
    """The Kronecker product: each entry x of a times a packed row of b, cut."""
    pack, pack_rows, cutter, _ = _packing(params, 1)
    cut, rows_b, pa = cutter(len(b[0]) if b else 0), pack_rows(b), [list(map(pack, row)) for row in a]
    return [list(chain.from_iterable(cut(x * y) for x in ra)) for ra in pa for y in rows_b]


def _block(grid, row_sizes, col_sizes, zero) -> list[list]:
    """The block matrix of grid (None for a zero block), as lists of entries;
    zero is the entry of the zero blocks."""
    rows = []
    for blocks, rsize in zip(grid, row_sizes):
        if rsize and any(b is not None and (len(b) != rsize or len(b[0]) != c) for b, c in zip(blocks, col_sizes)):
            raise ShapeError("block has the wrong shape")
        pieces = [[[zero] * c] * rsize if b is None else b for b, c in zip(blocks, col_sizes)]
        rows.extend(list(chain.from_iterable(parts)) for parts in zip(*pieces))
    return rows


def charpoly(params: RingParams, a: WMat) -> list[WittElem]:
    """Characteristic polynomial det(xI - a), ascending coefficients
    [c_0, ..., c_{r-1}, 1]."""
    return _charpoly(params, _coords(params, a))


def _charpoly(params: RingParams, rows: Rows) -> list[WittElem]:
    """charpoly of square coordinate rows (else ShapeError), by the
    division-free Samuelson-Berkowitz scheme, on packed entries with one
    reduction per dot product."""
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise ShapeError("characteristic polynomial of a non-square matrix")
    pack, _, cutter, red = _packing(params, r + 1)
    cut = cutter(1)
    m, minus = [[pack(x) for x in row] for row in rows], params.pn - 1  # -1 packs to p^n - 1 for every a

    poly = [1]  # descending, packed (1 packs to 1); the char poly of the 0x0 block
    for k in range(1, r + 1):
        neg_row = [red(minus * x) for x in m[k - 1][:k]]
        sub, w = [mrow[: k - 1] for mrow in m[: k - 1]], [mrow[k - 1] for mrow in m[: k - 1]]
        toeplitz = [1, neg_row.pop()]
        for j in range(k - 1):
            if j:
                w = [red(sum(map(mul, srow, w))) for srow in sub]
            toeplitz.append(red(sum(map(mul, neg_row, w))))
        poly = [red(sum(map(mul, toeplitz[max(0, i - k + 1) : i + 1], poly[i::-1]))) for i in range(k + 1)]
    return [WittElem._raw(params, cut(x)[0]) for x in reversed(poly)]


def _det(coeffs: list[WittElem]) -> WittElem:
    """det(a) = (-1)^r c_0, read off the characteristic polynomial of an r x r matrix."""
    return coeffs[0] if len(coeffs) % 2 == 1 else -coeffs[0]


# ---------------------------------------------------------------------------
# filtered modules


@dataclass(frozen=True)
class FilteredFModule:
    """Free W_n(k)-module with sigma-linear F, optional sigma^(-1)-linear V,
    and an adapted weight flag (weights non-decreasing along the basis).
    Rank, weights and level must be ints, not bools (else bad-type).

    F and V are stored as coordinate rows (f_rows, v_rows), which every
    kernel reads; f_mat and v_mat are boxed views of them, built on first
    read (a module constructed from WMats keeps the given ones).  Each
    entry's type and ring is checked once, on construction (bad-element,
    IncompatibleRingsError), so no kernel checks it again."""

    params: RingParams
    rank: int
    weights: tuple[int, ...]
    f_mat: WMat = field(compare=False)
    v_mat: WMat | None = field(compare=False)
    level: int = 1
    f_rows: Rows = field(init=False, repr=False)
    v_rows: Rows | None = field(init=False, repr=False)

    def __post_init__(self):
        f, v = _coords(self.params, self.f_mat), None if self.v_mat is None else _coords(self.params, self.v_mat)
        self._check(f, v)
        self.__dict__.update(f_rows=f, v_rows=v)

    @classmethod
    def _of_rows(cls, params, rank, weights, f: Rows, v: Rows | None, level: int = 1):
        """The module on coordinate rows of params (the kernels' and the
        parser's constructor): rank, weights, level and shapes are checked as
        in the public one, the entries are taken as they are."""
        m = object.__new__(cls)
        m.__dict__.update(params=params, rank=rank, weights=weights, level=level, f_rows=f, v_rows=v)
        m._check(f, v)
        return m

    def _check(self, f, v) -> None:
        object.__setattr__(self, "weights", _ints(self.weights, "bad-type", "weights"))
        if type(self.rank) is not int or type(self.level) is not int:
            raise MalformedInputError(f"rank and level must be integers, got {(self.rank, self.level)!r}", code="bad-type")
        if len(self.weights) != self.rank:
            raise ShapeError("one weight per basis vector required")
        for what, m in (("F", f), ("V", v)) if v is not None else (("F", f),):  # V may be absent, F may not
            if len(m) != self.rank or not {self.rank}.issuperset(map(len, m)):
                raise ShapeError(f"{what} matrix must be rank x rank")

    def __getattr__(self, name: str):
        # only reached when f_mat / v_mat is not set yet: box it once and keep it
        if name not in ("f_mat", "v_mat") or "f_rows" not in self.__dict__:
            raise AttributeError(name)
        rows = self.f_rows if name == "f_mat" else self.v_rows
        view = self.__dict__[name] = None if rows is None else _box(self.params, rows)
        return view

    def __hash__(self):
        rows = (tuple(map(tuple, m)) for m in (self.f_rows, self.v_rows or ()))
        return hash((self.params, self.rank, self.weights, self.level, *rows))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)


def _scalar_gap(params: RingParams, rows, c: int):
    """First (i, j) where coordinate rows (lists, as from _mul) differ from c I, with c I's entry there, or None."""
    zero = (0,) * params.a
    for i, row in enumerate(rows):
        want = [zero] * len(row)
        if i < len(row):
            want[i] = (c % params.pn,) + zero[1:]
        if row != want:
            return next(((i, j), y) for j, (x, y) in enumerate(zip(row, want)) if x != y)
    return None


@lru_cache(maxsize=64)  # pure in the weights; bounded, at most 64 KB a rank-256 entry
def _lower_masks(weights: tuple[int, ...]) -> tuple[bytes, ...]:
    """Per basis vector i, the mask of the basis vectors of weight below weights[i]."""
    return tuple(bytes([u < w for u in weights]) for w in weights)


def _flag_check(what: str, weights, rows: Rows) -> CheckResult:
    """No entry of rows maps a basis vector into a lower weight: row i is zero
    on the columns of weight below weights[i]."""
    masks = _lower_masks(weights)
    if not any(map(any, chain.from_iterable(map(compress, rows, masks)))):
        return CheckResult(f"flag-{what}", True, "")
    lower = ((i, j, x) for i, (row, mask) in enumerate(zip(rows, masks)) for j, x in enumerate(row) if mask[j])
    i, j = next((i, j) for i, j, x in lower if any(x))
    return CheckResult(f"flag-{what}", False, f"{what}[{i}][{j}] breaks the flag")


def _product_check(name: str, what: str, m: FilteredFModule, a: Rows, b: Rows, table: str) -> CheckResult:
    """a . sigma^(+-1)(b) = p^level I (table names sigma's matrix), else name
    the first entry that differs, with its actual and expected coordinates."""
    claim = f"{what} != p^{m.level} I"
    if m.level < 0:
        return CheckResult(name, False, f"{claim}: p^{m.level} is not in W_n(k)")
    params = m.params
    prod = _mul(params, a, b, table)
    gap = _scalar_gap(params, prod, pow(params.p, m.level, params.pn))
    if gap is None:
        return CheckResult(name, True)
    (i, j), want = gap
    return CheckResult(name, False, f"{claim}: entry {(i, j)} is {list(prod[i][j])}, expected {list(want)}")


def verify(m: FilteredFModule) -> VerifyReport:
    """Diagnostic report on every representation invariant: weight order,
    flag preservation by F and V, and the two compositions F sigma(V) =
    V sigma^(-1)(F) = p^level.  Never raises; reports the first violation
    per invariant with indices; at level < 0 both compositions fail."""
    checks: list[CheckResult] = []
    checks.append(CheckResult("level", m.level >= 1, f"level = {m.level}"))
    sorted_ok = all(m.weights[i] <= m.weights[i + 1] for i in range(m.rank - 1))
    order = "" if sorted_ok else f"weights {m.weights} are not non-decreasing"
    checks.append(CheckResult("weight-order", sorted_ok, order))
    f, v = m.f_rows, m.v_rows
    checks.append(_flag_check("F", m.weights, f))
    if v is not None:
        checks.append(_flag_check("V", m.weights, v))
        checks.append(_product_check("fv-product", "F sigma(V)", m, f, v, "frobenius_matrix"))
        checks.append(_product_check("vf-product", "V sigma^-1(F)", m, v, f, "frobenius_inverse_matrix"))
    return VerifyReport(tuple(checks))


def _argsort_stable(weights: Sequence[int]) -> list[int]:
    return sorted(range(len(weights)), key=lambda i: weights[i])


def _permute(m: Rows, perm: Sequence[int]) -> Rows:
    return [[m[i][j] for j in perm] for i in perm]


def _sorted_by_weight(params, weights, f: Rows, v: Rows | None, level: int) -> FilteredFModule:
    """The module with its basis re-sorted by weight (stable)."""
    perm = _argsort_stable(weights)
    w = tuple(weights[i] for i in perm)
    return FilteredFModule._of_rows(params, len(w), w, _permute(f, perm), v and _permute(v, perm), level)


def tensor(m1: FilteredFModule, m2: FilteredFModule) -> FilteredFModule:
    """Tensor product: Kronecker F (and V when both are present), weights add,
    levels add.  The Kronecker basis is re-sorted by weight (stable)."""
    if m1.params != m2.params:
        raise IncompatibleRingsError("tensor operands live over different rings")
    params = m1.params
    weights = [w1 + w2 for w1 in m1.weights for w2 in m2.weights]
    f = _kron(params, m1.f_rows, m2.f_rows)
    v = None if m1.v_rows is None or m2.v_rows is None else _kron(params, m1.v_rows, m2.v_rows)
    return _sorted_by_weight(params, weights, f, v, m1.level + m2.level)


def direct_sum(m1: FilteredFModule, m2: FilteredFModule) -> FilteredFModule:
    if m1.params != m2.params:
        raise IncompatibleRingsError("direct sum operands live over different rings")
    if m1.level != m2.level:
        raise ShapeError("direct sum requires equal levels")
    params = m1.params
    sizes, zero = [m1.rank, m2.rank], (0,) * params.a
    f = _block([[m1.f_rows, None], [None, m2.f_rows]], sizes, sizes, zero)
    v = None
    if m1.v_rows is not None and m2.v_rows is not None:
        v = _block([[m1.v_rows, None], [None, m2.v_rows]], sizes, sizes, zero)
    return _sorted_by_weight(params, m1.weights + m2.weights, f, v, m1.level)


def twisted_dual(m: FilteredFModule) -> FilteredFModule:
    """Internal hom into the rank-1 twist (F: 1 -> 1, V: 1 -> p, weight -2).

    On matrices: F_dual = sigma(V^T), V_dual = sigma^(-1)(F^T), both then
    conjugated by the basis reversal so weights (-2 - w) come out
    non-decreasing again.  Applying the construction twice returns the
    original module on the nose.
    """
    return _twisted_dual(m, range(m.rank - 1, -1, -1))


def _twisted_dual(m: FilteredFModule, order: Sequence[int]) -> FilteredFModule:
    """The twisted dual relabelled by e'_k = e_{order[k]} of the untwisted
    basis: F' = sigma(V^T) and V' = sigma^(-1)(F^T) with entry (k, l) read
    at (order[k], order[l]), and weight -2 - weights[order[k]].  The
    transpose, the relabelling and sigma^(+-1) are one pass over each
    matrix: twisted_dual is order = the reversed basis, and a motive's
    canonical dual (MotiveCrystal.canonical_dual) is that reversal composed
    with the dual presentation's permutation."""
    if m.v_rows is None:
        raise SingularFrobeniusError("the twisted dual needs an integral Verschiebung")
    params = m.params

    def dual(rows: Rows, table: str) -> Rows:
        cols = list(zip(*[rows[k] for k in order]))  # cols[j][k] = rows[order[k]][j]
        picked = [cols[i] for i in order]
        return list(map(list, picked)) if params.a == 1 else _sigma_rows(params, picked, table)

    weights = tuple(-2 - m.weights[i] for i in order)
    f, v = dual(m.v_rows, "frobenius_matrix"), dual(m.f_rows, "frobenius_inverse_matrix")
    return FilteredFModule._of_rows(params, m.rank, weights, f, v, m.level)


# ---------------------------------------------------------------------------
# Newton slopes


@dataclass(frozen=True)
class SlopeProfile:
    """Multiset of Newton slopes: sorted (slope, multiplicity) pairs."""

    pairs: tuple[tuple[Fraction, int], ...]

    @property
    def total(self) -> int:
        return sum(mult for _, mult in self.pairs)

    def as_list(self) -> list[Fraction]:
        return [s for s, mult in self.pairs for _ in range(mult)]


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    points = sorted(points)
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(m: FilteredFModule) -> SlopeProfile:
    """Slopes of the Newton polygon of the a-fold sigma-twisted iterate of F
    (an honestly linear map), divided by a.

    Requires n >= rank * level * a + 1 so the relevant coefficient
    valuations are determined; raises PrecisionError otherwise.  A constant
    coefficient that vanishes at working precision raises PrecisionError
    with no required length: the entries read the same at every n, so no
    length is known to suffice.
    """
    params = m.params
    if m.rank == 0:
        return SlopeProfile(())
    required = m.rank * m.level * params.a + 1
    if params.n < required:
        raise PrecisionError(
            f"newton slopes need n >= {required} at rank {m.rank}, level {m.level}, a = {params.a}",
            required=required,
        )
    linear = twisted = m.f_rows
    for k in range(params.a - 1):  # linear . sigma(twisted), twisted = sigma^k(F)
        if k:
            twisted = _sigma_rows(params, twisted, "frobenius_matrix")
        linear = _mul(params, linear, twisted, "frobenius_matrix")
    coeffs = _charpoly(params, linear)
    n = params.n
    vals = [c.valuation() for c in coeffs]
    if vals[0] >= n:
        raise PrecisionError(
            "constant coefficient of the characteristic polynomial vanishes at working precision"
        )
    points = [(i, v) for i, v in enumerate(vals) if v < n]
    hull = _lower_hull(points)
    # the hull turns strictly left, so the slopes (y1 - y2) / (x2 - x1) of its
    # segments are distinct and decrease from left to right: the profile is
    # the segments read from the right, each slope with its width as multiplicity
    segments = [(Fraction(y1 - y2, x2 - x1) / params.a, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    return SlopeProfile(tuple(reversed(segments)))
