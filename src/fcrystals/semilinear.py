"""Sigma-linear algebra over W_n(k): filtered modules with Frobenius and
Verschiebung, tensor and twisted-dual constructions, Newton slopes.

A sigma-linear map is stored as a matrix M with the convention
v |-> M . sigma(v), sigma applied entrywise to the coordinate column; a
sigma^(-1)-linear map as v |-> M . sigma^(-1)(v).  Matrices over the Witt
ring are immutable tuples of tuples of WittElem.

The weight flag is stored in an adapted basis: one weight per basis vector,
non-decreasing along the basis (lowest weight first), with W_j spanned by
the basis vectors of weight <= j.  Graded pieces are free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import intmat
from .errors import (
    IncompatibleRingsError,
    MalformedInputError,
    PrecisionError,
    ShapeError,
    SingularFrobeniusError,
)
from .witt import (
    RingParams,
    WittElem,
    balanced_lift_elem,
    frobenius,
    frobenius_inverse,
    reduce_elem,
)

WMat = tuple[tuple[WittElem, ...], ...]

smith_normal_form = intmat.smith_normal_form  # exact integer SNF lives in intmat

__all__ = [
    "FilteredFModule",
    "SlopeProfile",
    "VerifyReport",
    "verify",
    "tensor",
    "twisted_dual",
    "newton_slopes",
    "direct_sum",
    "conjugate",
    "conjugate_by_permutation",
    "is_isomorphism_witness",
    "smith_normal_form",
    "wmat",
    "wmat_from_ints",
    "wm_identity",
    "wm_zero",
    "wm_mul",
    "wm_add",
    "wm_sub",
    "wm_neg",
    "wm_scal",
    "wm_transpose",
    "wm_sigma",
    "wm_sigma_inv",
    "wm_eq",
    "wm_kron",
    "wm_block",
    "wm_balanced_lift",
    "wm_reduce",
    "wm_inverse_unit",
    "charpoly",
    "wm_det",
]


# ---------------------------------------------------------------------------
# matrix helpers


def wmat(params: RingParams, rows: Sequence[Sequence]) -> WMat:
    out = []
    width = None
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, WittElem):
                if x.params != params:
                    raise IncompatibleRingsError("matrix entry from a different ring")
                cells.append(x)
            elif isinstance(x, int):
                cells.append(params.from_int(x))
            else:
                cells.append(params.elem(x))
        if width is None:
            width = len(cells)
        elif width != len(cells):
            raise ShapeError("ragged matrix")
        out.append(tuple(cells))
    return tuple(out)


def wmat_from_ints(params: RingParams, rows: Sequence[Sequence[int]]) -> WMat:
    return tuple(tuple(params.from_int(x) for x in row) for row in rows)


def wm_shape(a: WMat) -> tuple[int, int]:
    return len(a), (len(a[0]) if a else 0)


def wm_identity(params: RingParams, r: int) -> WMat:
    one, zero = params.one(), params.zero()
    return tuple(tuple(one if i == j else zero for j in range(r)) for i in range(r))


def wm_zero(params: RingParams, r: int, c: int) -> WMat:
    zero = params.zero()
    return tuple((zero,) * c for _ in range(r))


def wm_mul(params: RingParams, a: WMat, b: WMat) -> WMat:
    ra, ca = wm_shape(a)
    rb, cb = wm_shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    zero = params.zero()
    if ca == 0:
        return wm_zero(params, ra, cb)
    out = []
    for i in range(ra):
        row = a[i]
        orow = []
        for j in range(cb):
            acc = zero
            for k in range(ca):
                acc = acc + row[k] * b[k][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def wm_add(a: WMat, b: WMat) -> WMat:
    if wm_shape(a) != wm_shape(b):
        raise ShapeError("matrix addition with mismatched shapes")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def wm_sub(a: WMat, b: WMat) -> WMat:
    if wm_shape(a) != wm_shape(b):
        raise ShapeError("matrix subtraction with mismatched shapes")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def wm_neg(a: WMat) -> WMat:
    return tuple(tuple(-x for x in row) for row in a)


def wm_scal(c: WittElem, a: WMat) -> WMat:
    return tuple(tuple(c * x for x in row) for row in a)


def wm_transpose(a: WMat) -> WMat:
    r, c = wm_shape(a)
    return tuple(tuple(a[i][j] for i in range(r)) for j in range(c))


def wm_sigma(a: WMat) -> WMat:
    return tuple(tuple(frobenius(x) for x in row) for row in a)


def wm_sigma_inv(a: WMat) -> WMat:
    return tuple(tuple(frobenius_inverse(x) for x in row) for row in a)


def wm_eq(a: WMat, b: WMat) -> bool:
    return wm_shape(a) == wm_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def wm_kron(params: RingParams, a: WMat, b: WMat) -> WMat:
    ra, ca = wm_shape(a)
    rb, cb = wm_shape(b)
    out = []
    for i1 in range(ra):
        for i2 in range(rb):
            row = []
            for j1 in range(ca):
                for j2 in range(cb):
                    row.append(a[i1][j1] * b[i2][j2])
            out.append(tuple(row))
    return tuple(out)


def wm_block(params: RingParams, grid: Sequence[Sequence[WMat]], row_sizes, col_sizes) -> WMat:
    rows = []
    for bi, rsize in enumerate(row_sizes):
        for i in range(rsize):
            row = []
            for bj, csize in enumerate(col_sizes):
                blk = grid[bi][bj]
                if blk is None:
                    row.extend([params.zero()] * csize)
                else:
                    if wm_shape(blk) != (rsize, csize):
                        raise ShapeError("block has the wrong shape")
                    row.extend(blk[i])
            rows.append(tuple(row))
    return tuple(rows)


def wm_balanced_lift(a: WMat, big: RingParams) -> WMat:
    return tuple(tuple(balanced_lift_elem(x, big) for x in row) for row in a)


def wm_reduce(a: WMat, small: RingParams) -> WMat:
    return tuple(tuple(reduce_elem(x, small) for x in row) for row in a)


def wm_submatrix(a: WMat, rows: range, cols: range) -> WMat:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def charpoly(params: RingParams, a: WMat) -> list[WittElem]:
    """Characteristic polynomial det(xI - a), ascending coefficients
    [c_0, ..., c_{r-1}, 1], by the division-free Samuelson-Berkowitz scheme."""
    r, c = wm_shape(a)
    if r != c:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    one = params.one()
    poly = [one]  # descending coefficients, starts as char poly of the 0x0 block
    for k in range(1, r + 1):
        diag = a[k - 1][k - 1]
        row = [a[k - 1][j] for j in range(k - 1)]
        col = [a[i][k - 1] for i in range(k - 1)]
        toeplitz = [one, -diag]
        if k >= 2:
            w = col
            toeplitz.append(-sum((x * y for x, y in zip(row, w)), params.zero()))
            for _ in range(3, k + 1):
                w = [sum((a[i][j] * w[j] for j in range(k - 1)), params.zero()) for i in range(k - 1)]
                toeplitz.append(-sum((x * y for x, y in zip(row, w)), params.zero()))
        new = []
        for i in range(k + 1):
            acc = params.zero()
            for j, t in enumerate(toeplitz):
                if 0 <= i - j < len(poly):
                    acc = acc + t * poly[i - j]
            new.append(acc)
        poly = new
    return list(reversed(poly))


def wm_det(params: RingParams, a: WMat) -> WittElem:
    coeffs = charpoly(params, a)
    r = len(a)
    d = coeffs[0]
    return d if r % 2 == 0 else -d


def wm_adjugate(params: RingParams, a: WMat) -> WMat:
    """adj(a) with a . adj(a) = det(a) I, from the characteristic polynomial."""
    r, c = wm_shape(a)
    if r != c:
        raise ShapeError("adjugate of a non-square matrix")
    if r == 0:
        return ()
    coeffs = charpoly(params, a)  # ascending
    acc = wm_identity(params, r)  # builds A^{r-1} + c_{r-1} A^{r-2} + ... + c_1 I
    for i in range(r - 1, 0, -1):
        acc = wm_mul(params, a, acc)
        ci = wm_scal(coeffs[i], wm_identity(params, r))
        acc = wm_add(acc, ci)
    # A * acc = -c_0 I = (-1)^(r+1) det(A) I
    return acc if r % 2 == 1 else wm_neg(acc)


def wm_inverse_unit(params: RingParams, a: WMat) -> WMat:
    """Inverse of a matrix with unit determinant."""
    d = wm_det(params, a)
    if not d.is_unit():
        raise SingularFrobeniusError("matrix determinant is not a unit")
    return wm_scal(d.inverse(), wm_adjugate(params, a))


# ---------------------------------------------------------------------------
# filtered modules


@dataclass(frozen=True)
class FilteredFModule:
    """Free W_n(k)-module with sigma-linear F, optional sigma^(-1)-linear V,
    and an adapted weight flag (weights non-decreasing along the basis).
    Rank, weights and level must be ints, not bools (else bad-type)."""

    params: RingParams
    rank: int
    weights: tuple[int, ...]
    f_mat: WMat
    v_mat: WMat | None
    level: int = 1

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not all(type(x) is int for x in (self.rank, self.level, *self.weights)):
            raise MalformedInputError("rank, weights and level must be integers", code="bad-type")
        if len(self.weights) != self.rank:
            raise ShapeError("one weight per basis vector required")
        if wm_shape(self.f_mat) != (self.rank, self.rank):
            raise ShapeError("F matrix must be rank x rank")
        if self.v_mat is not None and wm_shape(self.v_mat) != (self.rank, self.rank):
            raise ShapeError("V matrix must be rank x rank")


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


def _first_entry(m: WMat, bad) -> tuple[int, int] | None:
    """The first (i, j), row-major, with bad(i, j, m[i][j]), or None."""
    return next(((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if bad(i, j, x)), None)


def _flag_check(what: str, weights, mat: WMat) -> CheckResult:
    """No entry of mat maps a basis vector into a lower weight."""
    bad = _first_entry(mat, lambda i, j, x: weights[i] > weights[j] and not x.is_zero())
    detail = "" if bad is None else f"{what}[{bad[0]}][{bad[1]}] breaks the flag"
    return CheckResult(f"flag-{what}", bad is None, detail)


def _product_check(name: str, what: str, m: FilteredFModule, a: WMat, b: WMat) -> CheckResult:
    """a . b = p^level I, else name the first entry that differs, with its
    actual and expected coordinates."""
    claim = f"{what} != p^{m.level} I"
    if m.level < 0:
        return CheckResult(name, False, f"{claim}: p^{m.level} is not in W_n(k)")
    c, zero = m.params.from_int(m.params.p**m.level), m.params.zero()
    prod = wm_mul(m.params, a, b)
    bad = _first_entry(prod, lambda i, j, x: x != (c if i == j else zero))
    if bad is None:
        return CheckResult(name, True)
    i, j = bad
    want = c if i == j else zero
    return CheckResult(name, False, f"{claim}: entry {bad} is {list(prod[i][j].coords)}, expected {list(want.coords)}")


def verify(m: FilteredFModule) -> VerifyReport:
    """Diagnostic report on every representation invariant: weight order,
    flag preservation by F and V, and the two compositions F sigma(V) =
    V sigma^(-1)(F) = p^level.  Never raises; reports the first violation
    per invariant with indices; at level < 0 both compositions fail."""
    checks: list[CheckResult] = []
    checks.append(CheckResult("level", m.level >= 1, f"level = {m.level}"))
    sorted_ok = all(m.weights[i] <= m.weights[i + 1] for i in range(m.rank - 1))
    checks.append(
        CheckResult(
            "weight-order",
            sorted_ok,
            "" if sorted_ok else f"weights {m.weights} are not non-decreasing",
        )
    )
    checks.append(_flag_check("F", m.weights, m.f_mat))
    if m.v_mat is not None:
        checks.append(_flag_check("V", m.weights, m.v_mat))
        checks.append(_product_check("fv-product", "F sigma(V)", m, m.f_mat, wm_sigma(m.v_mat)))
        checks.append(_product_check("vf-product", "V sigma^-1(F)", m, m.v_mat, wm_sigma_inv(m.f_mat)))
    return VerifyReport(tuple(checks))


def _argsort_stable(weights: Sequence[int]) -> list[int]:
    return sorted(range(len(weights)), key=lambda i: weights[i])


def _permute(m: WMat, perm: Sequence[int]) -> WMat:
    return tuple(tuple(m[perm[i]][perm[j]] for j in range(len(perm))) for i in range(len(perm)))


def tensor(m1: FilteredFModule, m2: FilteredFModule) -> FilteredFModule:
    """Tensor product: Kronecker F (and V when both are present), weights add,
    levels add.  The Kronecker basis is re-sorted by weight (stable)."""
    if m1.params != m2.params:
        raise IncompatibleRingsError("tensor operands live over different rings")
    params = m1.params
    weights = [w1 + w2 for w1 in m1.weights for w2 in m2.weights]
    f = wm_kron(params, m1.f_mat, m2.f_mat)
    v = None
    if m1.v_mat is not None and m2.v_mat is not None:
        v = wm_kron(params, m1.v_mat, m2.v_mat)
    perm = _argsort_stable(weights)
    return FilteredFModule(
        params,
        m1.rank * m2.rank,
        tuple(weights[i] for i in perm),
        _permute(f, perm),
        _permute(v, perm) if v is not None else None,
        m1.level + m2.level,
    )


def direct_sum(m1: FilteredFModule, m2: FilteredFModule) -> FilteredFModule:
    if m1.params != m2.params:
        raise IncompatibleRingsError("direct sum operands live over different rings")
    if m1.level != m2.level:
        raise ShapeError("direct sum requires equal levels")
    params = m1.params
    r = m1.rank + m2.rank
    weights = list(m1.weights) + list(m2.weights)
    f = wm_block(
        params,
        [[m1.f_mat, None], [None, m2.f_mat]],
        [m1.rank, m2.rank],
        [m1.rank, m2.rank],
    )
    v = None
    if m1.v_mat is not None and m2.v_mat is not None:
        v = wm_block(
            params,
            [[m1.v_mat, None], [None, m2.v_mat]],
            [m1.rank, m2.rank],
            [m1.rank, m2.rank],
        )
    perm = _argsort_stable(weights)
    return FilteredFModule(
        params,
        r,
        tuple(weights[i] for i in perm),
        _permute(f, perm),
        _permute(v, perm) if v is not None else None,
        m1.level,
    )


def twisted_dual(m: FilteredFModule) -> FilteredFModule:
    """Internal hom into the rank-1 twist (F: 1 -> 1, V: 1 -> p, weight -2).

    On matrices: F_dual = sigma(V^T), V_dual = sigma^(-1)(F^T), both then
    conjugated by the basis reversal so weights (-2 - w) come out
    non-decreasing again.  Applying the construction twice returns the
    original module on the nose.
    """
    if m.v_mat is None:
        raise SingularFrobeniusError("the twisted dual needs an integral Verschiebung")
    reverse = range(m.rank - 1, -1, -1)
    f_dual = _permute(wm_sigma(wm_transpose(m.v_mat)), reverse)
    v_dual = _permute(wm_sigma_inv(wm_transpose(m.f_mat)), reverse)
    weights = tuple(-2 - w for w in reversed(m.weights))
    return FilteredFModule(m.params, m.rank, weights, f_dual, v_dual, m.level)


def conjugate(m: FilteredFModule, g: WMat) -> FilteredFModule:
    """Base change by an invertible matrix g: F -> g^(-1) F sigma(g).

    Weights are kept; the caller is responsible for g respecting the flag.
    """
    params = m.params
    ginv = wm_inverse_unit(params, g)
    f = wm_mul(params, ginv, wm_mul(params, m.f_mat, wm_sigma(g)))
    v = None
    if m.v_mat is not None:
        v = wm_mul(params, ginv, wm_mul(params, m.v_mat, wm_sigma_inv(g)))
    return FilteredFModule(params, m.rank, m.weights, f, v, m.level)


def conjugate_by_permutation(m: FilteredFModule, perm: Sequence[int]) -> FilteredFModule:
    """Relabel the basis by e'_k = e_{perm[k]}."""
    return FilteredFModule(
        m.params,
        m.rank,
        tuple(m.weights[i] for i in perm),
        _permute(m.f_mat, perm),
        _permute(m.v_mat, perm) if m.v_mat is not None else None,
        m.level,
    )


def is_isomorphism_witness(g: WMat, m1: FilteredFModule, m2: FilteredFModule) -> bool:
    """Check that g is an isomorphism m2 -> m1 in coordinates, i.e.
    conjugating m1 by g reproduces m2 (weights included)."""
    if m1.params != m2.params or m1.rank != m2.rank or m1.level != m2.level:
        return False
    c = conjugate(m1, g)
    if c.weights != m2.weights:
        return False
    if not wm_eq(c.f_mat, m2.f_mat):
        return False
    if (c.v_mat is None) != (m2.v_mat is None):
        return False
    if c.v_mat is not None and not wm_eq(c.v_mat, m2.v_mat):
        return False
    return True


# ---------------------------------------------------------------------------
# Newton slopes


@dataclass(frozen=True)
class SlopeProfile:
    """Multiset of Newton slopes: sorted (slope, multiplicity) pairs."""

    pairs: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_multiset(slopes: Sequence[Fraction]) -> "SlopeProfile":
        out: list[tuple[Fraction, int]] = []
        for s in sorted(slopes):
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + 1)
            else:
                out.append((s, 1))
        return SlopeProfile(tuple(out))

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
    valuations are determined; raises PrecisionError otherwise.
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
    linear = m.f_mat
    twisted = m.f_mat
    for _ in range(params.a - 1):
        twisted = wm_sigma(twisted)
        linear = wm_mul(params, linear, twisted)
    coeffs = charpoly(params, linear)
    n = params.n
    vals = [c.valuation() for c in coeffs]
    if vals[0] >= n:
        raise PrecisionError(
            "constant coefficient of the characteristic polynomial vanishes at working precision",
            required=required,
        )
    points = [(i, v) for i, v in enumerate(vals) if v < n]
    hull = _lower_hull(points)
    slopes: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        lam = Fraction(y1 - y2, x2 - x1)
        slopes.extend([lam / params.a] * (x2 - x1))
    slopes.sort()
    return SlopeProfile.from_multiset(slopes)
