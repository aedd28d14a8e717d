"""Shared test utilities: independent oracles and random-instance generators.

Oracles here deliberately avoid the library code paths they check: the
exp/log oracles work in plain integer arithmetic mod p^n, the divided-power
series oracles sum WittElem terms under a fixed generous rule (every
m <= 3n + p, at precision 3n + p) instead of the package's cutoff and
buffer, the irreducibility oracle tries every monic factor of degree at most
a/2 by its own polynomial division, the kernel oracle
does fraction-field Gaussian elimination, the determinant oracle is Bareiss
fraction-free elimination instead of the Smith form, the Smith oracle is
the elimination without its fast paths or inverse bookkeeping, the
elimination oracle is the dense-row elimination with its inverse
bookkeeping and unit-row marks that the sparse intmat._eliminate replaced
(sparse_rows and dense_rows convert to and from intmat's sparse rows
entry by entry), the matrix
document oracle parses entry by entry through elem_from_doc and wmat, the
Frobenius oracle goes through Teichmuller digits instead of the precomputed
matrix, the matrix-product and characteristic-polynomial oracles multiply
WittElem entries one by one instead of packed coordinates, and the pairing
oracle places the gram entries block by block and checks it as a dense
matrix instead of reindexing by the dual permutation.  The realization,
verify and pairing oracles (and the base-change reductions of the motive
tests) use their own element-by-element matrix loops (mat_sub, mat_neg,
mat_scale, mat_transpose, mat_balanced_lift, mat_reduce, mat_block), not
the package's _block or its realization's lifts, and none of them runs the
package's packed kernels: products go through wm_mul_oracle, determinants
through det_oracle (charpoly_oracle's constant term), and sigma and
sigma^(-1) through mat_sigma and mat_sigma_inv, one witt.frobenius or
witt.frobenius_inverse call per entry.  The isomorphism-witness oracle
checks g . F_2 = F_1 . sigma(g) and g . V_2 = V_1 . sigma^(-1)(g) that way,
with det g a unit, and so needs no matrix inverse.  The classical Witt
coordinates (WittCoords, the ghost maps, coords_add, coords_mul and the
bijection coords_to_elem / elem_to_coords through Teichmuller digits) are
a second element representation for a = 1, kept here as an oracle: they add
and multiply through integer ghost components, and the Z/p^n model of
W_n(F_p) is their ground truth.  matvec is the integer matrix-vector product
of the kernel checks, int_mul_oracle the plain triple-loop integer
product, with no zero skipping, that intmat.mul and intmat._mul_units are
checked against, and int_shape_oracle the row-by-row length check behind
intmat.shape.  transpose is the tests' own integer transpose (the package
builds its differentials in the orientation it reads and transposes
nothing).  The cocharacter oracle takes its Smith forms from the Smith
oracle and their inverses from inverse_oracle (fraction-free
Gauss-Jordan), not from intmat._eliminate; it forms d^1 by transposing the
dense d_1 and multiplies full matrices with intmat.mul and no unit-row
marks, where cocharacter_group builds d^1 as rows from the face maps and
copies the unit rows through intmat._mul_units, and it reads the Smith
diagonals with its own loops, not intmat.diagonal.  wmat and wm_zero
build WittElem matrices for the tests: the package keeps its matrices as
coordinate rows and builds no WMat but the boxed views of them.  The load
oracle reads a CLI document through a text-mode file, where the CLI decodes
the bytes of an unbuffered binary read itself.  clear_caches empties every
table of the package (tests/conftest.py calls it before each test), so no
test rests on what an earlier one left in a table.  conjugate_by_permutation
relabels a module's basis entry by entry, for the tests that compare a
twisted dual with a block or a tensor product in another basis order.
realize_product_path is the realization's former product path, kept as the
reference its split path (no product for zero ext blocks) must equal.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from fcrystals import intmat
from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, _lift, abelian_from_ap, lattice_block, torus_block
from fcrystals.errors import (
    DomainError,
    IncompatibleRingsError,
    InternalError,
    InvalidExtensionDataError,
    MalformedInputError,
    ShapeError,
    UnsupportedInputError,
)
from fcrystals.onemotive import MotiveCrystal, OneMotiveSpec, PairingMatrix
from fcrystals.semilinear import (
    CheckResult,
    FilteredFModule,
    VerifyReport,
    WMat,
    _block,
    _int_rows,
    _matrix,
    _mul,
    _sigma_rows,
)
from fcrystals.serialize import elem_from_doc
from fcrystals.simplicial import SimplicialComponents
from fcrystals.witt import (
    RingParams,
    WittElem,
    frobenius,
    frobenius_inverse,
    lift_elem,
    reduce_elem,
    teichmuller,
    with_precision,
)


# ---------------------------------------------------------------------------
# integer-arithmetic oracles for the divided-power series (a = 1)


def exp_oracle(x: int, p: int, n: int) -> int:
    """Truncated sum of x^m / m! evaluated with exact integers mod p^n."""
    m_max = 2 * n + 6
    big = math.factorial(m_max)
    num = sum(x**m * (big // math.factorial(m)) for m in range(m_max + 1))
    v = 0
    d = big
    while d % p == 0:
        d //= p
        v += 1
    assert num % p**v == 0
    return (num // p**v) * pow(d, -1, p**n) % p**n


def log_oracle(u: int, p: int, n: int) -> int:
    """Truncated alternating sum of (u-1)^m / m with exact integers mod p^n."""
    y = u - 1
    m_max = 2 * n + 6
    lcm = math.lcm(*range(1, m_max + 1))
    num = sum((-1) ** (m - 1) * y**m * (lcm // m) for m in range(1, m_max + 1))
    v = 0
    d = lcm
    while d % p == 0:
        d //= p
        v += 1
    assert num % p**v == 0
    return (num // p**v) * pow(d, -1, p**n) % p**n


def _dp_series_oracle(y: WittElem, denominator, sign: int) -> WittElem:
    """sum_{m >= 1} sign^(m-1) y^m / denominator(m) for y in (p), in WittElem
    arithmetic: every m <= 3n + p at precision 3n + p, then reduced mod p^n.
    For p >= 3, v_p(m!) < m/2, so each kept term keeps n digits after its
    division and every later term vanishes mod p^n."""
    params = y.params
    top = 3 * params.n + params.p
    big = with_precision(params, top)
    yb = lift_elem(y, big)
    acc = big.zero()
    for m in range(1, top + 1):
        d, v = denominator(m), 0
        while d % params.p == 0:
            d //= params.p
            v += 1
        term = (yb**m).divide_exact(v) * big.from_int(pow(d, -1, big.pn))
        acc = acc + term if sign == 1 or m % 2 else acc - term
    return reduce_elem(acc, params)


def dp_exp_oracle(x: WittElem) -> WittElem:
    """exp(x) = 1 + sum_{m >= 1} x^m / m! by _dp_series_oracle (any a)."""
    return x.params.one() + _dp_series_oracle(x, math.factorial, 1)


def dp_log_oracle(u: WittElem) -> WittElem:
    """log(u) = sum_{m >= 1} (-1)^(m-1) (u-1)^m / m by _dp_series_oracle (any a)."""
    return _dp_series_oracle(u - u.params.one(), lambda m: m, -1)


def irreducible_oracle(modulus: Sequence[int], p: int, a: int) -> bool:
    """A monic degree-a f is irreducible mod p iff no monic g of degree
    1..a/2 divides it: tried one by one, by schoolbook division mod p."""
    f = [c % p for c in modulus]
    for d in range(1, a // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g, rem = list(tail) + [1], list(f)
            for top in range(len(rem) - 1, d - 1, -1):
                c = rem[top]
                for i, gc in enumerate(g):
                    rem[top - d + i] = (rem[top - d + i] - c * gc) % p
            if not any(rem[:d]):
                return False
    return True


# ---------------------------------------------------------------------------
# digit-based Frobenius oracle (any a)


def residue_pow_p(params: RingParams, res: tuple[int, ...]) -> tuple[int, ...]:
    """c -> c^p in the residue field, as a residue tuple."""
    return (params.elem(res) ** params.p).residue()


def teichmuller_digits(x: WittElem) -> list[tuple[int, ...]]:
    """Digits c_i of the expansion x = sum p^i tau(c_i), as residue tuples."""
    params = x.params
    digits: list[tuple[int, ...]] = []
    cur = x
    cur_params = params
    for i in range(params.n):
        c = cur.residue()
        digits.append(c)
        if i == params.n - 1:
            break
        t = teichmuller(cur_params, c)
        y = cur - t
        cur_params = with_precision(cur_params, cur_params.n - 1)
        cur = WittElem._raw(cur_params, tuple((v // params.p) % cur_params.pn for v in y.coords))
    return digits


def frobenius_oracle(x: WittElem) -> WittElem:
    """sigma(x) = sum p^i tau(c_i^p), read off the expansion x = sum p^i tau(c_i)."""
    params = x.params
    acc = params.zero()
    ppow = 1
    for c in teichmuller_digits(x):
        acc = acc + params.from_int(ppow) * teichmuller(params, residue_pow_p(params, c))
        ppow *= params.p
    return acc


# ---------------------------------------------------------------------------
# classical Witt coordinates for a = 1: the ghost-component arithmetic, a
# second element representation checked against the Galois-ring model


@dataclass(frozen=True)
class WittCoords:
    """Classical p-typical Witt coordinates over F_p (length n, digits mod p)."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(d % self.p for d in self.digits))


def _ghost(vec: Sequence[int], p: int) -> list[int]:
    n = len(vec)
    return [sum(p**j * vec[j] ** (p ** (i - j)) for j in range(i + 1)) for i in range(n)]


def _unghost(ghost: Sequence[int], p: int) -> list[int]:
    out: list[int] = []
    for i, g in enumerate(ghost):
        acc = g - sum(p**j * out[j] ** (p ** (i - j)) for j in range(i))
        q, r = divmod(acc, p**i)
        if r:
            raise DomainError("ghost vector is not in the image of the Witt map")
        out.append(q)
    return out


def coords_add(x: WittCoords, y: WittCoords) -> WittCoords:
    """Witt-vector addition computed through integer ghost components."""
    if x.p != y.p or len(x.digits) != len(y.digits):
        raise IncompatibleRingsError("Witt coordinate vectors are incompatible")
    gx, gy = _ghost(x.digits, x.p), _ghost(y.digits, x.p)
    z = _unghost([u + v for u, v in zip(gx, gy)], x.p)
    return WittCoords(x.p, tuple(z))


def coords_mul(x: WittCoords, y: WittCoords) -> WittCoords:
    if x.p != y.p or len(x.digits) != len(y.digits):
        raise IncompatibleRingsError("Witt coordinate vectors are incompatible")
    gx, gy = _ghost(x.digits, x.p), _ghost(y.digits, x.p)
    z = _unghost([u * v for u, v in zip(gx, gy)], x.p)
    return WittCoords(x.p, tuple(z))


def coords_to_elem(wc: WittCoords, params: RingParams) -> WittElem:
    """The bijection (x_i) -> sum p^i tau(x_i) onto W_n(F_p), a = 1 only."""
    if params.a != 1 or params.p != wc.p or len(wc.digits) != params.n:
        raise IncompatibleRingsError("coordinate bijection needs a = 1 and matching (p, n)")
    acc = params.zero()
    ppow = 1
    for d in wc.digits:
        acc = acc + params.from_int(ppow) * teichmuller(params, d)
        ppow *= params.p
    return acc


def elem_to_coords(x: WittElem) -> WittCoords:
    if x.params.a != 1:
        raise IncompatibleRingsError("classical coordinates are kept for a = 1 only")
    return WittCoords(x.params.p, tuple(d[0] for d in teichmuller_digits(x)))


# ---------------------------------------------------------------------------
# WittElem matrix builders (the package keeps matrices as coordinate rows)


def wmat(params: RingParams, rows: Sequence[Sequence]) -> WMat:
    """The WMat of rows whose entries are elements of params, ints or coordinate lists."""
    out = []
    width = None
    for row in _matrix(rows):
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


def wm_zero(params: RingParams, r: int, c: int) -> WMat:
    zero = params.zero()
    return tuple((zero,) * c for _ in range(r))


# ---------------------------------------------------------------------------
# element-by-element matrix loops of the oracles


def mat_sub(a: WMat, b: WMat) -> WMat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: WMat) -> WMat:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c: WittElem, a: WMat) -> WMat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_transpose(a: WMat) -> WMat:
    return tuple(zip(*a))


def mat_sigma(a: WMat) -> WMat:
    """sigma on each entry, one witt.frobenius call apiece."""
    return tuple(tuple(frobenius(x) for x in row) for row in a)


def mat_sigma_inv(a: WMat) -> WMat:
    """sigma^(-1) on each entry, one witt.frobenius_inverse call apiece."""
    return tuple(tuple(frobenius_inverse(x) for x in row) for row in a)


def mat_balanced_lift(a: WMat, big: RingParams) -> WMat:
    """Each entry lifted to big through its coordinates of least absolute
    value, so small-integer matrices lift to themselves."""
    return tuple(
        tuple(WittElem(big, [c if c <= x.params.pn // 2 else c - x.params.pn for c in x.coords]) for x in row)
        for row in a
    )


def mat_reduce(a: WMat, small: RingParams) -> WMat:
    return tuple(tuple(WittElem(small, x.coords) for x in row) for row in a)


def mat_block(params: RingParams, grid, row_sizes, col_sizes) -> WMat:
    """The block matrix of grid (None for a zero block), entry by entry."""
    zero = params.zero()
    return tuple(
        tuple(zero if b is None else b[i][j] for b, c in zip(blocks, col_sizes) for j in range(c))
        for blocks, rsize in zip(grid, row_sizes)
        for i in range(rsize)
    )


def conjugate_by_permutation(m: FilteredFModule, perm: Sequence[int]) -> FilteredFModule:
    """m with its basis relabelled by e'_k = e_{perm[k]}, entry by entry
    through the public constructor: the reference the twisted-dual and
    tensor tests relabel by (the package relabels the canonical dual inside
    semilinear._twisted_dual)."""
    relabel = lambda a: None if a is None else tuple(tuple(a[i][j] for j in perm) for i in perm)  # noqa: E731
    weights = tuple(m.weights[i] for i in perm)
    return FilteredFModule(m.params, m.rank, weights, relabel(m.f_mat), relabel(m.v_mat), m.level)


# ---------------------------------------------------------------------------
# element-path matrix kernels: one WittElem product and sum per scalar op


def wm_mul_oracle(params: RingParams, a, b):
    """The matrix product entry by entry in WittElem arithmetic."""
    ra, ca = len(a), (len(a[0]) if a else 0)
    cb = len(b[0]) if b else 0
    if ca == 0:
        return wm_zero(params, ra, cb)
    out = []
    for i in range(ra):
        row = a[i]
        orow = []
        for j in range(cb):
            acc = params.zero()
            for k in range(ca):
                acc = acc + row[k] * b[k][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def charpoly_oracle(params: RingParams, a) -> list[WittElem]:
    """det(xI - a), ascending coefficients, by Samuelson-Berkowitz in WittElem
    arithmetic."""
    r = len(a)
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


def det_oracle(params: RingParams, a) -> WittElem:
    """det(a) = (-1)^r c_0, read off charpoly_oracle of the r x r matrix a."""
    c0 = charpoly_oracle(params, a)[0]
    return -c0 if len(a) % 2 else c0


def witness_oracle(g: WMat, m1: FilteredFModule, m2: FilteredFModule) -> bool:
    """Whether g is an isomorphism m2 -> m1 in coordinates, checked with no
    matrix inverse: the same ring, rank, weights and level, V on both or on
    neither, g . F_2 = F_1 . sigma(g), g . V_2 = V_1 . sigma^(-1)(g), and
    det g a unit."""
    params = m1.params
    if (m2.params, m2.rank, m2.weights, m2.level) != (params, m1.rank, m1.weights, m1.level):
        return False
    if (m1.v_mat is None) != (m2.v_mat is None):
        return False
    if wm_mul_oracle(params, g, m2.f_mat) != wm_mul_oracle(params, m1.f_mat, mat_sigma(g)):
        return False
    if m1.v_mat is not None and wm_mul_oracle(params, g, m2.v_mat) != wm_mul_oracle(params, m1.v_mat, mat_sigma_inv(g)):
        return False
    return det_oracle(params, g).is_unit()


# ---------------------------------------------------------------------------
# dense pairing oracle


def pair_oracle(m: MotiveCrystal, m_dual: MotiveCrystal) -> PairingMatrix:
    """The evaluation pairing with the gram matrix placed block by block
    (torus against the dual lattice, abelian against the reversed dual
    abelian part, lattice against the dual torus) and checked densely: det G
    through the characteristic polynomial, weight orthogonality entry by
    entry, and both identities as two full products against p sigma^(+-1)(G)."""
    params = m.module.params
    rT, g2, rX = m.provenance.segments
    r = rT + g2 + rX
    rows = [[params.zero() for _ in range(r)] for _ in range(r)]
    one = params.one()
    for l in range(rT):
        rows[l][rX + g2 + l] = one
    for t in range(g2):
        rows[rT + t][rX + (g2 - 1 - t)] = one
    for j in range(rX):
        rows[rT + g2 + j][j] = one
    gram = tuple(tuple(row) for row in rows)
    perfect = det_oracle(params, gram).is_unit()
    wts, wts_d = m.module.weights, m_dual.module.weights
    weight_orth = all(
        gram[i][j].is_zero() for i in range(r) for j in range(r) if wts[i] + wts_d[j] < -2
    )
    p_elem = params.from_int(params.p)
    lhs_f = wm_mul_oracle(params, mat_transpose(m.module.f_mat), wm_mul_oracle(params, gram, m_dual.module.f_mat))
    frob_ok = lhs_f == mat_scale(p_elem, mat_sigma(gram))
    versch_ok = True
    if m.module.v_mat is not None:
        lhs_v = wm_mul_oracle(params, mat_transpose(m.module.v_mat), wm_mul_oracle(params, gram, m.canonical_dual.v_mat))
        versch_ok = lhs_v == mat_scale(p_elem, mat_sigma_inv(gram))
    return PairingMatrix(gram, perfect, weight_orth, frob_ok, versch_ok)


# ---------------------------------------------------------------------------
# elementwise realization and verify oracles: the WittElem versions, kept as
# they were before the pipeline moved to coordinate rows


def realize_oracle(s: OneMotiveSpec) -> FilteredFModule:
    """F and V of the presentation (see assemble), without the self-check."""
    params = s.params
    rT, g2, rX = s.segments
    r = rT + g2 + rX
    tb = torus_block(s.torus, params)
    ab = s.abelian.crystal
    lb = lattice_block(s.lattice, params)
    sizes = [rT, g2, rX]
    f = mat_block(
        params,
        [
            [tb.f_mat, s.ext_at, s.ext_xt],
            [None, ab.f_mat, s.ext_xa],
            [None, None, lb.f_mat],
        ],
        sizes,
        sizes,
    )
    # Off-diagonal blocks of p F^(-1), computed at two guard digits from
    # balanced lifts.  The cancellations in F sigma(V) = V sigma^(-1)(F) = p
    # are exact provided the lifted abelian identities hold on the nose,
    # which is the case for every built-in block constructor (their matrices
    # have small integer representatives); reject other abelian data.
    big = with_precision(params, params.n + 2)
    va_lift = mat_balanced_lift(ab.v_mat, big)
    sig_va = mat_sigma(va_lift)
    if g2:
        d_lift = mat_balanced_lift(ab.f_mat, big)
        p_ident = mat_scale(big.from_int(params.p), wmat(big, intmat.identity(g2)))
        if wm_mul_oracle(big, d_lift, sig_va) != p_ident or wm_mul_oracle(big, va_lift, mat_sigma_inv(d_lift)) != p_ident:
            raise UnsupportedInputError(
                "abelian block does not lift exactly: its balanced representatives "
                "must satisfy F sigma(V) = V sigma^(-1)(F) = p on the nose"
            )
    binv_int = wmat(big, s.torus.sigma_inverse) if rT else None
    ainv_int = wmat(big, s.lattice.sigma_inverse) if rX else None
    w_div = None
    if g2 and rX:
        prod_ax = wm_mul_oracle(big, sig_va, mat_balanced_lift(s.ext_xa, big))
        try:
            w_div = tuple(tuple(x.divide_exact(1) for x in row) for row in prod_ax)
        except DomainError:
            raise InvalidExtensionDataError(
                "sigma(V_A) . ext_xa is not divisible by p: Verschiebung is not integral"
            )
    v_ta = wm_zero(params, rT, g2)
    if rT and g2:
        pinv_ta = mat_neg(
            wm_mul_oracle(big, binv_int, wm_mul_oracle(big, mat_balanced_lift(s.ext_at, big), sig_va))
        )
        v_ta = mat_reduce(mat_sigma_inv(pinv_ta), params)
    v_ax = wm_zero(params, g2, rX)
    if g2 and rX:
        v_ax = mat_reduce(mat_sigma_inv(mat_neg(wm_mul_oracle(big, w_div, ainv_int))), params)
    v_tx = wm_zero(params, rT, rX)
    if rT and rX:
        inner = mat_neg(mat_balanced_lift(s.ext_xt, big))
        if g2:
            inner = mat_sub(
                wm_mul_oracle(big, mat_balanced_lift(s.ext_at, big), w_div),
                mat_balanced_lift(s.ext_xt, big),
            )
        v_tx = mat_reduce(mat_sigma_inv(wm_mul_oracle(big, binv_int, wm_mul_oracle(big, inner, ainv_int))), params)
    v = mat_block(
        params,
        [
            [tb.v_mat, v_ta, v_tx],
            [None, ab.v_mat, v_ax],
            [None, None, lb.v_mat],
        ],
        sizes,
        sizes,
    )
    weights = (-2,) * rT + (-1,) * g2 + (0,) * rX
    return FilteredFModule(params, r, weights, f, v, 1)


def realize_product_path(s: OneMotiveSpec) -> FilteredFModule:
    """onemotive._realize as it was before split presentations skipped the
    products: every block of V above the diagonal formed through the
    package's lifts, products and sigma^(-1) pass, zero ext blocks
    included.  Not an independent oracle (realize_oracle is one): a
    reference that the split path must give the same rows as."""
    params = s.params
    rT, g2, rX = s.segments
    tb, ab, lb = s.blocks
    ext_at, ext_xa, ext_xt = s.ext_rows
    big = with_precision(params, params.n + 2)
    p, pn, bpn = params.p, params.pn, big.pn
    sig_va = s.abelian._sigma_v_lift
    w_div, inner = [], _lift(params, big, ext_xt)
    if g2 and rX:
        prod_ax = _mul(big, sig_va, _lift(params, big, ext_xa))
        if any(c % p for row in prod_ax for x in row for c in x):
            raise InvalidExtensionDataError(
                "sigma(V_A) . ext_xa is not divisible by p: Verschiebung is not integral"
            )
        w_div = [[tuple([c // p for c in x]) for x in row] for row in prod_ax]
    at_sig = [[] for _ in range(rT)]
    if rT and g2:
        prod = _mul(big, _lift(params, big, ext_at), [r1 + r2 for r1, r2 in zip(sig_va, w_div)] if w_div else sig_va)
        at_sig = [row[:g2] for row in prod]
        if w_div:
            inner = [
                [tuple([(u - v) % bpn for u, v in zip(x, y)]) for x, y in zip(r1, r2[g2:])]
                for r1, r2 in zip(inner, prod)
            ]
    nw = len(w_div)
    over_a = _mul(big, w_div + inner, _int_rows(big, s.lattice.sigma_inverse)) if rX and (g2 or rT) else []
    top = []
    if rT and (g2 or rX):
        right = [r1 + r2 for r1, r2 in zip(at_sig, over_a[nw:])] if rX else at_sig
        top = _mul(big, _int_rows(big, s.torus.sigma_inverse), right)
    down = _sigma_rows(big, top + over_a[:nw], "frobenius_inverse_matrix")
    down = [[tuple([-c % pn for c in x]) for x in row] for row in down]
    v_ta = [row[:g2] for row in down[:rT]] if rT and g2 else None
    v_tx = [row[g2:] for row in down[:rT]] if rT and rX else None
    v_ax = down[rT:] if nw else None
    sizes = [rT, g2, rX]
    grid = [[tb.v_rows, v_ta, v_tx], [None, ab.v_rows, v_ax], [None, None, lb.v_rows]]
    v = _block(grid, sizes, sizes, (0,) * params.a)
    weights = (-2,) * rT + (-1,) * g2 + (0,) * rX
    return FilteredFModule._of_rows(params, rT + g2 + rX, weights, s.f_rows, v, 1)


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
    prod = wm_mul_oracle(m.params, a, b)
    bad = _first_entry(prod, lambda i, j, x: x != (c if i == j else zero))
    if bad is None:
        return CheckResult(name, True)
    i, j = bad
    want = c if i == j else zero
    return CheckResult(name, False, f"{claim}: entry {bad} is {list(prod[i][j].coords)}, expected {list(want.coords)}")


def verify_oracle(m: FilteredFModule) -> VerifyReport:
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
        checks.append(_product_check("fv-product", "F sigma(V)", m, m.f_mat, mat_sigma(m.v_mat)))
        checks.append(_product_check("vf-product", "V sigma^-1(F)", m, m.v_mat, mat_sigma_inv(m.f_mat)))
    return VerifyReport(tuple(checks))


# ---------------------------------------------------------------------------
# the matrix document parse, one entry at a time


def wmat_from_doc_oracle(doc, params: RingParams) -> WMat:
    """The matrix document parsed entry by entry: elem_from_doc on each entry,
    then wmat's ring and ragged-row checks."""
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise MalformedInputError("matrix must be a nested list", code="bad-matrix")
    return wmat(params, [[elem_from_doc(x, params) for x in row] for row in doc])


# ---------------------------------------------------------------------------
# the CLI's document read, in text mode


def load_oracle(path: str) -> dict:
    """The --in / --ring document read as a text-mode file: json.load of the
    file opened with encoding utf-8, whose reader decodes the bytes and
    translates their newlines, with the CLI's error codes and messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise MalformedInputError(f"no such file: {path}", code="missing-file")
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror or exc}", code="unreadable-file") from None
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}", code="bad-json") from None
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{path} does not hold a JSON object", code="bad-type")
    return doc


# ---------------------------------------------------------------------------
# fraction-field Gaussian elimination (independent kernel / rank oracle) and
# Bareiss elimination (independent determinant oracle)


def rank_over_q(mat: list[list[int]]) -> int:
    if not mat or not mat[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        d = m[rank][col]
        m[rank] = [x / d for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_mul_oracle(a, b, cols: int) -> list[list[int]]:
    """The integer product a b by the triple loop, every term summed; cols is
    the width of b, which b = [] cannot carry."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def transpose(a) -> list[list[int]]:
    """The transpose of an integer matrix; an r x 0 matrix raises, since its
    0 x r transpose would read as [] (0 x 0)."""
    r, c = intmat.shape(a)
    if r and not c:
        raise ShapeError(f"the transpose of a {r}x0 matrix would lose its {r} columns")
    return [list(col) for col in zip(*a)]


def int_shape_oracle(a) -> tuple[int, int] | None:
    """(rows, columns) of a sequence of rows, read row by row; None when two
    rows differ in length."""
    widths = [len(row) for row in a]
    for w in widths:
        if w != widths[0]:
            return None
    return len(a), widths[0] if widths else 0


def kernel_rank_over_q(mat: list[list[int]]) -> int:
    cols = len(mat[0]) if mat else 0
    return cols - rank_over_q(mat)


def bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant (Bareiss elimination) of a square matrix."""
    r = len(a)
    if r == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(r - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, r) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def inverse_oracle(a: list[list[int]]) -> list[list[int]]:
    """The integer inverse of a unimodular matrix by fraction-free
    Gauss-Jordan elimination (Bareiss) on [a | I]: every division is exact,
    and the left block ends as d I with d = +-1, the right one as d a^(-1)."""
    r = len(a)
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    prev = 1
    for k in range(r):
        pivot_row = next(i for i in range(k, r) if m[i][k])
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k]
        for i in range(r):
            if i != k:
                mi, c = m[i], m[i][k]
                m[i] = [(pivot[k] * x - c * y) // prev for x, y in zip(mi, pivot)]
        prev = pivot[k]
    if abs(prev) != 1:
        raise ValueError("matrix is not unimodular")
    return [[x * prev for x in row[r:]] for row in m]


# ---------------------------------------------------------------------------
# Smith normal form oracle


def _smith_pivot(m, t, rows, cols):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_oracle(a):
    """(U, D, V) of the Smith normal form as first written: a full pivot scan
    at every step, and the divisor-chain sweep after every pivot, even a
    pivot of 1.  intmat.smith_normal_form must return the same triple."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        piv = _smith_pivot(m, t, rows, cols)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
                u[t] = [-x for x in u[t]]
            # reduce column t
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if m[i][t]:
                        dirty = True
            if dirty:
                piv = _smith_pivot(m, t, rows, cols)
                continue
            # reduce row t
            dirty = False
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        dirty = True
            if dirty:
                piv = _smith_pivot(m, t, rows, cols)
                continue
            # pivot must divide the remaining submatrix for the divisor chain
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            piv = _smith_pivot(m, t, rows, cols)
        t += 1
    return u, m, v


def sparse_rows(a) -> list[dict[int, int]]:
    """The rows of a dense integer matrix as intmat's sparse rows: one dict
    {column: value} of the nonzeros per row, read entry by entry."""
    return [{j: x for j, x in enumerate(row) if x != 0} for row in a]


def dense_rows(rows, width: int) -> list[list[int]]:
    """The dense matrix of sparse rows of the given width, entry by entry."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def _dense_pivot(m, t, rows, cols):
    best, least = None, 0
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(m[i][j])
            if v and (not least or v < least):
                best, least = (i, j), v
    return best


def eliminate_oracle(a, build):
    """The dense-row elimination intmat._eliminate replaced, kept as the
    reference for its transforms and its unit-row marks: (U, D, V^T,
    (U^(-1))^T, V^(-1), ue, ve) as dense matrices, each transform None
    unless build names it, with a full pivot scan.  Rows and columns are
    swapped in place, every transform row is dense, and the marks are set
    by the same rules: a row of (U^(-1))^T or V^(-1) keeps its mark k while
    it is e_k, and loses it (-1) once negated, written as a pivot row or
    hit by the divisor-chain fix-up."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) for row in a]

    def ident(n, name):
        return [[int(i == j) for j in range(n)] for i in range(n)] if name in build else None

    u, vt, ut, vi = ident(rows, "u"), ident(cols, "v"), ident(rows, "u_inv"), ident(cols, "v_inv")
    ue = None if ut is None else list(range(rows))
    ve = None if vi is None else list(range(cols))
    row_ops = [x for x in (m, u, ut, ue) if x is not None]
    col_ops = [x for x in (vt, vi, ve) if x is not None]
    t = 0
    while t < min(rows, cols):
        piv = _dense_pivot(m, t, rows, cols)
        if piv is None:
            break
        while True:
            pi, pj = piv
            for x in row_ops:
                x[t], x[pi] = x[pi], x[t]
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            for x in col_ops:
                x[t], x[pj] = x[pj], x[t]
            if m[t][t] < 0:
                for x in (m, u, ut):
                    if x is not None:
                        x[t] = [-y for y in x[t]]
                if ue is not None:
                    ue[t] = -1
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                        if u is not None:
                            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                        if ut is not None:
                            ut[t] = [x + q * y for x, y in zip(ut[t], ut[i])]
                            ue[t] = -1
                    dirty = dirty or bool(m[i][t])
            if not dirty:
                for j in range(t + 1, cols):
                    if m[t][j]:
                        q = m[t][j] // m[t][t]
                        if q:
                            m[t][j] -= q * m[t][t]
                            if vt is not None:
                                vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                            if vi is not None:
                                vi[t] = [x + q * y for x, y in zip(vi[t], vi[j])]
                                ve[t] = -1
                        dirty = dirty or bool(m[t][j])
            if dirty:
                piv = _dense_pivot(m, t, rows, cols)
                continue
            bad = next((i for i in range(t + 1, rows) if any(x % m[t][t] for x in m[i][t + 1 :])), None)
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
            if ut is not None:
                ut[bad] = [x - y for x, y in zip(ut[bad], ut[t])]
                ue[bad] = -1
            piv = _dense_pivot(m, t, rows, cols)
        t += 1
    return u, m, vt, ut, vi, ue, ve


def cocharacter_oracle(d1, d2, c1: int):
    """(rank, basis) of Ker d^2 / Im d^1 by the dense formula: the same two
    Smith forms as simplicial.cocharacter_group, taken from smith_oracle
    with their inverses from inverse_oracle, and d^1 and the lift formed by
    transpose and intmat.mul on full matrices.  Raises the same
    InternalError when an invariant fails."""
    c2 = len(d2[0]) if d2 else 0
    dual2 = transpose(d2) if c2 else [[0] * c1]
    _, d, v = smith_oracle(dual2)
    r2 = sum(1 for i in range(min(len(d), c1)) if d[i][i])
    if r2 == c1:
        return 0, []
    image = intmat.mul(inverse_oracle(v), transpose(d1))
    if any(x for row in image[:r2] for x in row):
        raise InternalError("image of d^1 does not land in Ker d^2")
    u, d, _ = smith_oracle(image[r2:])
    nz = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]
    if any(x != 1 for x in nz):
        raise InternalError("image of C_1 -> C_0 is not a direct summand")
    rank = c1 - r2 - len(nz)
    if not rank:  # the c1 x 0 lift has no transpose to take
        return 0, []
    lift = intmat.mul([row[r2:] for row in v], [row[len(nz) :] for row in inverse_oracle(u)])
    return rank, transpose(lift)


# ---------------------------------------------------------------------------
# random generators (all driven by a caller-provided random.Random)


def random_unimodular(rng: random.Random, r: int, steps: int | None = None) -> list[list[int]]:
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    if r < 2:
        return m
    for _ in range(steps if steps is not None else 2 * r):
        i, j = rng.sample(range(r), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    for i in range(r):
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    return m


def random_signed_permutation(rng: random.Random, r: int) -> tuple[tuple[int, ...], ...]:
    perm = list(range(r))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(r)]
    return tuple(
        tuple(signs[i] if perm[i] == j else 0 for j in range(r)) for i in range(r)
    )


def random_abelian(rng: random.Random, params: RingParams, g: int) -> AbelianBlock:
    if g == 0:
        return AbelianBlock.empty(params)
    traces = [t for t in range(-2, 3) if t * t <= 4 * params.p]
    block = abelian_from_ap(rng.choice(traces), params)
    for _ in range(g - 1):
        block = block + abelian_from_ap(rng.choice(traces), params)
    return block


def random_motive_spec(
    rng: random.Random,
    params: RingParams,
    max_x: int = 3,
    max_t: int = 3,
    max_g: int = 2,
    label: str = "random",
) -> OneMotiveSpec:
    """A valid random presentation: signed-permutation Galois actions, random
    companion abelian blocks, arbitrary ext_at / ext_xt, and ext_xa drawn
    from the image of the abelian Frobenius (which makes V integral)."""
    r_x = rng.randint(0, max_x)
    r_t = rng.randint(0, max_t)
    g = rng.randint(0, max_g)
    lattice = LatticeData(r_x, random_signed_permutation(rng, r_x))
    torus = TorusData(r_t, random_signed_permutation(rng, r_t))
    abelian = random_abelian(rng, params, g)
    g2 = 2 * g
    pn = params.pn

    def rand_mat(rows: int, cols: int):
        if rows == 0:
            return wm_zero(params, rows, cols)
        return wmat(params, [[rng.randrange(pn) for _ in range(cols)] for _ in range(rows)])

    ext_at = rand_mat(r_t, g2)
    ext_xt = rand_mat(r_t, r_x)
    if g2 and r_x:
        seed_block = rand_mat(g2, r_x)
        ext_xa = wm_mul_oracle(params, abelian.crystal.f_mat, seed_block)
    else:
        ext_xa = wm_zero(params, g2, r_x)
    return OneMotiveSpec(params, lattice, torus, abelian, ext_at, ext_xa, ext_xt, label)


def clear_caches() -> None:
    """Empty every table of the package that has cache_clear: the lru_cache
    functions found in the namespace of each loaded fcrystals module."""
    for name, module in list(sys.modules.items()):
        if name == "fcrystals" or name.startswith("fcrystals."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def failing_first_check(verify):
    """verify, with the first check of each report it returns turned into a
    failure: a module the checks accept, made to fail them."""

    def failing(m):
        rep = verify(m)
        return replace(rep, checks=(replace(rep.checks[0], ok=False),) + rep.checks[1:])

    return failing


def slope_half_block(params: RingParams) -> AbelianBlock:
    """The rank-2 abelian block with F = V = [[0, p], [1, 0]] (both slopes 1/2),
    valid at every residue degree a once n >= 2a + 1."""
    mat = wmat(params, [[0, params.p], [1, 0]])
    return AbelianBlock.from_module(FilteredFModule(params, 2, (-1, -1), mat, mat, 1))


def cube_root_block(params: RingParams) -> AbelianBlock:
    """A rank-2 slope-1/2 block whose small entries sigma moves: over
    W_n(F_4) with modulus t^2 + t + 1, t^3 = 1 and sigma(t) = t^2 = -1 - t
    exactly, so F = [[0, 2], [t, 0]] and V = [[0, 2t], [1, 0]] satisfy
    F sigma(V) = V sigma^(-1)(F) = 2 on the nose."""
    if (params.p, params.a, params.modulus) != (2, 2, (1, 1, 1)):
        raise ValueError("cube_root_block lives over W_n(F_4) with modulus t^2 + t + 1")
    f = wmat(params, [[0, 2], [[0, 1], 0]])
    v = wmat(params, [[0, [0, 2]], [1, 0]])
    return AbelianBlock.from_module(FilteredFModule(params, 2, (-1, -1), f, v, 1))


def random_galois_motive_spec(
    rng: random.Random, params: RingParams, max_x: int = 3, max_t: int = 3, block=slope_half_block
) -> OneMotiveSpec:
    """A valid random presentation over any W_n(F_{p^a}): signed-permutation
    actions, no abelian part or block(params), extension entries with all a
    coordinates random, and ext_xa in the image of the abelian Frobenius."""
    r_x, r_t, g2 = rng.randint(0, max_x), rng.randint(0, max_t), 2 * rng.randint(0, 1)
    abelian = block(params) if g2 else AbelianBlock.empty(params)

    def rand_mat(rows: int, cols: int):
        entries = [[[rng.randrange(params.pn) for _ in range(params.a)] for _ in range(cols)] for _ in range(rows)]
        return wmat(params, entries) if rows else wm_zero(params, rows, cols)

    ext_xa = wm_mul_oracle(params, abelian.crystal.f_mat, rand_mat(g2, r_x)) if g2 and r_x else wm_zero(params, g2, r_x)
    return OneMotiveSpec(
        params,
        LatticeData(r_x, random_signed_permutation(rng, r_x)),
        TorusData(r_t, random_signed_permutation(rng, r_t)),
        abelian,
        rand_mat(r_t, g2),
        ext_xa,
        rand_mat(r_t, r_x),
        "galois",
    )


def random_simplicial(
    rng: random.Random, max_count: int | tuple[int, int, int] = 6, min_count: int = 1, redraws: int = 0
) -> SimplicialComponents:
    """A valid random 2-truncated component structure, with min_count to
    max_count components a level (one bound, or one per level c0, c1, c2).

    Edge 0 is forced to be a loop on vertex 0 so level-2 faces can always be
    completed compatibly with the simplicial identities: a face triple with
    no compatible third edge is drawn again, up to redraws * c2 more times,
    and then collapsed onto that loop.
    """
    highs = max_count if isinstance(max_count, tuple) else (max_count,) * 3
    c0, c1, c2 = (rng.randint(min_count, high) for high in highs)
    d0 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    d1 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    f0, f1, f2 = [], [], []
    for _ in range(c2):
        for _ in range(1 + redraws * c2):
            e0 = rng.randrange(c1)
            e1 = rng.choice([e for e in range(c1) if d0[e] == d0[e0]])
            cands = [e for e in range(c1) if d0[e] == d1[e0] and d1[e] == d1[e1]]
            if cands:
                e2 = rng.choice(cands)
                break
        else:
            e0 = e1 = e2 = 0
        f0.append(e0)
        f1.append(e1)
        f2.append(e2)
    return SimplicialComponents(
        (c0, c1, c2),
        ((tuple(d0), tuple(d1)), (tuple(f0), tuple(f1), tuple(f2))),
    )
