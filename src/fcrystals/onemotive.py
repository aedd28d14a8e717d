"""Crystalline-side realization of an explicitly presented 1-motive.

A motive presentation holds the discrete data (lattice and cocharacter
actions, an abelian block) together with explicit extension blocks over
W_n(k).  Assembly produces a level-1 filtered module whose basis is ordered
torus part (weight -2), abelian part (weight -1), lattice part (weight 0),
with the extension blocks sitting strictly above the diagonal; Verschiebung
is determined as sigma^(-1)(p F^(-1)) from the canonical integer lift of F
and must come out integral.  The realization computes on coordinate rows at
two guard digits and boxes only the three off-diagonal V blocks it returns;
the graded blocks are built once per presentation.

The dual presentation is constructed so that assembling it reproduces the
twisted dual of the assembled module up to an explicit basis permutation,
and the evaluation pairing between the two is the reversed permutation,
satisfying <F-, F-> = p sigma<-,-> and <V-, V-> = p sigma^(-1)<-,->.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import intmat
from .blocks import AbelianBlock, LatticeData, TorusData, lattice_block, torus_block
from .errors import (
    FCrystalsError,
    IncompatibleRingsError,
    InternalError,
    InvalidExtensionDataError,
    MalformedInputError,
    ShapeError,
    UnsupportedInputError,
)
from .semilinear import (
    FilteredFModule,
    VerifyReport,
    _box,
    _mul,
    _scalar_gap,
    _sigma_rows,
    conjugate_by_permutation,
    twisted_dual,
    verify,
    wm_block,
    wm_det,
    wm_eq,
    wm_mul,
    wm_shape,
    wm_submatrix,
    wm_transpose,
    wm_zero,
    WMat,
)
from .witt import RingParams, with_precision

__all__ = [
    "OneMotiveSpec",
    "MotiveCrystal",
    "PairingMatrix",
    "MotiveReport",
    "assemble",
    "cartier_dual",
    "pair",
    "verify_motive",
    "torsion_height",
    "tdr_dimension",
    "dual_witness",
]


@dataclass(frozen=True)
class OneMotiveSpec:
    """Explicit presentation: discrete blocks plus extension data.

    Block shapes (g = abelian.dim): ext_at is torus.rank x 2g (abelian into
    torus), ext_xa is 2g x lattice.rank (lattice into abelian), ext_xt is
    torus.rank x lattice.rank (lattice into torus).
    """

    params: RingParams
    lattice: LatticeData
    torus: TorusData
    abelian: AbelianBlock
    ext_at: WMat
    ext_xa: WMat
    ext_xt: WMat
    label: str = ""

    def __post_init__(self):
        rT, g2, rX = self.segments
        if self.abelian.crystal.params != self.params:
            raise IncompatibleRingsError("abelian block lives over a different ring")
        for name, blk, shp in (
            ("ext_at", self.ext_at, (rT, g2)),
            ("ext_xa", self.ext_xa, (g2, rX)),
            ("ext_xt", self.ext_xt, (rT, rX)),
        ):
            # a 0-row matrix is an empty tuple and carries no column count
            ok = len(blk) == shp[0] and (shp[0] == 0 or all(len(r) == shp[1] for r in blk))
            if not ok:
                raise ShapeError(f"{name} must be {shp[0]}x{shp[1]}, got {wm_shape(blk)}")

    @property
    def segments(self) -> tuple[int, int, int]:
        """Ranks of the (torus, abelian, lattice) basis segments."""
        return self.torus.rank, 2 * self.abelian.dim, self.lattice.rank

    @cached_property
    def blocks(self) -> tuple[FilteredFModule, FilteredFModule, FilteredFModule]:
        """The (torus, abelian, lattice) graded blocks, built once per presentation."""
        return torus_block(self.torus, self.params), self.abelian.crystal, lattice_block(self.lattice, self.params)

    @cached_property
    def assembled(self) -> "MotiveCrystal":
        """The assembled motive crystal (see assemble), realized and
        self-checked on first use and then kept on this presentation."""
        mc = MotiveCrystal(_realize(self), self)
        if not mc.report.ok:
            raise InternalError(f"assembled module failed verification: {mc.report.first_failure}")
        return mc

    @staticmethod
    def split(
        params: RingParams,
        lattice: LatticeData,
        torus: TorusData,
        abelian: AbelianBlock,
        label: str = "",
    ) -> "OneMotiveSpec":
        rT, g2, rX = torus.rank, 2 * abelian.dim, lattice.rank
        return OneMotiveSpec(
            params,
            lattice,
            torus,
            abelian,
            wm_zero(params, rT, g2),
            wm_zero(params, g2, rX),
            wm_zero(params, rT, rX),
            label,
        )


@dataclass(frozen=True)
class MotiveCrystal:
    """Assembled (or hand-altered) filtered module together with the
    presentation it came from.

    Two values derived from the module are computed on first use and kept
    here: its verify report, and its canonical dual, the twisted dual
    relabelled into the basis order of the dual presentation.
    """

    module: FilteredFModule
    provenance: OneMotiveSpec

    @cached_property
    def report(self) -> VerifyReport:
        return verify(self.module)

    @cached_property
    def canonical_dual(self) -> FilteredFModule:
        rT, g2, rX = self.provenance.segments
        return conjugate_by_permutation(twisted_dual(self.module), _dual_permutation(rX, g2, rT))


def assemble(s: OneMotiveSpec) -> MotiveCrystal:
    """Build the filtered module of the presentation and check that it
    verifies.

    F is block upper triangular over the (torus, abelian, lattice) basis;
    V is sigma^(-1)(p F^(-1)), computed blockwise at raised precision from
    the canonical lift, and must be integral: concretely the product
    sigma(V_A) . ext_xa must vanish mod p, otherwise the extension data is
    rejected.

    The work is done once per presentation object: the result is kept on s
    (OneMotiveSpec.assembled), so assemble(s) is assemble(s), and its report
    and canonical dual are shared by every later caller.
    """
    return s.assembled


def _realize(s: OneMotiveSpec) -> FilteredFModule:
    """F and V of the presentation (see assemble), without the self-check."""
    params = s.params
    rT, g2, rX = s.segments
    r = rT + g2 + rX
    tb, ab, lb = s.blocks
    sizes = [rT, g2, rX]
    f = wm_block(
        params,
        [
            [tb.f_mat, s.ext_at, s.ext_xt],
            [None, ab.f_mat, s.ext_xa],
            [None, None, lb.f_mat],
        ],
        sizes,
        sizes,
    )
    # Off-diagonal blocks of p F^(-1), on coordinate rows at two guard digits
    # from balanced lifts.  The cancellations in F sigma(V) = V sigma^(-1)(F)
    # = p are exact provided the lifted abelian identities hold on the nose,
    # as for every built-in block constructor (their matrices have small
    # integer representatives); reject other abelian data.
    big = with_precision(params, params.n + 2)
    p, pn, half, bpn, pad = params.p, params.pn, params.pn // 2, big.pn, (0,) * (params.a - 1)

    def lift(m: WMat) -> list[list[tuple[int, ...]]]:
        return [[tuple((c if c <= half else c - pn) % bpn for c in x.coords) for x in row] for row in m]

    # p F^(-1) has blocks -B^(-1) ext_at sigma(V_A), -w_div A^(-1) and
    # -B^(-1) (ext_xt - ext_at w_div) A^(-1); V's blocks are sigma^(-1) of them
    def down(rows) -> WMat:  # -sigma^(-1)(rows), reduced to W_n and boxed
        inv = _sigma_rows(big, rows, "frobenius_inverse_matrix")
        return _box(params, [[tuple(-c % pn for c in x) for x in row] for row in inv])

    va = lift(ab.v_mat)
    sig_va = _sigma_rows(big, va, "frobenius_matrix")
    if g2:
        d = lift(ab.f_mat)
        if _scalar_gap(big, _mul(big, d, sig_va), p) or _scalar_gap(
            big, _mul(big, va, _sigma_rows(big, d, "frobenius_inverse_matrix")), p
        ):
            raise UnsupportedInputError(
                "abelian block does not lift exactly: its balanced representatives "
                "must satisfy F sigma(V) = V sigma^(-1)(F) = p on the nose"
            )
    binv = [[(c % bpn,) + pad for c in row] for row in s.torus.sigma_inverse]
    ainv = [[(c % bpn,) + pad for c in row] for row in s.lattice.sigma_inverse]
    v_ta, v_ax, v_tx = wm_zero(params, rT, g2), wm_zero(params, g2, rX), wm_zero(params, rT, rX)
    at, inner = lift(s.ext_at), lift(s.ext_xt)  # inner: ext_xt - ext_at . w_div
    if g2 and rX:
        prod_ax = _mul(big, sig_va, lift(s.ext_xa))
        if any(c % p for row in prod_ax for x in row for c in x):
            raise InvalidExtensionDataError(
                "sigma(V_A) . ext_xa is not divisible by p: Verschiebung is not integral"
            )
        w_div = [[tuple(c // p for c in x) for x in row] for row in prod_ax]
        v_ax = down(_mul(big, w_div, ainv))
        at_w = _mul(big, at, w_div)
        inner = [[tuple((u - v) % bpn for u, v in zip(x, y)) for x, y in zip(r1, r2)] for r1, r2 in zip(inner, at_w)]
    if rT and g2:
        v_ta = down(_mul(big, binv, _mul(big, at, sig_va)))
    if rT and rX:
        v_tx = down(_mul(big, binv, _mul(big, inner, ainv)))
    v = wm_block(
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


def _inverse_transpose(d: LatticeData) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in intmat.transpose(d.sigma_inverse))


def _dual_permutation(rX: int, g2: int, rT: int) -> list[int]:
    """Block-diagonal permutation (reverse, identity, reverse) on segments of
    sizes (rX, g2, rT)."""
    perm = [rX - 1 - i for i in range(rX)]
    perm += [rX + i for i in range(g2)]
    perm += [rX + g2 + (rT - 1 - i) for i in range(rT)]
    return perm


def cartier_dual(s: OneMotiveSpec) -> OneMotiveSpec:
    """Dual presentation: lattice and torus swap with inverse-transpose
    actions, the abelian block is replaced by its twisted dual, and the
    extension blocks are read off the canonical dual of assemble(s), so that
    assembling the dual reproduces it (see dual_witness).  Nothing of s is
    rebuilt: its realization and canonical dual are the ones kept on
    assemble(s)."""
    params = s.params
    rT, g2, rX = s.segments
    f_c = assemble(s).canonical_dual.f_mat
    torus2 = TorusData(rX, _inverse_transpose(s.lattice))
    lattice2 = LatticeData(rT, _inverse_transpose(s.torus))
    abelian2 = AbelianBlock(s.abelian.dim, twisted_dual(s.abelian.crystal)) if g2 else AbelianBlock.empty(params)
    seg_t, seg_a, seg_x = range(0, rX), range(rX, rX + g2), range(rX + g2, rX + g2 + rT)
    dual = OneMotiveSpec(
        params,
        lattice2,
        torus2,
        abelian2,
        wm_submatrix(f_c, seg_t, seg_a),
        wm_submatrix(f_c, seg_a, seg_x),
        wm_submatrix(f_c, seg_t, seg_x),
        label=f"{s.label}^dual" if s.label else "dual",
    )
    # diagonal blocks of the canonical dual must agree with the dual blocks
    for what, seg, block in zip(("torus", "abelian", "lattice"), (seg_t, seg_a, seg_x), dual.blocks):
        if not wm_eq(wm_submatrix(f_c, seg, seg), block.f_mat):
            raise InternalError(f"the {what} block of the canonical dual disagrees with the dual spec")
    return dual


def dual_witness(s: OneMotiveSpec):
    """Return (twisted, assembled_dual, perm) where conjugating the twisted
    dual of assemble(s) by the permutation reproduces assemble(cartier_dual(s))."""
    rT, g2, rX = s.segments
    return twisted_dual(assemble(s).module), assemble(cartier_dual(s)).module, _dual_permutation(rX, g2, rT)


@dataclass(frozen=True)
class PairingMatrix:
    """Gram matrix of the evaluation pairing in the canonical dual bases,
    with the verified compatibilities."""

    gram: WMat
    perfect: bool
    weight_orthogonal: bool
    frobenius_compatible: bool
    verschiebung_compatible: bool

    @property
    def ok(self) -> bool:
        return (
            self.perfect
            and self.weight_orthogonal
            and self.frobenius_compatible
            and self.verschiebung_compatible
        )


def pair(m: MotiveCrystal, m_dual: MotiveCrystal) -> PairingMatrix:
    """Evaluation pairing of a motive against its assembled dual.

    In the canonical bases G is the matrix of pi, the reverse of
    _dual_permutation (G[i][j] = 1 iff j = pi[i]), and every identity is
    checked on pi: perfectness (pi is a bijection), weight orthogonality
    <W_i, W_j> = 0 for i + j < -2 on the pairs (i, pi[i]), and
    F^T . G . F' = p sigma(G),  V^T . G . V' = p sigma^(-1)(G), each one
    product, as G . X reindexes the rows of X and sigma^(+-1) fixes G.

    The Frobenius identity uses the dual module as given.  The Verschiebung
    identity uses the Verschiebung of m's canonical dual (the twisted-dual
    matrix determined by m's Frobenius, kept on m): a dual re-assembled from
    its mod-p^n presentation may legitimately differ from it by kernel slack
    in the top p-adic digit, which is invisible to the underlying objects.
    """
    params = m.module.params
    if params != m_dual.module.params:
        raise IncompatibleRingsError("pairing operands live over different rings")
    rT, g2, rX = m.provenance.segments
    if m_dual.provenance.segments != (rX, g2, rT):
        raise ShapeError("dual operand has incompatible graded ranks")
    r = rT + g2 + rX
    if m.module.rank != r or m_dual.module.rank != r:
        raise ShapeError(
            f"pairing operands have ranks {m.module.rank} and {m_dual.module.rank}, "
            f"their presentations {r}"
        )
    pi = _dual_permutation(rX, g2, rT)[::-1]
    zero = params.zero()

    def placed(c):  # c at each (i, pi[i]), zero elsewhere
        return tuple(tuple(c if j == pi[i] else zero for j in range(r)) for i in range(r))

    gram, p_gram = placed(params.one()), placed(params.from_int(params.p))
    perfect = sorted(pi) == list(range(r))
    wts, wts_d = m.module.weights, m_dual.module.weights
    weight_orth = all(wts[i] + wts_d[pi[i]] >= -2 for i in range(r))

    def compatible(a: WMat, b: WMat) -> bool:
        return wm_eq(wm_mul(params, wm_transpose(a), tuple(b[k] for k in pi)), p_gram)

    frob_ok = compatible(m.module.f_mat, m_dual.module.f_mat)
    versch_ok = m.module.v_mat is None or compatible(m.module.v_mat, m.canonical_dual.v_mat)
    return PairingMatrix(gram, perfect, weight_orth, frob_ok, versch_ok)


@dataclass(frozen=True)
class MotiveReport:
    """Per-item pass/fail report for the structural property list."""

    items: tuple[tuple[str, bool, str], ...]
    graded_ranks: tuple[int, int, int]  # (Gr_0, Gr_-1, Gr_-2)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def failed(self) -> list[str]:
        return [key for key, ok, _ in self.items if not ok]


def verify_motive(m: MotiveCrystal) -> MotiveReport:
    """Check the full structural property list of an assembled (or hand
    altered) motive module against its presentation: rank and freeness,
    filtration shape, graded ranks and graded blocks, F/V flag behaviour and
    compositions, unimodularity of V on Gr_0 and of F on Gr_-2, and the
    duality pairing against the assembled dual presentation.

    Item 4 reads m.report, so a module from assemble reuses the report of
    its self-check.  Item 5 reads the dual off assemble(s), the realization
    of the presentation kept on s, never off the module under test."""
    s = m.provenance
    params = s.params
    mod = m.module
    rT, g2, rX = s.segments
    r_expect = rT + g2 + rX
    items: list[tuple[str, bool, str]] = []

    ok = mod.rank == r_expect and mod.params == params
    items.append(("1", ok, f"rank {mod.rank} (expected {r_expect})"))

    items.append(("2.a", all(w <= 0 for w in mod.weights), "weights bounded above by 0"))
    n_le_m1 = sum(1 for w in mod.weights if w <= -1)
    items.append(("2.b", n_le_m1 == rT + g2, f"rank W_-1 = {n_le_m1} (expected {rT + g2})"))
    n_le_m2 = sum(1 for w in mod.weights if w <= -2)
    items.append(("2.c", n_le_m2 == rT, f"rank W_-2 = {n_le_m2} (expected {rT})"))
    items.append(("2.d", all(w >= -2 for w in mod.weights), "no weights below -2"))

    shape_ok = mod.weights == (-2,) * rT + (-1,) * g2 + (0,) * rX and mod.rank == r_expect
    tb, ab, lb = s.blocks
    seg_t = range(0, rT)
    seg_a = range(rT, rT + g2)
    seg_x = range(rT + g2, r_expect)

    def graded_match(seg, block):
        if not shape_ok:
            return False
        f_ok = wm_eq(wm_submatrix(mod.f_mat, seg, seg), block.f_mat)
        v_ok = mod.v_mat is not None and wm_eq(wm_submatrix(mod.v_mat, seg, seg), block.v_mat)
        return f_ok and v_ok

    items.append(("3.a", graded_match(seg_t, tb), f"Gr_-2 free of rank {rT}, toric block"))
    items.append(("3.b", graded_match(seg_a, ab), f"Gr_-1 free of rank {g2}, abelian block"))
    items.append(("3.c", graded_match(seg_x, lb), f"Gr_0 free of rank {rX}, lattice block"))

    rep = m.report
    by_name = {c.name: c for c in rep.checks}
    flag_ok = (
        by_name["weight-order"].ok
        and by_name["flag-F"].ok
        and ("flag-V" not in by_name or by_name["flag-V"].ok)
    )
    items.append(("4.a", flag_ok, "F and V respect the weight flag"))
    fv_ok = (
        mod.v_mat is not None
        and by_name.get("fv-product") is not None
        and by_name["fv-product"].ok
        and by_name["vf-product"].ok
        and mod.level == 1
    )
    items.append(("4.b", bool(fv_ok), "F sigma(V) = V sigma^-1(F) = p"))
    v_gr0_ok = (
        shape_ok
        and mod.v_mat is not None
        and (rX == 0 or wm_det(params, wm_submatrix(mod.v_mat, seg_x, seg_x)).is_unit())
    )
    items.append(("4.c", bool(v_gr0_ok), "V unimodular on Gr_0"))
    f_gr2_ok = shape_ok and (rT == 0 or wm_det(params, wm_submatrix(mod.f_mat, seg_t, seg_t)).is_unit())
    items.append(("4.d", f_gr2_ok, "F unimodular on Gr_-2"))

    try:
        pairing = pair(m, assemble(cartier_dual(s)))
        items.append(("5", pairing.ok, "perfect pairing against the assembled dual"))
    except InternalError:
        raise
    except FCrystalsError as exc:  # report invalid data, never raise
        items.append(("5", False, f"pairing failed: {exc}"))

    gr0 = sum(1 for w in mod.weights if w == 0)
    gr1 = sum(1 for w in mod.weights if w == -1)
    gr2 = sum(1 for w in mod.weights if w == -2)
    return MotiveReport(tuple(items), (gr0, gr1, gr2))


def torsion_height(s: OneMotiveSpec, n: int) -> tuple[int, int]:
    """Height of the p-divisible part and the exponent e with |M[p^n]| = p^e,
    from the discrete data alone: height = rk X + dim T + 2g, e = n * height.
    A level n that is not an int >= 0 raises MalformedInputError (bad-level)."""
    if type(n) is not int or n < 0:
        raise MalformedInputError(f"torsion level n = {n!r} must be a non-negative integer", code="bad-level")
    rT, g2, rX = s.segments
    height = rX + rT + g2
    return height, n * height


def tdr_dimension(s: OneMotiveSpec) -> int:
    """Lie-algebra dimension of the universal vector extension:
    dim G + g + rk X = (dim T + g) + g + rk X."""
    dim_g = s.torus.rank + s.abelian.dim
    return dim_g + s.abelian.dim + s.lattice.rank
