"""Crystalline-side realization of an explicitly presented 1-motive.

A motive presentation holds the discrete data (lattice and cocharacter
actions, an abelian block) together with explicit extension blocks over
W_n(k).  Assembly produces a level-1 filtered module whose basis is ordered
torus part (weight -2), abelian part (weight -1), lattice part (weight 0),
with the extension blocks sitting strictly above the diagonal; Verschiebung
is determined as sigma^(-1)(p F^(-1)) from the canonical integer lift of F
and must come out integral.  The realization, the dual presentation, the
pairing and the structural checks all compute on the modules' coordinate
rows (the realization at two guard digits); a presentation keeps its ext
blocks as rows, and its graded blocks and F are built once per
presentation (the dual's F is read off the canonical dual).  A presentation
holds its assembled crystal weakly and the crystal holds the presentation,
so both are freed by reference count, with no reference cycle.

The discrete pieces come from the bounded tables of fcrystals.blocks, so
each distinct piece of a batch is checked and built once: the inverse of an
action, the lattice and torus blocks of a datum over a ring (the dual's,
whose data come from LatticeData.dual, included), and the checked abelian
block of a module.  The realization reads the abelian block's exact lift,
and cartier_dual its twisted dual, both kept on the block.  Presentations,
realizations and reports are not kept: each is distinct within a batch.
Every check that decides an item or raises still runs once per distinct
piece, and what the tables hold never changes an output.

The dual presentation is constructed so that assembling it reproduces the
twisted dual of the assembled module up to an explicit basis permutation,
and the evaluation pairing between the two is the reversed permutation,
satisfying <F-, F-> = p sigma<-,-> and <V-, V-> = p sigma^(-1)<-,->.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .blocks import AbelianBlock, LatticeData, TorusData, _lift, lattice_block, torus_block
from .errors import (
    FCrystalsError,
    IncompatibleRingsError,
    InternalError,
    InvalidExtensionDataError,
    MalformedInputError,
    ShapeError,
)
from .semilinear import FilteredFModule, Rows, VerifyReport, WMat, _block, _box, _charpoly, _coords, _det
from .semilinear import _int_rows, _mul, _sigma_rows, conjugate_by_permutation, twisted_dual, verify
from .semilinear import wm_shape
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
    torus.rank x lattice.rank (lattice into torus).  The label is a string;
    None is the empty label.  The blocks are kept as
    coordinate rows in ext_rows, which the realization reads; ext_at, ext_xa
    and ext_xt are boxed views of them, built on first read (a presentation
    constructed from WMats keeps the given ones).  The public constructor
    checks every entry once (bad-element, IncompatibleRingsError).
    """

    params: RingParams
    lattice: LatticeData
    torus: TorusData
    abelian: AbelianBlock
    ext_at: WMat = field(compare=False)
    ext_xa: WMat = field(compare=False)
    ext_xt: WMat = field(compare=False)
    label: str = ""
    ext_rows: tuple[Rows, Rows, Rows] = field(init=False, repr=False, hash=False)

    def __post_init__(self):
        # converted lazily, so that the abelian ring is checked before any entry
        self._check(_coords(self.params, m) for m in (self.ext_at, self.ext_xa, self.ext_xt))

    @classmethod
    def _of_rows(cls, params, lattice, torus, abelian, ext_rows: tuple[Rows, Rows, Rows], label: str = ""):
        """The presentation on ext coordinate rows of params (the parser's and
        cartier_dual's constructor): the label, the abelian ring and the
        block shapes are checked as in the public one, the entries are taken
        as they are."""
        s = object.__new__(cls)
        s.__dict__.update(params=params, lattice=lattice, torus=torus, abelian=abelian, label=label)
        s._check(ext_rows)
        return s

    def _check(self, ext: Iterable[Rows]) -> None:
        """Check the label (None is "", any other non-string bad-type), the
        abelian ring, then the three ext blocks' rows (read from ext after
        the ring check) and their shapes, and keep the label and the rows."""
        label = "" if self.label is None else self.label
        if type(label) is not str:
            raise MalformedInputError(f"label must be a string, got {label!r}", code="bad-type")
        self.__dict__["label"] = label
        rT, g2, rX = self.segments
        if self.abelian.crystal.params != self.params:
            raise IncompatibleRingsError("abelian block lives over a different ring")
        ext = tuple(ext)
        for name, blk, shp in zip(("ext_at", "ext_xa", "ext_xt"), ext, ((rT, g2), (g2, rX), (rT, rX))):
            # a 0-row matrix is an empty tuple and carries no column count
            ok = len(blk) == shp[0] and (shp[0] == 0 or all(len(r) == shp[1] for r in blk))
            if not ok:
                raise ShapeError(f"{name} must be {shp[0]}x{shp[1]}, got {wm_shape(blk)}")
        self.__dict__["ext_rows"] = ext

    def __getattr__(self, name: str):
        # only reached when an ext view is not set yet: box it once and keep it
        names = ("ext_at", "ext_xa", "ext_xt")
        if name not in names or "ext_rows" not in self.__dict__:
            raise AttributeError(name)
        view = self.__dict__[name] = _box(self.params, self.ext_rows[names.index(name)])
        return view

    @property
    def segments(self) -> tuple[int, int, int]:
        """Ranks of the (torus, abelian, lattice) basis segments."""
        return self.torus.rank, 2 * self.abelian.dim, self.lattice.rank

    @cached_property
    def blocks(self) -> tuple[FilteredFModule, FilteredFModule, FilteredFModule]:
        """The (torus, abelian, lattice) graded blocks, built once per presentation."""
        return torus_block(self.torus, self.params), self.abelian.crystal, lattice_block(self.lattice, self.params)

    @cached_property
    def f_rows(self) -> Rows:
        """F of the realization: the graded blocks' F on the diagonal, the ext
        rows above it, zero below; built once per presentation (cartier_dual
        sets it on the dual from the canonical dual it checks against)."""
        sizes = list(self.segments)
        (tb, ab, lb), (ext_at, ext_xa, ext_xt) = self.blocks, self.ext_rows
        grid = [[tb.f_rows, ext_at, ext_xt], [None, ab.f_rows, ext_xa], [None, None, lb.f_rows]]
        return _block(grid, sizes, sizes, (0,) * self.params.a)

    @property
    def assembled(self) -> "MotiveCrystal":
        """The assembled motive crystal (see assemble), realized and
        self-checked on first use.  The presentation keeps a weak reference
        to it, so it is the same crystal for as long as a caller holds it
        and is freed with the caller's last reference; the crystal holds the
        presentation (its provenance), and no reference cycle remains."""
        ref = self.__dict__.get("_crystal")
        mc = ref and ref()
        if mc is None:
            mc = MotiveCrystal(_realize(self), self)
            if not mc.report.ok:
                raise InternalError(f"assembled module failed verification: {mc.report.first_failure}")
            self.__dict__["_crystal"] = weakref.ref(mc)
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
        zero = (0,) * params.a
        ext = tuple([[zero] * c for _ in range(r)] for r, c in ((rT, g2), (g2, rX), (rT, rX)))
        return OneMotiveSpec._of_rows(params, lattice, torus, abelian, ext, label)


@dataclass(frozen=True)
class MotiveCrystal:
    """Assembled (or hand-altered) filtered module together with the
    presentation it came from.

    Two values derived from the module are computed on first use and kept
    here: its verify report, and its canonical dual, the twisted dual
    relabelled into the basis order of the dual presentation.  The crystal
    holds its presentation; an assembled one is held by its presentation
    only weakly (see assemble), so it lives as long as its callers hold it
    and no reference cycle keeps it.
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

    The work is done once per presentation object while a caller holds the
    result: s keeps a weak reference to it (OneMotiveSpec.assembled), so
    assemble(s) is assemble(s) as long as either is held, and its report
    and canonical dual are shared by every caller that holds it.  A caller
    that needs the crystal again later (as cartier_dual does, inside
    verify_motive, motive-pair and dual_witness) holds it meanwhile.  Once
    the last holder drops it, the crystal is freed by reference count (it
    holds s, s does not hold it), and a later assemble(s) realizes s again.
    """
    return s.assembled


def _realize(s: OneMotiveSpec) -> FilteredFModule:
    """F and V of the presentation (see assemble), without the self-check:
    F is s.f_rows, V is computed here."""
    params = s.params
    rT, g2, rX = s.segments
    tb, ab, lb = s.blocks
    ext_at, ext_xa, ext_xt = s.ext_rows
    # Off-diagonal blocks of p F^(-1), at two guard digits from balanced
    # lifts, through the abelian block's exact lift (kept on the block, which
    # checks it: AbelianBlock._sigma_v_lift).
    big = with_precision(params, params.n + 2)
    p, pn, bpn = params.p, params.pn, big.pn
    sig_va = s.abelian._sigma_v_lift
    # p F^(-1) has blocks -B^(-1) ext_at sigma(V_A), -w_div A^(-1) and
    # -B^(-1) inner A^(-1), inner = ext_xt - ext_at w_div; V's blocks are
    # sigma^(-1) of them.  Products that share a factor are formed as one
    # product of stacked operands: ext_at [sigma(V_A) | w_div],
    # [w_div; inner] A^(-1) and B^(-1) [ext_at sigma(V_A) | inner A^(-1)].
    w_div, inner = [], _lift(params, big, ext_xt)
    if g2 and rX:
        prod_ax = _mul(big, sig_va, _lift(params, big, ext_xa))
        if any(c % p for row in prod_ax for x in row for c in x):
            raise InvalidExtensionDataError(
                "sigma(V_A) . ext_xa is not divisible by p: Verschiebung is not integral"
            )
        w_div = [[tuple([c // p for c in x]) for x in row] for row in prod_ax]
    at_sig = [[] for _ in range(rT)]  # ext_at sigma(V_A)
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
    top = []  # B^(-1) [ext_at sigma(V_A) | inner A^(-1)]
    if rT and (g2 or rX):
        right = [r1 + r2 for r1, r2 in zip(at_sig, over_a[nw:])] if rX else at_sig
        top = _mul(big, _int_rows(big, s.torus.sigma_inverse), right)
    # one pass over the rows of the blocks: -sigma^(-1) of each entry, reduced to W_n
    down = _sigma_rows(big, top + over_a[:nw], "frobenius_inverse_matrix")
    down = [[tuple([-c % pn for c in x]) for x in row] for row in down]
    v_ta = [row[:g2] for row in down[:rT]] if rT and g2 else None  # None: a zero block
    v_tx = [row[g2:] for row in down[:rT]] if rT and rX else None
    v_ax = down[rT:] if nw else None
    sizes = [rT, g2, rX]
    v = _block([[tb.v_rows, v_ta, v_tx], [None, ab.v_rows, v_ax], [None, None, lb.v_rows]], sizes, sizes, (0,) * params.a)
    weights = (-2,) * rT + (-1,) * g2 + (0,) * rX
    return FilteredFModule._of_rows(params, rT + g2 + rX, weights, s.f_rows, v, 1)


def _sub(rows: Rows, r: slice, c: slice) -> Rows:
    """The block of rows r and columns c."""
    return [row[c] for row in rows[r]]


def _dual_permutation(rX: int, g2: int, rT: int) -> list[int]:
    """Block-diagonal permutation (reverse, identity, reverse) on segments of
    sizes (rX, g2, rT)."""
    perm = [rX - 1 - i for i in range(rX)]
    perm += [rX + i for i in range(g2)]
    perm += [rX + g2 + (rT - 1 - i) for i in range(rT)]
    return perm


def cartier_dual(s: OneMotiveSpec) -> OneMotiveSpec:
    """Dual presentation: lattice and torus swap with inverse-transpose
    actions, the abelian block is replaced by its twisted dual (kept on the
    block, AbelianBlock._dual), and the
    extension blocks are read off the canonical dual of assemble(s), so that
    assembling it reproduces that canonical dual (see dual_witness).  Nothing
    of s is rebuilt: its realization and canonical dual are the ones kept on
    assemble(s), and the dual actions are read off its actions and their
    inverses.

    The dual's F (its f_rows) is f_c, the canonical dual's F, once its
    diagonal blocks are checked against the dual's graded blocks (else
    InternalError): its blocks above the diagonal are the dual's ext rows
    and those below are zero, so f_c is the matrix the blocks would build.
    Assembling the dual still computes V, with the abelian-lift and
    integrality checks, and self-checks the module (flag-F covers the
    blocks below the diagonal)."""
    params = s.params
    rT, g2, rX = s.segments
    f_c = assemble(s).canonical_dual.f_rows
    seg_t, seg_a, seg_x = slice(0, rX), slice(rX, rX + g2), slice(rX + g2, rX + g2 + rT)

    abelian2 = s.abelian._dual if g2 else AbelianBlock.empty(params)
    ext = tuple(_sub(f_c, rows, cols) for rows, cols in ((seg_t, seg_a), (seg_a, seg_x), (seg_t, seg_x)))
    label = f"{s.label}^dual" if s.label else "dual"
    dual = OneMotiveSpec._of_rows(params, s.torus.dual(), s.lattice.dual(), abelian2, ext, label)
    # diagonal blocks of the canonical dual must agree with the dual blocks
    for what, seg, block in zip(("torus", "abelian", "lattice"), (seg_t, seg_a, seg_x), dual.blocks):
        if _sub(f_c, seg, seg) != block.f_rows:
            raise InternalError(f"the {what} block of the canonical dual disagrees with the dual spec")
    dual.__dict__["f_rows"] = f_c
    return dual


def dual_witness(s: OneMotiveSpec):
    """Return (twisted, assembled_dual, perm) where conjugating the twisted
    dual of assemble(s) by the permutation reproduces assemble(cartier_dual(s))."""
    rT, g2, rX = s.segments
    m = assemble(s)  # held, so cartier_dual reads the same crystal
    return twisted_dual(m.module), assemble(cartier_dual(s)).module, _dual_permutation(rX, g2, rT)


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

    def placed(c, zero) -> list[list]:  # c at each (i, pi[i]), zero elsewhere: one row copy per i
        rows = [[zero] * r for _ in range(r)]
        for row, j in zip(rows, pi):
            row[j] = c
        return rows

    gram = tuple(map(tuple, placed(params.one(), params.zero())))  # two elements, r^2 references
    zero = (0,) * params.a
    p_gram = placed((params.p % params.pn,) + zero[1:], zero)
    perfect = sorted(pi) == list(range(r))
    wts, wts_d = m.module.weights, m_dual.module.weights
    weight_orth = all(wts[i] + wts_d[pi[i]] >= -2 for i in range(r))

    def compatible(a: Rows, b: Rows) -> bool:
        return _mul(params, list(zip(*a)), [b[k] for k in pi]) == p_gram

    frob_ok = compatible(m.module.f_rows, m_dual.module.f_rows)
    versch_ok = m.module.v_rows is None or compatible(m.module.v_rows, m.canonical_dual.v_rows)
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
    its self-check.  Items 4.c and 4.d take the determinant of the Gr_0 V
    and Gr_-2 F blocks only when 3.c resp. 3.a failed: when it passed, the
    block is the lattice block's V = A^(-1) (the torus block's F = B), for
    an integer action that LatticeData proved unimodular, so its
    determinant is +-1, a unit.

    Item 5 reads the dual off assemble(s), the realization of the
    presentation kept on s, never off the module under test.  It rests on
    these checks, each of which runs on every document (the exact lift once
    per distinct abelian block, which keeps it):
    - cartier_dual: the canonical dual's diagonal blocks equal the dual
      presentation's graded blocks (InternalError otherwise); the dual's F
      is then the canonical dual's F;
    - the dual's realization: the exact lift of its abelian block and the
      integrality of its V (reported as "pairing failed");
    - the dual's self-check (InternalError), flag-F included;
    - pair: perfectness, weight orthogonality, and the Frobenius and
      Verschiebung identities <F-, F-> = p sigma<-,-> and
      <V-, V-> = p sigma^(-1)<-,-> (Andreatta and Barbieri-Viale,
      Crystalline realizations of 1-motives, sections 1-2; Deligne, Theorie
      de Hodge III, section 10)."""
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

    shape_ok = ok and mod.weights == (-2,) * rT + (-1,) * g2 + (0,) * rX  # ok: same rank, same ring
    tb, ab, lb = s.blocks
    seg_t, seg_a, seg_x = slice(0, rT), slice(rT, rT + g2), slice(rT + g2, r_expect)

    def graded_match(seg, block):
        f_ok = shape_ok and _sub(mod.f_rows, seg, seg) == block.f_rows
        return f_ok and mod.v_rows is not None and _sub(mod.v_rows, seg, seg) == block.v_rows

    t_ok, x_ok = graded_match(seg_t, tb), graded_match(seg_x, lb)
    items.append(("3.a", t_ok, f"Gr_-2 free of rank {rT}, toric block"))
    items.append(("3.b", graded_match(seg_a, ab), f"Gr_-1 free of rank {g2}, abelian block"))
    items.append(("3.c", x_ok, f"Gr_0 free of rank {rX}, lattice block"))

    rep = m.report
    by_name = {c.name: c for c in rep.checks}
    flag_ok = (
        by_name["weight-order"].ok
        and by_name["flag-F"].ok
        and ("flag-V" not in by_name or by_name["flag-V"].ok)
    )
    items.append(("4.a", flag_ok, "F and V respect the weight flag"))
    fv_ok = (
        mod.v_rows is not None
        and by_name.get("fv-product") is not None
        and by_name["fv-product"].ok
        and by_name["vf-product"].ok
        and mod.level == 1
    )
    items.append(("4.b", bool(fv_ok), "F sigma(V) = V sigma^-1(F) = p"))
    # a block that passed 3.c (3.a) has det +-1: see the docstring
    v_gr0_ok = (
        shape_ok
        and mod.v_rows is not None
        and (rX == 0 or x_ok or _det(_charpoly(params, _sub(mod.v_rows, seg_x, seg_x))).is_unit())
    )
    items.append(("4.c", bool(v_gr0_ok), "V unimodular on Gr_0"))
    f_gr2_ok = shape_ok and (rT == 0 or t_ok or _det(_charpoly(params, _sub(mod.f_rows, seg_t, seg_t))).is_unit())
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
