"""Component-level combinatorics of a truncated simplicial scheme: the chain
complex of connected components, the cocharacter group of the toric part of
the simplicial Picard group, boundary divisor lattices, and the weight-graded
rank ledger tying a Picard-type skeleton to the rank of its assembled
realization.

Everything here is computed at the level of an algebraically closed base
(trivial Galois actions); actions can be attached to the emitted
presentation afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intmat
from .blocks import AbelianBlock, LatticeData, TorusData, abelian_from_ap
from .errors import InternalError, InvalidSimplicialError, MalformedInputError, ShapeError, SizeLimitError
from .onemotive import OneMotiveSpec, assemble
from .semilinear import FilteredFModule, _block
from .witt import RingParams, _int_matrix, _ints

__all__ = [
    "SimplicialComponents",
    "DivisorPresentation",
    "PicardSkeleton",
    "H1Ledger",
    "component_complex",
    "cocharacter_group",
    "div0_lattice",
    "picard_skeleton",
    "h1_weight_ledger",
]


@dataclass(frozen=True)
class SimplicialComponents:
    """Component counts of X_0..X_2 (optionally X_3) and the face maps at the
    component level: face_maps[j-1][i] sends level-j components through d_i.
    Counts and face maps must be ints, not bools (else bad-type), and each
    count at most SizeLimitError.BOUND."""

    counts: tuple[int, ...]
    face_maps: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", _ints(self.counts, "bad-type", "counts"))
        for i, c in enumerate(self.counts):
            SizeLimitError.check(f"counts[{i}]", c)
        maps = MalformedInputError.sequence(self.face_maps, "bad-type", "face maps")
        object.__setattr__(self, "face_maps", tuple(_int_matrix(level, "bad-type", "face maps") for level in maps))

    def validate(self) -> None:
        counts = self.counts
        if len(counts) not in (3, 4) or any(c < 0 for c in counts):
            raise InvalidSimplicialError("counts must list 3 or 4 non-negative levels")
        if len(self.face_maps) != len(counts) - 1:
            raise InvalidSimplicialError("face maps required for every level j >= 1")
        for j in range(1, len(counts)):
            maps = self.face_maps[j - 1]
            if len(maps) != j + 1:
                raise InvalidSimplicialError(f"level {j} needs {j + 1} face maps")
            for fmap in maps:
                if len(fmap) != counts[j]:
                    raise InvalidSimplicialError(f"face map at level {j} has wrong length")
                if fmap and (min(fmap) < 0 or max(fmap) >= counts[j - 1]):
                    raise InvalidSimplicialError(f"face map at level {j} lands out of range")
        # d_i d_j = d_{j-1} d_i for i < j, checked wherever both sides exist
        for lvl in range(2, len(counts)):
            lower = self.face_maps[lvl - 2]
            upper = self.face_maps[lvl - 1]
            for i in range(lvl + 1):
                for j in range(i + 1, lvl + 1):
                    for s in range(counts[lvl]):
                        if lower[i][upper[j][s]] != lower[j - 1][upper[i][s]]:
                            raise InvalidSimplicialError(
                                f"simplicial identity d_{i} d_{j} = d_{j-1} d_{i} fails at level {lvl}, component {s}"
                            )

    def face(self, level: int, i: int) -> tuple[int, ...]:
        return self.face_maps[level - 1][i]


def _coboundaries(s: SimplicialComponents) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The differentials of the dualized complex C^0 -> C^1 -> C^2 as the
    eliminations read them, as sparse rows ({column: value} of the
    nonzeros): d^1 as c1 rows over C^0 (at most two nonzeros a row) and d^2
    as c2 rows over C^1 (at most three), the transposes of d_1 and d_2
    built straight from the face maps.  Validates the simplicial identities
    and checks d_1 d_2 = 0."""
    s.validate()
    d10, d11 = s.face(1, 0), s.face(1, 1)
    # column j of d_1 d_2 counts the vertices of simplex j's edges with signs: it is
    # zero exactly when the + and - vertices agree as multisets.  They agree
    # term by term where the identities d_0 d_1 = d_0 d_0, d_0 d_2 = d_1 d_0 and
    # d_1 d_2 = d_1 d_1 hold, so only a simplex where one fails is sorted
    faces2 = tuple(zip(s.face(2, 0), s.face(2, 1), s.face(2, 2)))
    if any(
        (d10[e1] != d10[e0] or d10[e2] != d11[e0] or d11[e2] != d11[e1])
        and sorted((d10[e0], d11[e1], d10[e2])) != sorted((d11[e0], d10[e1], d11[e2]))
        for e0, e1, e2 in faces2
    ):
        raise InternalError("d_1 d_2 != 0 although the simplicial identities hold")
    d1 = [{v0: 1, v1: -1} if v0 != v1 else {} for v0, v1 in zip(d10, d11)]
    d2 = []
    for e0, e1, e2 in faces2:
        row = {e0: 1, e1: -1} if e0 != e1 else {}
        x = row.get(e2, 0) + 1
        if x:
            row[e2] = x
        else:
            del row[e2]
        d2.append(row)
    return d1, d2


def component_complex(s: SimplicialComponents) -> tuple[list[list[int]], list[list[int]]]:
    """Integer chain complex C_2 -> C_1 -> C_0 with differentials the
    alternating sums of the face maps, as c0 x c1 and c1 x c2 matrices;
    validates the simplicial identities.  Their columns are the rows
    _coboundaries builds."""
    d1, d2 = _coboundaries(s)
    return intmat._columns(d1, s.counts[0]), intmat._columns(d2, s.counts[1])


def cocharacter_group(s: SimplicialComponents) -> tuple[int, list[list[int]]]:
    """Rank and a lifted basis (columns) of Ker d^2 / Im d^1 in the dualized
    complex C^0 -> C^1 -> C^2, from one Smith form carrying d^1 and a
    spanning forest.

    Ker d^2 is spanned by the trailing columns of V in U d^2 V = D, Im d^1 is
    the trailing rows of V^(-1) d^1 in that basis, and the free part lifts
    through U^(-1) of their Smith form.  One diagonal check covers both
    invariants of the quotient: V^(-1) is unimodular and V^(-1) d^1 =
    [0; coords], so coords, d^1 and d_1 share their nonzero elementary
    divisors, and "Im d_1 is a direct summand" and "the quotient is free"
    both say that they are all 1.  d_1 of a component complex is a graph
    incidence matrix, whose divisors are 1, so the check names a broken
    invariant, not an input error.  When d^2 is injective the Ker d^2 check
    asks for d^1 = 0, which d_1 d_2 = 0 (checked by _coboundaries) forces,
    no rows are left past the rank, and the group is (0, []).

    The trailing rows of V^(-1) d^1 are rows of d^1, graph edges, wherever
    the trailing rows of V^(-1) are unit rows, and have been edges on every
    valid structure searched, also where they are not.  On edge rows the
    second Smith form is read off intmat._forest, a union-find replay of the
    elimination: every divisor is 1, so the check holds by construction,
    and the trailing columns of U^(-1) are unit vectors e_k, so the basis is
    row k of (V_ker)^T for each row k the replay leaves past the rank.  On
    any other rows (a d^1 a test injects, say) the second elimination runs
    for U alone, with its check, and intmat.inverse_unimodular inverts U
    for the lift.  The Ker d^2 check runs on every call.

    d^2 and d^1 are built once, as sparse rows ({column: value} of the
    nonzeros) in the orientation the eliminations read (d^2 as c2 rows over
    C^1, d^1 as c1 rows over C^0), so nothing is transposed and no dense
    matrix is formed.  V^(-1) d^1 is d^1 carried through the elimination of
    d^2: each column operation on d^2 is applied, inverted, to the rows of
    d^1, so V^(-1) is never formed and no product runs.  The basis is
    formed transposed, as (U^(-1) tail)^T (V_ker)^T: rows of (V_ker)^T
    written out dense once after the replay, one dense intmat.mul after the
    elimination.  picard_skeleton reads the rank off this function too; the
    basis it drops costs about a tenth of the call.
    """
    d1, d2 = _coboundaries(s)
    c0, c1 = s.counts[0], s.counts[1]
    # V^(-1) d^1 = [0; coords], coords being Im d^1 in the saturated kernel basis
    _, diag, vt, image = intmat._eliminate(d2, c1, v=True, carry=d1)
    r2 = len(diag)  # rank of d^2
    if any(image[:r2]):
        raise InternalError("image of d^1 does not land in Ker d^2")
    coords = image[r2:]
    forest = intmat._forest(coords, c0)
    if forest is None:
        u, nz = intmat._eliminate(coords, c0, u=True)[:2]
        if any(x != 1 for x in nz):
            raise InternalError("image of C_1 -> C_0 is not a direct summand")
        t = len(nz)
    else:  # graph edges: every divisor is 1, and the columns of U^(-1) past the rank are unit columns
        t, left = forest
    rank = c1 - r2 - t
    if not rank:
        return 0, []
    # free-part basis: trailing columns of U^(-1), lifted through the kernel columns of V
    if forest is None:
        uinv = intmat.inverse_unimodular(intmat._dense(u, len(coords)))
        return rank, intmat.mul([*zip(*uinv)][t:], intmat._dense(vt[r2:], c1))
    return rank, intmat._dense([vt[r2 + k] for k in left], c1)


@dataclass(frozen=True)
class DivisorPresentation:
    """Integer presentation of the boundary divisor lattice: m divisor
    components upstairs, the two pullback matrices to level 1 (rows =
    divisor components on X_1), and the matrix of degree classes cutting out
    the subgroup mapping to zero in the component group of the Picard
    functor.  All entries must be ints, not bools (else bad-type), and m at
    most SizeLimitError.BOUND."""

    m: int
    pull0: tuple[tuple[int, ...], ...]
    pull1: tuple[tuple[int, ...], ...]
    ns_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self._check(True)

    @classmethod
    def _of_rows(cls, m, pull0, pull1, ns_classes) -> "DivisorPresentation":
        """The presentation on tuples of int rows whose entries the caller
        checked (divisor_from_doc's constructor): m and the shapes are
        checked as in the public one, the entries are taken as they are."""
        d = object.__new__(cls)
        d.__dict__.update(m=m, pull0=pull0, pull1=pull1, ns_classes=ns_classes)
        d._check(False)
        return d

    def _check(self, entries: bool) -> None:
        """Check m, the entries of the rows if ``entries`` (keeping them as
        tuples), and the shapes."""
        SizeLimitError.check("m", _ints((self.m,), "bad-type", "m")[0])
        for name in ("pull0", "pull1", "ns_classes") if entries else ():
            object.__setattr__(self, name, _int_matrix(getattr(self, name), "bad-type", name))
        if self.m < 0:
            raise ShapeError("m must be non-negative")
        r0 = intmat.shape(self.pull0) if self.pull0 else (0, self.m)
        r1 = intmat.shape(self.pull1) if self.pull1 else (0, self.m)
        if r0 != r1:
            raise ShapeError("pull0 and pull1 must have equal shapes")
        if r0[1] != self.m:
            raise ShapeError("pullback matrices must have m columns")
        if self.ns_classes and intmat.shape(self.ns_classes)[1] != self.m:
            raise ShapeError("ns_classes must have m columns")


def _div0(d: DivisorPresentation, basis: bool) -> tuple[int, list[list[int]] | None]:
    """div0_lattice's rank, with its basis if ``basis`` (else None), from
    one elimination of the stacked relations, built as sparse rows: the
    rows of pull0 - pull1, then those of ns_classes.  The rank alone is m
    minus the number of elementary divisors, so no V is built.

    picard_skeleton reads the rank alone.  Building V there too takes the
    32 divisors of a picard-lattice bench cycle from 0.93 to 1.34-1.43 ms,
    and cost that workload 1.9% of its median docs/s and 3.4% on its median
    call time (6 interleaved 8 s seed-1 runs a side on a shared 2-CPU
    machine, Python 3.11), so the flag stays."""
    stacked = [{j: a - b for j, (a, b) in enumerate(zip(r0, r1)) if a != b} for r0, r1 in zip(d.pull0, d.pull1)]
    stacked += intmat._rows(d.ns_classes)
    _, diag, vt = intmat._eliminate(stacked, d.m, v=basis)[:3]
    if not basis:
        return d.m - len(diag), None
    kernel = intmat._dense(vt[len(diag) :], d.m)
    return len(kernel), kernel


def div0_lattice(d: DivisorPresentation) -> tuple[int, list[list[int]]]:
    """Rank and basis (columns) of the divisors with equal pullbacks that
    die in the component group: Ker(pull0 - pull1) intersected with
    Ker(ns_classes)."""
    return _div0(d, True)


@dataclass(frozen=True)
class PicardSkeleton:
    """Discrete invariants of a Picard-type presentation: boundary lattice
    rank, torus cocharacter rank, and the abelian dimension supplied by the
    caller.  The ranks must be ints, not bools (else bad-type), and at most
    SizeLimitError.BOUND."""

    lattice_rank: int
    torus_rank: int
    abelian_dim: int

    def __post_init__(self):
        ranks = _ints((self.lattice_rank, self.torus_rank, self.abelian_dim), "bad-type", "skeleton ranks")
        if min(ranks) < 0:
            raise ShapeError("skeleton ranks must be non-negative")
        for what, r in zip(("lattice_rank", "torus_rank", "g"), ranks):
            SizeLimitError.check(what, r)


@lru_cache(maxsize=32)  # the number of rings witt._RINGS keeps
def _companion(params: RingParams) -> AbelianBlock:
    """The supersingular companion block over params, built and checked once
    per ring (a ring with a > 1 raises every time).  The block keeps its
    exact lift, so the lift and its check run once per ring too."""
    return abelian_from_ap(0, params)


def _default_abelian(g: int, params: RingParams) -> AbelianBlock:
    """The g-fold sum of the supersingular companion block (so a = 1, as
    abelian_from_ap states), one block matrix over the kept rank-2 block.
    Its exact lift is the block diagonal of the companion's kept lift: F,
    V and their lifts are block diagonal, so the exact-lift check of the
    sum is the companion's, which ran once per ring."""
    if g == 0:
        return AbelianBlock.empty(params)
    one = _companion(params)
    sizes, zero = [2] * g, (0,) * params.a

    def diagonal(rows):
        return _block([[rows if i == j else None for j in range(g)] for i in range(g)], sizes, sizes, zero)

    # the g-fold direct sum in one block matrix: every copy has weight -1, so
    # the sum's stable re-sort by weight would leave the basis in place
    f, v = diagonal(one.crystal.f_rows), diagonal(one.crystal.v_rows)
    block = AbelianBlock(g, FilteredFModule._of_rows(params, 2 * g, (-1,) * (2 * g), f, v, 1))
    block.__dict__["_sigma_v_lift"] = diagonal(one._sigma_v_lift)
    return block


def _split_spec(
    lattice_rank: int, torus_rank: int, g: int, params: RingParams, abelian: AbelianBlock | None, label: str
) -> OneMotiveSpec:
    """Split presentation with trivial actions and the caller's abelian block
    (or the default one of dimension g)."""
    block = abelian if abelian is not None else _default_abelian(g, params)
    if block.dim != g:
        raise ShapeError(f"abelian block has dimension {block.dim}, expected {g}")
    return OneMotiveSpec.split(
        params, LatticeData.trivial(lattice_rank), TorusData.trivial(torus_rank), block, label
    )


def picard_skeleton(
    s: SimplicialComponents,
    d: DivisorPresentation,
    g: int,
    params: RingParams,
    abelian: AbelianBlock | None = None,
) -> tuple[PicardSkeleton, OneMotiveSpec]:
    """Discrete skeleton of the Picard presentation of the simplicial data,
    plus a split presentation with trivial actions realizing it.

    The abelian part is caller data: either an explicit block or the default
    supersingular companion blocks of dimension g.  Only the two ranks are
    read: the cocharacter basis is built and dropped, the Div^0 basis is
    not built.
    """
    lattice_rank, _ = _div0(d, False)
    torus_rank, _ = cocharacter_group(s)
    skeleton = PicardSkeleton(lattice_rank, torus_rank, g)
    return skeleton, _split_spec(lattice_rank, torus_rank, g, params, abelian, "picard-skeleton")


@dataclass(frozen=True)
class H1Ledger:
    """Expected weight-graded ranks of the twisted first cohomology of the
    simplicial pair, checked against the assembled realization: its rank and
    its numbers of basis vectors of weights -2, -1 and 0."""

    gr0: int
    gr1: int
    gr2: int
    total: int
    crystal_rank: int
    crystal_graded: tuple[int, int, int]

    @property
    def consistent(self) -> bool:
        return (
            self.total == self.crystal_rank
            and (self.gr0, self.gr1, self.gr2) == self.crystal_graded
        )


def h1_weight_ledger(
    sk: PicardSkeleton, params: RingParams, abelian: AbelianBlock | None = None
) -> H1Ledger:
    """Rank ledger: weight 0 from the torus cocharacters, weight 1 of size
    2g, weight 2 from the boundary divisor lattice.  The total must equal the
    rank of the assembled split presentation, and the three graded ranks its
    numbers of basis vectors of weights -2, -1 and 0."""
    g = sk.abelian_dim
    spec = _split_spec(sk.lattice_rank, sk.torus_rank, g, params, abelian, "h1-ledger")
    module = assemble(spec).module
    graded = tuple(sum(1 for w in module.weights if w == k) for k in (-2, -1, 0))
    gr0, gr1, gr2 = sk.torus_rank, 2 * g, sk.lattice_rank
    return H1Ledger(gr0, gr1, gr2, gr0 + gr1 + gr2, module.rank, graded)
