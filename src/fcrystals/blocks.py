"""Standard rank-building blocks for the three weight-graded pieces of a
1-motive realization: lattice part (weight 0), abelian part (weight -1),
toric part (weight -2), and rank-1 twists.

Normalization: the weight -2 twist has F = [1], V = [p]; its twisted dual
(weight 0) has F = [p], V = [1].  The torus block carries a unimodular F,
the lattice block a unimodular V, so F is an isomorphism on the lowest
graded piece and V on the highest.

Each graded piece of a 1-motive depends on its own discrete datum alone:
the lattice block on L's Galois action, the torus block on T's, the weight
-1 block on the Dieudonne crystal of A, and Cartier duality swaps L and T
and replaces A by its twisted dual (Andreatta and Barbieri-Viale,
Crystalline realizations of 1-motives, arXiv math/0302161, sections 1-2;
Deligne, Theorie de Hodge III, section 10).  The pieces recur across the
documents of a batch, so each distinct piece is checked and built once, in
four bounded tables keyed by its full content and ring: the inverse of an
action (_validated_action, with its order search), the lattice and torus
blocks of a datum over a ring (lattice_block, torus_block), and the checked
block of a caller's weight -1 module (AbelianBlock.from_module).  A block
keeps what is derived from it on itself: its exact lift at two guard digits
and its twisted dual, whose own lift is kept on the dual block.  A failing
piece is never kept, so it raises the same error on every call; no code
writes a kept row, so outputs do not depend on what the tables hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import intmat
from .errors import (
    FCrystalsError,
    InternalError,
    InvalidActionError,
    InvalidTraceError,
    MalformedInputError,
    ShapeError,
    SizeLimitError,
    UnsupportedInputError,
)
from .semilinear import FilteredFModule, Rows, _int_rows, _mul, _scalar_gap, _sigma_rows, direct_sum, newton_slopes
from .semilinear import twisted_dual, verify
from .witt import RingParams, _int_matrix, _ints, with_precision

ORDER_SEARCH_LIMIT = 120

__all__ = [
    "LatticeData",
    "TorusData",
    "AbelianBlock",
    "tate",
    "lattice_block",
    "torus_block",
    "abelian_from_ap",
]


@lru_cache(maxsize=256)  # pure in its arguments; bounded, so documents cannot grow it
def _validated_action(sigma: tuple[tuple[int, ...], ...], rank: int) -> tuple[tuple[int, ...], ...]:
    """Check that sigma (int rows as tuples) is a unimodular rank x rank
    matrix of finite order and return its inverse as tuples: sigma^(k-1) for
    the order k, read off the order search.  A matrix of finite order is
    unimodular, so the elimination that tells a non-unimodular matrix apart
    runs only when the search fails.  One entry holds the inverse of one
    valid action, at most rank^2 ints; an invalid action raises on every
    call."""
    r, c = intmat.shape(sigma) if sigma else (0, 0)
    if (r, c) != (rank, rank):
        raise ShapeError(f"sigma action must be {rank}x{rank}")
    if rank == 0:
        return ()
    ident = intmat.identity(rank)
    previous, power = ident, [list(row) for row in sigma]
    for _ in range(ORDER_SEARCH_LIMIT):
        if power == ident:
            return tuple(map(tuple, previous))
        previous, power = power, intmat.mul(power, sigma)
    if intmat.elementary_divisors(sigma) != [1] * rank:
        raise InvalidActionError("sigma action must be unimodular over Z")
    raise InvalidActionError(f"matrix has no finite order up to {ORDER_SEARCH_LIMIT}")


@dataclass(frozen=True)
class LatticeData:
    """A free Z-lattice of finite rank with a finite-order Galois action.

    The same data presents a torus by its cocharacter lattice, so TorusData
    is an alias of this class.  The inverse of the action is read on
    construction from _validated_action's table, so it is computed once per
    distinct action, and read by every block built from the data (and by
    dual).  Equal data hash alike, by rank and action, which keys the block
    tables.  Rank and action entries must be ints, not bools (else
    bad-type), the rank at most SizeLimitError.BOUND and not negative (else
    shape-error)."""

    rank: int
    sigma_action: tuple[tuple[int, ...], ...]
    sigma_inverse: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._check(True)

    @staticmethod
    def _of_rows(rank: int, action: tuple[tuple[int, ...], ...]) -> "LatticeData":
        """The data on tuples of int rows whose entries the caller checked
        (the document readers): the rank and the action are checked as in
        the public constructor, the entries are taken as they are."""
        d = object.__new__(LatticeData)
        d.__dict__.update(rank=rank, sigma_action=action)
        d._check(False)
        return d

    def _check(self, entries: bool) -> None:
        """Check the rank, the entries of the action if ``entries`` (keeping
        its rows as tuples) and the action, and set its inverse."""
        SizeLimitError.check("rank", _ints((self.rank,), "bad-type", "rank")[0])
        if entries:
            object.__setattr__(self, "sigma_action", _int_matrix(self.sigma_action, "bad-type", "sigma_action"))
        if self.rank < 0:
            raise ShapeError("rank must be non-negative")
        object.__setattr__(self, "sigma_inverse", _validated_action(self.sigma_action, self.rank))

    @staticmethod
    def _of(rank: int, action, inverse) -> "LatticeData":
        """The data of an action already known to be valid, with its inverse:
        no check and no order search."""
        d = object.__new__(LatticeData)
        d.__dict__.update(rank=rank, sigma_action=action, sigma_inverse=inverse)
        return d

    @staticmethod
    def trivial(rank: int) -> "LatticeData":
        """The identity action, built directly: it is its own inverse.  The
        rank is checked as the constructor checks it."""
        SizeLimitError.check("rank", _ints((rank,), "bad-type", "rank")[0])  # before the identity is built
        if rank < 0:
            raise ShapeError("rank must be non-negative")
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        return LatticeData._of(rank, ident, ident)

    def dual(self) -> "LatticeData":
        """The data with the inverse-transpose action (A^-1)^T, read off this
        one without a new elimination: it is unimodular of A's order, with
        inverse A^T."""
        return LatticeData._of(self.rank, tuple(zip(*self.sigma_inverse)), tuple(zip(*self.sigma_action)))


TorusData = LatticeData


def tate(m: int, params: RingParams) -> FilteredFModule:
    """Rank-1 twist of weight -2m.

    m = 1 is the unit-root twist (F = [1], V = [p]); m = 0 its twisted dual
    (F = [p], V = [1]).  Other integers extend the family consistently with
    the tensor product, at the cost of level |m| resp. 1 - m.  m must be an
    int, not a bool (else bad-type).
    """
    if type(m) is not int:
        raise MalformedInputError("twist exponent must be an integer", code="bad-type")
    if m >= 1:
        f, v, level = 1, pow(params.p, m, params.pn), m
    else:
        f, v, level = pow(params.p, 1 - m, params.pn), 1, 1 - m
    return FilteredFModule._of_rows(params, 1, (-2 * m,), _int_rows(params, [[f]]), _int_rows(params, [[v]]), level)


@lru_cache(maxsize=64)  # pure in its arguments; bounded, so documents cannot grow it
def lattice_block(d: LatticeData, params: RingParams) -> FilteredFModule:
    """Weight-0 block: F = p A, V = A^(-1) for the lifted sigma action A.
    One entry holds the block of one datum over one ring, two rank x rank
    coordinate matrices; every caller reads the same module."""
    f = _int_rows(params, [[params.p * x for x in row] for row in d.sigma_action])
    return FilteredFModule._of_rows(params, d.rank, (0,) * d.rank, f, _int_rows(params, d.sigma_inverse), 1)


@lru_cache(maxsize=64)  # pure in its arguments; bounded, so documents cannot grow it
def torus_block(d: TorusData, params: RingParams) -> FilteredFModule:
    """Weight -2 block: F = B, V = p B^(-1) for the lifted sigma action B.
    One entry holds the block of one datum over one ring, as lattice_block's."""
    v = _int_rows(params, [[params.p * x for x in row] for row in d.sigma_inverse])
    return FilteredFModule._of_rows(params, d.rank, (-2,) * d.rank, _int_rows(params, d.sigma_action), v, 1)


@dataclass(frozen=True)
class AbelianBlock:
    """Weight -1 block of even rank 2g with slopes in [0,1] symmetric under
    s -> 1 - s.  Built from a Frobenius trace (elliptic companion matrix)
    or accepted as an explicit verified module.

    Two values derived from the block are computed on first read and kept
    on it: its exact lift (_sigma_v_lift), which assemble reads, and its
    twisted dual block (_dual), cartier_dual's weight -1 piece, which keeps
    its own lift.  A failed lift check raises on every read."""

    dim: int
    crystal: FilteredFModule

    @staticmethod
    def empty(params: RingParams) -> "AbelianBlock":
        return AbelianBlock(0, FilteredFModule(params, 0, (), (), (), 1))

    @staticmethod
    def from_module(module: FilteredFModule) -> "AbelianBlock":
        """The block of a caller's module, after the checks of
        _checked_abelian; a failed check is UnsupportedInputError.  The
        block of an equal module over an equal ring comes from
        _caller_abelian's table, so the checks run once per distinct module."""
        return _caller_abelian(module)

    def __add__(self, other: "AbelianBlock") -> "AbelianBlock":
        return AbelianBlock(self.dim + other.dim, direct_sum(self.crystal, other.crystal))

    @cached_property
    def _sigma_v_lift(self) -> Rows:
        """sigma(V) of V's balanced lift to two guard digits (W_(n+2)), the
        factor every off-diagonal block of assemble's V goes through.  The
        cancellations in F sigma(V) = V sigma^(-1)(F) = p at that precision
        are exact provided the balanced lifts of F and V satisfy them on the
        nose, as every built-in block constructor's small integer
        representatives do; other data is UnsupportedInputError."""
        m = self.crystal
        big = with_precision(m.params, m.params.n + 2)
        va = _lift(m.params, big, m.v_rows)
        sig_va = _sigma_rows(big, va, "frobenius_matrix")
        if self.dim:
            d, p = _lift(m.params, big, m.f_rows), m.params.p
            if _scalar_gap(big, _mul(big, d, sig_va), p) or _scalar_gap(
                big, _mul(big, va, d, "frobenius_inverse_matrix"), p
            ):
                raise UnsupportedInputError(
                    "abelian block does not lift exactly: its balanced representatives "
                    "must satisfy F sigma(V) = V sigma^(-1)(F) = p on the nose"
                )
        return sig_va

    @cached_property
    def _dual(self) -> "AbelianBlock":
        """The block of the twisted dual of the crystal."""
        return AbelianBlock(self.dim, twisted_dual(self.crystal))


def _lift(params: RingParams, big: RingParams, rows: Rows) -> Rows:
    """Coordinate rows of params as rows of big, a longer Witt ring: each
    coordinate's balanced representative, in (-p^n/2, p^n/2], reduced mod
    big's p^n."""
    pn, half, bpn = params.pn, params.pn // 2, big.pn
    return [[tuple([(c if c <= half else c - pn) % bpn for c in x]) for x in row] for row in rows]


@lru_cache(maxsize=64)  # pure in the module's content; bounded, so documents cannot grow it
def _caller_abelian(module: FilteredFModule) -> AbelianBlock:
    """AbelianBlock.from_module's table, keyed by the module's content and
    ring.  One entry holds the checked block of one rank-2g module and, once
    read, what the block keeps: its lift and its dual block with the dual's
    lift, six 2g x 2g coordinate matrices in all.  A module that fails a
    check raises on every call."""
    return _checked_abelian(module, UnsupportedInputError)


def _checked_abelian(module: FilteredFModule, error: type[FCrystalsError]) -> AbelianBlock:
    """The block of module, after the checks of a weight -1 piece, in this
    order: even rank 2g, pure weight -1, level 1 with V, verify, and slopes
    symmetric under s -> 1 - s (the Dieudonne crystal of an abelian variety:
    Andreatta and Barbieri-Viale, arXiv math/0302161, sections 1-2; Manin,
    Russian Math. Surveys 18 (1963)).  A failed check raises ``error``:
    UnsupportedInputError for caller data, InternalError for a block built
    here."""
    if module.rank % 2:
        raise error("abelian block must have even rank 2g")
    if any(w != -1 for w in module.weights):
        raise error("abelian block must be pure of weight -1")
    if module.level != 1 or module.v_rows is None:
        raise error("abelian block must be a level-1 module with V")
    rep = verify(module)
    if not rep.ok:
        raise error(f"abelian block fails verification: {rep.first_failure.name}")
    if module.rank:
        slopes = newton_slopes(module).as_list()
        if sorted(1 - s for s in slopes) != slopes:
            raise error("abelian block slopes are not symmetric under s -> 1-s")
    return AbelianBlock(module.rank // 2, module)


def abelian_from_ap(a_p: int, params: RingParams) -> AbelianBlock:
    """Rank-2 abelian block from the companion matrix of x^2 - a_p x + q,
    q = p^a.  Requires |a_p| <= 2 sqrt(q) and an integral V = p F^(-1); the
    latter holds exactly when q = p, that is a = 1, otherwise an
    explanatory error is raised (supply an explicit module instead).  The
    block is checked as _checked_abelian checks caller data, a failure
    being an InternalError; its slopes need n >= 3, newton_slopes' bound at
    rank 2, level 1 and a = 1 (else PrecisionError).  a_p must be an int,
    not a bool (else bad-type)."""
    if type(a_p) is not int:
        raise MalformedInputError("abelian trace must be an integer", code="bad-type")
    p, q = params.p, params.p**params.a
    if a_p * a_p > 4 * q:
        raise InvalidTraceError(f"|a_p| = {abs(a_p)} violates the Weil bound 2 sqrt({q})")
    # V = p F^(-1) = (p/q) [[a_p, q], [-1, 0]] is integral iff q | p, that is a = 1
    if params.a != 1:
        raise UnsupportedInputError(
            f"V = p F^(-1) is not integral over F_{q}: the companion model needs q = p; "
            "pass an explicit weight -1 module instead"
        )
    f = _int_rows(params, [[0, -p], [1, a_p]])
    v = _int_rows(params, [[a_p, p], [-1, 0]])
    return _checked_abelian(FilteredFModule._of_rows(params, 2, (-1, -1), f, v, 1), InternalError)
