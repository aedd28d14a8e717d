"""Standard rank-building blocks for the three weight-graded pieces of a
1-motive realization: lattice part (weight 0), abelian part (weight -1),
toric part (weight -2), and rank-1 twists.

Normalization: the weight -2 twist has F = [1], V = [p]; its twisted dual
(weight 0) has F = [p], V = [1].  The torus block carries a unimodular F,
the lattice block a unimodular V, so F is an isomorphism on the lowest
graded piece and V on the highest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .semilinear import FilteredFModule, _int_rows, direct_sum, newton_slopes, verify
from .witt import RingParams, _int_matrix, _ints

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


def _validated_action(sigma, rank: int) -> list[list[int]]:
    """Check that sigma is a unimodular rank x rank matrix of finite order and
    return its inverse: sigma^(k-1) for the order k, read off the order
    search.  A matrix of finite order is unimodular, so the elimination that
    tells a non-unimodular matrix apart runs only when the search fails."""
    r, c = intmat.shape(sigma) if sigma else (0, 0)
    if (r, c) != (rank, rank):
        raise ShapeError(f"sigma action must be {rank}x{rank}")
    if rank == 0:
        return []
    ident = intmat.identity(rank)
    previous, power = ident, [list(row) for row in sigma]
    for _ in range(ORDER_SEARCH_LIMIT):
        if power == ident:
            return previous
        previous, power = power, intmat.mul(power, sigma)
    if intmat.elementary_divisors(sigma) != [1] * rank:
        raise InvalidActionError("sigma action must be unimodular over Z")
    raise InvalidActionError(f"matrix has no finite order up to {ORDER_SEARCH_LIMIT}")


@dataclass(frozen=True)
class LatticeData:
    """A free Z-lattice of finite rank with a finite-order Galois action.

    The same data presents a torus by its cocharacter lattice, so TorusData
    is an alias of this class.  The inverse of the action is computed once,
    on construction, and read by every block built from the data (and by
    dual).  Rank and action entries must be ints, not bools (else bad-type),
    the rank at most SizeLimitError.BOUND and not negative (else
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
        inv = _validated_action(self.sigma_action, self.rank)
        object.__setattr__(self, "sigma_inverse", tuple(tuple(row) for row in inv))

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


def lattice_block(d: LatticeData, params: RingParams) -> FilteredFModule:
    """Weight-0 block: F = p A, V = A^(-1) for the lifted sigma action A."""
    f = _int_rows(params, [[params.p * x for x in row] for row in d.sigma_action])
    return FilteredFModule._of_rows(params, d.rank, (0,) * d.rank, f, _int_rows(params, d.sigma_inverse), 1)


def torus_block(d: TorusData, params: RingParams) -> FilteredFModule:
    """Weight -2 block: F = B, V = p B^(-1) for the lifted sigma action B."""
    v = _int_rows(params, [[params.p * x for x in row] for row in d.sigma_inverse])
    return FilteredFModule._of_rows(params, d.rank, (-2,) * d.rank, _int_rows(params, d.sigma_action), v, 1)


@dataclass(frozen=True)
class AbelianBlock:
    """Weight -1 block of even rank 2g with slopes in [0,1] symmetric under
    s -> 1 - s.  Built from a Frobenius trace (elliptic companion matrix)
    or accepted as an explicit verified module."""

    dim: int
    crystal: FilteredFModule

    @staticmethod
    def empty(params: RingParams) -> "AbelianBlock":
        return AbelianBlock(0, FilteredFModule(params, 0, (), (), (), 1))

    @staticmethod
    def from_module(module: FilteredFModule) -> "AbelianBlock":
        """The block of a caller's module, after the checks of
        _checked_abelian; a failed check is UnsupportedInputError."""
        return _checked_abelian(module, UnsupportedInputError)

    def __add__(self, other: "AbelianBlock") -> "AbelianBlock":
        return AbelianBlock(self.dim + other.dim, direct_sum(self.crystal, other.crystal))


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
