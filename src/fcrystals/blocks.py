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
from fractions import Fraction

from . import intmat
from .errors import (
    InternalError,
    InvalidActionError,
    InvalidTraceError,
    MalformedInputError,
    PrecisionError,
    ShapeError,
    SizeLimitError,
    UnsupportedInputError,
)
from .semilinear import FilteredFModule, _int_rows, direct_sum, newton_slopes, verify
from .witt import RingParams, _ints

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
            object.__setattr__(
                self, "sigma_action", tuple(_ints(row, "bad-type", "sigma_action") for row in self.sigma_action)
            )
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
        if module.rank % 2:
            raise UnsupportedInputError("abelian block must have even rank 2g")
        if any(w != -1 for w in module.weights):
            raise UnsupportedInputError("abelian block must be pure of weight -1")
        if module.level != 1 or module.v_rows is None:
            raise UnsupportedInputError("abelian block must be a level-1 module with V")
        rep = verify(module)
        if not rep.ok:
            raise UnsupportedInputError(
                f"abelian block fails verification: {rep.first_failure.name}"
            )
        if module.rank:
            slopes = newton_slopes(module).as_list()
            if sorted(1 - s for s in slopes) != slopes:
                raise UnsupportedInputError("abelian block slopes are not symmetric under s -> 1-s")
        return AbelianBlock(module.rank // 2, module)

    def __add__(self, other: "AbelianBlock") -> "AbelianBlock":
        return AbelianBlock(self.dim + other.dim, direct_sum(self.crystal, other.crystal))


def abelian_from_ap(a_p: int, params: RingParams) -> AbelianBlock:
    """Rank-2 abelian block from the companion matrix of x^2 - a_p x + q,
    q = p^a.  Requires |a_p| <= 2 sqrt(q) and an integral V = p F^(-1); the
    latter holds exactly when q = p, otherwise an explanatory error is
    raised (supply an explicit module instead).  a_p must be an int, not a
    bool (else bad-type)."""
    if type(a_p) is not int:
        raise MalformedInputError("abelian trace must be an integer", code="bad-type")
    p, n, a = params.p, params.n, params.a
    q = p**a
    if a_p * a_p > 4 * q:
        raise InvalidTraceError(f"|a_p| = {abs(a_p)} violates the Weil bound 2 sqrt({q})")
    if n < 2 * a + 1:
        raise PrecisionError(
            f"companion abelian block needs n >= {2*a + 1} to pin its slopes",
            required=2 * a + 1,
        )
    # V = p F^(-1) = (p/q) [[a_p, q], [-1, 0]] entrywise; integral iff q | p * entry
    entries = [[p * a_p, p * q], [-p, 0]]
    if any(x % q for row in entries for x in row):
        raise UnsupportedInputError(
            f"V = p F^(-1) is not integral over F_{q}: the companion model needs q = p; "
            "pass an explicit weight -1 module instead"
        )
    f = _int_rows(params, [[0, -q], [1, a_p]])
    v = _int_rows(params, [[x // q for x in row] for row in entries])
    module = FilteredFModule._of_rows(params, 2, (-1, -1), f, v, 1)
    slopes = newton_slopes(module).as_list()
    if sorted(Fraction(1) - s for s in slopes) != slopes:
        raise InternalError(f"companion block slopes {slopes} are not symmetric under s -> 1-s")
    rep = verify(module)
    if not rep.ok:
        raise InternalError(f"companion block fails verification: {rep.first_failure.name}")
    return AbelianBlock(1, module)
