"""Exact arithmetic in truncated Witt rings W_n(F_{p^a}).

W_n(F_{p^a}) is realized as the Galois ring (Z/p^n)[t]/(f) for a monic
degree-a integer polynomial f that is irreducible mod p.  Elements are the
coordinate vectors of their unique degree-<a polynomial representative with
coefficients in [0, p^n); equality is coordinate-wise.  This is the one
element representation: the classical Witt coordinates (via ghost
components) live in ``tests/helpers.py`` as an independent oracle.

Conventions
-----------
* modulus coefficients are stored low-to-high and reduced mod p^n,
* the Frobenius sigma is the unique ring automorphism lifting x -> x^p.  It
  is Z/p^n-linear, so each ring keeps its matrix S on the power basis
  1, t, ..., t^(a-1): column j holds sigma(t)^j, where sigma(t) is the
  Newton lift of the root of f congruent to t^p mod p, and sigma^(-1) is
  S^(a-1),
* the divided-power exp/log on (p) and 1 + (p), p >= 3, are one series
  sum_m s^(m-1) y^m / d_m (d_m = m! or m), cut at the first M with
  m - v_p(d_m) >= n for all m >= M and summed at n + max_{m<M} v_p(d_m) digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

from . import intmat
from .errors import (
    DomainError,
    IncompatibleRingsError,
    MalformedInputError,
    SizeLimitError,
    UnsupportedCharacteristicError,
)

__all__ = [
    "RingParams",
    "WittElem",
    "teichmuller",
    "frobenius",
    "frobenius_inverse",
    "dp_exp",
    "dp_log",
    "with_precision",
    "lift_elem",
    "reduce_elem",
    "default_modulus",
]


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _vp(m: int, p: int) -> int:
    """v_p(m) for m != 0."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (dense low-to-high lists), used for the
# residue field F_{p^a} = F_p[t]/(f mod p)


def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by monic-up-to-unit g over F_p."""
    f = [c % p for c in f]
    _ptrim(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) - 1 >= dg and f:
        c = (f[-1] * inv_lead) % p
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        _ptrim(f)
    return f

def _pmulmod(f: list[int], g: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _pmod(out, mod, p)


def _ppowmod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(list(f), mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = [c % p for c in f], [c % p for c in g]
    _ptrim(f)
    _ptrim(g)
    while g:
        f, g = g, _pmod(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = [(c * inv) % p for c in f]
    return f


@lru_cache(maxsize=64)  # pure in its arguments; bounded, so documents cannot grow it
def _irreducible_mod_p(modulus: tuple[int, ...], p: int, a: int) -> bool:
    f = [c % p for c in modulus]
    if len(_ptrim(list(f))) != a + 1:
        return False

    def x_pk_minus_x(k: int) -> list[int]:  # x^(p^k) - x mod (f, p)
        xq = _ppowmod([0, 1], p**k, f, p) + [0, 0]
        xq[1] -= 1
        return _pmod(xq, f, p)

    # x^{p^a} == x mod f, and gcd(x^{p^{a/q}} - x, f) = 1 for primes q | a
    primes = (q for q in range(2, a + 1) if a % q == 0 and _is_prime(q))
    return not x_pk_minus_x(a) and all(len(_pgcd(x_pk_minus_x(a // q), f, p)) == 1 for q in primes)


_INT = frozenset([int])  # the one entry type _ints accepts: no bool, no other int subclass


def _ints(values, code: str, what: str) -> tuple[int, ...]:
    """values as a tuple of ints, else (a scalar, a bool or any other type) the boundary's error."""
    values = MalformedInputError.sequence(values, code, what)
    if not _INT.issuperset(map(type, values)):
        raise MalformedInputError(f"{what} must be integers, got {values!r}", code=code)
    return values


def _int_matrix(rows, code: str, what: str) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of _ints rows: a matrix or a row that is not a
    sequence, or an entry that is not an int, is the boundary's error."""
    return tuple(_ints(row, code, what) for row in MalformedInputError.sequence(rows, code, what))


def default_modulus(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically smallest monic degree-a polynomial irreducible mod p."""
    if a == 1:
        return (0, 1)
    for tail in range(p**a):
        coeffs = []
        t = tail
        for _ in range(a):
            coeffs.append(t % p)
            t //= p
        cand = tuple(coeffs) + (1,)
        if _irreducible_mod_p(cand, p, a):
            return cand
    raise MalformedInputError("no irreducible modulus found", code="bad-modulus")


_PN_DIGITS = 4300  # the most decimal digits of a p^n: Python's default int-to-str limit
_PN_LIMIT = 10**_PN_DIGITS


@dataclass(frozen=True)
class RingParams:
    """Parameters of W_n(F_{p^a}): characteristic p, length n, residue degree a.

    For a > 1 a monic degree-a modulus (low-to-high coefficients, reduced
    mod p^n) fixes the Galois-ring basis; for a = 1 no modulus is stored.
    """

    p: int
    n: int
    a: int = 1
    modulus: tuple[int, ...] | None = None
    pn: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _ints((self.p, self.n, self.a), "bad-type", "p, n and a")
        if self.p >= 2**31:
            raise SizeLimitError(f"p = {self.p} is not below the size bound 2^31")
        if not _is_prime(self.p):
            raise MalformedInputError(f"p = {self.p} is not prime", code="not-prime")
        if self.n < 1:
            raise MalformedInputError(f"n = {self.n} must be a positive integer", code="bad-length")
        if self.a < 1:
            raise MalformedInputError(f"a = {self.a} must be a positive integer", code="bad-degree")
        if self.n * math.log10(self.p) > _PN_DIGITS + 1 or (pn := self.p**self.n) >= _PN_LIMIT:
            raise SizeLimitError(f"p^n = {self.p}^{self.n} has more than {_PN_DIGITS} decimal digits")
        if self.a == 1:
            if self.modulus is not None:
                raise MalformedInputError("modulus must be omitted when a = 1", code="bad-modulus")
        else:
            if self.modulus is None:
                raise MalformedInputError("modulus required when a > 1", code="bad-modulus")
            mod = tuple(c % pn for c in _ints(self.modulus, "bad-modulus", "modulus coefficients"))
            if len(mod) != self.a + 1 or mod[-1] != 1:
                raise MalformedInputError("modulus must be monic of degree a", code="bad-modulus")
            if not _irreducible_mod_p(mod, self.p, self.a):
                raise MalformedInputError("modulus is reducible mod p", code="reducible-modulus")
            object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "pn", pn)

    # -- element constructors ------------------------------------------------

    def elem(self, coords: Iterable[int] | int) -> "WittElem":
        if type(coords) is int:
            coords = [coords] + [0] * (self.a - 1)
        return WittElem(self, coords)

    def zero(self) -> "WittElem":
        return WittElem._raw(self, (0,) * self.a)

    def one(self) -> "WittElem":
        return WittElem._raw(self, (1,) + (0,) * (self.a - 1))

    def from_int(self, c: int) -> "WittElem":
        if type(c) is not int:
            raise MalformedInputError(f"an element must be an integer, got {c!r}", code="bad-element")
        return WittElem._raw(self, (c % self.pn,) + (0,) * (self.a - 1))

    def reduce(self, poly: list[int]) -> tuple[int, ...]:
        """Coordinates of an unreduced integer polynomial (low to high, degree
        < 2a - 1, overwritten) mod the monic modulus and p^n: the one reduction
        of the Galois-ring product, for WittElem.__mul__ and the kernels."""
        a, pn, mod = self.a, self.pn, self.modulus
        for d in range(len(poly) - 1, a - 1, -1):
            c = poly[d] % pn
            if c:
                for i in range(a):
                    poly[d - a + i] -= c * mod[i]  # type: ignore[index]
        return tuple(c % pn for c in poly[:a])

    @cached_property
    def reduction_table(self) -> tuple[tuple[int, ...], ...]:
        """The coordinates of t^d mod the modulus, for a <= d <= 2a - 2: the
        packed kernels fold every high-degree coefficient of a product at once."""
        return tuple(self.reduce([0] * d + [1]) for d in range(self.a, 2 * self.a - 1))

    def residue_modulus(self) -> list[int]:
        if self.a == 1:
            return [0, 1]
        return [c % self.p for c in self.modulus]  # type: ignore[union-attr]

    # -- the Frobenius on the power basis 1, t, ..., t^(a-1), a > 1 ----------

    @cached_property
    def frobenius_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the matrix S of sigma: column j holds the coordinates of s^j.

        s = sigma(t) is the root of the modulus f that is congruent to t^p
        mod p, Newton-lifted s <- s - f(s)/f'(s) from its residue; each step
        doubles the number of correct p-adic digits.  s depends on n and on
        the chosen lift f, so the table belongs to this ring.
        """
        p, a, f = self.p, self.a, self.modulus
        start = _ppowmod([0, 1], p, self.residue_modulus(), p)
        s = self.elem(start + [0] * (a - len(start)))
        two = self.from_int(2)
        u = None  # 1/f'(s), refined by its own Newton step as s moves
        prec = 1
        while prec < self.n:
            val = der = self.zero()
            for c in reversed(f):  # type: ignore[arg-type]
                der = der * s + val
                val = val * s + self.from_int(c)
            u = der.inverse() if u is None else u * (two - der * u)
            s = s - val * u
            prec *= 2
        cols = [self.one()]
        for _ in range(a - 1):
            cols.append(cols[-1] * s)
        return tuple(tuple(col.coords[i] for col in cols) for i in range(a))

    @cached_property
    def frobenius_inverse_matrix(self) -> tuple[tuple[int, ...], ...]:
        """S^(a-1), the matrix of sigma^(a-1) = sigma^(-1)."""
        s = out = self.frobenius_matrix
        for _ in range(self.a - 2):
            out = tuple(tuple(c % self.pn for c in row) for row in intmat.mul(out, s))
        return out


_RINGS: dict[tuple, RingParams] = {}  # the last 32 validated rings, by normalized key


def intern_ring(p: int, n: int, a: int = 1, modulus: Sequence[int] | None = None) -> RingParams:
    """RingParams(p, n, a, modulus), validated, as one shared object per
    normalized (p, n, a, modulus): its Frobenius tables are built once, and
    the kernels' ring checks pass on identity.  Arguments that already are
    the key of an interned ring, ints with the modulus reduced mod p^n, find
    it before anything is built or validated again."""
    mod = tuple(modulus) if type(modulus) in (tuple, list) else modulus
    if (mod is None or type(mod) is tuple) and all(type(x) is int for x in (p, n, a, *(mod or ()))):
        ring = _RINGS.get((p, n, a, mod))
        if ring is not None:
            return ring
    ring = RingParams(p, n, a, modulus)
    key = (ring.p, ring.n, ring.a, ring.modulus)
    if key not in _RINGS:
        if len(_RINGS) >= 32:
            del _RINGS[next(iter(_RINGS))]
        _RINGS[key] = ring
    return _RINGS[key]


def with_precision(params: RingParams, n: int) -> RingParams:
    """Same residue field and modulus lift, Witt length n (interned)."""
    if n == params.n:
        return params
    mod = params.modulus  # reduced mod p^n already when n grows, so no p^n is formed before its bound
    if mod is not None and n < params.n:
        mod = tuple(c % params.p**n for c in mod)
    return intern_ring(params.p, n, params.a, mod)


class WittElem:
    """An element of W_n(F_{p^a}) in canonical Galois-ring coordinates."""

    __slots__ = ("params", "coords")

    def __init__(self, params: RingParams, coords: Sequence[int]):
        """The one coordinate check: a ints, reduced mod p^n (bad-element otherwise)."""
        coords = _ints(coords, "bad-element", "element coordinates")
        if len(coords) != params.a:
            raise MalformedInputError(f"element needs {params.a} coordinates, got {len(coords)}", code="bad-element")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coords", tuple(c % params.pn for c in coords))

    @staticmethod
    def _raw(params: RingParams, coords: tuple[int, ...]) -> "WittElem":
        w = object.__new__(WittElem)
        _set_params(w, params)  # the slot setters: no attribute lookup through __setattr__
        _set_coords(w, coords)
        return w

    def __setattr__(self, *args):
        raise AttributeError("WittElem is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating constructor
        return WittElem, (self.params, self.coords)

    def __repr__(self):
        return f"WittElem({self.coords}, p={self.params.p}, n={self.params.n}, a={self.params.a})"

    def __eq__(self, other):
        return (
            isinstance(other, WittElem)
            and (self.params is other.params or self.params == other.params)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.params.p, self.params.n, self.params.a, self.coords))

    def _same_ring(self, other: "WittElem"):
        if self.params is not other.params and self.params != other.params:
            raise IncompatibleRingsError("operands live in different Witt rings")

    def __add__(self, other: "WittElem") -> "WittElem":
        self._same_ring(other)
        pn = self.params.pn
        return WittElem._raw(
            self.params, tuple((x + y) % pn for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "WittElem":
        pn = self.params.pn
        return WittElem._raw(self.params, tuple((-x) % pn for x in self.coords))

    def __sub__(self, other: "WittElem") -> "WittElem":
        self._same_ring(other)
        pn = self.params.pn
        return WittElem._raw(
            self.params, tuple((x - y) % pn for x, y in zip(self.coords, other.coords))
        )

    def __mul__(self, other: "WittElem") -> "WittElem":
        self._same_ring(other)
        params = self.params
        if params.a == 1:
            return WittElem._raw(params, ((self.coords[0] * other.coords[0]) % params.pn,))
        prod = [0] * (2 * params.a - 1)
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(other.coords):
                    prod[i + j] += x * y
        return WittElem._raw(params, params.reduce(prod))

    def __pow__(self, e: int) -> "WittElem":
        """x^e for an int e (not a bool, else bad-type); e < 0 needs a unit."""
        if type(e) is not int:
            raise MalformedInputError(f"exponent must be an integer, got {e!r}", code="bad-type")
        if e < 0:
            return self.inverse() ** (-e)
        result = self.params.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_unit(self) -> bool:
        p = self.params.p
        return any(c % p for c in self.coords)

    def valuation(self) -> int:
        """p-adic valuation, capped at n (the zero element reports n)."""
        p = self.params.p
        return min((_vp(c, p) for c in self.coords if c), default=self.params.n)

    def divide_exact(self, k: int) -> "WittElem":
        """Divide by p^k; all coordinates must be divisible.

        The result is canonical mod p^(n-k) but is returned in the same ring
        (upper digits are unspecified junk for internal staged computations).
        """
        pk = self.params.p**k
        out = []
        for c in self.coords:
            if c % pk:
                raise DomainError("exact division by p^k impossible")
            out.append(c // pk)
        return WittElem._raw(self.params, tuple(out))

    def inverse(self) -> "WittElem":
        params = self.params
        if not self.is_unit():
            raise DomainError("element is not a unit")
        if params.a == 1:
            return WittElem._raw(params, (pow(self.coords[0], -1, params.pn),))
        # invert in the residue field F_q as c^(q-2), then Hensel-lift (Newton iteration)
        p = params.p
        inv0 = _ppowmod(list(self.coords), p**params.a - 2, params.residue_modulus(), p)
        inv0 = inv0 + [0] * (params.a - len(inv0))
        y = params.elem(inv0)
        two = params.from_int(2)
        prec = 1
        while prec < params.n:
            y = y * (two - self * y)
            prec *= 2
        return y

    def residue(self) -> tuple[int, ...]:
        p = self.params.p
        return tuple(c % p for c in self.coords)


_set_params, _set_coords = WittElem.params.__set__, WittElem.coords.__set__


def lift_elem(x: WittElem, big: RingParams) -> WittElem:
    """Canonical lift: reinterpret the stored coordinates at higher precision."""
    return WittElem._raw(big, x.coords)


def reduce_elem(x: WittElem, small: RingParams) -> WittElem:
    pn = small.pn
    return WittElem._raw(small, tuple(c % pn for c in x.coords))


def teichmuller(params: RingParams, c) -> WittElem:
    """Teichmuller lift of a residue-field element.

    ``c`` may be a WittElem of params (taken mod p; one of another ring is an
    IncompatibleRingsError), or an integer or a coordinate sequence as
    RingParams.elem takes them, taken mod p; a bool or any other type is a
    bad-element.  The lift is the unique root of x^(p^a) = x reducing to c,
    obtained by Hensel iteration x <- x^(p^a).
    """
    if not isinstance(c, WittElem):
        c = params.elem(c)
    elif c.params is not params and c.params != params:
        raise IncompatibleRingsError("the residue to lift lives in a different Witt ring")
    x = params.elem(c.residue())
    q = params.p**params.a
    for _ in range(params.n):
        nxt = x**q
        if nxt == x:
            break
        x = nxt
    return x


def _apply(params: RingParams, rows: tuple[tuple[int, ...], ...], xs: tuple[int, ...]) -> tuple[int, ...]:
    pn = params.pn
    return tuple(sum(map(mul, row, xs)) % pn for row in rows)


def _sigma_power(x: WittElem, table: str) -> WittElem:
    """x times the ring's matrix named table; the identity for a = 1."""
    params = x.params
    if params.a == 1:
        return x
    return WittElem._raw(params, _apply(params, getattr(params, table), x.coords))


def frobenius(x: WittElem) -> WittElem:
    """The ring automorphism sigma lifting c -> c^p: the identity for a = 1,
    else one product with the ring's matrix S (``RingParams.frobenius_matrix``)."""
    return _sigma_power(x, "frobenius_matrix")


def frobenius_inverse(x: WittElem) -> WittElem:
    """sigma^(-1) = sigma^(a-1), since sigma has order a: one product with S^(a-1)."""
    return _sigma_power(x, "frobenius_inverse_matrix")


# ---------------------------------------------------------------------------
# divided-power exponential and logarithm on the ideal (p), p >= 3


def _dp_series(y: WittElem, factorial: bool) -> WittElem:
    """For y in (p): exp(y) - 1 = sum_{m >= 1} y^m / d_m, d_m = m!, if
    factorial, else log(1 + y) = sum_{m >= 1} (-1)^(m-1) y^m / d_m, d_m = m.
    v_p(d_m) <= v_p(m!) < m/(p-1) bounds the cutoff search by
    n(p-1)/(p-2) + p + 2; each term is divided exactly at n + max v_p(d_m)
    digits, so none of its n digits is lost."""
    params = y.params
    p, n = params.p, params.n
    vals, v = [], 0  # vals[m - 1] = v_p(d_m)
    for m in range(1, (n * (p - 1)) // (p - 2) + p + 3):
        v = (v if factorial else 0) + _vp(m, p)
        vals.append(v)
    cutoff = 1 + max((m for m, w in enumerate(vals, 1) if m - w < n), default=0)
    big = with_precision(params, n + max(vals[: cutoff - 1], default=0))
    yb = lift_elem(y, big)
    acc, power, inv = big.zero(), big.one(), 1
    for m in range(1, cutoff):
        power = power * yb
        k_inv = pow(m // p ** _vp(m, p), -1, big.pn)  # the inverse of m's unit part
        inv = inv * k_inv % big.pn if factorial else k_inv  # and that of d_m's
        term = power.divide_exact(vals[m - 1]) * big.from_int(inv)
        acc = acc + term if factorial or m % 2 else acc - term
    return reduce_elem(acc, params)


def dp_exp(x: WittElem) -> WittElem:
    """exp(x) = 1 + sum_{m >= 1} x^m / m! for x in the ideal (p); requires p >= 3.

    The sum is _dp_series with d_m = m!: cut at the first M with
    m - v_p(m!) >= n for every m >= M, each term divided exactly at
    n + max_{m<M} v_p(m!) digits, so no p-adic digits are lost.
    """
    params = x.params
    if params.p == 2:
        raise UnsupportedCharacteristicError("divided-power exp is not defined for p = 2")
    if x.valuation() < 1:
        raise DomainError("exp requires an argument divisible by p")
    return params.one() + _dp_series(x, True)


def dp_log(u: WittElem) -> WittElem:
    """log(u) = sum_{m >= 1} (-1)^(m-1) (u-1)^m / m for u in 1 + (p); requires p >= 3.

    The sum is _dp_series with d_m = m, cut at the first M with
    m - v_p(m) >= n for every m >= M.  Inverse of dp_exp on its domain.
    """
    params = u.params
    if params.p == 2:
        raise UnsupportedCharacteristicError("divided-power log is not defined for p = 2")
    y = u - params.one()
    if y.valuation() < 1:
        raise DomainError("log requires an argument congruent to 1 mod p")
    return _dp_series(y, False)
