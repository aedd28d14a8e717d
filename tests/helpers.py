"""Shared test utilities: independent oracles and random-instance generators.

Oracles here deliberately avoid the library code paths they check: the
exp/log oracles work in plain integer arithmetic mod p^n, the kernel oracle
does fraction-field Gaussian elimination, the determinant oracle is Bareiss
fraction-free elimination instead of the Smith form, the Frobenius oracle
goes through Teichmuller digits instead of the precomputed matrix, the
pairing oracle places the gram entries block by block and checks it as a
dense matrix instead of reindexing by the dual permutation, and the Z/p^n
model is used as the ground truth for Witt coordinate arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, abelian_from_ap
from fcrystals.onemotive import MotiveCrystal, OneMotiveSpec, PairingMatrix
from fcrystals.semilinear import (
    wm_det,
    wm_eq,
    wm_mul,
    wm_scal,
    wm_sigma,
    wm_sigma_inv,
    wm_transpose,
    wm_zero,
    wmat,
)
from fcrystals.simplicial import SimplicialComponents
from fcrystals.witt import RingParams, WittElem, teichmuller, teichmuller_digits


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


# ---------------------------------------------------------------------------
# digit-based Frobenius oracle (any a)


def residue_pow_p(params: RingParams, res: tuple[int, ...]) -> tuple[int, ...]:
    """c -> c^p in the residue field, as a residue tuple."""
    return (params.elem(res) ** params.p).residue()


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
    perfect = wm_det(params, gram).is_unit() if r else True
    wts, wts_d = m.module.weights, m_dual.module.weights
    weight_orth = all(
        gram[i][j].is_zero() for i in range(r) for j in range(r) if wts[i] + wts_d[j] < -2
    )
    p_elem = params.from_int(params.p)
    lhs_f = wm_mul(params, wm_transpose(m.module.f_mat), wm_mul(params, gram, m_dual.module.f_mat))
    frob_ok = wm_eq(lhs_f, wm_scal(p_elem, wm_sigma(gram)))
    versch_ok = True
    if m.module.v_mat is not None:
        lhs_v = wm_mul(params, wm_transpose(m.module.v_mat), wm_mul(params, gram, m.canonical_dual.v_mat))
        versch_ok = wm_eq(lhs_v, wm_scal(p_elem, wm_sigma_inv(gram)))
    return PairingMatrix(gram, perfect, weight_orth, frob_ok, versch_ok)


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
        ext_xa = wm_mul(params, abelian.crystal.f_mat, seed_block)
    else:
        ext_xa = wm_zero(params, g2, r_x)
    return OneMotiveSpec(params, lattice, torus, abelian, ext_at, ext_xa, ext_xt, label)


def random_simplicial(rng: random.Random, max_count: int = 6) -> SimplicialComponents:
    """A valid random 2-truncated component structure.

    Edge 0 is forced to be a loop on vertex 0 so level-2 faces can always be
    completed compatibly with the simplicial identities.
    """
    c0 = rng.randint(1, max_count)
    c1 = rng.randint(1, max_count)
    c2 = rng.randint(1, max_count)
    d0 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    d1 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    f0, f1, f2 = [], [], []
    for _ in range(c2):
        e0 = rng.randrange(c1)
        e1 = rng.choice([e for e in range(c1) if d0[e] == d0[e0]])
        cands = [e for e in range(c1) if d0[e] == d1[e0] and d1[e] == d1[e1]]
        if cands:
            e2 = rng.choice(cands)
        else:
            e0 = e1 = e2 = 0
        f0.append(e0)
        f1.append(e1)
        f2.append(e2)
    return SimplicialComponents(
        (c0, c1, c2),
        ((tuple(d0), tuple(d1)), (tuple(f0), tuple(f1), tuple(f2))),
    )
