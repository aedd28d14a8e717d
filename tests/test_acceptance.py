"""Acceptance suite: one test per criterion, each enforcing its exactness
requirement and wall-clock budget and printing a pass line (visible with -s).
"""

import random
import time
from fractions import Fraction

import pytest

from fcrystals import intmat
from fcrystals.blocks import (
    LatticeData,
    TorusData,
    abelian_from_ap,
    lattice_block,
    torus_block,
)
from fcrystals.onemotive import (
    assemble,
    cartier_dual,
    pair,
    tdr_dimension,
    torsion_height,
    verify_motive,
)
from fcrystals.semilinear import (
    FilteredFModule,
    newton_slopes,
    twisted_dual,
    verify,
)
from fcrystals.simplicial import PicardSkeleton, component_complex, h1_weight_ledger
from fcrystals.witt import RingParams, dp_exp, dp_log

from helpers import (
    coords_add,
    coords_mul,
    coords_to_elem,
    elem_to_coords,
    mat_scale,
    mat_sigma,
    mat_transpose,
    random_motive_spec,
    random_simplicial,
    wm_mul_oracle,
)


def _report(num, elapsed, budget, desc):
    print(f"criterion {num}: PASS ({elapsed:.2f}s < {budget}s) {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def spec_corpus():
    """200 random valid presentations with rk X, dim T <= 3, g <= 2 and their
    assembled modules (shared by criteria 5, 6, 7)."""
    rng = random.Random(1789)
    params = RingParams(5, 4)
    out = []
    while len(out) < 200:
        s = random_motive_spec(rng, params, max_x=3, max_t=3, max_g=2)
        out.append((s, assemble(s)))
    return params, out


def test_criterion_1_witt_ring_oracle():
    """Exhaustive agreement of coordinate add/mul with the Z/p^n model."""
    start = time.time()
    checked = 0
    for p in (2, 3):
        for n in (1, 2, 3):
            params = RingParams(p, n)
            elems = [params.from_int(v) for v in range(params.pn)]
            coords = [elem_to_coords(x) for x in elems]
            for i, x in enumerate(elems):
                for j, y in enumerate(elems):
                    s = coords_add(coords[i], coords[j])
                    assert coords_to_elem(s, params) == x + y
                    m = coords_mul(coords[i], coords[j])
                    assert coords_to_elem(m, params) == x * y
                    checked += 1
    _report(1, time.time() - start, 1.0, f"{checked} exhaustive coordinate pairs")


def test_criterion_2_exp_log():
    """exp(5) = 81 in W3(F5); exp/log mutually inverse on 10^3 elements."""
    start = time.time()
    P53 = RingParams(5, 3)
    assert dp_exp(P53.from_int(5)).coords == (81,)
    rng = random.Random(271828)
    count = 0
    while count < 1000:
        p = rng.choice((3, 5, 7))
        n = rng.choice((2, 3, 4))
        params = RingParams(p, n)
        x = params.from_int(p * rng.randrange(params.pn // p))
        assert dp_log(dp_exp(x)) == x
        u = params.from_int(1 + p * rng.randrange(params.pn // p))
        assert dp_exp(dp_log(u)) == u
        count += 1
    _report(2, time.time() - start, 1.0, "exp(5) = 81 and 1000 exact round trips")


def _random_small_module(rng):
    params = RingParams(rng.choice((3, 5)), 4)
    s = random_motive_spec(rng, params, max_x=2, max_t=2, max_g=1)
    return assemble(s).module


def _mutate_entry(module, which, i, j, delta_elem):
    rows = [list(r) for r in (module.f_mat if which == "F" else module.v_mat)]
    rows[i][j] = rows[i][j] + delta_elem
    new = tuple(tuple(r) for r in rows)
    if which == "F":
        return FilteredFModule(module.params, module.rank, module.weights, new, module.v_mat, module.level)
    return FilteredFModule(module.params, module.rank, module.weights, module.f_mat, new, module.level)


def test_criterion_3_crystal_axioms():
    """10^3 random valid modules of rank <= 6 verify with exact F sigma(V) =
    V sigma^(-1)(F) = p; single-entry perturbations by non-multiples of
    p^(n-1) are caught (exhaustively over entries on a sample, once per
    instance elsewhere)."""
    start = time.time()
    rng = random.Random(31415)
    modules = []
    while len(modules) < 1000:
        m = _random_small_module(rng)
        if m.rank == 0:
            continue
        assert m.rank <= 6
        modules.append(m)
    for m in modules:
        rep = verify(m)
        assert rep.ok
        checks = {c.name: c.ok for c in rep.checks}
        assert checks["fv-product"] and checks["vf-product"]

    def random_delta(params):
        n = params.n
        v = rng.randrange(n - 1)  # valuation <= n-2
        unit = rng.randrange(1, params.p)
        return params.from_int(unit * params.p**v)

    # exhaustive single-entry mutations on a sample
    for m in modules[:25]:
        for which in ("F", "V"):
            for i in range(m.rank):
                for j in range(m.rank):
                    bad = _mutate_entry(m, which, i, j, random_delta(m.params))
                    assert not verify(bad).ok
    # one random mutation everywhere else
    for m in modules[25:]:
        which = rng.choice(("F", "V"))
        i, j = rng.randrange(m.rank), rng.randrange(m.rank)
        bad = _mutate_entry(m, which, i, j, random_delta(m.params))
        assert not verify(bad).ok
    _report(3, time.time() - start, 5.0, f"{len(modules)} modules verified, all sampled mutations caught")


def test_criterion_4_slope_oracle():
    """Frozen slope values for the companion and block constructors."""
    start = time.time()
    P = RingParams(5, 4)
    assert newton_slopes(abelian_from_ap(0, P).crystal).pairs == ((Fraction(1, 2), 2),)
    for ap in (1, 2, 3, 4):
        assert newton_slopes(abelian_from_ap(ap, P).crystal).pairs == (
            (Fraction(0), 1),
            (Fraction(1), 1),
        )
    for r in (1, 2, 3):
        P_big = RingParams(5, r + 2)
        assert newton_slopes(lattice_block(LatticeData.trivial(r), P_big)).pairs == ((Fraction(1), r),)
        assert newton_slopes(torus_block(TorusData.trivial(r), P_big)).pairs == ((Fraction(0), r),)
    _report(4, time.time() - start, 1.0, "companion and block slopes exact")


def test_criterion_5_property_list(spec_corpus):
    """verify_motive passes items 1-5 on 200 random presentations, with the
    height-convention ranks."""
    start = time.time()
    _, corpus = spec_corpus
    for s, mc in corpus:
        rep = verify_motive(mc)
        assert rep.ok, (s.label, rep.failed())
        rT, g2, rX = s.segments
        assert mc.module.rank == rX + rT + g2
        assert rep.graded_ranks == (rX, g2, rT)
    _report(5, time.time() - start, 10.0, "200 presentations pass all property items")


def test_criterion_6_duality(spec_corpus):
    """Unit gram determinant and the literal Frobenius compatibility
    p sigma(gram) = F^T sigma(gram) sigma(F') for every corpus spec, checked
    entry by entry through the WittElem oracles; the twisted double dual is
    the module itself, so the identity matrix is its isomorphism witness."""
    start = time.time()
    params, corpus = spec_corpus
    p_elem = params.from_int(params.p)
    for s, mc in corpus:
        dual = assemble(cartier_dual(s))
        pm = pair(mc, dual)
        assert pm.perfect and pm.weight_orthogonal
        assert pm.frobenius_compatible and pm.verschiebung_compatible
        lhs = mat_scale(p_elem, mat_sigma(pm.gram))
        rhs = wm_mul_oracle(
            params,
            mat_transpose(mc.module.f_mat),
            wm_mul_oracle(params, mat_sigma(pm.gram), mat_sigma(dual.module.f_mat)),
        )
        assert lhs == rhs
        assert twisted_dual(twisted_dual(mc.module)) == mc.module
    _report(6, time.time() - start, 10.0, "pairing identities exact, double dual is the module")


def test_criterion_7_rank_shadow(spec_corpus):
    """tdr_dimension = rank(assemble) = torsion height on every corpus spec."""
    start = time.time()
    _, corpus = spec_corpus
    for s, mc in corpus:
        r = mc.module.rank
        height, exponent = torsion_height(s, 1)
        assert height == r and exponent == r
        assert tdr_dimension(s) == r
    _report(7, time.time() - start, 1.0, "three rank computations agree on 200 specs")


def test_criterion_8_cocharacter_freeness():
    """On 500 random component structures the cocharacter quotient is free
    and the level-1 image is a direct summand."""
    start = time.time()
    rng = random.Random(5772)
    for _ in range(500):
        s = random_simplicial(rng, max_count=6)
        d1, d2 = component_complex(s)
        assert all(d == 1 for d in intmat.elementary_divisors(d1))
        # freeness of Ker d^2 / Im d^1 via the dualized complex
        dual1, dual2 = intmat.transpose(d1), intmat.transpose(d2)
        kernel = intmat.kernel_basis(dual2)
        if kernel:
            kmat = intmat.transpose(kernel)
            coords = intmat.solve_exact(kmat, dual1)
            assert coords is not None
            assert all(d == 1 for d in intmat.elementary_divisors(coords))
    _report(8, time.time() - start, 5.0, "500 structures: free quotient, unit divisors")


def test_criterion_9_rank_ledger():
    """Curve-minus-points ledgers total 2g + (m-1); the proper-normal case
    gives 2g with vanishing outer pieces."""
    start = time.time()
    params = RingParams(5, 4)
    for g in range(4):
        for m in range(1, 6):
            ledger = h1_weight_ledger(PicardSkeleton(m - 1, 0, g), params)
            assert ledger.total == 2 * g + (m - 1)
            assert ledger.total == ledger.crystal_rank
        proper = h1_weight_ledger(PicardSkeleton(0, 0, g), params)
        assert proper.gr0 == 0 and proper.gr2 == 0
        assert proper.total == 2 * g == proper.crystal_rank
    _report(9, time.time() - start, 1.0, "ledger totals match assembled ranks")


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical CLI output across two runs of the fixture corpus."""
    from test_cli import GOLDEN_CASES, run_cli

    start = time.time()
    for k, (_, argv) in enumerate(GOLDEN_CASES):
        a = tmp_path / f"{k}a.json"
        b = tmp_path / f"{k}b.json"
        assert run_cli(argv, a)[0] == 0
        assert run_cli(argv, b)[0] == 0
        assert a.read_bytes() == b.read_bytes()
    _report(10, time.time() - start, 10.0, f"{len(GOLDEN_CASES)} verb runs byte-stable")
