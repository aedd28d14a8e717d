import random
import re
from dataclasses import replace

import pytest

from fcrystals import intmat, simplicial
from fcrystals.blocks import abelian_from_ap
from fcrystals.errors import (
    InternalError,
    InvalidSimplicialError,
    MalformedInputError,
    ShapeError,
    UnsupportedInputError,
)
from fcrystals.onemotive import MotiveCrystal, assemble
from fcrystals.simplicial import (
    DivisorPresentation,
    PicardSkeleton,
    SimplicialComponents,
    cocharacter_group,
    component_complex,
    div0_lattice,
    h1_weight_ledger,
    picard_skeleton,
)
from fcrystals.witt import RingParams, default_modulus

from helpers import bareiss_det, cocharacter_oracle, kernel_rank_over_q, matvec, rank_over_q, random_simplicial

P54 = RingParams(5, 4)

POINT = SimplicialComponents((1, 1, 1), (((0,), (0,)), ((0,), (0,), (0,))))
NODAL = SimplicialComponents((1, 2, 1), (((0, 0), (0, 0)), ((0,), (0,), (0,))))
# no level-2 components: Ker d^2 is all of C^1
TWO_CYCLE = SimplicialComponents((2, 2, 0), (((0, 1), (1, 0)), ((), (), ())))
LOOP = SimplicialComponents((1, 1, 0), (((0,), (0,)), ((), (), ())))


def dense_complex(s: SimplicialComponents):
    """d_1 and d_2 of s as dense matrices, its face maps not validated."""
    c0, c1, c2 = s.counts[:3]
    d1, d2 = intmat.zeros(c0, c1), intmat.zeros(c1, c2)
    for sign, i in ((1, 0), (-1, 1)):
        for j, v in enumerate(s.face(1, i)):
            d1[v][j] += sign
    for sign, i in ((1, 0), (-1, 1), (1, 2)):
        for j, e in enumerate(s.face(2, i)):
            d2[e][j] += sign
    return d1, d2


def identity_divisor(m: int) -> DivisorPresentation:
    eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    return DivisorPresentation(m, eye, eye, ((1,) * m,))


class TestComponentComplex:
    def test_point(self):
        d1, d2 = component_complex(POINT)
        assert d1 == [[0]]
        assert d2 == [[1]]

    def test_nodal(self):
        d1, d2 = component_complex(NODAL)
        assert d1 == [[0, 0]]
        assert d2 == [[1], [0]]

    def test_composite_vanishes_randomly(self):
        rng = random.Random(31)
        for _ in range(100):
            s = random_simplicial(rng)
            d1, d2 = component_complex(s)
            prod = intmat.mul(d1, d2)
            assert all(all(x == 0 for x in row) for row in prod)

    def test_nonvanishing_composite_is_internal_error(self, monkeypatch):
        """With validation switched off, face maps breaking d_0 d_1 = d_0 d_0
        reach the d_1 d_2 = 0 check."""
        monkeypatch.setattr(SimplicialComponents, "validate", lambda self: None)
        bad = SimplicialComponents((2, 2, 1), (((0, 1), (1, 0)), ((0,), (1,), (0,))))
        with pytest.raises(InternalError, match="d_1 d_2 != 0 although the simplicial identities hold"):
            component_complex(bad)

    def test_sparse_check_agrees_with_the_dense_product(self, monkeypatch):
        """The per-simplex check of d_1 d_2 = 0 accepts exactly the face maps
        whose dense product d_1 d_2 vanishes, valid or not."""
        monkeypatch.setattr(SimplicialComponents, "validate", lambda self: None)
        rng = random.Random(36)
        seen = set()
        for k in range(300):
            if k % 3:
                c0, c1, c2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
                faces = (
                    tuple(tuple(rng.randrange(c0) for _ in range(c1)) for _ in range(2)),
                    tuple(tuple(rng.randrange(c1) for _ in range(c2)) for _ in range(3)),
                )
                s = SimplicialComponents((c0, c1, c2), faces)
            else:
                s = random_simplicial(rng)
            d1, d2 = dense_complex(s)
            vanishes = not any(x for row in intmat.mul(d1, d2) for x in row)
            seen.add(vanishes)
            if vanishes:
                assert component_complex(s) == (d1, d2)
            else:
                with pytest.raises(InternalError, match="d_1 d_2 != 0"):
                    component_complex(s)
        assert seen == {True, False}

    def test_face_identity_violation(self):
        bad = SimplicialComponents((2, 2, 1), (((0, 1), (1, 0)), ((0,), (1,), (0,))))
        with pytest.raises(InvalidSimplicialError):
            component_complex(bad)

    def test_out_of_range_face(self):
        bad = SimplicialComponents((1, 1, 1), (((5,), (0,)), ((0,), (0,), (0,))))
        with pytest.raises(InvalidSimplicialError):
            component_complex(bad)

    def test_three_truncation_validated(self):
        s = SimplicialComponents(
            (1, 1, 1, 1),
            (((0,), (0,)), ((0,), (0,), (0,)), ((0,), (0,), (0,), (0,))),
        )
        d1, d2 = component_complex(s)
        assert d2 == [[1]]
        bad = SimplicialComponents(
            (1, 2, 1, 1),
            (((0, 0), (0, 0)), ((0,), (0,), (0,)), ((0,), (1,), (0,), (0,))),
        )
        with pytest.raises(InvalidSimplicialError):
            component_complex(bad)


class TestCocharacters:
    def test_point_has_no_torus(self):
        assert cocharacter_group(POINT) == (0, [])

    def test_nodal_rank_one(self):
        rank, basis = cocharacter_group(NODAL)
        assert rank == 1
        assert len(basis) == 1 and len(basis[0]) == 2
        # kernel of the dual d^2 = [1, 0] is spanned by (0, 1)
        assert [abs(x) for x in basis[0]] == [0, 1]

    def test_random_structures_free_and_summand(self):
        rng = random.Random(32)
        for _ in range(100):
            s = random_simplicial(rng)
            d1, _ = component_complex(s)
            divisors = intmat.elementary_divisors(d1)
            assert all(d == 1 for d in divisors)
            rank, basis = cocharacter_group(s)
            assert rank >= 0
            assert len(basis) == rank

    def test_rank_against_fraction_gauss(self):
        rng = random.Random(33)
        for _ in range(50):
            s = random_simplicial(rng)
            d1, d2 = component_complex(s)
            dual1, dual2 = intmat.transpose(d1), intmat.transpose(d2)
            # rank of Ker d^2 / Im d^1 = dim Ker d^2 - rank d^1 over Q
            ker_rank = kernel_rank_over_q(dual2)
            im_rank = rank_over_q(dual1)
            rank, _ = cocharacter_group(s)
            assert rank == ker_rank - im_rank


    def test_loop_without_level_two(self):
        assert cocharacter_group(LOOP) == (1, [[1]])

    def test_two_cycle_without_level_two(self):
        d1, _ = component_complex(TWO_CYCLE)
        rank, basis = cocharacter_group(TWO_CYCLE)
        assert rank == (2 - 0) - rank_over_q(d1) == 1
        # the lift completes Im d^1 = Z (1, -1) to a basis of C^1
        assert abs(bareiss_det([d1[0], basis[0]])) == 1

    def test_rank_without_level_two_against_fraction_gauss(self):
        """c2 = 0, drawn apart from random_simplicial: the rank is
        c1 - rank d^1, and the lifted basis is independent of Im d^1."""
        rng = random.Random(35)
        for _ in range(60):
            c0, c1 = rng.randint(1, 6), rng.randint(0, 6)
            faces = tuple(tuple(rng.randrange(c0) for _ in range(c1)) for _ in range(2))
            s = SimplicialComponents((c0, c1, 0), (faces, ((), (), ())))
            d1, _ = component_complex(s)
            rank, basis = cocharacter_group(s)
            im_rank = rank_over_q(d1)  # the rows of d_1 span Im d^1
            assert rank == c1 - im_rank
            assert len(basis) == rank and all(len(col) == c1 for col in basis)
            assert rank_over_q(d1 + basis) == rank + im_rank


    @pytest.mark.parametrize(
        "d1,d2,message",
        [
            ([[2, 0]], [[0], [1]], "not a direct summand"),
            ([[1, 0]], [[1], [0]], "does not land in Ker d"),
            # Im d^1 = 2 Ker d^2: the quotient has torsion, the same invariant
            ([[0, 2]], [[1], [0]], "not a direct summand"),
        ],
    )
    def test_broken_complex_is_internal_error(self, monkeypatch, d1, d2, message):
        """A complex with d_1 d_2 != 0 or a non-summand image cannot come from
        component_complex; fed one, cocharacter_group names the invariant."""
        monkeypatch.setattr(simplicial, "component_complex", lambda s: (d1, d2))
        with pytest.raises(InternalError, match=message):
            cocharacter_group(NODAL)

    def test_summand_check_is_the_elementary_divisors_of_d1(self, monkeypatch):
        """On complexes with d_1 d_2 = 0 whose d_1 need not be a graph
        incidence matrix, the one diagonal check of the lift form fails
        exactly when d_1 has an elementary divisor other than 1, and
        otherwise the rank is c1 - rank d_2 - rank d_1."""
        seen = {True: 0, False: 0}
        for shell, d1, d2 in _general_complexes(random.Random(36), 200):
            monkeypatch.setattr(simplicial, "component_complex", lambda s: (d1, d2))
            broken = any(x != 1 for x in intmat.elementary_divisors(d1))
            seen[broken] += 1
            if broken:
                with pytest.raises(InternalError, match="image of C_1 -> C_0 is not a direct summand"):
                    cocharacter_group(shell)
                continue
            rank, basis = cocharacter_group(shell)
            assert rank == shell.counts[1] - rank_over_q(d2) - rank_over_q(d1)
            assert len(basis) == rank
            dual2 = intmat.transpose(d2) if shell.counts[2] else [[0] * shell.counts[1]]
            assert all(x == 0 for col in basis for x in matvec(dual2, col))
        assert min(seen.values()) >= 20

    def test_same_basis_as_the_dense_formula(self):
        """The products gathered from the sparse factors give the rank and
        basis of the dense transpose-and-multiply formula, on random
        structures of the sizes the benchmark draws and on those without
        level 2."""
        rng = random.Random(37)
        structures = [POINT, NODAL, TWO_CYCLE, LOOP]
        structures += [random_simplicial(rng, max_count=rng.choice([6, 12, 40])) for _ in range(200)]
        for _ in range(20):
            c0, c1 = rng.randint(1, 6), rng.randint(0, 6)
            faces = tuple(tuple(rng.randrange(c0) for _ in range(c1)) for _ in range(2))
            structures.append(SimplicialComponents((c0, c1, 0), (faces, ((), (), ()))))
        ranks = set()
        for s in structures:
            d1, d2 = component_complex(s)
            got = cocharacter_group(s)
            assert got == cocharacter_oracle(d1, d2, s.counts[1]), s
            ranks.add(got[0])
        assert len(ranks) >= 5

    def test_same_basis_as_the_dense_formula_on_general_d1(self, monkeypatch):
        """On the d_1 that are not incidence matrices, the same (rank, basis)
        as the dense formula, or the same invariant error."""
        for shell, d1, d2 in _general_complexes(random.Random(38), 200):
            monkeypatch.setattr(simplicial, "component_complex", lambda s: (d1, d2))
            try:
                want = cocharacter_oracle(d1, d2, shell.counts[1])
            except InternalError as exc:
                with pytest.raises(InternalError, match=re.escape(str(exc))):
                    cocharacter_group(shell)
                continue
            assert cocharacter_group(shell) == want, (d1, d2)


def _general_complexes(rng, count):
    """(shell, d_1, d_2) with d_1 d_2 = 0 and d_1 not necessarily a graph
    incidence matrix: d_1^T = K R for a kernel basis K of d^2.  The shell
    carries the counts only."""
    for _ in range(count):
        c0, c1, c2 = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 4)
        d2 = [[rng.randint(-2, 2) for _ in range(c2)] for _ in range(c1)]
        dual2 = intmat.transpose(d2) if c2 else [[0] * c1]
        kernel = intmat.kernel_basis(dual2)  # columns y with y^T d_2 = 0
        mix = [[rng.randint(-3, 3) for _ in range(c0)] for _ in kernel]
        # d_1^T = K R, so d_1 d_2 = R^T K^T d_2 = 0
        d1 = [[sum(k[i] * r[j] for k, r in zip(kernel, mix)) for i in range(c1)] for j in range(c0)]
        yield SimplicialComponents((c0, c1, c2), ()), d1, d2


class TestStrictInts:
    """The constructors take ints only: a bool or a float is a bad-type,
    never coerced."""

    @pytest.mark.parametrize(
        "counts,faces",
        [
            ((1, True, 1), (((0,), (0,)), ((0,), (0,), (0,)))),
            ((1, 1.0, 1), (((0,), (0,)), ((0,), (0,), (0,)))),
            ((1, 1, 1), (((0,), (False,)), ((0,), (0,), (0,)))),
            ((1, 1, 1), (((0,), (0,)), ((0,), (0.0,), (0,)))),
            ((1, 1, 1), ((0, 0), ((0,), (0,), (0,)))),
        ],
    )
    def test_simplicial_components(self, counts, faces):
        with pytest.raises(MalformedInputError) as exc:
            SimplicialComponents(counts, faces)
        assert exc.value.code == "bad-type"

    @pytest.mark.parametrize(
        "args",
        [
            (True, ((1,),), ((1,),), ()),
            (1.0, ((1,),), ((1,),), ()),
            (1, ((1.5,),), ((1,),), ()),
            (1, ((1,),), ((True,),), ()),
            (1, ((1,),), ((1,),), (("1",),)),
            (True, ((1.5,),), ((True,),), ()),
        ],
    )
    def test_divisor_presentation(self, args):
        with pytest.raises(MalformedInputError) as exc:
            DivisorPresentation(*args)
        assert exc.value.code == "bad-type"

    @pytest.mark.parametrize("args", [(True, 0, 0), (0, False, 0), (0, 0, 1.0), (1.5, 0, 0), ("1", 0, 0), (None, 0, 0)])
    def test_picard_skeleton(self, args):
        with pytest.raises(MalformedInputError) as exc:
            PicardSkeleton(*args)
        assert exc.value.code == "bad-type"

    @pytest.mark.parametrize("g", [True, 1.5, "1"])
    def test_picard_skeleton_genus(self, g):
        """The genus is checked by PicardSkeleton before the default abelian
        block is built from it."""
        with pytest.raises(MalformedInputError) as exc:
            picard_skeleton(POINT, DivisorPresentation(0, (), (), ()), g, P54)
        assert exc.value.code == "bad-type"

    def test_ints_still_build(self):
        assert SimplicialComponents([1, 2, 1], [[[0, 0], [0, 0]], [[0], [0], [0]]]) == NODAL
        assert PicardSkeleton(1, 0, 2).abelian_dim == 2
        assert DivisorPresentation(1, [[1]], [[0]], [[1]]).pull0 == ((1,),)


class TestDiv0:
    def test_points_on_a_curve(self):
        rank, basis = div0_lattice(identity_divisor(3))
        assert rank == 2
        for col in basis:
            assert sum(col) == 0  # degree zero

    def test_empty_boundary(self):
        assert div0_lattice(DivisorPresentation(0, (), (), ())) == (0, [])

    def test_injective_difference(self):
        d = DivisorPresentation(
            2,
            ((1, 0), (0, 1)),
            ((0, 0), (0, 0)),
            (),
        )
        assert div0_lattice(d)[0] == 0

    def test_rank_nullity_cross_check(self):
        rng = random.Random(34)
        for _ in range(30):
            m = rng.randint(1, 5)
            rows = rng.randint(0, 3)
            nsrows = rng.randint(0, 2)
            p0 = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rows))
            p1 = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rows))
            ns = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(nsrows))
            d = DivisorPresentation(m, p0, p1, ns)
            rank, basis = div0_lattice(d)
            stacked = [
                [a - b for a, b in zip(r0, r1)] for r0, r1 in zip(p0, p1)
            ] + [list(r) for r in ns]
            if not stacked:
                stacked = [[0] * m]
            assert rank == kernel_rank_over_q(stacked)
            assert rank <= m
            for col in basis:
                assert all(x == 0 for x in matvec(stacked, col))


class TestPicardSkeleton:
    def test_curve_minus_points(self):
        sk, spec = picard_skeleton(POINT, identity_divisor(4), 2, P54)
        assert sk == PicardSkeleton(3, 0, 2)
        assert assemble(spec).module.rank == 3 + 0 + 4

    def test_proper_normal(self):
        sk, spec = picard_skeleton(POINT, DivisorPresentation(0, (), (), ()), 1, P54)
        assert sk == PicardSkeleton(0, 0, 1)
        assert assemble(spec).module.weights == (-1, -1)

    def test_nodal_torus(self):
        sk, _ = picard_skeleton(NODAL, DivisorPresentation(0, (), (), ()), 1, P54)
        assert sk == PicardSkeleton(0, 1, 1)

    def test_torus_without_level_two(self):
        for s in (LOOP, TWO_CYCLE):
            sk, spec = picard_skeleton(s, DivisorPresentation(0, (), (), ()), 0, P54)
            assert sk == PicardSkeleton(0, 1, 0)
            assert assemble(spec).module.weights == (-2,)

    def test_explicit_abelian_block(self):
        block = abelian_from_ap(2, P54)
        sk, spec = picard_skeleton(POINT, identity_divisor(2), 1, P54, abelian=block)
        assert sk.abelian_dim == 1
        assert spec.abelian is block

    def test_dimension_mismatch(self):
        block = abelian_from_ap(2, P54)
        with pytest.raises(ShapeError):
            picard_skeleton(POINT, identity_divisor(2), 2, P54, abelian=block)

    def test_extension_field_needs_explicit_block(self):
        params = RingParams(5, 6, 2, default_modulus(5, 2))
        with pytest.raises(UnsupportedInputError):
            picard_skeleton(POINT, identity_divisor(2), 1, params)


class TestLedger:
    def test_curve_minus_points_totals(self):
        for g in range(4):
            for m in range(1, 6):
                sk = PicardSkeleton(m - 1, 0, g)
                ledger = h1_weight_ledger(sk, P54)
                assert ledger.total == 2 * g + (m - 1)
                assert ledger.consistent
                assert (ledger.gr0, ledger.gr1, ledger.gr2) == (0, 2 * g, m - 1)

    def test_proper_normal_variety(self):
        for g in range(4):
            ledger = h1_weight_ledger(PicardSkeleton(0, 0, g), P54)
            assert ledger.gr0 == 0 and ledger.gr2 == 0
            assert ledger.total == 2 * g == ledger.crystal_rank

    def test_empty_data(self):
        ledger = h1_weight_ledger(PicardSkeleton(0, 0, 0), P54)
        assert ledger.total == 0 and ledger.crystal_rank == 0
        assert ledger.consistent

    def test_torus_contribution(self):
        ledger = h1_weight_ledger(PicardSkeleton(2, 3, 1), P54)
        assert (ledger.gr0, ledger.gr1, ledger.gr2) == (3, 2, 2)
        assert ledger.total == 7 == ledger.crystal_rank

    def test_shifted_weight_is_inconsistent(self, monkeypatch):
        """An assembly that keeps the rank but moves a basis vector from
        weight -2 to weight -1 must fail the ledger check."""

        def shifted(spec):
            mc = assemble(spec)
            weights = (-1,) + mc.module.weights[1:]
            return MotiveCrystal(replace(mc.module, weights=weights), spec)

        monkeypatch.setattr(simplicial, "assemble", shifted)
        ledger = h1_weight_ledger(PicardSkeleton(2, 3, 1), P54)
        assert ledger.total == ledger.crystal_rank
        assert not ledger.consistent
