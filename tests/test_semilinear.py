import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fcrystals import intmat
from fcrystals.blocks import LatticeData, TorusData, abelian_from_ap, lattice_block, tate, torus_block
from fcrystals.errors import (
    IncompatibleRingsError,
    InvalidActionError,
    MalformedInputError,
    PrecisionError,
    ShapeError,
    SingularFrobeniusError,
)
from fcrystals.onemotive import assemble
from fcrystals.semilinear import (
    FilteredFModule,
    charpoly,
    conjugate,
    conjugate_by_permutation,
    direct_sum,
    is_isomorphism_witness,
    newton_slopes,
    smith_normal_form,
    tensor,
    twisted_dual,
    verify,
    wm_det,
    wm_eq,
    wm_identity,
    wm_inverse_unit,
    wm_mul,
    wmat,
    wmat_from_ints,
    _argsort_stable,
)
from fcrystals.witt import RingParams, default_modulus

from helpers import bareiss_det, random_motive_spec, random_unimodular

P54 = RingParams(5, 4)
F9 = RingParams(3, 5, 2, default_modulus(3, 2))


# ---------------------------------------------------------------------------
# Smith normal form


class TestSmith:
    def test_identity(self):
        u, d, v = smith_normal_form(intmat.identity(3))
        assert d == intmat.identity(3)
        assert u == intmat.identity(3) and v == intmat.identity(3)

    def test_2x2_example(self):
        a = [[2, 4], [6, 8]]
        u, d, v = smith_normal_form(a)
        assert [d[0][0], d[1][1]] == [2, 4]
        assert intmat.mul(intmat.mul(u, a), v) == d
        assert abs(bareiss_det(u)) == 1 and abs(bareiss_det(v)) == 1

    def test_column_vector(self):
        a = [[1], [-1]]
        u, d, v = smith_normal_form(a)
        assert intmat.elementary_divisors(a) == [1]
        assert intmat.mul(intmat.mul(u, a), v) == d

    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_invariants(self, r, c, data):
        a = [
            [data.draw(st.integers(-9, 9)) for _ in range(c)]
            for _ in range(r)
        ]
        u, d, v = smith_normal_form(a)
        assert intmat.mul(intmat.mul(u, a), v) == d
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        divisors = [d[i][i] for i in range(min(r, c))]
        for i in range(len(divisors) - 1):
            assert divisors[i] >= 0
            if divisors[i + 1]:
                assert divisors[i] != 0 and divisors[i + 1] % divisors[i] == 0

    def test_divisors_invariant_under_unimodular(self):
        rng = random.Random(11)
        for _ in range(20):
            a = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            left = random_unimodular(rng, 3)
            right = random_unimodular(rng, 3)
            b = intmat.mul(intmat.mul(left, a), right)
            assert intmat.elementary_divisors(a) == intmat.elementary_divisors(b)

    def test_kernel_basis(self):
        rng = random.Random(12)
        for _ in range(20):
            a = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(2)]
            basis = intmat.kernel_basis(a)
            for col in basis:
                assert all(x == 0 for x in intmat.matvec(a, col))
            assert len(basis) == 4 - intmat.rank(a)

    def test_solve_exact(self):
        a = [[2, 0], [0, 3]]
        sol = intmat.solve_exact(a, [[4], [9]])
        assert sol == [[2], [3]]
        assert intmat.solve_exact(a, [[1], [0]]) is None

    def test_inverse_unimodular(self):
        rng = random.Random(13)
        cases = [random_unimodular(rng, r) for r in range(9) for _ in range(5)]
        for _ in range(5):
            a = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(12)]
            cases.append(smith_normal_form(a)[0])
        for a in cases:
            inv = intmat.inverse_unimodular(a)
            ident = intmat.identity(len(a))
            assert intmat.mul(a, inv) == ident
            assert intmat.mul(inv, a) == ident

    def test_inverse_rejects_non_unimodular(self):
        rng = random.Random(14)
        left, right = random_unimodular(rng, 4), random_unimodular(rng, 4)
        det2 = intmat.mul(intmat.mul(left, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]]), right)
        assert abs(bareiss_det(det2)) == 2
        singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert bareiss_det(singular) == 0
        for a in ([[2]], [[0, 1], [2, 0]], det2, [[0]], [[0, 0], [0, 0]], singular):
            with pytest.raises(InvalidActionError):
                intmat.inverse_unimodular(a)

    def test_inverse_rejects_non_square(self):
        with pytest.raises(ShapeError):
            intmat.inverse_unimodular([[1, 0, 0], [0, 1, 0]])


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_unit_twist_passes(self):
        assert verify(tate(1, RingParams(3, 3))).ok

    def test_fv_product_failure(self):
        P = RingParams(3, 3)
        m = FilteredFModule(P, 1, (-2,), wmat_from_ints(P, [[1]]), wmat_from_ints(P, [[1]]), 1)
        rep = verify(m)
        assert not rep.ok
        assert rep.first_failure.name == "fv-product"
        details = {c.name: c.detail for c in rep.checks}
        assert details["fv-product"] == "F sigma(V) != p^1 I: entry (0, 0) is [1], expected [3]"
        assert details["vf-product"] == "V sigma^-1(F) != p^1 I: entry (0, 0) is [1], expected [3]"

    def test_product_failure_names_first_offending_entry(self):
        P = RingParams(3, 3)
        good = tate(1, P)  # F = [1], V = [3]
        f = wmat_from_ints(P, [[1, 0], [0, 1]])
        v = wmat_from_ints(P, [[3, 0], [2, 3]])  # V[1][0] breaks F sigma(V) = 3 I off the diagonal
        m = FilteredFModule(P, 2, good.weights * 2, f, v, 1)
        details = {c.name: c.detail for c in verify(m).checks if not c.ok}
        assert details == {
            "fv-product": "F sigma(V) != p^1 I: entry (1, 0) is [2], expected [0]",
            "vf-product": "V sigma^-1(F) != p^1 I: entry (1, 0) is [2], expected [0]",
        }

    def test_negative_level_fails_both_products(self):
        P = RingParams(5, 4)
        t = tate(1, P)
        rep = verify(FilteredFModule(P, 1, t.weights, t.f_mat, t.v_mat, -1))
        details = {c.name: c.detail for c in rep.checks if not c.ok}
        assert details == {
            "level": "level = -1",
            "fv-product": "F sigma(V) != p^-1 I: p^-1 is not in W_n(k)",
            "vf-product": "V sigma^-1(F) != p^-1 I: p^-1 is not in W_n(k)",
        }

    @pytest.mark.parametrize(
        "rank,weights,level",
        [
            (1, (-2,), True),
            (1, (-2,), 1.0),
            (1, (-2,), "1"),
            (1, (True,), 1),
            (1, (-2.0,), 1),
            (1, ("-2",), 1),
            (True, (-2,), 1),
            (1.0, (-2,), 1),
        ],
    )
    def test_module_rejects_non_int_rank_weight_or_level(self, rank, weights, level):
        P = RingParams(3, 3)
        one = wmat_from_ints(P, [[1]])
        with pytest.raises(MalformedInputError) as exc:
            FilteredFModule(P, rank, weights, one, None, level)
        assert exc.value.code == "bad-type"

    def test_descending_weights_rejected(self):
        P = RingParams(3, 3)
        m = FilteredFModule(
            P, 2, (0, -2), wmat_from_ints(P, [[3, 0], [1, 1]]), None, 1
        )
        rep = verify(m)
        assert not rep.ok
        assert rep.first_failure.name == "weight-order"

    def test_flag_violation(self):
        P = RingParams(3, 3)
        # ascending weights (-2, 0); the weight-0 image may not hit weight -2... it may;
        # the forbidden direction is weight -2 feeding weight 0 output
        m = FilteredFModule(
            P, 2, (-2, 0), wmat_from_ints(P, [[1, 0], [1, 3]]), None, 1
        )
        rep = verify(m)
        assert not rep.ok
        assert rep.first_failure.name == "flag-F"
        assert "F[1][0]" in rep.first_failure.detail

    def test_flag_violation_in_v(self):
        P = RingParams(3, 3)
        m = FilteredFModule(
            P,
            2,
            (-2, 0),
            wmat_from_ints(P, [[1, 0], [0, 3]]),
            wmat_from_ints(P, [[3, 0], [1, 1]]),
            1,
        )
        rep = verify(m)
        names = [c.name for c in rep.checks if not c.ok]
        assert "flag-V" in names


# ---------------------------------------------------------------------------
# tensor / dual / direct sum


class TestTensor:
    def test_twist_square(self):
        t1 = tate(1, P54)
        sq = tensor(t1, t1)
        assert sq.rank == 1 and sq.level == 2 and sq.weights == (-4,)
        assert sq.f_mat[0][0] == P54.one()
        assert sq.v_mat[0][0] == P54.from_int(25)

    def test_tensor_with_weight_zero_twist_scales_f(self):
        m = abelian_from_ap(0, P54).crystal
        t0 = tate(0, P54)
        out = tensor(m, t0)
        assert out.level == 2
        assert wm_eq(out.f_mat, wmat_from_ints(P54, [[0, -25], [5, 0]]))
        assert out.weights == (-1, -1)

    def test_mixed_twist_product(self):
        prod = tensor(tate(1, P54), tate(0, P54))
        assert prod.rank == 1 and prod.level == 2
        assert prod.f_mat[0][0] == P54.from_int(5)
        assert newton_slopes(prod).pairs == ((Fraction(1), 1),)

    def test_rank_multiplicative(self):
        rng = random.Random(13)
        for _ in range(5):
            m1 = assemble(random_motive_spec(rng, P54, 2, 2, 1)).module
            m2 = assemble(random_motive_spec(rng, P54, 1, 1, 1)).module
            t = tensor(m1, m2)
            assert t.rank == m1.rank * m2.rank
            assert verify(t).ok

    def test_weights_are_sorted_sum(self):
        m1 = direct_sum(tate(1, P54), tate(0, P54))   # weights (-2, 0)
        m2 = abelian_from_ap(1, P54).crystal          # weights (-1, -1)
        t = tensor(m1, m2)
        assert t.weights == (-3, -3, -1, -1)

    def test_associative_up_to_reindexing(self):
        rng = random.Random(14)
        mods = [
            direct_sum(tate(1, P54), tate(0, P54)),
            abelian_from_ap(0, P54).crystal,
            tate(1, P54),
        ]

        def tensor_triple_left(a, b, c):
            return tensor(tensor(a, b), c)

        def tensor_triple_right(a, b, c):
            return tensor(a, tensor(b, c))

        def index_triples_left(a, b, c):
            w_ab = [x + y for x in a.weights for y in b.weights]
            p_ab = _argsort_stable(w_ab)
            pairs = [divmod(p_ab[k], b.rank) for k in range(len(w_ab))]
            w_abc = [w_ab[p_ab[k]] + z for k in range(len(w_ab)) for z in c.weights]
            p = _argsort_stable(w_abc)
            out = []
            for k in range(len(w_abc)):
                q, r = divmod(p[k], c.rank)
                out.append((pairs[q][0], pairs[q][1], r))
            return out

        def index_triples_right(a, b, c):
            w_bc = [y + z for y in b.weights for z in c.weights]
            p_bc = _argsort_stable(w_bc)
            pairs = [divmod(p_bc[k], c.rank) for k in range(len(w_bc))]
            w_abc = [x + w_bc[p_bc[k]] for x in a.weights for k in range(len(w_bc))]
            p = _argsort_stable(w_abc)
            out = []
            for k in range(len(w_abc)):
                q, r = divmod(p[k], len(w_bc))
                out.append((q, pairs[r][0], pairs[r][1]))
            return out

        a, b, c = mods
        left = tensor_triple_left(a, b, c)
        right = tensor_triple_right(a, b, c)
        lt, rt = index_triples_left(a, b, c), index_triples_right(a, b, c)
        perm = [rt.index(t) for t in lt]  # right-basis index for each left-basis vector
        relabeled = conjugate_by_permutation(right, perm)
        assert relabeled.weights == left.weights
        assert wm_eq(relabeled.f_mat, left.f_mat)
        assert wm_eq(relabeled.v_mat, left.v_mat)

    def test_incompatible_rings(self):
        with pytest.raises(IncompatibleRingsError):
            tensor(tate(1, P54), tate(1, RingParams(5, 3)))


class TestTwistedDual:
    def test_unit_twist_to_weight_zero(self):
        d = twisted_dual(tate(1, P54))
        assert d.weights == (0,)
        assert d.f_mat[0][0] == P54.from_int(5)
        assert d.v_mat[0][0] == P54.one()

    def test_involution_on_twists(self):
        t0 = tate(0, P54)
        dd = twisted_dual(twisted_dual(t0))
        assert wm_eq(dd.f_mat, t0.f_mat) and wm_eq(dd.v_mat, t0.v_mat)
        assert dd.weights == t0.weights

    def test_supersingular_self_dual_slopes(self):
        m = abelian_from_ap(0, P54).crystal
        d = twisted_dual(m)
        assert verify(d).ok
        assert newton_slopes(d) == newton_slopes(m)
        assert d.weights == m.weights

    def test_double_dual_exact(self):
        rng = random.Random(15)
        for _ in range(10):
            m = assemble(random_motive_spec(rng, P54, 2, 2, 1)).module
            dd = twisted_dual(twisted_dual(m))
            assert dd.weights == m.weights
            assert wm_eq(dd.f_mat, m.f_mat)
            assert wm_eq(dd.v_mat, m.v_mat)
            assert is_isomorphism_witness(wm_identity(P54, m.rank), m, dd)

    def test_requires_verschiebung(self):
        P = RingParams(3, 3)
        m = FilteredFModule(P, 1, (-2,), wmat_from_ints(P, [[1]]), None, 1)
        with pytest.raises(SingularFrobeniusError):
            twisted_dual(m)

    def test_dual_weights(self):
        rng = random.Random(16)
        m = assemble(random_motive_spec(rng, P54, 2, 1, 1)).module
        d = twisted_dual(m)
        assert d.weights == tuple(sorted(-2 - w for w in m.weights))
        assert verify(d).ok


class TestSlopes:
    def test_supersingular_companion(self):
        f = wmat_from_ints(P54, [[0, -5], [1, 0]])
        m = FilteredFModule(P54, 2, (-1, -1), f, None, 1)
        assert newton_slopes(m).pairs == ((Fraction(1, 2), 2),)

    def test_ordinary_companion(self):
        f = wmat_from_ints(P54, [[0, -5], [1, 1]])
        m = FilteredFModule(P54, 2, (-1, -1), f, None, 1)
        assert newton_slopes(m).pairs == ((Fraction(0), 1), (Fraction(1), 1))

    def test_twists(self):
        assert newton_slopes(tate(1, P54)).pairs == ((Fraction(0), 1),)
        assert newton_slopes(tate(0, P54)).pairs == ((Fraction(1), 1),)

    def test_precision_error(self):
        P = RingParams(5, 2)
        f = wmat_from_ints(P, [[0, -5], [1, 0]])
        m = FilteredFModule(P, 2, (-1, -1), f, None, 1)
        with pytest.raises(PrecisionError) as exc:
            newton_slopes(m)
        assert exc.value.required == 3

    def test_extension_field_halves_slopes(self):
        d = TorusData.trivial(2)
        assert newton_slopes(torus_block(d, F9)).pairs == ((Fraction(0), 2),)
        l = LatticeData.trivial(2)
        assert newton_slopes(lattice_block(l, F9)).pairs == ((Fraction(1), 2),)

    def test_slope_sum_equals_det_valuation(self):
        rng = random.Random(17)
        for _ in range(10):
            m = assemble(random_motive_spec(rng, RingParams(5, 8), 2, 2, 1)).module
            if m.rank == 0:
                continue
            prof = newton_slopes(m)
            assert all(0 <= s <= m.level for s, _ in prof.pairs)
            total = sum(s * mult for s, mult in prof.pairs)
            assert total == Fraction(wm_det(m.params, m.f_mat).valuation())

    def test_direct_sum_slopes_union(self):
        P = RingParams(5, 6)
        a = abelian_from_ap(0, P).crystal
        b = abelian_from_ap(1, P).crystal
        s = direct_sum(a, b)
        assert newton_slopes(s).as_list() == sorted(
            newton_slopes(a).as_list() + newton_slopes(b).as_list()
        )


class TestMatrixKernels:
    def test_charpoly_companion(self):
        f = wmat_from_ints(P54, [[0, -5], [1, 1]])
        coeffs = charpoly(P54, f)
        assert [c.coords[0] for c in coeffs] == [5, 624, 1]

    def test_charpoly_empty(self):
        assert [c.coords[0] for c in charpoly(P54, ())] == [1]

    def test_inverse_unit(self):
        rng = random.Random(18)
        for _ in range(10):
            a = wmat(P54, random_unimodular(rng, 3))
            inv = wm_inverse_unit(P54, a)
            assert wm_eq(wm_mul(P54, a, inv), wm_identity(P54, 3))

    def test_conjugate_isomorphism_witness(self):
        rng = random.Random(19)
        m = assemble(random_motive_spec(rng, P54, 1, 1, 1)).module
        g = wm_identity(P54, m.rank)
        assert is_isomorphism_witness(g, m, m)
        c = conjugate(m, g)
        assert wm_eq(c.f_mat, m.f_mat)
