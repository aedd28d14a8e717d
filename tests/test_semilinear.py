import itertools
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
from fcrystals.intmat import smith_normal_form
from fcrystals.onemotive import assemble
from fcrystals.semilinear import (
    FilteredFModule,
    charpoly,
    conjugate_by_permutation,
    direct_sum,
    newton_slopes,
    tensor,
    twisted_dual,
    verify,
    wm_mul,
    wm_shape,
    wm_sigma,
    wm_sigma_inv,
    _argsort_stable,
    _block,
    _charpoly,
    _det,
    _int_rows,
    _kron,
    _mul,
    _packing,
)
from fcrystals.simplicial import component_complex
from fcrystals.witt import RingParams, WittElem, default_modulus, with_precision

from helpers import (
    bareiss_det,
    charpoly_oracle,
    det_oracle,
    frobenius_oracle,
    int_mul_oracle,
    int_shape_oracle,
    mat_sigma,
    matvec,
    random_galois_motive_spec,
    random_motive_spec,
    random_simplicial,
    random_unimodular,
    rank_over_q,
    smith_oracle,
    verify_oracle,
    witness_oracle,
    wm_mul_oracle,
    wmat,
)

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
                assert all(x == 0 for x in matvec(a, col))
            assert len(basis) == 4 - rank_over_q(a)

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


def _smith_cases():
    """Matrices for the differential Smith test: [] and k x 0, zero and
    unit-free ones that need the divisor-chain fix-up, random ones of every
    small shape and density, the d1 / d2 of random simplicial structures up
    to 40 components a level and at the bench's 60 to 80, sparse ones with
    mostly all-zero rows and long zero runs, and columns whose re-pivot
    leaves a non-unit row behind the pivot."""
    rng = random.Random(15)
    cases = [[], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0]]]
    cases += [[[2, 0], [0, 3]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]], [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]]
    cases += [[[4, 6]], [[4], [6]], [[3, 0, 0], [0, 0, 5]]]
    for _ in range(400):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        hi, density = rng.choice([1, 2, 3, 10, 100]), rng.random()
        cases.append([[rng.randint(-hi, hi) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)])
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice([0, 2, -2, 4, 6, 9, -15]) for _ in range(c)] for _ in range(r)])
    for _ in range(40):
        d1, d2 = component_complex(random_simplicial(rng, max_count=8))
        cases += [d1, d2, intmat.transpose(d1), intmat.transpose(d2)]
    for _ in range(8):  # up to 40 components a level
        d1, d2 = component_complex(random_simplicial(rng, max_count=40))
        cases += [d1, d2, intmat.transpose(d1), intmat.transpose(d2)]
    for _ in range(3):  # 60 to 80 components a level, as the picard-lattice bench draws them
        d1, d2 = component_complex(random_simplicial(rng, max_count=80, min_count=60))
        cases += [d1, d2, intmat.transpose(d1), intmat.transpose(d2)]
    for _ in range(6):  # mostly all-zero rows; the nonzeros of a row sit in a short window
        r, c = rng.randint(20, 70), rng.randint(20, 80)
        sparse = intmat.zeros(r, c)
        for row in rng.sample(sparse, max(1, r // 4)):
            start = rng.randrange(c)
            for j in rng.sample(range(start, min(c, start + 6)), min(c - start, rng.randint(1, 3))):
                row[j] = rng.choice([1, -1, 2, -2, 3, 6, -9])
        cases += [sparse, intmat.transpose(sparse)]
    # 2 leaves remainder 1 below (beside) it: after the re-pivot's row (column)
    # swap the source row of the U^(-1) (V^(-1)) update is no longer a unit vector
    cases += [[[2], [3]], [[2, 0], [3, 5]], [[2, 3]]]
    return cases


SLOTS = {"u": 0, "v": 2, "u_inv": 3, "v_inv": 4}  # name -> place in the tuple intmat._eliminate returns
SUBSETS = [subset for k in range(len(SLOTS) + 1) for subset in itertools.combinations(SLOTS, k)]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _full(a):
    """intmat._eliminate with every transform, V^T and (U^(-1))^T
    transposed back: (U, D, V, U^(-1), V^(-1))."""
    u, d, vt, ut, vi = intmat._eliminate(a, tuple(SLOTS))
    return u, d, _transpose(vt), _transpose(ut), vi


def _selected(full, subset):
    """The full (U, D, V^T, (U^(-1))^T, V^(-1)) with every transform outside subset set to None."""
    keep = {1} | {SLOTS[name] for name in subset}
    return tuple(x if i in keep else None for i, x in enumerate(full))


def _check_subsets(a):
    """Each transform subset keeps the oracle's D, builds its transforms as
    the full elimination does and leaves the others None."""
    full = intmat._eliminate(a, tuple(SLOTS))
    d = smith_oracle(a)[1]
    for subset in SUBSETS:
        got = intmat._eliminate(a, subset)
        assert got[1] == d and got == _selected(full, subset), (a, subset)


class TestSmithAgainstOracle:
    """The fast paths (return at the first unit pivot, no divisor-chain sweep
    under a pivot of 1), the inverse bookkeeping and the skipped transforms
    leave (U, D, V) as the full-scan elimination of tests/helpers.smith_oracle
    computes it."""

    CASES = _smith_cases()

    def test_fix_up_cases_need_the_sweep(self):
        """diag(2, 3) is already diagonal, but 2 does not divide 3."""
        assert smith_oracle([[2, 0], [0, 3]])[1] == [[1, 0], [0, 6]]

    def test_same_triple(self):
        for a in self.CASES:
            assert smith_normal_form(a) == smith_oracle(a), a

    def test_same_triple_with_inverses(self):
        for a in self.CASES:
            assert _full(a)[:3] == smith_oracle(a), a

    def test_inverses_invert(self):
        for a in self.CASES:
            rows, cols = intmat.shape(a)
            u, _, v, u_inv, v_inv = _full(a)
            assert intmat.mul(u, u_inv) == intmat.identity(rows) == intmat.mul(u_inv, u), a
            assert intmat.mul(v_inv, v) == intmat.identity(cols) == intmat.mul(v, v_inv), a

    def test_each_transform_subset(self):
        assert len(SUBSETS) == 16
        for a in self.CASES:
            _check_subsets(a)

    def test_elimination_returns_the_transforms_as_built(self):
        """intmat._eliminate hands over V^T, whose transpose is
        smith_normal_form's V, beside the same U and D."""
        for a in self.CASES:
            u, d, v = smith_normal_form(a)
            assert intmat._eliminate(a, ("u", "v"))[:3] == (u, d, _transpose(v)), a

    def test_kernel_basis_is_the_trailing_columns_of_v(self):
        for a in self.CASES:
            _, d, v = smith_normal_form(a)
            cols, r = len(v), len(intmat.diagonal(d))
            assert intmat.kernel_basis(a) == [[v[i][j] for i in range(cols)] for j in range(r, cols)], a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_hypothesis_matrices(self, r, c, data):
        a = [[data.draw(st.integers(-12, 12)) for _ in range(c)] for _ in range(r)]
        u, d, v, u_inv, v_inv = _full(a)
        assert smith_normal_form(a) == (u, d, v) == smith_oracle(a)
        assert intmat.mul(u, u_inv) == intmat.identity(r) and intmat.mul(v_inv, v) == intmat.identity(c)
        _check_subsets(a)


def _random_int_matrix(rng, r, c):
    """An r x c matrix mixing zeros, small entries of both signs and entries
    beyond 2^64, with all-zero rows and columns drawn often."""
    hi = rng.choice([1, 5, 2**70])
    zero_rows = {i for i in range(r) if rng.random() < 0.2}
    zero_cols = {j for j in range(c) if rng.random() < 0.2}
    density = rng.random()
    return [
        [
            0 if i in zero_rows or j in zero_cols or rng.random() > density else rng.randint(-hi, hi)
            for j in range(c)
        ]
        for i in range(r)
    ]


class TestIntegerProduct:
    """intmat.mul skips the zeros of both factors and gives the integers of
    the plain triple loop; intmat.diagonal reads a Smith diagonal of any
    shape."""

    def test_mul_against_the_triple_loop(self):
        rng = random.Random(16)
        for _ in range(500):
            r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            k = k if r else 0  # a = [] is 0 x 0
            a, b = _random_int_matrix(rng, r, k), _random_int_matrix(rng, k, c)
            cols = c if k else 0  # b = [] carries no width
            if rng.random() < 0.3:  # rows as zip(*m) hands them over
                b = [tuple(row) for row in b]
            if rng.random() < 0.3:
                a = [tuple(row) for row in a]
            assert intmat.mul(a, b) == int_mul_oracle(a, b, cols), (a, b)

    def test_mul_at_bench_sizes(self):
        """Sparse and dense factors of up to 80 rows and columns, as the
        cocharacter products meet them: a left factor of unit rows against
        an incidence-like right factor, and both factors dense."""
        rng = random.Random(17)
        for _ in range(30):
            r, k, c = rng.randint(1, 80), rng.randint(1, 80), rng.randint(1, 80)
            a, b = _random_int_matrix(rng, r, k), _random_int_matrix(rng, k, c)
            if rng.random() < 0.5:  # mostly unit rows on the left, two or three +-1 a row on the right
                a = [[int(j == rng.randrange(k)) for j in range(k)] for _ in range(r)]
                b = intmat.zeros(k, c)
                for row in b:
                    for j in rng.sample(range(c), min(c, rng.randint(0, 3))):
                        row[j] = rng.choice([1, -1])
            assert intmat.mul(a, b) == int_mul_oracle(a, b, c), (r, k, c)
            assert intmat.mul(a, [tuple(row) for row in b]) == int_mul_oracle(a, b, c)
            assert intmat.mul([tuple(row) for row in a], list(zip(*intmat.transpose(b)))) == int_mul_oracle(a, b, c)

    def test_mul_with_no_inner_dimension(self):
        """An r x 0 factor times [] (0 x 0, no width to carry) is r x 0, the
        oracle's product; [] times [] is []."""
        for r in range(4):
            a = [[] for _ in range(r)]
            assert intmat.mul(a, []) == int_mul_oracle(a, [], 0) == a
            assert intmat.mul([tuple(row) for row in a], []) == a
        assert intmat.mul([], []) == []

    def test_mismatched_shapes_raise(self):
        for a, b in (([[1, 2]], [[1, 2]]), ([[1]], [[1], [2]]), ([[1, 2], [3]], [[1], [1]]), ([[1]], []), ([], [[1]])):
            with pytest.raises(ShapeError):
                intmat.mul(a, b)

    def test_shape_error_texts(self):
        cases = (
            (([[1, 2]], [[1, 2]]), "cannot multiply 1x2 by 1x2"),
            (([[1]], [[1], [2]]), "cannot multiply 1x1 by 2x1"),
            (([[1]], []), "cannot multiply 1x1 by 0x0"),
            (([], [[1]]), "cannot multiply 0x0 by 1x1"),
            (([(1, 2), (3, 4)], [(1,), (2,), (3,)]), "cannot multiply 2x2 by 3x1"),
            (([[1, 2], [3]], [[1], [1]]), "ragged integer matrix"),
            (([[1], [1]], [[1, 2], (3,)]), "ragged integer matrix"),
        )
        for (a, b), text in cases:
            with pytest.raises(ShapeError) as err:
                intmat.mul(a, b)
            assert str(err.value) == text, (a, b)

    def test_shape_against_the_row_by_row_check(self):
        """Lists and tuples of rows, ragged at any row (longer or shorter,
        first or last), and rows of width 0."""
        rng = random.Random(18)
        cases = [[], [[]], [[], []], [[], [1]], [[1], []], [(1, 2), [3, 4]], ((1, 2, 3),)]
        for _ in range(300):
            r, c = rng.randint(1, 6), rng.randint(0, 5)
            m = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.5:
                i = rng.randrange(r)
                m[i] = m[i] + [1] if rng.random() < 0.5 or not c else m[i][:-1]
            if rng.random() < 0.3:
                m = [tuple(row) for row in m]
            cases.append(m)
        for m in cases:
            want = int_shape_oracle(m)
            if want is None:
                with pytest.raises(ShapeError, match="^ragged integer matrix$"):
                    intmat.shape(m)
            else:
                assert intmat.shape(m) == want, m

    def test_diagonal_of_every_smith_shape(self):
        for a in TestSmithAgainstOracle.CASES:
            d = intmat._eliminate(a, ())[1]
            want = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]
            assert intmat.diagonal(d) == want == intmat.elementary_divisors(a), a

    def test_transpose_never_loses_a_width(self):
        """The transpose of an r x 0 matrix would read as [] (0 x 0), so it
        raises; the 0 x c matrix is [], whose transpose is []."""
        for r in (1, 3):
            with pytest.raises(ShapeError):
                intmat.transpose(intmat.zeros(r, 0))
        assert intmat.transpose(intmat.zeros(0, 3)) == [] == intmat.transpose([])
        assert intmat.transpose([[1, 2, 3]]) == [[1], [2], [3]]


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_unit_twist_passes(self):
        assert verify(tate(1, RingParams(3, 3))).ok

    def test_fv_product_failure(self):
        P = RingParams(3, 3)
        m = FilteredFModule(P, 1, (-2,), wmat(P, [[1]]), wmat(P, [[1]]), 1)
        rep = verify(m)
        assert not rep.ok
        assert rep.first_failure.name == "fv-product"
        details = {c.name: c.detail for c in rep.checks}
        assert details["fv-product"] == "F sigma(V) != p^1 I: entry (0, 0) is [1], expected [3]"
        assert details["vf-product"] == "V sigma^-1(F) != p^1 I: entry (0, 0) is [1], expected [3]"

    def test_product_failure_names_first_offending_entry(self):
        P = RingParams(3, 3)
        good = tate(1, P)  # F = [1], V = [3]
        f = wmat(P, [[1, 0], [0, 1]])
        v = wmat(P, [[3, 0], [2, 3]])  # V[1][0] breaks F sigma(V) = 3 I off the diagonal
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
        one = wmat(P, [[1]])
        with pytest.raises(MalformedInputError) as exc:
            FilteredFModule(P, rank, weights, one, None, level)
        assert exc.value.code == "bad-type"

    def test_descending_weights_rejected(self):
        P = RingParams(3, 3)
        m = FilteredFModule(
            P, 2, (0, -2), wmat(P, [[3, 0], [1, 1]]), None, 1
        )
        rep = verify(m)
        assert not rep.ok
        assert rep.first_failure.name == "weight-order"

    def test_flag_violation(self):
        P = RingParams(3, 3)
        # ascending weights (-2, 0); the weight-0 image may not hit weight -2... it may;
        # the forbidden direction is weight -2 feeding weight 0 output
        m = FilteredFModule(
            P, 2, (-2, 0), wmat(P, [[1, 0], [1, 3]]), None, 1
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
            wmat(P, [[1, 0], [0, 3]]),
            wmat(P, [[3, 0], [1, 1]]),
            1,
        )
        rep = verify(m)
        names = [c.name for c in rep.checks if not c.ok]
        assert "flag-V" in names


def _replaced(m: FilteredFModule, which: str, i: int, j: int, x: WittElem, level=None) -> FilteredFModule:
    """m with entry (i, j) of F or V replaced by x, at m's level or the one given."""
    mats = {"F": [list(row) for row in m.f_mat], "V": [list(row) for row in m.v_mat]}
    mats[which][i][j] = x
    f, v = (tuple(map(tuple, mats[k])) for k in "FV")
    return FilteredFModule(m.params, m.rank, m.weights, f, v, m.level if level is None else level)


def _oracle_modules():
    """Assembled modules at a = 1 and a = 2, all of positive rank."""
    rings = [RingParams(p, 6) for p in (2, 3, 5)] + [RingParams(p, 5, 2, default_modulus(p, 2)) for p in (2, 3)]
    for params in rings:
        for seed in range(12):
            rng = random.Random(seed)
            s = random_galois_motive_spec(rng, params) if params.a > 1 else random_motive_spec(rng, params)
            m = assemble(s).module
            if m.rank:
                yield rng, m


class TestVerifyOracle:
    """verify on coordinate rows against the WittElem verify kept in
    tests/helpers.verify_oracle: equal reports, detail strings included."""

    def test_tampered_entries(self):
        """One F or V entry moved by unit * p^v: the first offending entry and
        its coordinates are named the same way."""
        failing = 0
        for rng, m in _oracle_modules():
            params = m.params
            for _ in range(4):
                which, i, j = rng.choice("FV"), rng.randrange(m.rank), rng.randrange(m.rank)
                unit = params.zero()
                while not unit.is_unit():
                    unit = params.elem([rng.randrange(params.pn) for _ in range(params.a)])
                old = (m.f_mat if which == "F" else m.v_mat)[i][j]
                t = _replaced(m, which, i, j, old + unit * params.from_int(params.p ** rng.randrange(params.n)))
                rep = verify(t)
                assert rep == verify_oracle(t)
                failing += not rep.ok
        assert failing >= 200

    def test_flag_entry_with_zero_first_coordinate(self):
        """At a = 2 an entry can be nonzero with first coordinate 0."""
        params = RingParams(3, 5, 2, default_modulus(3, 2))
        t = params.elem([0, 1])
        m = FilteredFModule(params, 2, (-2, 0), wmat(params, [[1, 0], [t, 3]]), wmat(params, [[3, 0], [t, 1]]), 1)
        rep = verify(m)
        assert rep == verify_oracle(m)
        assert [c.detail for c in rep.checks if c.name.startswith("flag")] == ["F[1][0] breaks the flag", "V[1][0] breaks the flag"]

    @pytest.mark.parametrize("level", [-2, -1, 0, 2])
    def test_levels(self, level):
        """Level <= 0 and a level the module does not have: the level check
        and both products fail, with the oracle's details."""
        for rng, m in _oracle_modules():
            t = FilteredFModule(m.params, m.rank, m.weights, m.f_mat, m.v_mat, level)
            rep = verify(t)
            assert rep == verify_oracle(t) and not rep.ok

    @pytest.mark.parametrize("level", [0, 1])
    def test_ring_mismatch(self, level):
        """An entry from another ring is IncompatibleRingsError on
        construction, so no module holds one and verify never meets it."""
        for rng, m in _oracle_modules():
            i, j = rng.randrange(m.rank), rng.randrange(m.rank)
            for which in "FV":
                old = (m.f_mat if which == "F" else m.v_mat)[i][j]
                alien = WittElem(with_precision(m.params, m.params.n + 1), old.coords)
                with pytest.raises(IncompatibleRingsError, match="^matrix entry from a different ring$"):
                    _replaced(m, which, i, j, alien, level)

    def test_ring_mismatch_at_negative_level(self):
        """The ring check does not depend on the level: at level < 0, where
        verify forms no product, the entry is refused on construction too."""
        for rng, m in _oracle_modules():
            alien = WittElem(with_precision(m.params, m.params.n + 1), m.v_mat[0][0].coords)
            with pytest.raises(IncompatibleRingsError, match="^matrix entry from a different ring$"):
                _replaced(m, "V", 0, 0, alien, -1)


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
        assert out.f_mat == wmat(P54, [[0, -25], [5, 0]])
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
        assert relabeled.f_mat == left.f_mat
        assert relabeled.v_mat == left.v_mat

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
        assert dd.f_mat == t0.f_mat and dd.v_mat == t0.v_mat
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
            assert dd.f_mat == m.f_mat
            assert dd.v_mat == m.v_mat
            assert dd == m

    def test_requires_verschiebung(self):
        P = RingParams(3, 3)
        m = FilteredFModule(P, 1, (-2,), wmat(P, [[1]]), None, 1)
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
        f = wmat(P54, [[0, -5], [1, 0]])
        m = FilteredFModule(P54, 2, (-1, -1), f, None, 1)
        assert newton_slopes(m).pairs == ((Fraction(1, 2), 2),)

    def test_ordinary_companion(self):
        f = wmat(P54, [[0, -5], [1, 1]])
        m = FilteredFModule(P54, 2, (-1, -1), f, None, 1)
        assert newton_slopes(m).pairs == ((Fraction(0), 1), (Fraction(1), 1))

    def test_twists(self):
        assert newton_slopes(tate(1, P54)).pairs == ((Fraction(0), 1),)
        assert newton_slopes(tate(0, P54)).pairs == ((Fraction(1), 1),)

    def test_precision_error(self):
        P = RingParams(5, 2)
        f = wmat(P, [[0, -5], [1, 0]])
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
            assert total == Fraction(det_oracle(m.params, m.f_mat).valuation())

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
        f = wmat(P54, [[0, -5], [1, 1]])
        coeffs = charpoly(P54, f)
        assert [c.coords[0] for c in coeffs] == [5, 624, 1]

    def test_charpoly_empty(self):
        assert [c.coords[0] for c in charpoly(P54, ())] == [1]

    def test_wm_eq_compares_rings(self):
        """Equal coordinates over different rings are different matrices, as
        for WittElem ==; an equal ring need not be the same object."""
        a = wmat(P54, [[1, 2], [3, 4]])
        assert a == wmat(RingParams(5, 4), [[1, 2], [3, 4]])
        assert a != wmat(RingParams(5, 5), [[1, 2], [3, 4]])
        assert a != wmat(P54, [[1, 2], [3, 5]])

    def test_block_shapes(self):
        one, i2, zero = _int_rows(P54, [[1]]), _int_rows(P54, intmat.identity(2)), (0,)
        assert _block([[one, None], [None, i2]], [1, 2], [1, 2], zero) == _int_rows(P54, intmat.identity(3))
        with pytest.raises(ShapeError):
            _block([[one, one], [None, i2]], [1, 2], [1, 2], zero)
        assert _block([[one, None]], [0], [1, 1], zero) == []  # a block row of height 0 reads no block

    def test_conjugate_isomorphism_witness(self):
        """The identity relabelling returns the module, and the identity is
        its witness; p I satisfies both identities but is no unit."""
        rng = random.Random(19)
        m = next(m for m in (assemble(random_motive_spec(rng, P54, 1, 1, 1)).module for _ in range(20)) if m.rank)
        g = wmat(P54, intmat.identity(m.rank))
        assert witness_oracle(g, m, m)
        c = conjugate_by_permutation(m, range(m.rank))
        assert c == m and c.f_mat == m.f_mat
        assert not witness_oracle(wmat(P54, [[5 * x for x in row] for row in intmat.identity(m.rank)]), m, m)


# ---------------------------------------------------------------------------
# the one checked boundary of the boxed matrix functions

_I2 = wmat(P54, [[1, 0], [0, 1]])

# every public function that takes a WMat, called on a 2x2 matrix of P54
BOUNDARY_CALLS = {
    "wm_shape": wm_shape,
    "wm_mul-left": lambda a: wm_mul(P54, a, _I2),
    "wm_mul-right": lambda a: wm_mul(P54, _I2, a),
    "wm_sigma": wm_sigma,
    "wm_sigma_inv": wm_sigma_inv,
    "charpoly": lambda a: charpoly(P54, a),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CALLS))
@pytest.mark.parametrize("at", [(0, 0), (1, 1)])
def test_boundary_checks_every_entry(name, at):
    """A non-matrix is bad-matrix; an int entry bad-element and an element
    of another ring IncompatibleRingsError, wherever it sits (wm_shape reads
    no entry)."""
    call = BOUNDARY_CALLS[name]
    for bad in (None, 5, (5,), (_I2[0], 7), "ab"):
        with pytest.raises(MalformedInputError) as exc:
            call(bad)
        assert exc.value.code == "bad-matrix"
    if name == "wm_shape":
        return

    def with_entry(x):
        rows = [list(row) for row in _I2]
        rows[at[0]][at[1]] = x
        return tuple(map(tuple, rows))

    with pytest.raises(MalformedInputError) as exc:
        call(with_entry(1))
    assert exc.value.code == "bad-element"
    with pytest.raises(IncompatibleRingsError):
        call(with_entry(RingParams(5, 3).one()))
    call(_I2)


def test_ragged_matrix_is_not_square():
    """A ragged matrix is no square matrix, even with a unit leading block:
    charpoly and its row kernel raise ShapeError."""
    o, z = P54.one(), P54.zero()
    for ragged in (((o, z), (z, o, z)), ((o, z, z), (z, o))):
        with pytest.raises(ShapeError):
            charpoly(P54, ragged)
        with pytest.raises(ShapeError):
            _charpoly(P54, _rows(ragged))


def test_wmat_of_a_non_matrix_is_bad_matrix():
    """A non-matrix is bad-matrix at the package's matrix boundary (wm_shape,
    and _coords behind charpoly), and in the tests' wmat, which shares it."""
    for bad in (None, 5, (5,), [[1], 2]):
        for call in (lambda: wmat(P54, bad), lambda: wm_shape(bad), lambda: charpoly(P54, bad)):
            with pytest.raises(MalformedInputError) as exc:
                call()
            assert exc.value.code == "bad-matrix"


# ---------------------------------------------------------------------------
# packed kernels against the element-path oracles


PACKED_RINGS = [
    pytest.param(RingParams(p, 3, a, None if a == 1 else default_modulus(p, a)), id=f"p{p}-a{a}")
    for p in (2, 3, 5)
    for a in (1, 2, 3)
]
SHAPES = [(0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (3, 3), (6, 6)]


def _random_wmat(rng, params, rows, cols):
    return wmat(params, [[[rng.randrange(params.pn) for _ in range(params.a)] for _ in range(cols)] for _ in range(rows)])


def _oracle_kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _rows(m):
    return [[x.coords for x in row] for row in m]


SIGMA_TABLES = [("frobenius_matrix", wm_sigma), ("frobenius_inverse_matrix", wm_sigma_inv)]


class TestPackedKernels:
    """The row kernels _mul, _kron and _charpoly, the sigma passes and the
    boxed functions over them compute on packed coordinates; each must agree
    with the WittElem-by-WittElem oracle."""

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_mul_and_kron_match_oracle(self, params):
        rng = random.Random(params.p * 10 + params.a)
        for rows, inner in SHAPES:
            a = _random_wmat(rng, params, rows, inner)
            for cols in (0, 1, 4):
                b = _random_wmat(rng, params, wm_shape(a)[1], cols)
                assert _mul(params, _rows(a), _rows(b)) == _rows(wm_mul_oracle(params, a, b))
                assert _kron(params, _rows(a), _rows(b)) == _rows(_oracle_kron(a, b))
                assert wm_mul(params, a, b) == wm_mul_oracle(params, a, b)

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_charpoly_and_det_match_oracle(self, params):
        rng = random.Random(params.p * 100 + params.a)
        for r in range(7):
            a = _random_wmat(rng, params, r, r)
            coeffs = charpoly_oracle(params, a)
            assert _charpoly(params, _rows(a)) == coeffs == charpoly(params, a)
            assert _det(coeffs) == det_oracle(params, a)

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_sigma_folded_mul_matches_oracle(self, params):
        """a . sigma^(+-1)(b) with sigma's matrix in the packing of b."""
        rng = random.Random(params.p * 30 + params.a)
        for rows, inner in SHAPES:
            a = _random_wmat(rng, params, rows, inner)
            for cols in (0, 1, 4):
                b = _random_wmat(rng, params, inner, cols)
                for table, sigma in SIGMA_TABLES:
                    want = wm_mul_oracle(params, a, sigma(b))
                    assert _mul(params, _rows(a), _rows(b), table) == _rows(want)

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_one_entry_reduce_is_the_cut_repacked(self, params):
        """_charpoly's reduction of one packed dot product folds and reduces
        on the int: the cut entry packed again, at every size of sum the
        packing admits, with every coordinate at p^n - 1 at the top."""
        rng = random.Random(params.p * 50 + params.a)
        a = params.a
        for terms in (1, 2, 5, 9):
            pack, _, cutter, reduce = _packing(params, terms)
            cut = cutter(1)
            top = pack((params.pn - 1,) * a)
            sums = [0, terms * top * top]
            for _ in range(40):
                entries = [pack(tuple(rng.randrange(params.pn) for _ in range(a))) for _ in range(2 * terms)]
                sums.append(sum(x * y for x, y in zip(entries[:terms], entries[terms:])))
            for total in sums:
                assert reduce(total) == pack(cut(total)[0]), (terms, total)

    def test_charpoly_carries_no_digit_at_full_size(self):
        """Every coordinate at p^n - 1 at rank 8, the largest coefficient sums
        the packing allows, through each kernel (sigma folded into the right
        factor or not) and the fold of the modulus on the packed rows."""
        for p, n, a in ((5, 8, 1), (2, 9, 3), (5, 8, 3), (3, 7, 2), (2, 5, 4)):
            params = RingParams(p, n, a, None if a == 1 else default_modulus(p, a))
            m = wmat(params, [[[params.pn - 1] * a] * 8 for _ in range(8)])
            rows = _rows(m)
            assert charpoly(params, m) == charpoly_oracle(params, m)
            assert _mul(params, rows, rows) == _rows(wm_mul_oracle(params, m, m))
            for table, sigma in SIGMA_TABLES:
                assert _mul(params, rows, rows, table) == _rows(wm_mul_oracle(params, m, sigma(m)))
            assert _kron(params, rows, rows) == _rows(_oracle_kron(m, m))

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_sigma_matches_digit_oracle(self, params):
        rng = random.Random(params.p * 1000 + params.a)
        for rows, cols in SHAPES:
            m = _random_wmat(rng, params, rows, cols)
            assert wm_sigma(m) == tuple(tuple(frobenius_oracle(x) for x in row) for row in m)
            assert tuple(tuple(frobenius_oracle(x) for x in row) for row in wm_sigma_inv(m)) == m

    @pytest.mark.parametrize("params", PACKED_RINGS)
    def test_conjugate_matches_oracle(self, params):
        """conjugate_by_permutation(m, perm) is the base change by the
        permutation matrix g with g e_k = e_perm[k]: g . F' = F . sigma(g) in
        WittElem arithmetic, g is an isomorphism witness, and a moved entry
        is not."""
        rng = random.Random(params.p * 70 + params.a)
        for r in (1, 2, 4):
            f, v = _random_wmat(rng, params, r, r), _random_wmat(rng, params, r, r)
            m = FilteredFModule(params, r, (0,) * r, f, v)
            perm = rng.sample(range(r), r)
            g = wmat(params, [[int(i == perm[k]) for k in range(r)] for i in range(r)])
            c = conjugate_by_permutation(m, perm)
            assert wm_mul_oracle(params, g, c.f_mat) == wm_mul_oracle(params, f, mat_sigma(g))
            assert witness_oracle(g, m, c)
            moved = ((c.f_mat[0][0] + params.one(),) + c.f_mat[0][1:],) + c.f_mat[1:]
            assert not witness_oracle(g, m, FilteredFModule(params, r, m.weights, moved, c.v_mat))

    def test_sigma_is_the_identity_object_at_a_1(self):
        m = wmat(P54, [[1, 2], [3, 4]])
        assert wm_sigma(m) is m
        assert wm_sigma_inv(m) is m

    @pytest.mark.parametrize("where", ["left", "right"])
    def test_mixed_ring_entry_raises(self, where):
        other = RingParams(5, 3)
        m = wmat(P54, [[1, 2], [3, 4]])
        bad = ((m[0][0], WittElem(other, [2])), m[1])
        a, b = (bad, m) if where == "left" else (m, bad)
        with pytest.raises(IncompatibleRingsError):
            wm_mul(P54, a, b)
        with pytest.raises(IncompatibleRingsError):
            charpoly(P54, bad)

    def test_non_element_entry_is_bad_element(self):
        """An int entry is refused where the matrix enters the row kernels."""
        one = ((P54.one(),),)
        for call in (
            lambda: wm_mul(P54, ((1,),), one),
            lambda: wm_mul(P54, one, ((1,),)),
            lambda: charpoly(P54, ((2,),)),
            lambda: charpoly(P54, ((P54.one(), 2), (P54.one(), P54.one()))),
            lambda: wm_sigma(((1,),)),
            lambda: wm_sigma(((P54.one(), 2),)),  # a = 1, where sigma returns its argument
            lambda: wm_sigma_inv(((F9.one(), 2),)),
        ):
            with pytest.raises(MalformedInputError) as exc:
                call()
            assert exc.value.code == "bad-element"

    def test_equal_ring_from_another_object_is_accepted(self):
        twin = RingParams(5, 4)
        assert twin is not P54
        m = wmat(P54, [[1, 2], [3, 4]])
        assert wm_mul(twin, m, m) == wm_mul_oracle(P54, m, m)
        assert charpoly(twin, m) == charpoly_oracle(P54, m)
