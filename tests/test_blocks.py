import random
from fractions import Fraction

import pytest

import fcrystals.intmat as intmat

from fcrystals.blocks import (
    AbelianBlock,
    LatticeData,
    TorusData,
    abelian_from_ap,
    lattice_block,
    tate,
    torus_block,
)
from fcrystals.errors import (
    InvalidActionError,
    InvalidTraceError,
    MalformedInputError,
    PrecisionError,
    UnsupportedInputError,
)
from fcrystals.semilinear import (
    conjugate_by_permutation,
    newton_slopes,
    twisted_dual,
    verify,
    wm_mul,
    wm_sigma,
)
from fcrystals.witt import RingParams, default_modulus
from helpers import det_oracle, inverse_oracle, random_signed_permutation, random_unimodular, wmat

P54 = RingParams(5, 4)
P34 = RingParams(3, 4)


class TestTate:
    def test_unit_root_twist(self):
        t = tate(1, P54)
        assert (t.rank, t.level, t.weights) == (1, 1, (-2,))
        assert t.f_mat[0][0] == P54.one()
        assert t.v_mat[0][0] == P54.from_int(5)
        assert verify(t).ok

    def test_weight_zero_twist(self):
        t = tate(0, P54)
        assert (t.rank, t.level, t.weights) == (1, 1, (0,))
        assert t.f_mat[0][0] == P54.from_int(5)
        assert t.v_mat[0][0] == P54.one()
        assert twisted_dual(tate(1, P54)).f_mat == t.f_mat

    def test_higher_twists_consistent_with_tensor(self):
        from fcrystals.semilinear import tensor

        sq = tensor(tate(1, P54), tate(1, P54))
        t2 = tate(2, P54)
        assert sq.f_mat == t2.f_mat and sq.v_mat == t2.v_mat
        assert sq.weights == t2.weights and sq.level == t2.level

    def test_negative_twist(self):
        t = tate(-1, P54)
        assert t.weights == (2,) and t.level == 2
        assert verify(t).ok


class TestLatticeTorus:
    @pytest.mark.parametrize(
        "rank,action", [(1, ((True,),)), (1, ((1.0,),)), (True, ((1,),)), (2, ((0, 1), (1, "0"))), (1, (1,))]
    )
    def test_strict_ints(self, rank, action):
        """A bool, float or string in the rank or the action is a bad-type,
        never coerced to an int."""
        with pytest.raises(MalformedInputError) as exc:
            LatticeData(rank, action)
        assert exc.value.code == "bad-type"
        assert LatticeData(1, [[-1]]).sigma_action == ((-1,),)

    def test_dual_is_the_inverse_transpose(self, monkeypatch):
        """dual() equals LatticeData(rank, inverse transpose) field for field,
        on 200 random finite-order actions U P U^-1 (P a signed permutation),
        and runs no elimination."""
        rng = random.Random(13)
        calls = []
        for _ in range(200):
            r = rng.randint(0, 4)
            u = random_unimodular(rng, r)
            action = intmat.mul(intmat.mul(u, random_signed_permutation(rng, r)), intmat.inverse_unimodular(u))
            d = LatticeData(r, action)
            want = LatticeData(r, tuple(zip(*d.sigma_inverse)))
            monkeypatch.setattr(intmat, "_eliminate", lambda *a, **k: calls.append(a))
            got = d.dual()
            monkeypatch.undo()
            assert (got.rank, got.sigma_action, got.sigma_inverse) == (want.rank, want.sigma_action, want.sigma_inverse)
            assert got.dual().sigma_action == d.sigma_action
        assert calls == []

    def test_inverse_is_the_power_before_the_order(self, monkeypatch):
        """sigma_inverse, read off the order search, is the Smith-form inverse
        intmat.inverse_unimodular, on 200 random finite-order actions
        U P U^-1, and no elimination runs."""
        rng = random.Random(16)
        cases = []
        for _ in range(200):
            r = rng.randint(1, 5)
            u = random_unimodular(rng, r)
            cases.append(intmat.mul(intmat.mul(u, random_signed_permutation(rng, r)), intmat.inverse_unimodular(u)))
        calls = []
        monkeypatch.setattr(intmat, "_eliminate", lambda *a, **k: calls.append(a))
        got = [LatticeData(len(action), action).sigma_inverse for action in cases]
        monkeypatch.undo()
        assert calls == []
        for action, inverse in zip(cases, got):
            assert [list(row) for row in inverse] == intmat.inverse_unimodular(action)

    @pytest.mark.parametrize(
        "action,message",
        [
            ([[2, 0], [0, 1]], "sigma action must be unimodular over Z"),
            ([[1, 2], [2, 4]], "sigma action must be unimodular over Z"),
            ([[1, 1], [0, 1]], "matrix has no finite order up to 120"),
            ([[2, 1], [1, 1]], "matrix has no finite order up to 120"),
        ],
    )
    def test_failed_order_search_takes_one_d_only_form(self, monkeypatch, action, message):
        """Only an action whose order search fails is eliminated, once and
        D-only, to tell a non-unimodular matrix from one of infinite order."""
        built = []
        original = intmat._eliminate

        def recording(a, build):
            built.append(build)
            return original(a, build)

        monkeypatch.setattr(intmat, "_eliminate", recording)
        with pytest.raises(InvalidActionError) as exc:
            LatticeData(len(action), action)
        assert str(exc.value) == message
        assert built == [()]

    def test_rank1_trivial_matches_twists(self):
        lb = lattice_block(LatticeData.trivial(1), P54)
        assert lb.f_mat == tate(0, P54).f_mat
        tb = torus_block(TorusData.trivial(1), P54)
        assert tb.f_mat == tate(1, P54).f_mat

    def test_swap_action_lattice(self):
        d = LatticeData(2, ((0, 1), (1, 0)))
        m = lattice_block(d, P34)
        assert m.f_mat == wmat(P34, [[0, 3], [3, 0]])
        assert m.v_mat == wmat(P34, [[0, 1], [1, 0]])
        fv = wm_mul(P34, m.f_mat, wm_sigma(m.v_mat))
        assert fv == wmat(P34, [[3, 0], [0, 3]])
        assert verify(m).ok

    def test_swap_action_torus(self):
        d = TorusData(2, ((0, 1), (1, 0)))
        m = torus_block(d, P54)
        assert m.f_mat == wmat(P54, [[0, 1], [1, 0]])
        assert m.v_mat == wmat(P54, [[0, 5], [5, 0]])
        assert verify(m).ok

    def test_lattice_slopes_all_one(self):
        m = lattice_block(LatticeData.trivial(3), P54)
        assert newton_slopes(m).pairs == ((Fraction(1), 3),)
        # the assertable form: V unimodular
        assert det_oracle(P54, m.v_mat).is_unit()

    def test_torus_slopes_all_zero(self):
        m = torus_block(TorusData.trivial(3), P54)
        assert newton_slopes(m).pairs == ((Fraction(0), 3),)
        assert det_oracle(P54, m.f_mat).is_unit()

    def test_duality_between_blocks(self):
        d = TorusData(2, ((0, 1), (-1, 0)))  # order 4
        td = twisted_dual(torus_block(d, P54))
        dual_action = ((0, 1), (-1, 0))  # inverse transpose of the rotation is itself
        lb = lattice_block(LatticeData(2, dual_action), P54)
        relabeled = conjugate_by_permutation(td, [1, 0])
        assert relabeled.weights == lb.weights
        assert relabeled.f_mat == lb.f_mat
        assert relabeled.v_mat == lb.v_mat

    def test_duality_lattice_to_torus(self):
        action = ((0, 1), (-1, 0))
        td = twisted_dual(lattice_block(LatticeData(2, action), P54))
        tb = torus_block(TorusData(2, action), P54)  # inverse transpose is itself
        relabeled = conjugate_by_permutation(td, [1, 0])
        assert relabeled.weights == tb.weights
        assert relabeled.f_mat == tb.f_mat
        assert relabeled.v_mat == tb.v_mat

    @pytest.mark.parametrize(
        "params", [P54, RingParams(2, 5), RingParams(3, 5, 2, default_modulus(3, 2))], ids=["p5", "p2", "p3-a2"]
    )
    def test_graded_blocks_have_unit_determinant(self, params):
        """The lattice block's V = A^(-1) and the torus block's F = B have a
        unit determinant, for 60 random finite-order actions U P U^-1 (P a
        signed permutation), their duals and the trivial actions:
        verify_motive reads items 4.c and 4.d off 3.c and 3.a on this."""
        rng = random.Random(31)
        for _ in range(60):
            r = rng.randint(0, 4)
            u = random_unimodular(rng, r)
            d = LatticeData(r, intmat.mul(intmat.mul(u, random_signed_permutation(rng, r)), inverse_oracle(u)))
            for data in (d, d.dual(), LatticeData.trivial(r)):
                assert det_oracle(params, lattice_block(data, params).v_mat).is_unit()
                assert det_oracle(params, torus_block(data, params).f_mat).is_unit()

    def test_non_unimodular_action_rejected(self):
        with pytest.raises(InvalidActionError):
            LatticeData(2, ((2, 0), (0, 1)))

    def test_infinite_order_action_rejected(self):
        with pytest.raises(InvalidActionError):
            TorusData(2, ((1, 1), (0, 1)))

    def test_empty_blocks(self):
        these = lattice_block(LatticeData.trivial(0), P54)
        assert these.rank == 0 and verify(these).ok


class TestAbelian:
    def test_supersingular(self):
        b = abelian_from_ap(0, P54)
        assert b.dim == 1
        assert b.crystal.weights == (-1, -1)
        assert newton_slopes(b.crystal).pairs == ((Fraction(1, 2), 2),)
        assert verify(b.crystal).ok

    def test_ordinary_traces(self):
        for ap in (1, 2, 3, 4):
            b = abelian_from_ap(ap, P54)
            assert newton_slopes(b.crystal).pairs == ((Fraction(0), 1), (Fraction(1), 1))

    def test_weil_bound(self):
        with pytest.raises(InvalidTraceError):
            abelian_from_ap(5, P54)

    def test_extension_field_companion_rejected(self):
        params = RingParams(5, 6, 2, default_modulus(5, 2))
        with pytest.raises(UnsupportedInputError):
            abelian_from_ap(5, params)  # |5| <= 2 sqrt(25) but V not integral

    def test_precision_gate(self):
        with pytest.raises(PrecisionError):
            abelian_from_ap(0, RingParams(5, 2))

    def test_det_is_q_times_unit(self):
        rng = random.Random(20)
        for ap in (-4, -2, 0, 1, 3):
            b = abelian_from_ap(ap, P54)
            d = det_oracle(P54, b.crystal.f_mat)
            assert d.valuation() == 1  # q = p here

    def test_direct_sum(self):
        b = abelian_from_ap(0, RingParams(5, 6)) + abelian_from_ap(1, RingParams(5, 6))
        assert b.dim == 2 and b.crystal.rank == 4
        assert verify(b.crystal).ok

    def test_from_module_validates(self):
        good = abelian_from_ap(2, P54).crystal
        assert AbelianBlock.from_module(good).dim == 1
        with pytest.raises(UnsupportedInputError):
            AbelianBlock.from_module(tate(1, P54))  # odd rank
        bad_weights = tate(1, P54)
        with pytest.raises(UnsupportedInputError):
            AbelianBlock.from_module(bad_weights)
