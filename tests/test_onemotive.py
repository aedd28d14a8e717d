import dataclasses
import random

import pytest

from fcrystals.blocks import (
    AbelianBlock,
    LatticeData,
    TorusData,
    abelian_from_ap,
    lattice_block,
    torus_block,
)
from fcrystals.errors import InvalidExtensionDataError, MalformedInputError, ShapeError
from fcrystals.onemotive import (
    MotiveCrystal,
    OneMotiveSpec,
    assemble,
    cartier_dual,
    dual_witness,
    pair,
    tdr_dimension,
    torsion_height,
    verify_motive,
)
from fcrystals.semilinear import (
    FilteredFModule,
    conjugate,
    conjugate_by_permutation,
    direct_sum,
    newton_slopes,
    verify,
    wm_eq,
    wm_mul,
    wm_scal,
    wm_zero,
    wmat,
    wmat_from_ints,
)
from fcrystals.witt import RingParams

from helpers import pair_oracle, random_motive_spec

P54 = RingParams(5, 4)
P34 = RingParams(3, 4)


def kummer_spec(params=P54, label="kummer"):
    return OneMotiveSpec.split(
        params, LatticeData.trivial(1), TorusData.trivial(1), AbelianBlock.empty(params), label
    )


def mixed_spec(params):
    return OneMotiveSpec.split(
        params, LatticeData.trivial(2), TorusData.trivial(1), abelian_from_ap(0, params), "mixed"
    )


class TestAssemble:
    def test_kummer_splits_into_twists(self):
        mc = assemble(kummer_spec())
        assert mc.module.rank == 2
        assert mc.module.weights == (-2, 0)
        assert wm_eq(mc.module.f_mat, wmat_from_ints(P54, [[1, 0], [0, 5]]))
        assert wm_eq(mc.module.v_mat, wmat_from_ints(P54, [[5, 0], [0, 1]]))
        assert [str(s) for s, _ in newton_slopes(mc.module).pairs] == ["0", "1"]

    def test_mixed_rank_five(self):
        P = RingParams(5, 6)
        mc = assemble(mixed_spec(P))
        assert mc.module.rank == 5
        assert mc.module.weights == (-2, -1, -1, 0, 0)
        prof = newton_slopes(mc.module)
        assert [(str(s), m) for s, m in prof.pairs] == [("0", 1), ("1/2", 2), ("1", 2)]

    def test_lattice_into_torus_coupling_family(self):
        for xval in (0, 1, 2, 5, 80):
            s = OneMotiveSpec(
                P34,
                LatticeData.trivial(1),
                TorusData.trivial(1),
                AbelianBlock.empty(P34),
                wm_zero(P34, 1, 0),
                wm_zero(P34, 0, 1),
                wmat(P34, [[xval]]),
                "coupled",
            )
            m = assemble(s).module
            assert wm_eq(m.f_mat, wmat(P34, [[1, xval], [0, 3]]))
            assert wm_eq(m.v_mat, wmat(P34, [[3, -xval % 81], [0, 1]]))
            assert verify(m).ok

    def test_graded_blocks_match_constructors(self):
        rng = random.Random(21)
        for _ in range(10):
            s = random_motive_spec(rng, P54)
            m = assemble(s).module
            rT, g2, rX = s.segments
            tb = torus_block(s.torus, P54)
            lb = lattice_block(s.lattice, P54)
            f = m.f_mat
            assert all(
                f[i][j] == tb.f_mat[i][j] for i in range(rT) for j in range(rT)
            )
            assert all(
                f[rT + i][rT + j] == s.abelian.crystal.f_mat[i][j]
                for i in range(g2)
                for j in range(g2)
            )
            assert all(
                f[rT + g2 + i][rT + g2 + j] == lb.f_mat[i][j]
                for i in range(rX)
                for j in range(rX)
            )

    def test_invalid_extension_data(self):
        ab = abelian_from_ap(1, P54)
        bad = wmat(P54, [[1], [0]])  # not in the image of F_A mod p
        s = OneMotiveSpec(
            P54,
            LatticeData.trivial(1),
            TorusData.trivial(1),
            ab,
            wm_zero(P54, 1, 2),
            bad,
            wm_zero(P54, 1, 1),
            "bad",
        )
        with pytest.raises(InvalidExtensionDataError):
            assemble(s)

    def test_zero_motive(self):
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(0), AbelianBlock.empty(P54), "zero"
        )
        mc = assemble(s)
        assert mc.module.rank == 0
        assert torsion_height(s, 3) == (0, 0)
        assert tdr_dimension(s) == 0

    def test_ext_shape_validation(self):
        with pytest.raises(ShapeError):
            OneMotiveSpec(
                P54,
                LatticeData.trivial(1),
                TorusData.trivial(1),
                AbelianBlock.empty(P54),
                wm_zero(P54, 1, 0),
                wm_zero(P54, 0, 1),
                wm_zero(P54, 2, 1),  # wrong: should be 1x1
                "bad-shape",
            )


class TestCartierDual:
    def test_kummer_dual_swaps_graded_ranks(self):
        s = kummer_spec()
        d = cartier_dual(s)
        assert d.segments == (1, 0, 1)
        assert assemble(d).module.rank == 2

    def test_pure_torus_dualizes_to_pure_lattice(self):
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(3), AbelianBlock.empty(P54), "torus"
        )
        d = cartier_dual(s)
        assert d.torus.rank == 0 and d.lattice.rank == 3
        assert assemble(d).module.weights == (0, 0, 0)

    def test_involution_exact_on_split_specs(self):
        # with zero extension data the re-derived Verschiebung has no top
        # digit freedom, so the double dual returns the presentation exactly
        rng = random.Random(22)
        for _ in range(8):
            rX, rT, g = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            ab = abelian_from_ap(rng.choice([0, 1, 2]), P54)
            block = ab
            for _ in range(g - 1):
                block = block + abelian_from_ap(rng.choice([0, 1, 2]), P54)
            s = OneMotiveSpec.split(
                P54,
                LatticeData.trivial(rX),
                TorusData.trivial(rT),
                block if g else AbelianBlock.empty(P54),
                "split",
            )
            dd = cartier_dual(cartier_dual(s))
            assert dd.lattice.sigma_action == s.lattice.sigma_action
            assert dd.torus.sigma_action == s.torus.sigma_action
            m0, m2 = assemble(s).module, assemble(dd).module
            assert m0.weights == m2.weights
            assert wm_eq(m0.f_mat, m2.f_mat)
            assert wm_eq(m0.v_mat, m2.v_mat)

    def test_involution_on_coupled_specs(self):
        # the dual presentation only remembers its blocks mod p^n, so the
        # round trip may move V (and hence the next F) by kernel slack in
        # the top p-adic digit; everything else returns on the nose
        rng = random.Random(22)
        p, n = P54.p, P54.n
        for _ in range(8):
            s = random_motive_spec(rng, P54)
            dd = cartier_dual(cartier_dual(s))
            assert dd.lattice.sigma_action == s.lattice.sigma_action
            assert dd.torus.sigma_action == s.torus.sigma_action
            assert dd.segments == s.segments
            m0, m2 = assemble(s).module, assemble(dd).module
            assert m0.weights == m2.weights
            for i in range(m0.rank):
                for j in range(m0.rank):
                    diff = m0.f_mat[i][j] - m2.f_mat[i][j]
                    assert diff.is_zero() or diff.valuation() >= n - 1

    def test_dual_witness_permutation(self):
        rng = random.Random(23)
        p, n = P54.p, P54.n
        for _ in range(8):
            s = random_motive_spec(rng, P54)
            td, ad, perm = dual_witness(s)
            c = conjugate_by_permutation(td, perm)
            assert c.weights == ad.weights
            assert wm_eq(c.f_mat, ad.f_mat)
            # V agrees up to two-sidedly annihilated slack in the top digit
            for i in range(ad.rank):
                for j in range(ad.rank):
                    diff = c.v_mat[i][j] - ad.v_mat[i][j]
                    assert diff.is_zero() or diff.valuation() >= n - 1
            delta = tuple(
                tuple(c.v_mat[i][j] - ad.v_mat[i][j] for j in range(ad.rank))
                for i in range(ad.rank)
            )
            from fcrystals.semilinear import wm_sigma, wm_sigma_inv, wm_zero as wz

            zero = wz(P54, ad.rank, ad.rank)
            assert wm_eq(wm_mul(P54, ad.f_mat, wm_sigma(delta)), zero)
            assert wm_eq(wm_mul(P54, delta, wm_sigma_inv(ad.f_mat)), zero)

    def test_dual_witness_exact_on_split_specs(self):
        s = mixed_spec(P54)
        td, ad, perm = dual_witness(s)
        c = conjugate_by_permutation(td, perm)
        assert c.weights == ad.weights
        assert wm_eq(c.f_mat, ad.f_mat)
        assert wm_eq(c.v_mat, ad.v_mat)

    def test_dual_action_is_inverse_transpose(self):
        action = ((0, 1), (-1, 0))
        s = OneMotiveSpec.split(
            P54, LatticeData(2, action), TorusData.trivial(0), AbelianBlock.empty(P54), "rot"
        )
        d = cartier_dual(s)
        # inverse transpose of the rotation is the rotation itself
        assert d.torus.sigma_action == action


def _tampered(module, rng):
    """Three single edits of a module: one F entry moved, one V entry moved,
    one weight changed by 1."""
    r = module.rank

    def moved(mat):
        rows = [list(row) for row in mat]
        (i, j), (k, l) = [(rng.randrange(r), rng.randrange(r)) for _ in range(2)]
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
        return tuple(map(tuple, rows))

    weights = list(module.weights)
    weights[rng.randrange(r)] += rng.choice((-1, 1))
    return (
        dataclasses.replace(module, f_mat=moved(module.f_mat)),
        dataclasses.replace(module, v_mat=moved(module.v_mat)),
        dataclasses.replace(module, weights=tuple(weights)),
    )


class TestPair:
    def test_rank_one_gram(self):
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(1), AbelianBlock.empty(P54), "gm"
        )
        m = assemble(s)
        d = assemble(cartier_dual(s))
        pm = pair(m, d)
        assert pm.gram == ((P54.one(),),)
        assert pm.ok

    def test_kummer_antidiagonal(self):
        s = kummer_spec()
        pm = pair(assemble(s), assemble(cartier_dual(s)))
        assert wm_eq(pm.gram, wmat_from_ints(P54, [[0, 1], [1, 0]]))
        assert pm.ok

    def test_supersingular_frobenius_compatibility(self):
        ab = abelian_from_ap(0, P54)
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(0), ab, "ss"
        )
        m = assemble(s)
        d = assemble(cartier_dual(s))
        pm = pair(m, d)
        assert pm.frobenius_compatible and pm.verschiebung_compatible
        # explicit identity: F^T G F' = p sigma(G)
        lhs = wm_mul(P54, wm_mul(P54, tuple(zip(*m.module.f_mat)), pm.gram), d.module.f_mat)
        rhs = wm_scal(P54.from_int(5), pm.gram)
        assert wm_eq(lhs, rhs)

    def test_random_specs_pair_perfectly(self):
        rng = random.Random(24)
        for _ in range(10):
            s = random_motive_spec(rng, P54)
            pm = pair(assemble(s), assemble(cartier_dual(s)))
            assert pm.perfect and pm.weight_orthogonal
            assert pm.frobenius_compatible and pm.verschiebung_compatible

    def test_matches_dense_oracle_on_random_specs(self):
        rng = random.Random(31)
        for _ in range(24):
            s = random_motive_spec(rng, P54)
            m, d = assemble(s), assemble(cartier_dual(s))
            got, want = pair(m, d), pair_oracle(m, d)
            assert got == want and got.ok == want.ok

    def test_matches_dense_oracle_on_tampered_modules(self):
        rng = random.Random(32)
        flags = {"frobenius_compatible", "verschiebung_compatible", "weight_orthogonal"}
        failed = set()
        for _ in range(24):
            s = random_motive_spec(rng, P54)
            good = assemble(s).module
            if good.rank == 0:
                continue
            for bad in _tampered(good, rng):
                m, d = MotiveCrystal(bad, s), assemble(cartier_dual(s))
                got, want = pair(m, d), pair_oracle(m, d)
                assert got == want and got.ok == want.ok
                failed |= {f for f in flags if not getattr(got, f)}
        assert failed == flags

    def test_shape_mismatch(self):
        s1 = kummer_spec()
        s2 = OneMotiveSpec.split(
            P54, LatticeData.trivial(2), TorusData.trivial(1), AbelianBlock.empty(P54), "other"
        )
        with pytest.raises(ShapeError):
            pair(assemble(s1), assemble(s2))


class TestVerifyMotive:
    def test_kummer_all_items_pass(self):
        rep = verify_motive(assemble(kummer_spec()))
        assert rep.ok
        assert [key for key, _, _ in rep.items] == [
            "1", "2.a", "2.b", "2.c", "2.d", "3.a", "3.b", "3.c", "4.a", "4.b", "4.c", "4.d", "5",
        ]

    def test_mixed_graded_ranks(self):
        rep = verify_motive(assemble(mixed_spec(P54)))
        assert rep.ok
        assert rep.graded_ranks == (2, 2, 1)

    def test_flag_breaking_module_fails_4a(self):
        s = kummer_spec()
        good = assemble(s).module
        broken_f = wmat_from_ints(P54, [[1, 0], [1, 5]])  # weight -2 leaks into weight 0
        bad = FilteredFModule(P54, 2, good.weights, broken_f, good.v_mat, 1)
        rep = verify_motive(MotiveCrystal(bad, s))
        assert not rep.ok
        assert "4.a" in rep.failed()

    def test_wrong_rank_fails_item_1(self):
        s = kummer_spec()
        wrong = assemble(
            OneMotiveSpec.split(
                P54, LatticeData.trivial(2), TorusData.trivial(1), AbelianBlock.empty(P54), "x"
            )
        ).module
        rep = verify_motive(MotiveCrystal(wrong, s))
        assert not rep.ok and "1" in rep.failed()
        item5 = {key: detail for key, _, detail in rep.items}["5"]
        assert item5 == "pairing failed: pairing operands have ranks 3 and 2, their presentations 2"

    def test_pair_rejects_rank_disagreeing_with_presentation(self):
        s = kummer_spec()
        wrong = assemble(mixed_spec(P54)).module
        with pytest.raises(ShapeError):
            pair(MotiveCrystal(wrong, s), assemble(cartier_dual(s)))

    def test_diagonal_mutation_fails_graded_item(self):
        s = mixed_spec(P54)
        good = assemble(s).module
        rows = [list(r) for r in good.f_mat]
        rows[1][1] = rows[1][1] + P54.one()
        bad = FilteredFModule(P54, 5, good.weights, tuple(tuple(r) for r in rows), good.v_mat, 1)
        rep = verify_motive(MotiveCrystal(bad, s))
        assert not rep.ok
        assert "3.b" in rep.failed() or "4.b" in rep.failed()


class TestCounts:
    def test_torsion_height_kummer(self):
        s = kummer_spec()
        assert torsion_height(s, 1) == (2, 2)

    def test_torsion_height_abelian(self):
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(0), abelian_from_ap(0, P54), "ell"
        )
        assert torsion_height(s, 3) == (2, 6)

    def test_torsion_height_level_zero(self):
        assert torsion_height(kummer_spec(), 0) == (2, 0)

    @pytest.mark.parametrize("n", [-1, -3, True, 1.0])
    def test_torsion_height_rejects_bad_level(self, n):
        with pytest.raises(MalformedInputError) as exc:
            torsion_height(kummer_spec(), n)
        assert exc.value.code == "bad-level"

    def test_tdr_examples(self):
        assert tdr_dimension(kummer_spec()) == 2
        s = OneMotiveSpec.split(
            P54, LatticeData.trivial(0), TorusData.trivial(0), abelian_from_ap(0, P54), "ell"
        )
        assert tdr_dimension(s) == 2

    def test_three_rank_computations_agree(self):
        rng = random.Random(25)
        for _ in range(15):
            s = random_motive_spec(rng, P54)
            r = assemble(s).module.rank
            assert torsion_height(s, 1) == (r, r)
            assert tdr_dimension(s) == r


class TestIsomorphismInvariance:
    def test_unit_scaling_of_ext_blocks_conjugates(self):
        # entries small enough that no reduction wrap occurs, so the scaled
        # assembly agrees with the conjugated module on the nose
        rng = random.Random(26)
        ab = abelian_from_ap(1, P54)
        seed = wmat(P54, [[rng.randrange(5)], [rng.randrange(5)]])
        exa = wm_mul(P54, ab.crystal.f_mat, seed)
        eat = wmat(P54, [[rng.randrange(5), rng.randrange(5)]])
        ext = wmat(P54, [[rng.randrange(5)]])
        s = OneMotiveSpec(
            P54, LatticeData.trivial(1), TorusData.trivial(1), ab, eat, exa, ext, "c"
        )
        u, v = 2, 3
        s2 = OneMotiveSpec(
            P54,
            s.lattice,
            s.torus,
            s.abelian,
            wm_scal(P54.from_int(u), eat),
            wm_scal(P54.from_int(v), exa),
            wm_scal(P54.from_int(u * v), ext),
            "scaled",
        )
        g = wmat_from_ints(
            P54,
            [
                [1, 0, 0, 0],
                [0, u, 0, 0],
                [0, 0, u, 0],
                [0, 0, 0, u * v],
            ],
        )
        conj = conjugate(assemble(s).module, g)
        m2 = assemble(s2).module
        assert wm_eq(conj.f_mat, m2.f_mat)
        assert wm_eq(conj.v_mat, m2.v_mat)
        assert verify(conj).ok

    def test_slopes_ignore_extension_blocks(self):
        rng = random.Random(27)
        P = RingParams(5, 9)
        for _ in range(6):
            s = random_motive_spec(rng, P, 2, 2, 1)
            if assemble(s).module.rank == 0:
                continue
            full = newton_slopes(assemble(s).module)
            graded = direct_sum(
                direct_sum(torus_block(s.torus, P), s.abelian.crystal),
                lattice_block(s.lattice, P),
            )
            assert full == newton_slopes(graded)
