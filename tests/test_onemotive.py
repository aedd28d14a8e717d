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
from fcrystals import intmat, onemotive
from fcrystals.errors import (
    FCrystalsError,
    IncompatibleRingsError,
    InvalidExtensionDataError,
    MalformedInputError,
    ShapeError,
    UnsupportedInputError,
)
from fcrystals.onemotive import (
    MotiveCrystal,
    MotiveReport,
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
    _box,
    direct_sum,
    newton_slopes,
    twisted_dual,
    verify,
    wm_mul,
)
from fcrystals.serialize import motive_from_doc, motive_to_doc, wmat_to_doc
from fcrystals.witt import RingParams, default_modulus, with_precision

from helpers import (
    conjugate_by_permutation,
    det_oracle,
    mat_reduce,
    mat_scale,
    pair_oracle,
    random_galois_motive_spec,
    cube_root_block,
    random_motive_spec,
    realize_oracle,
    slope_half_block,
    witness_oracle,
    wm_zero,
    wmat,
)

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
        assert mc.module.f_mat == wmat(P54, [[1, 0], [0, 5]])
        assert mc.module.v_mat == wmat(P54, [[5, 0], [0, 1]])
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
            assert m.f_mat == wmat(P34, [[1, xval], [0, 3]])
            assert m.v_mat == wmat(P34, [[3, -xval % 81], [0, 1]])
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


    @pytest.mark.parametrize("block", ["ext_at", "ext_xa", "ext_xt"])
    def test_ext_entries_are_checked_on_construction(self, block):
        """A non-element entry is bad-element and an entry from another ring
        IncompatibleRingsError, both from the constructor, before assembly."""
        s = mixed_spec(P54)
        alien = with_precision(P54, 5).one()
        for entry, error in ((5, MalformedInputError), (alien, IncompatibleRingsError)):
            rows = [list(row) for row in getattr(s, block)]
            rows[0][0] = entry
            with pytest.raises(error) as exc:
                dataclasses.replace(s, **{block: tuple(map(tuple, rows))})
            if error is MalformedInputError:
                assert exc.value.code == "bad-element"
            else:
                assert str(exc.value) == "matrix entry from a different ring"

    @pytest.mark.parametrize("block,value", [("ext_at", None), ("ext_xt", 5), ("ext_xa", (5,))])
    def test_non_matrix_ext_block_is_bad_matrix(self, block, value):
        with pytest.raises(MalformedInputError) as exc:
            dataclasses.replace(mixed_spec(P54), **{block: value})
        assert exc.value.code == "bad-matrix"

    def test_realization_reads_the_kept_ext_rows(self, monkeypatch):
        s = random_motive_spec(random.Random(4), P54)
        assert s.ext_rows == tuple([[x.coords for x in row] for row in m] for m in (s.ext_at, s.ext_xa, s.ext_xt))

        def unexpected(params, m):
            raise AssertionError("the realization converted a matrix again")

        monkeypatch.setattr(onemotive, "_coords", unexpected)
        assert verify(assemble(s).module).ok

    def test_rows_constructor_checks_as_the_public_one(self):
        """OneMotiveSpec._of_rows, the constructor of the parser, split and
        cartier_dual, builds from ext rows the presentation the public
        constructor builds from their boxed blocks (equal, equally hashed,
        with equal views, boxed once), and raises its error with its message
        on each misshapen block and on an abelian block over another ring."""

        def outcome(build):
            try:
                return "spec", build()
            except FCrystalsError as exc:
                return "error", type(exc), str(exc)

        rng = random.Random(41)
        for _ in range(12):
            s = random_motive_spec(rng, RingParams(5, 6))  # n = 6: the parser takes the slopes of g = 2
            args = (s.params, s.lattice, s.torus, s.abelian)
            t = OneMotiveSpec._of_rows(*args, s.ext_rows, s.label)
            assert t == s and hash(t) == hash(s)
            assert (t.ext_at, t.ext_xa, t.ext_xt) == (s.ext_at, s.ext_xa, s.ext_xt) and t.ext_xa is t.ext_xa
            assert motive_from_doc(motive_to_doc(s)) == s
            assert motive_to_doc(s)["ext"] == {k: wmat_to_doc(m) for k, m in zip(("AT", "XA", "XT"), (s.ext_at, s.ext_xa, s.ext_xt))}
            rT, g2, rX = s.segments
            for k, (blk, width) in enumerate(zip(s.ext_rows, (g2, rX, rX))):
                for bad in (blk + [[(0,)] * width], [row + [(0,)] for row in blk], blk[1:]):
                    if bad == blk:
                        continue
                    ext = list(s.ext_rows)
                    ext[k] = bad
                    got = outcome(lambda: OneMotiveSpec._of_rows(*args, tuple(ext), s.label))
                    assert got[:2] == ("error", ShapeError)
                    assert got == outcome(lambda: OneMotiveSpec(*args, *(_box(s.params, m) for m in ext), s.label))
        alien = abelian_from_ap(0, with_precision(P54, 5))
        for build in (
            lambda: OneMotiveSpec.split(P54, LatticeData.trivial(1), TorusData.trivial(1), alien),
            lambda: OneMotiveSpec(P54, LatticeData.trivial(0), TorusData.trivial(0), alien, (), (), ()),
            # the ring is checked before any ext entry
            lambda: OneMotiveSpec(P54, LatticeData.trivial(1), TorusData.trivial(1), alien, ((7, 7),), ((7,),) * 2, ((7,),)),
        ):
            assert outcome(build) == ("error", IncompatibleRingsError, "abelian block lives over a different ring")


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
            assert m0.f_mat == m2.f_mat
            assert m0.v_mat == m2.v_mat

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
            assert c.f_mat == ad.f_mat
            # V agrees up to two-sidedly annihilated slack in the top digit
            for i in range(ad.rank):
                for j in range(ad.rank):
                    diff = c.v_mat[i][j] - ad.v_mat[i][j]
                    assert diff.is_zero() or diff.valuation() >= n - 1
            delta = tuple(
                tuple(c.v_mat[i][j] - ad.v_mat[i][j] for j in range(ad.rank))
                for i in range(ad.rank)
            )
            from fcrystals.semilinear import wm_sigma, wm_sigma_inv

            zero = wm_zero(P54, ad.rank, ad.rank)
            assert wm_mul(P54, ad.f_mat, wm_sigma(delta)) == zero
            assert wm_mul(P54, delta, wm_sigma_inv(ad.f_mat)) == zero

    def test_dual_witness_exact_on_split_specs(self):
        s = mixed_spec(P54)
        td, ad, perm = dual_witness(s)
        c = conjugate_by_permutation(td, perm)
        assert c.weights == ad.weights
        assert c.f_mat == ad.f_mat
        assert c.v_mat == ad.v_mat

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
        assert pm.gram == wmat(P54, [[0, 1], [1, 0]])
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
        rhs = mat_scale(P54.from_int(5), pm.gram)
        assert lhs == rhs

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

    def test_ring_mismatch(self):
        """Operands over different rings are refused before any rank is read."""
        m, d = (
            assemble(OneMotiveSpec.split(p, LatticeData.trivial(0), TorusData.trivial(1), AbelianBlock.empty(p), "gm"))
            for p in (P54, RingParams(5, 5))
        )
        with pytest.raises(IncompatibleRingsError, match="^pairing operands live over different rings$"):
            pair(m, d)

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
        broken_f = wmat(P54, [[1, 0], [1, 5]])  # weight -2 leaks into weight 0
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
            mat_scale(P54.from_int(u), eat),
            mat_scale(P54.from_int(v), exa),
            mat_scale(P54.from_int(u * v), ext),
            "scaled",
        )
        g = wmat(
            P54,
            [
                [1, 0, 0, 0],
                [0, u, 0, 0],
                [0, 0, u, 0],
                [0, 0, 0, u * v],
            ],
        )
        m2 = assemble(s2).module
        assert witness_oracle(g, assemble(s).module, m2)
        assert verify(m2).ok

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


def _reduced_spec(s: OneMotiveSpec, small: RingParams) -> OneMotiveSpec:
    """The presentation with every block over W_n reduced to W_(n-1)."""
    c = s.abelian.crystal
    crystal = FilteredFModule(
        small, c.rank, c.weights, mat_reduce(c.f_mat, small), mat_reduce(c.v_mat, small), c.level
    )
    return OneMotiveSpec(
        small,
        s.lattice,
        s.torus,
        AbelianBlock(s.abelian.dim, crystal),
        mat_reduce(s.ext_at, small),
        mat_reduce(s.ext_xa, small),
        mat_reduce(s.ext_xt, small),
        s.label,
    )


class TestBaseChange:
    """Realization commutes with base change W_8 -> W_7: F exactly, V up to
    its top p-adic digit (V's (abelian, lattice) and (torus, lattice) blocks
    divide by p, so that digit depends on the lift), and both modules verify."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reduce_then_assemble(self, p):
        big = RingParams(p, 8)
        small, v_prec = with_precision(big, 7), with_precision(big, 6)
        divided = 0
        for seed in range(40):
            s = random_motive_spec(random.Random(seed), big)
            m_big, m_small = assemble(s), assemble(_reduced_spec(s, small))
            assert m_big.report.ok and m_small.report.ok
            assert m_small.module.f_mat == mat_reduce(m_big.module.f_mat, small)
            assert mat_reduce(m_small.module.v_mat, v_prec) == mat_reduce(m_big.module.v_mat, v_prec)
            divided += s.abelian.dim > 0 and s.lattice.rank > 0
        assert divided >= 10


def _outcome(realize, s):
    """What realize does with s: ("module", rank, weights, level, F, V coordinates and
    rings), or ("error", its type and message)."""
    try:
        m = realize(s)
    except FCrystalsError as exc:
        return "error", type(exc), str(exc)
    entries = lambda mat: [[(x.params, x.coords) for x in row] for row in mat]  # noqa: E731
    return "module", m.rank, m.weights, m.level, entries(m.f_mat), entries(m.v_mat)


class TestRealizeOracle:
    """_realize on coordinate rows against the elementwise WittElem realization
    in tests/helpers.realize_oracle: the same F and V entry for entry, and the
    same error with the same message on every rejected presentation."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_specs(self, p):
        params = RingParams(p, 6)
        for seed in range(40):
            s = random_motive_spec(random.Random(seed), params)
            got = _outcome(onemotive._realize, s)
            assert got[0] == "module" and got == _outcome(realize_oracle, s)

    @pytest.mark.parametrize(
        "p,n,a,block",
        [
            (2, 5, 2, slope_half_block),
            (3, 5, 2, slope_half_block),
            (5, 5, 2, slope_half_block),
            (2, 7, 3, slope_half_block),
            (3, 7, 3, slope_half_block),
            (2, 5, 2, cube_root_block),
        ],
    )
    def test_galois_rings(self, p, n, a, block):
        """a > 1, where sigma moves coordinates: no abelian part, the
        slope-1/2 block F = V = [[0, p], [1, 0]], or a slope-1/2 block whose
        entries sigma moves."""
        params = RingParams(p, n, a, default_modulus(p, a))
        coupled = 0
        for seed in range(12):
            s = random_galois_motive_spec(random.Random(seed), params, block=block)
            got = _outcome(onemotive._realize, s)
            assert got[0] == "module" and got == _outcome(realize_oracle, s)
            assert verify(onemotive._realize(s)).ok
            coupled += s.abelian.dim > 0 and s.torus.rank > 0 and s.lattice.rank > 0
        assert coupled >= 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_inexact_abelian_lift(self, p):
        """F = diag(u, p u), V = diag(p/u, 1/u) verifies mod p^n, but the
        balanced lift of 1/u is not an integer inverse of u."""
        params = RingParams(p, 4)
        u = 2 if p != 2 else 3
        uinv = pow(u, -1, params.pn)
        f = wmat(params, [[u, 0], [0, p * u]])
        v = wmat(params, [[p * uinv, 0], [0, uinv]])
        abelian = AbelianBlock.from_module(FilteredFModule(params, 2, (-1, -1), f, v, 1))
        s = OneMotiveSpec.split(params, LatticeData.trivial(1), TorusData.trivial(1), abelian)
        got = _outcome(onemotive._realize, s)
        assert got[:2] == ("error", UnsupportedInputError)
        assert got == _outcome(realize_oracle, s)

    @pytest.mark.parametrize(
        "f,v,exact",
        [
            ([[34, 40], [35, 32]], [[62, 44], [79, 76]], "F sigma(V)"),
            ([[62, 25], [61, 74]], [[23, 59], [50, 74]], "V sigma^-1(F)"),
        ],
    )
    def test_one_sided_exact_lift(self, f, v, exact):
        """Abelian blocks over W_4(F_3) that verify, and whose balanced lifts
        satisfy exactly one of the two identities on the nose (mod 3^6, the
        realization's two guard digits): both must be rejected."""
        params, big = P34, 3**6
        bal = [[[x if x <= params.pn // 2 else x - params.pn for x in row] for row in m] for m in (f, v)]
        products = {
            "F sigma(V)": intmat.mul(bal[0], bal[1]),
            "V sigma^-1(F)": intmat.mul(bal[1], bal[0]),
        }
        lifts = {k: [[x % big for x in row] for row in prod] == [[3, 0], [0, 3]] for k, prod in products.items()}
        assert [k for k, ok in lifts.items() if ok] == [exact]
        module = FilteredFModule(params, 2, (-1, -1), wmat(params, f), wmat(params, v), 1)
        abelian = AbelianBlock.from_module(module)
        s = OneMotiveSpec.split(params, LatticeData.trivial(0), TorusData.trivial(0), abelian)
        got = _outcome(onemotive._realize, s)
        assert got[:2] == ("error", UnsupportedInputError) and "does not lift exactly" in got[2]
        assert got == _outcome(realize_oracle, s)
        with pytest.raises(UnsupportedInputError):
            assemble(s)

    @pytest.mark.parametrize("p,n,a", [(3, 4, 1), (5, 6, 1), (2, 5, 2), (3, 7, 3)])
    def test_indivisible_extension(self, p, n, a):
        """ext_xa outside the image of F_A: sigma(V_A) . ext_xa is not divisible by p."""
        params = RingParams(p, n, a, default_modulus(p, a) if a > 1 else None)
        rng = random.Random(p * n * a)
        rejected = 0
        for _ in range(10):
            entries = [[[rng.randrange(params.pn) for _ in range(a)] for _ in range(2)] for _ in range(2)]
            s = OneMotiveSpec(
                params,
                LatticeData.trivial(2),
                TorusData.trivial(1),
                slope_half_block(params),
                wm_zero(params, 1, 2),
                wmat(params, entries),
                wm_zero(params, 1, 2),
            )
            got = _outcome(onemotive._realize, s)
            assert got == _outcome(realize_oracle, s)
            rejected += got[:2] == ("error", InvalidExtensionDataError)
        assert rejected >= 8


# ---------------------------------------------------------------------------
# the dual's F taken from the canonical dual, and items 4.c / 4.d read off
# 3.c / 3.a, against the path that builds the dual through the public
# constructor and always takes the determinant


def _public_dual(s: OneMotiveSpec) -> OneMotiveSpec:
    """The dual presentation of s built through the public constructor: ext
    blocks boxed from the canonical dual and checked entry by entry, and F
    left to the graded blocks and ext rows."""
    params = s.params
    rT, g2, rX = s.segments
    f_c = assemble(s).canonical_dual.f_rows
    seg_t, seg_a, seg_x = slice(0, rX), slice(rX, rX + g2), slice(rX + g2, rX + g2 + rT)
    ext = [_box(params, [row[c] for row in f_c[r]]) for r, c in ((seg_t, seg_a), (seg_a, seg_x), (seg_t, seg_x))]
    abelian = AbelianBlock(s.abelian.dim, twisted_dual(s.abelian.crystal)) if g2 else AbelianBlock.empty(params)
    return OneMotiveSpec(params, s.torus.dual(), s.lattice.dual(), abelian, *ext, f"{s.label}^dual" if s.label else "dual")


def _reference_report(m: MotiveCrystal) -> MotiveReport:
    """verify_motive(m) with the dual from _public_dual, and items 4.c / 4.d
    from det_oracle of the graded block whatever 3.c / 3.a say."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onemotive, "cartier_dual", _public_dual)
        rep = verify_motive(m)
    s, mod = m.provenance, m.module
    rT, g2, rX = s.segments
    r = rT + g2 + rX
    shape_ok = mod.rank == r and mod.params == s.params and mod.weights == (-2,) * rT + (-1,) * g2 + (0,) * rX

    def unit_det(rows, seg):
        return det_oracle(s.params, _box(s.params, [row[seg] for row in rows[seg]])).is_unit()

    fixed = {
        "4.c": shape_ok and mod.v_rows is not None and (rX == 0 or unit_det(mod.v_rows, slice(rT + g2, r))),
        "4.d": shape_ok and (rT == 0 or unit_det(mod.f_rows, slice(0, rT))),
    }
    return MotiveReport(tuple((k, fixed.get(k, ok), d) for k, ok, d in rep.items), rep.graded_ranks)


def _graded_edits(module: FilteredFModule, segments):
    """(block, matrix, kind, module) for one edited entry in each graded block
    of F and of V: kind "unit" adds p to the first nonzero entry of the
    block's first row, which keeps a unit determinant unit, and kind "p"
    replaces it by p, which makes a signed-permutation block's determinant
    divisible by p."""
    params, (rT, g2, rX) = module.params, segments
    p, pn = params.p, params.pn
    for block, seg in (("torus", slice(0, rT)), ("abelian", slice(rT, rT + g2)), ("lattice", slice(rT + g2, rT + g2 + rX))):
        if seg.start == seg.stop:
            continue
        for which in ("F", "V"):
            for kind in ("unit", "p"):
                rows = [list(row) for row in (module.f_rows if which == "F" else module.v_rows)]
                i = seg.start
                j = next((j for j in range(seg.start, seg.stop) if any(rows[i][j])), seg.start)
                x = rows[i][j]
                rows[i][j] = ((x[0] + p) % pn,) + x[1:] if kind == "unit" else (p % pn,) + (0,) * (params.a - 1)
                f, v = (rows, module.v_rows) if which == "F" else (module.f_rows, rows)
                edited = FilteredFModule._of_rows(params, module.rank, module.weights, f, v, module.level)
                yield block, which, kind, edited


DIFFERENTIAL_RINGS = [pytest.param(RingParams(p, 6), id=f"p{p}") for p in (2, 3, 5)] + [
    pytest.param(RingParams(3, n, a, default_modulus(3, a)), id=f"p3-a{a}") for n, a in ((5, 2), (7, 3))
]


class TestDualFromCanonicalDual:
    @pytest.mark.parametrize("params", DIFFERENTIAL_RINGS)
    def test_same_reports_duals_and_realizations(self, params):
        """On random presentations and on modules with one entry of a graded
        block edited: verify_motive gives the reference report, the dual's F
        is the matrix its graded blocks and ext rows build, the dual equals
        the publicly built one, and its assembly is realize_oracle of it."""
        seen = {"4.c": 0, "4.d": 0, "3.c-only": 0, "3.a-only": 0}
        for seed in range(10):
            rng = random.Random(seed)
            s = random_motive_spec(rng, params) if params.a == 1 else random_galois_motive_spec(rng, params)
            public, d = _public_dual(s), cartier_dual(s)
            assert d == public
            assert d.f_rows == OneMotiveSpec.f_rows.func(d) == public.f_rows
            assert assemble(d).module == realize_oracle(public) == assemble(public).module
            m = assemble(s)
            assert verify_motive(m) == _reference_report(m) and verify_motive(m).ok
            for block, which, kind, edited in _graded_edits(m.module, s.segments):
                tampered = MotiveCrystal(edited, s)
                rep = verify_motive(tampered)
                assert rep == _reference_report(tampered), (seed, block, which, kind)
                items = {k: ok for k, ok, _ in rep.items}
                if (block, which) == ("lattice", "V"):
                    assert not items["3.c"] and items["4.c"] == (kind == "unit")
                    seen["4.c"] += not items["4.c"]
                if (block, which) == ("torus", "F"):
                    assert not items["3.a"] and items["4.d"] == (kind == "unit")
                    seen["4.d"] += not items["4.d"]
                seen["3.c-only"] += (block, which) == ("lattice", "F") and items["4.c"] and not items["3.c"]
                seen["3.a-only"] += (block, which) == ("torus", "V") and items["4.d"] and not items["3.a"]
        assert min(seen.values()) >= 2, seen
