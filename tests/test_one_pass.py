"""The motive pipeline computes each derived object of a presentation once:
one realization, one set of graded blocks and one F per presentation (the
dual's F is its canonical dual's), one verify report per module, one
canonical dual per assembled module, no characteristic polynomial for a
graded block that matches its lattice or torus block, one action inverse
per lattice, read off its order search with no Smith normal form (the dual
presentation's actions reuse it), one Smith form, one spanning-forest
replay and one product per cocharacter group (the form building only the
transforms it reads), and a matrix product for a pairing identity only
where the self-check's products do not decide it; a split presentation's
realization forms no product at all.  And an internal
invariant that fails raises InternalError, also under python -O."""

import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import fcrystals.blocks as blocks
import fcrystals.intmat
import fcrystals.witt
import fcrystals.onemotive as onemotive
import fcrystals.semilinear as semilinear
import fcrystals.simplicial as simplicial
from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, abelian_from_ap, torus_block
from fcrystals.cli import main
from fcrystals.errors import InternalError
from fcrystals.onemotive import MotiveCrystal, OneMotiveSpec, assemble, cartier_dual, pair
from fcrystals.semilinear import FilteredFModule
from fcrystals.serialize import divisor_from_doc, motive_from_doc
from fcrystals.witt import RingParams, default_modulus
from helpers import conjugate_by_permutation, mat_scale, slope_half_block

TESTS = os.path.dirname(os.path.abspath(__file__))
FX = os.path.join(TESTS, "fixtures")
SRC = os.path.join(TESTS, os.pardir, "src")
P54 = RingParams(5, 4)


def _kummer():
    return OneMotiveSpec.split(
        P54, LatticeData.trivial(1), TorusData.trivial(1), AbelianBlock.empty(P54), "kummer"
    )


def _count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counted_run(monkeypatch, argv):
    counts = Counter()
    for name in ("_realize", "verify", "twisted_dual", "_twisted_dual", "_charpoly", "_block"):
        _count_calls(monkeypatch, counts, onemotive, name)
    _count_calls(monkeypatch, counts, blocks, "twisted_dual")  # the abelian block's dual (AbelianBlock._dual)
    _count_calls(monkeypatch, counts, fcrystals.intmat, "inverse_unimodular")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, counts, out.getvalue()


@pytest.mark.parametrize(
    "fixture,expected",
    [
        (
            "motive_mixed.json",
            {
                "_realize": 2,
                "verify": 2,
                "twisted_dual": 1,
                "_twisted_dual": 1,
                "inverse_unimodular": 0,
                "_charpoly": 0,
                "_block": 3,
            },
        ),
        ("motive_kummer.json", {"_realize": 2, "twisted_dual": 0, "_twisted_dual": 1}),
        ("motive_badflag.json", {"_realize": 2}),
    ],
)
def test_motive_verify_work_counts(monkeypatch, fixture, expected):
    """The canonical dual is one pass (_twisted_dual, with no relabelling
    of a twisted dual afterwards); twisted_dual runs only for the abelian
    block's dual (AbelianBlock._dual), which motive_kummer.json does not
    have."""
    _, counts, _ = _counted_run(monkeypatch, ["motive-verify", "--in", os.path.join(FX, fixture)])
    assert {name: counts[name] for name in expected} == expected


def test_dual_takes_its_frobenius_from_the_canonical_dual(monkeypatch):
    """Assembling the dual of motive_mixed.json builds its V with one _block
    call, and its F is the canonical dual's F, not rebuilt by _block."""
    with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    m = assemble(spec)
    counts = Counter()
    _count_calls(monkeypatch, counts, onemotive, "_block")
    d = assemble(cartier_dual(spec))
    assert counts["_block"] == 1
    assert d.module.f_rows is m.canonical_dual.f_rows


def test_graded_blocks_are_built_once_per_presentation(monkeypatch):
    """One motive-verify of motive_mixed.json builds the torus and lattice
    blocks of the presentation and of its dual once each (four times each,
    in _realize, verify_motive, cartier_dual and the dual's _realize, before
    the blocks were kept on the presentation)."""
    counts = Counter()
    for name in ("torus_block", "lattice_block"):
        _count_calls(monkeypatch, counts, onemotive, name)
    code, _, _ = _counted_run(monkeypatch, ["motive-verify", "--in", os.path.join(FX, "motive_mixed.json")])
    assert code == 0
    assert (counts["torus_block"], counts["lattice_block"]) == (2, 2)
    s = _kummer()
    assert s.blocks is s.blocks


def test_a_shared_abelian_block_is_checked_and_lifted_once(monkeypatch, tmp_path):
    """A motive-verify batch of three documents with one abelian block given
    as a module (motive_g2.json, its tampered copy and a relabelled copy)
    checks the block once, forms its dual once, and makes the two
    exact-lift products once for the block and once for its dual: 1, 1 and
    4, where the three documents made 3, 3 and 12 before the block table."""
    with open(os.path.join(FX, "motive_g2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["label"] = "g2-copy"
    relabelled = tmp_path / "g2_copy.json"
    relabelled.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["motive-verify"]
    for path in (os.path.join(FX, "motive_g2.json"), os.path.join(FX, "motive_g2_tampered.json"), str(relabelled)):
        argv += ["--in", path]
    counts = Counter()
    for name in ("_checked_abelian", "twisted_dual", "_mul"):
        _count_calls(monkeypatch, counts, blocks, name)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 1  # the tampered module fails
    assert dict(counts) == {"_checked_abelian": 1, "twisted_dual": 1, "_mul": 4}


def test_default_abelian_builds_its_companion_block_once(monkeypatch):
    """The default abelian block of dimension g is g copies of one companion
    block, built (with its slope and verify pass) once per ring; the sum is
    the same module.  The cache is cleared first, so the count does not rest
    on what an earlier test built."""
    simplicial._companion.cache_clear()
    counts = Counter()
    _count_calls(monkeypatch, counts, simplicial, "abelian_from_ap")
    block = simplicial._default_abelian(3, P54)
    assert counts["abelian_from_ap"] == 1
    assert simplicial._default_abelian(2, RingParams(5, 4)) == simplicial._default_abelian(2, P54)
    assert counts["abelian_from_ap"] == 1
    simplicial._default_abelian(1, RingParams(5, 5))
    assert counts["abelian_from_ap"] == 2
    one = abelian_from_ap(0, P54)
    assert block == one + one + one and block.dim == 3


def test_h1_ledger_makes_only_the_self_check_products(monkeypatch, tmp_path):
    """h1-ledger on split skeletons with g = 1, 2, 3 over one ring: the
    realization forms no lift and no product, and the default block's lift
    is its companion's, computed (two lifts and the two products of its
    check) once for the ring, in the first call, which also builds and
    verifies the companion block.  Every call makes the two products of its
    self-check and no other."""
    counts = Counter()
    for module in (semilinear, blocks, onemotive):
        for name in ("_mul", "_lift") if module is not semilinear else ("_mul",):
            original = getattr(module, name)

            def wrapper(*args, _key=f"{module.__name__[10:]}.{name}", _original=original, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    made = []
    for g in (1, 2, 3):
        path = tmp_path / f"g{g}.json"
        path.write_text(json.dumps({"lattice_rank": 2, "torus_rank": 3, "g": g}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["h1-ledger", "--ring", os.path.join(FX, "ring_f5n4.json"), "--in", str(path)]) == 0
        made.append(dict(counts))
        counts.clear()
    first = {"semilinear._mul": 4, "blocks._lift": 2, "blocks._mul": 2}  # with the companion's verify and lift
    assert made == [first, {"semilinear._mul": 2}, {"semilinear._mul": 2}]


@pytest.mark.parametrize("g", range(1, 7))
def test_default_abelian_is_the_iterated_direct_sum(monkeypatch, g):
    """The default block of dimension g is one block matrix, the module the
    g - 1 direct sums built, with no re-sort of its basis by weight."""
    one = abelian_from_ap(0, P54)
    want = one
    for _ in range(g - 1):
        want = want + one
    counts = Counter()
    _count_calls(monkeypatch, counts, semilinear, "_permute")
    block = simplicial._default_abelian(g, P54)
    assert counts["_permute"] == 0
    assert block == want and block.dim == g


def test_dual_block_disagreement_raises_internal_error(monkeypatch):
    """cartier_dual checks the canonical dual's diagonal blocks against the
    dual presentation's blocks; here the dual torus block is skewed to 2 B."""

    def skewed(d, params):
        block = torus_block(d, params)
        if not d.rank:
            return block
        f = mat_scale(params.from_int(2), block.f_mat)
        return FilteredFModule(params, d.rank, block.weights, f, block.v_mat, block.level)

    monkeypatch.setattr(onemotive, "torus_block", skewed)
    s = OneMotiveSpec.split(P54, LatticeData.trivial(1), TorusData.trivial(0), AbelianBlock.empty(P54))
    with pytest.raises(InternalError, match="the torus block of the canonical dual disagrees with the dual spec"):
        cartier_dual(s)


def test_pair_reads_the_self_check_products(monkeypatch):
    """pair makes no product for an assembled pair, whose identities are the
    self-check's fv-product and vf-product; one, for the Frobenius identity,
    against a dual whose F is not the canonical dual's; and both at level 2,
    where the self-check compares with p^2 I, not p I."""
    with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    m, d = assemble(spec), assemble(cartier_dual(spec))
    f = [list(row) for row in d.module.f_mat]
    f[0][0] = f[0][0] + P54.one()
    other_f = MotiveCrystal(dataclasses.replace(d.module, f_mat=tuple(map(tuple, f))), d.provenance)
    level_2 = MotiveCrystal(dataclasses.replace(m.module, level=2), spec)
    counts = Counter()
    for module in (onemotive, semilinear):
        _count_calls(monkeypatch, counts, module, "_mul")
    for name in ("charpoly", "_charpoly"):
        _count_calls(monkeypatch, counts, semilinear, name)
    made = []
    for crystal, dual in ((m, d), (m, other_f), (level_2, d)):
        pm = pair(crystal, dual)
        flags = (pm.frobenius_compatible, pm.verschiebung_compatible)
        made.append((*flags, counts["_mul"], counts["charpoly"], counts["_charpoly"]))
        counts.clear()
    assert made == [(True, True, 0, 0, 0), (False, True, 1, 0, 0), (True, True, 2, 0, 0)]


def test_verify_takes_no_frobenius_at_a_1(monkeypatch):
    """sigma is the identity on W_n(F_p): one verify of the assembled
    motive_mixed.json applies neither frobenius nor frobenius_inverse."""
    with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    module = assemble(spec).module
    counts = Counter()
    for name in ("frobenius", "frobenius_inverse"):
        original = getattr(fcrystals.witt, name)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "fcrystals"]:
            if getattr(mod, name, None) is original:
                _count_calls(monkeypatch, counts, mod, name)
    assert semilinear.verify(module).ok
    assert (counts["frobenius"], counts["frobenius_inverse"]) == (0, 0)


@pytest.mark.parametrize("a", [2, 3])
def test_galois_verify_is_two_products(monkeypatch, a):
    """sigma and sigma^(-1) go into the packing of the right factors: one
    verify of a module over W_n(F_{p^a}) makes the two products and no
    sigma pass over a matrix's rows."""
    module = slope_half_block(RingParams(3, 7, a, default_modulus(3, a))).crystal
    counts = Counter()
    for name in ("_mul", "_sigma_rows"):
        _count_calls(monkeypatch, counts, semilinear, name)
    assert semilinear.verify(module).ok
    assert (counts["_mul"], counts["_sigma_rows"]) == (2, 0)


@pytest.mark.parametrize("a", [2, 3])
def test_newton_slopes_folds_one_sigma_per_product(monkeypatch, a):
    """The a-fold iterate F sigma(F) ... sigma^(a-1)(F) is a - 1 products,
    each with one sigma in the packing of its right factor, so only a - 2
    sigma passes run (none at a = 2)."""
    module = slope_half_block(RingParams(3, 7, a, default_modulus(3, a))).crystal
    counts = Counter()
    for name in ("_mul", "_sigma_rows"):
        _count_calls(monkeypatch, counts, semilinear, name)
    assert semilinear.newton_slopes(module).as_list() == [Fraction(1, 2)] * 2
    assert (counts["_mul"], counts["_sigma_rows"]) == (a - 1, a - 2)


def test_assemble_is_kept_on_the_spec():
    s = _kummer()
    mc = assemble(s)
    assert assemble(s) is mc
    assert mc.report is mc.report
    assert mc.canonical_dual is mc.canonical_dual


def test_crystal_is_freed_with_its_last_holder(monkeypatch):
    """The presentation holds its crystal weakly: the crystal is freed by
    reference count when its caller drops it, and a later assemble realizes
    the presentation again."""
    counts = Counter()
    _count_calls(monkeypatch, counts, onemotive, "_realize")
    s = _kummer()
    gc.disable()
    try:
        ref = weakref.ref(assemble(s))
        assert ref() is None
    finally:
        gc.enable()
    assert counts["_realize"] == 1
    assert assemble(s).provenance is s and counts["_realize"] == 2


@pytest.mark.parametrize("fixture", ["motive_mixed.json", "motive_g2.json", "motive_kummer.json"])
def test_dual_witness_realizes_each_presentation_once(monkeypatch, fixture):
    """dual_witness holds the crystal of s while cartier_dual reads it, so s
    and its dual are realized once each."""
    with open(os.path.join(FX, fixture), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    counts = Counter()
    _count_calls(monkeypatch, counts, onemotive, "_realize")
    twisted, dual, perm = onemotive.dual_witness(spec)
    assert counts["_realize"] == 2
    c = conjugate_by_permutation(twisted, perm)
    assert (c.weights, c.f_rows) == (dual.weights, dual.f_rows)  # V may differ in its top digit


def test_divisor_entries_are_checked_once(monkeypatch):
    """divisor_from_doc checks the entries of the document's rows, and the
    presentation it builds checks only m and the shapes."""
    counts = Counter()
    for name in ("_ints", "_int_matrix"):
        _count_calls(monkeypatch, counts, simplicial, name)
    with open(os.path.join(FX, "divisor_m3.json"), encoding="utf-8") as fh:
        d = divisor_from_doc(json.load(fh))
    assert (counts["_ints"], counts["_int_matrix"]) == (1, 0)  # m
    assert d == simplicial.DivisorPresentation(d.m, d.pull0, d.pull1, d.ns_classes)
    assert counts["_int_matrix"] == 3  # the public constructor checks pull0, pull1 and ns_classes


def test_action_entries_are_checked_once(monkeypatch, tmp_path):
    """A motive document's lattice and torus actions have their entries
    checked by the document reader (bad-matrix), and the data built from
    them checks only the rank and the action, as crystal-twist's lattice
    kind does; the public constructor still checks the entries (bad-type)."""
    counts = Counter()
    for name in ("_ints", "_int_matrix"):
        _count_calls(monkeypatch, counts, blocks, name)
    with open(os.path.join(FX, "motive_kummer.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    assert (counts["_ints"], counts["_int_matrix"]) == (2, 0)  # the two ranks
    assert spec.lattice == LatticeData(1, ((1,),)) and spec.torus == TorusData(1, ((1,),))
    counts.clear()
    twist = tmp_path / "twist.json"
    twist.write_text(json.dumps({"kind": "lattice", "sigma": [[0, 1], [1, 0]]}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["crystal-twist", "--ring", os.path.join(FX, "ring_f5n4.json"), "--in", str(twist)]) == 0
    assert (counts["_ints"], counts["_int_matrix"]) == (1, 0)  # the rank
    counts.clear()
    _count_calls(monkeypatch, counts, fcrystals.witt, "_ints")  # the rows, through _int_matrix
    LatticeData(2, ((0, 1), (1, 0)))
    assert (counts["_ints"], counts["_int_matrix"]) == (3, 1)  # the rank and both rows


def test_action_takes_no_elimination(monkeypatch):
    """The inverse of a finite-order action is sigma^(k-1), left by the order
    search: constructing the data runs no Smith form."""
    calls = Counter()
    for name in ("smith_normal_form", "_eliminate"):
        _count_calls(monkeypatch, calls, fcrystals.intmat, name)
    d = LatticeData(3, ((0, 0, 1), (1, 0, 0), (0, -1, 0)))
    assert calls["smith_normal_form"] == calls["_eliminate"] == 0
    assert d.sigma_inverse == ((0, 1, 0), (0, 0, -1), (1, 0, 0))


INTMAT_CALLS = (
    "smith_normal_form", "_eliminate", "_forest", "mul", "_mul_units", "solve_exact", "inverse_unimodular",
    "kernel_basis", "elementary_divisors", "_rows", "_dense", "_columns",
)


def _cochar_calls(monkeypatch, path):
    """The output rank of one simplicial-cochar call on path, and its intmat
    calls by name."""
    calls = Counter()
    for name in INTMAT_CALLS:
        _count_calls(monkeypatch, calls, fcrystals.intmat, name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simplicial-cochar", "--in", str(path)])
    assert code == 0
    return json.loads(out.getvalue())["rank"], calls


def test_cocharacters_take_one_elimination(monkeypatch):
    """One simplicial-cochar call reads the kernel and the coordinates of
    Im d^1 off one elimination, and the lift off a spanning-forest replay of
    the second, since those coordinates are graph edges; no solve_exact or
    inverse_unimodular runs.  It takes the transforms as the elimination
    builds them, so the transposing wrapper smith_normal_form does not run.
    The one product is V^(-1) d^1, through intmat._mul_units, which copies
    the marked unit rows; the lift copies rows of V^T by the replay's
    indices.  The differentials are built as sparse rows, so no dense matrix
    is read in; the basis alone is written out dense, once."""
    rank, calls = _cochar_calls(monkeypatch, os.path.join(FX, "simplicial_nodal.json"))
    assert rank == 1
    assert dict(calls) == {"_eliminate": 1, "_forest": 1, "_mul_units": 1, "_dense": 1}


def test_empty_free_part_takes_one_product(monkeypatch, tmp_path):
    """An edge between two vertices: Ker d^2 is all of C^1 and Im d^1 fills
    it, so the Smith form, the product V^(-1) d^1 and the replay run, and
    the lift is skipped."""
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"counts": [2, 1, 0], "faces": {"1": [[0], [1]], "2": [[], [], []]}}))
    rank, calls = _cochar_calls(monkeypatch, path)
    assert rank == 0
    assert dict(calls) == {"_eliminate": 1, "_forest": 1, "_mul_units": 1}


def _record_builds(monkeypatch):
    """A list that records, from here on, the slots each intmat._eliminate
    call builds, in call order: transforms by the names of their keyword
    flags, and the unit-row marks as ve (with V^(-1))."""
    built = []
    original = fcrystals.intmat._eliminate

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        names = ("u", None, "v", "v_inv", "ve")  # the slots of (U, D, V^T, V^(-1), ve)
        assert len(result) == len(names)
        built.append({name for name, x in zip(names, result) if name and x is not None})
        return result

    monkeypatch.setattr(fcrystals.intmat, "_eliminate", recording)
    return built


def _recorded_builds(monkeypatch, argv):
    """The slots each intmat._eliminate call of one CLI call builds."""
    built = _record_builds(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return built


def test_cocharacters_build_only_the_transforms_they_read(monkeypatch):
    """The one elimination of a simplicial-cochar call, the kernel form,
    builds V^T and V^(-1) with its marks; the lift form is replayed, so no
    elimination builds U."""
    built = _recorded_builds(monkeypatch, ["simplicial-cochar", "--in", os.path.join(FX, "simplicial_nodal.json")])
    assert built == [{"v", "v_inv", "ve"}]


def test_rows_that_are_not_edges_take_the_lift_elimination(monkeypatch):
    """When a row of V^(-1) d^1 past the rank of d^2 is not a graph edge
    (here e_0, from an injected d^1 over counts (2, 3, 1)), the lift form is
    the elimination again, building U alone, and its diagonal is the
    summand check; U is inverted by inverse_unimodular, whose Smith form
    builds U and V, for the trailing columns of U^(-1)."""
    shell = simplicial.SimplicialComponents((2, 3, 1), ())
    monkeypatch.setattr(simplicial, "_coboundaries", lambda s: ([{}, {0: 1}, {}], [{0: 1}]))
    built = _record_builds(monkeypatch)
    assert simplicial.cocharacter_group(shell) == (1, [[0, 0, 1]])
    assert built == [{"v", "v_inv", "ve"}, {"u"}, {"u", "v"}]


def test_picard_skeleton_builds_no_div0_basis(monkeypatch, tmp_path):
    """picard-skeleton reads two ranks.  The torus rank is cocharacter_group's:
    its kernel form builds V^T, V^(-1) and its marks, the lift form is
    replayed with no elimination, and the basis is written out and dropped.
    The Div^0 rank is m minus the length of the diagonal of an elimination
    that builds nothing, run on the stacked relations built as sparse rows
    (ns_classes read through intmat._rows), also at m = 0.  No kernel_basis
    and no basis product runs."""
    ring = os.path.join(FX, "ring_f5n4.json")
    argv = ["picard-skeleton", "--ring", ring, "--in", os.path.join(FX, "picard_input.json")]  # m = 0
    assert _recorded_builds(monkeypatch, argv) == [set(), {"v", "v_inv", "ve"}]
    monkeypatch.undo()
    with open(os.path.join(FX, "picard_input.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(os.path.join(FX, "divisor_m3.json"), encoding="utf-8") as fh:
        doc["divisor"] = json.load(fh)
    path = tmp_path / "picard_m3.json"
    path.write_text(json.dumps(doc))
    argv = ["picard-skeleton", "--ring", ring, "--in", str(path)]
    assert _recorded_builds(monkeypatch, argv) == [set(), {"v", "v_inv", "ve"}]
    monkeypatch.undo()
    calls = Counter()
    for name in INTMAT_CALLS:
        _count_calls(monkeypatch, calls, fcrystals.intmat, name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert dict(calls) == {"_rows": 1, "_eliminate": 2, "_forest": 1, "_mul_units": 1, "_dense": 1}


def test_tampered_document_keeps_its_item_5_detail(monkeypatch):
    code, _, out = _counted_run(monkeypatch, ["motive-verify", "--in", os.path.join(FX, "motive_badflag.json")])
    assert code == 1
    items = {i["item"]: (i["ok"], i["detail"]) for i in json.loads(out)["items"]}
    assert items["5"] == (False, "perfect pairing against the assembled dual")


def _moved_v(module):
    """The module with its V entry (0, 0) moved to (0, 1)."""
    v = [list(row) for row in module.v_mat]
    v[0][0], v[0][1] = v[0][1], v[0][0]
    return FilteredFModule(
        module.params, module.rank, module.weights, module.f_mat, tuple(map(tuple, v)), module.level
    )


@pytest.fixture
def broken_realization(monkeypatch):
    realize = onemotive._realize
    monkeypatch.setattr(onemotive, "_realize", lambda s: _moved_v(realize(s)))


def test_failed_self_check_raises_internal_error(broken_realization):
    with pytest.raises(InternalError, match="assembled module failed verification"):
        assemble(_kummer())


def test_failed_self_check_exits_4(broken_realization, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["motive-assemble", "--in", os.path.join(FX, "motive_kummer.json"), "--out", str(tmp_path / "o.json")])
    assert code == 4
    assert err.getvalue().count("\n") == 1
    assert json.loads(err.getvalue())["code"] == "internal-error"


def test_self_check_survives_python_O(tmp_path):
    script = textwrap.dedent(
        """
        import sys
        from fcrystals import cli, onemotive
        from test_one_pass import _moved_v

        if not sys.flags.optimize:
            sys.exit(99)
        realize = onemotive._realize
        onemotive._realize = lambda s: _moved_v(realize(s))
        sys.exit(cli.main(sys.argv[1:]))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")])))
    argv = ["motive-assemble", "--in", os.path.join(FX, "motive_kummer.json"), "--out", str(tmp_path / "o.json")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stderr)["code"] == "internal-error"
