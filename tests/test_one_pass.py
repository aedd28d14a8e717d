"""The motive pipeline computes each derived object of a presentation once:
one realization, one set of graded blocks and one F per presentation (the
dual's F is its canonical dual's), one verify report per module, one
canonical dual per assembled module, no characteristic polynomial for a
graded block that matches its lattice or torus block, one action inverse
per lattice, read off its order search with no Smith normal form (the dual
presentation's actions reuse it), two Smith forms and one product per
cocharacter group (each form building only the transforms it reads), and
one matrix product per pairing identity.  And an internal invariant that
fails raises InternalError, also under python -O."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

import fcrystals.intmat
import fcrystals.witt
import fcrystals.onemotive as onemotive
import fcrystals.semilinear as semilinear
import fcrystals.simplicial as simplicial
from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, abelian_from_ap, torus_block
from fcrystals.cli import main
from fcrystals.errors import InternalError
from fcrystals.onemotive import OneMotiveSpec, assemble, cartier_dual, pair
from fcrystals.semilinear import FilteredFModule
from fcrystals.serialize import motive_from_doc
from fcrystals.witt import RingParams, default_modulus
from helpers import mat_scale, slope_half_block

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
    for name in ("_realize", "verify", "twisted_dual", "_charpoly", "_block"):
        _count_calls(monkeypatch, counts, onemotive, name)
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
            {"_realize": 2, "verify": 2, "twisted_dual": 2, "inverse_unimodular": 0, "_charpoly": 0, "_block": 3},
        ),
        ("motive_kummer.json", {"_realize": 2, "twisted_dual": 1}),
        ("motive_badflag.json", {"_realize": 2}),
    ],
)
def test_motive_verify_work_counts(monkeypatch, fixture, expected):
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


def test_default_abelian_builds_its_companion_block_once(monkeypatch):
    """The default abelian block of dimension g is g copies of one companion
    block, built once (it was built g times, each with a slope and a verify
    pass); the sum is the same module."""
    counts = Counter()
    _count_calls(monkeypatch, counts, simplicial, "abelian_from_ap")
    block = simplicial._default_abelian(3, P54)
    assert counts["abelian_from_ap"] == 1
    one = abelian_from_ap(0, P54)
    assert block == one + one + one and block.dim == 3


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


def test_pair_is_two_products(monkeypatch):
    with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    m, d = assemble(spec), assemble(cartier_dual(spec))
    counts = Counter()
    for module in (onemotive, semilinear):
        _count_calls(monkeypatch, counts, module, "_mul")
    for name in ("charpoly", "_charpoly"):
        _count_calls(monkeypatch, counts, semilinear, name)
    assert pair(m, d).ok
    assert (counts["_mul"], counts["charpoly"], counts["_charpoly"]) == (2, 0, 0)


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


def test_action_takes_no_elimination(monkeypatch):
    """The inverse of a finite-order action is sigma^(k-1), left by the order
    search: constructing the data runs no Smith form."""
    calls = Counter()
    for name in ("smith_normal_form", "_eliminate"):
        _count_calls(monkeypatch, calls, fcrystals.intmat, name)
    d = LatticeData(3, ((0, 0, 1), (1, 0, 0), (0, -1, 0)))
    assert calls["smith_normal_form"] == calls["_eliminate"] == 0
    assert d.sigma_inverse == ((0, 1, 0), (0, 0, -1), (1, 0, 0))


def _cochar_calls(monkeypatch, path):
    """The output rank of one simplicial-cochar call on path, and its intmat
    calls by name."""
    calls = Counter()
    for name in ("smith_normal_form", "_eliminate", "mul", "solve_exact", "inverse_unimodular"):
        _count_calls(monkeypatch, calls, fcrystals.intmat, name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simplicial-cochar", "--in", str(path)])
    assert code == 0
    return json.loads(out.getvalue())["rank"], calls


def test_cocharacters_take_two_eliminations(monkeypatch):
    """One simplicial-cochar call reads the kernel, the coordinates of Im d^1
    and the lift off two eliminations, and its summand check off the second
    one's diagonal; no solve_exact or inverse_unimodular runs.  It takes the
    transforms as the elimination builds them, so the transposing wrapper
    smith_normal_form does not run.  The two products are V^(-1) d^1 and the
    lift, both through intmat.mul."""
    rank, calls = _cochar_calls(monkeypatch, os.path.join(FX, "simplicial_nodal.json"))
    assert rank == 1
    assert dict(calls) == {"_eliminate": 2, "mul": 2}


def test_empty_free_part_takes_one_product(monkeypatch, tmp_path):
    """An edge between two vertices: Ker d^2 is all of C^1 and Im d^1 fills
    it, so both Smith forms and the product V^(-1) d^1 run, and the lift is
    skipped."""
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"counts": [2, 1, 0], "faces": {"1": [[0], [1]], "2": [[], [], []]}}))
    rank, calls = _cochar_calls(monkeypatch, path)
    assert rank == 0
    assert dict(calls) == {"_eliminate": 2, "mul": 1}


def test_cocharacters_build_only_the_transforms_they_read(monkeypatch):
    """Of the two eliminations of one simplicial-cochar call, the kernel form
    builds V^T and V^(-1), and the lift form (U^(-1))^T alone; the summand
    check reads the lift form's diagonal."""
    built = []
    original = fcrystals.intmat._eliminate

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        names = ("u", None, "v", "u_inv", "v_inv")  # the slots of (U, D, V^T, (U^(-1))^T, V^(-1))
        built.append({name for name, x in zip(names, result) if name and x is not None})
        return result

    monkeypatch.setattr(fcrystals.intmat, "_eliminate", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["simplicial-cochar", "--in", os.path.join(FX, "simplicial_nodal.json")])
    assert code == 0
    assert built == [{"v", "v_inv"}, {"u_inv"}]


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
