"""The motive pipeline computes each derived object of a presentation once:
one realization per presentation, one verify report per module, one
canonical dual per assembled module, one action inverse per lattice, read
off one Smith normal form, and one matrix product per pairing identity.
And an internal invariant that fails raises InternalError, also under
python -O."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import fcrystals.intmat
import fcrystals.onemotive as onemotive
import fcrystals.semilinear as semilinear
from fcrystals.blocks import AbelianBlock, LatticeData, TorusData
from fcrystals.cli import main
from fcrystals.errors import InternalError
from fcrystals.onemotive import OneMotiveSpec, assemble, cartier_dual, pair
from fcrystals.semilinear import FilteredFModule
from fcrystals.serialize import motive_from_doc
from fcrystals.witt import RingParams

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
    for name in ("_realize", "verify", "twisted_dual"):
        _count_calls(monkeypatch, counts, onemotive, name)
    _count_calls(monkeypatch, counts, fcrystals.intmat, "inverse_unimodular")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, counts, out.getvalue()


@pytest.mark.parametrize(
    "fixture,expected",
    [
        ("motive_mixed.json", {"_realize": 2, "verify": 2, "twisted_dual": 2, "inverse_unimodular": 4}),
        ("motive_kummer.json", {"_realize": 2, "twisted_dual": 1}),
        ("motive_badflag.json", {"_realize": 2}),
    ],
)
def test_motive_verify_work_counts(monkeypatch, fixture, expected):
    _, counts, _ = _counted_run(monkeypatch, ["motive-verify", "--in", os.path.join(FX, fixture)])
    assert {name: counts[name] for name in expected} == expected


def test_pair_is_two_products(monkeypatch):
    with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
        spec = motive_from_doc(json.load(fh))
    m, d = assemble(spec), assemble(cartier_dual(spec))
    counts = Counter()
    for module in (onemotive, semilinear):
        _count_calls(monkeypatch, counts, module, "wm_mul")
    _count_calls(monkeypatch, counts, semilinear, "charpoly")
    assert pair(m, d).ok
    assert (counts["wm_mul"], counts["charpoly"]) == (2, 0)


def test_assemble_is_kept_on_the_spec():
    s = _kummer()
    mc = assemble(s)
    assert assemble(s) is mc
    assert mc.report is mc.report
    assert mc.canonical_dual is mc.canonical_dual


def test_action_is_eliminated_once(monkeypatch):
    calls = Counter()
    original = fcrystals.intmat.smith_normal_form

    def counting(a):
        calls["smith_normal_form"] += 1
        return original(a)

    monkeypatch.setattr(fcrystals.intmat, "smith_normal_form", counting)
    d = LatticeData(3, ((0, 0, 1), (1, 0, 0), (0, -1, 0)))
    assert calls["smith_normal_form"] == 1
    assert d.sigma_inverse == ((0, 1, 0), (0, 0, -1), (1, 0, 0))


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
