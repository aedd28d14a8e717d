"""The bounded tables of fcrystals.blocks: the inverse of an action
(_validated_action), the lattice and torus blocks of a datum over a ring
(lattice_block, torus_block) and the checked block of a caller's weight -1
module (_caller_abelian, behind AbelianBlock.from_module), with what a block
keeps on itself (its exact lift and its twisted dual).

Outputs do not depend on what the tables hold: the CLI bytes with every
table emptied before each document equal the bytes of a warm process.  A
failing piece is not kept, so it raises the same error on every call; no
table grows past its bound; and no run writes a row a table holds."""

import contextlib
import copy
import inspect
import io
import json
import os
import random
import sys

import pytest

import fcrystals.blocks as blocks
from fcrystals import serialize as ser
from fcrystals.blocks import AbelianBlock, LatticeData, lattice_block, tate, torus_block
from fcrystals.cli import main
from fcrystals.errors import FCrystalsError
from fcrystals.onemotive import assemble
from fcrystals.semilinear import FilteredFModule
from fcrystals.witt import RingParams, default_modulus
from helpers import (
    clear_caches,
    cube_root_block,
    failing_first_check,
    random_galois_motive_spec,
    random_motive_spec,
    wmat,
)

FX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
P54 = RingParams(5, 4)
TABLES = (blocks._validated_action, blocks.lattice_block, blocks.torus_block, blocks._caller_abelian)
VERBS = ("motive-verify", "motive-assemble", "motive-dual", "motive-pair")


def _tampered(rng: random.Random, spec) -> dict:
    """The document of spec with its assembled module, one F entry on or
    above the diagonal moved by a unit times p^v, v <= n - 2."""
    doc = ser.motive_to_doc(spec)
    module = ser.module_to_doc(assemble(spec).module)
    r, params = module["rank"], spec.params
    if r:
        i = rng.randrange(r)
        j = rng.randrange(i, r)
        entry = module["F"][i][j]
        entry[0] = (entry[0] + rng.randrange(1, params.p) * params.p ** rng.randrange(params.n - 1)) % params.pn
    doc["module"] = module
    return doc


def _documents(tmp_path) -> list[str]:
    """Random presentations over a = 1 and a > 1 rings, tampered modules and
    the motive fixtures, written as files; the random ones are small, so
    actions and abelian blocks recur among them."""
    rng = random.Random(29)
    f4 = RingParams(2, 5, 2, default_modulus(2, 2))
    f25 = RingParams(5, 5, 2, default_modulus(5, 2))
    specs = [random_motive_spec(rng, RingParams(5, 6), max_x=2, max_t=2, label=f"r{i}") for i in range(10)]
    specs += [random_motive_spec(rng, RingParams(3, 5), max_x=2, max_t=2, label="") for _ in range(4)]
    specs += [random_galois_motive_spec(rng, f25) for _ in range(4)]
    specs += [random_galois_motive_spec(rng, f4, block=cube_root_block) for _ in range(4)]
    docs = [ser.motive_to_doc(s) for s in specs] + [_tampered(rng, s) for s in specs[:12:2]]
    paths = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"doc{k:02d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    fixtures = ("motive_mixed.json", "motive_g2.json", "motive_g2_tampered.json", "motive_kummer.json")
    return paths + [os.path.join(FX, name) for name in fixtures + ("motive_badflag.json",)]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cold_and_warm_outputs_are_byte_identical(tmp_path):
    """Every motive verb on every document, once with every table emptied
    before each call and twice in a warm process, gives the same exit code,
    stdout and stderr; a batch motive-verify over all documents matches too."""
    paths = _documents(tmp_path)
    calls = [[verb, "--in", path] for path in paths for verb in VERBS]
    cold = []
    for argv in calls:
        clear_caches()
        cold.append(_run(argv))
    clear_caches()
    first = [_run(argv) for argv in calls]
    assert blocks._caller_abelian.cache_info().hits > 0 and blocks._validated_action.cache_info().hits > 0
    assert first == cold
    assert [_run(argv) for argv in calls] == cold
    batch = ["motive-verify"] + [arg for path in paths for arg in ("--in", path)]
    warm = _run(batch)
    clear_caches()
    assert _run(batch) == warm
    assert {code for code, _, _ in cold} == {0, 1}  # the tampered documents fail, the others pass


def _error(make) -> tuple[str, str, str]:
    with pytest.raises(FCrystalsError) as exc:
        make()
    return type(exc.value).__name__, exc.value.code, str(exc.value)


def test_a_bad_action_is_not_kept():
    """A non-unimodular action and one of infinite order raise the same error
    on the first and the second call, and leave no entry."""
    for action in (((2, 0), (0, 1)), ((1, 1), (0, 1))):
        first = _error(lambda: LatticeData(2, action))
        assert _error(lambda: LatticeData(2, action)) == first
        assert _error(lambda: LatticeData._of_rows(2, action)) == first
    assert blocks._validated_action.cache_info().currsize == 0


def test_a_block_that_does_not_lift_is_not_kept():
    """F = diag(u, p u), V = diag(p/u, 1/u) passes the block checks, so its
    block is kept, but its exact lift fails on every read, through the
    assembly as well."""
    params, u = P54, 2
    uinv = pow(u, -1, params.pn)
    module = FilteredFModule(
        params, 2, (-1, -1), wmat(params, [[u, 0], [0, 5 * u]]), wmat(params, [[5 * uinv, 0], [0, uinv]]), 1
    )
    block = AbelianBlock.from_module(module)
    first = _error(lambda: block._sigma_v_lift)
    assert first[:2] == ("UnsupportedInputError", "unsupported-input") and "does not lift exactly" in first[2]
    assert _error(lambda: block._sigma_v_lift) == first
    assert "_sigma_v_lift" not in block.__dict__
    doc = {"ring": {"p": 5, "n": 4}, "lattice": {"rank": 1}, "torus": {"rank": 1}}
    doc["abelian"] = {"crystal": ser.module_to_doc(module)}
    spec = ser.motive_from_doc(doc)
    assert spec.abelian is block
    assert _error(lambda: assemble(spec)) == first
    assert _error(lambda: assemble(ser.motive_from_doc(doc))) == first


def test_a_failing_abelian_check_is_not_kept(monkeypatch):
    """A module that fails a check of _checked_abelian raises the same error
    on every call: odd rank, and a failed verify."""
    odd = tate(1, P54)
    first = _error(lambda: AbelianBlock.from_module(odd))
    assert first == ("UnsupportedInputError", "unsupported-input", "abelian block must have even rank 2g")
    assert _error(lambda: AbelianBlock.from_module(odd)) == first
    good = blocks.abelian_from_ap(1, P54).crystal
    monkeypatch.setattr(blocks, "verify", failing_first_check(blocks.verify))
    first = _error(lambda: AbelianBlock.from_module(good))
    assert first[0] == "UnsupportedInputError" and first[2].startswith("abelian block fails verification")
    assert _error(lambda: AbelianBlock.from_module(good)) == first
    assert blocks._caller_abelian.cache_info().currsize == 0


def _conjugate(params: RingParams, k: int) -> FilteredFModule:
    """The companion block of a_p = 1 conjugated by [[1, k], [0, 1]]: it
    passes every block check, and each k gives another module."""
    p = params.p
    f, v = [[0, -p], [1, 1]], [[1, p], [-1, 0]]

    def conj(m):  # g m g^(-1), g = [[1, k], [0, 1]]
        (a, b), (c, d) = m
        return [[a + k * c, b + k * d - k * (a + k * c)], [c, d - k * c]]

    return FilteredFModule(params, 2, (-1, -1), wmat(params, conj(f)), wmat(params, conj(v)), 1)


def test_no_table_grows_past_its_bound():
    """Each of the four tables, fed more distinct keys than it holds, keeps
    exactly its maxsize; every table of the package is bounded by 256 (the
    argument-less CLI parser holds one entry)."""
    datas = [LatticeData(2, ((1, k), (0, -1))) for k in range(300)]  # order 2 for every k
    for d in datas:
        lattice_block(d, P54)
        torus_block(d, P54)
    for k in range(80):
        AbelianBlock.from_module(_conjugate(P54, k))
    for table in TABLES:
        info = table.cache_info()
        assert info.maxsize <= 256 and info.currsize == info.maxsize, table
    for name, module in list(sys.modules.items()):
        if name == "fcrystals" or name.startswith("fcrystals."):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    bound = value.cache_info().maxsize
                    assert (bound is not None and bound <= 256) or not inspect.signature(value).parameters, value


def _rows_held(doc: dict) -> dict[str, object]:
    """The rows the tables hold for the presentation of doc: the inverses of
    its actions (when it states them), its graded blocks and its dual's,
    and, for an abelian block given as a module, the block's rows with the
    lift and the dual it keeps."""
    spec = ser.motive_from_doc(doc)
    params, ab = spec.params, spec.abelian
    held = {}
    for part, data in (("lattice", spec.lattice), ("torus", spec.torus)):
        if doc[part].get("sigma") is not None:
            held[part] = data.sigma_inverse
    for what, block in (
        ("lattice_block", lattice_block(spec.lattice, params)),
        ("torus_block", torus_block(spec.torus, params)),
        ("dual lattice_block", lattice_block(spec.torus.dual(), params)),
        ("dual torus_block", torus_block(spec.lattice.dual(), params)),
    ):
        held[what] = (block.f_rows, block.v_rows)
    if "crystal" in (doc.get("abelian") or {}):
        held["abelian"] = (ab.crystal.f_rows, ab.crystal.v_rows)
        held["lift"], held["dual"] = ab._sigma_v_lift, (ab._dual.crystal.f_rows, ab._dual.crystal.v_rows)
        held["dual lift"] = ab._dual._sigma_v_lift
    return held


def test_held_rows_are_not_written(tmp_path):
    """After a warm motive-verify batch, every row the tables hold (and every
    lift and dual a held block keeps) is read back and copied; after a
    second batch and the other motive verbs it equals its copy, and the
    tables still hand out the same objects."""
    paths = [p for p in _documents(tmp_path) if "badflag" not in p]
    batch = ["motive-verify"] + [arg for path in paths for arg in ("--in", path)]
    _run(batch)
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    held = [_rows_held(doc) for doc in docs]
    snapshot = copy.deepcopy(held)
    _run(batch)
    for path in paths:
        for verb in VERBS[1:]:
            _run([verb, "--in", path])
    assert held == snapshot
    for doc, before in zip(docs, held):
        now = _rows_held(doc)
        assert now.keys() == before.keys()
        for key, rows in now.items():
            same = rows is before[key] if key in ("lattice", "torus", "lift", "dual lift") else all(
                x is y for x, y in zip(rows, before[key])
            )
            assert same, key
