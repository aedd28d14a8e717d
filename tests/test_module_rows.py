"""A FilteredFModule stores F and V as coordinate rows (lists of lists of
coordinate tuples); f_mat and v_mat are boxed views built on first read.
The two constructors (public on WMats, private on rows) give equal modules,
every kernel hands back rows of the one row type, and a motive-verify run
reads rows only."""

import contextlib
import copy
import dataclasses
import io
import os
import pickle
import random
from collections import Counter

import pytest

import fcrystals.semilinear as semilinear
from fcrystals import intmat
from fcrystals.blocks import LatticeData, abelian_from_ap, lattice_block, tate, torus_block
from fcrystals.cli import main
from fcrystals.errors import IncompatibleRingsError, MalformedInputError, ShapeError
from fcrystals.onemotive import assemble
from fcrystals.semilinear import (
    FilteredFModule,
    conjugate_by_permutation,
    direct_sum,
    tensor,
    twisted_dual,
)
from fcrystals.serialize import module_from_doc, module_to_doc
from fcrystals.witt import RingParams, WittElem, default_modulus, with_precision
from helpers import random_galois_motive_spec, random_motive_spec, random_signed_permutation, wmat

FX = os.path.join(os.path.dirname(__file__), "fixtures")
P54 = RingParams(5, 4)


def _assembled():
    """Assembled modules (built on rows) at a = 1 and a = 2."""
    rings = [RingParams(p, 6) for p in (2, 5)] + [RingParams(3, 5, 2, default_modulus(3, 2))]
    for params in rings:
        for seed in range(8):
            rng = random.Random(seed)
            s = random_galois_motive_spec(rng, params) if params.a > 1 else random_motive_spec(rng, params)
            yield assemble(s).module


def _boxed(m: FilteredFModule) -> FilteredFModule:
    return FilteredFModule(m.params, m.rank, m.weights, m.f_mat, m.v_mat, m.level)


def _is_rows(rows, a: int) -> bool:
    return type(rows) is list and all(
        type(row) is list and all(type(x) is tuple and len(x) == a and all(type(c) is int for c in x) for x in row)
        for row in rows
    )


def test_rows_and_boxed_constructors_agree():
    for m in _assembled():
        b = _boxed(m)
        assert b == m and hash(b) == hash(m)
        assert b.f_rows == m.f_rows and b.v_rows == m.v_rows
        if m.rank:
            moved = [list(row) for row in m.f_rows]
            moved[0][0] = tuple((c + 1) % m.params.pn for c in moved[0][0])
            other = FilteredFModule._of_rows(m.params, m.rank, m.weights, moved, m.v_rows, m.level)
            assert other != m and other.f_mat[0][0] != m.f_mat[0][0]


def test_every_kernel_returns_the_one_row_type():
    """Rows are lists of lists of tuples wherever they come from, so rows of
    one source compare equal to rows of another (a tuple of rows never
    equals a list of rows)."""
    params = RingParams(3, 5, 2, default_modulus(3, 2))
    for m in _assembled():
        a = m.params.a
        perm = list(range(m.rank))[::-1]
        made = [m, _boxed(m), twisted_dual(m), conjugate_by_permutation(m, perm), module_from_doc(module_to_doc(m))]
        made += [tensor(m, tate(1, m.params)), direct_sum(m, tate(0, m.params))]
        for x in made:
            assert _is_rows(x.f_rows, a) and _is_rows(x.v_rows, a)
    rng = random.Random(3)
    for q in (P54, params):
        action = random_signed_permutation(rng, 3)
        for x in (lattice_block(LatticeData(3, action), q), torus_block(LatticeData(3, action), q), tate(2, q)):
            assert _is_rows(x.f_rows, q.a) and _is_rows(x.v_rows, q.a)
    assert _is_rows(abelian_from_ap(1, P54).crystal.f_rows, 1)


def test_replace_reads_the_views():
    m = next(m for m in _assembled() if m.rank)
    assert dataclasses.replace(m) == m
    r = dataclasses.replace(m, level=2)
    assert r.level == 2 and r.f_rows == m.f_rows and r.v_rows == m.v_rows and r != m
    no_v = dataclasses.replace(m, v_mat=None)
    assert no_v.v_rows is None and no_v.v_mat is None and no_v.f_rows == m.f_rows


def test_views_are_built_once(monkeypatch):
    calls = Counter()
    box = semilinear._box

    def counting(params, rows):
        calls["_box"] += 1
        return box(params, rows)

    monkeypatch.setattr(semilinear, "_box", counting)
    m = lattice_block(LatticeData.trivial(2), P54)
    assert calls["_box"] == 0
    f = m.f_mat
    assert m.f_mat is f and calls["_box"] == 1
    assert f == ((P54.from_int(5), P54.zero()), (P54.zero(), P54.from_int(5)))
    assert m.v_mat is m.v_mat and calls["_box"] == 2
    b = _boxed(m)
    assert b.f_mat is f and calls["_box"] == 2  # a module built from WMats keeps them


@pytest.mark.parametrize("fixture", ["motive_mixed.json", "motive_g2.json", "motive_g2_tampered.json"])
def test_motive_verify_boxes_no_view(monkeypatch, fixture):
    read = []
    original = FilteredFModule.__getattr__

    def recording(self, name):
        read.append(name)
        return original(self, name)

    monkeypatch.setattr(FilteredFModule, "__getattr__", recording)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["motive-verify", "--in", os.path.join(FX, fixture)])
    assert code == (1 if "tampered" in fixture else 0)
    assert [name for name in read if name in ("f_mat", "v_mat")] == []


def test_foreign_entry_is_raised_on_construction():
    """The ring check runs once, on construction, so no module holds an entry
    from another ring and no kernel checks again."""
    m = tate(1, P54)
    alien = WittElem(with_precision(P54, 5), (1,))
    for f, v in (((alien,),), m.v_mat), (m.f_mat, ((alien,),)):
        for level in (1, -1):
            with pytest.raises(IncompatibleRingsError, match="^matrix entry from a different ring$"):
                FilteredFModule(P54, 1, (-2,), f, v, level)


def test_non_element_entry_is_bad_element():
    with pytest.raises(MalformedInputError) as exc:
        FilteredFModule(P54, 1, (0,), ((5,),), None, 1)
    assert exc.value.code == "bad-element"


@pytest.mark.parametrize("f,v", [(None, None), (5, None), ((5,), None), ("F", None), (((P54.one(),),), 7)])
def test_non_matrix_is_bad_matrix(f, v):
    """A matrix that is not a sequence of rows is refused before its shape is read."""
    with pytest.raises(MalformedInputError) as exc:
        FilteredFModule(P54, 1, (0,), f, v, 1)
    assert exc.value.code == "bad-matrix"


@pytest.mark.parametrize("rank,weights,level", [(1, 5, 1), (1, (True,), 1), (1.0, (0,), 1), (1, (0,), None)])
def test_rank_weights_and_level_are_strict_ints(rank, weights, level):
    with pytest.raises(MalformedInputError) as exc:
        FilteredFModule(P54, rank, weights, ((P54.one(),),), None, level)
    assert exc.value.code == "bad-type"


@pytest.mark.parametrize("which", ["F", "V"])
@pytest.mark.parametrize("width", [1, 3])
def test_ragged_matrix_is_a_shape_error(which, width):
    """Every row's width is checked, not only row 0's."""
    o, i2 = P54.one(), wmat(P54, intmat.identity(2))
    ragged = ((o, o), (o,) * width)
    f, v = (ragged, i2) if which == "F" else (i2, ragged)
    with pytest.raises(ShapeError, match=f"^{which} matrix must be rank x rank$"):
        FilteredFModule(P54, 2, (0, 0), f, v, 1)


def test_viewed_module_survives_copy_and_pickle():
    """A module whose boxed views have been read holds WittElem entries; copy,
    deepcopy and a pickle round-trip rebuild them as equal elements."""
    for m in {m.params.a: m for m in _assembled() if m.rank}.values():  # one at a = 1, one at a = 2
        assert m.f_mat and m.v_mat  # build the views
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m)
            assert twin.f_mat == m.f_mat and twin.v_mat == m.v_mat and twin.f_rows == m.f_rows
