"""The one-pass matrix document parse agrees with the entry-by-entry parse
(`helpers.wmat_from_doc_oracle`): the same entries over the same ring object
on valid documents, the same error type, code and message on bad ones."""

import random

import pytest

from fcrystals.errors import FCrystalsError
from fcrystals.serialize import wmat_from_doc
from fcrystals.witt import RingParams, default_modulus

from helpers import wmat_from_doc_oracle

RINGS = {
    1: RingParams(5, 3),
    2: RingParams(3, 2, 2, default_modulus(3, 2)),
    3: RingParams(2, 4, 3, default_modulus(2, 3)),
}


def _outcome(parse, doc, params):
    try:
        return "ok", parse(doc, params)
    except FCrystalsError as exc:
        return "error", (type(exc), exc.code, str(exc))


def _random_entry(rng, params):
    big = 3 * params.pn
    if rng.random() < 0.2:
        return rng.randint(-big, big)
    return [rng.randint(-big, big) for _ in range(params.a)]


@pytest.mark.parametrize("a", sorted(RINGS))
def test_random_documents_agree(a):
    params = RINGS[a]
    rng = random.Random(a)
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        doc = [[_random_entry(rng, params) for _ in range(cols)] for _ in range(rows)]
        got = wmat_from_doc(doc, params)
        assert got == wmat_from_doc_oracle(doc, params)
        assert all(x.params is params for row in got for x in row)
        assert [len(row) for row in got] == [cols] * rows


def _bad_documents(a):
    """(name, document, expected error code or None) at residue degree a."""
    good = list(range(1, a + 1))
    return [
        ("bool-entry", [[good, True]], "bad-element"),
        ("float-entry", [[1.5]], "bad-element"),
        ("string-entry", [["1"]], "bad-element"),
        ("bool-coordinate", [[[True] + good[1:]]], "bad-element"),
        ("float-coordinate", [[good[:-1] + [2.0]]], "bad-element"),
        ("short-list", [[good[:-1]]], "bad-element"),
        ("long-list", [[good + [0]]], "bad-element"),
        ("long-list-with-float", [[good + [0.5]]], "bad-element"),
        ("bare-int", [[7, good]], None),
        ("nested-list", [[[good]]], "bad-element"),
        ("nested-coordinate", [[good[:-1] + [[1]]]], "bad-element"),
        ("non-list-row", [[good], 5], "bad-matrix"),
        ("non-list-document", {"F": [[good]]}, "bad-matrix"),
        ("ragged", [[good, good], [good]], "shape-error"),
        ("ragged-first-row-empty", [[], [good]], "shape-error"),
        ("ragged-then-bad-entry", [[good, good], [good], [good, 0.5]], "bad-element"),
        ("empty", [], None),
        ("empty-rows", [[], []], None),
    ]


@pytest.mark.parametrize("a", sorted(RINGS))
def test_bad_documents_fail_alike(a):
    params = RINGS[a]
    for name, doc, code in _bad_documents(a):
        got = _outcome(wmat_from_doc, doc, params)
        assert got == _outcome(wmat_from_doc_oracle, doc, params), name
        assert got[0] == ("ok" if code is None else "error"), name
        if code is not None:
            assert got[1][1] == code, name
    bare = wmat_from_doc([[-1]], params)[0][0]
    assert bare.coords == (params.pn - 1,) + (0,) * (a - 1) and bare.params is params
