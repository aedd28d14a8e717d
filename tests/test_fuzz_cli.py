"""Fuzz over the fixture documents of every verb: the CLI's error contract
holds for any edit of a valid document.

Each example takes the input document of one golden CLI call and applies one
to three mutations: drop a key or an array element, swap a value for one of
another JSON type, make an array ragged, or put a small int (possibly out of
range for its field) in place of an int.  Whatever the result, the call ends
with an exit code in {0, ..., 3} (4 would be a bug in fcrystals); on exit 0
stderr is empty, otherwise it holds exactly one JSON error object.

Ints are drawn small on purpose: a large rank or genus is a valid request
whose answer simply takes long to compute.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcrystals.cli import main

from test_cli import FX, GOLDEN_CASES

OTHER_TYPES = [None, True, False, 0.5, "x", "", [], {}, [1], [[1]], {"k": 1}]
SMALL_INTS = st.integers(min_value=-2, max_value=9)


def _paths(doc, prefix=()):
    """Every (container path, key) pair of doc, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = _at(doc, path)
        value = parent[key]
        kind = draw(st.sampled_from(["drop", "swap", "ragged", "int"]))
        if kind == "drop":
            del parent[key]
        elif kind == "swap":
            parent[key] = json.loads(json.dumps(draw(st.sampled_from(OTHER_TYPES))))
        elif kind == "ragged" and isinstance(value, list):
            if value and draw(st.booleans()):
                del value[draw(st.integers(0, len(value) - 1))]
            else:
                value.append(json.loads(json.dumps(value[0])) if value else draw(SMALL_INTS))
        else:
            parent[key] = draw(SMALL_INTS)
    return doc


def _input_doc(argv):
    i = argv.index("--in") + 1
    with open(os.path.join(FX, argv[i]), encoding="utf-8") as fh:
        return i, json.load(fh)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_CASES], ids=[g for g, _ in GOLDEN_CASES])
def test_error_contract_under_mutation(argv, workdir):
    i, base = _input_doc(argv)
    doc_path, out_path = workdir / "doc.json", workdir / "out.json"
    fixed = [os.path.join(FX, tok) if tok.endswith(".json") else tok for tok in argv]

    @settings(
        max_examples=20,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated(base))
    def check(doc):
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        call = fixed[:i] + [str(doc_path)] + fixed[i + 1 :] + ["--out", str(out_path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(call)
        text = err.getvalue()
        assert code in (0, 1, 2, 3), text
        if code == 0:
            assert text == ""
        else:
            assert text.count("\n") == 1 and text.endswith("\n"), text
            obj = json.loads(text)
            assert isinstance(obj, dict) and isinstance(obj.get("code"), str) and isinstance(obj.get("message"), str)

    check()
