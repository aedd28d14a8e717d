"""The CLI front end around the handlers: the plain argv reader against the
argument parser, the binary document read against a text-mode read
(`helpers.load_oracle`), and the reused canonical encoder against
json.dumps."""

import contextlib
import io
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcrystals.cli import _HANDLERS, _load, _parser, _plain_args, main
from fcrystals.errors import MalformedInputError
from fcrystals.serialize import canonical_dumps

from helpers import load_oracle
from test_cli import GOLD, GOLDEN_CASES, _with_paths

VERBS = sorted(_HANDLERS)
OPTIONS = ["--ring", "--in", "--out", "--precision", "--n"]
# abbreviations, joined values, help, the end-of-options marker and unknown options
OTHER_OPTIONS = ["--r", "--ri", "--i", "--o", "--ou", "--p", "--prec", "--in=x.json", "--ring=r.json", "--n=2", "-h", "--help", "--", "-n", "--x"]
# values: int spellings int() reads (' 7', Arabic-Indic three, underscores),
# spellings it does not, the empty string and file names; then dash-led ones
PLAIN_VALUES = ["7", "0", " 7", "٣", "1_0", "+5", "1.5", "x", "", "a.json", "dir/b c.json", "=", "crystal-verify"]
VALUES = PLAIN_VALUES + ["-3", "-1e3", "-", "-x.json", "--x.json"]
TOKENS = VERBS[:4] + ["no-such-verb"] + OPTIONS + OTHER_OPTIONS + VALUES


def _parse(argv):
    """What the parser makes of argv: its namespace, its exit status (-h), or
    its error message."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _parser().parse_args(argv)
        except SystemExit as exc:
            return ("exit", exc.code)
        except MalformedInputError as exc:
            assert exc.code == "bad-argv"
            return ("error", str(exc))


def _argv(verb, pairs, edit):
    """A plain argv (the verb at position verb[1] among the option-value
    pairs) with one edit: a token replaced, a token inserted, or the argv cut
    short."""
    items = [list(pair) for pair in pairs]
    items.insert(verb[1] % (len(items) + 1), [verb[0]])
    argv = [t for item in items for t in item]
    kind, token, at = edit
    at %= len(argv) + 1
    if kind == "replace" and at < len(argv):
        argv[at] = token
    elif kind == "insert":
        argv.insert(at, token)
    elif kind == "cut":
        del argv[at:]
    return argv


# plain argvs, and plain argvs with an abbreviation, a joined value, a
# dash-led value, a bad int, an unknown verb, a stray token or a missing value
ARGVS = st.builds(
    _argv,
    st.tuples(st.sampled_from(VERBS), st.integers(0, 8)),
    st.lists(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(PLAIN_VALUES) | st.text(max_size=3)), max_size=5),
    st.tuples(st.sampled_from(["none", "replace", "insert", "cut"]), st.sampled_from(TOKENS) | st.text(max_size=3), st.integers(0, 12)),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(ARGVS)
def test_plain_args_agree_with_the_parser(argv):
    plain = _plain_args(argv)
    if plain is not None:
        assert plain == _parse(argv)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("argv"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=ARGVS)
def test_every_argv_ends_in_help_or_one_error_object(empty_dir, argv):
    """Run from an empty directory, so that no --in document exists, every
    argv either prints the help (exit 0, nothing on stderr) or ends in one
    error object on stderr and nothing on stdout: bad-argv exactly where the
    parser rejects argv or it has no --in."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(empty_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("exit", exc.code)
    finally:
        os.chdir(cwd)
    parsed = _parse(argv)
    if status == ("exit", 0):
        assert parsed == ("exit", 0) and err.getvalue() == "" and out.getvalue().startswith("usage: fcrystals")
        return
    assert status == 2 and out.getvalue() == ""
    doc = json.loads(err.getvalue())
    assert err.getvalue() == canonical_dumps(doc) and set(doc) == {"code", "message"}
    rejected = isinstance(parsed, tuple) or not parsed.inputs
    assert (doc["code"] == "bad-argv") == rejected, (argv, doc)
    assert os.listdir(empty_dir) == []


# the argv shapes the benchmark builds: verb [--ring r] --in p [--in p ...],
# with paths relative to the checkout
_BENCH_PATH = st.builds(
    "{}/{}-seed{}/c{:03d}-{}.json".format,
    st.just(".bench_work"),
    st.sampled_from(["motive-batch", "crystal-galois", "picard-lattice"]),
    st.integers(0, 99),
    st.integers(0, 999),
    st.sampled_from(["ring", "0", "1", "7"]),
)
BENCH_ARGVS = st.builds(
    lambda verb, ring, paths: [verb] + (["--ring", ring] if ring else []) + [t for p in paths for t in ("--in", p)],
    st.sampled_from(VERBS),
    st.none() | _BENCH_PATH,
    st.lists(_BENCH_PATH, min_size=1, max_size=8),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(BENCH_ARGVS)
def test_bench_argvs_take_the_plain_path(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert plain == _parse(argv)


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN_CASES], ids=[g for g, _ in GOLDEN_CASES])
def test_golden_argvs_take_the_plain_path(argv, tmp_path):
    for call in (_with_paths(argv), _with_paths(argv) + ["--out", str(tmp_path / "o.json")]):
        plain = _plain_args(call)
        assert plain is not None
        assert plain == _parse(call)


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["fcrystals"] + _with_paths(["crystal-dual", "--in", "module_tate1.json"]))
    assert main() == 0
    with open(os.path.join(GOLD, "dual_tate1.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def _outcome(load, path):
    try:
        return "ok", load(path)
    except MalformedInputError as exc:
        return "error", exc.code, str(exc)


# (name, file bytes): newline spellings, a BOM, bad UTF-8, files past the
# 8 KiB buffer of a text-mode read, and the decoder's limits
NAMED_FILES = [
    ("crlf", b'{\r\n "a": [1,\r\n 2],\r\n "b": "x"\r\n}\r\n'),
    ("crlf-error", b'{\r\n "a": [1,\r\n 2,\r\n ]}'),
    ("lone-cr", b'{"a":\r1,\r"b":[\r]}'),
    ("cr-in-string", b'{"a": "x\ry"}'),
    ("cr-cr-lf", b'{"a":\r\r\n1 x}'),
    ("trailing-cr", b'{"a": 1}\r'),
    ("bom", b'\xef\xbb\xbf{"a": 1}'),
    ("invalid-utf8", b'{"a": "\xff"}'),
    ("utf16", '{"a": 1}'.encode("utf-16")),
    ("non-ascii-then-error", '{"é": "🙂", \r\n "b": }'.encode("utf-8")),
    ("over-8k", b'{"a": "' + b"x" * 8190 + b'",\r\n"b": [1,\r2]}'),
    ("over-8k-invalid-utf8", b'{"a": "' + b"x" * 9000 + b'\xc3("}'),
    ("over-8k-error", b'{"a": "' + b"\xc3\xa9" * 5000 + b'",\r\n\r\n"b": ]}'),
    ("deep-nesting", b"[" * 200000),
    ("deep-nesting-object", b'{"a":' + b"[" * 200000),
    ("4301-digit-int", b'{"p": ' + b"7" * 4301 + b"}"),
    ("4300-digit-int", b'{"p": ' + b"7" * 4300 + b"}"),
    ("array", b"[1, 2]"),
    ("empty", b""),
]

# pieces of random files: JSON, newline spellings, multi-byte and invalid UTF-8
PIECES = [b"{", b"}", b"[", b"]", b",", b":", b'"a"', b'"\xc3\xa9"', b'"\xf0\x9f\x99\x82"', b"1", b"-0", b"1e5",
          b"null", b"true", b" ", b"\n", b"\r", b"\r\n", b"\r\r\n", b"\n\r", b"\xef\xbb\xbf", b"\xff", b"\xc3",
          b"\xed\xa0\x80", b'"\r"', b"\t"]


def _random_file(rng):
    doc = {"k%d" % i: [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 4))] for i in range(rng.randint(0, 5))}
    text = bytearray(json.dumps(doc, indent=rng.choice([None, 1])).encode("utf-8"))
    if rng.random() < 0.2:
        text[1:1] = b" " * rng.choice([8000, 8191, 8192, 9000])
    for _ in range(rng.choice([0, 1, 1, 2, 3, 6])):
        at = rng.randint(0, len(text))
        text[at:at] = rng.choice(PIECES)
    if rng.random() < 0.3:
        text = text.replace(b"\n", rng.choice([b"\r\n", b"\r"]))
    return bytes(text)


def test_load_agrees_with_a_text_mode_read(tmp_path):
    rng = random.Random(5)
    paths = []
    for name, data in NAMED_FILES + [(f"random-{k}", _random_file(rng)) for k in range(400)]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        paths.append(str(path))
    outcomes = []
    for path in paths + [str(tmp_path), str(tmp_path / "missing.json")]:
        got = _outcome(_load, path)
        assert got == _outcome(load_oracle, path), path
        outcomes.append(got[:2])
    named = dict(zip([name for name, _ in NAMED_FILES], outcomes))
    assert named["crlf"] == ("ok", {"a": [1, 2], "b": "x"})
    assert named["over-8k"][0] == named["4300-digit-int"][0] == "ok"
    for name in ("bom", "invalid-utf8", "utf16", "deep-nesting", "4301-digit-int", "over-8k-error", "empty"):
        assert named[name] == ("error", "bad-json"), name
    assert outcomes[-2:] == [("error", "unreadable-file"), ("error", "missing-file")]
    assert ("ok",) in {o[:1] for o in outcomes[len(NAMED_FILES):]} and ("error", "bad-json") in outcomes[len(NAMED_FILES):]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_canonical_dumps_is_json_dumps(value):
    assert canonical_dumps(value) == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
