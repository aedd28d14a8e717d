import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from fcrystals import blocks, cli, errors
from fcrystals.cli import _HANDLERS, main
from fcrystals.serialize import canonical_dumps
from helpers import failing_first_check

FX = os.path.join(os.path.dirname(__file__), "fixtures")
GOLD = os.path.join(FX, "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (golden name, argv tail, expected exit)
GOLDEN_CASES = [
    ("slopes_supersingular.json", ["crystal-slopes", "--in", "module_supersingular.json"]),
    ("verify_supersingular.json", ["crystal-verify", "--in", "module_supersingular.json"]),
    ("verify_tate1.json", ["crystal-verify", "--in", "module_tate1.json"]),
    ("dual_tate1.json", ["crystal-dual", "--in", "module_tate1.json"]),
    ("tensor_twists.json", ["crystal-tensor", "--in", "tensor_input.json"]),
    ("witt_exp.json", ["witt-eval", "--ring", "ring_f5n3.json", "--in", "witt_exp.json"]),
    ("twist_tate1.json", ["crystal-twist", "--ring", "ring_f5n4.json", "--in", "twist_tate1.json"]),
    ("twist_abelian0.json", ["crystal-twist", "--ring", "ring_f5n4.json", "--in", "twist_abelian0.json"]),
    ("assemble_kummer.json", ["motive-assemble", "--in", "motive_kummer.json"]),
    ("assemble_mixed.json", ["motive-assemble", "--in", "motive_mixed.json"]),
    ("mverify_kummer.json", ["motive-verify", "--in", "motive_kummer.json"]),
    ("mverify_mixed.json", ["motive-verify", "--in", "motive_mixed.json"]),
    # an abelian block given as a g = 2 crystal document, as motive-batch sends it
    ("assemble_g2.json", ["motive-assemble", "--in", "motive_g2.json"]),
    ("mdual_g2.json", ["motive-dual", "--in", "motive_g2.json"]),
    ("mverify_g2.json", ["motive-verify", "--in", "motive_g2.json"]),
    ("mdual_kummer.json", ["motive-dual", "--in", "motive_kummer.json"]),
    ("mpair_kummer.json", ["motive-pair", "--in", "motive_kummer.json"]),
    ("mpair_mixed.json", ["motive-pair", "--in", "motive_mixed.json"]),
    ("mheight_mixed.json", ["motive-height", "--in", "motive_mixed.json", "--n", "2"]),
    ("cochar_nodal.json", ["simplicial-cochar", "--in", "simplicial_nodal.json"]),
    ("div0_m3.json", ["simplicial-div0", "--in", "divisor_m3.json"]),
    ("picard.json", ["picard-skeleton", "--ring", "ring_f5n4.json", "--in", "picard_input.json"]),
    ("ledger.json", ["h1-ledger", "--ring", "ring_f5n4.json", "--in", "skeleton_g1m3.json"]),
]


def _with_paths(argv):
    out = []
    for tok in argv:
        out.append(os.path.join(FX, tok) if tok.endswith(".json") else tok)
    return out


def run_cli(argv, out_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_with_paths(argv) + ["--out", str(out_path)])
    return code, err.getvalue()


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_output(golden, argv, tmp_path):
    out = tmp_path / "out.json"
    code, _ = run_cli(argv, out)
    assert code == 0
    with open(os.path.join(GOLD, golden), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def test_two_runs_are_byte_identical(tmp_path):
    for golden, argv in GOLDEN_CASES:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv, a)[0] == 0
        assert run_cli(argv, b)[0] == 0
        assert a.read_bytes() == b.read_bytes()


# structures with no level-2 components: Ker d^2 is all of C^1
NO_LEVEL_TWO = {
    "two-cycle": {"counts": [2, 2, 0], "faces": {"1": [[0, 1], [1, 0]], "2": [[], [], []]}},
    "loop": {"counts": [1, 1, 0], "faces": {"1": [[0], [0]], "2": [[], [], []]}},
}


@pytest.mark.parametrize("name", sorted(NO_LEVEL_TWO))
def test_cocharacters_without_level_two(name, tmp_path):
    """(c1 - rank d2) - rank d1 = 1 for both structures, also through
    picard-skeleton."""
    doc = tmp_path / "s.json"
    doc.write_text(json.dumps(NO_LEVEL_TWO[name]))
    out = tmp_path / "o.json"
    assert run_cli(["simplicial-cochar", "--in", str(doc)], out) == (0, "")
    assert json.loads(out.read_text())["rank"] == 1
    picard = tmp_path / "p.json"
    picard.write_text(json.dumps({"simplicial": NO_LEVEL_TWO[name], "divisor": {"m": 0}, "g": 0}))
    assert run_cli(["picard-skeleton", "--ring", "ring_f5n4.json", "--in", str(picard)], out) == (0, "")
    assert json.loads(out.read_text())["skeleton"] == {"g": 0, "lattice_rank": 0, "torus_rank": 1}


# two documents that fail verification (exit 1) and a missing file (exit 2)
FAILING_CASES = [
    (["motive-verify", "--in", "motive_g2_tampered.json"], 1),
    (["motive-verify", "--in", "motive_badflag.json"], 1),
    (["motive-verify", "--in", "no_such_file.json"], 2),
]


@pytest.mark.parametrize(
    "argv,expected",
    [(argv, 0) for _, argv in GOLDEN_CASES] + FAILING_CASES,
    ids=[g for g, _ in GOLDEN_CASES] + ["g2-tampered", "badflag", "missing-file"],
)
def test_no_call_leaves_cyclic_garbage(argv, expected, tmp_path):
    """Every object a call makes is freed by its reference count: with the
    collector off during the call, a full collection after it finds
    nothing.  A presentation holds its crystal weakly, and a failed input
    keeps its error object rather than the exception, whose traceback
    would hold main's frame."""
    out = tmp_path / "out.json"
    gc.collect()
    gc.disable()
    try:
        code, _ = run_cli(argv, out)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert (code, garbage) == (expected, 0)


def test_tampered_g2_module_fails_item_4b(tmp_path):
    """motive_g2.json's assembled module with one F entry moved by 5^v (the
    motive-batch tampering): exit 1, items 4.b and 5 fail, golden bytes."""
    out = tmp_path / "o.json"
    code, err = run_cli(["motive-verify", "--in", "motive_g2_tampered.json"], out)
    assert code == 1
    assert json.loads(err)["message"] == "items failed: 4.b,5"
    with open(os.path.join(GOLD, "mverify_g2_tampered.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


# each error class of fcrystals.errors and its exit code: 1 a violated input
# invariant, 2 malformed or unsupported input, 3 precision, 4 a bug
EXIT_CODES = {
    "FCrystalsError": 4,
    "InternalError": 4,
    "PrecisionError": 3,
    "MalformedInputError": 2,
    "ShapeError": 2,
    "IncompatibleRingsError": 2,
    "UnsupportedCharacteristicError": 2,
    "UnsupportedInputError": 2,
    "SizeLimitError": 2,
    "InvalidExtensionDataError": 1,
    "InvalidSimplicialError": 1,
    "InvalidTraceError": 1,
    "InvalidActionError": 1,
    "DomainError": 1,
    "SingularFrobeniusError": 1,
}


class TestExitCodes:
    def test_every_error_class_carries_its_exit_code(self):
        """A new class in fcrystals.errors must pick its code here."""
        classes = {
            name: obj
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.FCrystalsError)
        }
        assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES

    @pytest.mark.parametrize("name", ["InvalidActionError", "ShapeError", "PrecisionError", "InternalError"])
    def test_raised_class_picks_the_exit_code(self, name, monkeypatch, tmp_path):
        cls = getattr(errors, name)

        def raising(args, doc):
            raise cls("raised by the handler")

        monkeypatch.setitem(_HANDLERS, "crystal-verify", raising)
        out = tmp_path / "o.json"
        code, err = run_cli(["crystal-verify", "--in", "module_tate1.json"], out)
        assert code == EXIT_CODES[name]
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": cls.code, "message": "raised by the handler"}
        assert not out.exists()

    def test_verification_failure_is_exit_1(self, tmp_path):
        code, err = run_cli(["crystal-verify", "--in", "module_bad_flag.json"], tmp_path / "o.json")
        assert code == 1
        report = json.loads((tmp_path / "o.json").read_text())
        assert not report["ok"]
        assert any(c["name"] == "flag-F" and not c["ok"] for c in report["checks"])

    def test_motive_flag_failure_names_item(self, tmp_path):
        code, err = run_cli(["motive-verify", "--in", "motive_badflag.json"], tmp_path / "o.json")
        assert code == 1
        assert "4.a" in err
        report = json.loads((tmp_path / "o.json").read_text())
        flagged = [i["item"] for i in report["items"] if not i["ok"]]
        assert "4.a" in flagged

    def test_not_prime_is_exit_2(self, tmp_path):
        code, err = run_cli(
            ["witt-eval", "--ring", "ring_p4.json", "--in", "witt_exp.json"], tmp_path / "o.json"
        )
        assert code == 2
        assert json.loads(err)["code"] == "not-prime"

    def test_negative_torsion_level_is_exit_2(self, tmp_path):
        out = tmp_path / "o.json"
        code, err = run_cli(["motive-height", "--in", "motive_mixed.json", "--n", "-3"], out)
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == "bad-level"
        assert not out.exists()
        assert run_cli(["motive-height", "--in", "motive_mixed.json", "--n", "0"], out) == (0, "")
        assert json.loads(out.read_text())["order_exponent"] == 0

    def test_bad_simplicial_is_exit_1(self, tmp_path):
        code, err = run_cli(["simplicial-cochar", "--in", "simplicial_bad.json"], tmp_path / "o.json")
        assert code == 1
        assert json.loads(err)["code"] == "invalid-simplicial"

    def test_precision_error_is_exit_3(self, tmp_path):
        code, err = run_cli(
            ["crystal-slopes", "--in", "module_supersingular.json", "--precision", "2"],
            tmp_path / "o.json",
        )
        assert code == 3
        assert json.loads(err)["code"] == "precision-error"
        assert json.loads(err)["required"] == 3

    @pytest.mark.parametrize("sigma", [[[2, 0], [0, 1]], [[1, 2], [2, 4]]])
    def test_non_unimodular_action_is_exit_1(self, sigma, tmp_path):
        doc = tmp_path / "twist.json"
        doc.write_text(json.dumps({"kind": "lattice", "sigma": sigma}))
        code, err = run_cli(["crystal-twist", "--ring", "ring_f5n4.json", "--in", str(doc)], tmp_path / "o.json")
        assert code == 1
        assert err == '{"code":"invalid-action","message":"sigma action must be unimodular over Z"}\n'

    def test_torus_twist(self, tmp_path):
        """The torus block of the swap action: F = B, V = p B^(-1), weight -2;
        a non-unimodular action is exit 1, as for the lattice block."""
        doc, out = tmp_path / "twist.json", tmp_path / "o.json"
        doc.write_text(json.dumps({"kind": "torus", "sigma": [[0, 1], [1, 0]]}))
        assert run_cli(["crystal-twist", "--ring", "ring_f5n4.json", "--in", str(doc)], out) == (0, "")
        assert out.read_text() == canonical_dumps(
            {
                "F": [[[0], [1]], [[1], [0]]],
                "V": [[[0], [5]], [[5], [0]]],
                "level": 1,
                "rank": 2,
                "ring": {"a": 1, "n": 4, "p": 5},
                "weights": [-2, -2],
            }
        )
        doc.write_text(json.dumps({"kind": "torus", "sigma": [[2]]}))
        code, err = run_cli(["crystal-twist", "--ring", "ring_f5n4.json", "--in", str(doc)], tmp_path / "bad.json")
        assert code == 1
        assert err == '{"code":"invalid-action","message":"sigma action must be unimodular over Z"}\n'

    @pytest.mark.parametrize("ap", [True, 1.5, "1", None, [0]])
    def test_abelian_twist_checks_ap_once(self, ap, tmp_path):
        """crystal-twist's abelian kind reads ap untyped and leaves the type
        check to abelian_from_ap: the message a motive document's ap gets,
        with exit 2; a missing ap is still missing-field."""
        doc, out = tmp_path / "twist.json", tmp_path / "o.json"
        doc.write_text(json.dumps({"kind": "abelian", "ap": ap}))
        want = '{"code":"bad-type","message":"abelian trace must be an integer"}\n'
        assert run_cli(["crystal-twist", "--ring", "ring_f5n4.json", "--in", str(doc)], out) == (2, want)
        motive = _edited_fixture(tmp_path, "motive_mixed.json", _set("abelian", "ap", ap))
        assert run_cli(["motive-assemble", "--in", motive], out) == (2, want)
        doc.write_text(json.dumps({"kind": "abelian"}))
        missing = '{"code":"missing-field","message":"missing field \'ap\'"}\n'
        assert run_cli(["crystal-twist", "--ring", "ring_f5n4.json", "--in", str(doc)], out) == (2, missing)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_companion_model_rule_precedes_precision(self, n, tmp_path):
        """A companion block (ap) over F_25 is unsupported-input with exit 2
        at every n, through crystal-twist, a motive document and the Picard
        verbs' default block: V is not integral unless a = 1, and that is
        checked before precision.  At n < 5 the ap paths were a precision
        error with exit 3 asking for n >= 5, and the Picard verbs wrote a
        message of their own."""
        ring = {"p": 5, "n": n, "a": 2, "modulus": [2, 4, 1]}
        ring_path, doc, out = tmp_path / "ring.json", tmp_path / "twist.json", tmp_path / "o.json"
        ring_path.write_text(json.dumps(ring))
        doc.write_text(json.dumps({"kind": "abelian", "ap": 0}))
        want = (
            '{"code":"unsupported-input","message":"V = p F^(-1) is not integral over F_25: '
            'the companion model needs q = p; pass an explicit weight -1 module instead"}\n'
        )
        assert run_cli(["crystal-twist", "--ring", str(ring_path), "--in", str(doc)], out) == (2, want)
        motive = _edited_fixture(tmp_path, "motive_mixed.json", _set("ring", ring))
        assert run_cli(["motive-assemble", "--in", motive], out) == (2, want)
        assert run_cli(["h1-ledger", "--ring", str(ring_path), "--in", "skeleton_g1m3.json"], out) == (2, want)
        assert run_cli(["picard-skeleton", "--ring", str(ring_path), "--in", "picard_input.json"], out) == (2, want)

    def test_companion_precision_is_newton_slopes_bound(self, tmp_path):
        """At a = 1 and n < 3 a companion block fails inside its slope check,
        with newton_slopes' message and the same required length 3."""
        ring_path, doc, out = tmp_path / "ring.json", tmp_path / "twist.json", tmp_path / "o.json"
        ring_path.write_text(json.dumps({"p": 5, "n": 2}))
        doc.write_text(json.dumps({"kind": "abelian", "ap": 0}))
        want = (
            '{"code":"precision-error","message":"newton slopes need n >= 3 at rank 2, level 1, a = 1",'
            '"required":3}\n'
        )
        assert run_cli(["crystal-twist", "--ring", str(ring_path), "--in", str(doc)], out) == (3, want)
        motive = _edited_fixture(tmp_path, "motive_mixed.json", _set("ring", {"p": 5, "n": 2}))
        assert run_cli(["motive-assemble", "--in", motive], out) == (3, want)
        assert run_cli(["h1-ledger", "--ring", str(ring_path), "--in", "skeleton_g1m3.json"], out) == (3, want)

    def test_companion_self_check_is_exit_4(self, monkeypatch, tmp_path):
        """A companion block that fails its own verify (no ring reaches one)
        is an internal-error with exit 4, worded as a caller's module that
        fails it, by the one routine that checks both."""
        monkeypatch.setattr(blocks, "verify", failing_first_check(blocks.verify))
        argv = ["crystal-twist", "--ring", "ring_f5n4.json", "--in", "twist_abelian0.json"]
        want = '{"code":"internal-error","message":"abelian block fails verification: level"}\n'
        assert run_cli(argv, tmp_path / "o.json") == (4, want)

    @pytest.mark.parametrize("part", ["lattice", "torus"])
    @pytest.mark.parametrize("block", [{"rank": -1}, {"rank": -1, "sigma": []}, {"rank": -3, "sigma": [[1]]}])
    def test_negative_rank_names_the_rank(self, part, block, tmp_path):
        """A negative lattice or torus rank, with or without an action, is a
        shape-error that names the rank, with exit 2; rank 0 is accepted."""

        def with_block(block):
            def edit(doc):
                doc[part], doc["ext"] = block, {}

            return edit

        out = tmp_path / "o.json"
        motive = _edited_fixture(tmp_path, "motive_kummer.json", with_block(block))
        want = '{"code":"shape-error","message":"rank must be non-negative"}\n'
        assert run_cli(["motive-assemble", "--in", motive], out) == (2, want)
        motive = _edited_fixture(tmp_path, "motive_kummer.json", with_block({"rank": 0, "sigma": []}))
        assert run_cli(["motive-assemble", "--in", motive], out) == (0, "")

    @pytest.mark.parametrize(
        "label,shown",
        [({"a": 1}, "{'a': 1}"), (5, "5"), (True, "True"), ([1], "[1]"), (1.5, "1.5")],
    )
    @pytest.mark.parametrize("verb", ["motive-assemble", "motive-dual"])
    def test_non_string_label_is_bad_type(self, verb, label, shown, tmp_path):
        """A motive label that is present, not null and not a string is
        bad-type with exit 2; it used to be coerced by str() and exit 0."""

        def edit(doc):
            doc["label"] = label

        motive = _edited_fixture(tmp_path, "motive_kummer.json", edit)
        want = f'{{"code":"bad-type","message":"label must be a string, got {shown}"}}\n'
        assert run_cli([verb, "--in", motive], tmp_path / "o.json") == (2, want)

    @pytest.mark.parametrize("absent", [True, False])
    def test_null_or_absent_label_is_empty(self, absent, tmp_path):
        """An absent or null label is the empty label: motive-assemble writes
        "" and motive-dual "dual" (a null label used to read "None" and
        "None^dual")."""

        def edit(doc):
            if absent:
                del doc["label"]
            else:
                doc["label"] = None

        motive = _edited_fixture(tmp_path, "motive_kummer.json", edit)
        out = tmp_path / "o.json"
        assert run_cli(["motive-assemble", "--in", motive], out) == (0, "")
        assert json.loads(out.read_text())["label"] == ""
        assert run_cli(["motive-dual", "--in", motive], out) == (0, "")
        assert json.loads(out.read_text())["label"] == "dual"

    def test_failed_pairing_is_exit_1(self, monkeypatch, tmp_path):
        """A pairing that fails a diagnostic (no document reaches one: the dual
        is built to pair perfectly) writes its report and one error object."""
        real = cli.pair
        monkeypatch.setattr(cli, "pair", lambda m, d: dataclasses.replace(real(m, d), frobenius_compatible=False))
        out = tmp_path / "o.json"
        code, err = run_cli(["motive-pair", "--in", "motive_kummer.json"], out)
        assert code == 1
        assert err == '{"code":"verification-failed","message":"pairing diagnostics failed"}\n'
        report = json.loads(out.read_text())
        assert (report["ok"], report["frobenius_compatible"], report["perfect"]) == (False, False, True)

    def test_inconsistent_ledger_is_exit_1(self, monkeypatch, tmp_path):
        """A ledger that disagrees with its assembled module (no skeleton
        reaches one: the module is assembled from the same ranks) writes the
        ledger and one error object."""
        real = cli.h1_weight_ledger
        monkeypatch.setattr(cli, "h1_weight_ledger", lambda sk, p: dataclasses.replace(real(sk, p), crystal_rank=0))
        out = tmp_path / "o.json"
        code, err = run_cli(["h1-ledger", "--ring", "ring_f5n4.json", "--in", "skeleton_g1m3.json"], out)
        assert code == 1
        assert err == '{"code":"verification-failed","message":"ledger disagrees with the assembled module"}\n'
        ledger = json.loads(out.read_text())
        assert (ledger["consistent"], ledger["crystal_rank"]) == (False, 0)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_stray_exception_is_exit_4(self, copies, monkeypatch, tmp_path):
        def broken(args, doc):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(_HANDLERS, "crystal-verify", broken)
        code, err = run_cli(["crystal-verify"] + ["--in", "module_tate1.json"] * copies, tmp_path / "o.json")
        assert code == 4
        assert err.count("\n") == 1
        obj = json.loads(err)
        assert obj["code"] == "internal-error"
        assert obj["message"].startswith("TypeError: unsupported operand (at test_cli.py:")

    def test_missing_file_is_exit_2(self, tmp_path):
        code, err = run_cli(["crystal-verify", "--in", "no_such_fixture.json"], tmp_path / "o.json")
        assert code == 2
        assert json.loads(err)["code"] == "missing-file"

    def test_bad_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["crystal-verify", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert json.loads(err.getvalue())["code"] == "bad-json"


class TestBatch:
    def test_batch_verification(self, tmp_path):
        argv = [
            "crystal-verify",
            "--in", "module_supersingular.json",
            "--in", "module_tate1.json",
        ]
        out = tmp_path / "batch.json"
        code, _ = run_cli(argv, out)
        assert code == 0
        results = json.loads(out.read_text())
        assert len(results) == 2
        assert all(entry["ok"] for entry in results.values())

    def test_batch_flags_failures(self, tmp_path):
        argv = [
            "crystal-verify",
            "--in", "module_supersingular.json",
            "--in", "module_bad_flag.json",
        ]
        out = tmp_path / "batch.json"
        code, _ = run_cli(argv, out)
        assert code == 1
        results = json.loads(out.read_text())
        assert sum(1 for entry in results.values() if entry["ok"]) == 1


def _edited_fixture(tmp_path, fixture, edit):
    with open(os.path.join(FX, fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / f"edited_{fixture}"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRingResolution:
    @pytest.mark.parametrize(
        "verb,fixture",
        [
            ("motive-assemble", "motive_kummer.json"),
            ("crystal-verify", "module_tate1.json"),
            ("crystal-dual", "module_tate1.json"),
        ],
    )
    def test_precision_sets_embedded_length(self, verb, fixture, tmp_path):
        edited = _edited_fixture(tmp_path, fixture, lambda doc: doc["ring"].update(n=6))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli([verb, "--in", fixture, "--precision", "6"], a)[0] == 0
        assert run_cli([verb, "--in", edited], b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "verb,fixture", [("motive-assemble", "motive_kummer.json"), ("crystal-dual", "module_tate1.json")]
    )
    def test_ring_overrides_embedded_ring(self, verb, fixture, tmp_path):
        edited = _edited_fixture(
            tmp_path, fixture, lambda doc: doc.update(ring={"p": 5, "n": 3, "a": 1})
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli([verb, "--ring", "ring_f5n3.json", "--in", fixture], a)[0] == 0
        assert run_cli([verb, "--in", edited], b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_ring_for_ring_verb(self, tmp_path):
        code, err = run_cli(["crystal-twist", "--in", "twist_tate1.json"], tmp_path / "o.json")
        assert code == 2
        assert json.loads(err)["code"] == "missing-ring"

    @pytest.mark.parametrize(
        "verb,fixture", [("motive-assemble", "motive_kummer.json"), ("crystal-verify", "module_tate1.json")]
    )
    def test_missing_embedded_ring(self, verb, fixture, tmp_path):
        edited = _edited_fixture(tmp_path, fixture, lambda doc: doc.pop("ring"))
        code, err = run_cli([verb, "--in", edited], tmp_path / "o.json")
        assert code == 2
        assert json.loads(err)["code"] == "missing-field"


class TestTensorRing:
    def test_precision_sets_both_operands(self, tmp_path):
        out = tmp_path / "o.json"
        assert run_cli(["crystal-tensor", "--in", "tensor_input.json", "--precision", "7"], out)[0] == 0
        assert json.loads(out.read_text())["ring"]["n"] == 7

    def test_ring_is_checked(self, tmp_path):
        code, err = run_cli(
            ["crystal-tensor", "--ring", "ring_p4.json", "--in", "tensor_input.json"], tmp_path / "o.json"
        )
        assert code == 2
        assert json.loads(err)["code"] == "not-prime"


@pytest.mark.parametrize("text", ["5", '"x"', "null", "[1]"])
@pytest.mark.parametrize("verb", sorted(_HANDLERS))
def test_document_must_be_an_object(verb, text, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([verb, "--in", str(doc), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert err.getvalue().count("\n") == 1
    assert json.loads(err.getvalue())["code"] == "bad-type"


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


# (verb, fixture, edit, expected code): every integer field of a document
# rejects JSON booleans, floats and strings instead of coercing them, and
# every object or list field rejects a value of another type
STRICT_INT_CASES = [
    ("crystal-verify", "module_tate1.json", _set("weights", ["x"]), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("weights", [0.7]), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("weights", [True]), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("ring", "n", True), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("ring", "p", True), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("ring", "a", True), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("ring", {"p": 5, "n": 4, "a": 2, "modulus": [2, True, 1]}), "bad-modulus"),
    ("crystal-verify", "module_tate1.json", _set("rank", True), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("level", True), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("F", [[[True]]]), "bad-element"),
    ("crystal-verify", "module_tate1.json", _set("V", [[True]]), "bad-element"),
    ("motive-assemble", "motive_kummer.json", _set("lattice", "sigma", [[True]]), "bad-matrix"),
    ("motive-assemble", "motive_kummer.json", _set("torus", "rank", True), "bad-type"),
    ("motive-assemble", "motive_mixed.json", _set("abelian", "ap", True), "bad-type"),
    ("simplicial-cochar", "simplicial_nodal.json", _set("counts", [1, True, 1]), "bad-type"),
    ("simplicial-cochar", "simplicial_nodal.json", _set("faces", "2", [[0], [False], [0]]), "bad-type"),
    ("simplicial-div0", "divisor_m3.json", _set("m", True), "bad-type"),
    ("simplicial-div0", "divisor_m3.json", _set("NS", [[1, 1, True]]), "bad-matrix"),
    ("h1-ledger", "skeleton_g1m3.json", _set("lattice_rank", True), "bad-type"),
    ("picard-skeleton", "picard_input.json", _set("g", True), "bad-type"),
    ("crystal-twist", "twist_tate1.json", _set("m", True), "bad-type"),
    ("crystal-twist", "twist_abelian0.json", _set("ap", False), "bad-type"),
    ("motive-verify", "motive_kummer.json", _set("ext", [1]), "bad-type"),
    ("motive-verify", "motive_kummer.json", _set("abelian", 5), "bad-type"),
    ("witt-eval", "witt_exp.json", _set("args", 5), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("ring", {"p": 5, "n": 4, "a": 2, "modulus": [2, 0.5, 1]}), "bad-modulus"),
    ("crystal-verify", "module_tate1.json", _set("ring", {"p": 5, "n": 4, "a": 2, "modulus": 7}), "bad-modulus"),
    ("crystal-verify", "module_tate1.json", _set("ring", {"p": 5, "n": 4, "a": 2, "modulus": "211"}), "bad-modulus"),
    ("crystal-verify", "module_tate1.json", _set("ring", "a", 2.0), "bad-type"),
    ("simplicial-cochar", "simplicial_nodal.json", _set("faces", "1", [{}, [0, 0]]), "bad-type"),
    ("simplicial-cochar", "simplicial_nodal.json", _set("faces", "1", {}), "bad-type"),
    ("simplicial-cochar", "simplicial_nodal.json", _set("counts", [1, "2", 1]), "bad-type"),
    ("h1-ledger", "skeleton_g1m3.json", _set("g", 1.5), "bad-type"),
    ("h1-ledger", "skeleton_g1m3.json", _set("torus_rank", "0"), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("rank", "1"), "bad-type"),
    ("crystal-verify", "module_tate1.json", _set("level", None), "bad-type"),
    ("picard-skeleton", "picard_input.json", _set("g", 1.5), "bad-type"),
]


@pytest.mark.parametrize(
    "verb,fixture,edit,code", STRICT_INT_CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(STRICT_INT_CASES)]
)
def test_integer_fields_are_strict(verb, fixture, edit, code, tmp_path):
    edited = _edited_fixture(tmp_path, fixture, edit)
    argv = [verb, "--in", edited]
    if verb in ("h1-ledger", "picard-skeleton", "crystal-twist", "witt-eval"):
        argv += ["--ring", "ring_f5n4.json"]
    status, err = run_cli(argv, tmp_path / "o.json")
    assert status == 2
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == code


class TestSharedParser:
    """Calls to main in one process share one argument parser: no option of
    one call reaches the next, and usage, help and error bytes are those of a
    parser built for the call."""

    def test_options_do_not_leak_between_calls(self, tmp_path, monkeypatch):
        seen = []
        handler = _HANDLERS["crystal-dual"]

        def recording(args, doc):
            seen.append(args)
            return handler(args, doc)

        monkeypatch.setitem(_HANDLERS, "crystal-dual", recording)
        batch = tmp_path / "batch.json"
        argv = ["crystal-dual", "--in", "module_tate1.json", "--in", "module_supersingular.json", "--precision", "6"]
        assert run_cli(argv, batch)[0] == 0
        assert len(json.loads(batch.read_text())) == 2
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(_with_paths(["crystal-dual", "--in", "module_tate1.json"])) == 0
        first, second = seen[0], seen[-1]
        assert (len(first.inputs), first.out, first.precision) == (2, str(batch), 6)
        assert (len(second.inputs), second.out, second.precision) == (1, None, None)
        with open(os.path.join(GOLD, "dual_tate1.json"), encoding="utf-8") as fh:
            assert out.getvalue() == fh.read()
        assert json.loads(out.getvalue())["ring"]["n"] == 4

    # sha256 of the help a parser built for the call prints, at 80 columns;
    # the same on CPython 3.10, 3.11 and 3.13
    HELP_SHA = "daf76d79802f392ca4e487b2707dc0ae615c446b98da6d70fa04baabf218be6c"
    # argv -> the start of its one error object (code bad-argv, exit 2); the
    # list of verbs after "choose from" is quoted or not by Python version
    ARGV_ERRORS = [
        (["--help"], None),
        (["crystal-verify"], '{"code":"bad-argv","message":"at least one --in document is required"}'),
        (
            ["no-such-verb", "--in", "x.json"],
            """{"code":"bad-argv","message":"argument verb: invalid choice: 'no-such-verb' (choose from """,
        ),
    ]

    @pytest.mark.parametrize("argv,error", ARGV_ERRORS, ids=["help", "no-input", "unknown-verb"])
    def test_help_and_argv_error_bytes(self, argv, error, monkeypatch):
        """--help prints the help bytes of a parser built for the call and
        exits 0; an argv error, the parser's or main's own, is one error
        object on stderr and exit status 2, with no usage text."""
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if error is None:
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == 0
                else:
                    assert main(argv) == 2
            if error is None:
                assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.HELP_SHA
                assert err.getvalue() == ""
            else:
                assert out.getvalue() == ""
                assert err.getvalue().startswith(error) and err.getvalue().endswith('"}\n')
                assert json.loads(err.getvalue())["code"] == "bad-argv"


class TestArgvErrors:
    """Every argv the parser rejects, and one with no --in, ends in exactly
    one JSON error object on stderr with code bad-argv and exit status 2."""

    CASES = [
        (["crystal-verify", "--in", "x.json", "--precision", "1.5"], "argument --precision: invalid int value: '1.5'"),
        (["motive-height", "--in", "x.json", "--n", "two"], "argument --n: invalid int value: 'two'"),
        (["crystal-verify", "--in"], "argument --in: expected one argument"),
        (["crystal-verify", "--in", "x.json", "extra"], "unrecognized arguments: extra"),
        (["crystal-verify", "--bogus", "1", "--in", "x.json"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: verb"),
        (["crystal-verify", "--out", "o.json"], "at least one --in document is required"),
    ]

    @pytest.mark.parametrize("argv,message", CASES)
    def test_one_error_object(self, argv, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == ""
        assert err.getvalue() == canonical_dumps({"code": "bad-argv", "message": message})
        assert not os.path.exists(tmp_path / "o.json")

    def test_process_exit_status(self, tmp_path):
        """Run as a process, a bad int, a missing verb and a missing --in each
        exit 2 with the one error object as all of stderr; -h prints the help
        and exits 0."""
        def run(argv):
            cmd = [sys.executable, "-m", "fcrystals", *argv]
            return subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path)

        for argv, message in self.CASES[:1] + self.CASES[-2:]:
            proc = run(argv)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == canonical_dumps({"code": "bad-argv", "message": message})
        proc = run(["-h"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: fcrystals")


# the ten witt-eval ops and their argument counts
WITT_ARITY = {
    "add": 2, "sub": 2, "mul": 2, "neg": 1, "inv": 1,
    "frobenius": 1, "frobenius-inv": 1, "teichmuller": 1, "exp": 1, "log": 1,
}


def _witt_eval(tmp_path, doc):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    return run_cli(["witt-eval", "--ring", "ring_f5n3.json", "--in", str(path)], tmp_path / "o.json")


# (op, args, result) in W_2(F_125) with modulus t^3 + t + 1; a = 3, so that
# frobenius and frobenius-inv give different results
WITT_RESULTS = [
    ("add", [[2, 3, 1], [4, 1, 0]], [6, 4, 1]),
    ("sub", [[2, 3, 1], [4, 1, 0]], [23, 2, 1]),
    ("mul", [[2, 3, 1], [4, 1, 0]], [7, 13, 7]),
    ("neg", [[2, 3, 1]], [23, 22, 24]),
    ("inv", [[2, 3, 1]], [7, 2, 12]),
    ("frobenius", [[2, 3, 1]], [8, 11, 10]),
    ("frobenius-inv", [[2, 3, 1]], [19, 11, 14]),
    ("teichmuller", [[2, 3, 1]], [22, 13, 6]),
    ("exp", [[5, 10, 0]], [6, 10, 0]),
    ("log", [[6, 5, 5]], [5, 5, 5]),
]


@pytest.mark.parametrize("op,elems,result", WITT_RESULTS, ids=[c[0] for c in WITT_RESULTS])
def test_witt_eval_op_results(op, elems, result, tmp_path):
    doc = {"ring": {"p": 5, "n": 2, "a": 3, "modulus": [1, 1, 0, 1]}, "op": op, "args": elems}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["witt-eval", "--in", str(path)], tmp_path / "o.json") == (0, "")
    assert (tmp_path / "o.json").read_text() == json.dumps({"result": result}, separators=(",", ":")) + "\n"


class TestWittEvalErrors:
    """witt-eval parses the elements first, then looks the op up, then checks
    its argument count; each failure is one error object with exit code 2."""

    @pytest.mark.parametrize(
        "op,count", [(op, count) for op, k in WITT_ARITY.items() for count in (0, k + 1)]
    )
    def test_wrong_argument_count_is_bad_arity(self, op, count, tmp_path):
        k = WITT_ARITY[op]
        assert _witt_eval(tmp_path, {"op": op, "args": [[1]] * count}) == (
            2,
            f'{{"code":"bad-arity","message":"op \'{op}\' needs {k} argument(s)"}}\n',
        )

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_unknown_op(self, count, tmp_path):
        assert _witt_eval(tmp_path, {"op": "sqrt", "args": [[1]] * count}) == (
            2,
            '{"code":"unknown-op","message":"unknown witt op \'sqrt\'"}\n',
        )

    @pytest.mark.parametrize("op", ["sqrt", "add", "neg"])
    def test_elements_are_parsed_first(self, op, tmp_path):
        assert _witt_eval(tmp_path, {"op": op, "args": [[1], [True], [1]]}) == (
            2,
            '{"code":"bad-element","message":"element must be a list of integers"}\n',
        )


# error codes of the CLI's file boundary and of the size bound, each exit 2
FILE_AND_SIZE_CODES = {"missing-file": 2, "unreadable-file": 2, "unwritable-output": 2, "bad-json": 2, "too-large": 2}


def _timed_cli(argv):
    """(exit code, stderr, seconds) of one in-process call."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


def _one_error(code, err, seconds, expected):
    """The call ended in exactly one JSON error object with the expected code and exit code, in under 1 s."""
    assert (code, err.count("\n"), json.loads(err)["code"]) == (FILE_AND_SIZE_CODES[expected], 1, expected), err
    assert "Traceback" not in err
    assert seconds < 1.0


class TestFileBoundary:
    """An input that cannot be read or decoded and an output that cannot be
    written each end in one error object, exit 2: never exit 4, never a
    traceback."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{", b"[" * 200000, b'{"p": ' + b"7" * 5000 + b"}"],
        ids=["invalid-utf8", "deep-nesting", "5000-digit-int"],
    )
    def test_undecodable_input_is_bad_json(self, content, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        _one_error(*_timed_cli(["crystal-verify", "--in", str(doc), "--out", str(tmp_path / "o.json")]), "bad-json")

    @pytest.mark.parametrize("flag", ["--in", "--ring"])
    def test_directory_is_unreadable_file(self, flag, tmp_path):
        argv = ["crystal-twist", "--ring", os.path.join(FX, "ring_f5n4.json"), "--in", os.path.join(FX, "twist_tate1.json")]
        argv[argv.index(flag) + 1] = str(tmp_path)
        code, err, seconds = _timed_cli(argv + ["--out", str(tmp_path / "o.json")])
        _one_error(code, err, seconds, "unreadable-file")
        assert json.loads(err)["message"] == f"cannot read {tmp_path}: Is a directory"

    @pytest.mark.parametrize("fixture", ["module_tate1.json", "module_bad_flag.json"], ids=["success", "failure"])
    def test_unwritable_output(self, fixture, tmp_path):
        """A verification failure settles its outcome before the one write,
        so a failed write is the call's only error object."""
        out = tmp_path / "missing" / "o.json"
        code, err, seconds = _timed_cli(["crystal-verify", "--in", os.path.join(FX, fixture), "--out", str(out)])
        _one_error(code, err, seconds, "unwritable-output")
        assert json.loads(err)["message"] == f"cannot write {out}: No such file or directory"

    def test_missing_file_is_unchanged(self, tmp_path):
        _one_error(*_timed_cli(["crystal-verify", "--in", str(tmp_path / "none.json")]), "missing-file")


DIVISOR = {"m": 2, "P0": [[1, 0], [0, 1]], "P1": [[0, 1], [1, 0]], "NS": [[1, 1]]}


@pytest.mark.parametrize("key", ["P0", "P1", "NS"])
@pytest.mark.parametrize("junk", [True, 1.5, "1", None], ids=["bool", "float", "string", "ragged"])
def test_divisor_entry_error_bytes(key, junk, tmp_path):
    """divisor_from_doc checks each entry once, as the document's
    (bad-matrix); a ragged row is left to the presentation's shape checks."""
    doc = json.loads(json.dumps(DIVISOR))
    if junk is None:
        doc[key][0].pop()
        error = {"code": "shape-error", "message": "ns_classes must have m columns" if key == "NS" else "ragged integer matrix"}
    else:
        doc[key][0][1] = junk
        error = {"code": "bad-matrix", "message": f"{key} must be a nested integer list"}
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simplicial-div0", "--in", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", canonical_dumps(error))


class TestHugeLevels:
    """A level or twist exponent far above n forms no p^level: the result is
    that of a level >= n, in under 1 s."""

    def _module(self, tmp_path, level):
        with open(os.path.join(FX, "module_tate1.json"), encoding="utf-8") as fh:
            doc = {**json.load(fh), "level": level}
        path = tmp_path / f"level{level}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_verify_at_level_1e8(self, tmp_path):
        code, err, seconds = _timed_cli(["crystal-verify", "--in", self._module(tmp_path, 10**8), "--out", str(tmp_path / "big.json")])
        assert (code, json.loads(err)["code"], seconds < 1.0) == (1, "verification-failed", True)
        assert run_cli(["crystal-verify", "--in", self._module(tmp_path, 4)], tmp_path / "n.json")[0] == 1
        big, at_n = (json.loads((tmp_path / name).read_text())["checks"] for name in ("big.json", "n.json"))
        assert [c["ok"] for c in big] == [c["ok"] for c in at_n]
        assert big[4]["detail"] == "F sigma(V) != p^100000000 I: entry (0, 0) is [5], expected [0]"

    @pytest.mark.parametrize("m,at_n", [(10**8, 4), (1 - 10**8, -3)])
    def test_tate_twist_at_1e8(self, m, at_n, tmp_path):
        outs = []
        for k in (m, at_n):
            doc = tmp_path / f"twist{k}.json"
            doc.write_text(json.dumps({"kind": "tate", "m": k}))
            out = tmp_path / f"o{k}.json"
            code, err, seconds = _timed_cli(["crystal-twist", "--ring", os.path.join(FX, "ring_f5n4.json"), "--in", str(doc), "--out", str(out)])
            assert (code, err, seconds < 1.0) == (0, "", True)
            outs.append(json.loads(out.read_text()))
        f_v = ([[[1]]], [[[0]]]) if m >= 1 else ([[[0]]], [[[1]]])  # p^level = 0 mod p^4 on its side
        assert [(o["F"], o["V"]) for o in outs] == [f_v, f_v]
        assert outs[0]["level"] == (m if m >= 1 else 1 - m)


def _motive_doc(key, rank):
    with open(os.path.join(FX, "motive_kummer.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {**doc, "ext": None, key: {"rank": rank}}


def _simplicial_doc(level, count):
    counts = [1, 1, 1]
    counts[level] = count
    return {"counts": counts, "faces": {"1": [[0] * counts[1]] * 2, "2": [[0] * counts[2]] * 3}}


# field -> (verb, document with the field set to k, ring fixture or None): each
# call runs at the bound and fails in under 0.5 s one above it
SIZE_FIELDS = {
    "g": ("picard-skeleton", lambda k: {"simplicial": _simplicial_doc(0, 1), "divisor": {"m": 0}, "g": k}, "ring_f5n4.json"),
    "lattice_rank": ("h1-ledger", lambda k: {"lattice_rank": k, "torus_rank": 0, "g": 0}, "ring_f5n4.json"),
    "torus_rank": ("h1-ledger", lambda k: {"lattice_rank": 0, "torus_rank": k, "g": 0}, "ring_f5n4.json"),
    "lattice.rank": ("motive-height", lambda k: _motive_doc("lattice", k), None),
    "torus.rank": ("motive-height", lambda k: _motive_doc("torus", k), None),
    "counts[0]": ("simplicial-cochar", lambda k: _simplicial_doc(0, k), None),
    "counts[1]": ("simplicial-cochar", lambda k: _simplicial_doc(1, k), None),
    "counts[2]": ("simplicial-cochar", lambda k: _simplicial_doc(2, k), None),
    "m": ("simplicial-div0", lambda k: {"m": k}, None),
}


class TestSizeBound:
    """One documented bound, SizeLimitError.BOUND = 256, on the sizes a
    document states without listing their entries, and a ring bound checked
    before p^n is formed: p < 2^31 and p^n of at most 4300 decimal digits."""

    def _call(self, tmp_path, verb, doc, ring):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [verb, "--in", str(path), "--out", str(tmp_path / "o.json")]
        return _timed_cli(argv + (["--ring", ring if os.path.isabs(ring) else os.path.join(FX, ring)] if ring else []))

    def test_bound_is_256(self):
        assert errors.SizeLimitError.BOUND == 256

    @pytest.mark.parametrize("field", sorted(SIZE_FIELDS))
    def test_field_at_and_above_the_bound(self, field, tmp_path):
        verb, make, ring = SIZE_FIELDS[field]
        assert self._call(tmp_path, verb, make(256), ring)[:2] == (0, "")
        code, err, seconds = self._call(tmp_path, verb, make(257), ring)
        _one_error(code, err, seconds, "too-large")
        assert seconds < 0.5
        assert json.loads(err)["message"].endswith("= 257 exceeds the size bound 256")

    @pytest.mark.parametrize(
        "at,above,message",
        [
            ({"p": 2**31 - 1, "n": 1}, {"p": 2**31, "n": 1}, "p = 2147483648 is not below the size bound 2^31"),
            ({"p": 5, "n": 6151}, {"p": 5, "n": 6152}, "p^n = 5^6152 has more than 4300 decimal digits"),
        ],
        ids=["p", "n"],
    )
    def test_ring_at_and_above_the_bound(self, at, above, message, tmp_path):
        neg = {"op": "neg", "args": [1]}
        for ring, ok in ((at, True), (above, False)):
            path = tmp_path / "ring.json"
            path.write_text(json.dumps(ring))
            code, err, seconds = self._call(tmp_path, "witt-eval", neg, str(path))
            if ok:
                assert (code, err) == (0, "")
                assert json.loads((tmp_path / "o.json").read_text())["result"] == [ring["p"] ** ring["n"] - 1]
            else:
                _one_error(code, err, seconds, "too-large")
                assert seconds < 0.5
                assert json.loads(err)["message"] == message

    def test_precision_above_the_ring_bound(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"op": "neg", "args": [1]}))
        ring = os.path.join(FX, "ring_f5n4.json")
        code, err, seconds = _timed_cli(["witt-eval", "--ring", ring, "--in", str(doc), "--precision", str(10**8)])
        _one_error(code, err, seconds, "too-large")
        assert seconds < 0.5


def _motive_verify(tmp_path, doc):
    """(exit code, stdout, stderr) of motive-verify on doc."""
    path = tmp_path / "motive.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["motive-verify", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


class TestZeroDimensionExt:
    """An ext block present in a motive document is decoded whatever its
    shape: junk in a block with a zero dimension exits 2 with the code it
    gets where the block has entries, and a block of no entry ([], [[]], ...)
    is the zero block of its shape, as the goldens write a 1x0 block."""

    def test_junk_in_a_zero_dimension_block_is_malformed(self, tmp_path):
        with open(os.path.join(FX, "motive_kummer.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.update(torus={"rank": 0}, ext={"AT": [[[7], [8]], [[9]]], "XT": [["junk"]]})
        code, out, err = _motive_verify(tmp_path, doc)
        assert (code, out, json.loads(err)) == (2, "", {"code": "shape-error", "message": "ragged matrix"})

    # (ext key, the graded field whose rank sets its zero dimension, junk, error code)
    JUNK = [
        (key, field, junk, code)
        for key, field in (("AT", "torus"), ("XA", "lattice"), ("XT", "torus"))
        for junk, code in (
            ([[[7], [8]], [[9]]], "shape-error"),
            ([["junk"]], "bad-element"),
            ("x", "bad-matrix"),
            ([[[1]]], "shape-error"),
        )
    ]

    @pytest.mark.parametrize("key,field,junk,code", JUNK)
    def test_junk_gets_the_code_of_a_nonzero_rank(self, key, field, junk, code, tmp_path):
        with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for rank in (0, 1):
            doc.update({field: {"rank": rank}, "ext": {key: junk}})
            status, out, err = _motive_verify(tmp_path, doc)
            assert (status, out, json.loads(err)["code"]) == (2, "", code), rank

    @pytest.mark.parametrize("empty", [[], [[]], [[], []]], ids=["no-rows", "one-empty-row", "two-empty-rows"])
    @pytest.mark.parametrize("key,field", [("AT", "torus"), ("XA", "lattice"), ("XT", "torus")])
    def test_entry_less_block_is_the_zero_block(self, key, field, empty, tmp_path):
        with open(os.path.join(FX, "motive_mixed.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = {"rank": 0}
        absent = _motive_verify(tmp_path, {**doc, "ext": {}})
        assert absent[0] == 0
        assert _motive_verify(tmp_path, {**doc, "ext": {key: empty}}) == absent
        # where the shape has entries, an entry-less block is the wrong shape
        doc[field] = {"rank": 1}
        code, out, err = _motive_verify(tmp_path, {**doc, "ext": {key: empty}})
        assert (code, out, json.loads(err)["code"]) == (2, "", "shape-error")
