import contextlib
import io
import json
import os

import pytest

from fcrystals.cli import _HANDLERS, main

FX = os.path.join(os.path.dirname(__file__), "fixtures")
GOLD = os.path.join(FX, "golden")

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


class TestExitCodes:
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
