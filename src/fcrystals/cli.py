"""Command-line front end: one verb per library operation, JSON in, canonical
JSON out.

An argv of the plain form (the verb, and the exact option names each followed
by a value that does not start with '-') is read directly by _plain_args;
any other argv goes to the one cached argparse parser, which defines the
grammar and writes the usage and help text and every argv error message.
Both give the same namespace.  An argv the parser rejects, or one without
an --in, ends in one error object with code bad-argv (exit 2); -h and
--help print the help to standard output and exit 0.  An --in or --ring
document is read as bytes, decoded as UTF-8, its newlines translated as a
text-mode read translates them (CRLF, then a lone CR, become LF), and
parsed as JSON.  The result is written by serialize.canonical_dumps.

Exit codes: 0 success, 1 verification failure (an invariant of the input
data is violated), 2 malformed input (also a file that cannot be read or an
--out path that cannot be written), 3 precision error, 4 internal error (an
invariant that holds by construction failed: a bug in fcrystals, not in the
input).  Each error class in fcrystals.errors carries its exit code.  Errors
are reported as one machine-readable object on standard error; a precision
error's object also carries the least sufficient length as "required".  Any
exception that is not an FCrystalsError is a bug too: it is reported as one
{"code": "internal-error", ...} object with exit code 4, never as a
traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
import traceback

from . import serialize as ser
from .blocks import LatticeData, abelian_from_ap, lattice_block, tate, torus_block
from .errors import FCrystalsError, InternalError, MalformedInputError, PrecisionError
from .onemotive import (
    MotiveCrystal,
    assemble,
    cartier_dual,
    pair,
    torsion_height,
    tdr_dimension,
    verify_motive,
)
from .semilinear import newton_slopes, tensor, twisted_dual, verify
from .simplicial import cocharacter_group, div0_lattice, h1_weight_ledger, picard_skeleton
from .witt import WittElem, dp_exp, dp_log, frobenius, frobenius_inverse, teichmuller, with_precision


class VerificationFailure(FCrystalsError):
    """Raised by handlers when a report comes back negative."""

    code = "verification-failed"
    exit_code = 1

    def __init__(self, message: str, doc):
        super().__init__(message)
        self.doc = doc


def _load(path: str) -> dict:
    """The JSON object in the file at path.  The bytes are decoded as UTF-8 and
    their newlines translated as a text-mode read translates them, so every
    document and every error is the one json.load of the file opened in text
    mode gives."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except FileNotFoundError:
        raise MalformedInputError(f"no such file: {path}", code="missing-file")
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror or exc}", code="unreadable-file") from None
    try:
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, invalid UTF-8, an int past the int-to-str limit, or nesting past the recursion limit
        raise MalformedInputError(f"invalid JSON in {path}: {exc}", code="bad-json") from None
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{path} does not hold a JSON object", code="bad-type")
    return doc


def _ring(args, doc) -> "ser.RingParams":
    """The --ring document, else the ring embedded in doc, at the --precision
    length if one is given.  Verbs whose documents embed no ring pass None."""
    if args.ring is not None:
        params = ser.ring_from_doc(_load(args.ring))
    elif doc is None:
        raise MalformedInputError("this verb requires --ring", code="missing-ring")
    else:
        params = ser.ring_from_doc(ser._need(doc, "ring", dict))
    if args.precision is not None:
        params = with_precision(params, args.precision)
    return params


# --- handlers: each takes (args, doc) and returns a JSON-able object ---------


# witt-eval op -> (number of arguments, function of the parsed elements)
_WITT_OPS = {
    "add": (2, operator.add),
    "sub": (2, operator.sub),
    "mul": (2, operator.mul),
    "neg": (1, operator.neg),
    "inv": (1, WittElem.inverse),
    "frobenius": (1, frobenius),
    "frobenius-inv": (1, frobenius_inverse),
    "teichmuller": (1, lambda x: teichmuller(x.params, x)),
    "exp": (1, dp_exp),
    "log": (1, dp_log),
}


def _h_witt_eval(args, doc):
    params = _ring(args, doc if "ring" in doc else None)
    op = ser._need(doc, "op", str)
    raw_args = doc.get("args", [])
    if not isinstance(raw_args, list):
        raise MalformedInputError("field 'args' must be a list", code="bad-type")
    elems = [ser.elem_from_doc(x, params) for x in raw_args]
    if op not in _WITT_OPS:
        raise MalformedInputError(f"unknown witt op {op!r}", code="unknown-op")
    k, fn = _WITT_OPS[op]
    if len(elems) != k:
        raise MalformedInputError(f"op {op!r} needs {k} argument(s)", code="bad-arity")
    return {"result": ser.elem_to_doc(fn(*elems))}


def _h_crystal_verify(args, doc):
    rep = verify(ser.module_from_doc(doc, _ring(args, doc)))
    out = ser.verify_report_to_doc(rep)
    if not rep.ok:
        raise VerificationFailure(f"invariant violated: {rep.first_failure.name}", out)
    return out


def _h_crystal_slopes(args, doc):
    return ser.slopes_to_doc(newton_slopes(ser.module_from_doc(doc, _ring(args, doc))))


def _h_crystal_dual(args, doc):
    return ser.module_to_doc(twisted_dual(ser.module_from_doc(doc, _ring(args, doc))))


def _h_crystal_tensor(args, doc):
    left, right = ser._need(doc, "left", dict), ser._need(doc, "right", dict)
    left = ser.module_from_doc(left, _ring(args, left))
    right = ser.module_from_doc(right, _ring(args, right))
    return ser.module_to_doc(tensor(left, right))


def _h_crystal_twist(args, doc):
    params = _ring(args, None)
    kind = ser._need(doc, "kind", str)
    if kind == "tate":
        module = tate(doc.get("m", 1), params)  # which checks that m is an int (bad-type)
    elif kind in ("lattice", "torus"):
        sigma = ser._int_matrix_from_doc(ser._need(doc, "sigma", list), "sigma")
        module = (lattice_block if kind == "lattice" else torus_block)(LatticeData._of_rows(len(sigma), sigma), params)
    elif kind == "abelian":
        module = abelian_from_ap(ser._need(doc, "ap"), params).crystal  # which checks that ap is an int (bad-type)
    else:
        raise MalformedInputError(f"unknown block kind {kind!r}", code="unknown-op")
    return ser.module_to_doc(module)


def _h_motive_assemble(args, doc):
    mc = assemble(ser.motive_from_doc(doc, _ring(args, doc)))
    return {"module": ser.module_to_doc(mc.module), "label": mc.provenance.label}


def _h_motive_verify(args, doc):
    spec = ser.motive_from_doc(doc, _ring(args, doc))
    if "module" in doc and doc["module"] is not None:
        module = ser._nested_module_from_doc(doc["module"], spec.params, "module")
        mc = MotiveCrystal(module, spec)
    else:
        mc = assemble(spec)
    rep = verify_motive(mc)
    out = ser.motive_report_to_doc(rep)
    if not rep.ok:
        raise VerificationFailure(f"items failed: {','.join(rep.failed())}", out)
    return out


def _h_motive_dual(args, doc):
    return ser.motive_to_doc(cartier_dual(ser.motive_from_doc(doc, _ring(args, doc))))


def _h_motive_pair(args, doc):
    spec = ser.motive_from_doc(doc, _ring(args, doc))
    pairing = pair(assemble(spec), assemble(cartier_dual(spec)))
    out = ser.pairing_to_doc(pairing)
    if not pairing.ok:
        raise VerificationFailure("pairing diagnostics failed", out)
    return out


def _h_motive_height(args, doc):
    spec = ser.motive_from_doc(doc, _ring(args, doc))
    height, exponent = torsion_height(spec, args.n)
    return {
        "height": height,
        "order_exponent": exponent,
        "tdr_dimension": tdr_dimension(spec),
    }


def _h_simplicial_cochar(args, doc):
    rank, basis = cocharacter_group(ser.simplicial_from_doc(doc))
    return {"rank": rank, "basis": basis}


def _h_simplicial_div0(args, doc):
    rank, basis = div0_lattice(ser.divisor_from_doc(doc))
    return {"rank": rank, "basis": basis}


def _h_picard_skeleton(args, doc):
    params = _ring(args, None)
    simp = ser.simplicial_from_doc(ser._need(doc, "simplicial", dict))
    div = ser.divisor_from_doc(ser._need(doc, "divisor", dict))
    skeleton, spec = picard_skeleton(simp, div, doc.get("g", 0), params)
    return {"skeleton": ser.skeleton_to_doc(skeleton), "spec": ser.motive_to_doc(spec)}


def _h_h1_ledger(args, doc):
    params = _ring(args, None)
    sk = ser.skeleton_from_doc(doc)
    ledger = h1_weight_ledger(sk, params)
    out = ser.ledger_to_doc(ledger)
    if not ledger.consistent:
        raise VerificationFailure("ledger disagrees with the assembled module", out)
    return out


_HANDLERS = {
    "witt-eval": _h_witt_eval,
    "crystal-verify": _h_crystal_verify,
    "crystal-slopes": _h_crystal_slopes,
    "crystal-dual": _h_crystal_dual,
    "crystal-twist": _h_crystal_twist,
    "crystal-tensor": _h_crystal_tensor,
    "motive-assemble": _h_motive_assemble,
    "motive-verify": _h_motive_verify,
    "motive-dual": _h_motive_dual,
    "motive-pair": _h_motive_pair,
    "motive-height": _h_motive_height,
    "simplicial-cochar": _h_simplicial_cochar,
    "simplicial-div0": _h_simplicial_div0,
    "picard-skeleton": _h_picard_skeleton,
    "h1-ledger": _h_h1_ledger,
}


def _error_doc(exc: FCrystalsError) -> dict:
    doc = {"code": exc.code, "message": str(exc)}
    if isinstance(exc, PrecisionError) and exc.required is not None:
        doc["required"] = exc.required
    return doc


def _emit(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedInputError(f"cannot write {out_path}: {exc.strerror or exc}", code="unwritable-output") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise MalformedInputError (code
    bad-argv), so that main reports them as one error object; -h and --help
    still print the help and exit 0."""

    def error(self, message: str):
        raise MalformedInputError(message, code="bad-argv")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged, and the
    append action copies the --in default before it appends."""
    parser = _Parser(
        prog="fcrystals",
        description="Exact filtered-module and motive-realization toolbox over truncated Witt rings.",
    )
    parser.add_argument("verb", choices=sorted(_HANDLERS))
    parser.add_argument("--ring", help="ring parameter document", default=None)
    parser.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        help="input document (repeatable for batch verification)",
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--precision", type=int, default=None, help="override the Witt length n")
    parser.add_argument("--n", type=int, default=1, help="torsion level for motive-height")
    return parser


# the options of the plain form: option name -> (namespace field, value type)
_PLAIN_OPTIONS = {
    "--ring": ("ring", str),
    "--in": ("inputs", None),
    "--out": ("out", str),
    "--precision": ("precision", int),
    "--n": ("n", int),
}


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace _parser().parse_args(argv) returns, read directly when
    argv has the plain form: one verb, and the exact option names of
    _PLAIN_OPTIONS each followed by a value that does not start with '-' (an
    int option's value read by int(), as type=int reads it).  None for any
    other argv (an abbreviation, --in=x, -h, --, a dash-led or missing value,
    a second positional, a bad int), which the parser then reads, so it stays
    the one definition of the grammar and the one writer of usage and help
    text and of argv error messages."""
    fields = {"verb": None, "ring": None, "inputs": [], "out": None, "precision": None, "n": 1}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if fields["verb"] is not None or token not in _HANDLERS:
                return None
            fields["verb"] = token
            continue
        option = _PLAIN_OPTIONS.get(token)
        value = next(tokens, None)
        if option is None or value is None or value.startswith("-"):
            return None
        name, kind = option
        if kind is None:
            fields[name].append(value)
        elif kind is int:
            try:
                fields[name] = int(value)
            except ValueError:
                return None
        else:
            fields[name] = value
    if fields["verb"] is None:
        return None
    return argparse.Namespace(**fields)


def main(argv: list[str] | None = None) -> int:
    def run_one(path: str):
        return _HANDLERS[args.verb](args, _load(path))

    def run_guarded(path: str) -> dict:
        try:
            return {"ok": True, "report": run_one(path)}
        except VerificationFailure as exc:
            return {"ok": False, "report": exc.doc}

    # the outcome is settled before anything is emitted, so a failed write is
    # the one error object of the call; an argv error is one too
    try:
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = _parser().parse_args(argv)
        if not args.inputs:
            raise MalformedInputError("at least one --in document is required", code="bad-argv")
        # a failed single input keeps its error object, not the exception,
        # whose traceback would hold this frame in a reference cycle
        error = None
        if len(args.inputs) == 1:
            try:
                result, status = run_one(args.inputs[0]), 0
            except VerificationFailure as exc:
                result, status, error = exc.doc, exc.exit_code, _error_doc(exc)
        else:
            # batch verification over independent input files, run serially
            result = {path: run_guarded(path) for path in args.inputs}
            status = 0 if all(r["ok"] for r in result.values()) else VerificationFailure.exit_code
        _emit(ser.canonical_dumps(result), args.out)
        if error is not None:
            sys.stderr.write(ser.canonical_dumps(error))
        return status
    except FCrystalsError as exc:
        sys.stderr.write(ser.canonical_dumps(_error_doc(exc)))
        return exc.exit_code
    except Exception as exc:
        # no library check names this failure, so it is a bug in fcrystals
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        message = f"{type(exc).__name__}: {exc} (at {where})"
        sys.stderr.write(ser.canonical_dumps({"code": InternalError.code, "message": message}))
        return InternalError.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
