"""The one integer rule of the library boundary: a scalar integer argument is
an exact int, `type(x) is int`, so neither a bool nor any other int subclass
(an IntEnum, say) is taken as an integer.  The static guard keeps a second
spelling of the rule, `isinstance(x, int)`, out of the package; the other
tests pin the rule at the entries that take a scalar or a matrix."""

import ast
import enum
import glob
import os

import pytest

from fcrystals import intmat, serialize as ser
from fcrystals.blocks import LatticeData, abelian_from_ap, tate
from fcrystals.errors import MalformedInputError, ShapeError
from fcrystals.intmat import smith_normal_form
from fcrystals.simplicial import DivisorPresentation, SimplicialComponents
from fcrystals.witt import RingParams, with_precision

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fcrystals")
P54 = RingParams(5, 4)


class Small(enum.IntEnum):
    ONE = 1


def _names_int(node) -> bool:
    """node is the name int, or a tuple that lists it."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_int, node.elts))
    return isinstance(node, ast.Name) and node.id == "int"


def test_no_isinstance_int_in_package():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names_int(node.args[1])
        ]
    assert found == []


@pytest.mark.parametrize("m", [True, Small.ONE, 1.0, "x", "1", None])
def test_tate_exponent(m):
    with pytest.raises(MalformedInputError) as exc:
        tate(m, P54)
    assert (exc.value.code, str(exc.value)) == ("bad-type", "twist exponent must be an integer")


@pytest.mark.parametrize("ap", [True, False, Small.ONE, 1.0, "1", None])
def test_abelian_trace(ap):
    with pytest.raises(MalformedInputError) as exc:
        abelian_from_ap(ap, P54)
    assert (exc.value.code, str(exc.value)) == ("bad-type", "abelian trace must be an integer")


@pytest.mark.parametrize("doc", [Small.ONE, [Small.ONE], True, [True]])
def test_elem_from_doc(doc):
    with pytest.raises(MalformedInputError) as exc:
        ser.elem_from_doc(doc, P54)
    assert (exc.value.code, str(exc.value)) == ("bad-element", "element must be a list of integers")


def test_document_int_fields():
    """An int field of a document (read by _need) and a motive's ap take
    exactly int too; the JSON reader gives no int subclass but bool, so the
    CLI bytes are those of a bool."""
    with pytest.raises(MalformedInputError) as exc:
        ser.ring_from_doc({"p": Small.ONE, "n": 2})
    assert (exc.value.code, str(exc.value)) == ("bad-type", "field 'p' has the wrong type")
    doc = {"ring": {"p": 5, "n": 4}, "lattice": {"rank": 0}, "torus": {"rank": 0}, "abelian": {"ap": Small.ONE}}
    with pytest.raises(MalformedInputError) as exc:
        ser.motive_from_doc(doc)
    assert (exc.value.code, str(exc.value)) == ("bad-type", "abelian trace must be an integer")


BAD_MATRICES = [
    ([[0.5, 1]], "bad-type", "matrix entry (0, 0) must be an integer, got 0.5"),
    ([[1, 2], [3, 4.0]], "bad-type", "matrix entry (1, 1) must be an integer, got 4.0"),
    ([[True, 2], [3, 4]], "bad-type", "matrix entry (0, 0) must be an integer, got True"),
    ([[Small.ONE]], "bad-type", "matrix entry (0, 0) must be an integer, got <Small.ONE: 1>"),
    (5, "bad-matrix", "matrix must be a sequence, got 5"),
    ([5], "bad-matrix", "matrix row must be a sequence, got 5"),
    (None, "bad-matrix", "matrix must be a sequence, got None"),
]

# every other public intmat function that takes a matrix, at each matrix it takes
MATRIX_CALLS = {
    "mul-left": lambda a: intmat.mul(a, [[1], [1]]),
    "mul-right": lambda a: intmat.mul([[1, 1]], a),
    "kernel_basis": intmat.kernel_basis,
    "elementary_divisors": intmat.elementary_divisors,
    "inverse_unimodular": intmat.inverse_unimodular,
    "solve_exact-a": lambda a: intmat.solve_exact(a, [[1]]),
    "solve_exact-b": lambda a: intmat.solve_exact([[1]], a),
}


@pytest.mark.parametrize("a,code,message", BAD_MATRICES)
def test_smith_normal_form_entry(a, code, message):
    """The one exported intmat function checks its matrix where it enters:
    no float or bool reaches D (both were returned on its diagonal), a bad
    entry is named by its position, and a scalar is a named error, not a
    bare TypeError."""
    with pytest.raises(MalformedInputError) as exc:
        smith_normal_form(a)
    assert (exc.value.code, str(exc.value)) == (code, message)


def test_smith_normal_form_ragged_and_int_rows():
    with pytest.raises(ShapeError):
        smith_normal_form([[1, 2], [3]])
    assert smith_normal_form(((2, 4), (6, 8)))[1] == [[2, 0], [0, 4]]


@pytest.mark.parametrize("a,code,message", BAD_MATRICES)
@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
def test_intmat_entry(call, a, code, message):
    """The other public intmat functions check each matrix they take as
    smith_normal_form does, before any shape is compared: no float reaches
    a kernel or a product, no bool comes back as a divisor, and a scalar is
    a named error, not a bare TypeError."""
    with pytest.raises(MalformedInputError) as exc:
        call(a)
    assert (exc.value.code, str(exc.value)) == (code, message)


@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
def test_intmat_ragged_matrix(call):
    with pytest.raises(ShapeError):
        call([[1, 2], [3]])


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: LatticeData(2, 5), "sigma_action must be a sequence, got 5"),
        (lambda: LatticeData(1, (5,)), "sigma_action must be a sequence, got 5"),
        (lambda: DivisorPresentation(1, 5, (), ()), "pull0 must be a sequence, got 5"),
        (lambda: DivisorPresentation(1, (), (), None), "ns_classes must be a sequence, got None"),
        (lambda: SimplicialComponents((1, 2), 5), "face maps must be a sequence, got 5"),
        (lambda: SimplicialComponents((1, 2), (5,)), "face maps must be a sequence, got 5"),
        (lambda: SimplicialComponents((1, 2), (((0, 0), 5),)), "face maps must be a sequence, got 5"),
    ],
)
def test_constructor_matrices(make, message):
    """A matrix argument of a public class that is not a sequence, or has a
    row that is not, is bad-type as _ints words it (each was a bare
    TypeError)."""
    with pytest.raises(MalformedInputError) as exc:
        make()
    assert (exc.value.code, str(exc.value)) == ("bad-type", message)


@pytest.mark.parametrize(
    "e,shown", [(True, "True"), (False, "False"), (Small.ONE, "<Small.ONE: 1>"), (2.0, "2.0"), ("2", "'2'"), (None, "None")]
)
def test_witt_exponent(e, shown):
    """The exponent of x ** e is plain data: x ** True used to return x, and
    a float, a string or None ended in a bare TypeError."""
    x = P54.from_int(7)
    with pytest.raises(MalformedInputError) as exc:
        x**e
    assert (exc.value.code, str(exc.value)) == ("bad-type", f"exponent must be an integer, got {shown}")


def test_witt_int_exponent():
    x = P54.from_int(7)
    assert (x**0, x**1, x**3) == (P54.one(), x, x * x * x)
    assert x**-2 * x**2 == P54.one()


@pytest.mark.parametrize("params", [P54, RingParams(5, 1), RingParams(3, 3, 2, (1, 0, 1))], ids=["a=1", "n=1", "a=2"])
@pytest.mark.parametrize("n", [None, "5", [5], True, 5.0])
def test_with_precision_length(params, n):
    """with_precision checks n where it enters, as RingParams words it: over
    a > 1 a non-int n ended in a bare TypeError from the comparison with
    params.n, and True at params.n = 1 returned params."""
    with pytest.raises(MalformedInputError) as exc:
        with_precision(params, n)
    shown = f"({params.p}, {n!r}, {params.a})"
    assert (exc.value.code, str(exc.value)) == ("bad-type", f"p, n and a must be integers, got {shown}")


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_with_precision_below_one(n):
    """An n < 1 is bad-length over a > 1 too, where a very negative n ended in
    a bare ZeroDivisionError from reducing the modulus mod p^n."""
    with pytest.raises(MalformedInputError) as exc:
        with_precision(RingParams(3, 3, 2, (1, 0, 1)), n)
    assert (exc.value.code, str(exc.value)) == ("bad-length", f"n = {n} must be a positive integer")
