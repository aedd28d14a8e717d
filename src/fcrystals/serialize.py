"""JSON document codecs with a canonical byte form.

All documents are plain JSON with sorted keys, compact separators and exact
integers or rational strings (never floats), so golden files are stable
across runs and platforms.  Element serialization: a list of a integers in
[0, p^n); matrices: row-major nested lists of element serializations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from typing import Any

from .blocks import AbelianBlock, LatticeData, abelian_from_ap
from .errors import IncompatibleRingsError, MalformedInputError, ShapeError
from .onemotive import MotiveReport, OneMotiveSpec, PairingMatrix
from .semilinear import FilteredFModule, Rows, SlopeProfile, VerifyReport, _box, WMat
from .simplicial import DivisorPresentation, H1Ledger, PicardSkeleton, SimplicialComponents
from .witt import _INT, RingParams, WittElem, intern_ring

__all__ = [
    "canonical_dumps",
    "ring_to_doc",
    "ring_from_doc",
    "elem_to_doc",
    "elem_from_doc",
    "wmat_to_doc",
    "wmat_from_doc",
    "module_to_doc",
    "module_from_doc",
    "slopes_to_doc",
    "motive_to_doc",
    "motive_from_doc",
    "simplicial_from_doc",
    "divisor_from_doc",
    "skeleton_to_doc",
    "skeleton_from_doc",
    "verify_report_to_doc",
    "motive_report_to_doc",
    "pairing_to_doc",
    "ledger_to_doc",
]


# stateless between calls, so one encoder serves every document
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj: Any) -> str:
    """The canonical text of obj: sorted keys, compact separators, ASCII, and
    a final newline.  It is json.dumps(obj, sort_keys=True, separators=(",",
    ":")) plus the newline, written by one module-level encoder instead of
    one built per call."""
    return _ENCODER.encode(obj) + "\n"


def _need(doc: dict, key: str, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedInputError(f"missing field {key!r}", code="missing-field")
    val = doc[key]
    # an int field takes exactly int: JSON true and false are not integers
    if kind is not None and not (type(val) is int if kind is int else isinstance(val, kind)):
        raise MalformedInputError(f"field {key!r} has the wrong type", code="bad-type")
    return val


def ring_to_doc(params: RingParams) -> dict:
    doc = {"p": params.p, "n": params.n, "a": params.a}
    if params.modulus is not None:
        doc["modulus"] = list(params.modulus)
    return doc


def ring_from_doc(doc: dict) -> RingParams:
    """The interned ring of the document; RingParams rejects a bool or
    non-int a (bad-type) and modulus entry (bad-modulus)."""
    return intern_ring(_need(doc, "p", int), _need(doc, "n", int), doc.get("a", 1), doc.get("modulus"))


def elem_to_doc(x: WittElem) -> list[int]:
    return list(x.coords)


def elem_from_doc(doc, params: RingParams) -> WittElem:
    if type(doc) is int:
        return params.from_int(doc)
    if not isinstance(doc, list) or not all(type(c) is int for c in doc):
        raise MalformedInputError("element must be a list of integers", code="bad-element")
    return params.elem(doc)


def wmat_to_doc(m: WMat) -> list[list[list[int]]]:
    return [[elem_to_doc(x) for x in row] for row in m]


def _rows_from_doc(doc, params: RingParams) -> Rows:
    """The matrix as coordinate rows, in one pass: a list of exactly a ints is
    reduced mod p^n here, any other entry goes through elem_from_doc (for its
    value or its error).  Every entry is parsed before the rows' widths are
    compared.  An entry's coordinates are read by a loop that stops at the
    first non-int, not by a comprehension, which would cost a frame per
    entry: the call is the one Python frame."""
    if not isinstance(doc, list) or not all(map(isinstance, doc, repeat(list))):
        raise MalformedInputError("matrix must be a nested list", code="bad-matrix")
    a, pn = params.a, params.pn
    rows = []
    for row in doc:
        cells = []
        for x in row:
            coords = []
            if type(x) is list and len(x) == a:
                for c in x:
                    if type(c) is not int:
                        break
                    coords.append(c % pn)
            cells.append(tuple(coords) if len(coords) == a else elem_from_doc(x, params).coords)
        rows.append(cells)
    if len(set(map(len, rows))) > 1:
        raise ShapeError("ragged matrix")
    return rows


def wmat_from_doc(doc, params: RingParams) -> WMat:
    return _box(params, _rows_from_doc(doc, params))


def _rows_to_doc(rows: Rows) -> list[list[list[int]]]:
    return [[list(x) for x in row] for row in rows]


def module_to_doc(m: FilteredFModule) -> dict:
    return {
        "ring": ring_to_doc(m.params),
        "rank": m.rank,
        "weights": list(m.weights),
        "F": _rows_to_doc(m.f_rows),
        "V": _rows_to_doc(m.v_rows) if m.v_rows is not None else None,
        "level": m.level,
    }


def module_from_doc(doc: dict, params: RingParams | None = None) -> FilteredFModule:
    if params is None:
        params = ring_from_doc(_need(doc, "ring", dict))
    rank, weights = _need(doc, "rank"), _need(doc, "weights", list)
    f = _rows_from_doc(_need(doc, "F"), params)
    vdoc = doc.get("V")
    v = _rows_from_doc(vdoc, params) if vdoc is not None else None
    return FilteredFModule._of_rows(params, rank, weights, f, v, doc.get("level", 1))


def _nested_module_from_doc(doc, params: RingParams, what: str) -> FilteredFModule:
    """A module document nested in one read over params (a presentation's
    abelian crystal, motive-verify's module), read over params.  Its own
    ring may be absent or null; a present one must be params, the ring
    after --ring and --precision (else IncompatibleRingsError)."""
    if isinstance(doc, dict) and doc.get("ring") is not None:
        ring = ring_from_doc(_need(doc, "ring", dict))
        if ring != params:
            raise IncompatibleRingsError(
                f"{what} ring {ring_to_doc(ring)} is not the presentation's ring {ring_to_doc(params)}"
            )
    return module_from_doc(doc, params)


def slopes_to_doc(profile: SlopeProfile) -> dict:
    return {
        "slopes": [
            {"slope": str(Fraction(s)), "mult": mult} for s, mult in profile.pairs
        ]
    }


def _int_matrix_from_doc(doc, what: str) -> tuple[tuple[int, ...], ...]:
    """The rows of a nested list of ints (JSON true and false are not ints)
    as tuples, else bad-matrix."""
    if not isinstance(doc, list) or not all(isinstance(row, list) and _INT.issuperset(map(type, row)) for row in doc):
        raise MalformedInputError(f"{what} must be a nested integer list", code="bad-matrix")
    return tuple(map(tuple, doc))


def motive_to_doc(s: OneMotiveSpec) -> dict:
    if s.abelian.dim == 0:
        abelian_doc = None
    else:
        abelian_doc = {"crystal": module_to_doc(s.abelian.crystal)}
    return {
        "ring": ring_to_doc(s.params),
        "lattice": {"rank": s.lattice.rank, "sigma": [list(r) for r in s.lattice.sigma_action]},
        "torus": {"rank": s.torus.rank, "sigma": [list(r) for r in s.torus.sigma_action]},
        "abelian": abelian_doc,
        "ext": dict(zip(("AT", "XA", "XT"), map(_rows_to_doc, s.ext_rows))),
        "label": s.label,
    }


def _lattice_from_doc(doc: dict) -> LatticeData:
    rank = _need(doc, "rank", int)
    sigma = doc.get("sigma")
    if sigma is None:
        return LatticeData.trivial(rank)
    return LatticeData._of_rows(rank, _int_matrix_from_doc(sigma, "sigma"))


def motive_from_doc(doc: dict, params: RingParams | None = None) -> OneMotiveSpec:
    if params is None:
        params = ring_from_doc(_need(doc, "ring", dict))
    lattice = _lattice_from_doc(_need(doc, "lattice", dict))
    torus = _lattice_from_doc(_need(doc, "torus", dict))
    for key in ("abelian", "ext"):
        if not isinstance(doc.get(key), (dict, type(None))):
            raise MalformedInputError(f"field {key!r} must be an object or null", code="bad-type")
    abelian_doc = doc.get("abelian")
    if abelian_doc is None:
        abelian = AbelianBlock.empty(params)
    elif "ap" in abelian_doc:
        abelian = abelian_from_ap(abelian_doc["ap"], params)  # which checks that ap is an int (bad-type)
    elif "crystal" in abelian_doc:
        abelian = AbelianBlock.from_module(_nested_module_from_doc(abelian_doc["crystal"], params, "abelian crystal"))
    else:
        raise MalformedInputError("abelian block needs 'ap' or 'crystal'", code="missing-field")
    ext = doc.get("ext") or {}
    g2 = 2 * abelian.dim
    rT, rX = torus.rank, lattice.rank

    def ext_block(key: str, rows: int, cols: int) -> Rows:
        sub = ext.get(key)
        block = None if sub is None else _rows_from_doc(sub, params)
        # an absent block, or one of no entry ([], [[]], ...) where the shape
        # has none, is the zero block of the shape
        if block is None or (rows * cols == 0 and not any(block)):
            return [[(0,) * params.a] * cols for _ in range(rows)]
        return block

    ext_rows = (ext_block("AT", rT, g2), ext_block("XA", g2, rX), ext_block("XT", rT, rX))
    return OneMotiveSpec._of_rows(params, lattice, torus, abelian, ext_rows, doc.get("label"))  # which checks the label


def simplicial_from_doc(doc: dict) -> SimplicialComponents:
    """The components of the document; SimplicialComponents checks that the
    counts and face map entries are ints (bad-type)."""
    counts = _need(doc, "counts", list)
    faces = _need(doc, "faces", dict)
    face_maps = []
    for j in range(1, len(counts)):
        key = str(j)
        level = faces.get(key)
        if level is None:
            raise MalformedInputError(f"faces missing level {key!r}", code="missing-field")
        if not isinstance(level, list) or not all(isinstance(fmap, list) for fmap in level):
            raise MalformedInputError(f"faces[{key!r}] must be a list of lists", code="bad-type")
        face_maps.append(level)
    return SimplicialComponents(tuple(counts), tuple(face_maps))


def divisor_from_doc(doc: dict) -> DivisorPresentation:
    """The divisor presentation of the document: each entry is checked once,
    here (bad-matrix), and the presentation checks m and the shapes."""
    m = _need(doc, "m", int)
    return DivisorPresentation._of_rows(
        m,
        _int_matrix_from_doc(doc.get("P0", []), "P0"),
        _int_matrix_from_doc(doc.get("P1", []), "P1"),
        _int_matrix_from_doc(doc.get("NS", []), "NS"),
    )


def skeleton_to_doc(sk: PicardSkeleton) -> dict:
    return {
        "lattice_rank": sk.lattice_rank,
        "torus_rank": sk.torus_rank,
        "g": sk.abelian_dim,
    }


def skeleton_from_doc(doc: dict) -> PicardSkeleton:
    return PicardSkeleton(_need(doc, "lattice_rank"), _need(doc, "torus_rank"), _need(doc, "g"))


def verify_report_to_doc(rep: VerifyReport) -> dict:
    return {
        "ok": rep.ok,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in rep.checks
        ],
    }


def motive_report_to_doc(rep: MotiveReport) -> dict:
    return {
        "ok": rep.ok,
        "items": [{"item": key, "ok": ok, "detail": detail} for key, ok, detail in rep.items],
        "graded_ranks": {
            "gr0": rep.graded_ranks[0],
            "gr-1": rep.graded_ranks[1],
            "gr-2": rep.graded_ranks[2],
        },
    }


def pairing_to_doc(p: PairingMatrix) -> dict:
    return {
        "gram": wmat_to_doc(p.gram),
        "perfect": p.perfect,
        "weight_orthogonal": p.weight_orthogonal,
        "frobenius_compatible": p.frobenius_compatible,
        "verschiebung_compatible": p.verschiebung_compatible,
        "ok": p.ok,
    }


def ledger_to_doc(ledger: H1Ledger) -> dict:
    return {
        "gr0": ledger.gr0,
        "gr1": ledger.gr1,
        "gr2": ledger.gr2,
        "total": ledger.total,
        "crystal_rank": ledger.crystal_rank,
        "consistent": ledger.consistent,
    }
