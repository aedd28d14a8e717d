"""Span tracing around the public functions of each fcrystals layer, installed
from outside the package.

`Tracer.install()` rebinds every listed function, in every loaded fcrystals
module that holds it, to a wrapper that records a span (name, start, end,
parent).  `WittElem.inverse` and `AbelianBlock.from_module` are wrapped on
their classes.  Scalar WittElem arithmetic is left alone, since a span per
scalar op would swamp the run; kernel op counts are derived from operand
shapes instead.  `uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter


def _rows_cols(m) -> tuple[int, int]:
    return len(m), (len(m[0]) if m else 0)


def _wm_mul_work(args, result) -> tuple[str, int]:
    a, b = args[1], args[2]
    ra, ca = _rows_cols(a)
    return "semilinear.wm_mul.scalar_mults", ra * ca * _rows_cols(b)[1]


def _wm_sigma_work(args, result) -> tuple[str, int]:
    r, c = _rows_cols(args[0])
    return "semilinear.wm_sigma.entries", r * c


def _snf_work(args, result) -> tuple[str, int]:
    r, c = _rows_cols(args[0])
    return "intmat.smith_normal_form.entries", r * c


def _emit_bytes(args, result) -> tuple[str, int]:
    return "serialize.emit.bytes", len(result.encode("utf-8"))


# (module, function, span name, work counter)
FUNCTIONS = [
    ("witt", "frobenius", "witt.frobenius", None),
    ("witt", "frobenius_inverse", "witt.frobenius_inverse", None),
    ("witt", "teichmuller", "witt.teichmuller", None),
    ("semilinear", "wm_mul", "semilinear.wm_mul", _wm_mul_work),
    ("semilinear", "charpoly", "semilinear.charpoly", None),
    ("semilinear", "wm_sigma", "semilinear.wm_sigma", _wm_sigma_work),
    ("semilinear", "wm_sigma_inv", "semilinear.wm_sigma", _wm_sigma_work),
    ("semilinear", "verify", "semilinear.verify", None),
    ("semilinear", "newton_slopes", "semilinear.newton_slopes", None),
    ("semilinear", "tensor", "semilinear.tensor", None),
    ("semilinear", "twisted_dual", "semilinear.twisted_dual", None),
    ("intmat", "smith_normal_form", "intmat.smith_normal_form", _snf_work),
    ("intmat", "kernel_basis", "intmat.kernel_basis", None),
    ("intmat", "solve_exact", "intmat.solve_exact", None),
    ("intmat", "inverse_unimodular", "intmat.inverse_unimodular", None),
    ("blocks", "tate", "blocks", None),
    ("blocks", "lattice_block", "blocks", None),
    ("blocks", "torus_block", "blocks", None),
    ("blocks", "abelian_from_ap", "blocks", None),
    ("onemotive", "assemble", "onemotive.assemble", None),
    ("onemotive", "cartier_dual", "onemotive.cartier_dual", None),
    ("onemotive", "pair", "onemotive.pair", None),
    ("onemotive", "verify_motive", "onemotive.verify_motive", None),
    ("simplicial", "component_complex", "simplicial.component_complex", None),
    ("simplicial", "cocharacter_group", "simplicial.cocharacter_group", None),
    ("simplicial", "div0_lattice", "simplicial.div0_lattice", None),
    ("simplicial", "h1_weight_ledger", "simplicial.h1_weight_ledger", None),
    ("cli", "main", "cli.main", None),
    ("serialize", "canonical_dumps", "serialize.emit", _emit_bytes),
]
for _name in (
    "ring_to_doc", "wmat_to_doc", "module_to_doc", "slopes_to_doc", "motive_to_doc",
    "skeleton_to_doc", "verify_report_to_doc", "motive_report_to_doc", "pairing_to_doc",
    "ledger_to_doc",
):
    FUNCTIONS.append(("serialize", _name, "serialize.emit", None))
for _name in (
    "ring_from_doc", "wmat_from_doc", "module_from_doc", "motive_from_doc",
    "simplicial_from_doc", "divisor_from_doc", "skeleton_from_doc",
):
    FUNCTIONS.append(("serialize", _name, "serialize.parse", None))

# (module, class, attribute, span name); from_module is a staticmethod
METHODS = [
    ("witt", "WittElem", "inverse", "witt.inverse"),
    ("blocks", "AbelianBlock", "from_module", "blocks"),
]

# per-layer metrics: (metric, unit, kind, span name); kind is "calls",
# "self_s", "per_doc" (calls per input document) or a work counter name
METRICS = [
    ("witt.frobenius.calls", "count", "calls", "witt.frobenius"),
    ("witt.frobenius.self_s", "s", "self_s", "witt.frobenius"),
    ("witt.frobenius_inverse.calls", "count", "calls", "witt.frobenius_inverse"),
    ("witt.teichmuller.calls", "count", "calls", "witt.teichmuller"),
    ("witt.teichmuller.self_s", "s", "self_s", "witt.teichmuller"),
    ("witt.inverse.calls", "count", "calls", "witt.inverse"),
    ("semilinear.wm_mul.calls", "count", "calls", "semilinear.wm_mul"),
    ("semilinear.wm_mul.self_s", "s", "self_s", "semilinear.wm_mul"),
    ("semilinear.wm_mul.scalar_mults", "count", "work", "semilinear.wm_mul.scalar_mults"),
    ("semilinear.charpoly.calls", "count", "calls", "semilinear.charpoly"),
    ("semilinear.charpoly.self_s", "s", "self_s", "semilinear.charpoly"),
    ("semilinear.wm_sigma.entries", "count", "work", "semilinear.wm_sigma.entries"),
    ("semilinear.wm_sigma.self_s", "s", "self_s", "semilinear.wm_sigma"),
    ("semilinear.verify.self_s", "s", "self_s", "semilinear.verify"),
    ("semilinear.newton_slopes.self_s", "s", "self_s", "semilinear.newton_slopes"),
    ("semilinear.tensor.self_s", "s", "self_s", "semilinear.tensor"),
    ("semilinear.twisted_dual.calls_per_doc", "1/doc", "per_doc", "semilinear.twisted_dual"),
    ("onemotive.assemble.calls_per_doc", "1/doc", "per_doc", "onemotive.assemble"),
    ("onemotive.assemble.self_s", "s", "self_s", "onemotive.assemble"),
    ("onemotive.cartier_dual.self_s", "s", "self_s", "onemotive.cartier_dual"),
    ("onemotive.pair.self_s", "s", "self_s", "onemotive.pair"),
    ("onemotive.verify_motive.self_s", "s", "self_s", "onemotive.verify_motive"),
    ("intmat.smith_normal_form.calls", "count", "calls", "intmat.smith_normal_form"),
    ("intmat.smith_normal_form.self_s", "s", "self_s", "intmat.smith_normal_form"),
    ("intmat.smith_normal_form.entries", "count", "work", "intmat.smith_normal_form.entries"),
    ("intmat.kernel_basis.self_s", "s", "self_s", "intmat.kernel_basis"),
    ("intmat.solve_exact.self_s", "s", "self_s", "intmat.solve_exact"),
    ("intmat.inverse_unimodular.calls", "count", "calls", "intmat.inverse_unimodular"),
    ("simplicial.component_complex.self_s", "s", "self_s", "simplicial.component_complex"),
    ("simplicial.cocharacter_group.self_s", "s", "self_s", "simplicial.cocharacter_group"),
    ("simplicial.div0_lattice.self_s", "s", "self_s", "simplicial.div0_lattice"),
    ("simplicial.h1_weight_ledger.self_s", "s", "self_s", "simplicial.h1_weight_ledger"),
    ("blocks.self_s", "s", "self_s", "blocks"),
    ("serialize.parse.self_s", "s", "self_s", "serialize.parse"),
    ("serialize.emit.self_s", "s", "self_s", "serialize.emit"),
    ("serialize.emit.bytes", "count", "work", "serialize.emit.bytes"),
    ("cli.main.self_s", "s", "self_s", "cli.main"),
]


class Tracer:
    """Spans live in flat arrays: name id, start, end and parent index (-1 at
    the root).  `reset()` starts a new segment; `summary()` folds the current
    one into per-name call counts, self times and work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper of the current install
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.work: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, span: str, work):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        tracer = self

        def traced(*args, **kwargs):
            names, stack = tracer.span_name, tracer._stack
            idx = len(names)
            names.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.span_start[idx] = start
                stack.pop()
            if work is not None:
                key, amount = work(args, result)
                tracer.work[key] += amount
            return result

        functools.update_wrapper(traced, fn)
        self._wrappers[id(traced)] = traced
        return traced

    @staticmethod
    def _package_modules():
        return [m for name, m in sorted(sys.modules.items()) if name == "fcrystals" or name.startswith("fcrystals.")]

    def install(self) -> None:
        modules = self._package_modules()
        for mod_name, attr, span, work in FUNCTIONS:
            orig = getattr(sys.modules[f"fcrystals.{mod_name}"], attr)
            wrapper = self._wrap(orig, span, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebound.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"fcrystals.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, staticmethod):
                wrapper = staticmethod(self._wrap(orig.__func__, span, None))
            else:
                wrapper = self._wrap(orig, span, None)
            self._rebound.append((cls, attr, orig))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every rebound name; return the names still not original."""
        for owner, key, orig in reversed(self._rebound):
            setattr(owner, key, orig)
        leftovers = []
        for owner, key, orig in self._rebound:
            if owner.__dict__[key] is not orig:
                leftovers.append(f"{getattr(owner, '__name__', owner)}.{key}")
        for mod in self._package_modules():
            for key, value in vars(mod).items():
                if id(value) in self._wrappers:
                    leftovers.append(f"{mod.__name__}.{key}")
        self._rebound.clear()
        self._wrappers.clear()
        return leftovers

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, work) per span name for the current segment.
        Self time is a span's duration minus the durations of its children."""
        count = len(self.span_name)
        child = [0.0] * count
        calls: Counter = Counter()
        self_s: Counter = Counter()
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        for i in range(count):
            dur = ends[i] - starts[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
        for i in range(count):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s, Counter(self.work)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )


def layer_metrics(calls: Counter, self_s: Counter, work: Counter, docs: int) -> dict[str, float]:
    out = {}
    for metric, _unit, kind, key in METRICS:
        if kind == "calls":
            out[metric] = calls[key]
        elif kind == "self_s":
            out[metric] = self_s[key]
        elif kind == "per_doc":
            out[metric] = calls[key] / docs
        else:
            out[metric] = work[key]
    return out
