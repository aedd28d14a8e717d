"""Fuzz over the arguments of the exported constructors and functions that
take plain data: whatever the arguments, a call returns or raises a named
FCrystalsError with a documented code, never another exception (a bare
TypeError, say) and never InternalError, which names a broken invariant.

Library-object arguments (a ring, a lattice, an abelian block) are drawn
valid: only plain data is fuzzed, the scope the README states for the
integer rule.  AbelianBlock.empty is the exception: its ring is its one
argument and a table key, so it is drawn from rings and plain data alike.
Each argument is drawn from values of the right kind, small ints of both
signs, ints past the size bound, and values of other types.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, abelian_from_ap, tate
from fcrystals.errors import FCrystalsError, InternalError, MalformedInputError, ShapeError
from fcrystals.intmat import smith_normal_form
from fcrystals.onemotive import MotiveCrystal, OneMotiveSpec, assemble, torsion_height
from fcrystals.semilinear import FilteredFModule
from fcrystals.simplicial import DivisorPresentation, PicardSkeleton, SimplicialComponents, cocharacter_group
from fcrystals.witt import RingParams, WittElem, with_precision

P54 = RingParams(5, 4)
P9 = RingParams(3, 3, 2, (1, 0, 1))
RINGS = (P54, P9, RingParams(2, 1))

INTS = st.one_of(st.integers(-3, 9), st.sampled_from([2**31, 2**70, -(2**70)]))
JUNK = st.sampled_from([None, True, False, 0.5, 2.0, "x", "3", b"3", {}, {"k": 1}, object()])
SCALARS = st.one_of(INTS, INTS, JUNK)


def _seqs(item):
    """Lists or tuples of item, short, sometimes empty."""
    return st.one_of(st.lists(item, max_size=4), st.lists(item, max_size=4).map(tuple))


VALUES = st.one_of(SCALARS, _seqs(SCALARS))
MATRICES = st.one_of(SCALARS, _seqs(st.one_of(SCALARS, _seqs(INTS), _seqs(INTS))))
MODULUS = st.one_of(st.none(), st.sampled_from([(1, 0, 1), (2, 1), (1, 1, 1), (4, 1, 0, 1)]), VALUES)
ELEMS = st.one_of(
    st.sampled_from(RINGS).flatmap(lambda r: st.integers(-9, 9).map(r.from_int)),
    SCALARS,
)
WMATS = st.one_of(SCALARS, _seqs(st.one_of(SCALARS, _seqs(ELEMS))))


def _spec():
    """A valid presentation over P54: rank-1 lattice and torus, g = 1."""
    one = P54.one()
    return OneMotiveSpec(
        P54, LatticeData.trivial(1), TorusData.trivial(1), abelian_from_ap(0, P54), ((one, one),), ((one,), (one,)), ((one,),)
    )


SPEC = _spec()
CALLS = {
    "RingParams": (RingParams, (INTS, INTS, SCALARS, MODULUS)),
    "WittElem": (WittElem, (st.sampled_from(RINGS), VALUES)),
    "with_precision": (with_precision, (st.sampled_from(RINGS), SCALARS)),
    "LatticeData": (LatticeData, (SCALARS, MATRICES)),
    "TorusData": (TorusData, (SCALARS, MATRICES)),
    "FilteredFModule": (
        FilteredFModule,
        (st.sampled_from(RINGS), SCALARS, VALUES, WMATS, st.one_of(st.none(), WMATS), SCALARS),
    ),
    "OneMotiveSpec": (
        lambda at, xa, xt, label: OneMotiveSpec(P54, SPEC.lattice, SPEC.torus, SPEC.abelian, at, xa, xt, label),
        (WMATS, WMATS, WMATS, st.one_of(st.text(max_size=3), SCALARS)),
    ),
    "SimplicialComponents": (SimplicialComponents, (VALUES, st.one_of(SCALARS, _seqs(MATRICES)))),
    "DivisorPresentation": (DivisorPresentation, (SCALARS, MATRICES, MATRICES, MATRICES)),
    "PicardSkeleton": (PicardSkeleton, (SCALARS, SCALARS, SCALARS)),
    "smith_normal_form": (smith_normal_form, (MATRICES,)),
    "tate": (tate, (SCALARS, st.sampled_from(RINGS))),
    "abelian_from_ap": (abelian_from_ap, (SCALARS, st.sampled_from(RINGS))),
    "AbelianBlock.empty": (AbelianBlock.empty, (st.one_of(st.sampled_from(RINGS), SCALARS, _seqs(INTS)),)),
    "torsion_height": (torsion_height, (st.just(SPEC), SCALARS)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_named_error_or_result(name):
    make, args = CALLS[name]

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.tuples(*args))
    def check(values):
        try:
            result = make(*values)
            if type(result) is SimplicialComponents:  # validated by its first use
                cocharacter_group(result)
        except InternalError:
            raise
        except FCrystalsError:
            pass

    check()


@pytest.mark.parametrize("params", [None, "x", [5, 4]], ids=["none", "str", "list"])
def test_empty_block_names_a_ring_of_another_type(params):
    """AbelianBlock.empty reads its ring from a table keyed by the ring: a
    value that is not a RingParams is bad-type, named, before the lookup
    (a list would raise a bare TypeError there)."""
    with pytest.raises(MalformedInputError) as exc:
        AbelianBlock.empty(params)
    assert exc.value.code == "bad-type"
    assert str(exc.value) == f"params must be a RingParams, got {params!r}"


def _split(params, rT, g, rX):
    """The split presentation of the given ranks over params; the abelian
    block, for g > 0, is a companion block over P54 and empty over the other
    rings, which admit none."""
    abelian = abelian_from_ap(0, params) if g and params == P54 else AbelianBlock.empty(params)
    return OneMotiveSpec.split(params, LatticeData.trivial(rX), TorusData.trivial(rT), abelian)


SPLITS = st.builds(_split, st.sampled_from(RINGS), *[st.integers(0, 3)] * 3)
SPECS = st.one_of(st.just(SPEC), SPLITS)
MODULES = st.one_of(
    st.builds(tate, st.integers(-2, 2), st.sampled_from(RINGS)),
    SPLITS.map(lambda s: assemble(s).module),
    SPLITS.map(lambda s: assemble(s).module).map(  # no V: the canonical dual needs one
        lambda m: FilteredFModule(m.params, m.rank, m.weights, m.f_mat, None, m.level)
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(MODULES, SPECS)
def test_motive_crystal_of_any_module_and_presentation(module, spec):
    """MotiveCrystal(module, spec) is an exported pair: its report and its
    canonical dual are a result or a named error for any module against any
    presentation, of another rank or ring included."""
    crystal = MotiveCrystal(module, spec)
    for name in ("report", "canonical_dual"):
        try:
            getattr(crystal, name)
        except InternalError:
            raise
        except FCrystalsError:
            pass


@pytest.mark.parametrize("rank", [1, 4])
def test_canonical_dual_names_both_ranks(rank):
    """A module of rank 1 or 4 against a rank-2 split presentation."""
    spec = _split(P54, 1, 0, 1)
    module = tate(1, P54) if rank == 1 else assemble(_split(P54, 2, 0, 2)).module
    with pytest.raises(ShapeError) as exc:
        MotiveCrystal(module, spec).canonical_dual
    assert str(exc.value) == f"canonical dual operand has rank {rank}, its presentation 2"
