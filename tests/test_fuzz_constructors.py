"""Fuzz over the arguments of the exported constructors and functions that
take plain data: whatever the arguments, a call returns or raises a named
FCrystalsError with a documented code, never another exception (a bare
TypeError, say) and never InternalError, which names a broken invariant.

Library-object arguments (a ring, a lattice, an abelian block) are drawn
valid: only plain data is fuzzed, the scope the README states for the
integer rule.  Each argument is drawn from values of the right kind, small
ints of both signs, ints past the size bound, and values of other types.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcrystals.blocks import LatticeData, TorusData, abelian_from_ap, tate
from fcrystals.errors import FCrystalsError, InternalError
from fcrystals.intmat import smith_normal_form
from fcrystals.onemotive import OneMotiveSpec, torsion_height
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
