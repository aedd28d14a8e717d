"""The spanning-forest replay of the lift-form elimination: intmat._forest
gives the diagonal and the trailing columns of U^(-1) that the dense
reference tests/helpers.eliminate_oracle gives on rows that are each zero or
a graph edge +-(e_u - e_v), declines every other row, and
simplicial.cocharacter_group reads the same rank and basis either way."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fcrystals import intmat, simplicial
from fcrystals.errors import InternalError
from fcrystals.simplicial import SimplicialComponents, cocharacter_group

from helpers import cocharacter_oracle, dense_rows, eliminate_oracle, random_simplicial


@st.composite
def edge_matrices(draw):
    """(rows, cols): up to 80 rows over up to 80 columns, each row zero (a
    loop of the graph) or +-(e_u - e_v) with u != v, in either orientation;
    the ends come from a few vertices (parallel edges, cycles) or from all
    of them (isolated vertices)."""
    cols = draw(st.integers(0, 80))
    n = draw(st.integers(0, 80))
    ends = draw(st.integers(2, max(2, cols))) if cols >= 2 else 0
    rows = []
    for _ in range(n):
        if ends < 2 or draw(st.integers(0, 5)) == 0:
            rows.append({})
            continue
        u = draw(st.integers(0, ends - 1))
        v = draw(st.integers(0, ends - 2))
        v += v >= u
        sign = draw(st.sampled_from((1, -1)))
        rows.append({u: sign, v: -sign})
    return rows, cols


def _replayed(rows, cols):
    """The lift form _forest gives, as the slots the dense reference
    returns: (diagonal, trailing rows of (U^(-1))^T, their marks)."""
    t, left = intmat._forest(rows, cols)
    return [1] * t, [{k: 1} for k in left], left


class TestReplay:
    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(edge_matrices())
    def test_same_lift_form_as_the_elimination(self, matrix):
        """The diagonal, the rows of (U^(-1))^T past the rank with their
        marks, and those rows as unit rows, against the dense reference
        (with a full pivot scan), and the diagonal of the sparse
        elimination."""
        rows, cols = matrix
        diag, units, marks = _replayed(rows, cols)
        assert intmat._eliminate(rows, cols)[1] == diag
        t = len(diag)
        _, d, _, ut, _, ue, _ = eliminate_oracle(dense_rows(rows, cols), ("u_inv",))
        assert [d[i][i] for i in range(min(len(d), cols)) if d[i][i]] == diag
        assert (ut[t:], ue[t:]) == (dense_rows(units, len(rows)), marks)

    def test_small_graphs(self):
        """A triangle with a parallel edge and a loop: two rows span, the
        third edge closes a cycle, and the order past the rank is the
        elimination's (the swaps move the skipped rows)."""
        rows = [{}, {0: 1, 1: -1}, {1: -1, 0: 1}, {1: 1, 2: -1}, {2: 1, 0: -1}]
        assert intmat._forest(rows, 3) == (2, [2, 0, 4])
        assert intmat._forest(rows, 3)[1] == eliminate_oracle(dense_rows(rows, 3), ("u_inv",))[5][2:]
        assert intmat._forest([], 0) == (0, [])
        assert intmat._forest([{}, {}], 0) == (0, [0, 1])

    @pytest.mark.parametrize(
        "row",
        [{0: 1}, {0: -1}, {0: 1, 1: 1}, {0: -1, 1: -1}, {0: 2, 1: -2}, {0: 1, 1: -2}, {0: 1, 1: -1, 2: 1}, {0: 1, 1: 1, 2: -2}],
        ids=["e0", "-e0", "e0+e1", "-e0-e1", "2(e0-e1)", "e0-2e1", "three", "three-2"],
    )
    def test_rows_that_are_not_edges_are_declined(self, row):
        """A row that is not zero or +-(e_u - e_v) anywhere among edges sends
        the caller to the elimination."""
        for at in range(3):
            rows = [{1: 1, 2: -1}, {}, {0: -1, 3: 1}]
            rows.insert(at, row)
            assert intmat._forest(rows, 4) is None


def inject(monkeypatch, d1, d2, counts):
    """Make simplicial._coboundaries hand over d^1 (c1 sparse rows over C^0)
    and d^2 (c2 sparse rows over C^1), and record the flags each
    elimination sets."""
    monkeypatch.setattr(simplicial, "_coboundaries", lambda s: (d1, d2))
    calls = []
    original = intmat._eliminate

    def counting(rows, cols, **flags):
        calls.append(tuple(name for name, on in flags.items() if on))
        return original(rows, cols, **flags)

    monkeypatch.setattr(intmat, "_eliminate", counting)
    return SimplicialComponents(counts, ()), calls


def _dense_complex(d1, d2, counts):
    """d_1 (c0 x c1) and d_2 (c1 x c2), the columns of the sparse rows."""
    return intmat._columns(d1, counts[0]), intmat._columns(d2, counts[1])


@pytest.mark.parametrize(
    "row",
    [{0: 1}, {0: 1, 1: 1}, {0: 2, 1: -2}, {0: 1, 1: -1, 2: 1}, {0: 1, 1: 1, 2: -2}],
    ids=["e0", "e0+e1", "2(e0-e1)", "three", "three-2"],
)
def test_near_edge_rows_take_the_general_path(monkeypatch, row):
    """With d^2 = 0 the coordinates of Im d^1 are the rows of d^1: edges
    beside one near-edge row go through the lift-form elimination, which
    builds U alone, and its summand check, and give the dense formula's
    rank and basis or its error.  A nonzero free part inverts U, through
    the Smith form inverse_unimodular takes."""
    counts = (3, 4, 0)
    d1 = [{0: 1, 1: -1}, row, {}, {1: 1, 2: -1}]
    shell, calls = inject(monkeypatch, d1, [], counts)
    dense1, dense2 = _dense_complex(d1, [], counts)
    try:
        want = cocharacter_oracle(dense1, dense2, counts[1])
    except InternalError as exc:
        with pytest.raises(InternalError, match=re.escape(str(exc))):
            cocharacter_group(shell)
        inverse = []
    else:
        assert cocharacter_group(shell) == want
        inverse = [("u", "v")] if want[0] else []
    assert calls == [("v", "v_inv"), ("u",), *inverse]


def _marked_past_the_rank(d2, c1):
    """The Smith diagonal of d^2, V^(-1) and its marks, and whether a row of
    V^(-1) past the rank is marked -1: an aborted pivot step wrote it, so it
    need not be a unit row."""
    _, diag, _, vinv, ve = intmat._eliminate(d2, c1, v_inv=True)
    return diag, vinv, ve, any(k < 0 for k in ve[len(diag) :])


def test_same_as_the_dense_formula_on_random_structures(monkeypatch):
    """cocharacter_group equals the dense formula on random valid
    structures, among them some whose d^2 has an elementary divisor 2, and
    every one of them takes the replay.  The second draw set redraws a face
    triple with no compatible third edge rather than collapsing it onto the
    loop; it holds structures where a row of V^(-1) past the rank of d^2 was
    written by an aborted pivot step (marked -1), the one case whose rows of
    V^(-1) d^1 could fail to be edges, and the replay takes each of them
    too: cocharacter_group runs its one elimination and no second."""
    rng = random.Random(41)
    torsion = replayed = 0
    for k in range(300):
        s = random_simplicial(rng, max_count=(4, 6, 12, 30)[k % 4])
        d1, d2 = simplicial._coboundaries(s)
        diag, vinv, ve, _ = _marked_past_the_rank(d2, s.counts[1])
        torsion += any(x != 1 for x in diag)
        replayed += intmat._forest(intmat._mul_units(vinv, ve, d1)[len(diag) :], s.counts[0]) is not None
        dense1, dense2 = _dense_complex(d1, d2, s.counts)
        assert cocharacter_group(s) == cocharacter_oracle(dense1, dense2, s.counts[1]), s
    assert torsion >= 5
    assert replayed == 300
    rng = random.Random(5)
    marked = 0
    calls = []
    eliminate = intmat._eliminate

    def recording(rows, cols, **flags):
        calls.append(flags)
        return eliminate(rows, cols, **flags)

    monkeypatch.setattr(intmat, "_eliminate", recording)
    for _ in range(4000):
        s = random_simplicial(rng, (4, 14, 14), redraws=50)
        d1, d2 = simplicial._coboundaries(s)
        diag, vinv, ve, past = _marked_past_the_rank(d2, s.counts[1])
        if not past:
            continue
        marked += 1
        assert intmat._forest(intmat._mul_units(vinv, ve, d1)[len(diag) :], s.counts[0]) is not None, s
        dense1, dense2 = _dense_complex(d1, d2, s.counts)
        calls.clear()
        assert cocharacter_group(s) == cocharacter_oracle(dense1, dense2, s.counts[1]), s
        assert calls == [{"v": True, "v_inv": True}], s
    assert marked >= 10
