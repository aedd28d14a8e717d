import contextlib
import copy
import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcrystals.errors import (
    DomainError,
    IncompatibleRingsError,
    MalformedInputError,
    UnsupportedCharacteristicError,
)
import fcrystals.witt as witt
from fcrystals.cli import main
from fcrystals.serialize import ring_from_doc
from fcrystals.witt import (
    RingParams,
    WittElem,
    default_modulus,
    dp_exp,
    dp_log,
    frobenius,
    frobenius_inverse,
    intern_ring,
    reduce_elem,
    teichmuller,
    with_precision,
)

from helpers import (
    WittCoords,
    coords_add,
    coords_mul,
    coords_to_elem,
    dp_exp_oracle,
    dp_log_oracle,
    elem_to_coords,
    exp_oracle,
    irreducible_oracle,
    frobenius_oracle,
    log_oracle,
    residue_pow_p,
)

F9 = RingParams(3, 3, 2, default_modulus(3, 2))
F8 = RingParams(2, 2, 3, default_modulus(2, 3))
F25 = RingParams(5, 3, 2, default_modulus(5, 2))
F27 = RingParams(3, 3, 3, default_modulus(3, 3))


def all_residues(params):
    p, a = params.p, params.a
    out = []
    for code in range(p**a):
        coords = []
        t = code
        for _ in range(a):
            coords.append(t % p)
            t //= p
        out.append(tuple(coords))
    return out


class TestRingParams:
    def test_not_prime(self):
        with pytest.raises(MalformedInputError) as exc:
            RingParams(4, 2)
        assert exc.value.code == "not-prime"

    def test_bad_length(self):
        with pytest.raises(MalformedInputError):
            RingParams(5, 0)

    def test_modulus_required(self):
        with pytest.raises(MalformedInputError):
            RingParams(3, 2, 2)

    def test_modulus_forbidden_for_prime_field(self):
        with pytest.raises(MalformedInputError):
            RingParams(3, 2, 1, (1, 1))

    def test_reducible_modulus(self):
        # t^2 - 1 = (t-1)(t+1) mod 5
        with pytest.raises(MalformedInputError) as exc:
            RingParams(5, 2, 2, (24, 0, 1))
        assert exc.value.code == "reducible-modulus"

    def test_default_modulus_is_irreducible(self):
        assert default_modulus(3, 2) == (1, 0, 1)
        assert default_modulus(2, 3) in ((1, 1, 0, 1), (1, 0, 1, 1))

    def test_degree_one_is_the_prime_field(self):
        """At a = 1 the modulus is t, stored as none, and an element shows its
        one coordinate."""
        assert default_modulus(5, 1) == (0, 1)
        params = RingParams(5, 4)
        assert params.modulus is None and params.residue_modulus() == [0, 1]
        assert repr(params.from_int(7)) == "WittElem((7,), p=5, n=4, a=1)"


class TestStrictInts:
    """The ring and element constructors take ints only: a bool, a float or a
    string is rejected with the document boundary's code, never coerced."""

    @pytest.mark.parametrize(
        "args", [(5, True), (True, 2), (5, 2, True), (5.0, 2), (5, 2.0), (5, "2"), (5, 2, 2.0, (2, 4, 1))]
    )
    def test_ring_fields(self, args):
        with pytest.raises(MalformedInputError) as exc:
            RingParams(*args)
        assert exc.value.code == "bad-type"

    @pytest.mark.parametrize("modulus", [(2, True, 1), (2, 4.0, 1), ("2", 4, 1), 7])
    def test_modulus(self, modulus):
        with pytest.raises(MalformedInputError) as exc:
            RingParams(5, 2, 2, modulus)
        assert exc.value.code == "bad-modulus"

    @pytest.mark.parametrize("coords", [True, 0.7, [True], [1.0], ["1"], [1, 2]])
    def test_elem(self, coords):
        params = RingParams(5, 2)
        for make in (params.elem, lambda c: WittElem(params, c)):
            with pytest.raises(MalformedInputError) as exc:
                make(coords)
            assert exc.value.code == "bad-element"

    @pytest.mark.parametrize("c", [True, 0.7, "1", [1]])
    def test_from_int(self, c):
        with pytest.raises(MalformedInputError) as exc:
            RingParams(5, 2).from_int(c)
        assert exc.value.code == "bad-element"

    @pytest.mark.parametrize("c", [True, 0.7, [0.7], [True], ["1"], [1.0, 0]])
    def test_teichmuller(self, c):
        for params in (RingParams(5, 3), RingParams(3, 2, 2, (2, 2, 1))):
            with pytest.raises(MalformedInputError) as exc:
                teichmuller(params, c)
            assert exc.value.code == "bad-element"

    def test_ints_still_build(self):
        params = RingParams(5, 2, 2, [2, 4, 1])
        assert params.modulus == (2, 4, 1)
        assert params.elem(7).coords == (7, 0)
        assert WittElem(params, [26, -1]).coords == (1, 24)
        assert params.from_int(-1).coords == (24, 0)


class TestInterning:
    """Rings from documents and precision changes are shared objects, so each
    ring's Frobenius tables are built once per process."""

    DOC = {"p": 7, "n": 3, "a": 2, "modulus": list(default_modulus(7, 2))}

    def test_ring_from_doc_is_interned(self):
        assert ring_from_doc(self.DOC) is ring_from_doc(dict(self.DOC))
        assert ring_from_doc({"p": 7, "n": 3}) is ring_from_doc({"p": 7, "n": 3, "a": 1})

    def test_key_is_normalized(self):
        shifted = [c + 7**3 for c in self.DOC["modulus"][:-1]] + [1]
        assert ring_from_doc({**self.DOC, "modulus": shifted}) is ring_from_doc(self.DOC)

    def test_with_precision_is_interned(self):
        params = ring_from_doc(self.DOC)
        assert with_precision(params, 5) is with_precision(params, 5)
        assert with_precision(with_precision(params, 5), 3) is params

    def test_a_known_ring_is_looked_up_not_rebuilt(self, monkeypatch):
        """Arguments that already are an interned ring's key (a document's
        ints, or with_precision's reduced modulus) return the interned object
        with no RingParams built or validated; a bad n still reaches the
        validating constructor."""
        params = ring_from_doc(self.DOC)
        big = with_precision(params, 5)
        ring_from_doc({"p": 7, "n": 1})
        builds = []
        check = RingParams.__post_init__
        monkeypatch.setattr(RingParams, "__post_init__", lambda ring: builds.append(ring) or check(ring))
        assert with_precision(params, 5) is big is ring_from_doc({**self.DOC, "n": 5})
        assert with_precision(big, 3) is params is ring_from_doc(self.DOC) is intern_ring(7, 3, 2, tuple(self.DOC["modulus"]))
        assert builds == []
        for bad in (0, -1):
            with pytest.raises(MalformedInputError) as exc:
                with_precision(params, bad)
            assert exc.value.code == "bad-length"
        with pytest.raises(MalformedInputError) as exc:
            with_precision(ring_from_doc({"p": 7, "n": 3}), True)  # True equals the n = 1 key, but is no int
        assert exc.value.code == "bad-type"
        for bad_mod, code in ((True, "bad-modulus"), ([c + 0.0 for c in self.DOC["modulus"]], "bad-modulus")):
            with pytest.raises(MalformedInputError) as exc:
                intern_ring(7, 3, 2, bad_mod)  # floats equal the interned key, but are no ints
            assert exc.value.code == code
        with pytest.raises(MalformedInputError) as exc:
            intern_ring(7, 3, 1, ())
        assert exc.value.code == "bad-modulus"

    def test_frobenius_table_built_once(self, monkeypatch):
        builds = []
        table = RingParams.__dict__["frobenius_matrix"]

        def counting(self):
            builds.append(self)
            return table.func(self)

        prop = type(table)(counting)
        prop.__set_name__(RingParams, "frobenius_matrix")
        monkeypatch.setattr(RingParams, "frobenius_matrix", prop)
        monkeypatch.setattr(witt, "_RINGS", {})
        for _ in range(3):
            x = ring_from_doc(self.DOC).elem([3, 5])
            frobenius(x)
            frobenius_inverse(x)
        assert len(builds) == 1

    def test_invalid_ring_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(witt, "_RINGS", {})
        with pytest.raises(MalformedInputError):
            ring_from_doc({"p": 4, "n": 3})
        assert witt._RINGS == {}

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(witt, "_RINGS", {})
        for n in range(1, 41):
            ring_from_doc({"p": 3, "n": n})
        assert len(witt._RINGS) == 32
        assert ring_from_doc({"p": 3, "n": 40}) is witt._RINGS[(3, 40, 1, None)]


class TestIrreducibilityMemo:
    """A modulus is tested for irreducibility once per process; every other
    check of RingParams runs on every document whose ring is not already
    interned under the document's own values."""

    DOC = {"p": 7, "n": 3, "a": 2, "modulus": list(default_modulus(7, 2))}

    def test_second_parse_reuses_the_test(self, monkeypatch):
        monkeypatch.setattr(witt, "_RINGS", {})
        witt._irreducible_mod_p.cache_clear()
        shifted = {**self.DOC, "modulus": [c + 7**3 for c in self.DOC["modulus"][:-1]] + [1]}
        # the shifted modulus is no interned key, so it is validated again; the plain one is looked up
        assert ring_from_doc(self.DOC) is ring_from_doc(shifted) is ring_from_doc(dict(self.DOC))
        info = witt._irreducible_mod_p.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize(
        "edit,code", [({"n": True}, "bad-type"), ({"p": 4}, "not-prime"), ({"modulus": [3, 0, 2]}, "bad-modulus")]
    )
    def test_other_checks_still_run(self, edit, code):
        ring_from_doc(self.DOC)
        with pytest.raises(MalformedInputError) as exc:
            ring_from_doc({**self.DOC, **edit})
        assert exc.value.code == code

    def test_reducible_modulus_fails_every_time(self, tmp_path):
        # t^2 - 1 = (t-1)(t+1) mod 5
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({"p": 5, "n": 2, "a": 2, "modulus": [24, 0, 1]}))
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"op": "add", "args": [[1, 0], [2, 0]]}))
        witt._irreducible_mod_p.cache_clear()
        errs = []
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["witt-eval", "--ring", str(ring), "--in", str(doc), "--out", str(tmp_path / "o")])
            assert code == 2
            errs.append(err.getvalue())
        assert json.loads(errs[0])["code"] == "reducible-modulus"
        assert errs[0] == errs[1]
        assert witt._irreducible_mod_p.cache_info().hits == 1

    def test_cache_is_bounded(self):
        assert witt._irreducible_mod_p.cache_info().maxsize == 64

    def test_default_modulus_is_unchanged(self):
        expected = {
            (2, 2): (1, 1, 1),
            (2, 3): (1, 1, 0, 1),
            (2, 4): (1, 1, 0, 0, 1),
            (3, 3): (1, 2, 0, 1),
            (5, 2): (2, 0, 1),
            (5, 3): (1, 1, 0, 1),
        }
        for _ in range(2):
            assert {key: default_modulus(*key) for key in expected} == expected


class TestCopyAndPickle:
    """An element rebuilds through the validating constructor, so copy,
    deepcopy and pickle give an equal, equally hashed, still immutable one."""

    @pytest.mark.parametrize("params", [RingParams(5, 4), F9, F27], ids=["a1", "a2", "a3"])
    def test_round_trips(self, params):
        rng = random.Random(params.a)
        for _ in range(5):
            x = params.elem([rng.randrange(params.pn) for _ in range(params.a)])
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert twin == x and hash(twin) == hash(x) and twin.coords == x.coords
                assert frobenius(twin) == frobenius(x) and twin * x == x * x
                with pytest.raises(AttributeError, match="immutable"):
                    twin.coords = (0,) * params.a

    def test_rebuild_validates(self):
        cls, args = F9.one().__reduce__()
        assert cls is WittElem and args == (F9, (1, 0))
        with pytest.raises(MalformedInputError) as exc:
            cls(F9, (1,))
        assert exc.value.code == "bad-element"


class TestAddMul:
    def test_add_identity(self):
        P = RingParams(7, 3)
        x = P.from_int(123)
        assert x + P.zero() == x

    def test_add_is_plain_mod_pn_for_prime_field(self):
        P = RingParams(5, 3)
        assert (P.from_int(60) + P.from_int(70)).coords == (5,)

    def test_mul_identity(self):
        x = F9.elem([5, 7])
        assert x * F9.one() == x

    def test_incompatible_rings(self):
        with pytest.raises(IncompatibleRingsError):
            RingParams(5, 3).one() + RingParams(5, 2).one()
        with pytest.raises(IncompatibleRingsError):
            RingParams(5, 3).one() * RingParams(7, 3).one()

    def test_unit_inverse(self):
        rng = random.Random(1)
        for params in (RingParams(5, 4), F9, F8, F25, F27):
            for _ in range(20):
                x = params.elem([rng.randrange(params.pn) for _ in range(params.a)])
                if not x.is_unit():
                    continue
                assert x * x.inverse() == params.one()

    def test_valuation(self):
        P = RingParams(5, 4)
        assert P.from_int(0).valuation() == 4
        assert P.from_int(50).valuation() == 2
        assert F25.elem([5, 10]).valuation() == 1
        assert F25.elem([5, 1]).valuation() == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    params = data.draw(st.sampled_from([RingParams(2, 3), RingParams(3, 2), RingParams(5, 3), F9, F8]))
    coords = st.lists(
        st.integers(min_value=0, max_value=params.pn - 1),
        min_size=params.a,
        max_size=params.a,
    )
    x = params.elem(data.draw(coords))
    y = params.elem(data.draw(coords))
    z = params.elem(data.draw(coords))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + params.zero() == x
    assert x * params.one() == x
    assert x + (-x) == params.zero()


class TestTeichmuller:
    def test_zero_one(self):
        P = RingParams(7, 3)
        assert teichmuller(P, 0) == P.zero()
        assert teichmuller(P, 1) == P.one()

    def test_tau2_w2f3(self):
        # 8 = unique lift of 2 with x^3 = x in Z/9
        assert teichmuller(RingParams(3, 2), 2).coords == (8,)

    def test_element_of_another_ring_rejected(self):
        """W_4(F_7)'s 3 is not read as a residue of W_4(F_5) (it used to lift
        to 443), nor an element of another length or modulus."""
        P = RingParams(5, 4)
        for alien in (RingParams(7, 4).from_int(3), RingParams(5, 3).from_int(3), F25.one()):
            with pytest.raises(IncompatibleRingsError):
                teichmuller(P, alien)
        with pytest.raises(IncompatibleRingsError):
            teichmuller(with_precision(F25, 4), F25.elem([2, 1]))

    def test_element_of_an_equal_ring_lifts(self):
        # an equal ring that is not the same object is the same ring
        same = RingParams(5, 4)
        assert same is not intern_ring(5, 4)
        assert teichmuller(intern_ring(5, 4), same.from_int(3)) == teichmuller(same, 3)

    def test_idempotent_f25(self):
        q = 25
        for c in all_residues(F25):
            t = teichmuller(F25, c)
            assert t**q == t
            assert t.residue() == c

    def test_multiplicative_f9_exhaustive(self):
        P = with_precision(F9, 2)
        res = all_residues(P)
        resmod = P.residue_modulus()
        from fcrystals.witt import _pmulmod

        for c in res:
            for d in res:
                prod = _pmulmod(list(c), list(d), resmod, P.p)
                prod = tuple(prod + [0] * (P.a - len(prod)))[: P.a]
                assert teichmuller(P, c) * teichmuller(P, d) == teichmuller(P, prod)


class TestFrobenius:
    def test_identity_on_prime_field(self):
        P = RingParams(5, 4)
        for v in (0, 1, 7, 624):
            x = P.from_int(v)
            assert frobenius(x) == x

    def test_teichmuller_compatibility_f8(self):
        # sigma(tau(c)) = tau(c^p), against the independently Hensel-lifted side
        for c in all_residues(F8):
            lhs = frobenius(teichmuller(F8, c))
            rhs = teichmuller(F8, residue_pow_p(F8, c))
            assert lhs == rhs

    def test_order_a_f9(self):
        rng = random.Random(2)
        for _ in range(100):
            x = F9.elem([rng.randrange(F9.pn), rng.randrange(F9.pn)])
            assert frobenius(frobenius(x)) == x
            assert frobenius_inverse(frobenius(x)) == x

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            x = F27.elem([rng.randrange(F27.pn) for _ in range(3)])
            y = F27.elem([rng.randrange(F27.pn) for _ in range(3)])
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)

    def test_reduces_to_pth_power_mod_p(self):
        rng = random.Random(4)
        for _ in range(30):
            x = F9.elem([rng.randrange(F9.pn), rng.randrange(F9.pn)])
            assert frobenius(x).residue() == (x ** F9.p).residue()


def _galois_rings():
    """W_n(F_{p^a}) for p in {2, 3, 5, 7}, a in {2, 3, 4}, n in {1, 2, 5, 9}, each
    with the default modulus and with a lift whose lower coefficients are
    shifted by multiples of p (a different Galois ring when n > 1)."""
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for a in (2, 3, 4):
            base = default_modulus(p, a)
            for n in (1, 2, 5, 9):
                shifted = tuple(c + p * rng.randrange(1, p**n) for c in base[:-1]) + (1,)
                for kind, modulus in (("default", base), ("shifted", shifted)):
                    yield pytest.param(RingParams(p, n, a, modulus), id=f"p{p}-a{a}-n{n}-{kind}")


GALOIS_RINGS = list(_galois_rings())


def _random_elem(rng, params):
    return params.elem([rng.randrange(params.pn) for _ in range(params.a)])


class TestLinearFrobenius:
    """The matrix kernel against the digit-based oracle and the ring laws."""

    @pytest.mark.parametrize("params", GALOIS_RINGS)
    def test_matches_digit_oracle(self, params):
        rng = random.Random(params.pn + params.a)
        for _ in range(2):
            x = _random_elem(rng, params)
            assert frobenius(x) == frobenius_oracle(x)
            assert frobenius_oracle(frobenius_inverse(x)) == x

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(RingParams(p, n, a, default_modulus(p, a)), id=f"p{p}-a{a}-n{n}")
            for p in (2, 3, 5)
            for a in (4, 5)
            for n in (2, 6)
        ],
    )
    def test_both_directions_match_digit_oracle_past_a_3(self, params):
        """frobenius and frobenius_inverse at a = 4 and 5, where the loop of
        witt._apply runs over more rows of S and S^(a-1) than at the bench's
        a <= 3: each direction against the digit oracle."""
        rng = random.Random(params.p * params.n + params.a)
        for _ in range(4):
            x = _random_elem(rng, params)
            assert frobenius(x) == frobenius_oracle(x)
            assert frobenius_inverse(frobenius_oracle(x)) == x
            assert frobenius_oracle(frobenius_inverse(x)) == x

    @pytest.mark.parametrize("params", GALOIS_RINGS)
    def test_ring_automorphism_of_order_a(self, params):
        rng = random.Random(params.pn * params.a)
        small = with_precision(params, max(1, params.n - 3))
        for _ in range(5):
            x, y = _random_elem(rng, params), _random_elem(rng, params)
            z = x
            for _ in range(params.a):
                z = frobenius(z)
            assert z == x
            assert frobenius_inverse(frobenius(x)) == x
            assert frobenius(frobenius_inverse(x)) == x
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert reduce_elem(frobenius(x), small) == frobenius(reduce_elem(x, small))
            assert reduce_elem(frobenius_inverse(x), small) == frobenius_inverse(reduce_elem(x, small))

    def test_each_lift_has_its_own_table(self):
        base = RingParams(3, 4, 2, default_modulus(3, 2))
        other = RingParams(3, 4, 2, tuple(c + 3 for c in base.modulus[:-1]) + (1,))
        assert base != other
        assert base.frobenius_matrix != other.frobenius_matrix
        assert with_precision(base, 2).frobenius_matrix != base.frobenius_matrix
        for params in (base, other):
            t = params.elem([0, 1])
            assert frobenius(t) == frobenius_oracle(t)

    @pytest.mark.parametrize("params", GALOIS_RINGS)
    def test_reduction_table_is_t_to_the_d(self, params):
        """Row d - a of the table is t^d mod the modulus, for a <= d <= 2a - 2:
        reduce on t^d, and t times the row before, reduced by hand."""
        a, pn, f = params.a, params.pn, params.modulus
        table = params.reduction_table
        assert len(table) == a - 1
        power = tuple(-c % pn for c in f[:a])  # t^a = -(f_0 + ... + f_(a-1) t^(a-1))
        for d, row in enumerate(table, a):
            assert row == params.reduce([0] * d + [1]) == power
            top = power[-1]  # t . t^d: shift up, then replace t^a
            power = tuple((low - top * c) % pn for low, c in zip((0,) + power[:-1], f))
        assert RingParams(5, 3).reduction_table == ()

    def test_no_teichmuller_lifts(self, monkeypatch):
        import fcrystals.witt as witt

        calls = []
        real = witt.teichmuller
        monkeypatch.setattr(witt, "teichmuller", lambda *a: calls.append(a) or real(*a))
        params = RingParams(5, 6, 3, default_modulus(5, 3))
        x = params.elem([7, 11, 13])
        frobenius(x)
        frobenius_inverse(x)
        assert calls == []


class TestDividedPowers:
    def test_exp_zero(self):
        P = RingParams(5, 3)
        assert dp_exp(P.zero()) == P.one()

    def test_exp5_is_81_w3f5(self):
        P = RingParams(5, 3)
        assert dp_exp(P.from_int(5)).coords == (81,)
        assert exp_oracle(5, 5, 3) == 81

    def test_log_81_is_5(self):
        P = RingParams(5, 3)
        assert dp_log(P.from_int(81)).coords == (5,)
        assert log_oracle(81, 5, 3) == 5

    def test_log_one(self):
        assert dp_log(RingParams(7, 4).one()).coords == (0,)

    def test_exp_against_series_oracle(self):
        for p, n in ((3, 4), (5, 3), (7, 4)):
            P = RingParams(p, n)
            for k in range(1, 12):
                x = (k * p) % P.pn
                assert dp_exp(P.from_int(x)).coords == (exp_oracle(x, p, n),)

    def test_log_against_series_oracle(self):
        for p, n in ((3, 4), (5, 3), (7, 4)):
            P = RingParams(p, n)
            for k in range(12):
                u = (1 + k * p) % P.pn
                assert dp_log(P.from_int(u)).coords == (log_oracle(u, p, n),)

    def test_exp_homomorphism_w4f7(self):
        P = RingParams(7, 4)
        assert dp_exp(P.from_int(7)) * dp_exp(P.from_int(7)) == dp_exp(P.from_int(14))

    def test_log_homomorphism_w3f27(self):
        rng = random.Random(5)
        for _ in range(200):
            u = F27.one() + F27.elem([3 * rng.randrange(9) for _ in range(3)])
            v = F27.one() + F27.elem([3 * rng.randrange(9) for _ in range(3)])
            assert dp_log(u * v) == dp_log(u) + dp_log(v)

    def test_roundtrip(self):
        rng = random.Random(6)
        for p in (3, 5, 7):
            for n in (2, 3, 4):
                P = RingParams(p, n)
                for _ in range(25):
                    x = P.from_int(p * rng.randrange(P.pn // p))
                    assert dp_log(dp_exp(x)) == x
                    u = P.from_int(1 + p * rng.randrange(P.pn // p))
                    assert dp_exp(dp_log(u)) == u

    def test_roundtrip_extension_field(self):
        rng = random.Random(7)
        for _ in range(10):
            x = F9.elem([3 * rng.randrange(9), 3 * rng.randrange(9)])
            assert dp_log(dp_exp(x)) == x

    def test_p2_rejected(self):
        P = RingParams(2, 3)
        with pytest.raises(UnsupportedCharacteristicError):
            dp_exp(P.from_int(2))
        with pytest.raises(UnsupportedCharacteristicError):
            dp_log(P.from_int(3))

    def test_domain_errors(self):
        P = RingParams(5, 3)
        with pytest.raises(DomainError):
            dp_exp(P.from_int(1))
        with pytest.raises(DomainError):
            dp_log(P.from_int(2))


class TestDividedPowerOracle:
    """dp_exp and dp_log against sums with a fixed generous rule (every
    m <= 3n + p at precision 3n + p), which share no cutoff or buffer with
    the package: for a in {1, 2, 3}, p in {3, 5, 7} and n in 1..8, on 0, p,
    and elements of valuation 1 and 2."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_series_match_oracle(self, a, p):
        rng = random.Random(100 * a + p)
        for n in range(1, 9):
            params = RingParams(p, n, a, default_modulus(p, a) if a > 1 else None)
            xs = [params.zero(), params.from_int(p)]
            for v in (1, 2):
                unit = [rng.randrange(params.pn) for _ in range(a)]
                unit[0] = unit[0] - unit[0] % p + 1  # a unit, so p^v * unit has valuation v
                xs.append(params.elem([p**v * c for c in unit]))
            for x in xs:
                assert dp_exp(x) == dp_exp_oracle(x), (n, x)
                u = params.one() + x
                assert dp_log(u) == dp_log_oracle(u), (n, u)


class TestIrreducibilityOracle:
    """_irreducible_mod_p on every monic degree-a polynomial mod p against
    the brute-force search for a monic factor of degree <= a/2."""

    @pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
    def test_every_monic_polynomial(self, p, a):
        test = witt._irreducible_mod_p.__wrapped__  # the test itself, not its memo
        for tail in range(p**a):
            f = tuple((tail // p**i) % p for i in range(a)) + (1,)
            assert test(f, p, a) == irreducible_oracle(f, p, a), f


class TestWittCoordinates:
    def test_add_example_w2f2(self):
        assert coords_add(WittCoords(2, (1, 0)), WittCoords(2, (1, 0))).digits == (0, 1)

    def test_mul_example_w3f2(self):
        assert coords_mul(WittCoords(2, (0, 1, 0)), WittCoords(2, (0, 1, 0))).digits == (0, 0, 1)

    def test_bijection_roundtrip(self):
        P = RingParams(3, 3)
        for v in range(27):
            x = P.from_int(v)
            assert coords_to_elem(elem_to_coords(x), P) == x

    def test_ghost_arithmetic_matches_zpn(self):
        # light version of the exhaustive acceptance check
        P = RingParams(3, 2)
        for u in range(9):
            for v in range(9):
                xu, xv = P.from_int(u), P.from_int(v)
                cu, cv = elem_to_coords(xu), elem_to_coords(xv)
                assert coords_to_elem(coords_add(cu, cv), P) == xu + xv
                assert coords_to_elem(coords_mul(cu, cv), P) == xu * xv

    def test_extension_field_rejected(self):
        with pytest.raises(IncompatibleRingsError):
            elem_to_coords(F9.one())
