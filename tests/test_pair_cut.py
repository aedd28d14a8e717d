"""pair reads the Frobenius and Verschiebung identities off the self-check
of the motive's module where that report decides them, and makes the
products elsewhere: the same PairingMatrix as the dense reference
tests/helpers.pair_oracle on assembled pairs over W_6(F_p), p in {2, 3, 5,
7}, and over Galois rings with both test blocks, on modules with one F or
one V entry tampered, at level 2, without V, and against a dual with one F
entry tampered.  A self-check that passes a wrong product makes the
comparison fail.  The canonical dual built in one pass is the twisted dual
relabelled, entry by entry against witt.frobenius and frobenius_inverse."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fcrystals.onemotive as onemotive
from fcrystals.onemotive import MotiveCrystal, assemble, cartier_dual, pair
from fcrystals.semilinear import twisted_dual, verify
from fcrystals.witt import RingParams, default_modulus

from helpers import (
    conjugate_by_permutation,
    cube_root_block,
    mat_sigma,
    mat_sigma_inv,
    mat_transpose,
    pair_oracle,
    random_galois_motive_spec,
    random_motive_spec,
    slope_half_block,
)

# (ring, abelian test block): None draws random_motive_spec's companion blocks
RINGS = [(RingParams(p, 6), None) for p in (2, 3, 5, 7)] + [
    (RingParams(3, 5, 2, default_modulus(3, 2)), slope_half_block),
    (RingParams(2, 7, 3, default_modulus(2, 3)), slope_half_block),
    (RingParams(2, 5, 2, (1, 1, 1)), cube_root_block),
]
RING_IDS = [f"p{r.p}n{r.n}a{r.a}" + (f"-{b.__name__}" if b else "") for r, b in RINGS]
KINDS = ("assembled", "F", "V", "level 2", "no V", "dual F")

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tampered(module, what: str, rng: random.Random):
    """module with one entry of its F or V (what) moved by a unit times p^v,
    0 <= v < n, so that the change may sit in the top p-adic digit alone."""
    params = module.params
    mat = [list(row) for row in getattr(module, what)]
    i, j = rng.randrange(module.rank), rng.randrange(module.rank)
    delta = rng.randrange(1, params.p) * params.p ** rng.randrange(params.n)
    mat[i][j] = mat[i][j] + params.from_int(delta)
    return dataclasses.replace(module, **{what: tuple(map(tuple, mat))})


def _case(ring: int, kind: str, seed: int):
    """(m, m_dual) of the given kind, drawn from seed over RINGS[ring].  A
    presentation of rank 0, which has no entry to tamper, stays assembled."""
    params, block = RINGS[ring]
    rng = random.Random(seed)
    s = random_galois_motive_spec(rng, params, block=block) if block else random_motive_spec(rng, params)
    m, d = assemble(s), assemble(cartier_dual(s))
    mod = m.module
    if kind == "assembled" or not mod.rank:
        return m, d
    if kind == "dual F":
        return m, MotiveCrystal(_tampered(d.module, "f_mat", rng), d.provenance)
    if kind == "level 2":
        return MotiveCrystal(dataclasses.replace(mod, level=2), s), d
    if kind == "no V":
        return MotiveCrystal(dataclasses.replace(mod, v_mat=None), s), d
    return MotiveCrystal(_tampered(mod, f"{kind.lower()}_mat", rng), s), d


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", range(len(RINGS)), ids=RING_IDS)
@SETTINGS
@given(st.integers(0, 2**32))
def test_pair_matches_the_dense_oracle(ring, kind, seed):
    m, d = _case(ring, kind, seed)
    assert pair(m, d) == pair_oracle(m, d)


@pytest.mark.parametrize("ring", [0, 2, 4, 6], ids=[RING_IDS[i] for i in (0, 2, 4, 6)])
def test_each_identity_fails_somewhere(ring):
    """The tampered kinds reach both failing identities and both paths of
    pair: the Frobenius identity read off the report (F tampered, the dual
    as assembled) and made as a product (the dual's F tampered)."""
    failed = set()
    for seed in range(12):
        for kind in ("F", "V", "dual F"):
            m, d = _case(ring, kind, seed)
            got = pair(m, d)
            assert got == pair_oracle(m, d)
            failed |= {(kind, f) for f in ("frobenius", "verschiebung") if not getattr(got, f"{f}_compatible")}
    assert {("F", "frobenius"), ("V", "verschiebung"), ("dual F", "frobenius")} <= failed


@pytest.mark.parametrize("product", ["fv-product", "vf-product"])
def test_a_self_check_that_passes_a_wrong_product_is_caught(monkeypatch, product):
    """The mutation check of the cut: with a self-check whose fv-product
    (vf-product) passes wherever it fails, pair differs from the oracle on
    some tampered module, so the comparison above would fail."""

    def passing(module):
        rep = verify(module)
        checks = tuple(dataclasses.replace(c, ok=True) if c.name == product else c for c in rep.checks)
        return dataclasses.replace(rep, checks=checks)

    monkeypatch.setattr(onemotive, "verify", passing)
    mismatched = 0
    for seed in range(6):
        for kind in ("F", "V"):
            m, d = _case(2, kind, seed)
            mismatched += pair(m, d) != pair_oracle(m, d)
    assert mismatched


def _relabelled_dual_oracle(module, order):
    """The twisted dual with e'_k = e_{order[k]}, entry by entry:
    F'[k][l] = sigma(V[order[l]][order[k]]), V'[k][l] = sigma^(-1)(F[order[l]][order[k]])."""
    f, v = mat_sigma(mat_transpose(module.v_mat)), mat_sigma_inv(mat_transpose(module.f_mat))
    relabel = lambda mat: tuple(tuple(mat[i][j] for j in order) for i in order)  # noqa: E731
    return tuple(-2 - module.weights[i] for i in order), relabel(f), relabel(v)


@pytest.mark.parametrize("ring", range(len(RINGS)), ids=RING_IDS)
@SETTINGS
@given(st.sampled_from(("assembled", "F", "V")), st.integers(0, 2**32))
def test_canonical_dual_is_the_relabelled_twisted_dual(ring, kind, seed):
    """MotiveCrystal.canonical_dual, one pass, against the twisted dual
    relabelled by _dual_permutation and against the entrywise oracle; and
    twisted_dual against the oracle on the reversed basis."""
    m, _ = _case(ring, kind, seed)
    rT, g2, rX = m.provenance.segments
    perm = onemotive._dual_permutation(rX, g2, rT)
    c = m.canonical_dual
    assert c == conjugate_by_permutation(twisted_dual(m.module), perm)
    assert (c.weights, c.f_mat, c.v_mat) == _relabelled_dual_oracle(m.module, [c.rank - 1 - k for k in perm])
    td = twisted_dual(m.module)
    assert (td.weights, td.f_mat, td.v_mat) == _relabelled_dual_oracle(m.module, range(td.rank - 1, -1, -1))
    assert (c.level, td.level) == (m.module.level,) * 2
