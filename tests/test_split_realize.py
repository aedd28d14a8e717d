"""The realization of a split presentation, whose ext blocks hold no nonzero
entry, is the direct sum of its graded blocks (Andreatta and Barbieri-Viale,
Crystalline realizations of 1-motives, sections 1-2; Deligne, Theorie de
Hodge III, section 10): onemotive._realize takes V as the block diagonal of
the graded blocks' V, with no lift and no product, and gives the rows of the
former product path (tests/helpers.realize_product_path).  A presentation
with one nonzero ext entry takes the product path.  The default abelian
block of dimension g keeps the block diagonal of its companion's lift, and
a caller block that does not lift exactly still raises on a split
presentation."""

import random
from collections import Counter

import pytest

import fcrystals.onemotive as onemotive
import fcrystals.simplicial as simplicial
from fcrystals.blocks import AbelianBlock, LatticeData, TorusData, _lift
from fcrystals.errors import FCrystalsError, InvalidExtensionDataError, UnsupportedInputError
from fcrystals.onemotive import OneMotiveSpec, assemble
from fcrystals.semilinear import FilteredFModule, _sigma_rows
from fcrystals.simplicial import PicardSkeleton, h1_weight_ledger
from fcrystals.witt import RingParams, default_modulus, with_precision
from helpers import (
    cube_root_block,
    random_abelian,
    random_signed_permutation,
    realize_oracle,
    realize_product_path,
    slope_half_block,
    wmat,
)

P54 = RingParams(5, 4)
F4 = RingParams(2, 5, 2, default_modulus(2, 2))
F9 = RingParams(3, 5, 2, default_modulus(3, 2))
F8 = RingParams(2, 7, 3, default_modulus(2, 3))


def _data(rng: random.Random, rank: int) -> LatticeData:
    """Trivial or signed-permutation data of the rank, half and half."""
    if rng.random() < 0.5:
        return LatticeData.trivial(rank)
    return LatticeData(rank, random_signed_permutation(rng, rank))


def _abelian(rng: random.Random, params: RingParams, g: int) -> AbelianBlock:
    """A block of dimension g: at a = 1 the default block or a sum of random
    companion blocks; at a > 1 g copies of the ring's slope-1/2 caller block."""
    if params.a == 1:
        return simplicial._default_abelian(g, params) if rng.random() < 0.5 else random_abelian(rng, params, g)
    block = AbelianBlock.empty(params)
    for _ in range(g):
        block = block + (cube_root_block(params) if params is F4 else slope_half_block(params))
    return block


def _split_spec(rng: random.Random, params: RingParams) -> OneMotiveSpec:
    rX, rT, g = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 3)
    return OneMotiveSpec.split(params, _data(rng, rX), _data(rng, rT), _abelian(rng, params, g), "split")


def _outcome(realize, s):
    """The rows of realize(s), or the type and message of its error."""
    try:
        m = realize(s)
    except FCrystalsError as exc:
        return "error", type(exc), str(exc)
    return "module", m.rank, m.weights, m.level, m.f_rows, m.v_rows


@pytest.fixture
def counts(monkeypatch):
    """Calls of the product path and its products, counted from here on."""
    counts = Counter()
    for name in ("_v_above", "_mul", "_lift"):
        original = getattr(onemotive, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(onemotive, name, wrapper)
    return counts


@pytest.mark.parametrize("params", [P54, RingParams(3, 5), F4, F9, F8], ids=["f5", "f3", "f4", "f9", "f8"])
def test_split_realization_is_the_product_path(params, counts):
    """Random split presentations (ranks 0 to 6, g 0 to 3, trivial and
    signed-permutation actions, caller blocks at a > 1) give the rows of the
    product path, and of the elementwise oracle, with no product."""
    rng = random.Random(34 + params.pn)
    for _ in range(25):
        s = _split_spec(rng, params)
        got = _outcome(onemotive._realize, s)
        assert counts == Counter(), s.segments
        assert got[0] == "module" and got == _outcome(realize_product_path, s)
        assert got == _outcome(realize_oracle, s)


def _one_entry(rng: random.Random, s: OneMotiveSpec) -> OneMotiveSpec | None:
    """s with one nonzero entry in one of its ext blocks of nonzero size
    (in ext_xa a multiple of p or not, so that V is integral or is not), or
    None when every ext block is empty."""
    params = s.params
    ext = [[list(row) for row in blk] for blk in s.ext_rows]
    sized = [k for k, blk in enumerate(ext) if blk and blk[0]]
    if not sized:
        return None
    k = rng.choice(sized)
    i, j = rng.randrange(len(ext[k])), rng.randrange(len(ext[k][0]))
    c = [rng.randrange(params.pn) for _ in range(params.a)]
    if k == 1 and rng.random() < 0.5:  # p times an entry of ext_xa keeps V integral
        c = [x * params.p % params.pn for x in c]
    if not any(c):
        c[0] = params.p
    ext[k][i][j] = tuple(c)
    return OneMotiveSpec._of_rows(params, s.lattice, s.torus, s.abelian, tuple(ext), "one entry")


@pytest.mark.parametrize("params", [P54, RingParams(3, 5), F4, F9], ids=["f5", "f3", "f4", "f9"])
def test_one_ext_entry_takes_the_product_path(params, counts):
    """A presentation with exactly one nonzero ext entry takes the product
    path once, and gives its rows or its error."""
    rng = random.Random(340 + params.pn)
    taken = errors = 0
    while taken < 20:
        s = _one_entry(rng, _split_spec(rng, params))
        if s is None:
            continue
        counts.clear()
        got = _outcome(onemotive._realize, s)
        assert counts["_v_above"] == 1
        assert got == _outcome(realize_product_path, s)
        taken += 1
        errors += got[:2] == ("error", InvalidExtensionDataError)
    assert errors < taken


@pytest.mark.parametrize("params", [P54, RingParams(3, 5), RingParams(2, 5)], ids=["f5", "f3", "f2"])
@pytest.mark.parametrize("g", range(1, 7))
def test_default_abelian_keeps_the_block_diagonal_lift(params, g):
    """The lift _default_abelian keeps is sigma of the balanced lift of the
    sum's V, and the same as the lift a block of that module computes and
    checks itself."""
    block = simplicial._default_abelian(g, params)
    assert "_sigma_v_lift" in block.__dict__
    big = with_precision(params, params.n + 2)
    want = _sigma_rows(big, _lift(params, big, block.crystal.v_rows), "frobenius_matrix")
    assert block._sigma_v_lift == want
    assert AbelianBlock(g, block.crystal)._sigma_v_lift == want


def _not_lifting() -> AbelianBlock:
    """F = diag(u, p u), V = diag(p/u, 1/u) over W_4(F_5): it verifies, but
    the balanced lift of 1/u is not an integer inverse of u."""
    u, uinv = 2, pow(2, -1, P54.pn)
    module = FilteredFModule(
        P54, 2, (-1, -1), wmat(P54, [[u, 0], [0, 5 * u]]), wmat(P54, [[5 * uinv, 0], [0, uinv]]), 1
    )
    return AbelianBlock.from_module(module)


@pytest.mark.parametrize("ranks", [(0, 0), (1, 1), (2, 3)])
def test_a_block_that_does_not_lift_raises_on_a_split_spec(ranks, counts):
    """The split path reads the abelian block's lift first, so a caller block
    that does not lift exactly raises the product path's error, with no
    product, through assemble and h1_weight_ledger alike."""
    block = _not_lifting()
    s = OneMotiveSpec.split(P54, LatticeData.trivial(ranks[0]), TorusData.trivial(ranks[1]), block)
    got = _outcome(onemotive._realize, s)
    assert got[:2] == ("error", UnsupportedInputError) and "does not lift exactly" in got[2]
    assert got == _outcome(realize_product_path, s)
    with pytest.raises(UnsupportedInputError, match="does not lift exactly"):
        assemble(s)
    with pytest.raises(UnsupportedInputError, match="does not lift exactly"):
        h1_weight_ledger(PicardSkeleton(ranks[0], ranks[1], 1), P54, block)
    assert counts == Counter()
