"""Seeded input generators and output checks for the three benchmark workloads.

Every generator returns a list of `Call`s, one cycle of the closed loop.  The
documents are built here in plain integers, independently of the library, so
that neither a test edit nor a library change can move a workload; only the
tampered `motive-batch` documents start from the program's own
`motive-assemble` output, the way a user would produce them.

Document sizes follow a fixed schedule drawn from a constant seed; the
`--seed` argument draws the contents (entries, actions, traces, face maps).
The cost of a call depends mostly on its sizes, so the schedule keeps runs
on different seeds comparable while every seed still gives new inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Call:
    """One `fcrystals` invocation: verb, `--in` documents, optional `--ring`
    document, the exit status it must end with, and what its output must show."""

    verb: str
    docs: list
    ring: dict | None = None
    exit_code: int = 0
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Galois ring W_n(F_{p^a}) = (Z/p^n)[t]/(f), written independently of fcrystals


class GaloisRing:
    """Elements are coefficient tuples (c_0, ..., c_{a-1}) mod p^n over the
    basis 1, t, ..., t^(a-1), the layout the library's JSON documents use.
    sigma is the ring automorphism with sigma(t) = s, the Hensel lift of the
    root of f congruent to t^p, so sigma(x) = sum c_i s^i."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p, self.n, self.a = p, n, len(modulus) - 1
        self.pn = p**n
        self.f = tuple(c % self.pn for c in modulus)
        t = self.elem([0, 1]) if self.a > 1 else self.elem([1])
        s = self.power(t, p)
        df = [(i * c) % self.pn for i, c in enumerate(self.f)][1:]
        for _ in range(n.bit_length() + 1):
            s = self.sub(s, self.mul(self._poly_at(self.f, s), self.inv(self._poly_at(df, s))))
        self.s_pows = [self.one()]
        for _ in range(1, self.a):
            self.s_pows.append(self.mul(self.s_pows[-1], s))

    def elem(self, coeffs) -> tuple[int, ...]:
        coeffs = list(coeffs) + [0] * (self.a - len(coeffs))
        return tuple(c % self.pn for c in coeffs)

    def one(self) -> tuple[int, ...]:
        return self.elem([1])

    def zero(self) -> tuple[int, ...]:
        return self.elem([])

    def add(self, x, y):
        return tuple((u + v) % self.pn for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple((u - v) % self.pn for u, v in zip(x, y))

    def mul(self, x, y):
        a, f = self.a, self.f
        prod = [0] * (2 * a - 1)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    prod[i + j] += u * v
        for k in range(2 * a - 2, a - 1, -1):
            c = prod[k]
            if c:
                for i in range(a + 1):
                    prod[k - a + i] -= c * f[i]
        return tuple(c % self.pn for c in prod[:a])

    def power(self, x, e: int):
        out = self.one()
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def _poly_at(self, poly, x):
        acc = self.zero()
        for c in reversed(poly):
            acc = self.add(self.mul(acc, x), self.elem([c]))
        return acc

    def inv(self, x):
        """Residue-field inverse by search over F_q, then Newton y <- y(2 - xy)."""
        p, a = self.p, self.a
        res = [c % p for c in x]
        y = None
        for k in range(1, p**a):
            cand = self.elem([(k // p**i) % p for i in range(a)])
            if all(c % p == (i == 0) for i, c in enumerate(self.mul(x, cand))):
                y = cand
                break
        if y is None:
            raise ValueError(f"{res} is not a unit")
        two = self.elem([2])
        for _ in range(self.n.bit_length()):
            y = self.mul(y, self.sub(two, self.mul(x, y)))
        return y

    def sigma(self, x):
        acc = self.zero()
        for c, sp in zip(x, self.s_pows):
            acc = self.add(acc, tuple(c * v for v in sp))
        return acc

    def sigma_inv(self, x):
        for _ in range(self.a - 1):
            x = self.sigma(x)
        return x

    def rand(self, rng: random.Random):
        return tuple(rng.randrange(self.pn) for _ in range(self.a))

    def rand_unit(self, rng: random.Random):
        return (rng.randrange(1, self.p) + self.p * rng.randrange(self.pn // self.p),) + tuple(
            rng.randrange(self.pn) for _ in range(self.a - 1)
        )

    def matmul(self, x, y):
        return [
            [self._dot(row, [y[k][j] for k in range(len(y))]) for j in range(len(y[0]))]
            for row in x
        ]

    def _dot(self, u, v):
        acc = self.zero()
        for s, t in zip(u, v):
            acc = self.add(acc, self.mul(s, t))
        return acc

    def upper_inverse(self, g):
        """Inverse of an upper-triangular matrix with unit diagonal entries."""
        r = len(g)
        out = [[self.zero()] * r for _ in range(r)]
        for i in range(r - 1, -1, -1):
            d = self.inv(g[i][i])
            out[i][i] = d
            for j in range(i + 1, r):
                acc = self.zero()
                for k in range(i + 1, j + 1):
                    acc = self.add(acc, self.mul(g[i][k], out[k][j]))
                out[i][j] = self.sub(self.zero(), self.mul(d, acc))
        return out


# ---------------------------------------------------------------------------
# shared helpers


def _signed_permutation(rng: random.Random, r: int) -> list[list[int]]:
    perm = list(range(r))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(r)]
    return [[signs[i] if perm[i] == j else 0 for j in range(r)] for i in range(r)]


def _int_matmul(x, y, mod: int):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) % mod for j in range(len(y[0]))] for i in range(len(x))]


def _rank_over_q(mat: list[list[int]]) -> int:
    """Rank by Fraction Gaussian elimination (an oracle independent of intmat)."""
    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c:
                q = c / prow[col]
                rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def _sizes(workload: str) -> random.Random:
    return random.Random(f"fcrystals-bench-sizes:{workload}")


# ---------------------------------------------------------------------------
# motive-batch: batch motive-verify over W_6(F_5)

MB_RING = {"p": 5, "n": 6, "a": 1}
MB_DOCS = 160
MB_BATCH = 8


def _abelian_doc(rng: random.Random, g: int) -> tuple[dict | None, list[list[int]]]:
    """Direct sum of g companion blocks F = [[0,-p],[1,a_p]], V = [[a_p,p],[-1,0]]
    (the library's `abelian_from_ap` model at q = p), as a `crystal` document."""
    p, pn = MB_RING["p"], MB_RING["p"] ** MB_RING["n"]
    g2 = 2 * g
    f = [[0] * g2 for _ in range(g2)]
    v = [[0] * g2 for _ in range(g2)]
    traces = [t for t in range(-2, 3) if t * t <= 4 * p]
    for b in range(g):
        ap = rng.choice(traces)
        o = 2 * b
        f[o][o], f[o][o + 1], f[o + 1][o], f[o + 1][o + 1] = 0, -p, 1, ap
        v[o][o], v[o][o + 1], v[o + 1][o], v[o + 1][o + 1] = ap, p, -1, 0
    f = [[x % pn for x in row] for row in f]
    v = [[x % pn for x in row] for row in v]
    if not g:
        return None, f
    crystal = {
        "ring": MB_RING,
        "rank": g2,
        "weights": [-1] * g2,
        "F": [[[x] for x in row] for row in f],
        "V": [[[x] for x in row] for row in v],
        "level": 1,
    }
    return {"crystal": crystal}, f


def _motive_spec_doc(rng: random.Random, r_x: int, r_t: int, g: int, label: str) -> dict:
    """Port of the criterion-5 generator: signed-permutation actions, companion
    abelian blocks, random ext_at / ext_xt, ext_xa in the image of F_A."""
    pn = MB_RING["p"] ** MB_RING["n"]
    lattice = _signed_permutation(rng, r_x)
    torus = _signed_permutation(rng, r_t)
    abelian, f_a = _abelian_doc(rng, g)
    g2 = 2 * g

    def rand_mat(rows: int, cols: int):
        return [[rng.randrange(pn) for _ in range(cols)] for _ in range(rows)]

    ext_at = rand_mat(r_t, g2)
    ext_xt = rand_mat(r_t, r_x)
    ext_xa = _int_matmul(f_a, rand_mat(g2, r_x), pn) if g2 and r_x else [[] for _ in range(g2)]

    def wdoc(m):
        return [[[x] for x in row] for row in m]

    return {
        "ring": MB_RING,
        "lattice": {"rank": r_x, "sigma": lattice},
        "torus": {"rank": r_t, "sigma": torus},
        "abelian": abelian,
        "ext": {"AT": wdoc(ext_at), "XA": wdoc(ext_xa), "XT": wdoc(ext_xt)},
        "label": label,
    }


def _tamper(rng: random.Random, module: dict) -> dict:
    """Add unit * p^v (v <= n-2, so not a multiple of p^(n-1)) to one F entry
    (i, j) with w_i <= w_j: the flag still holds, F sigma(V) = p does not."""
    p, n = MB_RING["p"], MB_RING["n"]
    w = module["weights"]
    cells = [(i, j) for i in range(len(w)) for j in range(len(w)) if w[i] <= w[j]]
    i, j = rng.choice(cells)
    delta = rng.randrange(1, p) * p ** rng.randrange(n - 1)
    out = json.loads(json.dumps(module))
    out["F"][i][j][0] = (out["F"][i][j][0] + delta) % p**n
    return out


def motive_batch(seed: int, assemble) -> list[Call]:
    """`assemble(spec_doc) -> module_doc` runs the program's motive-assemble."""
    sizes = _sizes("motive-batch")
    rng = random.Random(seed)
    docs, expects = [], []
    for i in range(MB_DOCS):
        tampered = i % 10 == 9
        while True:
            r_x, r_t, g = sizes.randint(0, 3), sizes.randint(0, 3), sizes.randint(0, 2)
            if not tampered or r_x + r_t + g:
                break
        doc = _motive_spec_doc(rng, r_x, r_t, g, f"mb-{seed}-{i}")
        if tampered:
            doc["module"] = _tamper(rng, assemble(doc))
        docs.append(doc)
        expects.append({"tampered": tampered, "graded_ranks": {"gr0": r_x, "gr-1": 2 * g, "gr-2": r_t}})
    calls = []
    for b in range(0, MB_DOCS, MB_BATCH):
        chunk = expects[b : b + MB_BATCH]
        exit_code = 1 if any(e["tampered"] for e in chunk) else 0
        calls.append(Call("motive-verify", docs[b : b + MB_BATCH], None, exit_code, {"docs": chunk}))
    return calls


def _check_motive_batch(call: Call, out: dict, paths: list[str]) -> str | None:
    if sorted(out) != sorted(paths):
        return "batch report keys differ from the input paths"
    for path, exp in zip(paths, call.expect["docs"]):
        entry = out[path]
        report = entry["report"]
        failed = [it["item"] for it in report["items"] if not it["ok"]]
        if exp["tampered"]:
            if entry["ok"] or "4.b" not in failed:
                return f"{path}: tampered document must fail item 4.b, failed {failed}"
        else:
            if not entry["ok"] or failed:
                return f"{path}: valid document failed items {failed}"
            if report["graded_ranks"] != exp["graded_ranks"]:
                return f"{path}: graded ranks {report['graded_ranks']} != {exp['graded_ranks']}"
    return None


# ---------------------------------------------------------------------------
# crystal-galois: crystal-* verbs over W_n(F_{p^a}), a in {2, 3}

# irreducible mod p, monic, low-to-high coefficients
CG_MODULI = {(3, 2): (1, 0, 1), (5, 2): (2, 0, 1), (3, 3): (1, 2, 0, 1), (5, 3): (1, 1, 0, 1)}

# (p, a, (#tate(1), #slope-1/2 blocks, #tate(0))) for the single-module verbs
CG_SHAPES = [
    (3, 2, (1, 0, 1)),
    (5, 2, (1, 1, 0)),
    (3, 3, (0, 1, 0)),
    (5, 2, (1, 1, 1)),
    (3, 2, (0, 1, 1)),
    (5, 3, (1, 0, 1)),
    (3, 3, (1, 1, 0)),
    (5, 2, (2, 1, 1)),
    (3, 2, (1, 2, 1)),
    (5, 3, (1, 1, 1)),
]
# tensor operands: rank <= 3 each
CG_TENSOR_SHAPES = [
    (3, 2, (1, 0, 0), (1, 0, 1)),
    (5, 2, (0, 1, 0), (1, 0, 1)),
    (3, 3, (1, 0, 1), (0, 0, 1)),
    (5, 2, (1, 1, 0), (0, 1, 0)),
    (3, 2, (0, 1, 1), (1, 1, 0)),
]
CG_VERBS = ("crystal-verify", "crystal-slopes", "crystal-dual")
CG_ROUNDS = 2


def _galois_module(rng: random.Random, ring: GaloisRing, counts: tuple[int, int, int]) -> dict:
    """tate(1)^k1 + B^k2 + tate(0)^k3 with B: F = V = [[0,p],[1,0]], conjugated
    by a random upper-triangular g with unit diagonal (so g keeps the flag):
    F -> g^-1 F sigma(g), V -> g^-1 V sigma^-1(g)."""
    k1, k2, k3 = counts
    p = ring.p
    r = k1 + 2 * k2 + k3
    weights = [-2] * k1 + [-1] * (2 * k2) + [0] * k3
    f = [[0] * r for _ in range(r)]
    v = [[0] * r for _ in range(r)]
    for i in range(k1):
        f[i][i], v[i][i] = 1, p
    for b in range(k2):
        o = k1 + 2 * b
        f[o][o + 1] = v[o][o + 1] = p
        f[o + 1][o] = v[o + 1][o] = 1
    for i in range(k1 + 2 * k2, r):
        f[i][i], v[i][i] = p, 1
    f = [[ring.elem([x]) for x in row] for row in f]
    v = [[ring.elem([x]) for x in row] for row in v]
    g = [
        [ring.rand_unit(rng) if i == j else (ring.rand(rng) if i < j else ring.zero()) for j in range(r)]
        for i in range(r)
    ]
    ginv = ring.upper_inverse(g)
    sg = [[ring.sigma(x) for x in row] for row in g]
    sig = [[ring.sigma_inv(x) for x in row] for row in g]
    f2 = ring.matmul(ginv, ring.matmul(f, sg))
    v2 = ring.matmul(ginv, ring.matmul(v, sig))
    return {
        "ring": {"p": p, "n": ring.n, "a": ring.a, "modulus": list(ring.f)},
        "rank": r,
        "weights": weights,
        "F": [[list(x) for x in row] for row in f2],
        "V": [[list(x) for x in row] for row in v2],
        "level": 1,
    }


def _ring_for(p: int, a: int, rank: int, rings: dict) -> GaloisRing:
    n = rank * a + 1  # the least precision crystal-slopes accepts
    key = (p, a, n)
    if key not in rings:
        rings[key] = GaloisRing(p, n, CG_MODULI[(p, a)])
    return rings[key]


def _slopes_expect(counts) -> list[dict]:
    k1, k2, k3 = counts
    pairs = [("0", k1), ("1/2", 2 * k2), ("1", k3)]
    return [{"slope": s, "mult": m} for s, m in pairs if m]


def crystal_galois(seed: int) -> list[Call]:
    rng = random.Random(seed)
    rings: dict = {}
    calls = []
    # each verb meets every shape CG_ROUNDS times per cycle; a tensor call
    # follows every second shape
    for k in range(CG_ROUNDS * len(CG_SHAPES)):
        for v_idx, verb in enumerate(CG_VERBS):
            p, a, counts = CG_SHAPES[(k + v_idx) % len(CG_SHAPES)]
            rank = sum(counts) + counts[1]
            ring = _ring_for(p, a, rank, rings)
            doc = _galois_module(rng, ring, counts)
            expect = {"rank": rank, "weights": doc["weights"]}
            if verb == "crystal-slopes":
                expect["slopes"] = _slopes_expect(counts)
            calls.append(Call(verb, [doc], None, 0, expect))
        if k % 2 == 1:
            p, a, c1, c2 = CG_TENSOR_SHAPES[(k // 2) % len(CG_TENSOR_SHAPES)]
            r1, r2 = sum(c1) + c1[1], sum(c2) + c2[1]
            ring = _ring_for(p, a, max(r1, r2), rings)
            left, right = _galois_module(rng, ring, c1), _galois_module(rng, ring, c2)
            weights = sorted(x + y for x in left["weights"] for y in right["weights"])
            calls.append(
                Call("crystal-tensor", [{"left": left, "right": right}], None, 0, {"rank": r1 * r2, "weights": weights})
            )
    return calls


def _check_crystal(call: Call, out: dict) -> str | None:
    exp = call.expect
    if call.verb == "crystal-verify":
        if not out["ok"] or not all(c["ok"] for c in out["checks"]):
            return f"verify failed: {[c['name'] for c in out['checks'] if not c['ok']]}"
    elif call.verb == "crystal-slopes":
        if out["slopes"] != exp["slopes"]:
            return f"slopes {out['slopes']} != {exp['slopes']}"
    elif call.verb == "crystal-dual":
        weights = [-2 - w for w in reversed(exp["weights"])]
        if out["rank"] != exp["rank"] or out["weights"] != weights or out["level"] != 1:
            return "dual has the wrong rank, weights or level"
    elif call.verb == "crystal-tensor":
        if out["rank"] != exp["rank"] or out["weights"] != exp["weights"] or out["level"] != 2:
            return "tensor has the wrong rank, weights or level"
    return None


# ---------------------------------------------------------------------------
# picard-lattice: simplicial / divisor / skeleton / ledger verbs over W_4(F_5)

PL_RING = {"p": 5, "n": 4, "a": 1}
# one cycle is PL_GROUPS groups of eight calls in this order; with half of
# the calls on cochar the median call falls inside the spread of cochar
# costs, not on the step between two cheap verbs
PL_PATTERN = (
    "simplicial-cochar",
    "picard-skeleton",
    "simplicial-cochar",
    "simplicial-div0",
    "simplicial-cochar",
    "picard-skeleton",
    "simplicial-cochar",
    "h1-ledger",
)
PL_GROUPS = 16


def _simplicial(rng: random.Random, counts: tuple[int, int, int]) -> dict:
    """Port of the test generator: a valid 2-truncated component structure
    with edge 0 a loop on vertex 0, so level-2 faces can always be completed."""
    c0, c1, c2 = counts
    d0 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    d1 = [0] + [rng.randrange(c0) for _ in range(c1 - 1)]
    f0, f1, f2 = [], [], []
    for _ in range(c2):
        e0 = rng.randrange(c1)
        e1 = rng.choice([e for e in range(c1) if d0[e] == d0[e0]])
        cands = [e for e in range(c1) if d0[e] == d1[e0] and d1[e] == d1[e1]]
        if cands:
            e2 = rng.choice(cands)
        else:
            e0 = e1 = e2 = 0
        f0.append(e0)
        f1.append(e1)
        f2.append(e2)
    return {"counts": [c0, c1, c2], "faces": {"1": [d0, d1], "2": [f0, f1, f2]}}


def _cochar_rank(doc: dict) -> int:
    """(c1 - rank d2) - rank d1 for the complex C_2 -> C_1 -> C_0."""
    c0, c1, c2 = doc["counts"]
    (e0, e1), (f0, f1, f2) = doc["faces"]["1"], doc["faces"]["2"]
    d1 = [[0] * c1 for _ in range(c0)]
    for j in range(c1):
        d1[e0[j]][j] += 1
        d1[e1[j]][j] -= 1
    d2 = [[0] * c2 for _ in range(c1)]
    for j in range(c2):
        d2[f0[j]][j] += 1
        d2[f1[j]][j] -= 1
        d2[f2[j]][j] += 1
    return (c1 - _rank_over_q(d2)) - _rank_over_q(d1)


def _divisor(rng: random.Random, m: int) -> dict:
    rows = rng.randint(1, max(1, m // 2))
    ns = rng.randint(1, 2)

    def pullback():
        return [[int(rng.random() < 0.3) for _ in range(m)] for _ in range(rows)]

    return {"m": m, "P0": pullback(), "P1": pullback(), "NS": [[rng.randrange(3) for _ in range(m)] for _ in range(ns)]}


def _div0_rank(doc: dict) -> int:
    diff = [[a - b for a, b in zip(r0, r1)] for r0, r1 in zip(doc["P0"], doc["P1"])]
    return doc["m"] - _rank_over_q(diff + doc["NS"])


def picard_lattice(seed: int) -> list[Call]:
    sizes = _sizes("picard-lattice")
    rng = random.Random(seed)
    calls = []
    for verb in PL_PATTERN * PL_GROUPS:
        if verb == "simplicial-cochar":
            counts = tuple(sizes.randint(16, 80) for _ in range(3))
            doc = _simplicial(rng, counts)
            calls.append(Call(verb, [doc]))
        elif verb == "simplicial-div0":
            doc = _divisor(rng, sizes.randint(1, 32))
            calls.append(Call(verb, [doc]))
        elif verb == "picard-skeleton":
            simp = _simplicial(rng, tuple(sizes.randint(1, 24) for _ in range(3)))
            div = _divisor(rng, sizes.randint(1, 16))
            doc = {"simplicial": simp, "divisor": div, "g": sizes.randint(0, 1)}
            calls.append(Call(verb, [doc], PL_RING))
        else:
            doc = {"lattice_rank": sizes.randint(0, 6), "torus_rank": sizes.randint(0, 6), "g": sizes.randint(0, 3)}
            calls.append(Call(verb, [doc], PL_RING))
    return calls


def _check_picard(call: Call, out: dict) -> str | None:
    doc = call.docs[0]
    if call.verb in ("simplicial-cochar", "simplicial-div0"):
        want = _cochar_rank(doc) if call.verb == "simplicial-cochar" else _div0_rank(doc)
        if out["rank"] != want or len(out["basis"]) != want:
            return f"rank {out['rank']} (basis of {len(out['basis'])}) != oracle {want}"
    elif call.verb == "picard-skeleton":
        want = {
            "lattice_rank": _div0_rank(doc["divisor"]),
            "torus_rank": _cochar_rank(doc["simplicial"]),
            "g": doc["g"],
        }
        if out["skeleton"] != want:
            return f"skeleton {out['skeleton']} != oracle {want}"
    elif call.verb == "h1-ledger":
        total = doc["torus_rank"] + 2 * doc["g"] + doc["lattice_rank"]
        want = {
            "gr0": doc["torus_rank"],
            "gr1": 2 * doc["g"],
            "gr2": doc["lattice_rank"],
            "total": total,
            "crystal_rank": total,
            "consistent": True,
        }
        if out != want:
            return f"ledger {out} != {want}"
    return None


def check(call: Call, exit_code: int, stdout: str, paths: list[str]) -> str | None:
    """None when the call ended as its generator expects, else the reason."""
    if exit_code != call.exit_code:
        return f"exit code {exit_code}, expected {call.exit_code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if call.verb == "motive-verify":
        return _check_motive_batch(call, out, paths)
    if call.verb.startswith("crystal-"):
        return _check_crystal(call, out)
    return _check_picard(call, out)
