"""The four benchmark workloads: seeded inputs, operations and answer checks.

Every workload hands out its inputs in rounds.  A round is a fixed list of
(kind, input band) slots, filled with fresh random inputs from the seeded
generator and shuffled, so runs on different seeds see the same mix of
operations and sizes.  No input is handed out twice in one run.

``check`` compares an answer with a reference reached by another route
(see ``refs``); it returns None when the answer is right and a reason when
it is not.  ``gap_ops`` are operations that fail today for a known reason
(ROADMAP items 4 and 5); they are run and counted apart from the timed mix.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial, gcd, prod
from typing import Any, Callable

from . import refs


@dataclass
class Op:
    kind: str
    argv: list[str] | None = None          # `gi --format json` arguments
    call: Callable[[], Any] | None = None  # library operation, when not a CLI one
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str      # "ok", "bound" (BoundExceeded or exit 3), "exception"
    code: int | None
    answer: Any      # parsed JSON, or the library call's result
    seconds: float
    error: str = ""


def _doc(*factors) -> str:
    return json.dumps({"factors": list(factors)}, separators=(",", ":"))


def _group_ok(g) -> bool:
    t = g["torsion"]
    return g["free_rank"] >= 0 and all(d >= 2 for d in t) and \
        all(b % a == 0 for a, b in zip(t, t[1:]))


def _sig(g) -> tuple:
    return refs.signature(g["free_rank"], g["torsion"])


def _elem_order(coords, torsion) -> int:
    n = 1
    for c, d in zip(coords, torsion):
        o = d // gcd(c, d)
        n = n * o // gcd(n, o)
    return n


def _expect(outcome, code) -> str | None:
    if outcome.status != "ok":
        return f"{outcome.status}: {outcome.error}"
    if outcome.code != code:
        return f"exit code {outcome.code}, expected {code}"
    return None


MAX_ROUNDS = 16  # every slot has at least this many distinct inputs


class Workload:
    name = ""
    why = ""
    tail_percentile = 90
    ROUND: list = []
    SMOKE: list = []
    GAPS: list = []
    SMOKE_GAPS: list = []

    def __init__(self, rng, gi, smoke: bool = False):
        self.rng = rng
        self.gi = gi
        self.smoke = smoke
        self._seen: set[str] = set()

    def round(self) -> list[Op]:
        ops = [self._fresh(kind, param) for kind, param in (self.SMOKE if self.smoke else self.ROUND)]
        self.rng.shuffle(ops)
        return ops

    def gap_ops(self) -> list[Op]:
        return [self._fresh(kind, param)
                for kind, param in (self.SMOKE_GAPS if self.smoke else self.GAPS)]

    def _fresh(self, kind, param) -> Op:
        for _ in range(1000):
            op = self.make(kind, param)
            key = json.dumps([op.kind, op.argv, op.data.get("key")])  # "key": non-CLI input
            if key not in self._seen:
                self._seen.add(key)
                return op
        raise RuntimeError(f"{self.name}: no fresh input for {kind} {param}")

    def make(self, kind, param) -> Op:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> str | None:
        raise NotImplementedError

    def _valid(self, rows) -> bool:
        try:
            self.gi.validate(rows)
        except self.gi.SftValidationError:
            return False
        return True


# ---------------------------------------------------------------- dense-bf


class DenseBf(Workload):
    name = "dense-bf"
    why = ("single dense SFT matrices, 24-72 vertices, entries 0-3: stresses "
           "intmatrix SNF coefficient growth and repeated invariants() calls")
    tail_percentile = 80
    # About 5.5 s a round here: a 20-second run measures 4 whole rounds, away
    # from the edge where noise would switch it between 3 and 4.
    ROUND = ([("invariants", n) for n in (24, 28, 32, 36, 40, 44, 48, 56, 60, 72)]
             + [("morita-same", 30), ("morita-same", 42), ("morita-diff", 26),
                ("morita-diff", 38), ("abelianization", 28), ("abelianization", 40)])
    SMOKE = [("invariants", 8), ("morita-same", 6), ("morita-diff", 6), ("abelianization", 6)]
    GAPS = [("classify-relabelled", 24)] * 3
    SMOKE_GAPS = [("classify-relabelled", 6)]
    PRIMES = (3, 5, 7)

    def _matrix(self, n):
        while True:
            rows = [[self.rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if self._valid(rows):
                return rows

    def _perm(self, n):
        perm = list(range(n))
        self.rng.shuffle(perm)
        return perm

    def make(self, kind, n) -> Op:
        a = self._matrix(n)
        if kind == "invariants":
            return Op(kind, ["invariants", _doc(a)], data={"a": a})
        if kind == "morita-same":
            b = refs.relabel(refs.transpose(a), self._perm(n))
            return Op(kind, ["morita", _doc(a), _doc(b)], data={"expect": True})
        if kind == "morita-diff":
            da = abs(refs.det(refs.id_minus(a)))
            while True:
                b = self._matrix(n)
                if abs(refs.det(refs.id_minus(b))) != da:
                    break
            return Op(kind, ["morita", _doc(a), _doc(b)], data={"expect": False})
        if kind == "abelianization":
            p = self.rng.choice(self.PRIMES)
            factors = [a, [[p + 1]]]
            self.rng.shuffle(factors)
            return Op(kind, ["abelianization", _doc(*factors)], data={"a": a, "p": p})
        if kind == "classify-relabelled":
            b = refs.relabel(a, self._perm(n))
            return Op(kind, ["classify", _doc(a), _doc(b)], data={"a": a, "b": b})
        raise ValueError(kind)

    def check(self, op, out):
        if err := _expect(out, 1 if op.data.get("expect") is False else 0):
            return err
        ans = out.answer
        if op.kind == "invariants":
            return self._check_invariants(op.data["a"], ans["factors"][0])
        if op.kind.startswith("morita"):
            return None if ans["morita_equivalent"] is op.data["expect"] else "wrong verdict"
        if op.kind == "abelianization":
            a, p = op.data["a"], op.data["p"]
            # A x (full (p+1)-shift): the shift has H_0 = Z/p, H_1 = 0 and p is
            # odd, so [[G]]_ab = H_1(G) = (H_1(A) (x) Z/p) (+) Tor(BF(A), Z/p),
            # which has the rank of BF(A) (x) Z/p = coker(I - A^t) mod p
            k = len(a) - refs.rank_mod_p(refs.id_minus(a, transpose=True), p)
            got = ans["abelianization"]
            return None if (got["free_rank"], got["torsion"]) == (0, [p] * k) \
                else f"abelianization {got['str']}, expected (Z/{p})^{k}"
        if op.kind == "classify-relabelled":
            return _check_witness(self.gi, [op.data["a"]], [op.data["b"]], ans)
        raise ValueError(op.kind)

    @staticmethod
    def _check_invariants(a, rec) -> str | None:
        bf, k1 = rec["bf"], rec["k1"]
        if not _group_ok(bf) or rec["k0"] != bf:
            return "BF group not canonical or K_0 differs from BF"
        d = refs.det(refs.id_minus(a))
        if rec["det_sign"] != (d > 0) - (d < 0):
            return "det sign"
        if d and (bf["free_rank"] or prod(bf["torsion"]) != abs(d)):
            return f"|BF| != |det(I-A)| = {abs(d)}"
        if not d and not bf["free_rank"]:
            return "det(I-A) = 0 but BF is finite"
        if (k1["free_rank"], k1["torsion"]) != (bf["free_rank"], []):
            return "rank H_1 != free rank of H_0"
        it = refs.id_minus(a, transpose=True)
        for p in (2, 3):
            want = len(a) - refs.rank_mod_p(it, p)
            if bf["free_rank"] + sum(1 for t in bf["torsion"] if t % p == 0) != want:
                return f"BF (x) Z/{p} has the wrong rank"
        return None


# ---------------------------------------------------------------- products


class Products(Workload):
    name = "products"
    why = ("products of 3-5 SFTs on 2-4 vertices whose H_0 share the prime 2, "
           "tensor width 4-72: stresses fggroup canonical forms, tensor and Tor")
    tail_percentile = 90
    PATTERNS = [(1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3),
                (1, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3),
                (1, 2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 3), (2, 2, 2, 3, 3)]
    OPS = ("homology", "k-groups", "hk-check", "abelianization", "strong-ah")
    ROUND = [(op, pat) for pat, op in product(PATTERNS, OPS)]
    SMOKE = [(op, (1, 1, 2)) for op in OPS]

    def _factor(self, gens):
        """A random SFT whose H_0 is finite, of even order, with `gens` invariant factors."""
        rng = self.rng
        while True:
            if gens == 3:
                rows = [[rng.choice((1, 3)) if i == j else rng.choice((0, 2)) for j in range(3)]
                        for i in range(3)]
            else:
                n = rng.randint(2, 4)
                rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
                if n - refs.rank_mod_p(refs.id_minus(rows), 2) != gens:
                    continue
            if not self._valid(rows):
                continue
            bf = self.gi.invariants(self.gi.validate(rows)).bf
            if bf.free_rank == 0 and len(bf.torsion) == gens:
                return rows

    def make(self, kind, pattern) -> Op:
        factors = [self._factor(g) for g in pattern]
        self.rng.shuffle(factors)
        return Op(kind, [kind, _doc(*factors)], data={"factors": factors})

    def check(self, op, out):
        gi = self.gi
        invs = [gi.invariants(gi.validate(f)) for f in op.data["factors"]]
        bfs = [inv.bf for inv in invs]
        if op.kind == "strong-ah":
            twos = sum(1 for bf in bfs if any(d % 4 == 2 for d in bf.torsion))
            want = len(bfs) <= 2 or twos < 3
            if err := _expect(out, 0 if want else 1):
                return err
            return None if out.answer["strong_ah"] is want else "wrong strong-AH verdict"
        if err := _expect(out, 0):
            return err
        ans = out.answer
        hom = refs.kunneth_fold([((bf.free_rank, bf.torsion), (inv.k1.free_rank, inv.k1.torsion))
                                 for bf, inv in zip(bfs, invs)])
        trivial = (0, ())
        even = _merge(s for n, s in hom.items() if n % 2 == 0)
        odd = _merge(s for n, s in hom.items() if n % 2 == 1)
        if op.kind == "homology":
            degrees = ans["degrees"]
            for n in set(map(int, degrees)) | set(hom):
                if _sig(degrees.get(str(n), {"free_rank": 0, "torsion": []})) != \
                        hom.get(n, trivial):
                    return f"H_{n} differs from the Kunneth fold"
            unit = refs.naive_tensor([inv.unit.torsion for inv in invs], [bf.torsion for bf in bfs])
            u = ans["unit_class"]
            if u["free"] or _elem_order(u["torsion"], degrees["0"]["torsion"]) != \
                    _elem_order(*unit):
                return "unit class order differs from the unit tensor"
            return None
        if op.kind == "k-groups":
            return None if (_sig(ans["k0"]), _sig(ans["k1"])) == (even, odd) \
                else "K-groups differ from summed Kunneth homology"
        if op.kind == "hk-check":
            sigs = tuple(_sig(ans[k]) for k in ("h_even", "k0", "h_odd", "k1"))
            return None if ans["holds"] is True and sigs == (even, even, odd, odd) \
                else "H/K comparison differs from the Kunneth fold"
        if op.kind == "abelianization":
            g, (h1_free, h1) = ans["abelianization"], hom.get(1, trivial)
            j0 = sum(1 for orders in product(*(bf.torsion for bf in bfs))
                     if all(m % 2 == 0 for m in orders)
                     and sum(1 for m in orders if m % 4 == 2) < 3)
            if g["free_rank"] or h1_free:
                return "abelianization of finite factors is infinite"
            if prod(g["torsion"]) != 2 ** j0 * prod(h1):
                return "|[[G]]_ab| != 2^|J_0| |H_1|"
            return None if refs.is_quotient(g["torsion"], h1) \
                else "H_1 is not a quotient of the abelianization"
        raise ValueError(op.kind)


def _merge(sigs) -> tuple:
    free, powers = 0, []
    for f, p in sigs:
        free += f
        powers.extend(p)
    return free, tuple(sorted(powers))


# ---------------------------------------------------------------- classify


def _units_and_keys(gi, factor_rows):
    """(torsion, det(I-A)) keys and unit torsion coordinates, per factor."""
    keys, units, free = [], [], []
    for rows in factor_rows:
        inv = gi.invariants(gi.validate(rows))
        keys.append((inv.bf.torsion, refs.det(refs.id_minus(rows))))
        units.append(inv.unit)
        free.append(inv.bf.free_rank)
    return keys, units, free


def _check_witness(gi, a_rows, b_rows, ans) -> str | None:
    """Re-verify a positive classify answer against the product criterion."""
    if ans.get("isomorphic") is not True or not ans.get("witness"):
        return "expected an isomorphism witness"
    sigma, homs = ans["witness"]["sigma"], ans["witness"]["homs"]
    n = len(a_rows)
    if sorted(sigma) != list(range(n)) or len(homs) != n:
        return "witness permutation malformed"
    ka, ua, fa = _units_and_keys(gi, a_rows)
    kb, ub, fb = _units_and_keys(gi, b_rows)
    orders = [(0,) * f + k[0] for f, k in zip(fa, ka)]
    imgs = []
    for i, j in enumerate(sigma):
        if (ka[i], fa[i]) != (kb[j], fb[j]):
            return "witness pairs factors with different (BF, det)"
        images = [tuple(x["free"]) + tuple(x["torsion"]) for x in homs[i]]
        if not _is_aut(gi, images, fa[i], ka[i][0]):
            return "witness hom is not an automorphism"
        imgs.append(refs.apply_hom(images, ua[i].coords(), orders[i]))
    targets = [ub[j].coords() for j in sigma]
    if refs.naive_tensor(imgs, orders) != refs.naive_tensor(targets, orders):
        return "witness does not carry the unit tensor"
    return None


def _is_aut(gi, images, free_rank, torsion) -> bool:
    if not free_rank and prod(torsion, start=1) <= 10 ** 5:
        return refs.is_automorphism(images, torsion)
    if not free_rank and len(torsion) == 1:
        return gcd(images[0][0], torsion[0]) == 1
    # groups too large to walk, met only by the known-gap probes
    grp = gi.FgGroup(free_rank, tuple(torsion))
    elems = tuple(grp.element(x[:free_rank], x[free_rank:]) for x in images)
    return gi.GroupHom(grp, grp, elems).is_isomorphism()


def _search_work(keys) -> int:
    """Predicted work of a classify call, in units of one enumerated candidate
    endomorphism: the candidates of each distinct group, plus the tuples of a
    full negative search (admissible matchings times prod |Aut(BF_i)|), of
    which about four cost as much as one candidate."""
    matchings = prod(factorial(c) for c in Counter(keys).values())
    tuples = matchings * prod(refs.aut_order(k[0]) for k in keys)
    return sum(refs.candidate_space(t) for t in {k[0] for k in keys}) + tuples // 4


class Classify(Workload):
    name = "classify"
    why = ("pairs of 2-3-factor products with equal (BF, det) multisets, shuffled "
           "factors, differing unit classes: stresses automorphisms and classify")
    tail_percentile = 90
    POOL_DRAWS = 2500
    SMOKE_POOL_DRAWS = 600
    # Every pair keeps its candidate space, the product over factors of
    # prod gcd(d_i, d_j), below CANDIDATE_CAP.  Slots are (factors, positive
    # verdict, band [lo, hi) of _search_work), which predicts the cost of a
    # call within about 30%.  The median falls among the 2-factor negatives
    # and p90 among the 3-factor negatives.  Heavier negatives (work 3000 and
    # up, a second or more each) made too few samples a run to be steady.
    CANDIDATE_CAP = 2 ** 18
    ROUND = ([("pair", (2, True, 1, 400))] * 4 + [("pair", (3, True, 1, 400))] * 4
             + [("pair", (2, False, 100, 200))] * 8 + [("pair", (3, False, 800, 1200))] * 7)
    SMOKE = [("pair", (2, True, 1, 64)), ("pair", (2, False, 1, 64))]
    GAPS = [("infinite", 2)] * 3
    SMOKE_GAPS = [("infinite", 2)]

    def __init__(self, rng, gi, smoke=False):
        super().__init__(rng, gi, smoke)
        # (torsion, det) -> unit indicator -> [(rows, unit coords)]
        self.buckets: dict = {}
        self.infinite: list = []
        for _ in range(self.SMOKE_POOL_DRAWS if smoke else self.POOL_DRAWS):
            n = rng.randint(2, 4)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if not self._valid(rows):
                continue
            inv = gi.invariants(gi.validate(rows))
            if inv.bf.free_rank:
                self.infinite.append(rows)
            elif inv.bf.torsion:
                key = (inv.bf.torsion, refs.det(refs.id_minus(rows)))
                ind = refs.indicator(inv.unit.torsion, inv.bf.torsion)
                self.buckets.setdefault(key, {}).setdefault(ind, []).append(
                    (rows, inv.unit.torsion))
        # keys usable for a same-orbit pair, and for a different-orbit pair
        self.same_keys = sorted(k for k, cls in self.buckets.items()
                                if any(len(v) >= 2 for v in cls.values()))
        self.diff_keys = sorted(k for k, cls in self.buckets.items() if len(cls) >= 2)

    def _same(self, key):
        """Two matrices whose units share an orbit, with other coordinates when possible."""
        classes = [v for v in self.buckets[key].values() if len(v) >= 2]
        cls = self.rng.choice(classes)
        a, ua = self.rng.choice(cls)
        others = [m for m in cls if m[1] != ua] or [m for m in cls if m[0] != a]
        return a, self.rng.choice(others)[0]

    def _diff(self, key):
        ca, cb = self.rng.sample(list(self.buckets[key].values()), 2)
        return self.rng.choice(ca)[0], self.rng.choice(cb)[0]

    def make(self, kind, param) -> Op:
        rng = self.rng
        if kind == "infinite":
            fin_key = rng.choice(self.same_keys)
            a = [rng.choice(self.infinite), rng.choice(list(self.buckets[fin_key].values()))[0][0]]
            b = [refs.relabel(f, rng.sample(range(len(f)), len(f))) for f in a]
            rng.shuffle(b)
            return Op(kind, ["classify", _doc(*a), _doc(*b)],
                      data={"a": a, "b": b, "expect": True})
        nf, positive, lo, hi = param
        for _ in range(10000):
            keys = [rng.choice(self.same_keys) for _ in range(nf)]
            odd = None if positive else rng.randrange(nf)
            if odd is not None:
                keys[odd] = rng.choice(self.diff_keys)
            if prod(refs.candidate_space(k[0]) for k in keys) >= self.CANDIDATE_CAP \
                    or not lo <= _search_work(keys) < hi:
                continue
            pairs = [self._diff(k) if i == odd else self._same(k) for i, k in enumerate(keys)]
            a = [p[0] for p in pairs]
            b = [p[1] for p in pairs]
            if not positive and not self._certified_negative(keys, a, b):
                continue
            rng.shuffle(b)
            return Op(kind, ["classify", _doc(*a), _doc(*b)],
                      data={"a": a, "b": b, "expect": positive})
        raise RuntimeError("classify: no pair in the requested band")

    def _certified_negative(self, keys, a, b) -> bool:
        """True when no factor matching can carry the unit tensor: the orbit
        invariant of the unit tensor differs under every admissible matching."""
        _, ua, _ = _units_and_keys(self.gi, a)
        _, ub, _ = _units_and_keys(self.gi, b)
        torsions = [k[0] for k in keys]
        target = refs.indicator(*refs.naive_tensor([u.torsion for u in ua], torsions))
        for sigma in permutations(range(len(keys))):
            if any(keys[i] != keys[s] for i, s in enumerate(sigma)):
                continue
            units = [ub[s].torsion for s in sigma]
            if refs.indicator(*refs.naive_tensor(units, torsions)) == target:
                return False
        return True

    def check(self, op, out):
        expect = op.data["expect"]
        if err := _expect(out, 0 if expect else 1):
            return err
        if not expect:
            return None if out.answer["isomorphic"] is False else "wrong verdict"
        return _check_witness(self.gi, op.data["a"], op.data["b"], out.answer)


# ---------------------------------------------------------------- tables


def relation_instances(n: int, ib: int) -> int:
    """Instances verify_relations checks, counted from the relation families."""
    pairs = ib * (ib - 1) // 2
    far = sum(1 for i in range(1, ib + 1) for j in range(1, ib + 1) if abs(i - j) >= 2)
    below = sum(1 for i in range(1, ib + 1) for j in range(1, ib + 1) if i > j + 1)
    return n * n * pairs + 2 * ib + far + n * ib + n * pairs + n * below + n * (n - 1) * ib


def grid_parity(kd: int, kdp: int) -> int:
    """Parity of the transpose of a kdp x kd grid, by counting inversions."""
    perm = [q * kdp + p for p in range(kdp) for q in range(kd)]
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return inv % 2


def character_solutions(arities, m) -> set:
    """All (x, t) in Z/m solving the reduced character system."""
    n = len(arities)
    eps = {(d, e): grid_parity(arities[d], arities[e])
           for d in range(n) for e in range(n) if d != e}
    out = set()
    for t in range(m):
        if 2 * t % m or any((k - 1) * t % m for k in arities):
            continue
        for xs in product(range(m), repeat=n):
            if all(((arities[d] - 1) * xs[e] - (arities[e] - 1) * xs[d] - eps[d, e] * t) % m == 0
                   for (d, e) in eps):
                out.add((xs, t))
    return out


class Tables(Workload):
    name = "tables"
    why = ("relation checks (n 2-3, arities 2-5, index bound 4-5), Baker and "
           "character checks, 100-letter table words: the separate tables stack")
    tail_percentile = 85
    # relation slots are (n, index bound, allowed arity sums); the cost of a
    # check follows from those within a few percent
    ROUND = ([("relations", (3, 4, (8, 9, 10, 11)))] * 2
             + [("relations", (3, 5, (9, 10, 11))), ("relations", (2, 4, None))]
             + [("baker", None)] * 3 + [("characters", None)] * 3 + [("words", 100)] * 6)
    SMOKE = [("relations", (2, 2, None)), ("baker", None), ("characters", None), ("words", 6)]
    # Word costs have a heavy tail that grows fast with length and arity (a
    # 160-letter word on arities (2, 2), or a 100-letter one on (2, 3), can
    # take minutes), so words use arities (2, 2) and generator indices 1-4.
    WORD_ARITIES = (2, 2)

    def _arities(self, n, lo=2, hi=5):
        return tuple(self.rng.randint(lo, hi) for _ in range(n))

    def make(self, kind, param) -> Op:
        rng = self.rng
        if kind == "relations":
            n, ib, total = param
            ks = self._arities(n)
            while total is not None and sum(ks) not in total:
                ks = self._arities(n)
            return Op(kind, ["--index-bound", str(ib), "relations-check",
                             "--arities", ",".join(map(str, ks))], data={"n": n, "ib": ib})
        if kind == "baker":
            k = rng.randint(2, 5)
            ks = (k, k, k) + self._arities(rng.randint(0, 2))
            return Op(kind, ["baker-check", "--arities", ",".join(map(str, ks))])
        if kind == "characters":
            n = rng.randint(2, 3)
            ks = self._arities(n)
            m = rng.randint(2, 12 if n == 2 else 8)
            return Op(kind, ["character-search", "--arities", ",".join(map(str, ks)),
                             "--target-order", str(m)], data={"ks": ks, "m": m})
        if kind == "words":
            return self._word_op(param)
        raise ValueError(kind)

    def _word_op(self, param) -> Op:
        """x = a random word, y = x times a relator (equal) or a generator (not)."""
        rng, t = self.rng, self.gi
        ks, length = self.WORD_ARITIES, param
        letters = [(g, i, d) for i in (1, 2, 3, 4) for g, d in (("s", 1), ("s", 2), ("t", 0))]
        word, drift = [], 0
        for _ in range(length):
            letter, sign = rng.choice(letters), rng.choice((1, -1))
            if letter[0] == "s":
                # keep the net number of splits within one of zero, which keeps
                # the tables, and so the cost of one word, within a narrow band
                if abs(drift + sign) > 1:
                    sign = -sign
                drift += sign
            word.append((letter, sign))
        same = rng.random() < 0.5
        if same:
            i = rng.randint(1, 3)
            tail = [(("t", i, 0), 1), (("t", i + 1, 0), 1)] * 3
        else:
            tail = [(rng.choice(letters), 1)]

        def element(letter):
            (g, i, d), sign = letter
            e = t.gen_s(i, d, ks) if g == "s" else t.gen_tau(i, ks)
            return e if sign == 1 else t.inverse(e)

        def run():
            x = t.compose_all([element(l) for l in word])
            y = t.compose(x, t.compose_all([element(l) for l in tail]))
            return t.equal(x, y), x.offset, y.offset

        def offset(w):
            return sum(sign * (ks[d - 1] - 1) for (g, _, d), sign in w if g == "s")

        return Op("words", call=run,
                  data={"expect": (same, offset(word), offset(word + tail)),
                        "key": [ks, word, tail]})

    def check(self, op, out):
        if op.kind == "words":
            if out.status != "ok":
                return f"{out.status}: {out.error}"
            return None if tuple(out.answer) == op.data["expect"] else \
                f"word comparison {out.answer}, expected {op.data['expect']}"
        if err := _expect(out, 0):
            return err
        ans = out.answer
        if op.kind == "relations":
            want = relation_instances(op.data["n"], op.data["ib"])
            return None if ans["passed"] is True and not ans["failures"] \
                and ans["checked"] == want else f"relation check {ans}, expected {want} passing"
        if op.kind == "baker":
            return None if ans["baker_identity"] is True else "Baker identity reported false"
        if op.kind == "characters":
            ks, m = op.data["ks"], op.data["m"]
            got = {(tuple(a["x"]), a["t"]) for a in ans["assignments"]}
            if got != character_solutions(ks, m) or len(got) != len(ans["assignments"]):
                return "characters differ from the solutions of the linear system"
            for a in ans["assignments"]:
                g = gcd(m, a["t"], *(x - y for x in a["x"] for y in a["x"]))
                if a["generates_target"] is not (g == 1):
                    return "generates_target flag wrong"
            return None
        raise ValueError(op.kind)


WORKLOADS = {w.name: w for w in (DenseBf, Products, Classify, Tables)}
