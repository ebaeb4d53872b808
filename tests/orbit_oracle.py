"""Reference Aut-orbit decision by breadth-first search, for differential tests.

Coordinates are split by CRT into prime-power slots (orders are factored by
trial division, so keep them small).  Per prime p, unit scalings
g_i -> u*g_i and transvections g_j -> g_j + p^max(0, e_i - e_j) * g_i
generate Aut(T_p) (Gaussian elimination), so the closure of an element under
them is its full orbit.  Mixed groups Z^r (+) T use the lower-triangular
reduction: equal contents c of the free parts, and some element of the orbit
of the torsion part congruent to the other torsion part modulo cT.

``brute_torsion_orbit`` lists an orbit by running the library's closed-form
decision on every element of the group, so its cost is the group's order.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd

from groupoid_invariants.automorphisms import aut_orbit_equivalent


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primary_orders(orders):
    """The prime-power orders of the cyclic groups Z/n, n in orders (0 = Z)."""
    out = []
    for n in orders:
        out.extend(sorted(p ** e for p, e in factorint(n).items()) if n else [0])
    return tuple(out)


@dataclass(frozen=True)
class Slot:
    prime: int
    exponent: int
    inv_index: int  # which invariant factor this prime power came from

    @property
    def modulus(self) -> int:
        return self.prime ** self.exponent


class PrimaryView:
    """CRT coordinates of a finite abelian group, one slot per prime power."""

    def __init__(self, torsion):
        self.slots = [Slot(p, e, i) for i, d in enumerate(torsion)
                      for p, e in sorted(factorint(d).items())]
        self.blocks: dict[int, list[int]] = {}
        for s_idx, slot in enumerate(self.slots):
            self.blocks.setdefault(slot.prime, []).append(s_idx)

    def to_primary(self, torsion_coords) -> tuple[int, ...]:
        return tuple(torsion_coords[s.inv_index] % s.modulus for s in self.slots)

    def generators(self):
        """Elementary automorphisms as maps on primary coordinate tuples."""
        gens = []
        for p, block in self.blocks.items():
            for si in block:
                q = self.slots[si].modulus
                gens.extend(_unit(si, u, q) for u in range(2, q) if u % p)
                for sj in block:
                    if si != sj:
                        c = p ** max(0, self.slots[si].exponent - self.slots[sj].exponent)
                        gens.append(_transvection(si, sj, c, q))
        return gens


def _unit(si, u, q):
    def f(x):
        y = list(x)
        y[si] = y[si] * u % q
        return tuple(y)
    return f


def _transvection(si, sj, c, q):
    def f(x):
        y = list(x)
        y[si] = (y[si] + c * x[sj]) % q
        return tuple(y)
    return f


def bfs_orbit(view: PrimaryView, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    gens = view.generators()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = gen(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def bfs_orbit_equivalent(g, a, b) -> bool:
    """Whether some automorphism of g maps a to b, by orbit search."""
    c = gcd(*a.free)
    if c != gcd(*b.free):
        return False
    view = PrimaryView(g.torsion)
    bt = view.to_primary(b.torsion)
    mods = [gcd(c, s.modulus) for s in view.slots]
    return any(all((y - x) % m == 0 for x, y, m in zip(orb, bt, mods))
               for orb in bfs_orbit(view, view.to_primary(a.torsion)))


def elements(group):
    """Iterate all elements of a finite group."""
    if not group.is_finite:
        raise ValueError("infinite group")
    return (group.element((), c) for c in product(*map(range, group.torsion)))


def brute_torsion_orbit(group, elem) -> frozenset[tuple[int, ...]]:
    """Aut(T)-orbit of an element of a finite group, by deciding every element."""
    return frozenset(x.torsion for x in elements(group)
                     if aut_orbit_equivalent(group, elem, x))
