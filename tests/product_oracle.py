"""Reference product-isomorphism decision by search over automorphism tuples.

For every permutation sigma that matches factors with equal (BF, det), the
search runs over all tuples (alpha_1, ..., alpha_n) in prod Aut(BF_i), each
Aut(BF_i) listed by ``automorphisms.enumerate_automorphisms``, and accepts
the first tuple whose tensor of alpha_i(u_i) equals the tensor of the units
of the other side under sigma.  Identity tuples come first.  The cost is
prod |Aut(BF_i)| per permutation, so keep the groups small.
"""

import itertools
from functools import lru_cache

from groupoid_invariants.automorphisms import enumerate_automorphisms
from groupoid_invariants.classify import ProductWitness
from groupoid_invariants.fggroup import GroupHom, tensor
from groupoid_invariants.sft import invariants


@lru_cache(maxsize=None)
def automorphisms(group):
    """Aut(group) as a list, identity first."""
    identity = GroupHom.identity(group)
    return [identity] + [h for h in enumerate_automorphisms(group) if h != identity]


def oracle_product_isomorphic(factors_a, factors_b) -> ProductWitness | None:
    """A witness that the products are isomorphic, or None."""
    if len(factors_a) != len(factors_b):
        return None
    inv_a = [invariants(f) for f in factors_a]
    inv_b = [invariants(f) for f in factors_b]
    if any(not inv.bf.is_finite for inv in inv_a + inv_b):
        raise ValueError("the oracle needs finite Bowen-Franks groups")
    groups = [inv.bf for inv in inv_a]
    maps = []
    acc = groups[0]
    for g in groups[1:]:
        acc, tmap = tensor(acc, g)
        maps.append(tmap)

    def fold(elems):
        out = elems[0]
        for tmap, e in zip(maps, elems[1:]):
            out = tmap(out, e)
        return out

    n = len(groups)
    for sigma in itertools.permutations(range(n)):
        if any((inv_a[i].bf, inv_a[i].det) != (inv_b[s].bf, inv_b[s].det)
               for i, s in enumerate(sigma)):
            continue
        target = fold([inv_b[s].unit for s in sigma])
        for homs in itertools.product(*(automorphisms(g) for g in groups)):
            if fold([h(inv.unit) for h, inv in zip(homs, inv_a)]) == target:
                return ProductWitness(sigma, homs)
    return None
