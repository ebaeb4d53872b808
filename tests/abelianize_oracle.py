"""Position-by-position reference for ``abelianize.extension_data`` and
tuple-by-tuple reference for ``tfg_abelianization``.

For each tuple i of cyclic orders and each Tor position p it evaluates
T_p(i) by the gcd chain (g0 right of p, gcd with the order at p, g1 left of
p) and the extension class by the three clauses of the ``abelianize``
docstring, one position at a time.  The library takes the closed form of
the same docstring: one gcd per tuple and the first of two orders = 2 mod 4.
``oracle_abelianization`` assembles the group block by block, each tuple's
T_p(i) collected first and its Z/2 glued onto the one at p*.
"""

from itertools import product as iproduct
from math import gcd

from groupoid_invariants.abelianize import ExtensionData, decompose_all
from groupoid_invariants.fggroup import FgGroup, direct_sum, tensor
from groupoid_invariants.sft import invariants


def tp_order(m_vec, p):
    """Cyclic order of T_p(i) via the gcd chain; 1 or a zero pair means trivial."""
    mp = m_vec[p - 1]
    g0 = gcd(*m_vec[p:], 0)
    if mp == 0 or g0 == 0:
        return 1
    g = gcd(mp, g0)
    g1 = gcd(*m_vec[:p - 1], 0)  # empty or all-zero left part gives 0, the gcd identity
    return gcd(g1, g)


def oracle_extension_data(factors, decomposition=None):
    if decomposition is None:
        decomposition = decompose_all(factors)
    invs = [invariants(f) for f in factors]
    n = len(decomposition.factor_orders)

    split_parts = []
    for j in range(len(factors)):
        chain = invs[j].k1
        for d in range(len(factors)):
            if d != j:
                chain = tensor(chain, invs[d].bf)[0]
        split_parts.append(chain)
    split_part = direct_sum(*split_parts)

    j_index = tuple(iproduct(*(range(len(o)) for o in decomposition.factor_orders)))
    kernel_index = []
    tp_summands = {}
    components = []
    for idx in j_index:
        m_vec = tuple(decomposition.factor_orders[d][idx[d]] for d in range(n))
        twos = sum(1 for m in m_vec if m % 4 == 2)
        in_kernel = all(m % 2 == 0 for m in m_vec) and twos < 3
        if in_kernel:
            kernel_index.append(idx)
        for p in range(1, n):
            order = tp_order(m_vec, p)
            if order > 1:
                tp_summands[(p, idx)] = order
            nontrivial = (
                all(m_vec[d] % 4 == 0 for d in range(p - 1))
                and m_vec[p - 1] % 4 == 2
                and sum(1 for d in range(p, n) if m_vec[d] % 4 == 2) == 1
            )
            # the Ext target S(i') (x) Z/2 only exists for tuples indexing S_0
            if nontrivial and in_kernel:
                components.append((p, idx, idx))
    return ExtensionData(decomposition, split_part, j_index, tuple(kernel_index),
                         tp_summands, frozenset(components))


def oracle_abelianization(data):
    orders = list(data.split_part.orders())
    by_tuple = {}
    for (p, idx), g in data.tp_summands.items():
        by_tuple.setdefault(idx, []).append((p, g))
    star = {idx: p for p, idx, _ in data.class_components}
    for idx in data.j_index:
        tps = by_tuple.get(idx, [])
        if idx in data.kernel_index and idx in star:
            orders.append(2 * dict(tps)[star[idx]])
            orders.extend(g for p, g in tps if p != star[idx])
        else:
            orders.extend(g for _, g in tps)
            if idx in data.kernel_index:
                orders.append(2)
    return FgGroup.from_orders(orders)
