"""Position-by-position reference for the closed form of ``abelianize``.

``oracle_extension_data(factors, orders)`` takes any cyclic decomposition
of the factors' H_0 groups, the same input as the library's private
``abelianize._extension_data``.  For each tuple i of cyclic orders and each
Tor position p it evaluates T_p(i) by the gcd chain (g0 right of p, gcd
with the order at p, g1 left of p) and the extension class by the three
clauses of the ``abelianize`` docstring, one position at a time.  The
library takes the closed form of the same docstring: one gcd per tuple and
the first of two orders = 2 mod 4.  The group is assembled block by block,
each tuple's T_p(i) collected first and its Z/2 glued onto the one at p*.
"""

from itertools import product as iproduct
from math import gcd

from groupoid_invariants.abelianize import ExtensionData
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


def oracle_extension_data(factors, orders):
    invs = [invariants(f) for f in factors]
    n = len(orders)

    split_parts = []
    for j in range(len(factors)):
        chain = invs[j].k1
        for d in range(len(factors)):
            if d != j:
                chain = tensor(chain, invs[d].bf)[0]
        split_parts.append(chain)
    split_part = direct_sum(*split_parts)

    j_index = tuple(iproduct(*(range(len(o)) for o in orders)))
    kernel_index = []
    tp_summands = {}
    components = []
    for idx in j_index:
        m_vec = tuple(orders[d][idx[d]] for d in range(n))
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
    group = _assemble(split_part, j_index, kernel_index, tp_summands, components)
    return ExtensionData(split_part, tuple(kernel_index), tp_summands,
                         frozenset(components), group)


def _assemble(split_part, j_index, kernel_index, tp_summands, components):
    orders = list(split_part.orders())
    by_tuple = {}
    for (p, idx), g in tp_summands.items():
        by_tuple.setdefault(idx, []).append((p, g))
    star = {idx: p for p, idx, _ in components}
    for idx in j_index:
        tps = by_tuple.get(idx, [])
        if idx in kernel_index and idx in star:
            orders.append(2 * dict(tps)[star[idx]])
            orders.extend(g for p, g in tps if p != star[idx])
        else:
            orders.extend(g for _, g in tps)
            if idx in kernel_index:
                orders.append(2)
    return FgGroup.from_orders(orders)
