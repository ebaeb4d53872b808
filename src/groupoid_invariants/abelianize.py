"""Abelianization of the topological full group of a product of SFT groupoids.

The full-group abelianization sits in a short exact sequence

    0 -> S_0 (x) Z/2 -> [[G]]_ab -> H_1(G) -> 0,

where S_0 collects the summands of H_0(G) = (+) S(i) indexed by tuples i in
J_0 (all cyclic orders even, fewer than three of them = 2 mod 4), the
sequence splits on the (+)_{sum q = 1} H_q1 (x) ... (x) H_qn part of H_1, and
on the Tor part T_p = (+) T_p(i) the extension class is supported exactly on
the components where

    * all orders left of p are divisible by 4,
    * the order at p is = 2 mod 4,
    * exactly one order right of p is = 2 mod 4.

A tuple therefore carries a nontrivial component iff exactly two of its
orders are = 2 mod 4, with p* the smaller of the two positions, so the class
is block diagonal over tuples: each nonsplit block glues its Z/2 onto
T_p*(i) = Z/g2 as Z/(2 g2), every other block contributes its summands split.

Cyclic orders use the 0 = Z convention; gcds treat 0 as the identity, which
makes the g-chain (g0, g, g1, g2) bookkeeping uniform across free summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

from .errors import InternalError
from .fggroup import FgGroup, direct_sum, tensor
from .sft import SftMatrix, invariants


@dataclass(frozen=True)
class H0Decomposition:
    """Chosen cyclic decompositions of the factor H_0 groups (0 means Z)."""

    factor_orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for orders in self.factor_orders:
            if any(m == 1 or m < 0 for m in orders):
                raise ValueError("cyclic orders must be 0 or >= 2")

    @property
    def num_factors(self) -> int:
        return len(self.factor_orders)

    def group(self, d: int) -> FgGroup:
        return FgGroup.from_orders(self.factor_orders[d])


def decompose_h0(a: SftMatrix) -> tuple[int, ...]:
    """Cyclic orders of H_0 for one factor: its invariant factors, with the
    free rank showing up as zeros."""
    return invariants(a).bf.orders()


def decompose_all(factors: list[SftMatrix]) -> H0Decomposition:
    dec = H0Decomposition(tuple(decompose_h0(f) for f in factors))
    for orders, f in zip(dec.factor_orders, factors):
        if FgGroup.from_orders(orders) != invariants(f).bf:
            raise InternalError("cyclic decomposition does not rebuild the Bowen-Franks group")
    return dec


@dataclass(frozen=True)
class ExtensionData:
    """All data of the extension describing [[G]]_ab.

    Tuples index the chosen cyclic summands per factor (0-based); p is the
    1-based Tor position, 1 <= p <= n-1.  ``tp_summands`` records the cyclic
    order g2 of each nonzero T_p(i); ``class_components`` lists the (p, i, i')
    triples carrying the nontrivial Ext component (always with i == i').
    """

    decomposition: H0Decomposition
    split_part: FgGroup
    j_index: tuple[tuple[int, ...], ...]
    kernel_index: tuple[tuple[int, ...], ...]
    tp_summands: dict[tuple[int, tuple[int, ...]], int]
    class_components: frozenset[tuple[int, tuple[int, ...], tuple[int, ...]]]


def _tp_order(m_vec: tuple[int, ...], p: int) -> int:
    """Cyclic order of T_p(i) via the gcd chain; 1 or a zero pair means trivial."""
    mp = m_vec[p - 1]
    g0 = gcd(*m_vec[p:], 0)
    if mp == 0 or g0 == 0:
        return 1
    g = gcd(mp, g0)
    g1 = gcd(*m_vec[:p - 1], 0)  # empty or all-zero left part gives 0, the gcd identity
    return gcd(g1, g)


def extension_data(factors: list[SftMatrix],
                   decomposition: H0Decomposition | None = None) -> ExtensionData:
    """Compute S(i), T_p(i), J_0 and the extension-class support."""
    if not factors:
        raise ValueError("need at least one factor")
    if decomposition is None:
        decomposition = decompose_all(factors)
    invs = [invariants(f) for f in factors]
    n = len(factors)

    split_parts = []
    for j in range(n):
        chain = invs[j].k1
        for d in range(n):
            if d != j:
                chain = tensor(chain, invs[d].bf)[0]
        split_parts.append(chain)
    split_part = direct_sum(*split_parts)

    if any(len(orders) == 0 for orders in decomposition.factor_orders):
        return ExtensionData(decomposition, split_part, (), (), {}, frozenset())

    j_index = tuple(iproduct(*(range(len(o)) for o in decomposition.factor_orders)))
    kernel_index = []
    tp_summands: dict[tuple[int, tuple[int, ...]], int] = {}
    components = []
    for idx in j_index:
        m_vec = tuple(decomposition.factor_orders[d][idx[d]] for d in range(n))
        twos = sum(1 for m in m_vec if m % 4 == 2)
        in_kernel = all(m % 2 == 0 for m in m_vec) and twos < 3
        if in_kernel:
            kernel_index.append(idx)
        for p in range(1, n):
            order = _tp_order(m_vec, p)
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


def tfg_abelianization(factors: list[SftMatrix],
                       decomposition: H0Decomposition | None = None) -> FgGroup:
    """The full-group abelianization of the product groupoid, canonical form."""
    data = extension_data(factors, decomposition)
    orders = list(data.split_part.orders())
    by_tuple: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (p, idx), g2 in data.tp_summands.items():
        by_tuple.setdefault(idx, []).append((p, g2))
    kernel = set(data.kernel_index)
    star: dict[tuple[int, ...], int] = {}
    for p, idx, idx2 in data.class_components:
        if idx != idx2 or idx in star:
            raise InternalError("extension class must be block diagonal")
        star[idx] = p
    for idx in data.j_index:
        tps = by_tuple.get(idx, [])
        if idx in kernel:
            p_star = star.get(idx)
            if p_star is None:
                orders.append(2)
                orders.extend(g2 for _, g2 in tps)
            else:
                glued = dict(tps)[p_star]
                orders.append(2 * glued)
                orders.extend(g2 for p, g2 in tps if p != p_star)
        else:
            orders.extend(g2 for _, g2 in tps)
    return FgGroup.from_orders(orders)


def strong_ah(factors: list[SftMatrix]) -> bool:
    """Left exactness of the abelianization sequence.

    Automatic for one or two factors; otherwise it holds iff fewer than three
    factors have a Z/2 direct summand in H_0, i.e. an invariant factor that is
    2 mod 4.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) <= 2:
        return True
    count = sum(1 for f in factors
                if any(d % 4 == 2 for d in invariants(f).bf.torsion))
    return count < 3
