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

Closed form per tuple.  Cyclic orders use the 0 = Z convention, and gcds
treat 0 as the identity.  For i = (m_1, ..., m_n) let g = gcd(i).

* T_p(i) = Z/g when m_p != 0 and some order right of p is nonzero, else 0.
  T_p(i) is the tensor of Z/m_1, ..., Z/m_(p-1) with Tor(Z/m_p, R), where R
  is the tensor of the orders right of p.  Z/a (x) Z/b = Z/gcd(a, b), so R
  is cyclic of order g0 = gcd(m_(p+1), ..., m_n).  Tor(Z/a, Z/b) =
  Z/gcd(a, b) for a, b != 0 and 0 when either is Z.  So T_p(i) is 0 if
  m_p = 0 or g0 = 0, and otherwise Z/gcd(m_1, ..., m_(p-1), m_p, g0) = Z/g.
* A tuple in J_0 has only orders = 0 or 2 mod 4 (Z counts as 0 mod 4), so
  the first two clauses say that p is its first order = 2 mod 4, and the
  third that exactly one more follows.  The class therefore has one
  component (p*, i, i) when exactly two orders of i are = 2 mod 4, with p*
  the first of them, and none otherwise.  Then g is even but not divisible
  by 4, so T_p*(i) = Z/g is nonzero.

The class is thus block diagonal over tuples: each nonsplit block glues its
Z/2 onto T_p*(i) = Z/g as Z/(2 g), every other block contributes its
summands split.

The split part is the same kind of closed form.  Its summand for j is
K_1(j) (x) (x)_{d != j} BF(d), and a tensor product of cyclic groups is
cyclic of the gcd of the orders, so the split part is one merge of gcd(t)
over the order tuples t of K_1(j) and the BF(d), d != j, for every j.

The public functions take each factor's cyclic orders from its Bowen-Franks
group, ``FgGroup.orders()``: the invariant factors, after a zero for each Z.
The closed form holds for any cyclic decompositions, and the tests feed
others through the private ``_extension_data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd
from typing import Sequence

from .fggroup import FgGroup
from .sft import SftInvariants, SftMatrix, invariants


@dataclass(frozen=True)
class ExtensionData:
    """All data of the extension describing [[G]]_ab, and the group.

    Tuples index the cyclic summands per factor (0-based); p is the 1-based
    Tor position, 1 <= p <= n-1.  ``tp_summands`` records the cyclic order g
    of each nonzero T_p(i); ``class_components`` lists the (p, i, i')
    triples carrying the nontrivial Ext component (always with i == i').
    ``group`` is [[G]]_ab in canonical form: the split part, every T_p(i),
    and the Z/2 of each tuple of J_0, glued onto T_p*(i) where the class
    has its component (p*, i, i).
    """

    split_part: FgGroup
    kernel_index: tuple[tuple[int, ...], ...]
    tp_summands: dict[tuple[int, tuple[int, ...]], int]
    class_components: frozenset[tuple[int, tuple[int, ...], tuple[int, ...]]]
    group: FgGroup


def extension_data(factors: list[SftMatrix]) -> ExtensionData:
    """Compute S(i), T_p(i), J_0, the extension-class support and [[G]]_ab,
    each tuple by the closed form of the module docstring."""
    if not factors:
        raise ValueError("need at least one factor")
    invs = [invariants(f) for f in factors]
    return _extension_data(invs, [v.bf.orders() for v in invs])


def _extension_data(invs: Sequence[SftInvariants],
                    orders: Sequence[Sequence[int]]) -> ExtensionData:
    """The closed form for factors with the given (K_1, BF) groups, over
    the tuples of ``orders``, a cyclic decomposition of each BF (0 = Z)."""
    n = len(invs)
    split_part = FgGroup.from_orders(
        gcd(*t) for j in range(n)
        for t in iproduct(invs[j].k1.orders(),
                          *(v.bf.orders() for d, v in enumerate(invs) if d != j)))

    kernel_index = []
    tp_summands: dict[tuple[int, tuple[int, ...]], int] = {}
    components = []
    group_orders = list(split_part.orders())
    for idx in iproduct(*(range(len(o)) for o in orders)):
        m_vec = [orders[d][k] for d, k in enumerate(idx)]
        g = gcd(*m_vec)
        twos = [p for p, m in enumerate(m_vec, start=1) if m % 4 == 2]
        star = None
        if g % 2 == 0 and len(twos) < 3:  # every order is even iff g is
            kernel_index.append(idx)
            if len(twos) == 2:
                star = twos[0]
                components.append((star, idx, idx))
            else:
                group_orders.append(2)
        if g > 1:
            # the nonzero positions that have a nonzero order to their right
            nonzero = [p for p, m in enumerate(m_vec, start=1) if m]
            for p in nonzero[:-1]:
                tp_summands[(p, idx)] = g
                group_orders.append(2 * g if p == star else g)
    return ExtensionData(split_part, tuple(kernel_index), tp_summands,
                         frozenset(components), FgGroup.from_orders(group_orders))


def tfg_abelianization(factors: list[SftMatrix]) -> FgGroup:
    """The full-group abelianization of the product groupoid, canonical form."""
    return extension_data(factors).group


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
