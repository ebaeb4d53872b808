"""Verdicts against moves whose effect on the groupoid is known
(``move_oracle``): out-splits are isomorphisms, of single factors and factor
by factor of products, in-splits are Morita equivalences, and Cuntz splices
are not even Morita equivalences.

Isomorphic groupoids have isomorphic homology, K-groups and topological full
groups, and homology is a Morita invariant (Crainic-Moerdijk 2000; Matui
2012), so every isomorphic or Morita pair here must also agree in every
degree of ``product_homology``, in ``product_k_theory``, in
``tfg_abelianization`` and in ``strong_ah``.  These modules all read the same
``invariants``, so the checks tie the modules together; they are not a second
route to the Bowen-Franks group."""

import itertools
import random

from conftest import random_sft
from groupoid_invariants import classify, fggroup
from groupoid_invariants.abelianize import strong_ah, tfg_abelianization
from groupoid_invariants.automorphisms import torsion_orbit
from groupoid_invariants.classify import product_isomorphic, sft_isomorphic, sft_morita
from groupoid_invariants.homology import product_homology, product_k_theory
from groupoid_invariants.sft import invariants, validate
from move_oracle import cuntz_splice, in_split, mat_mul, out_split, split_matrix


def _small(rng):
    """The rows of a random valid SFT on 2 to 4 vertices."""
    while True:
        a = random_sft(rng, max_size=4)
        if a.size >= 2:
            return a.a.to_rows()


def _finite(rng):
    """The rows of a random valid SFT on 2 to 4 vertices with finite,
    nontrivial BF."""
    while True:
        rows = _small(rng)
        bf = invariants(validate(rows)).bf
        if bf.is_finite and bf.torsion:
            return rows


def _split(rows, rng):
    d, e = out_split(rows, rng)
    assert mat_mul(d, e) == rows
    return split_matrix(d, e)


def _assert_same_module_answers(fa, fb):
    """Equal homology in each degree, K-groups, full-group abelianization and
    strong-AH verdict for two products of factors (SftMatrix lists)."""
    ha, hb = product_homology(fa), product_homology(fb)
    for k in range(max(ha.max_degree, hb.max_degree) + 1):
        assert ha.group_at(k) == hb.group_at(k), (k, ha, hb)
    assert product_k_theory(fa) == product_k_theory(fb)
    assert tfg_abelianization(fa) == tfg_abelianization(fb)
    assert strong_ah(fa) == strong_ah(fb)


def _assert_isomorphic_with_witness(rows_a, rows_b):
    a, b = validate(rows_a), validate(rows_b)
    v = sft_isomorphic(a, b)
    assert v.isomorphic, (rows_a, rows_b, v.reason)
    hom = v.witness.homs[0]
    ia, ib = invariants(a), invariants(b)
    assert hom(ia.unit) == ib.unit and hom.is_isomorphism()
    _assert_same_module_answers([a], [b])
    return ia


def test_out_splits_are_isomorphic_with_a_witness():
    rng = random.Random(1975)
    infinite = 0
    for _ in range(200):
        rows = _small(rng)
        inv = _assert_isomorphic_with_witness(rows, _split(rows, rng))
        infinite += not inv.bf.is_finite
    assert infinite  # the free part of the witness is exercised too


def test_out_splits_grown_past_eight_rows_are_isomorphic_and_certified(monkeypatch):
    certified = []
    certify = fggroup._certify

    def recording(m, red, mod):
        certify(m, red, mod)
        certified.append((m.rows, red.factors))
    monkeypatch.setattr(fggroup, "_certify", recording)
    rng = random.Random(1976)
    sizes, non_cyclic = set(), 0
    for _ in range(100):
        rows = grown = _small(rng)
        # a split at most doubles the size, so below 16 rows none passes 30
        target = rng.randint(8, 30)
        while len(grown) < target and len(split := _split(grown, rng)) <= 30:
            grown = split
        certified.clear()
        inv = _assert_isomorphic_with_witness(rows, grown)
        sizes.add(len(grown))
        if inv.det:
            # the grown presentation went through the >= 8-row path, and its
            # answer passed _certify, and so _onto
            assert (len(grown), inv.bf.torsion) in certified
            non_cyclic += len(inv.bf.torsion) > 1
    assert min(sizes) >= 8 and max(sizes) > 24
    assert non_cyclic  # so the split of _top_factor_first is checked too


def test_in_splits_are_morita_equivalent():
    rng = random.Random(1975)
    isomorphic = 0
    for _ in range(500):
        rows = _small(rng)
        split = in_split(rows, rng)
        a, b = validate(rows), validate(split)
        assert len(split) >= len(rows) and sft_morita(a, b), (rows, split)
        _assert_same_module_answers([a], [b])
        isomorphic += sft_isomorphic(a, b).isomorphic
    # the unit class moves under an in-split, so some pairs are not isomorphic
    assert 0 < isomorphic < 500


def test_cuntz_splice_keeps_bf_negates_det_and_breaks_morita():
    rng = random.Random(1984)
    done = 0
    while done < 200:
        rows = _small(rng)
        a = validate(rows)
        if not invariants(a).det:
            continue
        b = validate(cuntz_splice(rows, rng.randrange(len(rows))))
        ia, ib = invariants(a), invariants(b)
        assert ib.bf == ia.bf and ib.det == -ia.det
        assert not sft_morita(a, b) and not sft_isomorphic(a, b).isomorphic
        done += 1


def test_out_split_products_are_isomorphic(monkeypatch):
    # each factor out-split and the factors shuffled: the unit classes move
    # within their orbits, so some verdicts need the reachable set
    searches = []
    reachable = classify._reachable
    monkeypatch.setattr(classify, "_reachable",
                        lambda *args: searches.append(1) or reachable(*args))
    rng = random.Random(1512)
    searched = 0
    for _ in range(300):
        rows = [_finite(rng) for _ in range(rng.randint(2, 4))]
        split = [_split(r, rng) for r in rows]
        rng.shuffle(split)
        before = len(searches)
        fa, fb = [validate(r) for r in rows], [validate(r) for r in split]
        v = product_isomorphic(fa, fb)
        assert v.isomorphic, (rows, split, v.reason)
        _assert_same_module_answers(fa, fb)
        if len(searches) > before and not all(h.is_identity() for h in v.witness.homs):
            searched += 1
            _assert_least_reaching_tuple(rows, split, v.witness)
    assert searched >= 10


def _assert_least_reaching_tuple(rows_a, rows_b, witness):
    """The witness carries the unit classes to the least tuple of orbit
    elements, in the order the orbits are listed, whose tensor is the
    target: the first tuple that reached it in the reachable set."""
    ia = [invariants(validate(r)) for r in rows_a]
    ib = [invariants(validate(r)) for r in rows_b]
    groups = [inv.bf for inv in ia]
    _, maps = fggroup.tensor_fold(groups)
    target = fggroup.fold_elements(maps, [ib[s].unit for s in witness.sigma])
    orbits = [sorted(torsion_orbit(g, inv.unit)) for g, inv in zip(groups, ia)]
    least = next(t for t in itertools.product(*orbits)
                 if fggroup.fold_elements(maps, [g.element((), x)
                                                 for g, x in zip(groups, t)]) == target)
    assert tuple(h(inv.unit).torsion for h, inv in zip(witness.homs, ia)) == least
