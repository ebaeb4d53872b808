"""Verdicts against moves whose effect on the groupoid is known
(``move_oracle``): out-splits are isomorphisms, Cuntz splices are not even
Morita equivalences."""

import random

from conftest import random_sft
from groupoid_invariants import fggroup
from groupoid_invariants.classify import sft_isomorphic, sft_morita
from groupoid_invariants.sft import invariants, validate
from move_oracle import cuntz_splice, mat_mul, out_split, split_matrix


def _small(rng):
    """The rows of a random valid SFT on 2 to 4 vertices."""
    while True:
        a = random_sft(rng, max_size=4)
        if a.size >= 2:
            return a.a.to_rows()


def _split(rows, rng):
    d, e = out_split(rows, rng)
    assert mat_mul(d, e) == rows
    return split_matrix(d, e)


def _assert_isomorphic_with_witness(rows_a, rows_b):
    a, b = validate(rows_a), validate(rows_b)
    v = sft_isomorphic(a, b)
    assert v.isomorphic, (rows_a, rows_b, v.reason)
    hom = v.witness.homs[0]
    ia, ib = invariants(a), invariants(b)
    assert hom(ia.unit) == ib.unit and hom.is_isomorphism()
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
