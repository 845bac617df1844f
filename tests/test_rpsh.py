import pytest

from oracles import collage, element_leq, find_rp_iso, leq
from rcwb.fincat import validate_category
from rcwb.joins import check_join_axioms
from rcwb.restriction import check_restriction_axioms
from rcwb.rpsh import (RestrictionPresheaf, check_jrp_axioms, check_rp_axioms,
                       element_join, element_poset, yoneda_jr)


def test_representables_are_join_restriction_presheaves(finset_p2):
    for a in finset_p2.base.objects:
        rp = yoneda_jr(finset_p2, a)
        assert check_rp_axioms(rp).ok
        assert check_jrp_axioms(rp, max_family=3).ok


def test_element_order_mirrors_hom_order(finset_p2):
    rp = yoneda_jr(finset_p2, 2)
    c = finset_p2.base
    for b in c.objects:
        hom = c.hom(b, 2)
        for i, f in enumerate(hom):
            for j, g in enumerate(hom):
                assert element_leq(rp, b, i, j) == leq(finset_p2, f, g)


def test_element_join_mirrors_hom_join(finset_p2):
    from rcwb.joins import CompatibleFamily, hom_poset, join
    rp = yoneda_jr(finset_p2, 2)
    c = finset_p2.base
    hom = c.hom(2, 2)
    for fam in element_poset(rp, 2).families(max_family=2):
        if not fam:
            continue
        got = element_join(rp, 2, fam)
        members = frozenset(hom[i] for i in fam)
        assert hom_poset(finset_p2, 2, 2).compatible(members)
        assert hom[got] == join(finset_p2, CompatibleFamily(2, 2, members))


def test_collage_of_representable_is_join_restriction(finset_p2):
    rp = yoneda_jr(finset_p2, 2)
    col = collage(rp)
    assert validate_category(col.rc.base).ok
    assert check_restriction_axioms(col.rc).ok
    assert check_join_axioms(col.rc, max_family=2).ok


def test_collage_hom_sets(finset_p2):
    rp = yoneda_jr(finset_p2, 1)
    col = collage(rp)
    c = col.rc.base
    star = col.point
    assert len(c.hom(star, star)) == 1
    for a in finset_p2.base.objects:
        assert len(c.hom(a, star)) == rp.presheaf.sizes[a]
        assert len(c.hom(star, a)) == 0


def test_collage_refuses_an_action_value_out_of_range(finset_p2):
    from rcwb.site import Presheaf
    rp = yoneda_jr(finset_p2, 1)
    p = rp.presheaf
    f, x = next(iter(p.action))
    action = dict(p.action)
    action[(f, x)] = p.sizes[finset_p2.base.mor_src[f]]
    mut = RestrictionPresheaf(finset_p2, Presheaf(p.cat, p.sizes, action),
                              rp.bar_elem)
    with pytest.raises(ValueError, match="composite"):
        collage(mut)


def test_mutant_bar_fails_both_sides(finset_p2):
    rp = yoneda_jr(finset_p2, 2)
    c = finset_p2.base
    bars = [list(col) for col in rp.bar_elem]
    # give a non-total element a total restriction
    for a in c.objects:
        for i, f in enumerate(c.hom(a, 2)):
            if rp.bar_elem[a][i] != c.identity[a]:
                bars[a][i] = c.identity[a]
                break
        else:
            continue
        break
    mut = RestrictionPresheaf(finset_p2, rp.presheaf,
                              tuple(tuple(col) for col in bars))
    assert not check_rp_axioms(mut).ok
    assert not check_restriction_axioms(collage(mut).rc).ok


def test_find_rp_iso_respects_bars(finset_p2):
    rp = yoneda_jr(finset_p2, 2)
    assert find_rp_iso(rp, rp) is not None
    other = yoneda_jr(finset_p2, 1)
    assert find_rp_iso(rp, other) is None
