import pytest

import oracles
from oracles import (classification_report, generate_sieve, iso_pair_bundle,
                     m_psh_member, m_sh_member, sheafify_map,
                     sieve_subpresheaf, sigma_classifier, yoneda_map,
                     z2_bundle)
from rcwb import site
from rcwb.bundles import build_fixture, load_bundle
from rcwb.bridge import jrp_to_sheaf
from rcwb.fixtures import build_finset
from rcwb.mcat import is_geometric, sub_m
from rcwb.rpsh import RestrictionPresheaf, yoneda_jr
from rcwb.site import (Presheaf, basis_covers, build_presheaf,
                       check_presheaf, constant_presheaf,
                       generate_topology, is_separated,
                       is_sheaf, matching_families, maximal_sieve, plus,
                       saturation_is_fixpoint, sheafify, sieve_pullback,
                       sieves_on, subcanonical_report, yoneda)


def test_yoneda_is_a_presheaf(mc_inj):
    for a in mc_inj.base.objects:
        assert check_presheaf(yoneda(mc_inj.base, a))


def test_yoneda_map_is_natural(mc_inj):
    c = mc_inj.base
    for f in c.morphisms():
        assert yoneda_map(c, f).check()


def test_sieves_are_closed(mc_inj):
    c = mc_inj.base
    for a in c.objects:
        for s in sieves_on(c, a):
            for f in s:
                for g in c.into(c.mor_src[f]):
                    assert c.compose(f, g) in s


def test_sieve_counts_on_finset_3_are_dedekind_numbers():
    # a sieve on set_n is fixed by a down-closed family of image subsets
    c = build_finset(3)
    assert [len(sieves_on(c, a)) for a in c.objects] == [2, 3, 6, 20]


def test_empty_family_covers_initial_object(mc_inj):
    covers = basis_covers(mc_inj)
    assert () in covers[0]  # the empty set is covered by nothing


def test_topology_is_saturated(top_inj):
    # the generated topology records its certificate; a copy does not, and
    # runs the saturation pass over the same covers
    copy = top_inj._replace()
    assert top_inj.joined is not None and copy.joined is None
    assert saturation_is_fixpoint(top_inj) and saturation_is_fixpoint(copy)


def test_topology_has_singleton_cover_of_two_set(mc_inj, top_inj):
    c = mc_inj.base
    singles = tuple(m for m in sub_m(mc_inj, 2)
                    if c.mor_src[m] == 1)
    assert generate_sieve(c, 2, singles) in top_inj.covers[2]


def test_subcanonical(top_inj):
    assert subcanonical_report(top_inj).ok


def test_sheafify_inverts_covering_sieves(mc_inj, top_inj):
    c = mc_inj.base
    for a in c.objects:
        ya = None
        for sieve in top_inj.covers[a]:
            sub, inc, ya = sieve_subpresheaf(c, a, sieve)
            nat = sheafify_map(inc, sheafify(sub, top_inj),
                               sheafify(ya, top_inj))
            assert nat.is_iso()


def test_sheafify_unit_is_iso_on_sheaves(mc_inj, top_inj):
    for a in mc_inj.base.objects:
        res = sheafify(yoneda(mc_inj.base, a), top_inj)
        assert res.unit.is_iso()


def test_sheafified_constant_presheaf_is_a_sheaf(mc_inj, top_inj):
    p = constant_presheaf(mc_inj.base, 2)
    res = sheafify(p, top_inj)
    assert is_sheaf(res.presheaf, top_inj).ok


def test_constant_presheaf_fails_at_empty_cover(mc_inj, top_inj):
    p = constant_presheaf(mc_inj.base, 2)
    rep = is_sheaf(p, top_inj)
    assert not rep.ok
    # the failure is the empty sieve on the initial object: ids == (0,)
    assert any(v.ids == (0,) for v in rep.violations)


def test_constant_presheaf_report_lines(mc_inj, top_inj):
    # the empty sieve on set0 has one (empty) matching family, and both
    # constant elements amalgamate it
    p = constant_presheaf(mc_inj.base, 2)
    assert is_separated(p, top_inj).lines() == \
        ["SEP\t0\tmatching family with several amalgamations"]
    assert is_sheaf(p, top_inj).lines() == \
        ["SHEAF\t0\tmatching family with 2 amalgamations"]


def test_matching_families_of_maximal_sieve_are_elements(mc_inj, top_inj):
    p = yoneda(mc_inj.base, 2)
    for a in mc_inj.base.objects:
        fs, fams = matching_families(p, a, maximal_sieve(mc_inj.base, a))
        assert len(fams) == p.sizes[a]


def test_sigma_is_separated_sheaf(mc_inj, top_inj):
    sigma = sigma_classifier(mc_inj)
    assert check_presheaf(sigma)
    assert is_separated(sigma, top_inj).ok
    assert is_sheaf(sigma, top_inj).ok


def test_classification_unique_for_all_canonical_monics(mc_inj, top_inj):
    sigma = sigma_classifier(mc_inj)
    for a in mc_inj.base.objects:
        for m in sub_m(mc_inj, a):
            ym = yoneda_map(mc_inj.base, m)
            assert m_psh_member(mc_inj, ym)
            assert m_sh_member(mc_inj, top_inj, ym)
            assert classification_report(mc_inj, sigma, ym).ok


@pytest.mark.parametrize("bundle, orders, basis", [
    # id 0 is the top in both orders: s in the first, 1 in the second
    (z2_bundle, (["s", "1"], ["1", "s"]), (((0,),),)),
    # A and B are initial, so the empty family covers; id 1 is the top of
    # Sub_M(B) in both orders: 1B in the first, i in the second
    (iso_pair_bundle, (["1A", "1B", "i", "j"], ["1A", "i", "1B", "j"]),
     (((), (0,)), ((), (1,))))])
def test_basis_covers_do_not_depend_on_the_order_of_the_maps(bundle, orders,
                                                             basis):
    for order in orders:
        assert basis_covers(load_bundle(bundle(order)).mcat) == basis


@pytest.mark.parametrize("bundle, order", [
    (z2_bundle, ["s", "1"]), (z2_bundle, ["1", "s"]),
    (iso_pair_bundle, ["1A", "1B", "i", "j"]),
    (iso_pair_bundle, ["1A", "i", "1B", "j"])])
def test_antichain_route_matches_the_family_by_family_scan(bundle, order):
    # each side on its own load, so neither reads the other's memo
    def load():
        return load_bundle(bundle(order)).mcat
    assert basis_covers(load()) == oracles.covering_antichains(load())
    for max_family in (None, 1, 2, 3):
        assert is_geometric(load(), max_family).lines() == \
            oracles.is_geometric(load(), max_family).lines()


@pytest.mark.parametrize("order", [["s", "1"], ["1", "s"]])
def test_classification_unique_when_the_top_is_not_the_identity(order):
    mc = load_bundle(z2_bundle(order)).mcat
    sigma = sigma_classifier(mc)
    for m in sub_m(mc, 0):
        assert classification_report(mc, sigma,
                                     yoneda_map(mc.base, m)).ok


def test_non_monic_rejected_from_m_psh(mc_inj):
    c = mc_inj.base
    collapse = next(f for f in c.morphisms()
                    if c.mor_src[f] == 2 and c.mor_tgt[f] == 1)
    assert not m_psh_member(mc_inj, yoneda_map(c, collapse))


def test_find_presheaf_iso_finds_identity(mc_inj):
    p = yoneda(mc_inj.base, 2)
    nat = oracles.find_presheaf_iso(p, p)
    assert nat is not None and nat.check() and nat.is_iso()


def test_find_presheaf_iso_rejects_different_sizes(mc_inj):
    p = yoneda(mc_inj.base, 1)
    q = yoneda(mc_inj.base, 2)
    assert oracles.find_presheaf_iso(p, q) is None


def test_all_nat_trans_to_terminal(mc_inj):
    p = yoneda(mc_inj.base, 2)
    one = constant_presheaf(mc_inj.base, 1)
    assert len(oracles.all_nat_trans(p, one)) == 1


def test_sieve_pullback_of_maximal_is_maximal(mc_inj):
    c = mc_inj.base
    for f in c.morphisms():
        s = maximal_sieve(c, c.mor_tgt[f])
        assert sieve_pullback(c, s, f) == maximal_sieve(c, c.mor_src[f])


def test_plus_on_separated_presheaf_gives_sheaf(mc_inj, top_inj):
    # for a separated presheaf one plus application already suffices
    p = yoneda(mc_inj.base, 2)
    d = plus(p, top_inj)
    assert is_sheaf(d.presheaf, top_inj).ok


@pytest.mark.parametrize("fixture", ["finset_inj_2", "finset_iso_3"])
def test_plus_enumerates_the_least_cover_once_per_object(monkeypatch,
                                                         fixture):
    # the least cover is a cover, and lies inside every other one
    mc = build_fixture(fixture).mcat
    c, top = mc.base, generate_topology(mc)
    calls = []
    real = site.matching_families

    def counting(p, a, sieve):
        calls.append((a, sieve))
        return real(p, a, sieve)

    monkeypatch.setattr(site, "matching_families", counting)
    plus(constant_presheaf(c, 2), top)
    assert [a for a, _ in calls] == list(c.objects)
    for a, least in calls:
        assert least in top.covers[a]
        assert all(least <= s for s in top.covers[a])


def test_plus_refuses_covers_that_omit_their_intersection(mc_inj, top_inj):
    # the principal sieves of the two points of set2 both cover in this
    # hand-built site, but their intersection, the sieve of the empty map,
    # does not
    c = mc_inj.base
    covers = list(top_inj.covers)
    covers[2] = frozenset([maximal_sieve(c, 2)] +
                          [frozenset(c.rows[m]) for m in c.hom(1, 2)])
    top = top_inj._replace(covers=tuple(covers))
    with pytest.raises(ValueError, match="set2 do not hold their "
                                         "intersection"):
        plus(yoneda(c, 2), top)


# -- the presheaf builder ---------------------------------------------------------

def test_build_presheaf_numbers_keys_and_acts_once_per_pair(mc_inj):
    c = mc_inj.base
    calls = []

    def act(f, h):
        calls.append((f, h))
        return c.compose(h, f)

    p, index = build_presheaf(c, lambda b: c.hom(b, 2), act,
                              lambda b, h: c.mor_names[h])
    assert p == yoneda(c, 2)
    assert index == tuple({h: i for i, h in enumerate(c.hom(b, 2))}
                          for b in c.objects)
    assert calls == [(f, h) for f in c.morphisms()
                     for h in c.hom(c.mor_tgt[f], 2)]


def test_build_presheaf_refuses_a_duplicate_key(mc_inj):
    with pytest.raises(ValueError, match="duplicate element key"):
        build_presheaf(mc_inj.base, lambda a: ["x", "x"], lambda f, x: x)


def test_build_presheaf_refuses_an_image_outside_the_keys(mc_inj):
    # the key at each object is the object itself, and every map keeps it
    with pytest.raises(ValueError, match="not an element key"):
        build_presheaf(mc_inj.base, lambda a: [a], lambda f, x: x)


def test_sieve_subpresheaf_refuses_a_set_that_is_not_a_sieve(mc_inj):
    c = mc_inj.base
    f = c.hom(1, 2)[0]     # f∘g for g: set0 -> set1 is missing
    with pytest.raises(ValueError, match="not an element key"):
        sieve_subpresheaf(c, 2, {f})


def test_jrp_to_sheaf_refuses_an_action_that_left_the_total_elements(
        pc_inj):
    # the span (1, f) for an injection f: set1 -> set2 sends the total
    # element 1_set2 of y(set2) to a partial map instead of to f
    c = pc_inj.mc.base
    rcb = pc_inj.rc.base
    rp = yoneda_jr(pc_inj.rc, 2)
    p = rp.presheaf

    def total(a, e):
        return rp.bar(a, e) == rcb.identity[a]

    j = pc_inj.id_of_span(c.identity[1], c.hom(1, 2)[0])
    e = next(e for e in p.elements(2) if total(2, e))
    action = dict(p.action)
    action[(j, e)] = next(y for y in p.elements(1) if not total(1, y))
    mut = RestrictionPresheaf(pc_inj.rc,
                              Presheaf(rcb, p.sizes, action, p.elem_names),
                              rp.bar_elem)
    assert jrp_to_sheaf(pc_inj, rp).presheaf.sizes[1] == 2
    with pytest.raises(ValueError, match="not an element key"):
        jrp_to_sheaf(pc_inj, mut)
