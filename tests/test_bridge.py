import contextlib
import functools
import io
import itertools

import pytest

import oracles
from rcwb import bridge, fincat
from rcwb.bridge import (amalgamation_formula_report, canonical_pair,
                         cocompletion_unit, jrp_to_sheaf, recipe_join,
                         roundtrip_report, sheaf_to_jrp, transfer_report)
from rcwb.bundles import build_fixture, load_bundle
from rcwb.cli import main
from rcwb.fixtures import build_finset_mcat, subsets_category
from rcwb.mcat import par, sub_m_order
from rcwb.rpsh import check_jrp_axioms, element_join, element_poset, yoneda_jr
from rcwb.site import NatTrans, generate_topology, is_sheaf, yoneda


@functools.cache
def _site(n):
    """(Par, topology) of finset_inj_n, built once per run."""
    mc = build_finset_mcat(n)
    return par(mc), generate_topology(mc)


def test_transferred_representables_are_jrps(pc_inj, top_inj):
    c = pc_inj.mc.base
    for w in c.objects:
        tr = sheaf_to_jrp(pc_inj, yoneda(c, w))
        assert check_jrp_axioms(tr.rp, max_family=3).ok


def test_transfer_report_clean(pc_inj, top_inj):
    c = pc_inj.mc.base
    for w in c.objects:
        assert transfer_report(pc_inj, top_inj, yoneda(c, w),
                               max_family=3).ok


def test_recipe_join_matches_search(pc_inj, top_inj):
    c = pc_inj.mc.base
    tr = sheaf_to_jrp(pc_inj, yoneda(c, 2))
    for a in pc_inj.rc.base.objects:
        for fam in element_poset(tr.rp, a).families(max_family=2):
            if not fam:
                continue
            got, reason = recipe_join(tr, a, fam)
            assert reason is None
            assert got == element_join(tr.rp, a, fam)


def test_recipe_join_matches_search_on_every_family_unbounded():
    # every non-empty compatible family of the transferred representables
    # of finset_inj_3; most have a dominated monic, whose element the join
    # reads off its dominator's
    pc, _ = _site(3)
    c = pc.mc.base
    seen = dominated = 0
    for w in c.objects:
        tr = sheaf_to_jrp(pc, yoneda(c, w))
        for a in pc.rc.base.objects:
            order = sub_m_order(pc.mc, a)
            for fam in element_poset(tr.rp, a).families():
                if not fam:
                    continue
                assert recipe_join(tr, a, fam) == \
                    (element_join(tr.rp, a, fam), None)
                mask = order.mask(tr.elems[a][i][0] for i in fam)
                seen += 1
                dominated += order.maximal(mask) != mask
    assert (seen, dominated) == (8496, 8008)


def test_transfer_rejects_non_sheaf(pc_inj, top_inj):
    from rcwb.site import constant_presheaf
    rep = transfer_report(pc_inj, top_inj,
                          constant_presheaf(pc_inj.mc.base, 2))
    assert "TRANSFER-SHEAF" in rep.tags()


def test_total_elements_form_a_sheaf(pc_inj, top_inj):
    for w in pc_inj.rc.base.objects:
        dot = jrp_to_sheaf(pc_inj, yoneda_jr(pc_inj.rc, w))
        assert is_sheaf(dot.presheaf, top_inj).ok


def test_amalgamation_formula(pc_inj, top_inj):
    for w in pc_inj.rc.base.objects:
        rep = amalgamation_formula_report(pc_inj, top_inj,
                                          yoneda_jr(pc_inj.rc, w),
                                          max_family=3)
        assert rep.ok


@pytest.mark.parametrize("n", [2, 3])
def test_amalgamation_formula_matches_the_family_by_family_check(n):
    pc, top = _site(n)
    for w in pc.rc.base.objects:
        rp = yoneda_jr(pc.rc, w)
        for max_family in (None, 1, 2, 3):
            assert amalgamation_formula_report(pc, top, rp,
                                               max_family).lines() == \
                oracles.amalgamation_formula_report(pc, top, rp,
                                                    max_family).lines()


def test_amalgamation_formula_checks_the_covering_antichains(pc_inj, top_inj,
                                                              monkeypatch):
    # the empty antichain covers set0, and it is checked, cleanly
    checked = []
    real = bridge._check_formula
    monkeypatch.setattr(bridge, "_check_formula",
                        lambda pc, rp, dot, report, a, fam:
                        checked.append((a, fam)) or
                        real(pc, rp, dot, report, a, fam))
    assert amalgamation_formula_report(pc_inj, top_inj,
                                       yoneda_jr(pc_inj.rc, 0)).ok
    assert (0, ()) in checked
    assert checked == [(a, fam) for a, fams in enumerate(top_inj.basis)
                       for fam in fams]


def test_roundtrips_are_natural_isos(pc_inj):
    assert roundtrip_report(pc_inj).ok


def test_roundtrip_sheaf_side_explicitly(pc_inj, top_inj):
    # x in P(a) goes to the total element (1, x): in FinSet the identity is
    # its own canonical monic, so that is the pair (1, x) itself
    c = pc_inj.mc.base
    p = yoneda(c, 2)
    tr = sheaf_to_jrp(pc_inj, p)
    dot = jrp_to_sheaf(pc_inj, tr.rp)
    comps = tuple(tuple(dot.index[a][tr.index[a][(c.identity[a], x)]]
                        for x in p.elements(a)) for a in c.objects)
    assert all(canonical_pair(pc_inj.mc, p, c.identity[a], x) ==
               (c.identity[a], x) for a in c.objects for x in p.elements(a))
    nat = NatTrans(p, dot.presheaf, comps)
    assert nat.check() and nat.is_iso()


def test_roundtrip_presheaf_side_explicitly(pc_inj, top_inj):
    # t with bar (m, m) goes to (m, t·(1, m)), t·(1, m) a total element at
    # dom m, and keeps its bar
    c = pc_inj.mc.base
    q = yoneda_jr(pc_inj.rc, 2)
    dot = jrp_to_sheaf(pc_inj, q)
    tr = sheaf_to_jrp(pc_inj, dot.presheaf)
    comps = []
    for a in c.objects:
        col = []
        for t in q.presheaf.elements(a):
            m, n = pc_inj.spans[q.bar(a, t)]
            d = c.mor_src[m]
            total = q.presheaf.act(pc_inj.id_of_span(c.identity[d], m), t)
            assert m == n and q.bar(d, total) == pc_inj.rc.base.identity[d]
            col.append(tr.index[a][(m, dot.index[d][total])])
        comps.append(tuple(col))
    nat = NatTrans(q.presheaf, tr.rp.presheaf, tuple(comps))
    assert nat.check() and nat.is_iso()
    assert all(tr.rp.bar(a, y) == q.bar(a, t)
               for a, col in enumerate(comps) for t, y in enumerate(col))


def test_cocompletion_unit_matches_representables(finset_p2):
    res = cocompletion_unit(finset_p2)
    assert res.report.ok
    assert len(res.transferred) == finset_p2.base.n_objects


def test_cocompletion_unit_on_small_join_category():
    from rcwb.fixtures import subsets_category
    res = cocompletion_unit(subsets_category(2))
    assert res.report.ok


# -- the comparison maps against the iso search ---------------------------------
#
# roundtrip_report and cocompletion_unit check one comparison map each; the
# iso search they once ran is oracles.find_presheaf_iso / find_rp_iso.

ISO_PAIR_ORDERS = list(itertools.permutations(["1A", "1B", "i", "j"]))

# the bundles the site tests draw: M3, and the canonical subobjects that are
# not identities in Z/2 and in the A ≅ B pair, in every map order
BUNDLE_BASES = {
    "m3": lambda: load_bundle(oracles.m3_bundle()).mcat,
    # with "s" first the top subobject is s, not the identity
    "z2_s1": lambda: load_bundle(oracles.z2_bundle(["s", "1"])).mcat,
    "z2_1s": lambda: load_bundle(oracles.z2_bundle(["1", "s"])).mcat,
    **{"iso_pair_" + "_".join(order):
       (lambda order=order: load_bundle(oracles.iso_pair_bundle(order)).mcat)
       for order in ISO_PAIR_ORDERS},
}

RT_BASES = {
    **{name: (lambda name=name: build_fixture(name).mcat)
       for name in ("finset_inj_1", "finset_inj_2", "finset_inj_3",
                    "finset_iso_2", "finset_iso_3")},
    **BUNDLE_BASES,
}

UNIT_BASES = {
    **{name: (lambda name=name: build_fixture(name).restriction)
       for name in ("finset_p_1", "finset_p_2", "finset_p_3", "nojoin")},
    **{f"subsets_{n}": (lambda n=n: subsets_category(n)) for n in (1, 2, 3)},
    # every map total: the restriction categories the bundles carry
    **{name: (lambda base=base: oracles.trivial_restriction(base().base))
       for name, base in BUNDLE_BASES.items()},
}


def _spy_on_comparisons(monkeypatch):
    """Record each comparison map that bridge checks, as (natural
    transformation, bars or None, the helper's verdict)."""
    calls = []
    real = bridge._is_witness

    def spy(p, q, image, bars=None):
        comps = tuple(tuple(image(a, x) for x in p.elements(a))
                      for a in p.cat.objects)
        ok = real(p, q, image, bars)
        calls.append((NatTrans(p, q, comps), bars, ok))
        return ok

    monkeypatch.setattr(bridge, "_is_witness", spy)
    return calls


def _lines(report):
    return {(v.tag, v.ids) for v in report.violations}


def _is_comparison_iso(nat, bars):
    return nat.is_iso() and nat.check() and (bars is None or all(
        bars[0][a][x] == bars[1][a][y]
        for a, comp in enumerate(nat.components) for x, y in enumerate(comp)))


@pytest.mark.parametrize("name", sorted(RT_BASES))
def test_roundtrip_witnesses_match_the_iso_search(name, monkeypatch):
    pc = par(RT_BASES[name]())
    c = pc.mc.base
    calls = _spy_on_comparisons(monkeypatch)
    got = _lines(roundtrip_report(pc))
    want = set()
    for w in c.objects:
        p = yoneda(c, w)
        dot = jrp_to_sheaf(pc, sheaf_to_jrp(pc, p).rp)
        if oracles.find_presheaf_iso(p, dot.presheaf) is None:
            want.add(("RT-SHEAF", (w,)))
    for w in pc.rc.base.objects:
        q = yoneda_jr(pc.rc, w)
        tr = sheaf_to_jrp(pc, jrp_to_sheaf(pc, q).presheaf)
        if oracles.find_rp_iso(q, tr.rp) is None:
            want.add(("RT-JRP", (w,)))
    assert got == want == set()
    assert len(calls) == 2 * c.n_objects
    assert all(ok and _is_comparison_iso(nat, bars)
               for nat, bars, ok in calls)


@pytest.mark.parametrize("name", sorted(UNIT_BASES))
def test_unit_witnesses_match_the_iso_search(name, monkeypatch):
    x = UNIT_BASES[name]()
    calls = _spy_on_comparisons(monkeypatch)
    res = cocompletion_unit(x)
    # no UNIT-SUBCAN or UNIT-BAR line, so every object has its presheaf
    assert len(res.transferred) == x.base.n_objects
    want = {("UNIT-ISO", (a,)) for a, pulled in enumerate(res.transferred)
            if oracles.find_rp_iso(pulled, yoneda_jr(x, a)) is None}
    assert _lines(res.report) == want == set()
    assert len(calls) == x.base.n_objects
    assert all(ok and _is_comparison_iso(nat, bars)
               for nat, bars, ok in calls)


@pytest.mark.parametrize("name", sorted(UNIT_BASES))
def test_unit_transfer_matches_the_route_over_par(name):
    x = UNIT_BASES[name]()
    got = cocompletion_unit(x).transferred
    want = oracles.unit_transferred(x)
    assert len(got) == len(want) == x.base.n_objects
    for rp, ref in zip(got, want):
        assert rp.presheaf.sizes == ref.presheaf.sizes
        assert rp.presheaf.action == ref.presheaf.action
        assert rp.presheaf.elem_names == ref.presheaf.elem_names
        assert rp.bar_elem == ref.bar_elem
    assert got == want


def test_the_unit_builds_no_presheaf_over_par(finset_p2, monkeypatch):
    def no_par_transfer(pc, p):
        raise AssertionError("a transfer over all of Par")

    built_on = []
    real = bridge.build_presheaf

    def spy(c, *args):
        built_on.append(c)
        return real(c, *args)

    monkeypatch.setattr(bridge, "sheaf_to_jrp", no_par_transfer)
    monkeypatch.setattr(bridge, "build_presheaf", spy)
    assert cocompletion_unit(finset_p2).report.ok
    assert built_on and all(c is finset_p2.base for c in built_on)


def test_bars_outside_the_idempotents_of_x_are_unit_bar_lines(finset_p2,
                                                              monkeypatch):
    monkeypatch.setattr(bridge, "is_restriction_idempotent",
                        lambda x, e: False)
    res = cocompletion_unit(finset_p2)
    assert _lines(res.report) == {("UNIT-BAR", (a,))
                                  for a in finset_p2.base.objects}
    assert res.transferred == ()
    code, out = _run(["unit", "finset_p_2"])
    assert code == 1 and out.splitlines()[-1].startswith("FAIL")
    assert "UNIT-BAR" in out and "UNIT-ISO" not in out


def _merge_two_maps(real, x, order):
    """fincat.compose_functors with, per object b of x, one map h of
    hom(b, b) that is no restriction idempotent sent where a restriction
    idempotent e is sent; h comes before or after e in hom(b, b)."""
    def merged(g, f):
        fun = real(g, f)
        mor_map = list(fun.mor_map)
        for b in x.base.objects:
            hom = x.base.hom(b, b)
            pairs = [(h, e) for i, e in enumerate(hom) if x.bar[e] == e
                     for h in (hom[:i] if order == "before" else hom[i + 1:])
                     if x.bar[h] != h]
            if pairs:
                h, e = pairs[0]
                mor_map[h] = mor_map[e]
        return fun._replace(mor_map=tuple(mor_map))

    return merged


@pytest.mark.parametrize("order", ["before", "after"])
def test_a_bar_with_two_preimages_is_a_unit_bar_line(order, finset_p2,
                                                     monkeypatch):
    merged = _merge_two_maps(fincat.compose_functors, finset_p2, order)
    monkeypatch.setattr(bridge, "compose_functors", merged)
    monkeypatch.setattr(fincat, "compose_functors", merged)
    res = cocompletion_unit(finset_p2)
    assert res.report.tags() == {"UNIT-BAR"}
    assert res.transferred == oracles.unit_transferred(finset_p2)


def test_a_comparison_undefined_somewhere_fails_without_an_error(mc_inj):
    p = yoneda(mc_inj.base, 2)
    assert bridge._is_witness(p, p, lambda a, x: x)
    assert not bridge._is_witness(p, p, lambda a, x: None if x == 0 else x)
    # an index outside q(a) is no element either
    assert not bridge._is_witness(p, p, lambda a, x: x + 1)
    bars = tuple(tuple(range(n)) for n in p.sizes)
    assert bridge._is_witness(p, p, lambda a, x: x, (bars, bars))
    moved = tuple(tuple(b + 1 for b in col) for col in bars)
    assert not bridge._is_witness(p, p, lambda a, x: x, (bars, moved))


def _swap_two(real):
    """bridge._is_witness on a comparison with the images of the first two
    elements at the first object with two or more swapped."""
    def swapped(p, q, image, bars=None):
        at = next((a for a in p.cat.objects if p.sizes[a] > 1), None)
        return real(p, q, lambda a, x: image(a, 1 - x if a == at and x < 2
                                             else x), bars)

    return swapped


def _shift_canonical_pair(real):
    """bridge.canonical_pair with each element moved one place along
    P(dom m): the transfer's action and the RT-SHEAF map go wrong, but
    every pair stays a pair of the transfer."""
    def shifted(mc, p, mu, e):
        m, x = real(mc, p, mu, e)
        return m, (x + 1) % p.sizes[mc.base.mor_src[m]]

    return shifted


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name, corrupt", [
    ("_is_witness", _swap_two), ("canonical_pair", _shift_canonical_pair)])
def test_a_wrong_comparison_is_a_failed_law(name, corrupt, pc_inj, finset_p2,
                                            monkeypatch):
    monkeypatch.setattr(bridge, name, corrupt(getattr(bridge, name)))
    assert {"RT-SHEAF", "RT-JRP"} <= roundtrip_report(pc_inj).tags()
    assert cocompletion_unit(finset_p2).report.tags() == {"UNIT-ISO"}
    for argv in (["roundtrip", "finset_inj_2", "yset1"],
                 ["unit", "finset_p_2"]):
        code, out = _run(argv)
        assert code == 1 and out.splitlines()[-1].startswith("FAIL"), argv
