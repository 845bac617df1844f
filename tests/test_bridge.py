from rcwb.bridge import (amalgamation_formula_report, cocompletion_unit,
                         jrp_to_sheaf, recipe_join, roundtrip_report,
                         sheaf_to_jrp, transfer_report)
from rcwb.rpsh import (check_jrp_axioms, element_join, element_poset,
                       find_rp_iso, yoneda_jr)
from rcwb.site import find_presheaf_iso, is_sheaf, yoneda


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


def test_roundtrips_are_natural_isos(pc_inj):
    assert roundtrip_report(pc_inj).ok


def test_roundtrip_sheaf_side_explicitly(pc_inj, top_inj):
    c = pc_inj.mc.base
    p = yoneda(c, 2)
    dot = jrp_to_sheaf(pc_inj, sheaf_to_jrp(pc_inj, p).rp)
    nat = find_presheaf_iso(p, dot.presheaf)
    assert nat is not None and nat.check() and nat.is_iso()


def test_roundtrip_presheaf_side_explicitly(pc_inj, top_inj):
    q = yoneda_jr(pc_inj.rc, 2)
    tr = sheaf_to_jrp(pc_inj, jrp_to_sheaf(pc_inj, q).presheaf)
    assert find_rp_iso(q, tr.rp) is not None


def test_cocompletion_unit_matches_representables(finset_p2):
    res = cocompletion_unit(finset_p2)
    assert res.report.ok
    assert len(res.transferred) == finset_p2.base.n_objects


def test_cocompletion_unit_on_small_join_category():
    from rcwb.fixtures import subsets_category
    res = cocompletion_unit(subsets_category(2))
    assert res.report.ok
