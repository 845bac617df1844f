import functools

import pytest

import oracles
from rcwb import bridge
from rcwb.bridge import (amalgamation_formula_report, cocompletion_unit,
                         jrp_to_sheaf, recipe_join, roundtrip_report,
                         sheaf_to_jrp, transfer_report)
from rcwb.fixtures import build_finset_mcat
from rcwb.mcat import par, sub_m_order
from rcwb.rpsh import (check_jrp_axioms, element_join, element_poset,
                       find_rp_iso, yoneda_jr)
from rcwb.site import find_presheaf_iso, generate_topology, is_sheaf, yoneda


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
