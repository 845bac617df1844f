import pytest

from rcwb.fincat import FinCategory, validate_category
from rcwb.fixtures import build_finset_mcat, build_finset_p
from rcwb.joins import check_join_axioms
from rcwb.mcat import (MCategory, check_m_system, heyting_check,
                       is_geometric, karoubi_r, matching_colimit, mtotal, par,
                       par_join_construction, par_leq_oracle,
                       pullback_preserves_joins, split_unit_functor, sub_m,
                       subobject_rep)
from rcwb.restriction import check_restriction_axioms, leq


def test_m_system_checks(mc_inj, mc_iso):
    assert check_m_system(mc_inj).ok
    assert check_m_system(mc_iso).ok


def test_m_system_flags_non_mono(mc_inj):
    c = mc_inj.base
    non_mono = next(f for f in c.morphisms()
                    if f not in mc_inj.monics)
    bad = MCategory(c, mc_inj.monics | {non_mono})
    assert "M-MONO" in check_m_system(bad).tags()


def test_sub_m_sizes(mc_inj):
    # subobjects of the n-set are its subsets up to iso: n+1 injection classes
    # except that the 2-set distinguishes its two singleton images: 4 total
    assert [len(sub_m(mc_inj, a).elements) for a in (0, 1, 2)] == [1, 2, 4]


def test_subobject_rep_is_idempotent(mc_inj):
    for m in mc_inj.monics:
        r = subobject_rep(mc_inj, m)
        assert subobject_rep(mc_inj, r) == r


def test_matching_colimit_of_singletons_covers_two_set(mc_inj):
    poset = sub_m(mc_inj, 2)
    singles = [m for m in poset.elements
               if mc_inj.base.mor_src[m] == 1]
    assert len(singles) == 2
    mcol = matching_colimit(mc_inj, tuple(singles), 2)
    assert mcol is not None
    assert subobject_rep(mc_inj, mcol.mu) == poset.top()


def test_geometric_accepts_inj(mc_inj):
    assert is_geometric(mc_inj).ok


def test_geometric_rejects_iso_citing_empty_family(mc_iso):
    rep = is_geometric(mc_iso)
    assert not rep.ok
    empty_family_failures = [v for v in rep.violations
                             if v.tag == "GEO-MU" and len(v.ids) == 2]
    assert empty_family_failures  # (object, mu) with no family members


def test_geometric_reports_a_missing_matching_colimit():
    # objects P, A, B, X, Z; maps p1: P->A, p2: P->B, m1: A->X, m2: B->X,
    # a: A->Z, b: B->Z with m1∘p1 = m2∘p2 (11) and a∘p1 = b∘p2 (12)
    src = (0, 1, 2, 3, 4, 0, 0, 1, 2, 1, 2, 0, 0)
    tgt = (0, 1, 2, 3, 4, 1, 2, 3, 3, 4, 4, 3, 4)
    comp = {(7, 5): 11, (8, 6): 11, (9, 5): 12, (10, 6): 12}
    for f in range(len(src)):
        comp[(tgt[f], f)] = comp[(f, src[f])] = f
    c = FinCategory(5, src, tgt, range(5), comp)
    assert validate_category(c).ok
    mc = MCategory(c, frozenset(range(9)) | {11})
    assert check_m_system(mc).ok
    # the cocone (a, b) at Z factors through no map X->Z, so m1 and m2 have
    # no matching colimit; at Z the empty family's induced map a∘p1 is not
    # in M
    assert [(v.tag, v.ids) for v in is_geometric(mc).violations] == \
        [("GEO-COLIM", (3, 7, 8)), ("GEO-MU", (4, 12))]


def test_heyting_distributivity(mc_inj):
    for a in mc_inj.base.objects:
        assert heyting_check(mc_inj, a).ok


def test_pullback_preserves_joins(mc_inj):
    for f in mc_inj.base.morphisms():
        assert pullback_preserves_joins(mc_inj, f).ok


def test_par_is_a_join_restriction_category(pc_inj):
    assert check_restriction_axioms(pc_inj.rc).ok
    assert check_join_axioms(pc_inj.rc, max_family=3).ok


def test_par_span_count_matches_partial_functions(pc_inj):
    # spans (m, f) up to iso over FinSet<=2 = partial functions: 23
    assert pc_inj.rc.base.n_morphisms == 23


def test_par_leq_oracle_agrees_with_hom_order(pc_inj):
    c = pc_inj.rc.base
    for a in c.objects:
        for b in c.objects:
            for i in c.hom(a, b):
                for j in c.hom(a, b):
                    assert par_leq_oracle(pc_inj, i, j) == \
                        leq(pc_inj.rc, i, j)


def test_par_join_recipe_matches_search(pc_inj):
    from rcwb.joins import compatible_subsets, join
    c = pc_inj.rc.base
    for a in c.objects:
        for b in c.objects:
            for fam in compatible_subsets(pc_inj.rc, a, b, max_family=2):
                got = par_join_construction(pc_inj, fam.members, a, b)
                assert got == join(pc_inj.rc, fam)


def test_karoubi_splits_and_embeds(finset_p2):
    kr = karoubi_r(finset_p2)  # re-checks splitting + embedding
    assert len(kr.objects) == 7
    assert kr.rc.base.n_morphisms == 81
    assert check_restriction_axioms(kr.rc).ok
    assert kr.embedding.is_full_and_faithful()


def test_karoubi_preserves_join_axioms(finset_p2):
    kr = karoubi_r(finset_p2)
    assert check_join_axioms(kr.rc, max_family=2).ok


def test_mtotal_monics_form_m_system(finset_p2):
    kr = karoubi_r(finset_p2)
    mt = mtotal(kr.rc)
    assert check_m_system(mt.mcat).ok


def test_mtotal_requires_split_idempotents(nojoin):
    # the nojoin fixture has non-split restriction idempotents
    with pytest.raises(ValueError):
        mtotal(nojoin)


def test_split_unit_is_invertible(finset_p2):
    kr = karoubi_r(finset_p2)
    res = split_unit_functor(kr.rc)  # raises if not an isomorphism
    assert res.functor.source.n_morphisms == res.functor.target.n_morphisms
