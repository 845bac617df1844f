"""End-to-end acceptance gate.

Each test pins one headline guarantee of the package on the bundled finite
fixtures.  Frozen expected values were computed with independent hand checks
(counting partial functions, enumerating subsets) before being asserted here.
"""

import random
import time

from oracles import (classification_report, collage, compatible,
                     heyting_check, leq, m_psh_member, m_sh_member,
                     nojoin_certified_pair, par_leq_oracle, sheafify_map,
                     sieve_subpresheaf, sigma_classifier, upper_bounds,
                     yoneda_map)
from rcwb.bridge import (cocompletion_unit, roundtrip_report, sheaf_to_jrp,
                         transfer_report)
from rcwb.fincat import validate_category
from rcwb.fixtures import build_finset_p, subsets_category
from rcwb.joins import CompatibleFamily, check_join_axioms
from rcwb.mcat import is_geometric, karoubi_r, mtotal, sub_m
from rcwb.restriction import check_restriction_axioms, restriction_idempotents
from rcwb.rpsh import (RestrictionPresheaf, check_jrp_axioms, check_rp_axioms,
                       yoneda_jr)
from rcwb.search import find_restriction_iso
from rcwb.site import (Presheaf, constant_presheaf, is_separated, is_sheaf,
                       saturation_is_fixpoint, sheafify, subcanonical_report,
                       yoneda)


# -- 1: the law suites accept the partial-map category ------------------------

def test_01_law_suites_on_partial_maps():
    start = time.monotonic()
    x = build_finset_p(2)
    assert validate_category(x.base).ok
    assert check_restriction_axioms(x).ok
    assert check_join_axioms(x, max_family=3).ok
    # hand count: sum over a,b <= 2 of (b+1)^a partial functions
    assert x.base.n_morphisms == 23
    assert time.monotonic() - start < 60


# -- 2: spans over injections are the partial maps -----------------------------

def test_02_par_isomorphic_to_partial_maps(pc_inj, finset_p2):
    start = time.monotonic()
    fun = find_restriction_iso(pc_inj.rc, finset_p2)
    assert fun is not None
    assert fun.check() and fun.is_full_and_faithful()
    assert time.monotonic() - start < 120


# -- 3: geometric acceptance and a cited counterexample ------------------------

def test_03_geometric_inj_yes_iso_no(mc_inj, mc_iso):
    assert is_geometric(mc_inj).ok
    rep = is_geometric(mc_iso)
    assert not rep.ok
    # the isomorphism class misses the colimit of the empty family over the
    # empty set: the violation carries only (object, candidate) ids
    assert any(v.tag == "GEO-MU" and len(v.ids) == 2 for v in rep.violations)


# -- 4: the pullback order oracle agrees with the algebraic order --------------

def test_04_order_oracle_total_agreement(pc_inj):
    c = pc_inj.rc.base
    checked = 0
    for a in c.objects:
        for b in c.objects:
            for i in c.hom(a, b):
                for j in c.hom(a, b):
                    assert par_leq_oracle(pc_inj, i, j) == \
                        leq(pc_inj.rc, i, j)
                    checked += 1
    assert checked > 0


# -- 5: subobject lattices are distributive -------------------------------------

def test_05_heyting_distributivity(mc_inj):
    for a in mc_inj.base.objects:
        assert heyting_check(mc_inj, a).ok


# -- 6: the topology is saturated, subcanonical, and sheafification works ------

def test_06_topology_and_sheafification(mc_inj, top_inj):
    assert saturation_is_fixpoint(top_inj)
    assert subcanonical_report(top_inj).ok
    c = mc_inj.base
    for a in c.objects:
        for sieve in top_inj.covers[a]:
            sub, inc, ya = sieve_subpresheaf(c, a, sieve)
            nat = sheafify_map(inc, sheafify(sub, top_inj),
                               sheafify(ya, top_inj))
            assert nat.is_iso()
        res = sheafify(yoneda(c, a), top_inj)
        assert res.unit.is_iso()


# -- 7: the subobject classifier classifies -------------------------------------

def test_07_sigma_classifier(mc_inj, top_inj):
    sigma = sigma_classifier(mc_inj)
    assert is_separated(sigma, top_inj).ok
    assert is_sheaf(sigma, top_inj).ok
    for a in mc_inj.base.objects:
        for m in sub_m(mc_inj, a).elements:
            ym = yoneda_map(mc_inj.base, m)
            assert m_psh_member(mc_inj, ym)
            assert m_sh_member(mc_inj, top_inj, ym)
            assert classification_report(mc_inj, sigma, ym).ok


# -- 8: the idempotent-splitting completion -------------------------------------

def test_08_karoubi_splits_and_embeds(finset_p2):
    kr = karoubi_r(finset_p2)
    # one object per restriction idempotent of the partial-map category
    assert len(kr.objects) == sum(
        1 for _ in restriction_idempotents(finset_p2))
    assert len(kr.objects) == 7
    assert kr.rc.base.n_morphisms == 81
    assert check_restriction_axioms(kr.rc).ok
    assert check_join_axioms(kr.rc, max_family=2).ok
    assert kr.embedding.check()
    assert kr.embedding.is_full_and_faithful()
    # every restriction idempotent splits through a total monic
    mt = mtotal(kr.rc)  # raises if some idempotent fails to split
    assert mt.mcat.monics


# -- 9: the collage criterion, positives and mutants ----------------------------

def _collage_ok(rp):
    col = collage(rp)
    return (validate_category(col.rc.base).ok
            and check_restriction_axioms(col.rc).ok
            and check_join_axioms(col.rc, max_family=2).ok)


def _rp_ok(rp):
    return check_rp_axioms(rp).ok and check_jrp_axioms(rp, max_family=2).ok


def _mutants(rp, rng, wanted):
    """Seeded single-entry perturbations of the restriction or the action,
    keeping only those that break the presheaf-level laws."""
    c = rp.rc.base
    p = rp.presheaf
    out = []
    attempts = 0
    while len(out) < wanted and attempts < 500:
        attempts += 1
        if rng.random() < 0.5:
            # retarget one element's restriction to another endomap
            spots = [(a, e) for a in c.objects for e in p.elements(a)
                     if len(c.hom(a, a)) > 1]
            if not spots:
                continue
            a, e = rng.choice(spots)
            endo = rng.choice([f for f in c.hom(a, a)
                               if f != rp.bar(a, e)])
            bars = [list(col) for col in rp.bar_elem]
            bars[a][e] = endo
            mut = RestrictionPresheaf(rp.rc, p,
                                      tuple(tuple(col) for col in bars))
        else:
            # rewrite one action-table entry
            keys = [k for k in p.action
                    if p.sizes[c.mor_src[k[0]]] > 1]
            if not keys:
                continue
            f, xe = rng.choice(keys)
            a = c.mor_src[f]
            y = rng.choice([v for v in p.elements(a)
                            if v != p.action[(f, xe)]])
            action = dict(p.action)
            action[(f, xe)] = y
            mut = RestrictionPresheaf(
                rp.rc, Presheaf(c, p.sizes, action, p.elem_names),
                rp.bar_elem)
        if not _rp_ok(mut):
            out.append(mut)
    return out


def test_09_collage_iff(finset_p2, pc_inj):
    positives = []
    for a in finset_p2.base.objects:
        positives.append(yoneda_jr(finset_p2, a))
    p1 = build_finset_p(1)
    for a in p1.base.objects:
        positives.append(yoneda_jr(p1, a))
    positives.append(yoneda_jr(subsets_category(2), 0))
    positives.append(yoneda_jr(subsets_category(3), 0))
    for w in pc_inj.mc.base.objects:
        positives.append(sheaf_to_jrp(pc_inj, yoneda(pc_inj.mc.base, w)).rp)
    assert len(positives) >= 10

    rng = random.Random(20260823)
    mutants = _mutants(yoneda_jr(finset_p2, 2), rng, 6)
    mutants += _mutants(yoneda_jr(finset_p2, 1), rng, 2)
    mutants += _mutants(yoneda_jr(p1, 1), rng, 2)
    assert len(mutants) >= 10

    discordant = 0
    for rp in positives:
        if not (_rp_ok(rp) and _collage_ok(rp)):
            discordant += 1
    for rp in mutants:
        assert not _rp_ok(rp)  # by construction
        if _collage_ok(rp):
            discordant += 1
    assert discordant == 0


# -- 10: transfer in both directions and the round trip -------------------------

def test_10_transfer_and_roundtrip(pc_inj, top_inj):
    c = pc_inj.mc.base
    for w in c.objects:
        rep = transfer_report(pc_inj, top_inj, yoneda(c, w), max_family=3)
        assert rep.ok  # includes RECIPE: constructed join == searched lub
    assert roundtrip_report(pc_inj).ok


# -- 11: the embedding into presheaves matches the representables ---------------

def test_11_cocompletion_unit(finset_p2):
    res = cocompletion_unit(finset_p2)
    assert res.report.ok
    assert len(res.transferred) == finset_p2.base.n_objects


# -- 12: negative controls -------------------------------------------------------

def test_12a_nojoin_certifies_a_joinless_pair(nojoin):
    f, g = nojoin_certified_pair(nojoin)
    c = nojoin.base
    a, b = c.mor_src[f], c.mor_tgt[f]
    assert compatible(nojoin, f, g)
    fam = CompatibleFamily(a, b, frozenset((f, g)))
    assert not upper_bounds(nojoin, fam)
    rep = check_join_axioms(nojoin, max_family=2)
    assert any(v.tag == "JOIN-MISSING" and set(v.ids) >= {f, g}
               for v in rep.violations)


def test_12b_mutants_break_the_collage(finset_p2):
    rng = random.Random(7)
    for mut in _mutants(yoneda_jr(finset_p2, 2), rng, 5):
        assert not _collage_ok(mut)


def test_12c_constant_presheaf_is_no_sheaf(mc_inj, top_inj):
    rep = is_sheaf(constant_presheaf(mc_inj.base, 2), top_inj)
    assert not rep.ok
    # it fails the empty cover of the initial object
    assert any(v.ids == (0,) for v in rep.violations)
