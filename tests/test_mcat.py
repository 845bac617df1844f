import hashlib

import pytest

from oracles import (FINSET_MCATS, families, heyting_check, leq, m3_bundle,
                     par_join_construction, par_leq_oracle,
                     pullback_preserves_joins)
from rcwb import mcat
from rcwb.bundles import build_fixture, load_bundle
from rcwb.cli import main
from rcwb.fincat import build_category, validate_category
from rcwb.fixtures import build_finset_mcat
from rcwb.joins import check_join_axioms
from rcwb.mcat import (MCategory, check_m_system, is_geometric, karoubi_r,
                       matching_colimit, mtotal, par, pullback_stable,
                       split_unit_functor, sub_m, sub_m_join,
                       subobject_rep)
from rcwb.reports import InternalInvariantError, LawReport
from rcwb.restriction import check_restriction_axioms
from rcwb.site import generate_topology


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
    assert [len(sub_m(mc_inj, a)) for a in (0, 1, 2)] == [1, 2, 4]


def test_subobject_rep_is_idempotent(mc_inj):
    for m in mc_inj.monics:
        r = subobject_rep(mc_inj, m)
        assert subobject_rep(mc_inj, r) == r


def test_matching_colimit_of_singletons_covers_two_set(mc_inj):
    singles = [m for m in sub_m(mc_inj, 2)
               if mc_inj.base.mor_src[m] == 1]
    assert len(singles) == 2
    mcol = matching_colimit(mc_inj, tuple(singles), 2)
    assert mcol is not None
    assert subobject_rep(mc_inj, mcol.mu) == \
        subobject_rep(mc_inj, mc_inj.base.identity[2])


def test_matching_colimit_rejects_a_dominated_member_outside_m(mc_iso):
    # an injection set1 -> set2 is not in M = isos, though the identity of
    # set2 dominates it; the search refuses it before building a diagram
    c = mc_iso.base
    inj = next(f for f in c.hom(1, 2) if f not in mc_iso.monics)
    with pytest.raises(ValueError, match="not an M-subobject"):
        matching_colimit(mc_iso, (c.identity[2], inj), 2)


@pytest.mark.parametrize("build", [matching_colimit, mcat.matching_diagram])
def test_a_missing_pairwise_pullback_is_an_invariant_breach(build):
    # m1: A -> X and m2: B -> X with only identities besides: no object maps
    # to both A and B, so m1 and m2 have no pullback; each object's key is
    # also the key of its identity
    objects = ("A", "B", "X")
    ends = {"A": ("A", "A"), "B": ("B", "B"), "X": ("X", "X"),
            "m1": ("A", "X"), "m2": ("B", "X")}

    def compose(g, fs):
        return fs if g in objects else [g] * len(fs)

    c, _, mor = build_category(objects, list(ends), ends.get, str, compose)
    assert validate_category(c).ok
    mc = MCategory(c, frozenset(mor.values()))
    with pytest.raises(InternalInvariantError,
                       match="missing pairwise pullback in matching diagram"):
        build(mc, (mor["m1"], mor["m2"]), 2)


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
    c, _, _ = build_category(range(5), range(len(src)),
                             lambda f: (src[f], tgt[f]), lambda a: a,
                             lambda g, fs: [comp[g, f] for f in fs])
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


def _m3():
    return load_bundle(m3_bundle()).mcat


def test_geometric_reports_unstable_joins_on_m3():
    # the join of a<1 and b<1 is the top, but along c<1 both pull back to 0
    mc = _m3()
    assert validate_category(mc.base).ok
    assert check_m_system(mc).ok
    assert is_geometric(mc).lines() == [
        "GEO-STAB\t4,6,8\tmatching colimit not stable under pullback"]


def test_geometric_pulls_back_along_the_generators_only(monkeypatch,
                                                       capsys):
    # a clean geometric run reads stability along exactly the generators
    # into each object: 5 of the 40 maps into set3, 4 of the 15 into set2
    seen = []
    real = mcat.pullback_stable
    monkeypatch.setattr(mcat, "pullback_stable", lambda mc, f, *rest:
                        seen.append((mc.base, f)) or real(mc, f, *rest))
    assert main(["geometric", "finset_inj_3", "--max-family", "3"]) == 0
    assert capsys.readouterr().out == "PASS\tgeometric\tfinset_inj_3\n"
    c = seen[0][0]
    assert all(base is c for base, _ in seen)
    called = {f for _, f in seen}
    gens = c.generators()
    assert [sorted(f for f in called if c.mor_tgt[f] == obj)
            for obj in c.objects] == \
        [sorted(f for f in c.into(obj) if f in gens) for obj in c.objects]
    assert [(len(called & set(c.into(obj))), len(c.into(obj)))
            for obj in c.objects] == [(0, 1), (3, 4), (4, 15), (5, 40)]


@pytest.mark.parametrize("name", ["finset_inj_2", "finset_inj_3",
                                  "finset_iso_2", "finset_iso_3", "m3"])
def test_pullback_stable_matches_pullback_preserves_joins(name):
    # on every map f and every family of Sub_M(tgt f) with a join, given as
    # the canonical element and as the matching colimit's induced map
    if name == "m3":
        mc = _m3()
    else:
        _, kind, n = name.split("_")
        mc = FINSET_MCATS[kind](int(n))
    c = mc.base
    compared = unstable = 0
    memo = {}
    for f in c.morphisms():
        ref = pullback_preserves_joins(mc, f, memo=memo)
        failing = {v.ids[1:] for v in ref.violations if v.tag == "PBJ"}
        obj = c.mor_tgt[f]
        for family in families(sub_m(mc, obj)):
            join = sub_m_join(mc, family, obj)
            if join is None:
                continue
            # the whole family's matching colimit, which the reference
            # keeps in memo by (family, object)
            mu = memo[(family, obj)].mu
            stable = pullback_stable(mc, f, family, join)
            assert stable == pullback_stable(mc, f, family, mu)
            assert stable == (family not in failing)
            compared += 1
            unstable += not stable
    assert compared
    # M3: two families along each of a<1, b<1 and c<1
    assert unstable == (6 if name == "m3" else 0)


@pytest.mark.parametrize("name", ["finset_inj_2", "finset_inj_3"])
def test_heyting_holds_where_geometric_passes(name):
    mc = build_finset_mcat(int(name[-1]))
    assert is_geometric(mc).ok
    for a in mc.base.objects:
        assert heyting_check(mc, a).ok


def test_heyting_fails_on_m3():
    mc = _m3()
    assert not is_geometric(mc).ok
    assert [line.split("\t")[0] for line in heyting_check(mc, 4).lines()] == \
        ["HEYT-DIST"] * 6


def test_par_is_a_join_restriction_category(pc_inj):
    assert check_restriction_axioms(pc_inj.rc).ok
    assert check_join_axioms(pc_inj.rc, max_family=3).ok


def test_par_span_count_matches_partial_functions(pc_inj):
    # spans (m, f) up to iso over FinSet<=2 = partial functions: 23
    assert pc_inj.rc.base.n_morphisms == 23


# sha256 over Par's spans, bars and composition rows as they were before Par
# listed its maps from Sub_M, when it canonicalised every span of
# M x out(dom m) by the least (apex, m∘phi, f∘phi)
PAR_DIGESTS = {
    (2, "inj"):
        "bf2b4aa7db40cc1c10416df8d9f0761f63d5111c297196bcc028112501bed16d",
    (3, "inj"):
        "2c2d8f80751e4545f957199073ed9595f1950946e0d4f3257f4a0392ed60508a",
    (4, "inj"):
        "d825614a5a293c23fafd24956c40f6a5452dd33c1153d75806e857ca943132eb",
    (2, "iso"):
        "24aad2531674e8363515df5e3ffcfdc106bb82af07c37172c68674024b3764ed",
    (3, "iso"):
        "342983ba7c7d89f4d9cfe1b9b0ba9761857131f2065e91181c115d00d10bce06",
}


@pytest.mark.parametrize("n, kind", sorted(PAR_DIGESTS))
def test_par_tables_are_unchanged(n, kind):
    assert _par_digest(par(FINSET_MCATS[kind](n))) == PAR_DIGESTS[(n, kind)]


def _par_digest(pc):
    table = (pc.spans, pc.rc.bar, list(pc.rc.base.rows))
    return hashlib.sha256(repr(table).encode()).hexdigest()


def test_a_replace_copy_builds_its_own_topology_and_par():
    # the memos sit on the instance: a copy with other monics starts cold
    # and builds Par, the topology and the gate report of its own monics,
    # and the original keeps what it built
    inj = build_fixture("finset_inj_3").mcat
    iso = build_fixture("finset_iso_3").mcat
    pc, top, gate = par(inj), generate_topology(inj), check_m_system(inj)
    copy = inj._replace(monics=iso.monics)
    assert copy == iso and copy.base is inj.base
    assert copy.par_memo is None and copy.topology_memo is None
    assert copy.m_system_memo is None
    assert check_m_system(copy) is copy.m_system_memo is not gate
    assert check_m_system(inj) is gate
    copy_pc, copy_top = par(copy), generate_topology(copy)
    assert copy_pc.mc is copy and copy_top.joined is copy
    assert _par_digest(copy_pc) == PAR_DIGESTS[(3, "iso")]
    assert copy_top.covers == generate_topology(iso).covers != top.covers
    assert par(copy) is copy_pc and generate_topology(copy) is copy_top
    assert par(inj) is pc and generate_topology(inj) is top
    assert _par_digest(pc) == PAR_DIGESTS[(3, "inj")]


def test_a_par_that_raises_keeps_nothing(monkeypatch):
    mc = build_finset_mcat(2)
    failed = LawReport("restriction")
    failed.add("R1", (), "patched")
    monkeypatch.setattr(mcat, "check_restriction_axioms", lambda x: failed)
    with pytest.raises(InternalInvariantError, match="restriction axioms"):
        par(mc)
    assert mc.par_memo is None
    monkeypatch.undo()
    assert par(mc).axioms.ok and mc.par_memo is par(mc)


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
