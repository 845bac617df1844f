"""The pruned searches in src agree with the brute-force references in
oracles.py on small fixtures."""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import collage, sieve_subpresheaf, sigma_classifier
from rcwb import fincat, fixtures, joins, mcat, rpsh
from rcwb.bundles import load_bundle
from rcwb.bridge import _matching_tuples, jrp_to_sheaf, sheaf_to_jrp
from rcwb.fincat import (Diagram, cocones_at, colimit,
                         mediating, pullback, subcategory, validate_category)
from rcwb.fixtures import (build_finset, build_finset_data, build_finset_mcat,
                           build_finset_p, build_finset_p_data,
                           build_nojoin_fixture, subsets_category)
from rcwb.joins import check_join_axioms, families, hom_poset
from rcwb.mcat import (MCategory, karoubi_r, matching_colimit,
                       matching_diagram, par, sub_m)
from rcwb.restriction import RestrictionCategory, check_restriction_axioms
from rcwb.rpsh import (RestrictionPresheaf, check_jrp_axioms, element_join,
                       element_poset, rp_reports, yoneda_jr)
from rcwb.site import (Presheaf, Topology, all_nat_trans, basis_covers,
                       check_presheaf, constant_presheaf, find_presheaf_iso,
                       generate_topology, matching_families,
                       saturation_is_fixpoint, sieves_on, yoneda)

MCATS = {"finset_inj_2": build_finset_mcat(2, "inj"),
         "finset_iso_2": build_finset_mcat(2, "iso")}
CATS = {"finset_2": build_finset(2), "finset_p_2": build_finset_p(2).base,
        # most colimits are missing in these two
        "nojoin": build_nojoin_fixture().base,
        "subsets_3": subsets_category(3).base}


def _same_cocones(c, d):
    """Cocones at every apex, and the colimit (None included), equal the
    brute-force references."""
    for apex in c.objects:
        assert sorted(cocones_at(c, d, apex)) == \
            sorted(oracles.cocones_at(c, d, apex))
    assert colimit(c, d) == oracles.colimit(c, d)


def _closure(c, gens, bar=None):
    """The morphisms of the subcategory of c generated by gens, closed
    under the restriction bar too when it is given."""
    mors = set(gens) | set(c.identity)
    while True:
        more = {c.compose(g, f) for g in mors for f in mors
                if c.mor_tgt[f] == c.mor_src[g]}
        if bar is not None:
            more |= {bar[f] for f in mors}
        more -= mors
        if not more:
            return mors
        mors |= more


# -- the category builder -----------------------------------------------------

@contextlib.contextmanager
def _pair_scan_checked_builder():
    """Check every build_category call the library makes, in this block,
    against the pair-scan reference; yields the list of the morphism counts
    of the categories checked."""
    real = fincat.build_category
    built = []

    def checked(objects, morphisms, ends, identity, compose, **names):
        cat, obj_id, mor_id = real(objects, morphisms, ends, identity,
                                   compose, **names)
        assert (obj_id, mor_id, cat.mor_src, cat.mor_tgt, cat.identity,
                oracles.pair_table(cat)) == oracles.built_by_pair_scan(
                    objects, morphisms, ends, identity, compose)
        built.append(cat.n_morphisms)
        return cat, obj_id, mor_id

    with pytest.MonkeyPatch.context() as mp:
        # the collage is built in oracles
        for module in (fincat, fixtures, mcat, oracles):
            mp.setattr(module, "build_category", checked)
        yield built


def _generated(c, gens):
    """The subcategory of c generated by gens, its build checked against the
    pair-scan reference."""
    with _pair_scan_checked_builder() as built:
        sub = subcategory(c, c.objects, _closure(c, gens)).cat
    assert built == [sub.n_morphisms]
    return sub


@pytest.mark.parametrize("name", sorted(MCATS))
def test_par_builds_like_the_pair_scan(name):
    with _pair_scan_checked_builder() as built:
        pc = par(MCATS[name])
    assert built == [pc.rc.base.n_morphisms]


@pytest.mark.parametrize("name", ["finset_p_2", "nojoin"])
def test_karoubi_builds_like_the_pair_scan(name):
    x = build_finset_p(2) if name == "finset_p_2" else build_nojoin_fixture()
    with _pair_scan_checked_builder() as built:
        kr = karoubi_r(x)
    assert built == [kr.rc.base.n_morphisms]


def test_collages_build_like_the_pair_scan():
    from test_acceptance import _mutants
    x = build_finset_p(2)
    rps = [yoneda_jr(x, a) for a in x.base.objects]
    # the acceptance test's mutants, drawn with its seed
    rng = random.Random(20260823)
    rps += _mutants(yoneda_jr(x, 2), rng, 6) + \
        _mutants(yoneda_jr(x, 1), rng, 2)
    with _pair_scan_checked_builder() as built:
        for rp in rps:
            collage(rp)
    assert len(built) == len(rps) == 11


def test_fixtures_and_matching_diagrams_build_like_the_pair_scan():
    with _pair_scan_checked_builder() as built:
        for n in range(3):
            build_finset_data(n)
            build_finset_p_data(n)
            subsets_category(n)
        build_nojoin_fixture()
        mc = build_finset_mcat(2, "inj")
        fixtures_built = len(built)
        # a matching diagram is a graph: it builds no shape category
        for fam in itertools.combinations(sub_m(mc, 2).elements, 3):
            matching_diagram(mc, fam, 2)
    assert len(built) == fixtures_built > 10


# -- associativity and generators ---------------------------------------------

def _same_assoc(d):
    """validate_category's ASSOC entries are the scan's, in its order, and
    d has certified generators exactly when the report is clean."""
    rep = validate_category(d)
    assert [v.ids for v in rep.violations if v.tag == "ASSOC"] == \
        oracles.assoc_violations(d)
    assert (d.generators() is None) == (not rep.ok)


def _redirected(c, key, value):
    """c with the composite at key set to value."""
    comp = oracles.pair_table(c)
    comp[key] = value
    return oracles.with_table(c, comp)


def _others(c, g, f):
    """The maps that g∘f can be redirected to: the rest of its hom-set."""
    gf = c.compose(g, f)
    return [h for h in c.hom(c.mor_src[f], c.mor_tgt[g]) if h != gf]


def _between_non_generators(c):
    """The composable pairs (g, f) of non-identity maps outside
    c.generators() whose composite can be redirected."""
    gens = c.generators()
    return [(g, f) for g, f, _ in c.pairs()
            if not ({g, f} & gens or c.is_identity(g) or c.is_identity(f))
            and _others(c, g, f)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assoc_violations_match_oracle(data):
    # a finset_p_2 table with some composites redirected within their
    # hom-set and some deleted
    c = CATS["finset_p_2"]
    comp = oracles.pair_table(c)
    keys = sorted(comp)
    for k in data.draw(st.lists(st.sampled_from(keys), max_size=4)):
        g, f = k
        comp[k] = data.draw(st.sampled_from(
            c.hom(c.mor_src[f], c.mor_tgt[g])))
    for k in data.draw(st.lists(st.sampled_from(keys), max_size=2)):
        comp.pop(k, None)
    _same_assoc(oracles.with_table(c, comp))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assoc_of_a_redirect_between_non_generators_matches_oracle(data):
    # Light's test reads triples with a generator in the middle only; a
    # composite of two non-generators is caught through the others
    c = CATS["finset_p_2"]
    g, f = data.draw(st.sampled_from(_between_non_generators(c)))
    _same_assoc(_redirected(c, (g, f),
                            data.draw(st.sampled_from(_others(c, g, f)))))


def test_assoc_of_a_redirect_seen_by_one_generator_matches_oracle():
    # s∘s redirected, for s the last generator (the swap of the 2-set):
    # among the generators only s sits in the middle of a broken triple, so
    # Light's test must read the triples of every generator
    c = CATS["finset_p_2"]
    gens = c.generators()
    s = max(gens)
    for h in _others(c, s, s):
        d = _redirected(c, (s, s), h)
        _same_assoc(d)
        assert {g for _, g, _ in oracles.assoc_violations(d)} & gens == {s}


@pytest.mark.parametrize("seed", range(3))
def test_assoc_of_a_redirect_on_finset_p_3_matches_oracle(seed):
    c = build_finset_p(3).base
    rng = random.Random(seed)
    g, f = rng.choice(_between_non_generators(c))
    d = _redirected(c, (g, f), rng.choice(_others(c, g, f)))
    _same_assoc(d)
    assert d.generators() is None


def _generator_fixtures():
    """Every category fixture, by name."""
    x = build_finset_p(2)
    out = {f"finset_{n}": build_finset(n) for n in range(4)}
    out.update({f"finset_p_{n}": build_finset_p(n).base for n in range(4)})
    out.update({"nojoin": CATS["nojoin"], "subsets_3": CATS["subsets_3"],
                "karoubi_p_2": karoubi_r(x).rc.base,
                "par_inj_2": par(MCATS["finset_inj_2"]).rc.base})
    out.update({f"collage_{a}": collage(yoneda_jr(x, a)).rc.base
                for a in x.base.objects})
    return out


# name -> number of generators; finset_inj_3 has the base finset_3
GENERATOR_COUNTS = {"finset_p_2": 8, "finset_p_3": 19, "finset_3": 12}


def test_generators_close_to_every_map_on_fixtures():
    for name, c in _generator_fixtures().items():
        gens = c.generators()
        assert _closure(c, gens) == set(c.morphisms()), name
        if name in GENERATOR_COUNTS:
            assert len(gens) == GENERATOR_COUNTS[name]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_p_2"].n_morphisms))))
def test_generators_are_the_maps_outside_the_closure_of_earlier_ones(gens):
    # the scan takes the isos in id order, then the other maps in id order:
    # a map is a generator iff the identities and the generators before it
    # in that order do not generate it
    sub = _generated(CATS["finset_p_2"], gens)
    found = sub.generators()
    isos = sub.isos()
    order = sorted(isos) + [m for m in sub.morphisms() if m not in isos]
    for k, m in enumerate(order):
        assert (m in found) == \
            (m not in _closure(sub, [g for g in order[:k] if g in found]))


# -- sieves -------------------------------------------------------------------

def test_sieves_match_oracle_on_fixtures():
    cats = [mc.base for mc in MCATS.values()] + [CATS["finset_p_2"]]
    for c in cats:
        for a in c.objects:
            got = sieves_on(c, a)
            assert got == oracles.sieves_on(c, a)
            assert all(oracles.is_sieve(c, a, s) for s in got)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_2"].n_morphisms))))
def test_sieves_match_oracle_on_generated_subcategories(gens):
    c = CATS["finset_2"]
    sub = _generated(c, gens)
    for a in sub.objects:
        assert sieves_on(sub, a) == oracles.sieves_on(sub, a)


@pytest.mark.parametrize("name, counts", [("finset_inj_2", (5, 3)),
                                          ("finset_iso_2", (4, 3))])
def test_fixpoint_verdicts_match_oracle_on_topologies_less_one_sieve(name,
                                                                     counts):
    # each covering sieve of the generated topology deleted in turn; counts:
    # mutants, and those a saturation pass adds a sieve back to (TOP-FIX)
    top = generate_topology(MCATS[name])
    assert saturation_is_fixpoint(top) and oracles.saturation_is_fixpoint(top)
    mutants = rejected = 0
    for a, covers in enumerate(top.covers):
        for s in sorted(covers, key=sorted):
            mutant = Topology(top.cat, top.covers[:a] + (covers - {s},)
                              + top.covers[a + 1:], top.sieves, top.basis)
            verdict = saturation_is_fixpoint(mutant)
            assert verdict == oracles.saturation_is_fixpoint(mutant)
            mutants += 1
            rejected += not verdict
    assert (mutants, rejected) == counts


# -- pullbacks ----------------------------------------------------------------

def _same_pullbacks(c):
    """Every cospan of c has the reference pullback; returns how many have
    none."""
    missing = 0
    for b in c.objects:
        for f in c.into(b):
            for g in c.into(b):
                want = oracles.pullback_cone(c, f, g)
                assert pullback(c, f, g) == want
                missing += want is None
    return missing


# name -> (category builder, number of cospans without a pullback)
PULLBACK_CATS = {
    # finset_inj_3 and finset_iso_3 share this base category
    "finset_3": (lambda: build_finset(3), 318),
    "finset_p_2": (lambda: build_finset_p(2).base, 71),
    "nojoin": (lambda: build_nojoin_fixture().base, 28),
    "subsets_3": (lambda: subsets_category(3).base, 37),
    # isomorphic objects: an iso into src f may come from another object
    "karoubi_finset_p_2": (lambda: karoubi_r(build_finset_p(2)).rc.base, 245),
    "par_finset_inj_2": (lambda: par(build_finset_mcat(2, "inj")).rc.base,
                         71),
}


@pytest.mark.parametrize("name", sorted(PULLBACK_CATS))
def test_pullbacks_match_oracle_on_fixtures(name):
    build, missing = PULLBACK_CATS[name]
    assert _same_pullbacks(build()) == missing


def test_pullbacks_are_searched_once_per_class_of_cospans(monkeypatch):
    # a cospan (f, g) is searched only when f and g are the least of their
    # orbits under precomposition with isos; the rest are transported
    c = build_finset(3)
    searched = []
    real = fincat._pullback_search
    monkeypatch.setattr(fincat, "_pullback_search",
                        lambda c, f, g: searched.append((f, g)) or
                        real(c, f, g))
    classes = set()
    for b in c.objects:
        for f in c.into(b):
            for g in c.into(b):
                pullback(c, f, g)
                classes.add((c.compose(f, oracles.least_iso(c, f)),
                             c.compose(g, oracles.least_iso(c, g))))
    assert sorted(searched) == sorted(classes)
    assert (len(c._pullback_cache), len(searched)) == (1842, 517)


@pytest.mark.parametrize("name, counts", [
    ("finset_3", (60, 24)), ("finset_p_2", (23, 8)),
    ("karoubi_finset_p_2", (81, 38))])
def test_is_mono_matches_the_pair_scan_on_every_map(name, counts):
    # counts: maps, monics
    c = PULLBACK_CATS[name][0]()
    verdicts = [fincat.is_mono(c, m) for m in c.morphisms()]
    assert verdicts == [oracles.is_mono(c, m) for m in c.morphisms()]
    assert (len(verdicts), sum(verdicts)) == counts


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_2"].n_morphisms))))
def test_pullbacks_match_oracle_on_generated_subcategories(gens):
    c = CATS["finset_2"]
    _same_pullbacks(_generated(c, gens))


# -- cocones and colimits -----------------------------------------------------

def test_cocones_of_empty_diagram_match_oracle():
    for c in list(CATS.values()):
        _same_cocones(c, Diagram((), ()))


def test_cocones_of_every_small_matching_diagram_match_oracle():
    for mc in MCATS.values():
        for obj in mc.base.objects:
            elements = sub_m(mc, obj).elements
            for r in range(4):
                for fam in itertools.combinations(elements, r):
                    _same_cocones(mc.base, matching_diagram(mc, fam, obj))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MCATS)), st.data())
def test_cocones_of_drawn_matching_diagrams_match_oracle(name, data):
    # ordered families with repeats, over all of M rather than canonical reps
    mc = MCATS[name]
    c = mc.base
    obj = data.draw(st.sampled_from(c.objects))
    into = sorted(m for m in mc.monics if c.mor_tgt[m] == obj)
    fam = data.draw(st.lists(st.sampled_from(into), max_size=3))
    _same_cocones(c, matching_diagram(mc, fam, obj))


def _parallel_pair(c, f, g):
    return Diagram((c.mor_src[f], c.mor_tgt[f]), ((0, 1, f), (0, 1, g)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CATS)), st.data())
def test_cocones_of_parallel_pairs_match_oracle(name, data):
    c = CATS[name]
    f = data.draw(st.sampled_from(c.morphisms()))
    g = data.draw(st.sampled_from(c.hom(c.mor_src[f], c.mor_tgt[f])))
    d = _parallel_pair(c, f, g)
    assert d.check(c)
    _same_cocones(c, d)


def _idempotents(c):
    return [e for e in c.morphisms() if not c.is_identity(e)
            and c.mor_src[e] == c.mor_tgt[e] and c.compose(e, e) == e]


def _idempotent(c, e):
    # a loop: the only vertex is the source of an arrow, so no leg is
    # forced before the search branches on it
    return Diagram((c.mor_src[e],), ((0, 0, e),))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CATS)), st.data())
def test_cocones_of_idempotents_match_oracle(name, data):
    c = CATS[name]
    d = _idempotent(c, data.draw(st.sampled_from(_idempotents(c))))
    assert d.check(c)
    _same_cocones(c, d)


def test_colimits_of_every_small_diagram_match_oracle():
    # the empty diagram, every parallel pair and every idempotent
    missing = 0
    for c in CATS.values():
        for d in ([Diagram((), ())] +
                  [_parallel_pair(c, f, g) for f in c.morphisms()
                   for g in c.hom(c.mor_src[f], c.mor_tgt[f])] +
                  [_idempotent(c, e) for e in _idempotents(c)]):
            want = oracles.colimit(c, d)
            assert colimit(c, d) == want
            missing += want is None
    assert missing == 25 + 64    # nojoin, subsets_3


def test_matching_colimits_of_size_3_match_oracle():
    # every family of at most 3 canonical subobjects: 114 in finset_inj_3
    # and 8 in finset_iso_3; each colimit exists, and the map it induces
    # to each tuple of legs into the target is checked against the oracle
    count = pairs = induced = 0
    for kind in ("inj", "iso"):
        mc = build_finset_mcat(3, kind)
        c = mc.base
        for obj in c.objects:
            for r in range(4):
                for fam in itertools.combinations(sub_m(mc, obj).elements, r):
                    d = matching_diagram(mc, fam, obj)
                    coc = colimit(c, d)
                    assert coc == oracles.colimit(c, d)
                    count += 1
                    if coc is None:
                        continue
                    # mu, and every other choice of legs into obj
                    for legs in itertools.product(*(c.hom(c.mor_src[m], obj)
                                                    for m in fam)):
                        h = mediating(c, coc, obj, legs)
                        assert h == oracles.induced_map(c, d, coc, obj, legs)
                        pairs += 1
                        induced += h is not None
                    assert mediating(c, coc, obj, fam) is not None
    assert count == 122
    assert (pairs, induced) == (20738, 1918)


def test_mediating_matches_induced_map_oracle_on_par_families(pc_inj):
    # the monic legs of every compatible family of spans in Par(finset_inj_2)
    # with every choice of maps for the other legs: gamma of
    # par_join_construction is among them, and most choices are no cocone
    c = pc_inj.mc.base
    x = pc_inj.rc
    monic_legs = {(a, b, tuple(pc_inj.spans[i][0] for i in fam))
                  for a in x.base.objects for b in x.base.objects
                  for fam in hom_poset(x, a, b).families()}
    pairs = induced = 0
    for a, b, monics in sorted(monic_legs):
        mcol = matching_colimit(pc_inj.mc, monics, a)
        d = matching_diagram(pc_inj.mc, monics, a)
        full = colimit(c, d)
        assert full.apex == mcol.cocone.apex
        assert full.legs[:len(monics)] == mcol.cocone.legs
        for legs in itertools.product(*(c.hom(c.mor_src[m], b)
                                        for m in monics)):
            gamma = mediating(c, mcol.cocone, b, legs)
            assert gamma == oracles.induced_map(c, d, full, b, legs)
            pairs += 1
            induced += gamma is not None
    assert (pairs, induced) == (126, 86)


# -- matching colimits on the maximal members ---------------------------------

def _inj3_all():
    """The 24-map subcategory of FinSet<=3 whose maps are the injections,
    with every map in M."""
    data = build_finset_data(3)
    c = data.cat
    keep = [f for f in c.morphisms()
            if len(set(data.graphs[f])) == len(data.graphs[f])]
    cat = subcategory(c, c.objects, keep).cat
    return MCategory(cat, frozenset(cat.morphisms()))


def _same_matching_colimit(mc, fam, obj):
    """matching_colimit equals the full search.  Returns whether the family
    has a colimit and drops a member, and whether the kept family's colimit
    legs then differ from the full search's at the kept members, so that
    only an automorphism ψ != id of the apex carries one to the other."""
    want = oracles.matching_colimit(mc, fam, obj)
    assert matching_colimit(mc, fam, obj) == want
    dropped = {i for i, _, _ in mcat._dominated(mc.base, fam)}
    if not dropped or want is None:
        return False, False
    kept = [i for i in range(len(fam)) if i not in dropped]
    sub = matching_colimit(mc, tuple(fam[i] for i in kept), obj)
    legs = tuple(want.cocone.legs[i] for i in kept)
    return True, legs != sub.cocone.legs


MAXIMAL = {  # families, reduced, needing ψ != id, no colimit
    "finset_inj_2": (lambda: build_finset_mcat(2, "inj"), (22, 11, 2, 0)),
    "finset_inj_3": (lambda: build_finset_mcat(3, "inj"), (278, 247, 130, 0)),
    "finset_iso_3": (lambda: build_finset_mcat(3, "iso"), (8, 0, 0, 0)),
    "inj3_all": (_inj3_all, (278, 176, 90, 82)),
}


@pytest.mark.parametrize("name", sorted(MAXIMAL))
def test_matching_colimits_match_full_search(name):
    # every family of canonical subobjects, unbounded, on a fresh memo; a
    # build without the least ψ∘legs differs on the families of the third
    # count
    build, counts = MAXIMAL[name]
    mc = build()
    seen = [0, 0, 0, 0]
    for obj in mc.base.objects:
        for fam in families(sub_m(mc, obj).elements):
            reduced, moved = _same_matching_colimit(mc, fam, obj)
            seen[0] += 1
            seen[1] += reduced
            seen[2] += moved
            seen[3] += matching_colimit(mc, fam, obj) is None
    assert tuple(seen) == counts


def test_matching_colimits_of_repeated_and_unsorted_families():
    # subobjects of set3 by position in Sub_M: a repeated member is dropped
    # for its other copy; the last two families need ψ != id
    mc = build_finset_mcat(3, "inj")
    els = sub_m(mc, 3).elements
    fams = [(1, 1), (5, 5, 6), tuple(range(7, -1, -1)), (1, 2, 1), (2, 4, 0)]
    seen = [_same_matching_colimit(mc, tuple(els[i] for i in fam), 3)
            for fam in fams]
    assert seen == [(True, False)] * 3 + [(True, True)] * 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MAXIMAL)), st.data())
def test_matching_colimits_of_drawn_families_match_full_search(name, data):
    # ordered families with repeats, over all of M rather than canonical reps
    mc = MAXIMAL[name][0]()
    c = mc.base
    obj = data.draw(st.sampled_from(c.objects))
    into = sorted(m for m in mc.monics if c.mor_tgt[m] == obj)
    _same_matching_colimit(mc, data.draw(st.lists(st.sampled_from(into),
                                                  max_size=4)), obj)


def test_matching_colimits_of_par_monic_legs_match_full_search(pc_inj):
    # the monic legs of every compatible family of spans in Par(finset_inj_2)
    x = pc_inj.rc
    monic_legs = {(a, tuple(pc_inj.spans[i][0] for i in fam))
                  for a in x.base.objects for b in x.base.objects
                  for fam in hom_poset(x, a, b).families()}
    mc = MCategory(pc_inj.mc.base, pc_inj.mc.monics)
    seen = [_same_matching_colimit(mc, monics, a)
            for a, monics in sorted(monic_legs)]
    assert (len(seen), sum(r for r, _ in seen),
            sum(m for _, m in seen)) == (22, 11, 2)


def test_matching_diagrams_are_built_for_kept_families_only(monkeypatch):
    # every family of finset_inj_3 on a fresh memo: one diagram per distinct
    # family of maximal members, and none for a family that drops a member
    mc = build_finset_mcat(3, "inj")
    built = []

    def spy(mc, family, obj):
        built.append((tuple(family), obj))
        return matching_diagram(mc, family, obj)

    monkeypatch.setattr(mcat, "matching_diagram", spy)
    kept = set()
    for obj in mc.base.objects:
        for fam in families(sub_m(mc, obj).elements):
            dropped = {i for i, _, _ in mcat._dominated(mc.base, fam)}
            kept.add((tuple(m for i, m in enumerate(fam) if i not in dropped),
                      obj))
            matching_colimit(mc, fam, obj)
    assert all(mcat._dominated(mc.base, fam) == [] for fam, _ in built)
    assert sorted(built) == sorted(kept)
    assert (len(built), len(kept)) == (31, 31)


@pytest.mark.parametrize("n, kind, counts", [
    (2, "inj", (8, 1, 28, 5)), (3, "inj", (24, 9, 380, 236)),
    (3, "iso", (10, 6, 254, 194))])
def test_canonical_isos_and_spans_match_the_scan_over_every_iso(n, kind,
                                                                counts):
    # every monic, and every span (m, f) out of its domain; counts: monics,
    # those not already canonical, spans, those not already canonical
    mc = build_finset_mcat(n, kind)
    c = mc.base
    monics = sorted(mc.monics)
    spans = [(m, f) for m in monics for f in c.out_of(c.mor_src[m])]
    isos = [fincat.least_iso(c, m) for m in monics]
    assert isos == [oracles.least_iso(c, m) for m in monics]
    canon = [mcat.canonical_span(mc, m, f) for m, f in spans]
    assert canon == [oracles.canonical_span(mc, m, f) for m, f in spans]
    assert (len(monics), sum(not c.is_identity(phi) for phi in isos),
            len(spans), sum(s != t for s, t in zip(canon, spans))) == counts
    # once the memos have filled, in the reverse order
    assert [fincat.least_iso(c, m) for m in reversed(monics)] == isos[::-1]
    assert [mcat.canonical_span(mc, m, f) for m, f in reversed(spans)] == \
        canon[::-1]


def test_canonical_spans_with_a_non_monic_leg_match_the_scan():
    # every span (m, f) of FinSet<=2 with any map m: for m not monic, two
    # isos phi can give the least (apex, m∘phi), and f breaks the tie
    c = build_finset(2)
    mc = MCategory(c, frozenset())
    spans = [(m, f) for m in c.morphisms() for f in c.out_of(c.mor_src[m])]
    for order in (spans, spans[::-1]):
        assert [mcat.canonical_span(mc, m, f) for m, f in order] == \
            [oracles.canonical_span(mc, m, f) for m, f in order]
    ties = [m for m in c.morphisms() if mcat._span_iso(c, m) is None]
    assert len(ties) == 3     # the constant maps out of the 2-set
    for m in ties:
        assert not fincat.is_mono(c, m)
        dom = c.mor_src[m]
        key = {phi: (c.mor_src[phi], c.compose(m, phi))
               for phi in c.isos_into(dom)}
        least = [phi for phi in key if key[phi] == min(key.values())]
        assert len(least) == 2
        assert any(len({c.compose(f, phi) for phi in least}) == 2
                   for f in c.out_of(dom))


def test_par_scans_the_isos_once_per_monic_leg(monkeypatch):
    # Par(finset_inj_3) on a fresh M-category canonicalises every span
    # through one _span_iso scan per distinct first leg
    mc = build_finset_mcat(3, "inj")
    legs, scanned = [], []
    canonical_span, span_iso = mcat.canonical_span, mcat._span_iso
    monkeypatch.setattr(mcat, "canonical_span", lambda mc, m, f:
                        legs.append(m) or canonical_span(mc, m, f))
    monkeypatch.setattr(mcat, "_span_iso", lambda c, m:
                        scanned.append(m) or span_iso(c, m))
    pc = par(mc)
    assert sorted(scanned) == sorted(set(legs)) == sorted(mc.monics)
    assert all(phi is not None for phi in mc.span_isos.values())
    assert (len(legs), len(scanned), pc.rc.base.n_morphisms) == \
        (10394, 24, 144)


# -- the matching-colimit memo ------------------------------------------------

def test_memoised_matching_colimit_equals_fresh_computation():
    for mc in MCATS.values():
        for obj in mc.base.objects:
            elements = sub_m(mc, obj).elements
            for r in range(4):
                for fam in itertools.combinations(elements, r):
                    first = matching_colimit(mc, fam, obj)
                    assert matching_colimit(mc, fam, obj) is first
                    fresh = MCategory(mc.base, mc.monics)
                    assert fresh == mc and not fresh.matching_memo
                    again = matching_colimit(fresh, fam, obj)
                    assert first == again


# -- the geometric criterion ---------------------------------------------------

def _no_generators_mcat():
    """finset_inj_2 on a table that is not a category, so it has no
    certified generators."""
    mc = build_finset_mcat(2, "inj")
    bad = oracles.non_associative(mc.base)
    assert bad.generators() is None
    return MCategory(bad, mc.monics)


GEOMETRIC_MCATS = {
    "finset_inj_2": lambda: build_finset_mcat(2, "inj"),
    "finset_inj_3": lambda: build_finset_mcat(3, "inj"),
    "finset_iso_2": lambda: build_finset_mcat(2, "iso"),
    "finset_iso_3": lambda: build_finset_mcat(3, "iso"),
    "m3": lambda: load_bundle(oracles.m3_bundle()).mcat,
    "no_generators": _no_generators_mcat,
}


@pytest.mark.parametrize("name", sorted(GEOMETRIC_MCATS))
def test_is_geometric_matches_the_all_maps_scan(name):
    # each verdict on a fresh M-category, so no memo is shared
    build = GEOMETRIC_MCATS[name]
    for max_family in (None, 1, 2, 3):
        lines = mcat.is_geometric(build(), max_family).lines()
        assert lines == oracles.is_geometric(build(), max_family).lines()
        if name == "m3" and max_family != 1:
            # GEO-STAB fires along c<1, a generator, so this is the rerun
            assert lines == ["GEO-STAB\t4,6,8\t"
                             "matching colimit not stable under pullback"]


def _stable_system(c, members):
    """The least class of maps of c holding members and the isos that is
    closed under composition and under pulling back along any map: the
    legs opposite each member of the canonical pullbacks."""
    mors = set(members) | set(c.isos())
    while True:
        more = _closure(c, mors) | {
            pullback(c, f, m).p for m in mors for f in c.into(c.mor_tgt[m])}
        if more == mors:
            return frozenset(mors)
        mors = more


@settings(max_examples=20, deadline=None)
@given(st.sets(st.sampled_from(sorted(MCATS["finset_inj_2"].monics))))
def test_is_geometric_matches_the_all_maps_scan_on_stable_systems(drawn):
    # a drawn set of injections of FinSet<=2, closed with the isos under
    # composition and pullback, is a stable system
    c = MCATS["finset_inj_2"].base
    monics = _stable_system(c, drawn)
    assert mcat.check_m_system(MCategory(c, monics)).ok
    for max_family in (None, 1):
        assert mcat.is_geometric(MCategory(c, monics), max_family).lines() \
            == oracles.is_geometric(MCategory(c, monics), max_family).lines()


# -- representables and constructed presheaves ---------------------------------

def _same_representables(c):
    for a in c.objects:
        assert yoneda(c, a) == oracles.representable(c, a)


def test_yoneda_matches_oracle_on_fixtures():
    cats = list(CATS.values()) + [mc.base for mc in MCATS.values()] + \
        [par(mc).rc.base for mc in MCATS.values()]
    for c in cats:
        _same_representables(c)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_2"].n_morphisms))))
def test_yoneda_matches_oracle_on_generated_subcategories(gens):
    _same_representables(_generated(CATS["finset_2"], gens))


@pytest.mark.parametrize("name", sorted(MCATS))
def test_sigma_and_both_transfers_are_presheaves(name):
    mc = MCATS[name]
    pc = par(mc)
    assert check_presheaf(sigma_classifier(mc))
    for a in mc.base.objects:
        assert check_presheaf(sheaf_to_jrp(pc, yoneda(mc.base, a))
                              .rp.presheaf)
    for a in pc.rc.base.objects:
        assert check_presheaf(jrp_to_sheaf(pc, yoneda_jr(pc.rc, a))
                              .presheaf)


# -- matching families and natural transformations ------------------------------

def _presheaves(c):
    return [yoneda(c, a) for a in c.objects] + \
        [constant_presheaf(c, k) for k in (1, 2)]


def _fixture_presheaves(name):
    if name in CATS:
        return _presheaves(CATS[name])
    mc = MCATS[name]
    return _presheaves(mc.base) + [sigma_classifier(mc)]


def _same_matching_families(p):
    c = p.cat
    for a in c.objects:
        for sieve in sieves_on(c, a):
            assert matching_families(p, a, sieve) == \
                oracles.matching_families(p, a, sieve)


def _moves_zero(a, x, y):
    # an element constraint that some isos pass and others fail
    return a == 0 or (x, y) != (0, 0)


def _same_nat_trans(p, q):
    want = oracles.nat_trans(p, q)
    nats = all_nat_trans(p, q)
    got = [nat.components for nat in nats]
    assert len(got) == len(set(got)) and set(got) == set(want)
    assert all(nat.check() for nat in nats)
    # the iso search tries objects with the fewest elements first, so it
    # returns the first bijection in that order
    objs = sorted(p.cat.objects, key=lambda a: p.sizes[a])
    bijections = [t for t in want
                  if all(sorted(comp) == list(q.elements(a))
                         for a, comp in enumerate(t))]
    for constraint in (None, _moves_zero):
        allowed = [t for t in bijections if constraint is None or all(
            constraint(a, x, y) for a, comp in enumerate(t)
            for x, y in enumerate(comp))]
        iso = find_presheaf_iso(p, q, constraint)
        assert (iso is None) == (not allowed)
        if iso is not None:
            assert iso.components == min(
                allowed, key=lambda t: tuple(t[a] for a in objs))


@pytest.mark.parametrize("name", sorted(MCATS) + ["finset_2"])
def test_matching_families_match_oracle_on_fixtures(name):
    for p in _fixture_presheaves(name):
        _same_matching_families(p)


@pytest.mark.parametrize("name", sorted(MCATS) + ["finset_2"])
def test_nat_trans_match_oracle_on_fixtures(name):
    presheaves = _fixture_presheaves(name)
    for p in presheaves:
        for q in presheaves:
            _same_nat_trans(p, q)


def test_searches_match_oracle_on_sparse_subcategories():
    # in a sparse category few forcing edges follow from the others
    c = CATS["finset_2"]
    for gens in itertools.combinations(c.morphisms(), 2):
        sub = _generated(c, gens)
        presheaves = _presheaves(sub)
        for p in presheaves:
            _same_matching_families(p)
            for q in presheaves:
                _same_nat_trans(p, q)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_2"].n_morphisms))),
       st.data())
def test_searches_match_oracle_on_generated_subcategories(gens, data):
    c = CATS["finset_2"]
    sub = _generated(c, gens)
    presheaves = _presheaves(sub)
    p = data.draw(st.sampled_from(presheaves))
    q = data.draw(st.sampled_from(presheaves))
    _same_matching_families(p)
    _same_nat_trans(p, q)


# -- joins --------------------------------------------------------------------

P2 = build_finset_p(2)
RCATS = {"finset_p_2": P2, "nojoin": build_nojoin_fixture(),
         "subsets_3": subsets_category(3),
         "collage": collage(yoneda_jr(P2, 2)).rc}


@pytest.fixture(scope="module")
def par_inj2():
    # built on first use, so a fault in pullback fails the tests that need
    # Par(finset_inj_2) instead of the collection of this module
    return par(MCATS["finset_inj_2"])


@pytest.fixture(scope="module")
def transferred(par_inj2):
    """The transfers of the representable sheaves on finset_inj_2."""
    c = par_inj2.mc.base
    return [sheaf_to_jrp(par_inj2, yoneda(c, w)).rp for w in c.objects]


def _same_as_scans(poset, order, compat):
    """join, upper_bounds and compatible equal the scans on every subset of
    at most three elements, the empty, incompatible and joinless ones
    included, and the family grower equals the reference, order included."""
    elements = poset.elements
    for r in range(min(3, len(elements)) + 1):
        for fam in itertools.combinations(elements, r):
            assert poset.join(fam) == \
                oracles.least_upper_bound(elements, order, fam)
            assert poset.upper_bounds(fam) == tuple(
                u for u in elements if all(order(s, u) for s in fam))
            # fam keeps element order: each member against the earlier ones
            assert poset.compatible(fam) == all(
                compat(u, s) for s, u in itertools.combinations(fam, 2))
    for max_family in (None, 1, 2):
        assert poset.families(max_family) == \
            oracles.compatible_families(elements, compat, max_family)


@pytest.mark.parametrize("name", sorted(RCATS))
def test_hom_joins_match_oracle(name):
    x = RCATS[name]
    for a in x.base.objects:
        for b in x.base.objects:
            poset = hom_poset(x, a, b)
            assert poset.elements == x.base.hom(a, b)
            assert hom_poset(x, a, b) is poset
            _same_as_scans(poset, lambda f, g: oracles.leq(x, f, g),
                           lambda f, g: oracles.compatible(x, f, g))


def test_element_joins_match_oracle(transferred):
    for rp in transferred:
        for a in rp.rc.base.objects:
            poset = element_poset(rp, a)
            assert poset.elements == tuple(rp.presheaf.elements(a))
            _same_as_scans(
                poset, lambda s, u: oracles.element_leq(rp, a, s, u),
                lambda s, u: oracles.element_compatible(rp, a, s, u))


def _preorder(n, pairs):
    """The reflexive-transitive closure of pairs on range(n)."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    for k in range(n):
        rel |= {(i, j) for i in range(n) for j in range(n)
                if (i, k) in rel and (k, j) in rel}
    return rel


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_joins_match_oracle_on_random_preorders(data):
    # a preorder need not be antisymmetric: among equivalent least upper
    # bounds the join is the first one in element order, as in the scan
    n = data.draw(st.integers(1, 6))
    elements = data.draw(st.permutations(range(n)))
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1))))
    rel = _preorder(n, pairs)
    order = lambda s, u: (s, u) in rel  # noqa: E731
    # pairs also serve as a compatibility relation, not even symmetric
    compat = lambda s, u: (s, u) in pairs  # noqa: E731
    _same_as_scans(oracles.predicate_poset(elements, order, compat), order,
                   compat)


def test_join_of_equivalent_elements_is_the_first():
    # "a" and "b" lie below each other and below "top", which comes first
    rel = {("a", "b"), ("b", "a"), ("a", "top"), ("b", "top")} | \
        {(e, e) for e in ("a", "b", "top")}
    poset = oracles.predicate_poset(["top", "b", "a"],
                                    lambda s, u: (s, u) in rel,
                                    lambda s, u: True)
    assert poset.join([]) == "b"
    assert poset.join(["a"]) == "b"
    assert poset.join(["top"]) == "top"
    assert poset.upper_bounds(["a"]) == ("top", "b", "a")
    assert oracles.predicate_poset([], lambda s, u: True,
                                   lambda s, u: True).join([]) is None


def test_join_rejects_a_member_outside_the_poset(transferred):
    poset = oracles.predicate_poset([1, 2], lambda s, u: s <= u,
                                    lambda s, u: True)
    with pytest.raises(ValueError):
        poset.join([3])
    with pytest.raises(ValueError):
        poset.compatible([3])
    # a set met before does not let an outside member through
    assert poset.compatible([1, 2]) and poset.join([1]) == 1
    with pytest.raises(ValueError):
        poset.compatible([1, 2, 3])
    with pytest.raises(ValueError):
        poset.upper_bounds([1, 3])
    rp = transferred[0]
    with pytest.raises(ValueError):
        element_join(rp, 0, [rp.presheaf.sizes[0]])
    with pytest.raises(ValueError):
        element_poset(rp, 0).compatible([rp.presheaf.sizes[0]])


# -- the masks from bars ------------------------------------------------------

def _same_hom_masks(x):
    """Every hom-set's up and ok masks, grouped by bar in hom_poset, equal
    the pair-by-pair reading of leq and compatible."""
    c = x.base
    for a in c.objects:
        for b in c.objects:
            poset = hom_poset(x, a, b)
            assert (list(poset.up), list(poset.ok)) == \
                oracles.predicate_masks(
                    poset.elements, lambda f, g: oracles.leq(x, f, g),
                    lambda f, g: oracles.compatible(x, f, g))


MASK_RCATS = {
    "finset_p_1": lambda: build_finset_p(1),
    "finset_p_2": lambda: P2,
    "finset_p_3": lambda: build_finset_p(3),
    "nojoin": build_nojoin_fixture,
    "karoubi_p_2": lambda: karoubi_r(P2).rc,
    "par_inj_2": lambda: par(MCATS["finset_inj_2"]).rc,
    "par_inj_3": lambda: par(build_finset_mcat(3, "inj")).rc,
}


@pytest.mark.parametrize("name", sorted(MASK_RCATS))
def test_hom_masks_match_the_pair_reading_on_fixtures(name):
    _same_hom_masks(MASK_RCATS[name]())


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(P2.base.n_morphisms)), max_size=6))
def test_hom_masks_match_the_pair_reading_on_sub_restriction_categories(gens):
    sub = subcategory(P2.base, P2.base.objects,
                      _closure(P2.base, gens, P2.bar))
    _same_hom_masks(RestrictionCategory(
        sub.cat, tuple(sub.mor_new[P2.bar[f]] for f in sub.mor_old)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hom_masks_match_the_pair_reading_with_one_bar_redirected(data):
    # the grouping rewrites the two relations exactly, restriction axioms
    # or not
    c = P2.base
    f = data.draw(st.sampled_from(c.morphisms()))
    a = c.mor_src[f]
    bar = list(P2.bar)
    bar[f] = data.draw(st.sampled_from(c.hom(a, a)))
    _same_hom_masks(RestrictionCategory(c, tuple(bar)))


def test_element_masks_match_the_pair_reading(transferred):
    for rp in transferred:
        for a in rp.rc.base.objects:
            poset = element_poset(rp, a)
            assert (list(poset.up), list(poset.ok)) == \
                oracles.predicate_masks(
                    poset.elements,
                    lambda s, u: oracles.element_leq(rp, a, s, u),
                    lambda s, u: oracles.element_compatible(rp, a, s, u))


# -- the join laws ------------------------------------------------------------

def _same_join_reports(x):
    """check_join_axioms equals the all-maps scan, entries and order, for
    every bound; returns whether the base has generators and fails."""
    for max_family in (None, 1, 2):
        assert check_join_axioms(x, max_family) == \
            oracles.join_axioms(x, max_family)
    return x.base.generators() is not None and \
        not check_join_axioms(x).ok


JOIN_RCATS = {
    "finset_p_2": lambda: P2,
    "nojoin": build_nojoin_fixture,
    "subsets_3": lambda: subsets_category(3),
    "karoubi_p_2": lambda: karoubi_r(P2).rc,
    "par_inj_2": lambda: par(MCATS["finset_inj_2"]).rc,
}


@contextlib.contextmanager
def _scans_checked_against_oracle():
    """Check every joins.scan call that check_join_axioms and rp_reports
    make, in this block, against oracles.scan on the same fibres with each
    family given as elements; yields the list of the number of findings of
    each scan."""
    real = joins.scan
    found = []

    def checked(x, fibres, text):
        fibres = list(fibres)
        got = list(real(x, fibres, text))
        assert got == list(oracles.scan(x, [
            (ids, a, poset, [tuple(poset.elements[i] for i in fam)
                             for fam in fams], bar, maps)
            for ids, a, poset, fams, bar, maps in fibres], text))
        found.append(len(got))
        return iter(got)

    with pytest.MonkeyPatch.context() as mp:
        for module in (joins, rpsh):
            mp.setattr(module, "scan", checked)
        yield found


def _scan_mutants():
    """Join mutants by name: restriction categories whose join laws fail
    (collages of the acceptance test's presheaf mutants, finset_p_2 with a
    bar redirected, nojoin) and ones that pass."""
    from test_acceptance import _mutants
    out = {name: build() for name, build in JOIN_RCATS.items()}
    rps = _mutants(yoneda_jr(P2, 2), random.Random(7), 5)
    out.update((f"collage_{i}", collage(rp).rc) for i, rp in enumerate(rps))
    c = P2.base
    rng = random.Random(23)
    for i in range(6):
        f = rng.choice([f for f in c.morphisms()
                        if len(c.hom(c.mor_src[f], c.mor_src[f])) > 1])
        bar = list(P2.bar)
        bar[f] = rng.choice([e for e in c.hom(c.mor_src[f], c.mor_src[f])
                             if e != P2.bar[f]])
        out[f"bar_{i}"] = RestrictionCategory(c, tuple(bar))
    return out


def test_scan_matches_the_frozenset_scan_on_join_mutants(transferred):
    # per mutant: the findings of the scans at bound 1, then at bound 2
    counts = {}
    for name, x in _scan_mutants().items():
        counts[name] = []
        for max_family in (1, 2):
            with _scans_checked_against_oracle() as found:
                check_join_axioms(x, max_family)
            counts[name].append(sum(found))
    with _scans_checked_against_oracle() as found:
        for rp in transferred + [yoneda_jr(build_nojoin_fixture(), 0)]:
            rp_reports(rp)
    # the JRP2 and JRP-ACT scans of each transfer; the nojoin representable
    # finds JRP-MISSING along the generators, then along every map, and
    # stops there
    assert len(found) == 2 * len(transferred) + 2
    assert found[-2] == found[-1] > 0
    # some mutants fail at a singleton, and some, nojoin among them, only
    # at a pair
    assert counts["nojoin"] == [0, 2]
    assert any(one > 0 for one, _ in counts.values())
    assert len({name for name, (one, two) in counts.items()
                if one == 0 < two}) > 1


@pytest.mark.parametrize("name", sorted(JOIN_RCATS))
def test_join_reports_match_oracle_on_fixtures(name):
    _same_join_reports(JOIN_RCATS[name]())


def test_join_reports_match_oracle_on_collages():
    from test_acceptance import _mutants
    rps = [yoneda_jr(P2, a) for a in P2.base.objects]
    # the mutants of acceptance test 12b, drawn with its seed
    rps += _mutants(yoneda_jr(P2, 2), random.Random(7), 5)
    reruns = [_same_join_reports(collage(rp).rc) for rp in rps]
    # four mutants are categories that fail the join laws: the generator
    # pass reports something and the scan over every map runs; the other
    # mutant's collage is no category and has no generators
    assert reruns == [False] * 3 + [True, False, True, True, True]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(P2.base.n_morphisms)), max_size=6))
def test_join_reports_match_oracle_on_sub_restriction_categories(gens):
    # the closure of gens under composition and bar, with the inherited bar
    sub = subcategory(P2.base, P2.base.objects,
                      _closure(P2.base, gens, P2.bar))
    y = RestrictionCategory(sub.cat, tuple(sub.mor_new[P2.bar[f]]
                                           for f in sub.mor_old))
    assert _same_restriction_reports(y) == set()
    assert _closure(y.base, y.base.generators()) == set(y.base.morphisms())
    _same_join_reports(y)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_join_reports_match_oracle_with_one_bar_redirected(data):
    # finset_p_2 with one map's restriction set to another endomap of its
    # source: still a category, so the generator pass runs first, but J1,
    # J2 and POSTCOMP now fail at maps outside the generators too
    c = P2.base
    f = data.draw(st.sampled_from([f for f in c.morphisms()
                                   if len(c.hom(c.mor_src[f],
                                                c.mor_src[f])) > 1]))
    bar = list(P2.bar)
    bar[f] = data.draw(st.sampled_from(
        [e for e in c.hom(c.mor_src[f], c.mor_src[f]) if e != P2.bar[f]]))
    _same_join_reports(RestrictionCategory(c, tuple(bar)))


# -- the restriction laws -----------------------------------------------------

def _same_restriction_reports(x):
    """check_restriction_axioms equals the loop over every pair, entries
    and order; returns the report's tags."""
    report = check_restriction_axioms(x)
    assert report == oracles.restriction_axioms(x)
    return report.tags()


RESTRICTION_RCATS = dict(JOIN_RCATS, **{
    "finset_p_1": lambda: build_finset_p(1),
    "finset_p_3": lambda: build_finset_p(3),
    "karoubi_p_3": lambda: karoubi_r(build_finset_p(3)).rc,
    "par_iso_2": lambda: par(MCATS["finset_iso_2"]).rc,
    "par_inj_3": lambda: par(build_finset_mcat(3, "inj")).rc,
    "trivial_3": lambda: oracles.trivial_restriction(build_finset(3)),
    "collage": lambda: RCATS["collage"],
})


@pytest.mark.parametrize("name", sorted(RESTRICTION_RCATS))
def test_restriction_reports_match_oracle_on_fixtures(name):
    assert _same_restriction_reports(RESTRICTION_RCATS[name]()) == set()


def test_restriction_reports_match_oracle_with_one_bar_redirected():
    # finset_p_2 with the bar of one map sent to each other map: to an
    # endomorphism of its source, or elsewhere for BAR-SHAPE
    c = P2.base
    fired = set()
    for f in c.morphisms():
        for e in c.morphisms():
            if e != P2.bar[f]:
                bar = list(P2.bar)
                bar[f] = e
                fired |= _same_restriction_reports(
                    RestrictionCategory(c, tuple(bar)))
    assert fired == {"BAR-SHAPE", "R1", "R2", "R3", "R4"}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_restriction_reports_match_oracle_with_one_composite_redirected(data):
    # no longer a category: the laws read the redirected composite
    c = P2.base
    g, f = data.draw(st.sampled_from([(g, f) for g, f, _ in c.pairs()
                                      if _others(c, g, f)]))
    d = _redirected(c, (g, f), data.draw(st.sampled_from(_others(c, g, f))))
    _same_restriction_reports(RestrictionCategory(d, P2.bar))


def _same_rp_reports(rps):
    """check_rp_axioms equals the reference, entries and order; returns the
    union of the reports' tags."""
    tags = set()
    for rp in rps:
        report = rpsh.check_rp_axioms(rp)
        assert report == oracles.rp_axioms(rp)
        tags |= report.tags()
    return tags


def _bar_redirects(rp):
    """rp with the bar of one element sent to each other map out of its
    object, for every element."""
    c = rp.rc.base
    for a in c.objects:
        for e in rp.presheaf.elements(a):
            for d in c.out_of(a):
                if d != rp.bar(a, e):
                    bars = [list(col) for col in rp.bar_elem]
                    bars[a][e] = d
                    yield RestrictionPresheaf(rp.rc, rp.presheaf, tuple(
                        tuple(col) for col in bars))


def test_rp_reports_match_oracle_with_one_bar_redirected(transferred):
    rps = [yoneda_jr(P2, a) for a in P2.base.objects] + transferred
    assert _same_rp_reports(rps) == set()
    assert _same_rp_reports(
        mut for rp in rps for mut in _bar_redirects(rp)) == \
        {"RP-SHAPE", "RP1", "RP2", "RP3", "RP-SANITY1", "RP-SANITY2"}


def test_rp_reports_match_oracle_on_mutants():
    from test_acceptance import _mutants
    rps = _mutants(yoneda_jr(P2, 2), random.Random(7), 5) + \
        _mutants(yoneda_jr(P2, 1), random.Random(20260823), 6)
    assert "RP-PSH" in _same_rp_reports(rps)


# -- the presheaf laws --------------------------------------------------------

def _same_presheaf_verdicts(ps):
    """check_presheaf equals the check on every entry of the comp table;
    returns the number of presheaves that fail."""
    verdicts = [check_presheaf(p) for p in ps]
    assert verdicts == [oracles.presheaf_laws(p) for p in ps]
    return verdicts.count(False)


def _action_redirects(p):
    """(f, p with one action entry of f sent to another element), for
    every entry and element."""
    c = p.cat
    for (f, x), y in sorted(p.action.items()):
        for z in p.elements(c.mor_src[f]):
            if z != y:
                yield f, Presheaf(c, p.sizes, {**p.action, (f, x): z},
                                  p.elem_names)


def test_presheaf_verdicts_match_oracle_on_fixtures(transferred, par_inj2):
    ps = [p for name in sorted(CATS) for p in _presheaves(CATS[name])]
    ps += [p for name in sorted(MCATS) for p in _fixture_presheaves(name)]
    ps += [rp.presheaf for rp in transferred]
    ps += [jrp_to_sheaf(par_inj2, rp).presheaf for rp in transferred]
    assert _same_presheaf_verdicts(ps) == 0


def test_presheaf_verdicts_match_oracle_on_sieve_subpresheaves():
    for x in (P2, build_finset_p(3)):
        assert _same_presheaf_verdicts(
            [rp.presheaf for rp in _sieve_subpresheaves(x)]) == 0


def test_presheaf_verdicts_match_oracle_with_one_action_redirected():
    c = P2.base
    muts = [m for a in c.objects for m in _action_redirects(yoneda(c, a))]
    assert _same_presheaf_verdicts([p for f, p in muts]) > 0
    # redirects at maps outside the generators are caught through them
    gens = c.generators()
    assert not any(check_presheaf(p) for f, p in muts
                   if f not in gens and not c.is_identity(f))


def test_presheaf_verdicts_match_oracle_over_a_broken_composite():
    # no generators: every entry of the composition table is read
    c = P2.base
    ps = []
    for g, f, _ in list(c.pairs())[::7]:
        for h in _others(c, g, f)[:1]:
            d = _redirected(c, (g, f), h)
            assert d.generators() is None
            ps += [Presheaf(d, p.sizes, p.action) for p in _presheaves(c)]
    assert 0 < _same_presheaf_verdicts(ps) < len(ps)


# -- the presheaf join laws --------------------------------------------------

def _same_jrp_reports(rps, bounds=(None, 1, 2)):
    """check_jrp_axioms equals the reference, entries and order, for each
    bound; returns the tags of each report at the last bound."""
    tags = []
    for rp in rps:
        for max_family in bounds:
            report = check_jrp_axioms(rp, max_family)
            assert report == oracles.jrp_axioms(rp, max_family)
        tags.append(sorted(report.tags()))
    return tags


def _sieve_subpresheaves(x):
    """The sub-presheaf of each representable of x cut out by each sieve,
    with the element bars of the base."""
    c = x.base
    return [RestrictionPresheaf(x, sieve_subpresheaf(c, a, sieve)[0], tuple(
        tuple(x.bar[h] for h in c.hom(b, a) if h in sieve)
        for b in c.objects))
        for a in c.objects for sieve in sieves_on(c, a)]


def test_jrp_reports_match_oracle_on_representables():
    xs = [build_finset_p(1), P2, subsets_category(3), build_nojoin_fixture()]
    tags = _same_jrp_reports([yoneda_jr(x, a) for x in xs
                              for a in x.base.objects])
    # the representables are join restriction presheaves, but over nojoin
    # two compatible maps into the point (object 0) have no join
    assert tags == [[]] * 6 + [["JRP-MISSING"], []]


def test_jrp_reports_match_oracle_on_transfers(transferred):
    assert _same_jrp_reports(transferred) == [[]] * len(transferred)


def test_jrp_reports_match_oracle_on_mutants():
    from test_acceptance import _mutants
    p1 = build_finset_p(1)
    # the mutants of acceptance tests 12b and 9, drawn with their seeds
    rps = _mutants(yoneda_jr(P2, 2), random.Random(7), 5)
    rng = random.Random(20260823)
    rps += _mutants(yoneda_jr(P2, 2), rng, 6) + \
        _mutants(yoneda_jr(P2, 1), rng, 2) + _mutants(yoneda_jr(p1, 1), rng, 2)
    assert all(_same_jrp_reports(rps))


def test_jrp_reports_match_oracle_on_sieve_subpresheaves():
    tags = _same_jrp_reports(_sieve_subpresheaves(P2))
    assert (len(tags), tags.count(["JRP-MISSING"]), tags.count([])) == \
        (11, 1, 10)
    tags = _same_jrp_reports(_sieve_subpresheaves(build_finset_p(3)),
                             bounds=(2,))
    assert (len(tags), tags.count(["JRP-MISSING"]), tags.count([])) == \
        (31, 12, 19)


# -- the amalgamation check --------------------------------------------------

def test_matching_tuples_match_oracle(par_inj2, transferred):
    c = par_inj2.mc.base
    for rp in transferred:
        p = jrp_to_sheaf(par_inj2, rp).presheaf
        for fams in basis_covers(par_inj2.mc):
            for fam in fams:
                assert list(_matching_tuples(c, p, fam)) == \
                    oracles.matching_tuples(c, p, fam)
