"""The pruned searches in src agree with the brute-force references in
oracles.py on small fixtures."""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (FINSET_MCATS, collage, families, finset_iso_mcat,
                     sieve_subpresheaf, sigma_classifier)
from rcwb import fincat, fixtures, joins, mcat, rpsh, site
from rcwb.bundles import load_bundle
from rcwb.bridge import jrp_to_sheaf, sheaf_to_jrp
from rcwb.fincat import (Cocone, Diagram, cocones_at, colimit,
                         mediating, pullback, subcategory, validate_category)
from rcwb.fixtures import (build_finset, build_finset_data, build_finset_mcat,
                           build_finset_p, build_finset_p_data,
                           build_nojoin_fixture, subsets_category)
from rcwb.joins import check_join_axioms, hom_poset
from rcwb.mcat import (MCategory, join_colimit, karoubi_r, matching_colimit,
                       matching_diagram, mtotal, par, sub_m, sub_m_join,
                       subobject_rep)
from rcwb.restriction import RestrictionCategory, check_restriction_axioms
from rcwb.rpsh import (RestrictionPresheaf, check_jrp_axioms, element_join,
                       element_poset, rp_reports, yoneda_jr)
from rcwb.site import (Presheaf, Topology, basis_covers,
                       check_presheaf, constant_presheaf, generate_topology,
                       matching_families, plus, saturation_is_fixpoint,
                       sieves_on, yoneda)

MCATS = {"finset_inj_2": build_finset_mcat(2),
         "finset_iso_2": finset_iso_mcat(2)}
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
        mc = build_finset_mcat(2)
        fixtures_built = len(built)
        # a matching diagram is a graph: it builds no shape category
        for fam in itertools.combinations(sub_m(mc, 2), 3):
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
    # hom-set
    c = CATS["finset_p_2"]
    comp = oracles.pair_table(c)
    keys = sorted(comp)
    for k in data.draw(st.lists(st.sampled_from(keys), max_size=4)):
        g, f = k
        comp[k] = data.draw(st.sampled_from(
            c.hom(c.mor_src[f], c.mor_tgt[g])))
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
    "par_finset_inj_2": (lambda: par(build_finset_mcat(2)).rc.base,
                         71),
}


@pytest.mark.parametrize("name", sorted(PULLBACK_CATS))
def test_pullbacks_match_oracle_on_fixtures(name):
    build, missing = PULLBACK_CATS[name]
    assert _same_pullbacks(build()) == missing


def test_pullbacks_are_searched_once_per_class_of_cospans(monkeypatch):
    # a cospan (f, g) is searched only when f and g are the least of their
    # orbits under precomposition with isos and neither is an iso; the
    # rest are transported, and the 66 classes with an iso leg of the 517
    # are read off the isos
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
    along_iso = {(f, g) for f, g in classes if c.is_iso(f) or c.is_iso(g)}
    assert sorted(searched) == sorted(classes - along_iso)
    assert (len(c._pullback_cache), len(classes), len(searched)) == \
        (1842, 517, 451)


# name -> the number of its cospans with an iso leg
ALONG_ISO = {"finset_3": 508, "finset_p_2": 66, "karoubi_finset_p_2": 386,
             "nojoin": 18, "par_finset_inj_2": 66, "subsets_3": 15}


@pytest.mark.parametrize("name", sorted(PULLBACK_CATS))
def test_pullbacks_along_an_iso_match_the_search(name):
    # every cospan with an iso leg, not only the least of each class
    c = PULLBACK_CATS[name][0]()
    seen = 0
    for b in c.objects:
        for f in c.into(b):
            for g in c.into(b):
                if c.is_iso(f) or c.is_iso(g):
                    assert fincat._pullback_along_iso(c, f, g) == \
                        fincat._pullback_search(c, f, g)
                    seen += 1
    assert seen == ALONG_ISO[name]


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
            elements = sub_m(mc, obj)
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
        mc = FINSET_MCATS[kind](3)
        c = mc.base
        for obj in c.objects:
            for r in range(4):
                for fam in itertools.combinations(sub_m(mc, obj), r):
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


def _same_as_ordered_pairs(mc, fam, obj):
    """The matching diagram has one pair vertex per pair i < j, and its
    colimit's apex and member legs, and the map mediating gives from them
    to the members, are those of the ordered-pair reference diagram under
    the brute-force oracles.  Returns whether the colimit exists."""
    c = mc.base
    k = len(fam)
    d = matching_diagram(mc, fam, obj)
    assert len(d.obj_map) - k == k * (k - 1) // 2
    od = oracles.ordered_matching_diagram(mc, fam, obj)
    want, got = oracles.colimit(c, od), colimit(c, d)
    assert (got is None) == (want is None)
    if got is None:
        return False
    assert (got.apex, got.legs[:k]) == (want.apex, want.legs[:k])
    mu = oracles.induced_map(c, od, want, obj, fam)
    assert mediating(c, got, obj, fam) == mu
    assert matching_colimit(mc, fam, obj).mu == mu
    return True


def test_matching_diagrams_over_pairs_match_the_ordered_pairs():
    # every family of at most 3 canonical subobjects, as in the size-3
    # colimit test above
    seen = []
    for kind in ("inj", "iso"):
        mc = FINSET_MCATS[kind](3)
        seen += [_same_as_ordered_pairs(mc, fam, obj)
                 for obj in mc.base.objects for r in range(4)
                 for fam in itertools.combinations(sub_m(mc, obj), r)]
    assert (len(seen), sum(seen)) == (122, 122)


def test_matching_diagrams_over_pairs_match_on_par_families(pc_inj):
    # the monic legs of every compatible family of spans in Par(finset_inj_2)
    x = pc_inj.rc
    monic_legs = {(a, tuple(pc_inj.spans[i][0] for i in fam))
                  for a in x.base.objects for b in x.base.objects
                  for fam in hom_poset(x, a, b).families()}
    seen = [_same_as_ordered_pairs(pc_inj.mc, monics, a)
            for a, monics in sorted(monic_legs)]
    assert (len(seen), sum(seen)) == (22, 22)


# -- restriction monics ---------------------------------------------------------

RESTRICTION_MONIC_CATS = {
    **{f"karoubi_finset_p_{n}": lambda n=n: karoubi_r(build_finset_p(n)).rc
       for n in range(4)},
    "karoubi_nojoin": lambda: karoubi_r(build_nojoin_fixture()).rc,
    **{f"karoubi_subsets_{k}": lambda k=k: karoubi_r(subsets_category(k)).rc
       for k in (1, 2, 3)},
    **{f"par_finset_{kind}_{n}":
       lambda kind=kind, n=n: par(FINSET_MCATS[kind](n)).rc
       for kind in ("inj", "iso") for n in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(RESTRICTION_MONIC_CATS))
def test_restriction_monics_are_read_off_the_splittings(name):
    x = RESTRICTION_MONIC_CATS[name]()
    mt = mtotal(x)
    assert mt.mcat.monics == frozenset(
        mt.sub.mor_new[m] for m in oracles.restriction_monic_candidates(x))


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


def _same_join_colimit(mc, fam, obj):
    """join_colimit and sub_m_join on the family, its members made
    canonical first, agree with the full search on the family as given:
    the antichain is that of the maximal members, the two colimits exist
    together and share their apex, the full search's mu is the antichain's
    mu∘ψ for an automorphism ψ of that apex, and the joins are equal.
    Returns whether the antichain is shorter than the family, and whether
    ψ is not the identity."""
    c = mc.base
    canon = [subobject_rep(mc, m) for m in fam]
    antichain, mcol = join_colimit(mc, canon, obj)
    assert antichain == oracles.maximal_members(mc, fam)
    want = matching_colimit(mc, fam, obj)
    assert (mcol is None) == (want is None)
    join = None if want is None or want.mu not in mc.monics else \
        subobject_rep(mc, want.mu)
    assert sub_m_join(mc, canon, obj) == join
    if want is None:
        return len(antichain) < len(fam), False
    apex = mcol.cocone.apex
    assert want.cocone.apex == apex
    assert any(c.compose(mcol.mu, psi) == want.mu
               for psi in c.isos_into(apex) if c.mor_src[psi] == apex)
    return len(antichain) < len(fam), want.mu != mcol.mu


MAXIMAL = {  # families, reduced, needing ψ != id, no colimit
    "finset_inj_2": (lambda: build_finset_mcat(2), (22, 11, 2, 0)),
    "finset_inj_3": (lambda: build_finset_mcat(3), (278, 247, 130, 0)),
    "finset_iso_3": (lambda: finset_iso_mcat(3), (8, 0, 0, 0)),
    "inj3_all": (_inj3_all, (278, 247, 90, 82)),
}


@pytest.mark.parametrize("name", sorted(MAXIMAL))
def test_matching_colimits_match_full_search(name):
    # every family of canonical subobjects, unbounded, on a fresh memo
    build, counts = MAXIMAL[name]
    mc = build()
    seen = [0, 0, 0, 0]
    for obj in mc.base.objects:
        for fam in families(sub_m(mc, obj)):
            reduced, moved = _same_join_colimit(mc, fam, obj)
            seen[0] += 1
            seen[1] += reduced
            seen[2] += moved
            seen[3] += join_colimit(mc, fam, obj)[1] is None
    assert tuple(seen) == counts


def test_matching_colimits_of_repeated_and_unsorted_families():
    # subobjects of set3 by position in Sub_M: a repeated member is
    # dominated by its other copy; the full search on the last family, with
    # its members out of order, picks another universal cocone, so it
    # needs ψ != id
    mc = build_finset_mcat(3)
    els = sub_m(mc, 3)
    fams = [(1, 1), (5, 5, 6), tuple(range(7, -1, -1)), (1, 2, 1), (2, 4, 0)]
    seen = [_same_join_colimit(mc, tuple(els[i] for i in fam), 3)
            for fam in fams]
    assert seen == [(True, False)] * 4 + [(True, True)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MAXIMAL)), st.data())
def test_matching_colimits_of_drawn_families_match_full_search(name, data):
    # ordered families with repeats, over all of M rather than canonical reps
    mc = MAXIMAL[name][0]()
    c = mc.base
    obj = data.draw(st.sampled_from(c.objects))
    into = sorted(m for m in mc.monics if c.mor_tgt[m] == obj)
    _same_join_colimit(mc, data.draw(st.lists(st.sampled_from(into),
                                              max_size=4)), obj)


def test_matching_colimits_of_par_monic_legs_match_full_search(pc_inj):
    # the monic legs of every compatible family of spans in Par(finset_inj_2)
    x = pc_inj.rc
    monic_legs = {(a, tuple(pc_inj.spans[i][0] for i in fam))
                  for a in x.base.objects for b in x.base.objects
                  for fam in hom_poset(x, a, b).families()}
    mc = MCategory(pc_inj.mc.base, pc_inj.mc.monics)
    seen = [_same_join_colimit(mc, monics, a)
            for a, monics in sorted(monic_legs)]
    assert (len(seen), sum(r for r, _ in seen),
            sum(m for _, m in seen)) == (22, 11, 2)


def test_matching_diagrams_are_built_for_kept_families_only(monkeypatch):
    # every family of finset_inj_3 on a fresh memo, joined: one diagram per
    # antichain of two or more maximal members, and none for a family with
    # a dominated member; the 19 antichains of at most one member need no
    # diagram
    mc = build_finset_mcat(3)
    built = []

    def spy(mc, family, obj):
        built.append((tuple(family), obj))
        return matching_diagram(mc, family, obj)

    monkeypatch.setattr(mcat, "matching_diagram", spy)
    kept = set()
    for obj in mc.base.objects:
        for fam in families(sub_m(mc, obj)):
            kept.add((oracles.maximal_members(mc, fam), obj))
            sub_m_join(mc, fam, obj)
    assert all(oracles.maximal_members(mc, fam) == fam for fam, _ in built)
    assert sorted(built) == sorted(k for k in kept if len(k[0]) >= 2)
    assert (len(built), len(kept)) == (12, 31)


def test_matching_colimit_keeps_the_member_legs_of_the_full_colimit():
    # the leg at each pair vertex v is leg_i∘p for the first arrow (v, i, p)
    # out of v, so the member legs decide the cocone; every family of
    # canonical subobjects, dominated members included
    checked = 0
    for kind in ("inj", "iso"):
        mc = FINSET_MCATS[kind](3)
        c = mc.base
        for obj in c.objects:
            for fam in families(sub_m(mc, obj)):
                d = matching_diagram(mc, fam, obj)
                full = colimit(c, d)
                mcol = matching_colimit(mc, fam, obj)
                assert (full is None) == (mcol is None)
                if full is None:
                    continue
                for v, i, p in d.arrows[::2]:
                    assert full.legs[v] == c.compose(full.legs[i], p)
                assert mcol.cocone.apex == full.apex
                assert mcol.cocone.legs == full.legs[:len(fam)]
                assert mcol.mu == oracles.induced_map(c, d, full, obj, fam)
                checked += 1
    assert checked == 278 + 8


@pytest.mark.parametrize("n, kind, counts", [
    (2, "inj", (8, 1, 28, 5)), (3, "inj", (24, 9, 380, 236)),
    (3, "iso", (10, 6, 254, 194))])
def test_canonical_isos_and_spans_match_the_scan_over_every_iso(n, kind,
                                                                counts):
    # every monic, and every span (m, f) out of its domain; counts: monics,
    # those not already canonical, spans, those not already canonical
    mc = FINSET_MCATS[kind](n)
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


SPAN_MCATS = {
    "finset_inj_2": lambda: build_finset_mcat(2),
    "finset_inj_3": lambda: build_finset_mcat(3),
    "finset_iso_3": lambda: finset_iso_mcat(3),
    "karoubi_total_finset_p_2":
        lambda: mtotal(karoubi_r(build_finset_p(2)).rc).mcat,
    "iso_pair": lambda: load_bundle(
        oracles.iso_pair_bundle(["1A", "1B", "i", "j"])).mcat,
    "z2": lambda: load_bundle(oracles.z2_bundle(["s", "1"])).mcat,
}


@pytest.mark.parametrize("name", sorted(SPAN_MCATS))
def test_canonical_span_is_constant_on_each_class_of_spans(name):
    # every span (m, f) with m in M, and every (m∘phi, f∘phi) in its class:
    # one representative, whose first leg is the canonical subobject of m
    mc = SPAN_MCATS[name]()
    c = mc.base
    for m in mc.monics:
        dom = c.mor_src[m]
        for f in c.out_of(dom):
            canon = mcat.canonical_span(mc, m, f)
            assert canon == oracles.canonical_span(mc, m, f)
            assert canon[0] == mcat.subobject_rep(mc, m)
            for phi in (c.identity[dom], *c.isos_into(dom)):
                assert mcat.canonical_span(mc, c.compose(m, phi),
                                           c.compose(f, phi)) == canon


@pytest.mark.parametrize("name", sorted(SPAN_MCATS))
def test_par_lists_the_canonical_span_of_every_pair(name):
    mc = SPAN_MCATS[name]()
    assert par(mc).spans == oracles.par_spans(mc)


def test_par_canonicalises_only_identities_and_composites(monkeypatch):
    # Par(finset_inj_3) lists its maps from Sub_M with no canonical_span
    # call but one per object for its identity, and composes by reading
    # pullback(f, n) once for each n in Sub_M and f into tgt n; a lookup
    # per composable pair would make 9,866
    mc = build_finset_mcat(3)
    c = mc.base
    spans, cones = [], []
    canonical_span = mcat.canonical_span
    monkeypatch.setattr(mcat, "canonical_span", lambda mc, m, f:
                        spans.append((m, f)) or canonical_span(mc, m, f))
    monkeypatch.setattr(mcat, "pullback", lambda c, f, n:
                        cones.append((f, n)) or pullback(c, f, n))
    pc = par(mc)
    assert spans == [(c.identity[a], c.identity[a]) for a in c.objects]
    assert sorted(cones) == sorted((f, n) for a in c.objects
                                   for n in sub_m(mc, a) for f in c.into(a))
    assert (len(cones), len(set(cones)), pc.rc.base.n_morphisms) == \
        (389, 389, 144)


@pytest.mark.parametrize("name", sorted(SPAN_MCATS))
def test_par_composes_like_the_pair_at_a_time_reference(name):
    mc = SPAN_MCATS[name]()
    pc = par(mc)
    assert [(g, f, pc.span_id[oracles.compose_spans(
        mc, pc.spans[g], pc.spans[f])]) for g, f, _ in pc.rc.base.pairs()] \
        == list(pc.rc.base.pairs())


def test_par_names_the_maps_of_an_iso_pair_by_their_canonical_subobjects():
    # with 1B listed before i: A -> B, the canonical subobject of i is 1B,
    # so the spans into B start with 1B; listed after i, they start with i
    names = {}
    for order in (["1A", "1B", "i", "j"], ["1A", "i", "1B", "j"]):
        pc = par(load_bundle(oracles.iso_pair_bundle(order)).mcat)
        names[tuple(order)] = pc.rc.base.mor_names
    assert names == {
        ("1A", "1B", "i", "j"): ("(1A,1A)", "(1A,i)", "(1B,j)", "(1B,1B)"),
        ("1A", "i", "1B", "j"): ("(1A,1A)", "(1A,i)", "(i,1A)", "(i,i)")}


def _transfer_tables(tr):
    psh = tr.rp.presheaf
    return (psh.sizes, psh.action, psh.elem_names, tr.elems, tr.index,
            tr.rp.bar_elem)


def _assert_transfers_like_the_reference(pc, p):
    assert _transfer_tables(sheaf_to_jrp(pc, p)) == \
        _transfer_tables(oracles.transfer_by_pullbacks(pc, p))


@pytest.mark.parametrize("name", sorted(SPAN_MCATS))
def test_the_transfer_acts_like_the_per_element_reference(name):
    # a span acts on a pair through Par's legs exactly as by pulling the
    # pair's monic back along it and taking the canonical pair: on every
    # representable and on the constant presheaves (no sheaves)
    mc = SPAN_MCATS[name]()
    c = mc.base
    pc = par(mc)
    for p in [yoneda(c, w) for w in c.objects] + \
            [constant_presheaf(c, k) for k in (1, 2)]:
        _assert_transfers_like_the_reference(pc, p)


def test_the_transfer_of_a_sheafification_acts_like_the_reference():
    # P⁺⁺ of yset1 on finset_inj_2, a presheaf built by the plus
    # construction; the unit's transfer along fun is checked against the
    # reference by test_bridge's test_unit_transfer_matches_the_route_over_par
    mc = build_finset_mcat(2)
    c = mc.base
    p = site.sheafify(yoneda(c, c.obj_names.index("set1")),
                      generate_topology(mc)).presheaf
    _assert_transfers_like_the_reference(par(mc), p)


# -- the matching-colimit memo ------------------------------------------------

def test_memoised_matching_colimit_equals_fresh_computation():
    # join_colimit's memo hands back one object per antichain, equal to a
    # fresh computation and to the antichain's own search
    for mc in MCATS.values():
        for obj in mc.base.objects:
            elements = sub_m(mc, obj)
            for r in range(4):
                for fam in itertools.combinations(elements, r):
                    first = join_colimit(mc, fam, obj)
                    assert join_colimit(mc, fam, obj) is first
                    fresh = MCategory(mc.base, mc.monics)
                    assert fresh == mc and not fresh.antichain_memo
                    assert join_colimit(fresh, fam, obj) == first
                    assert first[1] == matching_colimit(mc, first[0], obj)


# -- the geometric criterion ---------------------------------------------------

def _no_generators_mcat():
    """finset_inj_2 on a table that is not a category, so it has no
    certified generators."""
    mc = build_finset_mcat(2)
    bad = oracles.non_associative(mc.base)
    assert bad.generators() is None
    return MCategory(bad, mc.monics)


GEOMETRIC_MCATS = {
    "finset_inj_2": lambda: build_finset_mcat(2),
    "finset_inj_3": lambda: build_finset_mcat(3),
    "finset_iso_2": lambda: finset_iso_mcat(2),
    "finset_iso_3": lambda: finset_iso_mcat(3),
    "m3": lambda: load_bundle(oracles.m3_bundle()).mcat,
    "no_generators": _no_generators_mcat,
}


@pytest.mark.parametrize("name", sorted(GEOMETRIC_MCATS))
def test_basis_covers_match_the_family_by_family_scan(name):
    # on fresh M-categories, so neither side reads the other's memo
    build = GEOMETRIC_MCATS[name]
    mc = build()
    assert [sub_m(mc, a) for a in mc.base.objects] == \
        [oracles.sub_m(mc, a) for a in mc.base.objects]
    assert basis_covers(build()) == oracles.covering_antichains(build())


@pytest.mark.parametrize("name", sorted(GEOMETRIC_MCATS))
def test_covering_families_generate_the_sieves_of_their_antichains(name):
    # so the saturation of the antichains' sieves is that of every family's
    mc = GEOMETRIC_MCATS[name]()
    c = mc.base
    top = generate_topology(mc)
    for a, fams in enumerate(oracles.basis_covers(mc)):
        assert {oracles.generate_sieve(c, a, fam) for fam in fams} == \
            {oracles.generate_sieve(c, a, fam) for fam in top.basis[a]}


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
    for max_family in (None, 1, 2, 3):
        assert mcat.is_geometric(MCategory(c, monics), max_family).lines() \
            == oracles.is_geometric(MCategory(c, monics), max_family).lines()
    assert basis_covers(MCategory(c, monics)) == \
        oracles.covering_antichains(MCategory(c, monics))


# -- the stable-system gate -----------------------------------------------------

def _z2(order):
    return lambda: load_bundle(oracles.z2_bundle(order)).mcat


def _iso_pair(order):
    return lambda: load_bundle(oracles.iso_pair_bundle(order)).mcat


M_SYSTEMS = {
    **GEOMETRIC_MCATS,
    "finset_inj_4": lambda: build_finset_mcat(4),
    "karoubi_total_finset_p_2":
        lambda: mtotal(karoubi_r(build_finset_p(2)).rc).mcat,
    "karoubi_total_finset_p_3":
        lambda: mtotal(karoubi_r(build_finset_p(3)).rc).mcat,
    "z2_s1": _z2(["s", "1"]),
    "z2_1s": _z2(["1", "s"]),
    "iso_pair_1B_i": _iso_pair(["1A", "1B", "i", "j"]),
    "iso_pair_i_1B": _iso_pair(["1A", "i", "1B", "j"]),
}


@pytest.mark.parametrize("name", sorted(M_SYSTEMS))
def test_check_m_system_matches_the_all_maps_scan(name):
    build = M_SYSTEMS[name]
    lines = mcat.check_m_system(build()).lines()
    assert lines == oracles.check_m_system(build()).lines()
    # the redirected composite leaves an iso of no_generators out of M
    assert bool(lines) == (name == "no_generators")


FINSET_CATS = {n: build_finset_mcat(n) for n in (2, 3)}


@st.composite
def _drawn_m(draw, n):
    """A class of maps of FinSet<=n: drawn injections and at most one other
    map, closed with the isos under composition when a drawn flag says so.
    Unclosed draws fail M-ISO or M-COMP, closed ones at most M-MONO and
    M-PB."""
    mc = FINSET_CATS[n]
    c = mc.base
    members = draw(st.sets(st.sampled_from(sorted(mc.monics))))
    members |= draw(st.sets(st.sampled_from(
        sorted(set(c.morphisms()) - mc.monics)), max_size=1))
    if draw(st.booleans()):
        members = _closure(c, members | set(c.isos()))
    return MCategory(c, frozenset(members))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FINSET_CATS)).flatmap(_drawn_m))
def test_check_m_system_matches_the_all_maps_scan_on_drawn_classes(mc):
    assert mcat.check_m_system(mc).lines() == \
        oracles.check_m_system(mc).lines()


def _pullbacks_asked(monkeypatch, mc):
    """check_m_system(mc), and the (m, f) of each pullback of m along f
    that it asked for, in order."""
    asked = []
    monkeypatch.setattr(mcat, "pullback", lambda c, f, m:
                        asked.append((m, f)) or pullback(c, f, m))
    return mcat.check_m_system(mc), asked


def _m_pb_pairs(mc, maps):
    c = mc.base
    return [(m, f) for m in sorted(mc.monics)
            for f in c.into(c.mor_tgt[m]) if f in maps]


def test_m_pb_reads_the_generators_only(monkeypatch):
    mc = build_finset_mcat(3)
    c = mc.base
    report, asked = _pullbacks_asked(monkeypatch, mc)
    assert report.ok
    assert asked == _m_pb_pairs(mc, c.generators())
    # the all-maps scan asks for 724
    assert (len(asked), len(_m_pb_pairs(mc, c.morphisms()))) == (106, 724)
    # on finset_inj_2 with M the isos and both maps set1 -> set2, the pass
    # along the generators fails: pulling one map back along the other
    # gives the empty set, whose map into set1 is not in M.  So the pass
    # is run again along every map, and its lines are the oracle's
    c = FINSET_CATS[2].base
    mc = MCategory(c, frozenset(c.isos()) | set(c.hom(1, 2)))
    report, asked = _pullbacks_asked(monkeypatch, mc)
    assert asked == _m_pb_pairs(mc, c.generators()) + \
        _m_pb_pairs(mc, c.morphisms())
    assert report.tags() == {"M-PB"}
    assert report.lines() == oracles.check_m_system(mc).lines()


# -- covers read off the join test, and SUBCAN ------------------------------

TOPOLOGY_MCATS = {
    **GEOMETRIC_MCATS,
    "karoubi_total_finset_p_2": M_SYSTEMS["karoubi_total_finset_p_2"],
    "karoubi_total_finset_p_3": M_SYSTEMS["karoubi_total_finset_p_3"],
    "z2_s1": _z2(["s", "1"]),
    "z2_1s": _z2(["1", "s"]),
    **{"iso_pair_" + "_".join(order): _iso_pair(list(order))
       for order in itertools.permutations(["1A", "1B", "i", "j"])},
}
# their join-test covers are no topology, so the saturation loop runs on
THROUGH_THE_LOOP = {"m3", "no_generators"}


def _same_topology(build):
    """generate_topology of a fresh build(), after checking its covers and
    SUBCAN lines against the saturation loop and the sheaf scan, each on a
    build of its own so that no memo is shared."""
    top, ref = generate_topology(build()), oracles.generate_topology(build())
    assert (top.covers, top.sieves, top.basis) == \
        (ref.covers, ref.sieves, ref.basis)
    assert ref.joined is None
    assert _subcan(site.subcanonical_report, top) == \
        _subcan(oracles.subcanonical_report, ref) == \
        _subcan(oracles.subcanonical_report, top)
    return top


def _subcan(report, top):
    """The SUBCAN lines of report(top), or the exception type it raises:
    on a table that is no category (no_generators) the sieve scan fails."""
    try:
        return report(top).lines()
    except KeyError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MCATS))
def test_join_test_covers_match_the_saturation_loop(name):
    top = _same_topology(TOPOLOGY_MCATS[name])
    assert (top.joined is None) == (name in THROUGH_THE_LOOP)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.sampled_from(sorted(MCATS["finset_inj_2"].monics))))
def test_join_test_covers_match_the_saturation_loop_on_stable_systems(drawn):
    c = MCATS["finset_inj_2"].base
    monics = _stable_system(c, drawn)
    assert _same_topology(lambda: MCategory(c, monics)).joined is not None


# -- matching colimits of at most one member, read off the isos -------------

SMALL_FAMILY_MCATS = {**{name: build for name, (build, _) in MAXIMAL.items()},
                      **TOPOLOGY_MCATS}


def _searched_matching_colimit(mc, fam, obj):
    """The matching colimit by the search route: fincat.colimit of the
    matching diagram, and mediating into obj."""
    c = mc.base
    full = colimit(c, matching_diagram(mc, fam, obj))
    if full is None:
        return None
    coc = Cocone(full.apex, full.legs[:len(fam)])
    return mcat.MatchingColimit(coc, mediating(c, coc, obj, fam))


@pytest.mark.parametrize("name", sorted(SMALL_FAMILY_MCATS))
def test_matching_colimits_of_at_most_one_member_match_the_search(name):
    # the empty family at every object, and every member of M, canonical or
    # not, on its own; no_generators is no category, so it takes the search
    mc = SMALL_FAMILY_MCATS[name]()
    c = mc.base
    for a in c.objects:
        assert matching_colimit(mc, (), a) == \
            _searched_matching_colimit(mc, (), a)
    moved = 0
    for m in sorted(mc.monics):
        got = matching_colimit(mc, (m,), c.mor_tgt[m])
        assert got == _searched_matching_colimit(mc, (m,), c.mor_tgt[m])
        moved += got.cocone.apex != c.mor_src[m]
    if name == "karoubi_total_finset_p_2":
        # an isomorphic object listed before dom m is the apex: keeping
        # dom m would fail here
        assert (len(mc.monics), moved) == (38, 24)
    if name == "no_generators":
        # Yoneda needs the category laws: read off the isos of this table,
        # two single members would get another cocone than the search's
        assert sum(mcat._small_matching_colimit(c, (m,), c.mor_tgt[m]) !=
                   _searched_matching_colimit(mc, (m,), c.mor_tgt[m])
                   for m in mc.monics) == 2


def _sheaf_scans(monkeypatch):
    """The presheaves that site.is_sheaf is asked about from now on."""
    scanned = []
    real = site.is_sheaf
    monkeypatch.setattr(site, "is_sheaf", lambda p, top:
                        scanned.append(p) or real(p, top))
    return scanned


@pytest.mark.parametrize("name", sorted(set(TOPOLOGY_MCATS) -
                                        THROUGH_THE_LOOP))
def test_joined_topologies_are_subcanonical_with_no_sheaf_scan(monkeypatch,
                                                               name):
    mc = TOPOLOGY_MCATS[name]()
    top = generate_topology(mc)
    assert top.joined is mc
    scanned = _sheaf_scans(monkeypatch)
    assert site.subcanonical_report(top).ok and scanned == []
    # the same covers built by hand, or copied with _replace, claim nothing,
    # so each representable is scanned
    for other in (Topology(top.cat, top.covers, top.sieves, top.basis),
                  top._replace()):
        assert other.joined is None and other == top
        scanned.clear()
        assert site.subcanonical_report(other).ok
        assert len(scanned) == top.cat.n_objects


@pytest.mark.parametrize("name", ["finset_inj_2", "finset_iso_2"])
def test_mutant_topologies_run_the_sheaf_scan(monkeypatch, name):
    # each covering sieve deleted in turn: no mutant is joined, and SUBCAN
    # is the scan's on every one
    top = generate_topology(MCATS[name])
    scanned = _sheaf_scans(monkeypatch)
    for a, covers in enumerate(top.covers):
        for s in sorted(covers, key=sorted):
            mutant = Topology(top.cat, top.covers[:a] + (covers - {s},)
                              + top.covers[a + 1:], top.sieves, top.basis)
            scanned.clear()
            assert site.subcanonical_report(mutant).lines() == \
                oracles.subcanonical_report(mutant).lines()
            assert len(scanned) == top.cat.n_objects


def test_subcan_certificate_checks_each_mu_and_each_generated_sieve(
        monkeypatch):
    # a tampered antichain memo: an induced map that is no iso, or an
    # antichain whose sieve does not cover, sends SUBCAN to the scan
    mc = build_finset_mcat(2)
    top = generate_topology(mc)
    c = mc.base
    scanned = _sheaf_scans(monkeypatch)
    key = next(k for k, (fam, _) in mc.antichain_memo.items()
               if k[0] == 2 and len(fam) == 2)
    fam, mcol = mc.antichain_memo[key]
    assert mcol.mu in c.isos()
    not_iso = next(f for f in c.into(2) if f not in c.isos())
    for tampered in ((fam, mcat.MatchingColimit(mcol.cocone, not_iso)),
                     (fam[:1], mcol)):
        mc.antichain_memo[key] = tampered
        scanned.clear()
        assert site.subcanonical_report(top).ok
        assert len(scanned) == c.n_objects
    mc.antichain_memo[key] = fam, mcol
    scanned.clear()
    assert site.subcanonical_report(top).ok and scanned == []


def test_topology_joins_once_per_sieve_and_saturates_once(monkeypatch):
    mc = build_finset_mcat(3)
    c = mc.base
    joins, passes = [], []
    real_join, real_saturate = site.sub_m_join, site._saturate
    monkeypatch.setattr(site, "sub_m_join", lambda mc, fam, a:
                        joins.append((a, tuple(fam))) or
                        real_join(mc, fam, a))
    monkeypatch.setattr(site, "_saturate", lambda *args:
                        passes.append(args) or real_saturate(*args))
    top = generate_topology(mc)
    assert top.joined is mc and len(passes) == 1
    tested = [(a, tuple(m for m in sub_m(mc, a) if m in s))
              for a in c.objects for s in top.sieves[a]]
    listed = [(a, fam) for a in c.objects for fam in mcat.antichains(mc, a)]
    assert sorted(joins) == sorted(tested + listed)
    # one join test for each of the 2 + 3 + 6 + 20 sieves, and one for each
    # of as many antichains in Topology.basis
    assert (len(tested), len(listed)) == (31, 31)


# Dedekind numbers: Sub_M(set_n) is the lattice of subsets of n, with 2,
# 3, 6 and 20 antichains for n = 0..3
@pytest.mark.parametrize("n, entries", [(2, 2 + 3 + 6), (3, 2 + 3 + 6 + 20)])
def test_basis_covers_join_once_per_antichain(n, entries, monkeypatch):
    # one search and one memo entry per antichain; joining each family
    # through its own matching colimit would make one per family, 22 and 278
    mc = build_finset_mcat(n)
    searched = []
    real = mcat.matching_colimit
    monkeypatch.setattr(mcat, "matching_colimit", lambda mc, fam, a:
                        searched.append((tuple(fam), a)) or real(mc, fam, a))
    basis_covers(mc)
    assert sorted(searched) == sorted(
        (fam, a) for a in mc.base.objects for fam in mcat.antichains(mc, a))
    assert sorted(searched) == sorted(
        (fam, a) for (a, _), (fam, _) in mc.antichain_memo.items())
    assert len(searched) == entries


@pytest.mark.parametrize("max_family", [3, None])
def test_geometric_pulls_back_once_per_antichain_and_generator(monkeypatch,
                                                               max_family):
    # 3·3 + 6·4 + 20·5 = 133: antichains of Sub_M(set_n) times the
    # generators into set_n, n = 1..3 (none into set0); the largest
    # antichain has 3 members, so the bound of 3 cuts nothing
    mc = build_finset_mcat(3)
    c = mc.base
    seen = []
    real = mcat.pullback_stable
    monkeypatch.setattr(mcat, "pullback_stable", lambda mc, f, *rest:
                        seen.append(f) or real(mc, f, *rest))
    assert mcat.is_geometric(mc, max_family).ok
    gens = c.generators()
    assert len(seen) == sum(
        len(mcat.antichains(mc, a)) * len(set(c.into(a)) & gens)
        for a in c.objects) == 133


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
    # the forced search is itself a test reference now: this certifies it
    # against the product-and-filter one, since find_presheaf_iso runs on it
    want = oracles.nat_trans(p, q)
    nats = oracles.all_nat_trans(p, q)
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
        iso = oracles.find_presheaf_iso(p, q, constraint)
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


# -- the plus construction ----------------------------------------------------

PLUS_BASES = {
    **{f"finset_inj_{n}": (lambda n=n: build_finset_mcat(n))
       for n in range(4)},
    "finset_iso_2": lambda: finset_iso_mcat(2),
    "finset_iso_3": lambda: finset_iso_mcat(3),
    # generate_topology runs the saturation loop on m3
    "m3": lambda: load_bundle(oracles.m3_bundle()).mcat,
    "z2": lambda: load_bundle(oracles.z2_bundle(["s", "1"])).mcat,
}


def _plus_presheaves(mc, top):
    """The representables, the constants with 0 to 3 elements, the
    subpresheaf of each covering sieve and Sigma."""
    c = mc.base
    return [yoneda(c, a) for a in c.objects] + \
        [constant_presheaf(c, k) for k in range(4)] + \
        [sieve_subpresheaf(c, a, s)[0] for a in c.objects
         for s in sorted(top.covers[a], key=sorted)] + \
        [sigma_classifier(mc)]


@pytest.mark.parametrize("name", sorted(PLUS_BASES))
def test_plus_matches_the_refinement_route(name):
    # the least cover comes first in the reference's scan, its families are
    # never merged, and every later family merges into its restriction to
    # it: the same classes, action, names and unit, at both applications,
    # and class_of finds each family of each cover where the search does
    mc = PLUS_BASES[name]()
    top = generate_topology(mc)
    for p in _plus_presheaves(mc, top):
        got, want = plus(p, top), oracles.plus_by_refinement(p, top)
        for a in mc.base.objects:
            for s in top.covers[a]:
                fs, fams = matching_families(p, a, s)
                for fam in fams:
                    assert oracles.class_of(got, a, fs, fam) == \
                        oracles.refined_class(p, want, a, tuple(fs), fam)
        for got, want in ((got, want),
                          (plus(got.presheaf, top),
                           oracles.plus_by_refinement(want.presheaf, top))):
            assert got.classes == want.classes
            q, r = got.presheaf, want.presheaf
            assert (q.sizes, q.action, q.elem_names) == \
                (r.sizes, r.action, r.elem_names)
            assert got.unit.components == want.unit.components


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
    "par_inj_3": lambda: par(build_finset_mcat(3)).rc,
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
    "par_inj_3": lambda: par(build_finset_mcat(3)).rc,
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
        for a, fams in enumerate(oracles.basis_covers(par_inj2.mc)):
            for fam in fams:
                assert site.matching_tuples(p, par_inj2.mc, fam, a) == \
                    oracles.matching_tuples(c, p, fam)
