"""The pruned searches in src agree with the brute-force references in
oracles.py on small fixtures."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rcwb.bridge import _matching_tuples, jrp_to_sheaf, sheaf_to_jrp
from rcwb.fincat import (Diagram, FinCategory, cocones_at, colimit,
                         empty_diagram, pullback, subcategory,
                         validate_category)
from rcwb.fixtures import (build_finset, build_finset_mcat, build_finset_p,
                           build_nojoin_fixture, subsets_category)
from rcwb.joins import FinitePoset, hom_poset
from rcwb.mcat import MCategory, matching_colimit, matching_diagram, par, sub_m
from rcwb.restriction import compatible, leq
from rcwb.rpsh import (collage, element_compatible, element_join, element_leq,
                       element_poset, yoneda_jr)
from rcwb.site import (all_nat_trans, basis_covers, constant_presheaf,
                       find_presheaf_iso, matching_families, sieves_on,
                       sigma_classifier, yoneda)

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


def _closure(c, gens):
    """The morphisms of the subcategory of c generated by gens."""
    mors = set(gens) | set(c.identity)
    while True:
        more = {c.comp[(g, f)] for g in mors for f in mors
                if c.mor_tgt[f] == c.mor_src[g]} - mors
        if not more:
            return mors
        mors |= more


# -- associativity ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assoc_violations_match_oracle(data):
    # a finset_p_2 table with some composites redirected within their
    # hom-set and some deleted
    c = CATS["finset_p_2"]
    comp = dict(c.comp)
    keys = sorted(comp)
    for k in data.draw(st.lists(st.sampled_from(keys), max_size=4)):
        g, f = k
        comp[k] = data.draw(st.sampled_from(
            c.hom(c.mor_src[f], c.mor_tgt[g])))
    for k in data.draw(st.lists(st.sampled_from(keys), max_size=2)):
        comp.pop(k, None)
    d = FinCategory(c.n_objects, c.mor_src, c.mor_tgt, c.identity, comp)
    got = [v.ids for v in validate_category(d).violations
           if v.tag == "ASSOC"]
    assert got == oracles.assoc_violations(d)


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
    sub = subcategory(c, c.objects, _closure(c, gens)).cat
    for a in sub.objects:
        assert sieves_on(sub, a) == oracles.sieves_on(sub, a)


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
}


@pytest.mark.parametrize("name", sorted(PULLBACK_CATS))
def test_pullbacks_match_oracle_on_fixtures(name):
    build, missing = PULLBACK_CATS[name]
    assert _same_pullbacks(build()) == missing


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(range(CATS["finset_2"].n_morphisms))))
def test_pullbacks_match_oracle_on_generated_subcategories(gens):
    c = CATS["finset_2"]
    _same_pullbacks(subcategory(c, c.objects, _closure(c, gens)).cat)


# -- cocones and colimits -----------------------------------------------------

def test_cocones_of_empty_diagram_match_oracle():
    for c in list(CATS.values()):
        _same_cocones(c, empty_diagram())


def test_cocones_of_every_small_matching_diagram_match_oracle():
    for mc in MCATS.values():
        for obj in mc.base.objects:
            elements = sub_m(mc, obj).elements
            for r in range(4):
                for fam in itertools.combinations(elements, r):
                    _same_cocones(mc.base,
                                  matching_diagram(mc, fam, obj).diagram)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MCATS)), st.data())
def test_cocones_of_drawn_matching_diagrams_match_oracle(name, data):
    # ordered families with repeats, over all of M rather than canonical reps
    mc = MCATS[name]
    c = mc.base
    obj = data.draw(st.sampled_from(c.objects))
    into = sorted(m for m in mc.monics if c.mor_tgt[m] == obj)
    fam = data.draw(st.lists(st.sampled_from(into), max_size=3))
    _same_cocones(c, matching_diagram(mc, fam, obj).diagram)


def _parallel_pair(c, f, g):
    # objects 0 and 1; arrows 2, 3: 0 -> 1 sent to f and g
    shape = FinCategory(2, (0, 1, 0, 0), (0, 1, 1, 1), (0, 1),
                        {(0, 0): 0, (1, 1): 1, (1, 2): 2, (2, 0): 2,
                         (1, 3): 3, (3, 0): 3})
    return Diagram(shape, (c.mor_src[f], c.mor_tgt[f]),
                   (c.identity[c.mor_src[f]], c.identity[c.mor_tgt[f]], f, g))


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
            and c.mor_src[e] == c.mor_tgt[e] and c.comp[(e, e)] == e]


def _idempotent(c, e):
    # a shape whose only object has an outgoing non-identity arrow, so no
    # leg is forced before the search branches on it
    shape = FinCategory(1, (0, 0), (0, 0), (0,),
                        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    return Diagram(shape, (c.mor_src[e],), (c.identity[c.mor_src[e]], e))


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
        for d in ([empty_diagram()] +
                  [_parallel_pair(c, f, g) for f in c.morphisms()
                   for g in c.hom(c.mor_src[f], c.mor_tgt[f])] +
                  [_idempotent(c, e) for e in _idempotents(c)]):
            want = oracles.colimit(c, d)
            assert colimit(c, d) == want
            missing += want is None
    assert missing == 25 + 64    # nojoin, subsets_3


def test_matching_colimits_of_size_3_match_oracle():
    # every family of at most 3 canonical subobjects: 114 in finset_inj_3
    # and 8 in finset_iso_3
    count = 0
    for kind in ("inj", "iso"):
        mc = build_finset_mcat(3, kind)
        for obj in mc.base.objects:
            for r in range(4):
                for fam in itertools.combinations(sub_m(mc, obj).elements, r):
                    d = matching_diagram(mc, fam, obj).diagram
                    assert colimit(mc.base, d) == oracles.colimit(mc.base, d)
                    count += 1
    assert count == 122


# -- the matching-colimit memo ------------------------------------------------

def _parts(mcol):
    # the shape category is rebuilt on every computation and compares by id
    md = mcol.md
    return (mcol.cocone, mcol.mu, md.family, md.pair_objects,
            md.diagram.obj_map, md.diagram.mor_map)


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
                    if first is None:
                        assert again is None
                        continue
                    assert _parts(first) == _parts(again)


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
        sub = subcategory(c, c.objects, _closure(c, gens)).cat
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
    sub = subcategory(c, c.objects, _closure(c, gens)).cat
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
            _same_as_scans(poset, lambda f, g: leq(x, f, g),
                           lambda f, g: compatible(x, f, g))


def test_element_joins_match_oracle(transferred):
    for rp in transferred:
        for a in rp.rc.base.objects:
            poset = element_poset(rp, a)
            assert poset.elements == tuple(rp.presheaf.elements(a))
            _same_as_scans(poset, lambda s, u: element_leq(rp, a, s, u),
                           lambda s, u: element_compatible(rp, a, s, u))


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
    _same_as_scans(FinitePoset(elements, order, compat), order, compat)


def test_join_of_equivalent_elements_is_the_first():
    # "a" and "b" lie below each other and below "top", which comes first
    rel = {("a", "b"), ("b", "a"), ("a", "top"), ("b", "top")} | \
        {(e, e) for e in ("a", "b", "top")}
    poset = FinitePoset(["top", "b", "a"], lambda s, u: (s, u) in rel,
                        lambda s, u: True)
    assert poset.join([]) == "b"
    assert poset.join(["a"]) == "b"
    assert poset.join(["top"]) == "top"
    assert poset.upper_bounds(["a"]) == ("top", "b", "a")
    assert FinitePoset([], lambda s, u: True, lambda s, u: True).join([]) \
        is None


def test_join_rejects_a_member_outside_the_poset(transferred):
    poset = FinitePoset([1, 2], lambda s, u: s <= u, lambda s, u: True)
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


# -- the amalgamation check --------------------------------------------------

def test_matching_tuples_match_oracle(par_inj2, transferred):
    c = par_inj2.mc.base
    for rp in transferred:
        p = jrp_to_sheaf(par_inj2, rp).presheaf
        for fams in basis_covers(par_inj2.mc):
            for fam in fams:
                assert list(_matching_tuples(c, p, fam)) == \
                    oracles.matching_tuples(c, p, fam)
