"""The pruned searches in src agree with the brute-force references in
oracles.py on small fixtures."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rcwb.fincat import (Diagram, FinCategory, cocones_at, empty_diagram,
                         subcategory)
from rcwb.fixtures import build_finset, build_finset_mcat, build_finset_p
from rcwb.mcat import MCategory, matching_colimit, matching_diagram, sub_m
from rcwb.site import (all_nat_trans, constant_presheaf, find_presheaf_iso,
                       matching_families, sieves_on, sigma_classifier, yoneda)

MCATS = {"finset_inj_2": build_finset_mcat(2, "inj"),
         "finset_iso_2": build_finset_mcat(2, "iso")}
CATS = {"finset_2": build_finset(2), "finset_p_2": build_finset_p(2).base}


def _same_cocones(c, d):
    for apex in c.objects:
        assert sorted(cocones_at(c, d, apex)) == \
            sorted(oracles.cocones_at(c, d, apex))


def _closure(c, gens):
    """The morphisms of the subcategory of c generated by gens."""
    mors = set(gens) | set(c.identity)
    while True:
        more = {c.comp[(g, f)] for g in mors for f in mors
                if c.mor_tgt[f] == c.mor_src[g]} - mors
        if not more:
            return mors
        mors |= more


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


# -- cocones ------------------------------------------------------------------

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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CATS)), st.data())
def test_cocones_of_idempotents_match_oracle(name, data):
    # a shape whose only object has an outgoing non-identity arrow, so no
    # leg is forced before the search branches on it
    c = CATS[name]
    idems = [e for e in c.morphisms() if not c.is_identity(e)
             and c.mor_src[e] == c.mor_tgt[e] and c.comp[(e, e)] == e]
    e = data.draw(st.sampled_from(idems))
    shape = FinCategory(1, (0, 0), (0, 0), (0,),
                        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    d = Diagram(shape, (c.mor_src[e],), (c.identity[c.mor_src[e]], e))
    assert d.check(c)
    _same_cocones(c, d)


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
