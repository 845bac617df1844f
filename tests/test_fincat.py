import pytest

from oracles import identity_functor, initial_object
from rcwb.fincat import (Diagram, FinCategory, colimit, is_mono, mediating,
                         pullback, subcategory, validate_category)
from rcwb.fixtures import build_finset, build_finset_data


def test_validate_accepts_finset():
    for n in range(3):
        assert validate_category(build_finset(n)).ok


def test_validate_flags_broken_identity():
    c = build_finset(1)
    broken = FinCategory(c.n_objects, c.mor_src, c.mor_tgt,
                         (c.identity[0], c.identity[0]), c.comp)
    rep = validate_category(broken)
    assert "ID-SHAPE" in rep.tags() or "ID-LEFT" in rep.tags()


def test_validate_flags_missing_composite():
    c = build_finset(1)
    comp = dict(c.comp)
    victim = next(k for k in comp if k[0] != k[1])
    del comp[victim]
    rep = validate_category(FinCategory(
        c.n_objects, c.mor_src, c.mor_tgt, c.identity, comp))
    assert "COMP-MISSING" in rep.tags() or "ASSOC" in rep.tags()


def test_is_mono_matches_injectivity():
    data = build_finset_data(2)
    c = data.cat
    for f in c.morphisms():
        graph = data.graphs[f]
        injective = len(set(graph)) == len(graph)
        # maps out of the empty set are vacuously injective and monic
        assert is_mono(c, f) == injective


def test_pullback_of_injections_is_intersection():
    data = build_finset_data(2)
    c = data.cat
    m1 = data.mor_id[(1, 2, (0,))]
    m2 = data.mor_id[(1, 2, (1,))]
    cone = pullback(c, m1, m2)
    assert cone is not None
    assert cone.apex == 0  # disjoint images meet in the empty set
    cone2 = pullback(c, m1, m1)
    assert cone2.apex == 1


def test_initial_object_of_finset_is_empty_set():
    assert initial_object(build_finset(2)) == 0


def test_colimit_certifies_initiality():
    c = build_finset(2)
    coc = colimit(c, Diagram((), ()))
    assert coc is not None and coc.apex == 0
    # the mediating map to any other cocone exists and is found
    assert mediating(c, coc, 2, ()) is not None


def test_colimit_refuses_an_arrow_with_the_wrong_endpoints():
    c = build_finset(2)
    f = next(f for f in c.morphisms() if c.mor_src[f] != c.mor_tgt[f])
    ends = (c.mor_src[f], c.mor_tgt[f])
    assert Diagram(ends, ((0, 1, f),)).check(c)
    for d in (Diagram(ends[::-1], ((0, 1, f),)),    # f runs the other way
              Diagram(ends, ((1, 0, f),)),
              Diagram(ends, ((0, 2, f),))):         # no vertex 2
        with pytest.raises(ValueError, match="invalid diagram"):
            colimit(c, d)


def test_identity_functor_checks_and_is_full_faithful():
    c = build_finset(2)
    fun = identity_functor(c)
    assert fun.check() and fun.is_full_and_faithful()


def test_subcategory_rejects_non_closed():
    c = build_finset(1)
    only_ids = [c.identity[a] for a in c.objects]
    sub = subcategory(c, c.objects, only_ids)
    assert validate_category(sub.cat).ok
    with pytest.raises(ValueError, match="endpoint"):
        subcategory(c, (0,), only_ids)  # morphism endpoints escape
    with pytest.raises(ValueError, match="identity"):
        subcategory(c, c.objects, only_ids[:1])  # the identity of set1
    # the point into set2 at 0, then the swap of set2: the point at 1 escapes
    data = build_finset_data(2)
    point, swap = data.mor_id[(1, 2, (0,))], data.mor_id[(2, 2, (1, 0))]
    ids = [data.cat.identity[a] for a in data.cat.objects]
    with pytest.raises(ValueError, match="composite"):
        subcategory(data.cat, data.cat.objects, ids + [point, swap])
    assert validate_category(subcategory(
        data.cat, data.cat.objects,
        ids + [point, swap, data.mor_id[(1, 2, (1,))]]).cat).ok
