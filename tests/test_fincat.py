import hashlib

import pytest

from oracles import identity_functor, initial_object, pair_table, with_table
from rcwb.bundles import build_fixture
from rcwb.fincat import (Diagram, colimit, is_mono, mediating,
                         pullback, subcategory, validate_category)
from rcwb.fixtures import (build_finset, build_finset_data, build_finset_mcat,
                           build_finset_p, subsets_category)
from rcwb.mcat import karoubi_r, par


def test_validate_accepts_finset():
    for n in range(3):
        assert validate_category(build_finset(n)).ok


def test_validate_flags_broken_identity():
    # the swap of set2 as its identity: well shaped, but swap∘id != id
    c = build_finset(2)
    swap = next(f for f in c.hom(2, 2) if c.is_iso(f) and f != c.identity[2])
    broken = with_table(c, pair_table(c), c.identity[:2] + (swap,))
    rep = validate_category(broken)
    assert ("ID-LEFT", (swap, c.identity[2])) in \
        [(v.tag, v.ids) for v in rep.violations]


def test_build_refuses_a_missing_composite():
    c = build_finset(1)
    comp = pair_table(c)
    victim = next(k for k in comp if k[0] != k[1])
    del comp[victim]
    with pytest.raises(ValueError, match="is not a morphism"):
        with_table(c, comp)


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


# -- the composition rows -------------------------------------------------------

def _table_digest(c):
    """sha256 over the sorted (g, f, g∘f) triples, the ends, the identities
    and the names of c."""
    return hashlib.sha256(repr((
        sorted(c.pairs()), c.mor_src, c.mor_tgt, c.identity, c.obj_names,
        c.mor_names)).encode()).hexdigest()


# the digests of the tables as the tuple-keyed composition dict gave them,
# before composition was stored as rows
TABLE_DIGESTS = {
    "finset_p_1":
        "cd9e95a3343def8ec957f8bbe46de92bef98658e064579d9b4cb1ed94bafe310",
    "finset_p_2":
        "6cd8c94b8f1dabdd6d35af09967b6f52e3c9c518897bf86e650e99cd293517ec",
    "finset_p_3":
        "f678964e0e84da967f307003c0c09843397963ff616913edcec6e8914c0f2053",
    "finset_inj_1":
        "65d5c17941b186a7be7dc310f2d110069dcac8aae27169afd52fff9b1357b2a8",
    "finset_inj_2":
        "a194e3ac43809c46ceff5ff2fe27046af04d483975718af2988ab17b4cf546f9",
    "finset_inj_3":
        "5ba8f5c6a4d7471cb79562cc8bf26b9d03ca87b5057627d82f7a47f6adfa3f2e",
    "finset_iso_2":
        "a194e3ac43809c46ceff5ff2fe27046af04d483975718af2988ab17b4cf546f9",
    "nojoin":
        "95574fd09fd760a6373a90085398671bb972cdff53336afbde90aed1415dcaab",
}
BUILT_DIGESTS = {
    "subsets_3": (
        lambda: subsets_category(3).base,
        "77d3bad8fb5e3a2806e03eba7a82f69e7554dffc31a306499cc38eb90f3c29e2"),
    "karoubi_finset_p_2": (
        lambda: karoubi_r(build_finset_p(2)).rc.base,
        "8665510da45989ab7b9d0858432d5c12556ee54060b04ae403dddd8e02497ccf"),
    "karoubi_finset_p_3": (
        lambda: karoubi_r(build_finset_p(3)).rc.base,
        "2880705df5302d77cd8546d95876c9d6a701966554c3730f7541136f14d9e7b5"),
    "par_finset_inj_2": (
        lambda: par(build_finset_mcat(2)).rc.base,
        "9f7f6addcf7c49163c6736ab365077648544c3efa4117aa70c8228bd92202693"),
    "par_finset_inj_3": (
        lambda: par(build_finset_mcat(3)).rc.base,
        "245d6a5bb123cef4badd3a5ec1843d4c248502787185aea37558ecdf5b1e0cee"),
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_fixture_tables_are_unchanged(name):
    assert _table_digest(build_fixture(name).cat) == TABLE_DIGESTS[name]


@pytest.mark.parametrize("n", range(5))
def test_finset_iso_is_built_on_the_category_of_finset_inj(n):
    # the isos of FinSet<=n are exactly its bijective endomaps
    iso = build_fixture(f"finset_iso_{n}")
    data = build_finset_data(n)
    d = data.cat
    assert iso.cat is build_fixture(f"finset_inj_{n}").cat
    assert iso.mcat.base is iso.cat and iso.restriction is None
    assert iso.mcat.monics == frozenset(
        f for f in d.morphisms() if d.mor_src[f] == d.mor_tgt[f] and
        len(set(data.graphs[f])) == len(data.graphs[f]))
    c = iso.cat
    assert (c.rows, c.obj_names, c.mor_names) == \
        (d.rows, d.obj_names, d.mor_names)
    assert _table_digest(c) == _table_digest(d)


def test_build_finset_mcat_takes_only_the_injections():
    with pytest.raises(ValueError, match="unknown monic class 'iso'"):
        build_finset_mcat(2, "iso")


@pytest.mark.parametrize("name", sorted(BUILT_DIGESTS))
def test_constructed_tables_are_unchanged(name):
    build, digest = BUILT_DIGESTS[name]
    assert _table_digest(build()) == digest


def test_rows_hold_each_composite_at_the_position_of_its_right_factor():
    c = karoubi_r(build_finset_p(2)).rc.base
    for g in c.morphisms():
        assert len(c.rows[g]) == len(c.into(c.mor_src[g]))
    for f in c.morphisms():
        assert c.into(c.mor_tgt[f])[c.pos[f]] == f
    triples = list(c.pairs())
    assert triples == sorted(triples)
    assert len(triples) == sum(len(r) for r in c.rows)
    assert all(c.rows[g][c.pos[f]] == gf == c.compose(g, f)
               for g, f, gf in triples)


def test_compose_refuses_a_pair_that_is_not_composable():
    c = build_finset(1)
    g = c.hom(1, 1)[0]
    f = c.hom(0, 0)[0]
    with pytest.raises(ValueError, match="not composable"):
        c.compose(g, f)


def test_a_missing_entry_is_refused_where_it_is_missing():
    # every pair of finset_p_2 left out in turn: build_category names it
    c = build_finset_p(2).base
    table = pair_table(c)
    for g, f in sorted(table)[::11]:
        holed = dict(table)
        del holed[g, f]
        with pytest.raises(ValueError,
                           match=f"^composite None of {g}, {f} is not"):
            with_table(c, holed)


def test_a_pair_table_entry_off_a_composable_pair_raises():
    # build_category asks for composable pairs only, so an entry off them
    # is refused by with_table; a composite that is not a map is refused
    # by build_category
    c = build_finset(1)
    g, f = c.hom(1, 1)[0], c.hom(0, 0)[0]
    table = pair_table(c)
    with pytest.raises(ValueError, match="not composable"):
        with_table(c, {**table, (g, f): g})
    with pytest.raises(ValueError, match="is not a morphism"):
        with_table(c, {**table, (g, g): c.n_morphisms})


def test_an_identity_that_is_not_an_endomorphism_is_refused():
    c = build_finset(1)
    for bad in (c.n_morphisms, -1):
        with pytest.raises(ValueError, match="is not a morphism"):
            with_table(c, pair_table(c), (c.identity[0], bad))
    # the map set0 -> set1 as the identity of set1
    with pytest.raises(ValueError, match="of 1 is not an endomorphism"):
        with_table(c, pair_table(c), (c.identity[0], c.hom(0, 1)[0]))


def test_a_composite_with_wrong_endpoints_is_reported_and_composes_nowhere():
    # g∘f redirected to a map out of another object: COMP-SHAPE names it,
    # and a table that does not type-check gets no associativity scan
    c = build_finset_p(2).base
    table = pair_table(c)
    for (g, f), gf in sorted(table.items())[::17]:
        wrong = next(h for h in c.morphisms()
                     if (c.mor_src[h], c.mor_tgt[h]) !=
                     (c.mor_src[gf], c.mor_tgt[gf]))
        d = with_table(c, {**table, (g, f): wrong})
        rep = validate_category(d)
        assert (g, f, wrong) in [v.ids for v in rep.violations
                                 if v.tag == "COMP-SHAPE"]
        assert "ASSOC" not in rep.tags()
