import pytest

from oracles import (NotRestrictionFunctorError, identity_functor,
                     is_join_restriction_functor, join_collapsing_functor,
                     nojoin_certified_pair, upper_bounds)
from rcwb import joins, rpsh
from rcwb.bridge import sheaf_to_jrp
from rcwb.cli import main
from rcwb.fixtures import subsets_category
from rcwb.joins import (JOIN_TEXT, CompatibleFamily, FinitePoset,
                        check_join_axioms, compatible_subsets, hom_poset, join,
                        scan)
from rcwb.restriction import check_restriction_axioms
from rcwb.rpsh import JRP_TEXT, rp_reports
from rcwb.site import yoneda


def test_finset_p_passes_join_axioms(finset_p2):
    assert check_join_axioms(finset_p2).ok


def test_join_is_graph_union(finset_p2, finset_p2_data):
    x, fd = finset_p2, finset_p2_data
    # the two singleton-domain restrictions of the identity on the 2-set
    f = fd.mor_id[(2, 2, (0, None))]
    g = fd.mor_id[(2, 2, (None, 1))]
    fam = CompatibleFamily(2, 2, frozenset((f, g)))
    assert hom_poset(x, 2, 2).compatible(fam.members)
    assert join(x, fam) == x.base.identity[2]


def test_empty_family_join_is_nowhere_defined(finset_p2, finset_p2_data):
    fam = CompatibleFamily(2, 1, frozenset())
    assert join(finset_p2, fam) == \
        finset_p2_data.mor_id[(2, 1, (None, None))]


def test_incompatible_family_rejected(finset_p2, finset_p2_data):
    f = finset_p2_data.mor_id[(2, 2, (0, 0))]
    g = finset_p2_data.mor_id[(2, 2, (1, 1))]
    assert not hom_poset(finset_p2, 2, 2).compatible((f, g))


def test_nojoin_fixture_fails_only_by_missing_joins(nojoin):
    assert check_restriction_axioms(nojoin).ok
    rep = check_join_axioms(nojoin)
    assert rep.tags() == {"JOIN-MISSING"}


def test_certified_pair_is_compatible_without_upper_bound(nojoin):
    f, g = nojoin_certified_pair(nojoin)
    fam = CompatibleFamily(1, 0, frozenset((f, g)))
    assert hom_poset(nojoin, 1, 0).compatible(fam.members)
    assert upper_bounds(nojoin, fam) == ()


def test_compatible_subsets_count_on_subsets_category():
    x = subsets_category(2)
    fams = compatible_subsets(x, 0, 0)
    # every subset of the (fully compatible) 4-element lattice
    assert len(fams) == 16


def test_join_collapsing_functor_detected():
    fun, x, y = join_collapsing_functor()
    assert not is_join_restriction_functor(fun, x, y)


def test_identity_is_join_restriction_functor(finset_p2):
    fun = identity_functor(finset_p2.base)
    assert is_join_restriction_functor(fun, finset_p2, finset_p2,
                                       max_family=2)


def test_non_restriction_functor_rejected():
    fun, x, y = join_collapsing_functor()
    bad = type(fun)(fun.source, fun.target, fun.obj_map,
                    tuple(0 for _ in fun.mor_map))
    with pytest.raises(NotRestrictionFunctorError):
        is_join_restriction_functor(bad, x, y)


# -- the one scan behind both checkers ----------------------------------------

def _order(pairs):
    """leq from the strict pairs (s, u), s below u; reflexive."""
    return lambda s, u: s == u or (s, u) in pairs


def _hand_fibres():
    """Four fibres built by hand over the one object of subsets_category(2),
    each firing one finding of scan on the family (0, 1), and one clean
    fibre."""
    anything = lambda s, u: True  # noqa: E731
    # 0 and 1 below 2, all compatible
    top = FinitePoset((0, 1, 2), _order({(0, 2), (1, 2)}), anything)
    flat = FinitePoset((0, 1), _order(set()), anything)
    # u and v below w, but not compatible
    clash = FinitePoset(("u", "v", "w"), _order({("u", "w"), ("v", "w")}),
                        lambda s, u: {s, u} != {"u", "v"})
    # the join of u and v is w, below x
    chain = FinitePoset(("u", "v", "w", "x"), _order(
        {("u", "w"), ("v", "w"), ("w", "x"), ("u", "x"), ("v", "x")}),
        anything)
    # the maps {}, {0}, {1}, {0,1}, ordered by inclusion
    families = [(), (0,), (0, 1)]
    return [
        (("none",), 0, flat, [(), (0, 1)], None, []),
        # the bars of 0 and 1 join to {0,1}, not {0}
        (("bar",), 0, top, families, {0: 1, 1: 2, 2: 1}, []),
        (("maps",), 0, top, families, None,
         [("pre", ("g",), ("h",), {0: "u", 1: "v", 2: "w"}, clash),
          ("post", ("f",), (), {0: "u", 1: "v", 2: "x"}, chain)]),
        (("clean",), 0, top, families, {0: 1, 1: 3, 2: 3},
         [("pre", (), (), {0: "u", 1: "v", 2: "w"}, chain)]),
    ]


@pytest.mark.parametrize("text, tags", [
    (JOIN_TEXT, ("JOIN-MISSING", "J1", "J2", "POSTCOMP")),
    (JRP_TEXT, ("JRP-MISSING", "JRP1", "JRP2", "JRP-ACT")),
])
def test_scan_findings_on_hand_built_fibres(text, tags):
    x = subsets_category(2)
    got = list(scan(x, _hand_fibres(), text))
    assert [(v.tag, v.ids) for v in got] == [
        (tags[0], ("none", 0, 1)), (tags[1], ("bar", 0, 1)),
        (tags[2], ("g", 0, 1, "h")), (tags[3], ("f", 0, 1))]
    assert [v.detail for v in got] == [
        text["missing"][1], text["bar"][1], text["pre", "compatible"][1],
        text["post", "join"][1]]
    # without a text for a missing join, a family without one is skipped
    assert list(scan(x, _hand_fibres(), dict(text, missing=None))) == \
        got[1:]


def _recorded_scans(monkeypatch, module):
    """[(x, fibres)] for each call of scan through module, the fibres read
    into a list before they reach the real scan."""
    calls = []

    def recording(x, fibres, text):
        fibres = list(fibres)
        calls.append((x, fibres))
        return scan(x, fibres, text)

    monkeypatch.setattr(module, "scan", recording)
    return calls


def _maps(fibre, role):
    """The maps of one role at a fibre: the g of J2 or JRP2, the f of
    POSTCOMP, each the last of its ids around the family."""
    return [(before + after)[-1] for r, before, after, _, _ in fibre[5]
            if r == role]


def test_join_laws_read_the_generators_only(monkeypatch, capsys):
    # a clean check-laws run reads J2 along exactly the generators into a
    # and POSTCOMP along exactly the generators out of b, at each hom (a, b)
    calls = _recorded_scans(monkeypatch, joins)
    assert main(["check-laws", "finset_p_2"]) == 0
    assert capsys.readouterr().out.endswith("PASS\tcheck-laws\tfinset_p_2\n")
    [(x, fibres)] = calls
    c = x.base
    gens = c.generators()
    assert [fibre[0] for fibre in fibres] == [
        (a, b) for a in c.objects for b in c.objects if c.hom(a, b)]
    for fibre in fibres:
        a, b = fibre[0]
        assert _maps(fibre, "pre") == [g for g in c.into(a) if g in gens]
        assert _maps(fibre, "post") == [f for f in c.out_of(b) if f in gens]
    # the pass skips maps: 10 generators of the 23 maps
    assert (len(gens), c.n_morphisms) == (10, 23)


def test_jrp2_reads_the_generators_only(monkeypatch, pc_inj, mc_inj):
    # on each transferred representable over Par(finset_inj_2), a clean
    # pass reads JRP2 along exactly the generators into a, at each P(a)
    c = pc_inj.rc.base
    gens = c.generators()
    for w in mc_inj.base.objects:
        rp = sheaf_to_jrp(pc_inj, yoneda(mc_inj.base, w)).rp
        calls = _recorded_scans(monkeypatch, rpsh)
        assert all(rep.ok for rep in rp_reports(rp))
        # the JRP2 pass, then the JRP-ACT pass
        [(_, pres), _] = calls
        assert [fibre[0] for fibre in pres] == [
            (a,) for a in c.objects if rp.presheaf.sizes[a]]
        for fibre in pres:
            [a] = fibre[0]
            assert _maps(fibre, "pre") == [g for g in c.into(a) if g in gens]
