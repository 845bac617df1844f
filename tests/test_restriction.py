import pytest
from hypothesis import given, settings, strategies as st

from oracles import compatible, leq, trivial_restriction
from rcwb.fixtures import build_finset, build_finset_p, build_finset_p_data
from rcwb.restriction import (RestrictionCategory, check_restriction_axioms,
                              is_total, restriction_idempotents,
                              total_subcategory)


def test_finset_p_satisfies_axioms(finset_p2):
    assert check_restriction_axioms(finset_p2).ok


def test_trivial_restriction_satisfies_axioms():
    assert check_restriction_axioms(trivial_restriction(build_finset(2))).ok


def test_broken_bar_is_flagged(finset_p2):
    c = finset_p2.base
    bar = list(finset_p2.bar)
    # set the bar of some non-total endomorphism to the identity
    victim = next(f for f in c.morphisms()
                  if c.mor_src[f] == c.mor_tgt[f]
                  and bar[f] != c.identity[c.mor_src[f]])
    bar[victim] = c.identity[c.mor_src[victim]]
    rep = check_restriction_axioms(RestrictionCategory(c, tuple(bar)))
    assert not rep.ok


def test_wrong_endpoints_are_flagged_first(finset_p2):
    c = finset_p2.base
    bar = list(finset_p2.bar)
    victim = next(f for f in c.morphisms() if c.mor_src[f] != c.mor_tgt[f])
    bar[victim] = victim
    rep = check_restriction_axioms(RestrictionCategory(c, tuple(bar)))
    assert rep.tags() == {"BAR-SHAPE"}


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_leq_is_graph_inclusion(data):
    fd = build_finset_p_data(2)
    x = build_finset_p(2)
    c = x.base
    f = data.draw(st.integers(0, c.n_morphisms - 1))
    hom = c.hom(c.mor_src[f], c.mor_tgt[f])
    g = data.draw(st.sampled_from(list(hom)))
    graph_f, graph_g = fd.graphs[f], fd.graphs[g]
    inclusion = all(v is None or v == graph_g[i]
                    for i, v in enumerate(graph_f))
    assert leq(x, f, g) == inclusion


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_compatible_means_agreement_on_overlap(data):
    fd = build_finset_p_data(2)
    x = build_finset_p(2)
    c = x.base
    f = data.draw(st.integers(0, c.n_morphisms - 1))
    hom = c.hom(c.mor_src[f], c.mor_tgt[f])
    g = data.draw(st.sampled_from(list(hom)))
    gf, gg = fd.graphs[f], fd.graphs[g]
    agree = all(u is None or v is None or u == v for u, v in zip(gf, gg))
    assert compatible(x, f, g) == agree


def test_leq_requires_parallel(finset_p2):
    c = finset_p2.base
    f = next(f for f in c.morphisms() if c.mor_src[f] != c.mor_tgt[f])
    with pytest.raises(ValueError):
        leq(finset_p2, f, c.identity[c.mor_src[f]])


def test_totals_are_the_total_functions(finset_p2, finset_p2_data):
    c = finset_p2.base
    for f in c.morphisms():
        assert is_total(finset_p2, f) == \
            (None not in finset_p2_data.graphs[f])


def test_total_subcategory_sizes(finset_p2):
    sub = total_subcategory(finset_p2)
    # total functions between sets of size <= 2: 1+1+1 + 1+1+4 + 1+2+... = 11
    assert sub.cat.n_morphisms == 11


def test_restriction_idempotents_are_partial_identities(finset_p2,
                                                        finset_p2_data):
    idems = restriction_idempotents(finset_p2, 2)
    graphs = {finset_p2_data.graphs[e] for e in idems}
    assert graphs == {(None, None), (0, None), (None, 1), (0, 1)}
