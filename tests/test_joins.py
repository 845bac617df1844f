import pytest

from rcwb.fixtures import (build_finset_p, build_finset_p_data,
                           join_collapsing_functor, nojoin_certified_pair,
                           subsets_category)
from rcwb.joins import (CompatibleFamily, NotRestrictionFunctorError,
                        check_join_axioms, compatible_subsets, hom_poset,
                        is_join_restriction_functor, join, upper_bounds)
from rcwb.restriction import check_restriction_axioms


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
    from rcwb.fincat import identity_functor
    fun = identity_functor(finset_p2.base)
    assert is_join_restriction_functor(fun, finset_p2, finset_p2,
                                       max_family=2)


def test_non_restriction_functor_rejected():
    fun, x, y = join_collapsing_functor()
    bad = type(fun)(fun.source, fun.target, fun.obj_map,
                    tuple(0 for _ in fun.mor_map))
    with pytest.raises(NotRestrictionFunctorError):
        is_join_restriction_functor(bad, x, y)
