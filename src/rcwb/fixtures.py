"""Deterministic fixture construction.

Finite sets are initial segments of the naturals: object k is the set
{0, .., k-1}.  A total function is a tuple of values; a partial function is a
tuple over its source with None marking undefined positions.  Morphism ids
are assigned by iterating (src, tgt) pairs lexicographically and function
graphs lexicographically, so identical inputs give identical categories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .fincat import FinCategory, Functor, subcategory
from .joins import FinitePoset
from .mcat import MCategory
from .restriction import (RestrictionCategory, compatible, leq,
                          restriction_idempotents)


def _total_maps(a, b):
    """All functions {0..a-1} -> {0..b-1} as value tuples."""
    return [tuple(m) for m in itertools.product(range(b), repeat=a)]


def _partial_maps(a, b):
    """All partial functions, None = undefined."""
    return [tuple(m) for m in itertools.product([None] + list(range(b)),
                                                repeat=a)]


def _compose_graph(g, f):
    """Partial-function composition of graphs (g after f)."""
    return tuple(None if v is None else g[v] for v in f)


@dataclass(frozen=True)
class FinSetData:
    """A finite-set fixture with its element-level graphs for oracles."""
    cat: FinCategory
    graphs: tuple          # morphism id -> graph tuple
    mor_id: dict           # (src, tgt, graph) -> morphism id


def _build_maps_category(n, maps_of, prefix):
    graphs = []
    src, tgt = [], []
    names = []
    mor_id = {}
    for a in range(n + 1):
        for b in range(n + 1):
            for m in maps_of(a, b):
                mor_id[(a, b, m)] = len(graphs)
                names.append(f"{prefix}{a}->{b}:{m}")
                graphs.append(m)
                src.append(a)
                tgt.append(b)
    identity = [mor_id[(a, a, tuple(range(a)))] for a in range(n + 1)]
    comp = {}
    for g, gg in enumerate(graphs):
        for f, fg in enumerate(graphs):
            if tgt[f] == src[g]:
                comp[(g, f)] = mor_id[(src[f], tgt[g], _compose_graph(gg, fg))]
    cat = FinCategory(n + 1, src, tgt, identity, comp,
                      obj_names=[f"set{a}" for a in range(n + 1)],
                      mor_names=names)
    return FinSetData(cat, tuple(graphs), mor_id)


def build_finset_data(n) -> FinSetData:
    """FinSet on sets of size <= n (total functions)."""
    return _build_maps_category(n, _total_maps, "")


def build_finset_p_data(n) -> FinSetData:
    """FinSet_p on sets of size <= n (partial functions)."""
    return _build_maps_category(n, _partial_maps, "p")


def build_finset(n) -> FinCategory:
    return build_finset_data(n).cat


def build_finset_p(n) -> RestrictionCategory:
    """Sets of size <= n and partial functions; bar is the partial identity
    on the domain of definition.  Joins (unions of compatible graphs) exist
    and are located by the generic hom-scan."""
    data = build_finset_p_data(n)
    cat = data.cat
    bar = []
    for f in cat.morphisms():
        a = cat.mor_src[f]
        graph = data.graphs[f]
        pid = tuple(i if graph[i] is not None else None for i in range(a))
        bar.append(data.mor_id[(a, a, pid)])
    return RestrictionCategory(cat, tuple(bar))


def build_finset_mcat(n, monic_class="inj") -> MCategory:
    """FinSet<=n with injections or isomorphisms as the monic class."""
    data = build_finset_data(n)
    cat = data.cat
    monics = set()
    for f in cat.morphisms():
        graph = data.graphs[f]
        injective = len(set(graph)) == len(graph)
        if monic_class == "inj" and injective:
            monics.add(f)
        elif monic_class == "iso" and injective and \
                cat.mor_src[f] == cat.mor_tgt[f]:
            monics.add(f)
    if monic_class not in ("inj", "iso"):
        raise ValueError(f"unknown monic class {monic_class!r}")
    return MCategory(cat, frozenset(monics))


def build_nojoin_fixture() -> RestrictionCategory:
    """A restriction category with a compatible pair that has no upper bound.

    Sub-restriction-category of FinSet_p<=2 on the 1-set and the 2-set:
    partial identities on both, every map 2 -> 1 except the total one, and
    only the empty map 1 -> 2.  The maps defined on {0} and on {1} agree on
    the (empty) overlap but their would-be join (the total map) is missing.
    """
    data = build_finset_p_data(2)
    rcat = build_finset_p(2)
    keep = []
    for f in rcat.base.morphisms():
        a, b = rcat.base.mor_src[f], rcat.base.mor_tgt[f]
        graph = data.graphs[f]
        if a in (1, 2) and b in (1, 2):
            if a == b and graph == tuple(
                    i if graph[i] is not None else None for i in range(a)):
                keep.append(f)            # partial identities
            elif (a, b) == (2, 1) and None in graph:
                keep.append(f)            # non-total maps into the point
            elif (a, b) == (1, 2) and graph == (None,):
                keep.append(f)            # only the empty map back
    sub = subcategory(rcat.base, (1, 2), keep)
    bar = tuple(sub.mor_new[rcat.bar[old]] for old in sub.mor_old)
    return RestrictionCategory(sub.cat, bar)


def nojoin_certified_pair(x: RestrictionCategory):
    """The compatible, joinless pair in the no-join fixture: the two maps
    from the 2-set to the point defined on exactly one element.

    After reindexing, object 0 is the 1-set and object 1 is the 2-set."""
    c = x.base
    a, b = 1, 0
    least = _least_idempotent(x, a)
    singles = [f for f in c.hom(a, b)
               if x.bar[f] != c.identity[a] and x.bar[f] != least]
    return tuple(sorted(singles))


def _least_idempotent(x, a):
    # the least upper bound of the empty family is the least element
    return FinitePoset(restriction_idempotents(x, a), partial(leq, x),
                       partial(compatible, x)).join(())


def subsets_category(k) -> RestrictionCategory:
    """One object; morphisms are the subsets of {0..k-1} with composition by
    intersection and bar(f) = f.  A join restriction category (joins are
    unions)."""
    subsets = [frozenset(s) for r in range(k + 1)
               for s in itertools.combinations(range(k), r)]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}
    n = len(subsets)
    comp = {(g, f): index[subsets[g] & subsets[f]]
            for g in range(n) for f in range(n)}
    cat = FinCategory(1, [0] * n, [0] * n, [index[frozenset(range(k))]], comp,
                      obj_names=["*"],
                      mor_names=[f"{{{','.join(map(str, sorted(s)))}}}"
                                 for s in subsets])
    return RestrictionCategory(cat, tuple(range(n)))


def join_collapsing_functor():
    """A restriction functor between join restriction categories that fails
    to preserve joins: subsets of a 2-set into subsets of a 3-set, sending
    the top to the top but singletons to themselves."""
    x = subsets_category(2)
    y = subsets_category(3)

    def as_set(c, f):
        name = c.base.mor_names[f]
        inner = name.strip("{}")
        return frozenset(int(v) for v in inner.split(",") if v != "")

    y_index = {as_set(y, f): f for f in y.base.morphisms()}
    mor_map = []
    for f in x.base.morphisms():
        s = as_set(x, f)
        mor_map.append(y_index[frozenset(range(3))] if s == frozenset(range(2))
                       else y_index[s])
    fun = Functor(x.base, y.base, (0,), tuple(mor_map))
    return fun, x, y
