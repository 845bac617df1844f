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

from .fincat import FinCategory, build_category, subcategory
from .mcat import MCategory
from .restriction import RestrictionCategory


def _total_maps(a, b):
    """All functions {0..a-1} -> {0..b-1} as value tuples."""
    return [tuple(m) for m in itertools.product(range(b), repeat=a)]


def _partial_maps(a, b):
    """All partial functions, None = undefined."""
    return [tuple(m) for m in itertools.product([None] + list(range(b)),
                                                repeat=a)]


def _compose_row(g, fs):
    """The key of g∘f for each key f in fs: graphs compose as partial
    functions, g after f."""
    b, graph = g[1], g[2]
    return [(a, b, tuple([None if v is None else graph[v] for v in m]))
            for a, _, m in fs]


@dataclass(frozen=True)
class FinSetData:
    """A finite-set fixture with its element-level graphs for oracles."""
    cat: FinCategory
    graphs: tuple          # morphism id -> graph tuple
    mor_id: dict           # (src, tgt, graph) -> morphism id


def _build_maps_category(n, maps_of, prefix):
    keys = [(a, b, m) for a in range(n + 1) for b in range(n + 1)
            for m in maps_of(a, b)]
    cat, _, mor_id = build_category(
        range(n + 1), keys, lambda f: f[:2],
        lambda a: (a, a, tuple(range(a))),
        _compose_row,
        obj_names=[f"set{a}" for a in range(n + 1)],
        mor_names=[f"{prefix}{a}->{b}:{m}" for a, b, m in keys])
    return FinSetData(cat, tuple(m for _, _, m in keys), mor_id)


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


def subsets_category(k) -> RestrictionCategory:
    """One object; morphisms are the subsets of {0..k-1} with composition by
    intersection and bar(f) = f.  A join restriction category (joins are
    unions)."""
    subsets = [frozenset(s) for r in range(k + 1)
               for s in itertools.combinations(range(k), r)]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    cat, _, _ = build_category(
        ["*"], subsets, lambda s: ("*", "*"), lambda _: frozenset(range(k)),
        lambda g, fs: [g & f for f in fs], obj_names=["*"],
        mor_names=[f"{{{','.join(map(str, sorted(s)))}}}" for s in subsets])
    return RestrictionCategory(cat, tuple(range(len(subsets))))
