"""Deterministic fixture construction.

Finite sets are initial segments of the naturals: object k is the set
{0, .., k-1}.  A total function is a tuple of values; a partial function is a
tuple over its source with None marking undefined positions.  Morphism ids
are assigned by iterating (src, tgt) pairs lexicographically and function
graphs lexicographically, so identical inputs give identical categories.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .fincat import FinCategory, build_category, subcategory
from .mcat import MCategory
from .restriction import RestrictionCategory


def _total_values(b):
    """The values a total function into {0..b-1} takes."""
    return range(b)


def _partial_values(b):
    """The values a partial function into {0..b-1} takes, None = undefined."""
    return [None] + list(range(b))


class FinSetData(namedtuple("FinSetData", "cat graphs mor_id")):
    """A finite-set fixture with its element-level graphs for oracles:
    graphs[f] is the graph tuple of morphism f, and mor_id maps (src, tgt,
    graph) to the morphism id."""
    __slots__ = ()


def _build_maps_category(n, values, prefix):
    """The maps a -> b, for a, b <= n, are the tuples over values(b) of
    length a.  They are numbered by (a, b) and then in itertools.product
    order over values(b), and the numbers are the keys build_category is
    given, so the map at position i of that product has id first[a][b] + i
    and the key of a composite is read off its digits."""
    objs = range(n + 1)
    vals = [list(values(b)) for b in objs]
    digit = [{v: k for k, v in enumerate(vs)} for vs in vals]
    graphs, ends, first = [], [], []
    for a in objs:
        first.append([])
        for b in objs:
            first[a].append(len(graphs))
            for m in itertools.product(vals[b], repeat=a):
                graphs.append(m)
                ends.append((a, b))
    mor_id = {(a, b, m): f for f, ((a, b), m) in enumerate(zip(ends, graphs))}
    into = [[f for f, (_, b) in enumerate(ends) if b == a] for a in objs]

    def compose(g, fs):
        # graphs compose as partial functions, g after f
        (a, b), graph = ends[g], graphs[g]
        if fs != into[a]:
            return [mor_id[(ends[f][0], b, tuple(
                [None if v is None else graph[v] for v in graphs[f]]))]
                for f in fs]
        # fs lists the maps c -> a by c and then in product order over
        # vals[a]; g∘- sends the digit of each value to the digit of its
        # image in vals[b], so the ids of the composites are sums of digits
        # weighted by powers of |vals[b]|
        e = [digit[b][None if v is None else graph[v]] for v in vals[a]]
        base = len(vals[b])
        out = []
        for c in objs:
            ids = [first[c][b]]
            for i in range(c):
                w = base ** (c - 1 - i)
                ids = [x + k * w for x in ids for k in e]
            out += ids
        return out

    cat, _, _ = build_category(
        objs, range(len(graphs)), ends.__getitem__,
        lambda a: mor_id[(a, a, tuple(range(a)))], compose,
        obj_names=[f"set{a}" for a in objs],
        mor_names=[f"{prefix}{a}->{b}:{m}"
                   for (a, b), m in zip(ends, graphs)])
    return FinSetData(cat, tuple(graphs), mor_id)


def build_finset_data(n) -> FinSetData:
    """FinSet on sets of size <= n (total functions)."""
    return _build_maps_category(n, _total_values, "")


def build_finset_p_data(n) -> FinSetData:
    """FinSet_p on sets of size <= n (partial functions)."""
    return _build_maps_category(n, _partial_values, "p")


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
    """FinSet<=n with the injections as M.  monic_class must be "inj"; it
    stays because perfbench/workloads.py passes it.  finset_iso_<n> takes
    the isos of this category as M (bundles.build_fixture)."""
    if monic_class != "inj":
        raise ValueError(f"unknown monic class {monic_class!r}")
    data = build_finset_data(n)
    return MCategory(data.cat, frozenset(
        f for f in data.cat.morphisms()
        if len(set(data.graphs[f])) == len(data.graphs[f])))


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
