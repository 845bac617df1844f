"""Joins of compatible families in finite restriction categories.

Joins are located by scanning a finite poset for a least upper bound, and
compatible families are grown one member at a time; the same two routines
serve hom-sets here and the elements of a restriction presheaf in rpsh.  No
construction is attempted here.  The join axioms J1/J2 are checked over
every compatible family (optionally bounded in size for large fixtures).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .fincat import Functor
from .reports import LawReport
from .restriction import (RestrictionCategory, compatible,
                          is_restriction_functor, leq)


@dataclass(frozen=True)
class CompatibleFamily:
    src: int
    tgt: int
    members: frozenset

    @staticmethod
    def of(x: RestrictionCategory, src, tgt, members) -> "CompatibleFamily":
        members = frozenset(members)
        for f in members:
            if x.base.mor_src[f] != src or x.base.mor_tgt[f] != tgt:
                raise ValueError(f"morphism {f} not in hom({src},{tgt})")
        for f, g in itertools.combinations(sorted(members), 2):
            if not compatible(x, f, g):
                raise ValueError(f"family is not compatible: {f} vs {g}")
        return CompatibleFamily(src, tgt, members)


def least_upper_bound(elements, leq, members):
    """The least of the elements lying above every member in the order
    leq(s, u), or None.  The one scan behind hom-set and element joins."""
    ubs = [u for u in elements if all(leq(s, u) for s in members)]
    for u in ubs:
        if all(leq(u, v) for v in ubs):
            return u
    return None


def compatible_families(elements, compatible, max_family=None):
    """Every pairwise-compatible subset of elements, the empty one included,
    as tuples ordered by size and then by position in elements."""
    elements = tuple(elements)
    n = len(elements)
    ok = [[compatible(e, f) for f in elements] for e in elements]
    out = [()]
    frontier = [()]       # positions, kept increasing
    while frontier and (max_family is None or len(frontier[0]) < max_family):
        frontier = [fam + (j,) for fam in frontier
                    for j in range(fam[-1] + 1 if fam else 0, n)
                    if all(ok[j][i] for i in fam)]
        out.extend(frontier)
    return [tuple(elements[i] for i in fam) for fam in out]


def families(elements, max_family=None):
    """Every subset of elements in combinations order, smallest first,
    up to max_family members."""
    top = len(elements) if max_family is None else min(max_family,
                                                       len(elements))
    for r in range(top + 1):
        yield from itertools.combinations(elements, r)


def upper_bounds(x: RestrictionCategory, fam: CompatibleFamily):
    hom = x.base.hom(fam.src, fam.tgt)
    return tuple(u for u in hom if all(leq(x, s, u) for s in fam.members))


def join(x: RestrictionCategory, fam: CompatibleFamily):
    """Least upper bound of the family in the hom order, or None."""
    return least_upper_bound(x.base.hom(fam.src, fam.tgt), partial(leq, x),
                             fam.members)


def compatible_subsets(x: RestrictionCategory, a, b, max_family=None):
    """All pairwise-compatible subsets of hom(a, b), the empty one included."""
    return [CompatibleFamily(a, b, frozenset(fam)) for fam in
            compatible_families(x.base.hom(a, b), partial(compatible, x),
                                max_family)]


def check_join_axioms(x: RestrictionCategory, max_family=None) -> LawReport:
    """Exhaustive join existence and J1/J2 over all compatible families.

    The post-composition identity (a theorem when J1/J2 hold) is checked as
    a sanity assertion and flagged with its own tag if it alone fails.
    """
    c = x.base
    report = LawReport("join")
    for a in c.objects:
        for b in c.objects:
            # an empty hom-set has no compatible families to check; requiring
            # an empty join there would wrongly fail every collage, whose
            # hom-sets out of the extra point are empty
            if not c.hom(a, b):
                continue
            for fam in compatible_subsets(x, a, b, max_family):
                # empty joins (restriction zeroes) are excluded: demanding
                # them fails every collage, where 1 on the extra point would
                # have to be a zero
                if not fam.members:
                    continue
                j = join(x, fam)
                key = tuple(sorted(fam.members))
                if j is None:
                    report.add("JOIN-MISSING", (a, b) + key,
                               "compatible family without a join")
                    continue
                # J1: bar(join S) == join of bars
                bars = CompatibleFamily.of(x, a, a,
                                           [x.bar[s] for s in fam.members])
                jbar = join(x, bars)
                if jbar is None or x.bar[j] != jbar:
                    report.add("J1", (a, b) + key, "bar(⋁S) != ⋁ s̄")
                # J2: (join S)∘g == join(s∘g)
                for g in c.into(a):
                    sg = [c.comp[(s, g)] for s in fam.members]
                    try:
                        famg = CompatibleFamily.of(x, c.mor_src[g], b, sg)
                    except ValueError:
                        report.add("J2", (g,) + key,
                                   "precomposed family not compatible")
                        continue
                    jg = join(x, famg)
                    if jg is None or c.comp[(j, g)] != jg:
                        report.add("J2", (g,) + key, "(⋁S)∘g != ⋁(s∘g)")
                # sanity: post-composition distributes (a theorem given J1/J2)
                for f in c.morphisms():
                    if c.mor_src[f] != b:
                        continue
                    fs = [c.comp[(f, s)] for s in fam.members]
                    try:
                        famf = CompatibleFamily.of(x, a, c.mor_tgt[f], fs)
                    except ValueError:
                        report.add("POSTCOMP", (f,) + key,
                                   "postcomposed family not compatible")
                        continue
                    jf = join(x, famf)
                    if jf is None or c.comp[(f, j)] != jf:
                        report.add("POSTCOMP", (f,) + key,
                                   "f∘(⋁S) != ⋁(f∘s): implementation bug")
    return report


class NotRestrictionFunctorError(ValueError):
    """The given functor is not a (bar-preserving) restriction functor."""


def is_join_restriction_functor(fun: Functor, x: RestrictionCategory,
                                y: RestrictionCategory,
                                max_family=None) -> bool:
    """True iff fun maps the join of every compatible family to the join
    of the image family."""
    if not fun.check():
        raise NotRestrictionFunctorError("not a functor")
    if not is_restriction_functor(fun, x, y):
        raise NotRestrictionFunctorError("functor does not preserve bar")
    c = x.base
    for a in c.objects:
        for b in c.objects:
            for fam in compatible_subsets(x, a, b, max_family):
                if not fam.members:
                    continue
                j = join(x, fam)
                if j is None:
                    continue
                image = CompatibleFamily.of(
                    y, fun.obj_map[a], fun.obj_map[b],
                    [fun.mor_map[s] for s in fam.members])
                if join(y, image) != fun.mor_map[j]:
                    return False
    return True
