"""Joins of compatible families in finite restriction categories.

One kernel, FinitePoset, holds a finite order with every element's up-set
as an int bitmask: upper bounds are an AND of up-sets and joins are
memoised by the members' mask.  It is built once per hom-set (kept on the
RestrictionCategory, see hom_poset) and once per P(a) of a restriction
presheaf (kept on the RestrictionPresheaf, see rpsh).  Compatible families
are grown one member at a time by AND-ing compatibility bitmasks, in one
routine that serves both.  No construction is attempted here.  The join
axioms J1/J2 are checked over every compatible family (optionally bounded
in size for large fixtures).
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


def _bits(mask):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite order on elements, given by leq(s, u) and read once.

    up[i] is the bitmask of the positions j with leq(elements[i],
    elements[j]).  The join of a set of members is the lowest-position upper
    bound whose up-set contains every upper bound: the least upper bound
    when leq is a partial order, and the first such element in element order
    when leq is only a preorder.  Joins are memoised by the members' mask.
    Posets are shared by every caller and must not be mutated.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up = tuple(sum(1 << j for j, v in enumerate(self.elements)
                            if leq(u, v))
                        for u in self.elements)
        self._joins = {}

    def _mask(self, members):
        """The bitmask of the members' positions; ValueError for a member
        that is not an element."""
        out = 0
        for s in members:
            i = self.index.get(s)
            if i is None:
                raise ValueError(f"{s!r} is not an element of the poset")
            out |= 1 << i
        return out

    def _upper(self, mask):
        ubs = (1 << len(self.elements)) - 1
        for i in _bits(mask):
            ubs &= self.up[i]
        return ubs

    def upper_bounds(self, members):
        """The elements above every member, in element order."""
        return tuple(self.elements[i]
                     for i in _bits(self._upper(self._mask(members))))

    def join(self, members):
        """The least upper bound of the members, or None."""
        key = self._mask(members)
        if key not in self._joins:
            ubs = self._upper(key)
            self._joins[key] = next(
                (self.elements[i] for i in _bits(ubs)
                 if self.up[i] & ubs == ubs), None)
        return self._joins[key]


def compatible_families(elements, compatible, max_family=None):
    """Every pairwise-compatible subset of elements, the empty one included,
    as tuples ordered by size and then by position in elements."""
    elements = tuple(elements)
    n = len(elements)
    # ok[i]: the positions of the elements compatible with elements[i]
    ok = [sum(1 << j for j, f in enumerate(elements) if compatible(f, e))
          for e in elements]
    out = [()]
    # each entry: a family's positions, increasing, and the mask of the
    # later positions compatible with every member
    frontier = [((), (1 << n) - 1)]
    while frontier and (max_family is None or
                        len(frontier[0][0]) < max_family):
        frontier = [(fam + (j,), allowed & ok[j] & (-1 << (j + 1)))
                    for fam, allowed in frontier for j in _bits(allowed)]
        out.extend(fam for fam, _ in frontier)
    return [tuple(elements[i] for i in fam) for fam in out]


def families(elements, max_family=None):
    """Every subset of elements in combinations order, smallest first,
    up to max_family members."""
    top = len(elements) if max_family is None else min(max_family,
                                                       len(elements))
    for r in range(top + 1):
        yield from itertools.combinations(elements, r)


def hom_poset(x: RestrictionCategory, a, b) -> FinitePoset:
    """The hom order on hom(a, b), built on first use and kept in
    x.posets."""
    key = (a, b)
    if key not in x.posets:
        x.posets[key] = FinitePoset(x.base.hom(a, b), partial(leq, x))
    return x.posets[key]


def upper_bounds(x: RestrictionCategory, fam: CompatibleFamily):
    return hom_poset(x, fam.src, fam.tgt).upper_bounds(fam.members)


def join(x: RestrictionCategory, fam: CompatibleFamily):
    """Least upper bound of the family in the hom order, or None."""
    return hom_poset(x, fam.src, fam.tgt).join(fam.members)


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
                for f in c.out_of(b):
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
