"""Joins of compatible families in finite restriction categories.

One kernel, FinitePoset, decides compatibility and joins of finite sets of
elements.  It reads the order and the compatibility relation once, as one
int bitmask per element (its up-set and its compatible set), grows
compatible families by AND-ing compatibility masks, and memoises each
member set's compatibility and join together, keyed by the set.  It is
built once per hom-set (kept on the RestrictionCategory, see hom_poset) and
once per P(a) of a restriction presheaf (kept on the RestrictionPresheaf,
see rpsh).  The join axioms J1/J2 are checked over every compatible family
(optionally bounded in size for large fixtures), with J2 and POSTCOMP
certified on the generators of the base category (see check_join_axioms).
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
    """A set of members of hom(src, tgt); hom_poset(x, src, tgt).compatible
    decides whether it is compatible."""
    src: int
    tgt: int
    members: frozenset


def _bits(mask):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite order with a compatibility relation, given by leq(s, u)
    and compatible(s, u) and each read once.

    up[i] is the bitmask of the positions j with leq(elements[i],
    elements[j]), and ok[i] that of the positions j with
    compatible(elements[j], elements[i]).  A set is compatible when each
    member lies in the ok mask of every member before it in element order.
    Its join is the lowest-position upper bound whose up-set contains every
    upper bound: the least upper bound when leq is a partial order, and the
    first such element in element order when leq is only a preorder.  One
    memo, keyed by the member set as a frozenset, holds both answers.
    Posets are shared by every caller and must not be mutated.
    """

    def __init__(self, elements, leq, compatible):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up = tuple(sum(1 << j for j, v in enumerate(self.elements)
                            if leq(u, v))
                        for u in self.elements)
        self.ok = tuple(sum(1 << j for j, v in enumerate(self.elements)
                            if compatible(v, u))
                        for u in self.elements)
        self._memo = {}

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

    def _facts(self, members):
        """(compatible, join) of the member set, memoised by the set."""
        key = frozenset(members)
        facts = self._memo.get(key)
        if facts is None:
            mask = self._mask(key)
            ubs = self._upper(mask)
            facts = self._memo[key] = (
                all(not (mask & ~self.ok[i]) >> (i + 1) for i in _bits(mask)),
                next((self.elements[i] for i in _bits(ubs)
                      if self.up[i] & ubs == ubs), None))
        return facts

    def compatible(self, members):
        """True iff the members form a compatible family."""
        return self._facts(members)[0]

    def join(self, members):
        """The least upper bound of the members, or None."""
        return self._facts(members)[1]

    def upper_bounds(self, members):
        """The elements above every member, in element order."""
        return tuple(self.elements[i]
                     for i in _bits(self._upper(self._mask(members))))

    def families(self, max_family=None):
        """Every compatible subset of the elements, the empty one included,
        as tuples ordered by size and then by position, with at most
        max_family members; grown afresh from the ok masks on every call."""
        out = [()]
        # each entry: a family's positions, increasing, and the mask of the
        # later positions compatible with every member
        frontier = [((), (1 << len(self.elements)) - 1)]
        while frontier and (max_family is None or
                            len(frontier[0][0]) < max_family):
            frontier = [(fam + (j,), allowed & self.ok[j] & (-1 << (j + 1)))
                        for fam, allowed in frontier for j in _bits(allowed)]
            out.extend(fam for fam, _ in frontier)
        return [tuple(self.elements[i] for i in fam) for fam in out]


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
        x.posets[key] = FinitePoset(x.base.hom(a, b), partial(leq, x),
                                    partial(compatible, x))
    return x.posets[key]


def upper_bounds(x: RestrictionCategory, fam: CompatibleFamily):
    return hom_poset(x, fam.src, fam.tgt).upper_bounds(fam.members)


def join(x: RestrictionCategory, fam: CompatibleFamily):
    """Least upper bound of the family in the hom order, or None."""
    return hom_poset(x, fam.src, fam.tgt).join(fam.members)


def compatible_subsets(x: RestrictionCategory, a, b, max_family=None):
    """All pairwise-compatible subsets of hom(a, b), the empty one included."""
    return [CompatibleFamily(a, b, frozenset(fam))
            for fam in hom_poset(x, a, b).families(max_family)]


def check_join_axioms(x: RestrictionCategory, max_family=None) -> LawReport:
    """Join existence, J1 and J2 over all compatible families, with at most
    max_family members when a bound is given.

    J2, (⋁S)∘g == ⋁(S∘g), is scanned for g in the generators of the base
    (FinCategory.generators) only, and so is the sanity check POSTCOMP,
    f∘(⋁S) == ⋁(f∘S) (a theorem when J1/J2 hold, flagged with its own
    tag if it alone fails).  When that pass reports anything, or the base
    has no certified generators, every map into a and out of b is scanned
    instead, so the entries and their order do not depend on the
    generators.

    A clean pass over the generators is a proof for every map, by
    induction on the length of a word in the generators, for all families
    at once (the join lemmas of Guo, *Products, joins, meets, and ranges in
    restriction categories*, PhD thesis, Calgary, 2012).  Composition is
    associative, as the generators certify.  J2 holds for an identity.
    For g = g1∘w with g1 a generator, (⋁S)∘g1∘w = ⋁(S∘g1)∘w = ⋁(S∘g1∘w):
    the first step is J2 for g1 on S, and the second is J2 for the shorter
    word w on S∘g1, which holds by induction: S∘g1 is compatible and has a
    join, as the pass checked at g1, and has no more members than S, so it
    is one of the families the pass ran over.  POSTCOMP is the mirror
    image, for f = w∘f1.
    """
    c = x.base
    # an empty hom-set has no compatible families to check; requiring an
    # empty join there would wrongly fail every collage, whose hom-sets out
    # of the extra point are empty
    fams = [(a, b, compatible_subsets(x, a, b, max_family))
            for a in c.objects for b in c.objects if c.hom(a, b)]
    gens = c.generators()
    if gens is not None:
        report = _join_scan(
            x, fams, [[g for g in c.into(a) if g in gens] for a in c.objects],
            [[f for f in c.out_of(b) if f in gens] for b in c.objects])
        if report.ok:
            return report
    return _join_scan(x, fams, [c.into(a) for a in c.objects],
                      [c.out_of(b) for b in c.objects])


def _join_scan(x: RestrictionCategory, fams, into, out_of) -> LawReport:
    """JOIN-MISSING and J1 on every family of fams, a list of (a, b,
    families of hom(a, b)), J2 for each g in into[a] and POSTCOMP for each
    f in out_of[b]."""
    c = x.base
    report = LawReport("join")
    for a, b, families in fams:
        for fam in families:
            # empty joins (restriction zeroes) are excluded: demanding them
            # fails every collage, where 1 on the extra point would have to
            # be a zero
            if not fam.members:
                continue
            j = join(x, fam)
            key = tuple(sorted(fam.members))
            if j is None:
                report.add("JOIN-MISSING", (a, b) + key,
                           "compatible family without a join")
                continue
            # J1: bar(join S) == join of bars
            jbar = join(x, CompatibleFamily(
                a, a, frozenset(x.bar[s] for s in fam.members)))
            if jbar is None or x.bar[j] != jbar:
                report.add("J1", (a, b) + key, "bar(⋁S) != ⋁ s̄")
            # J2: (join S)∘g == join(s∘g)
            for g in into[a]:
                famg = CompatibleFamily(c.mor_src[g], b, frozenset(
                    c.comp[(s, g)] for s in fam.members))
                if not hom_poset(x, famg.src, b).compatible(famg.members):
                    report.add("J2", (g,) + key,
                               "precomposed family not compatible")
                    continue
                jg = join(x, famg)
                if jg is None or c.comp[(j, g)] != jg:
                    report.add("J2", (g,) + key, "(⋁S)∘g != ⋁(s∘g)")
            # sanity: post-composition distributes (a theorem given J1/J2)
            for f in out_of[b]:
                famf = CompatibleFamily(a, c.mor_tgt[f], frozenset(
                    c.comp[(f, s)] for s in fam.members))
                if not hom_poset(x, a, famf.tgt).compatible(famf.members):
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
                image = CompatibleFamily(
                    fun.obj_map[a], fun.obj_map[b],
                    frozenset(fun.mor_map[s] for s in fam.members))
                if join(y, image) != fun.mor_map[j]:
                    return False
    return True
