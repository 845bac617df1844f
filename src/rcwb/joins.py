"""Joins of compatible families in finite restriction categories.

One kernel, FinitePoset, decides compatibility and joins of finite sets of
elements.  It reads the order and the compatibility relation once, as one
int bitmask per element (its up-set and its compatible set), grows
compatible families by AND-ing compatibility masks, and memoises each
member set's compatibility and join together, keyed by the set.  It is
built once per hom-set (kept on the RestrictionCategory, see hom_poset) and
once per P(a) of a restriction presheaf (kept on the RestrictionPresheaf,
see rpsh).  One scan checks the join laws over every compatible family
(optionally bounded in size for large fixtures), in the hom-sets for
check_join_axioms and in the element sets for rpsh.check_jrp_axioms, with
the laws at a map read on the generators of the base category first (see
fincat.certified).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .fincat import certified
from .reports import LawReport, Violation
from .restriction import RestrictionCategory, compatible, leq


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


def join(x: RestrictionCategory, fam: CompatibleFamily):
    """Least upper bound of the family in the hom order, or None."""
    return hom_poset(x, fam.src, fam.tgt).join(fam.members)


def compatible_subsets(x: RestrictionCategory, a, b, max_family=None):
    """All pairwise-compatible subsets of hom(a, b), the empty one included."""
    return [CompatibleFamily(a, b, frozenset(fam))
            for fam in hom_poset(x, a, b).families(max_family)]


# -- the join laws ------------------------------------------------------------

def scan(x: RestrictionCategory, fibres, text):
    """The Violations of the join laws on fibres, read once and in order.

    A fibre is (ids, a, poset, families, bar, maps): compatible sets of the
    poset's elements, bar (or None) from the elements to hom(a, a) of x, and
    maps (role, before, after, image, target), each a map w given by its
    image dict into the poset target.  For each non-empty family S, text
    gives the (tag, detail) of each finding, with ids ids + S or, at a map,
    before + S + after:
    - "missing" when S has no join (no entry if None), and no more on S;
    - "bar" when bar[⋁S] is not the hom-join of the bar[s];
    - at each map, (role, "compatible") when w·S is not compatible, or else
      (role, "join") when w·⋁S != ⋁(w·S).

    Callers read the maps through fincat.certified, whose induction step
    is this (the join lemmas of Guo, *Products, joins, meets, and ranges in
    restriction categories*, PhD thesis, Calgary, 2012).  A map acts by a
    composite, s ↦ s∘g, f∘s or P(g)(s), functorially: by associativity,
    which the generators certify, or as P is a presheaf (check_presheaf,
    the gate of check_rp_axioms).  For g = g1∘w with g1 a generator,
    (⋁S)∘g1∘w = ⋁(S∘g1)∘w = ⋁(S∘g1∘w): the law at g1 on S, then at w on
    S∘g1, which is compatible and has a join (checked at g1) and no more
    members than S, so it is a family of the pass.  P(g) and f = w∘f1 go
    the same way.
    """
    for ids, a, poset, fams, bar, maps in fibres:
        for fam in fams:
            # empty joins (restriction zeroes) are excluded: demanding them
            # fails every collage, where 1 on the extra point would have to
            # be a zero
            if not fam:
                continue
            j = poset.join(fam)
            if j is None:
                if text["missing"]:
                    tag, detail = text["missing"]
                    yield Violation(tag, ids + fam, detail)
                continue
            if bar is not None:
                jbar = join(x, CompatibleFamily(a, a, frozenset(
                    bar[s] for s in fam)))
                if jbar is None or bar[j] != jbar:
                    tag, detail = text["bar"]
                    yield Violation(tag, ids + fam, detail)
            for role, before, after, image, target in maps:
                ok, jw = target._facts([image[s] for s in fam])
                if not ok or jw is None or image[j] != jw:
                    tag, detail = text[role, "join" if ok else "compatible"]
                    yield Violation(tag, before + fam + after, detail)


# (tag, detail) of each finding of scan on a hom-set
JOIN_TEXT = {
    "missing": ("JOIN-MISSING", "compatible family without a join"),
    "bar": ("J1", "bar(⋁S) != ⋁ s̄"),
    ("pre", "compatible"): ("J2", "precomposed family not compatible"),
    ("pre", "join"): ("J2", "(⋁S)∘g != ⋁(s∘g)"),
    ("post", "compatible"): ("POSTCOMP",
                             "postcomposed family not compatible"),
    ("post", "join"): ("POSTCOMP", "f∘(⋁S) != ⋁(f∘s): implementation bug"),
}


def check_join_axioms(x: RestrictionCategory, max_family=None) -> LawReport:
    """Join existence, J1, J2 and the sanity check POSTCOMP (a theorem
    when J1/J2 hold, flagged with its own tag if it alone fails) over all
    compatible families, with at most max_family members when a bound is
    given; J2 and POSTCOMP are read on the generators first
    (fincat.certified)."""
    c = x.base
    # an empty hom-set has no compatible families to check; requiring an
    # empty join there would wrongly fail every collage, whose hom-sets out
    # of the extra point are empty
    homs = [(a, b, hom_poset(x, a, b).families(max_family))
            for a in c.objects for b in c.objects if c.hom(a, b)]

    rows, pos = c.rows, c.pos

    def fibres(pick):
        for a, b, fams in homs:
            hom = c.hom(a, b)
            yield ((a, b), a, hom_poset(x, a, b), fams, x.bar,
                   [("pre", (g,), (), {s: rows[s][pos[g]] for s in hom},
                     hom_poset(x, c.mor_src[g], b)) for g in pick(c.into(a))]
                   + [("post", (f,), (),
                       {s: rows[f][pos[s]] for s in hom},
                       hom_poset(x, a, c.mor_tgt[f]))
                      for f in pick(c.out_of(b))])

    return LawReport("join", certified(c, lambda pick: list(
        scan(x, fibres(pick), JOIN_TEXT))))
