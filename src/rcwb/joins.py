"""Joins of compatible families in finite restriction categories.

One kernel, FinitePoset, decides compatibility and joins of finite sets of
elements.  It holds the order and the compatibility relation as one int
bitmask per element (its up-set and its compatible set), grows compatible
families by AND-ing compatibility masks, and memoises each member set's
compatibility and join together, keyed by the member set's position mask.
The masks come from the bars (bar_masks): s ≤ t iff s == t·s̄ and s ⌣ t iff
s·t̄ == t·s̄ read only the action of the distinct bars, so a poset of n
elements with k distinct bars costs n·k actions.  A poset is built once per
hom-set (kept on the RestrictionCategory, see hom_poset) and once per P(a)
of a restriction presheaf (kept on the RestrictionPresheaf, see rpsh).  One
scan checks the join laws over every compatible family (optionally bounded
in size for large fixtures), in the hom-sets for check_join_axioms and in
the element sets for rpsh.check_jrp_axioms, with the laws at a map read on
the generators of the base category first (see fincat.certified).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import certified
from .reports import LawReport, Violation
from .restriction import RestrictionCategory


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
    """A finite order with a compatibility relation, given as bitmasks.

    up[i] is the bitmask of the positions j with elements[i] ≤ elements[j],
    and ok[i] that of the positions j with elements[j] compatible with
    elements[i].  A set is compatible when each member lies in the ok mask
    of every member before it in element order.  Its join is the
    lowest-position upper bound whose up-set contains every upper bound: the
    least upper bound when the order is a partial order, and the first such
    element in element order when it is only a preorder.  One memo, keyed
    by the position mask of the member set, holds both answers.  Posets are
    shared by every caller and must not be mutated.
    """

    def __init__(self, elements, up, ok):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up = tuple(up)
        self.ok = tuple(ok)
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

    def _facts(self, mask):
        """(compatible, position of the join or None) of the member set
        with position mask mask, memoised by the mask."""
        facts = self._memo.get(mask)
        if facts is None:
            ubs = self._upper(mask)
            facts = self._memo[mask] = (
                all(not (mask & ~self.ok[i]) >> (i + 1) for i in _bits(mask)),
                next((i for i in _bits(ubs) if self.up[i] & ubs == ubs),
                     None))
        return facts

    def known(self, mask):
        """True iff the member set with position mask mask is memoised."""
        return mask in self._memo

    def compatible(self, members):
        """True iff the members form a compatible family."""
        return self._facts(self._mask(members))[0]

    def join(self, members):
        """The least upper bound of the members, or None."""
        j = self._facts(self._mask(members))[1]
        return None if j is None else self.elements[j]

    def upper_bounds(self, members):
        """The elements above every member, in element order."""
        return tuple(self.elements[i]
                     for i in _bits(self._upper(self._mask(members))))

    def position_families(self, max_family=None):
        """Every compatible set of positions, the empty one included, as
        increasing tuples ordered by size and then by position, with at
        most max_family members; grown afresh from the ok masks on every
        call."""
        out = [()]
        # each entry: a family's positions, increasing, and the mask of the
        # later positions compatible with every member
        frontier = [((), (1 << len(self.elements)) - 1)]
        while frontier and (max_family is None or
                            len(frontier[0][0]) < max_family):
            frontier = [(fam + (j,), allowed & self.ok[j] & (-1 << (j + 1)))
                        for fam, allowed in frontier for j in _bits(allowed)]
            out.extend(fam for fam, _ in frontier)
        return out

    def families(self, max_family=None):
        """The compatible subsets of the elements, as position_families
        gives them, each as a tuple of elements."""
        return [tuple(self.elements[i] for i in fam)
                for fam in self.position_families(max_family)]


def bar_masks(elements, bars, act):
    """The up and ok masks of FinitePoset for the elements under the order
    s ≤ t iff s == t·s̄ and the compatibility s ⌣ t iff s·t̄ == t·s̄.

    bars[i] is the bar of elements[i], and act(d) the list of t·d for each
    element t, in element order.  Both relations read t·d only for bars d,
    so the elements are grouped by their bar: for each distinct bar d, the
    positions t are indexed by t·d, and then the up-set of an element s
    with bar d is the positions t with t·d == s, and its compatible set the
    positions t, with bar e say, such that t·d == s·e.  That is n·k
    actions and n·k lookups for n elements with k distinct bars, where
    reading both relations pair by pair costs 2n² actions.
    """
    with_bar = {}       # bar -> mask of the positions with that bar
    for t, d in enumerate(bars):
        with_bar[d] = with_bar.get(d, 0) | 1 << t
    images = {d: act(d) for d in with_bar}
    up = [0] * len(bars)
    ok = [0] * len(bars)
    for d, row in images.items():
        by_image = {}       # t·d -> mask of the positions t
        for t, y in enumerate(row):
            by_image[y] = by_image.get(y, 0) | 1 << t
        for s in _bits(with_bar[d]):
            up[s] = by_image.get(elements[s], 0)
            ok[s] = sum(by_image.get(images[e][s], 0) & mask
                        for e, mask in with_bar.items())
    return up, ok


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
        c = x.base
        hom, rows = c.hom(a, b), c.rows

        def act(d):
            pd = c.pos[d]
            return [rows[t][pd] for t in hom]

        x.posets[key] = FinitePoset(
            hom, *bar_masks(hom, [x.bar[s] for s in hom], act))
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
    poset's elements, each as increasing positions (see
    FinitePoset.position_families), bar (or None) from the elements to
    hom(a, a) of x, and maps (role, before, after, image, target), each a
    map w given by its image of each element in the poset target.  For
    each non-empty family S, text gives the (tag, detail) of each finding,
    with ids ids + S or, at a map, before + S + after, S as elements:
    - "missing" when S has no join (no entry if None), and no more on S;
    - "bar" when bar[⋁S] is not the hom-join of the bar[s];
    - at each map, (role, "compatible") when w·S is not compatible, or else
      (role, "join") when w·⋁S != ⋁(w·S).

    The scan runs on positions: each map's image, and the bars, are read
    once per element as a position in the target poset, and every family,
    image family and bar family is looked up in its poset's memo by its
    position mask; a bar family that misses the memo is joined through
    join, from its members.  Element tuples are otherwise built only for
    the ids of findings.

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

    The "compatible" findings are a sanity check of the kernel: in a
    restriction category, pre- and postcomposition keep a family
    compatible.  If s∘t̄ == t∘s̄, then (s∘g)∘bar(t∘g) = s∘t̄∘g =
    t∘s̄∘g = (t∘g)∘bar(s∘g), as g∘bar(t∘g) = t̄∘g (R3, R4); and
    (f∘s)∘bar(f∘t) = f∘t∘s̄ = f∘s∘t̄ = (f∘t)∘bar(f∘s), as
    bar(f∘t) = bar(f∘t)∘t̄ (R1, R3) commutes with s̄ (R2).  The element
    action of a restriction presheaf keeps it the same way (RP2, RP3).  The
    image family's compatibility comes from the same memo entry as its
    join, so the check costs nothing extra.
    """
    for ids, a, poset, fams, bar, maps in fibres:
        elements, facts = poset.elements, poset._facts
        if bar is not None:
            bars = hom_poset(x, a, a)
            bar_pos = [bars.index[bar[s]] for s in elements]
        checks = [(role, before, after, target._facts,
                   [target.index[image[s]] for s in elements])
                  for role, before, after, image, target in maps]
        for fam in fams:
            # empty joins (restriction zeroes) are excluded: demanding them
            # fails every collage, where 1 on the extra point would have to
            # be a zero
            if not fam:
                continue
            mask = 0
            for i in fam:
                mask |= 1 << i
            j = facts(mask)[1]
            if j is None:
                if text["missing"]:
                    tag, detail = text["missing"]
                    yield Violation(tag, ids + _at(elements, fam), detail)
                continue
            if bar is not None:
                mask = 0
                for i in fam:
                    mask |= 1 << bar_pos[i]
                if bars.known(mask):
                    jbar = bars._facts(mask)[1]
                else:
                    # a bar family the memo does not hold yet is joined
                    # through join, the hom-set join, which fills the entry
                    # for its repeats: a traced pass (perfbench/spans.py)
                    # counts and times one join call per such miss
                    jbar = bars.index.get(join(x, CompatibleFamily(
                        a, a, frozenset(bar[elements[i]] for i in fam))))
                if jbar != bar_pos[j]:
                    tag, detail = text["bar"]
                    yield Violation(tag, ids + _at(elements, fam), detail)
            for role, before, after, target_facts, image in checks:
                mask = 0
                for i in fam:
                    mask |= 1 << image[i]
                ok, jw = target_facts(mask)
                if not ok or jw != image[j]:
                    tag, detail = text[role, "join" if ok else "compatible"]
                    yield Violation(tag, before + _at(elements, fam) + after,
                                    detail)


def _at(elements, fam):
    """The elements at the positions fam, as a tuple."""
    return tuple(elements[i] for i in fam)


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
    homs = [(a, b, hom_poset(x, a, b).position_families(max_family))
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
