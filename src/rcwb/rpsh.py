"""Restriction presheaves and join restriction presheaves.

A restriction presheaf adds, to an ordinary presheaf over a restriction
category, a restriction idempotent x̄ for every element x, subject to three
axioms.  Being a *join* restriction presheaf is a property: every compatible
set of elements has a least upper bound satisfying two join axioms.
"""

from __future__ import annotations

from collections import namedtuple

from .fincat import certified
from .joins import FinitePoset, bar_masks, hom_poset, scan
from .reports import LawReport
from .restriction import (RestrictionCategory, distinct_bars,
                          is_restriction_idempotent)
from .site import check_presheaf, yoneda


class RestrictionPresheaf(namedtuple("RestrictionPresheaf",
                                     "rc presheaf bar_elem")):
    """A presheaf over rc.base with a restriction idempotent per element:
    bar_elem[a][x] is the morphism id of x̄ for x in presheaf(a).

    posets caches the element order of each P(a) as a joins.FinitePoset,
    keyed by object and built by element_poset on first use.  It fills
    lazily, takes no part in equality or hashing, and hands the same poset
    to every caller, so cached posets must not be mutated.
    """

    def __new__(cls, rc, presheaf, bar_elem):
        self = super().__new__(cls, rc, presheaf, bar_elem)
        self.posets = {}
        return self

    # _replace builds through _make: start an empty cache
    _make = classmethod(lambda cls, fields: cls(*fields))

    def bar(self, a, x):
        return self.bar_elem[a][x]


def check_rp_axioms(rp: RestrictionPresheaf) -> LawReport:
    """RP1-RP3 plus shape checks, and two derivable identities as sanity
    assertions with their own tags.

    RP2, bar(x·f̄) == x̄∘f̄, reads f only through f̄, so it is checked once
    per element x of P(a) and distinct bar at a; the maps out of a are
    visited only for an element with a failing bar, which keeps the
    entries and their order those of the loop over every map."""
    report = LawReport("restriction-presheaf")
    x = rp.rc
    c = x.base
    p = rp.presheaf
    if not check_presheaf(p):
        report.add("RP-PSH", (), "underlying data is not a presheaf")
        return report
    for a in c.objects:
        for e in p.elements(a):
            be = rp.bar(a, e)
            if c.mor_src[be] != a or c.mor_tgt[be] != a or \
                    not is_restriction_idempotent(x, be):
                report.add("RP-SHAPE", (a, e, be),
                           "x̄ is not a restriction idempotent on the object")
    if not report.ok:
        return report
    bars = distinct_bars(x)
    for a in c.objects:
        for e in p.elements(a):
            be = rp.bar(a, e)
            if p.act(be, e) != e:
                report.add("RP1", (a, e), "x·x̄ != x")
            # RP2: bar(x·d) == x̄∘d for each bar d = f̄ at a
            bad = {d for d in bars[a]
                   if rp.bar(a, p.act(d, e)) != c.compose(be, d)}
            if bad:
                for f in c.out_of(a):
                    if x.bar[f] in bad:
                        report.add("RP2", (a, e, f), "bar(x·f̄) != x̄∘f̄")
            for g in c.into(a):
                b = c.mor_src[g]
                xg = p.act(g, e)
                # RP3: x̄ ∘ g == g ∘ bar(x·g)
                if c.compose(be, g) != c.compose(g, rp.bar(b, xg)):
                    report.add("RP3", (a, e, g), "x̄∘g != g∘bar(x·g)")
                # derivable: ḡ ∘ bar(x·g) == bar(x·g)
                if c.compose(x.bar[g], rp.bar(b, xg)) != rp.bar(b, xg):
                    report.add("RP-SANITY1", (a, e, g),
                               "ḡ∘bar(x·g) != bar(x·g): implementation bug")
                # derivable: bar(x̄∘g) == bar(x·g)
                if x.bar[c.compose(be, g)] != rp.bar(b, xg):
                    report.add("RP-SANITY2", (a, e, g),
                               "bar(x̄∘g) != bar(x·g): implementation bug")
    return report


def element_poset(rp: RestrictionPresheaf, a) -> FinitePoset:
    """The element order on P(a), x ≤ y iff x == y·x̄, with x ⌣ y iff
    x·ȳ == y·x̄ (joins.bar_masks), built on first use and kept in
    rp.posets."""
    if a not in rp.posets:
        elements, act = rp.presheaf.elements(a), rp.presheaf.act
        rp.posets[a] = FinitePoset(elements, *bar_masks(
            elements, rp.bar_elem[a],
            lambda d: [act(d, t) for t in elements]))
    return rp.posets[a]


def element_join(rp: RestrictionPresheaf, a, members):
    """Least upper bound in P(a), or None."""
    return element_poset(rp, a).join(members)


# (tag, detail) of each finding of joins.scan on an element set
JRP_TEXT = {
    "missing": ("JRP-MISSING", "compatible element set without a join"),
    "bar": ("JRP1", "bar(⋁S) != ⋁ s̄"),
    ("pre", "compatible"): ("JRP2", "restricted set not compatible"),
    ("pre", "join"): ("JRP2", "(⋁S)·g != ⋁(s·g)"),
    ("post", "compatible"): ("JRP-ACT",
                             "x·T not compatible: implementation bug"),
    ("post", "join"): ("JRP-ACT", "x·(⋁T) != ⋁(x·t): implementation bug"),
}


def check_jrp_axioms(rp: RestrictionPresheaf, max_family=None) -> LawReport:
    """Join existence, JRP1 and JRP2, (⋁S)·g == ⋁(s·g), over all compatible
    element sets of at most max_family members, once check_rp_axioms
    passes, with JRP2 on the generators first (fincat.certified); when
    all that is clean, the sanity check JRP-ACT, x·(⋁T) == ⋁(x·t), for
    every element x and every family T of maps with a join.

    These are the join laws of the hom-sets read on elements: on
    yoneda_jr(x, b) they are JOIN-MISSING, J1, J2 and POSTCOMP.  Over a base
    that passes its join laws, JRP1 and JRP2 follow from RP1-RP3 and
    JRP-MISSING.  Let w = ⋁S and e = ⋁ s̄ in hom(a, a).  Each s = w·s̄
    gives s̄ = bar(w·s̄) = w̄∘s̄ (RP2), so e <= w̄.  Then w·e is an upper
    bound of S, as (w·e)·s̄ = w·(e∘s̄) = w·s̄ = s, and its bar is w̄∘e = e
    (RP2), so w = (w·e)·w̄ and w̄ = e∘w̄ (RP2), that is w̄ <= e: JRP1.  For
    JRP2, w·g is an upper bound of S·g, as s·g = w·(s̄∘g) =
    (w·g)·bar(s·g) (RP3), and JRP1 on S·g, J1 and J2 of the base and JRP1
    on S give bar(⋁(s·g)) = ⋁ bar(s̄∘g) = bar(e∘g) = bar(w̄∘g) =
    bar(w·g), so ⋁(s·g) = (w·g)·bar(w·g) = w·g (RP1).  The checks stay for
    bases that fail their join laws.
    """
    return LawReport("join-restriction-presheaf",
                     rp_reports(rp, max_family)[-1].violations)


def rp_reports(rp: RestrictionPresheaf, max_family=None) -> list:
    """[check_rp_axioms(rp)], followed, when that passes, by the join-law
    report of check_jrp_axioms: the RP gate runs once for both."""
    gate = check_rp_axioms(rp)
    if not gate.ok:
        return [gate]
    x = rp.rc
    c = x.base
    p = rp.presheaf
    objs = [a for a in c.objects if p.sizes[a]]
    elems = {a: element_poset(rp, a).position_families(max_family)
             for a in objs}

    def fibres(pick):
        for a in objs:
            yield ((a,), a, element_poset(rp, a), elems[a], rp.bar_elem[a],
                   [("pre", (a,), (g,),
                     {s: p.act(g, s) for s in p.elements(a)},
                     element_poset(rp, c.mor_src[g]))
                    for g in pick(c.into(a))])

    report = LawReport("join-restriction-presheaf", certified(
        c, lambda pick: list(scan(x, fibres(pick), JRP_TEXT))))
    if report.ok:
        # x·t is t followed by x: a → * in the collage; the hom families
        # are built once per (b, a), and one without a join is no finding
        homs = {(b, a): hom_poset(x, b, a).position_families(max_family)
                for a in objs for b in c.objects if c.hom(b, a)}
        report.violations.extend(scan(x, (
            ((a, e), b, hom_poset(x, b, a), homs[b, a], None,
             [("post", (a, e), (), {t: p.act(t, e) for t in c.hom(b, a)},
               element_poset(rp, b))])
            for a in objs for e in p.elements(a)
            for b in c.objects if c.hom(b, a)), dict(JRP_TEXT, missing=None)))
    return [gate, report]


# -- representables ------------------------------------------------------------

def yoneda_jr(x: RestrictionCategory, a) -> RestrictionPresheaf:
    """hom(-, a) with the element restriction inherited from the category."""
    p = yoneda(x.base, a)
    bar_elem = tuple(
        tuple(x.bar[f] for f in x.base.hom(b, a))
        for b in x.base.objects)
    return RestrictionPresheaf(x, p, bar_elem)
