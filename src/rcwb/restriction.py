"""Restriction structure on a finite category.

The bar assignment f -> f̄ is stored as a total table.  The four
restriction axioms are checked on every map and pair, each law reading a
map only through what it depends on: R2 once per pair of distinct bars at
an object, R3 once per map and distinct bar at its source, R4 on every
composable pair, one row of the composition table at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import FinCategory, Subcategory, subcategory
from .reports import LawReport


@dataclass(frozen=True)
class RestrictionCategory:
    """A finite category with a bar table.

    posets caches the hom order of each hom-set as a joins.FinitePoset,
    keyed by (src, tgt) and built by joins.hom_poset on first use.  It fills
    lazily, takes no part in equality or hashing, and hands the same poset
    to every caller, so cached posets must not be mutated.  splits caches,
    the same way, the splitting of each restriction idempotent that
    mcat.splittings finds.
    """
    base: FinCategory
    bar: tuple  # morphism id -> morphism id, an endomorphism of the source
    posets: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    splits: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if len(self.bar) != self.base.n_morphisms:
            raise ValueError("bar table must cover every morphism")


def distinct_bars(x: RestrictionCategory):
    """Per object a, the distinct bars of the maps out of a, in the order
    of the first map with each bar."""
    c = x.base
    return tuple(tuple(dict.fromkeys(x.bar[f] for f in c.out_of(a)))
                 for a in c.objects)


def check_restriction_axioms(x: RestrictionCategory) -> LawReport:
    """R1-R4, once BAR-SHAPE finds every f̄ an endomorphism of src(f).

    BAR-SHAPE and R1 are one check per map.  R2, ḡ∘f̄ == f̄∘ḡ for f, g out
    of a, reads f and g only through f̄ and ḡ, so it is checked once per
    pair of distinct bars at a; R3, bar(g∘f̄) == ḡ∘f̄, reads f only through
    f̄, so it is checked once per g and distinct bar at src(g).  The loop
    over every such pair (g, f) runs only when one of the two tables holds
    a failure, and reads its entries from them.  R4, h̄∘f == f∘bar(h∘f),
    is checked on every composable pair, one h at a time: h̄'s row is the
    left side for every f in into(src h) at once, and h's row gives each
    h∘f for the right side.  The loop over f and h that writes the entries
    runs only when that pass finds a failure.  These are exact rewrites,
    not certificates: the entries and their order are those of the loop
    over every pair.
    """
    c = x.base
    bar = x.bar
    rows, pos = c.rows, c.pos
    report = LawReport("restriction")
    for f in c.morphisms():
        bf = bar[f]
        a = c.mor_src[f]
        if c.mor_src[bf] != a or c.mor_tgt[bf] != a:
            report.add("BAR-SHAPE", (f, bf), "f̄ is not an endomorphism of src(f)")
    if not report.ok:
        return report
    for f in c.morphisms():
        if rows[f][pos[bar[f]]] != f:
            report.add("R1", (f,), "f∘f̄ != f")
    bars = distinct_bars(x)
    r2 = {(e, d) for es in bars for e in es for d in es
          if rows[e][pos[d]] != rows[d][pos[e]]}
    r3 = {(g, d) for g in c.morphisms() for d in bars[c.mor_src[g]]
          if bar[rows[g][pos[d]]] != rows[bar[g]][pos[d]]}
    if r2 or r3:
        for f in c.morphisms():
            d = bar[f]
            for g in c.out_of(c.mor_src[f]):
                if (bar[g], d) in r2:
                    report.add("R2", (g, f), "ḡ∘f̄ != f̄∘ḡ")
                if (g, d) in r3:
                    report.add("R3", (g, f), "bar(g∘f̄) != ḡ∘f̄")
    # bar(h) is an endomorphism of src h, so its row lines up with h's
    if any(rows[bar[h]] != tuple([rows[f][pos[bar[hf]]] for f, hf in
                                  zip(c.into(c.mor_src[h]), rows[h])])
           for h in c.morphisms()):
        for f in c.morphisms():
            pf = pos[f]
            for h in c.out_of(c.mor_tgt[f]):
                if rows[bar[h]][pf] != rows[f][pos[bar[rows[h][pf]]]]:
                    report.add("R4", (h, f), "h̄∘f != f∘bar(h∘f)")
    return report


def is_total(x: RestrictionCategory, f) -> bool:
    return x.bar[f] == x.base.identity[x.base.mor_src[f]]


def is_restriction_idempotent(x: RestrictionCategory, e) -> bool:
    return x.bar[e] == e


def restriction_idempotents(x: RestrictionCategory, a=None):
    """Restriction idempotents, optionally only those on object a."""
    out = []
    for e in x.base.morphisms():
        if x.bar[e] == e and (a is None or x.base.mor_src[e] == a):
            out.append(e)
    return tuple(out)


def total_subcategory(x: RestrictionCategory) -> Subcategory:
    """The wide subcategory of total maps, reindexed to dense ids."""
    totals = [f for f in x.base.morphisms() if is_total(x, f)]
    return subcategory(x.base, x.base.objects, totals)
