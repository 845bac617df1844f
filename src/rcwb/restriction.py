"""Restriction structure on a finite category.

The bar assignment f -> f̄ is stored as a total table and the four
restriction axioms are checked exhaustively over all composable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import FinCategory, Functor, Subcategory, subcategory
from .reports import LawReport


@dataclass(frozen=True)
class RestrictionCategory:
    """A finite category with a bar table.

    posets caches the hom order of each hom-set as a joins.FinitePoset,
    keyed by (src, tgt) and built by joins.hom_poset on first use.  It fills
    lazily, takes no part in equality or hashing, and hands the same poset
    to every caller, so cached posets must not be mutated.
    """
    base: FinCategory
    bar: tuple  # morphism id -> morphism id, an endomorphism of the source
    posets: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if len(self.bar) != self.base.n_morphisms:
            raise ValueError("bar table must cover every morphism")


def check_restriction_axioms(x: RestrictionCategory) -> LawReport:
    """Exhaustive R1-R4 check; also flags bars with the wrong endpoints."""
    c = x.base
    bar = x.bar
    report = LawReport("restriction")
    for f in c.morphisms():
        bf = bar[f]
        a = c.mor_src[f]
        if c.mor_src[bf] != a or c.mor_tgt[bf] != a:
            report.add("BAR-SHAPE", (f, bf), "f̄ is not an endomorphism of src(f)")
    if not report.ok:
        return report
    for f in c.morphisms():
        if c.comp[(f, bar[f])] != f:
            report.add("R1", (f,), "f∘f̄ != f")
    for f in c.morphisms():
        a = c.mor_src[f]
        for g in c.out_of(a):
            if c.comp[(bar[g], bar[f])] != c.comp[(bar[f], bar[g])]:
                report.add("R2", (g, f), "ḡ∘f̄ != f̄∘ḡ")
            gbf = c.comp[(g, bar[f])]
            if bar[gbf] != c.comp[(bar[g], bar[f])]:
                report.add("R3", (g, f), "bar(g∘f̄) != ḡ∘f̄")
    for f in c.morphisms():
        b = c.mor_tgt[f]
        for h in c.out_of(b):
            hf = c.comp[(h, f)]
            if c.comp[(bar[h], f)] != c.comp[(f, bar[hf])]:
                report.add("R4", (h, f), "h̄∘f != f∘bar(h∘f)")
    return report


def _require_parallel(x: RestrictionCategory, f, g):
    c = x.base
    if c.mor_src[f] != c.mor_src[g] or c.mor_tgt[f] != c.mor_tgt[g]:
        raise ValueError(f"morphisms {f} and {g} are not parallel")


def leq(x: RestrictionCategory, f, g) -> bool:
    """f ≤ g iff f == g∘f̄.  Joins read the order from joins.hom_poset,
    which calls this once per pair of a hom-set."""
    _require_parallel(x, f, g)
    return f == x.base.comp[(g, x.bar[f])]


def compatible(x: RestrictionCategory, f, g) -> bool:
    """f ⌣ g iff f∘ḡ == g∘f̄.  joins.hom_poset reads it once per pair of a
    hom-set."""
    _require_parallel(x, f, g)
    c = x.base
    return c.comp[(f, x.bar[g])] == c.comp[(g, x.bar[f])]


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


def trivial_restriction(c: FinCategory) -> RestrictionCategory:
    """bar(f) = id_src(f): every map total."""
    return RestrictionCategory(
        c, tuple(c.identity[c.mor_src[f]] for f in c.morphisms()))


def is_restriction_functor(fun: Functor, x: RestrictionCategory,
                           y: RestrictionCategory) -> bool:
    """fun preserves bar (fun must already be a functor between the bases)."""
    if fun.source is not x.base or fun.target is not y.base:
        raise ValueError("functor endpoints do not match the restriction categories")
    return all(fun.mor_map[x.bar[f]] == y.bar[fun.mor_map[f]]
               for f in x.base.morphisms())
