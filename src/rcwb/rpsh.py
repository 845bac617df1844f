"""Restriction presheaves and join restriction presheaves.

A restriction presheaf adds, to an ordinary presheaf over a restriction
category, a restriction idempotent x̄ for every element x, subject to three
axioms.  Being a *join* restriction presheaf is a property: every compatible
set of elements has a least upper bound satisfying two join axioms.  The
collage glues the presheaf onto its base category as maps into one extra
object, and a candidate structure satisfies the presheaf axioms exactly when
its collage satisfies the corresponding category axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .fincat import FinCategory
from .joins import (CompatibleFamily, FinitePoset, compatible_subsets,
                    join as hom_join)
from .reports import LawReport
from .restriction import RestrictionCategory, is_restriction_idempotent
from .site import (NatTrans, Presheaf, check_presheaf, find_presheaf_iso,
                   yoneda)


@dataclass(frozen=True)
class RestrictionPresheaf:
    """A presheaf over rc.base with a restriction idempotent per element.

    posets caches the element order of each P(a) as a joins.FinitePoset,
    keyed by object and built by element_poset on first use.  It fills
    lazily, takes no part in equality or hashing, and hands the same poset
    to every caller, so cached posets must not be mutated.
    """
    rc: RestrictionCategory
    presheaf: Presheaf          # over rc.base
    bar_elem: tuple             # per object: tuple, element -> morphism id
    posets: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def bar(self, a, x):
        return self.bar_elem[a][x]

    def act(self, f, x):
        return self.presheaf.act(f, x)


def check_rp_axioms(rp: RestrictionPresheaf) -> LawReport:
    """RP1-RP3 plus shape checks, and two derivable identities as sanity
    assertions with their own tags."""
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
    for a in c.objects:
        for e in p.elements(a):
            be = rp.bar(a, e)
            if p.act(be, e) != e:
                report.add("RP1", (a, e), "x·x̄ != x")
            for f in c.out_of(a):
                # RP2: bar(x·f̄) == x̄ ∘ f̄
                xf = p.act(x.bar[f], e)
                if rp.bar(a, xf) != c.comp[(be, x.bar[f])]:
                    report.add("RP2", (a, e, f), "bar(x·f̄) != x̄∘f̄")
            for g in c.into(a):
                b = c.mor_src[g]
                xg = p.act(g, e)
                # RP3: x̄ ∘ g == g ∘ bar(x·g)
                if c.comp[(be, g)] != c.comp[(g, rp.bar(b, xg))]:
                    report.add("RP3", (a, e, g), "x̄∘g != g∘bar(x·g)")
                # derivable: ḡ ∘ bar(x·g) == bar(x·g)
                if c.comp[(x.bar[g], rp.bar(b, xg))] != rp.bar(b, xg):
                    report.add("RP-SANITY1", (a, e, g),
                               "ḡ∘bar(x·g) != bar(x·g): implementation bug")
                # derivable: bar(x̄∘g) == bar(x·g)
                if x.bar[c.comp[(be, g)]] != rp.bar(b, xg):
                    report.add("RP-SANITY2", (a, e, g),
                               "bar(x̄∘g) != bar(x·g): implementation bug")
    return report


def element_leq(rp: RestrictionPresheaf, a, x, y) -> bool:
    """x <= y iff x == y·x̄."""
    return x == rp.act(rp.bar(a, x), y)


def element_compatible(rp: RestrictionPresheaf, a, x, y) -> bool:
    """x ⌣ y iff x·ȳ == y·x̄."""
    return rp.act(rp.bar(a, y), x) == rp.act(rp.bar(a, x), y)


def element_poset(rp: RestrictionPresheaf, a) -> FinitePoset:
    """The element order on P(a), built on first use and kept in
    rp.posets."""
    if a not in rp.posets:
        rp.posets[a] = FinitePoset(rp.presheaf.elements(a),
                                   partial(element_leq, rp, a),
                                   partial(element_compatible, rp, a))
    return rp.posets[a]


def element_join(rp: RestrictionPresheaf, a, members):
    """Least upper bound in P(a), or None."""
    return element_poset(rp, a).join(members)


def check_jrp_axioms(rp: RestrictionPresheaf, max_family=None) -> LawReport:
    """Join existence plus JRP1/JRP2 over all compatible element sets; the
    action-over-hom-joins identity (a consequence) is asserted as sanity."""
    report = LawReport("join-restriction-presheaf")
    rprep = check_rp_axioms(rp)
    if not rprep.ok:
        report.extend(rprep)
        return report
    x = rp.rc
    c = x.base
    p = rp.presheaf
    for a in c.objects:
        if p.sizes[a] == 0:
            continue
        for fam in element_poset(rp, a).families(max_family):
            if not fam:
                continue  # same nonempty convention as the category-level check
            j = element_join(rp, a, fam)
            if j is None:
                report.add("JRP-MISSING", (a,) + fam,
                           "compatible element set without a join")
                continue
            # JRP1: bar(⋁S) == ⋁ s̄ (a join of morphisms in X)
            jbar = hom_join(x, CompatibleFamily(
                a, a, frozenset(rp.bar(a, s) for s in fam)))
            if jbar is None or rp.bar(a, j) != jbar:
                report.add("JRP1", (a,) + fam, "bar(⋁S) != ⋁ s̄")
            # JRP2: (⋁S)·g == ⋁ (s·g)
            for g in c.into(a):
                b = c.mor_src[g]
                jg = element_join(rp, b, [rp.act(g, s) for s in fam])
                if jg is None or rp.act(g, j) != jg:
                    report.add("JRP2", (a,) + fam + (g,), "(⋁S)·g != ⋁(s·g)")
    # sanity: x·(⋁T) == ⋁(x·t) for hom-joins (a theorem given the above);
    # the non-empty hom families with a join are built once per (b, a)
    if report.ok:
        for a in c.objects:
            if p.sizes[a] == 0:
                continue
            joined = [(b, fam.members, t) for b in c.objects if c.hom(b, a)
                      for fam in compatible_subsets(x, b, a, max_family)
                      if fam.members and (t := hom_join(x, fam)) is not None]
            for e in p.elements(a):
                for b, members, t in joined:
                    want = element_join(rp, b, [rp.act(s, e) for s in members])
                    if want is None or rp.act(t, e) != want:
                        report.add("JRP-ACT", (a, e) + tuple(sorted(members)),
                                   "x·(⋁T) != ⋁(x·t): implementation bug")
    return report


# -- the collage --------------------------------------------------------------

@dataclass(frozen=True)
class Collage:
    rc: RestrictionCategory
    point: int              # the added object
    mor_old: dict           # base morphism id -> collage morphism id
    elem_mor: tuple         # per object: element -> collage morphism id


def collage(rp: RestrictionPresheaf) -> Collage:
    """One extra object; elements of P(A) become the maps A -> point.

    Built from the raw tables without checking any axioms, so mutants can be
    collaged and judged by the category-level law checkers.
    """
    x = rp.rc
    c = x.base
    p = rp.presheaf
    point = c.n_objects
    mor_old = {f: f for f in c.morphisms()}
    elem_mor = []
    next_id = c.n_morphisms
    src = list(c.mor_src)
    tgt = list(c.mor_tgt)
    names = list(c.mor_names)
    for a in c.objects:
        ids = []
        for e in p.elements(a):
            ids.append(next_id)
            src.append(a)
            tgt.append(point)
            names.append(f"elem:{p.name(a, e)}@{c.obj_names[a]}")
            next_id += 1
        elem_mor.append(tuple(ids))
    id_point = next_id
    src.append(point)
    tgt.append(point)
    names.append("1*")
    next_id += 1
    comp = dict(c.comp)
    for a in c.objects:
        for e in p.elements(a):
            xe = elem_mor[a][e]
            comp[(id_point, xe)] = xe
            for f in c.into(a):
                comp[(xe, f)] = elem_mor[c.mor_src[f]][p.act(f, e)]
    comp[(id_point, id_point)] = id_point
    cat = FinCategory(c.n_objects + 1, src, tgt,
                      tuple(c.identity) + (id_point,), comp,
                      obj_names=tuple(c.obj_names) + ("*",),
                      mor_names=names)
    bar = list(x.bar) + [None] * (next_id - c.n_morphisms)
    for a in c.objects:
        for e in p.elements(a):
            bar[elem_mor[a][e]] = rp.bar(a, e)
    bar[id_point] = id_point
    return Collage(RestrictionCategory(cat, tuple(bar)), point,
                   mor_old, tuple(elem_mor))


# -- the restriction category of presheaf maps --------------------------------

def hom_restriction(rp_src: RestrictionPresheaf, rp_tgt: RestrictionPresheaf,
                    alpha: NatTrans) -> NatTrans:
    """bar(alpha) componentwise: x -> x · bar(alpha_A(x))."""
    comps = []
    for a in rp_src.rc.base.objects:
        comps.append(tuple(
            rp_src.act(rp_tgt.bar(a, alpha.components[a][e]), e)
            for e in rp_src.presheaf.elements(a)))
    return NatTrans(alpha.source, alpha.source, tuple(comps))


def nat_join(rp_src, rp_tgt, alphas) -> NatTrans:
    """Componentwise join of a compatible set of presheaf maps."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("empty family needs explicit endpoints; join it "
                         "componentwise from the element joins instead")
    p = rp_src.presheaf
    comps = []
    for a in rp_src.rc.base.objects:
        col = []
        for e in p.elements(a):
            j = element_join(rp_tgt, a, [al.components[a][e] for al in alphas])
            if j is None:
                raise ValueError("componentwise join missing")
            col.append(j)
        comps.append(tuple(col))
    return NatTrans(alphas[0].source, alphas[0].target, tuple(comps))


# -- representables ------------------------------------------------------------

def find_rp_iso(rp1: RestrictionPresheaf, rp2: RestrictionPresheaf):
    """A natural isomorphism of the underlying presheaves that also matches
    the element restrictions, or None."""
    def same_bar(a, x, y):
        return rp1.bar_elem[a][x] == rp2.bar_elem[a][y]

    return find_presheaf_iso(rp1.presheaf, rp2.presheaf, same_bar)


def yoneda_jr(x: RestrictionCategory, a) -> RestrictionPresheaf:
    """hom(-, a) with the element restriction inherited from the category."""
    p = yoneda(x.base, a)
    bar_elem = tuple(
        tuple(x.bar[f] for f in x.base.hom(b, a))
        for b in x.base.objects)
    return RestrictionPresheaf(x, p, bar_elem)
