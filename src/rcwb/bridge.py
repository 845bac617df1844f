"""Transfer between sheaves on an M-category and join restriction presheaves
over its partial map category, in both directions, with round trips.

A sheaf P over (C, M) becomes the presheaf over Par(C, M) whose elements at X
are pairs (m, e) of a canonical monic m into X and an element e of P(dom m);
conversely a join restriction presheaf over Par(C, M) restricts to its total
elements, which form a sheaf.  Joins on the transferred side are produced by
the matching-colimit recipe and cross-checked against least upper bounds
found by plain search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import Functor, compose_functors, pullback
from .mcat import (MCategory, ParCategory, karoubi_r, matching_colimit,
                   split_unit_functor, sub_m, subobject_rep)
from .reports import InternalInvariantError, LawReport
from .restriction import RestrictionCategory, is_restriction_idempotent
from .rpsh import (RestrictionPresheaf, check_jrp_axioms, element_join,
                   element_poset, find_rp_iso, yoneda_jr)
from .site import (Presheaf, Topology, amalgamations, basis_covers,
                   find_presheaf_iso, generate_topology, is_sheaf,
                   subcanonical_report, yoneda)


# -- sheaf -> join restriction presheaf ----------------------------------------

@dataclass(frozen=True)
class TransferredJRP:
    rp: RestrictionPresheaf     # over pc.rc
    pc: ParCategory
    sheaf: Presheaf             # the source presheaf over pc.mc.base
    elems: tuple                # per object: tuple of (monic, element) pairs
    index: tuple                # per object: dict (monic, element) -> index


def canonical_pair(mc: MCategory, p: Presheaf, index, mu, e):
    """The position of the class of (mu, e) in index, the dict (monic,
    element) -> position at one object, after normalising the monic to its
    canonical representative."""
    c = mc.base
    m = subobject_rep(mc, mu)
    if m == mu:
        return index[(m, e)]
    for phi in c.hom(c.mor_src[m], c.mor_src[mu]):
        if c.comp[(mu, phi)] == m:
            return index[(m, p.act(phi, e))]
    raise InternalInvariantError("canonical monic is not a retitling")


def sheaf_to_jrp(pc: ParCategory, p: Presheaf) -> TransferredJRP:
    """Elements at X are pairs (m, e): a canonical monic m into X together
    with an element e of P(dom m); the element restriction of (m, e) is the
    span (m, m)."""
    mc = pc.mc
    c = mc.base
    elems = []
    index = []
    for a in c.objects:
        pairs = [(m, e) for m in sub_m(mc, a).elements
                 for e in p.elements(c.mor_src[m])]
        elems.append(tuple(pairs))
        index.append({pe: i for i, pe in enumerate(pairs)})
    sizes = tuple(len(es) for es in elems)
    action = {}
    rcb = pc.rc.base
    for j in rcb.morphisms():
        n, g = pc.spans[j]          # a span src(j) <- D -> tgt(j)
        src_obj, tgt_obj = rcb.mor_src[j], rcb.mor_tgt[j]
        for i, (m, e) in enumerate(elems[tgt_obj]):
            cone = pullback(c, g, m)
            if cone is None:
                raise InternalInvariantError("missing pullback in transfer")
            mu = c.comp[(n, cone.p)]
            action[(j, i)] = canonical_pair(mc, p, index[src_obj], mu,
                                            p.act(cone.q, e))
    psh = Presheaf(rcb, sizes, action,
                   tuple(tuple(f"({c.mor_names[m]},{p.name(c.mor_src[m], e)})"
                               for (m, e) in es) for es in elems))
    bar_elem = tuple(tuple(pc.id_of_span(m, m) for (m, e) in es)
                     for es in elems)
    return TransferredJRP(RestrictionPresheaf(pc.rc, psh, bar_elem), pc, p,
                          tuple(elems), tuple(index))


def recipe_join(tr: TransferredJRP, a, members):
    """The matching-colimit join of a compatible family at object a:
    glue the monics, amalgamate the elements, or None with a reason."""
    pc = tr.pc
    c = pc.mc.base
    p = tr.sheaf
    members = sorted(members)
    family = tuple(tr.elems[a][i][0] for i in members)
    felems = [tr.elems[a][i][1] for i in members]
    mcol = matching_colimit(pc.mc, family, a)
    if mcol is None:
        return None, "no matching colimit"
    if mcol.mu not in pc.mc.monics:
        return None, "induced map not a monic of the system"
    legs = mcol.cocone.legs[:len(family)]
    apex = mcol.cocone.apex
    amalg = amalgamations(p, apex, legs, felems)
    if len(amalg) != 1:
        return None, f"{len(amalg)} amalgamations"
    return canonical_pair(pc.mc, p, tr.index[a], mcol.mu, amalg[0]), None


def transfer_report(pc: ParCategory, top: Topology, p: Presheaf,
                    max_family=None) -> LawReport:
    """The transferred presheaf satisfies the join restriction presheaf
    axioms, and the recipe join agrees with the searched least upper bound
    on every compatible family."""
    report = LawReport("transfer")
    sh = is_sheaf(p, top)
    if not sh.ok:
        report.add("TRANSFER-SHEAF", (), "source presheaf is not a sheaf")
        report.extend(sh)
        return report
    tr = sheaf_to_jrp(pc, p)
    report.extend(check_jrp_axioms(tr.rp, max_family))
    for a in pc.rc.base.objects:
        for fam in element_poset(tr.rp, a).families(max_family):
            if not fam:
                continue
            got, reason = recipe_join(tr, a, fam)
            want = element_join(tr.rp, a, fam)
            if got is None:
                report.add("RECIPE", (a,) + fam, f"recipe failed: {reason}")
            elif got != want:
                report.add("RECIPE", (a,) + fam,
                           "recipe join differs from the least upper bound")
    return report


# -- join restriction presheaf -> sheaf -----------------------------------------

@dataclass(frozen=True)
class DotPresheaf:
    presheaf: Presheaf      # over pc.mc.base
    orig: tuple             # per object: tuple of source element indices


def jrp_to_sheaf(pc: ParCategory, rp: RestrictionPresheaf) -> DotPresheaf:
    """Keep only the total elements (restriction the identity span); the
    action of f is the action of the span (1, f)."""
    rcb = pc.rc.base
    c = pc.mc.base
    orig = []
    pos = []
    for a in rcb.objects:
        keep = [e for e in rp.presheaf.elements(a)
                if rp.bar(a, e) == rcb.identity[a]]
        orig.append(tuple(keep))
        pos.append({e: i for i, e in enumerate(keep)})
    action = {}
    for f in c.morphisms():
        b, a = c.mor_src[f], c.mor_tgt[f]
        j = pc.id_of_span(c.identity[b], f)
        for i, e in enumerate(orig[a]):
            img = rp.act(j, e)
            if img not in pos[b]:
                raise ValueError(
                    "action of a total map left the total elements; "
                    "input is not a restriction presheaf")
            action[(f, i)] = pos[b][img]
    psh = Presheaf(c, tuple(len(o) for o in orig), action,
                   tuple(tuple(rp.presheaf.name(a, e) for e in orig[a])
                         for a in rcb.objects))
    return DotPresheaf(psh, tuple(orig))


def amalgamation_formula_report(pc: ParCategory, top: Topology,
                                rp: RestrictionPresheaf,
                                max_family=None) -> LawReport:
    """The total-element presheaf is a sheaf, and each matching family for a
    monic cover amalgamates to the join of the partial inverses, uniquely."""
    report = LawReport("amalgamation")
    dot = jrp_to_sheaf(pc, rp)
    report.extend(is_sheaf(dot.presheaf, top))
    for a, fams in enumerate(basis_covers(pc.mc)):
        for fam in fams:
            if not fam or (max_family is not None and len(fam) > max_family):
                continue
            _check_formula(pc, rp, dot, report, a, fam)
    return report


def _check_formula(pc, rp, dot, report, a, fam):
    """Every matching family for the cover amalgamates to the join of the
    partial inverses of its legs, uniquely."""
    c = pc.mc.base
    p = dot.presheaf
    doms = [c.mor_src[m] for m in fam]
    for felems in _matching_tuples(c, p, fam):
        # x = join of f_i · (m_i, 1), computed inside the source presheaf
        parts = []
        for i, mi in enumerate(fam):
            j = pc.id_of_span(mi, c.identity[c.mor_src[mi]])
            parts.append(rp.act(j, dot.orig[doms[i]][felems[i]]))
        x = element_join(rp, a, parts)
        if x is None:
            report.add("AMALG-JOIN", (a,) + fam, "join of partial inverses missing")
            continue
        if rp.bar(a, x) != pc.rc.base.identity[a]:
            report.add("AMALG-TOTAL", (a,) + fam, "join is not a total element")
            continue
        if amalgamations(p, a, fam, felems) != [dot.orig[a].index(x)]:
            report.add("AMALG-UNIQUE", (a,) + fam,
                       "join is not the unique amalgamation")


def _matching_tuples(c, p, fam):
    """Every tuple (x_0, .., x_{n-1}) with x_i in P(dom m_i) that agrees on
    the pullback of each ordered pair m_i, m_j (i != j), in lexicographic
    order.  Grown one member at a time: member k is checked against the
    pullbacks with every earlier member, so a clash prunes its subtree."""
    n = len(fam)
    checks = [[(i, j, pullback(c, fam[i], fam[j]))
               for e in range(k) for i, j in ((e, k), (k, e))]
              for k in range(n)]
    chosen = [None] * n

    def grow(k):
        if k == n:
            yield tuple(chosen)
            return
        for x in p.elements(c.mor_src[fam[k]]):
            chosen[k] = x
            if all(p.act(cone.p, chosen[i]) == p.act(cone.q, chosen[j])
                   for i, j, cone in checks[k]):
                yield from grow(k + 1)

    return grow(0)


# -- round trips ------------------------------------------------------------------

def roundtrip_report(pc: ParCategory) -> LawReport:
    """Representable fixtures go around both ways up to natural isomorphism."""
    report = LawReport("roundtrip")
    c = pc.mc.base
    for w in c.objects:
        p = yoneda(c, w)
        tr = sheaf_to_jrp(pc, p)
        dot = jrp_to_sheaf(pc, tr.rp)
        if find_presheaf_iso(p, dot.presheaf) is None:
            report.add("RT-SHEAF", (w,),
                       "sheaf -> presheaf -> sheaf is not the identity up to iso")
    for w in pc.rc.base.objects:
        q = yoneda_jr(pc.rc, w)
        dot = jrp_to_sheaf(pc, q)
        tr = sheaf_to_jrp(pc, dot.presheaf)
        if find_rp_iso(q, tr.rp) is None:
            report.add("RT-JRP", (w,),
                       "presheaf -> sheaf -> presheaf is not the identity up to iso")
    return report


# -- the unit of the cocompletion ---------------------------------------------------

@dataclass(frozen=True)
class UnitResult:
    report: LawReport
    functor: Functor            # x.base -> the span category over the totals
    pc: ParCategory
    top: Topology
    transferred: tuple          # per object of x: the pulled-back presheaf


def cocompletion_unit(x: RestrictionCategory) -> UnitResult:
    """Route an object of x through idempotent splitting, the span category
    of its total maps, the (sheaf) representable there, and the transfer back;
    compare against the representable restriction presheaf of x."""
    report = LawReport("unit")
    kr = karoubi_r(x)
    su = split_unit_functor(kr.rc)
    fun = compose_functors(su.functor, kr.embedding)
    pc = su.pc
    top = generate_topology(pc.mc)
    sub = subcanonical_report(top)
    if not sub.ok:
        report.add("UNIT-SUBCAN", (),
                   "representables are not sheaves; cannot skip sheafification")
        report.extend(sub)
        return UnitResult(report, fun, pc, top, ())
    transferred = []
    for a in x.base.objects:
        w = fun.obj_map[a]
        tr = sheaf_to_jrp(pc, yoneda(pc.mc.base, w))
        pulled = _pull_back_rp(x, fun, tr.rp)
        if pulled is None:
            report.add("UNIT-BAR", (a,),
                       "an element restriction is not in the image of x")
            continue
        transferred.append(pulled)
        if find_rp_iso(pulled, yoneda_jr(x, a)) is None:
            report.add("UNIT-ISO", (a,),
                       "unit route differs from the representable presheaf")
    return UnitResult(report, fun, pc, top, tuple(transferred))


def _pull_back_rp(x: RestrictionCategory, fun: Functor,
                  rp: RestrictionPresheaf):
    """Restrict a presheaf over the target of fun back along fun, translating
    each element restriction through the (faithful) functor."""
    c = x.base
    p = rp.presheaf
    sizes = tuple(p.sizes[fun.obj_map[a]] for a in c.objects)
    action = {}
    for f in c.morphisms():
        ff = fun.mor_map[f]
        for e in range(sizes[c.mor_tgt[f]]):
            action[(f, e)] = p.act(ff, e)
    bar_elem = []
    for a in c.objects:
        fa = fun.obj_map[a]
        col = []
        for e in range(sizes[a]):
            b = rp.bar_elem[fa][e]
            back = [g for g in c.hom(a, a) if fun.mor_map[g] == b]
            if len(back) != 1 or not is_restriction_idempotent(x, back[0]):
                return None
            col.append(back[0])
        bar_elem.append(tuple(col))
    names = tuple(tuple(p.name(fun.obj_map[a], e) for e in range(sizes[a]))
                  for a in c.objects)
    return RestrictionPresheaf(x, Presheaf(c, sizes, action, names),
                               tuple(bar_elem))
