"""Transfer between sheaves on an M-category and join restriction presheaves
over its partial map category, in both directions, with round trips.

A sheaf P over (C, M) becomes the presheaf over Par(C, M) whose elements at X
are pairs (m, e) of a canonical monic m into X and an element e of P(dom m).
This transfer is stated once, in _transfer: sheaf_to_jrp builds it over all
of Par, and cocompletion_unit along the comparison functor from x, on the
maps of x only.  Conversely a join restriction presheaf over Par(C, M)
restricts to its total elements, which form a sheaf.  Joins on the
transferred side are produced by the matching-colimit recipe and
cross-checked against least upper bounds found by plain search.

Both directions read a family of monics through its antichain of maximal
members, as the site does (see the mcat docstring).  For the amalgamation
formula this rests on a lemma.  Let rp be a restriction presheaf over
Par(C, M), P its total-element presheaf, F a family of M-subobjects of a
and s == t∘g a member dominated by a member t:

- Matching tuples.  The pullback of s and t is s itself, up to iso, so a
  matching tuple has x_s == P(g)(x_t): the element at s is forced from
  its dominator's.  Conversely x_s := P(g)(x_t) agrees with every other
  member u, since a square over (s, u) is one over (t, u).  So the
  matching tuples on F and on max F correspond one to one.
- The join of the partial inverses.  The span (s, 1) is (t, 1)∘(s, s), so
  x_s·(s, 1) == x_t·(t, 1)·(s, s) is a restriction of x_t·(t, 1) and lies
  below it.  An element below another member has no effect on the upper
  bounds, so the join, its restriction and whether it exists do not
  change.
- The amalgamations.  An amalgamation z over max F has
  P(s)(z) == P(g)(P(t)(z)) == x_s, so it amalgamates over F as well.

So each check of the formula on F gives the verdict of its check on
max F, and F covers iff max F does.  amalgamation_formula_report
therefore checks the covering antichains only.  It needs rp to be a
restriction presheaf, as the order and the action are used above; the CLI
passes yoneda_jr, which is one.
"""

from __future__ import annotations

from collections import namedtuple

from .fincat import compose_functors, least_iso, pullback
from .mcat import (MCategory, ParCategory, join_colimit, karoubi_r,
                   split_unit_functor, sub_m)
from .reports import InternalInvariantError, LawReport
from .restriction import RestrictionCategory, is_restriction_idempotent
from .rpsh import (RestrictionPresheaf, check_jrp_axioms, element_join,
                   element_poset, yoneda_jr)
from .site import (NatTrans, Presheaf, Topology, amalgamations,
                   build_presheaf, generate_topology, is_sheaf,
                   matching_tuples, subcanonical_report, yoneda)


# -- sheaf -> join restriction presheaf ----------------------------------------

class TransferredJRP(namedtuple("TransferredJRP",
                                 "rp pc sheaf elems index")):
    """rp over pc.rc, transferred from the presheaf sheaf over pc.mc.base;
    per object, elems is the tuple of (monic, element) pairs and index the
    dict from each pair to its index."""
    __slots__ = ()


def canonical_pair(mc: MCategory, p: Presheaf, mu, e):
    """The canonical pair in the class of (mu, e): (mu∘phi, P(phi)(e)) for
    the iso phi that makes mu∘phi the canonical monic."""
    c = mc.base
    phi = least_iso(c, mu)
    return c.compose(mu, phi), p.act(phi, e)


def _transfer(pc: ParCategory, p: Presheaf):
    """The transfer of P over pc.mc.base to Par, as the elements, action and
    names callbacks of build_presheaf.  Elements at X are pairs (m, e): a
    canonical monic m into X together with an element e of P(dom m); a span
    acts by pulling m back along its map leg, then canonical_pair."""
    mc = pc.mc
    c = mc.base

    def elements(a):
        return [(m, e) for m in sub_m(mc, a) for e in p.elements(c.mor_src[m])]

    def act(j, pair):
        n, g = pc.spans[j]          # a span src(j) <- D -> tgt(j)
        m, e = pair
        cone = pullback(c, g, m)
        if cone is None:
            raise InternalInvariantError("missing pullback in transfer")
        return canonical_pair(mc, p, c.compose(n, cone.p), p.act(cone.q, e))

    def name(a, pair):
        m, e = pair
        return f"({c.mor_names[m]},{p.name(c.mor_src[m], e)})"

    return elements, act, name


def sheaf_to_jrp(pc: ParCategory, p: Presheaf) -> TransferredJRP:
    """The transfer of P (see _transfer) over all of Par; the element
    restriction of (m, e) is the span (m, m)."""
    psh, index = build_presheaf(pc.rc.base, *_transfer(pc, p))
    elems = tuple(tuple(ix) for ix in index)
    bar_elem = tuple(tuple(pc.span_id[(m, m)] for (m, e) in es)
                     for es in elems)
    return TransferredJRP(RestrictionPresheaf(pc.rc, psh, bar_elem), pc, p,
                          elems, index)


def recipe_join(tr: TransferredJRP, a, members):
    """The matching-colimit join of a compatible family at object a:
    glue the monics, amalgamate the elements, or None with a reason.

    The monics are glued through mcat.join_colimit, from their antichain
    of maximal members.  Distinct members of a compatible family have
    distinct monics (two compatible pairs on one monic restrict each other
    to themselves), so each monic names its element.  The elements at the
    dropped, dominated monics are forced by compatibility from their
    dominators' (see the module docstring), so amalgamating over the
    antichain amalgamates the whole family.  The whole family's colimit
    differs from the antichain's by an automorphism ψ of the apex, and so
    its pair (mu, x) by the pair (mu∘ψ, P(ψ)(x)); canonical_pair takes
    both to one pair, so the result does not depend on ψ."""
    pc = tr.pc
    p = tr.sheaf
    element = dict(tr.elems[a][i] for i in members)
    antichain, mcol = join_colimit(pc.mc, element, a)
    if mcol is None:
        return None, "no matching colimit"
    if mcol.mu not in pc.mc.monics:
        return None, "induced map not a monic of the system"
    amalg = amalgamations(p, mcol.cocone.apex, mcol.cocone.legs,
                          [element[m] for m in antichain])
    if len(amalg) != 1:
        return None, f"{len(amalg)} amalgamations"
    return tr.index[a][canonical_pair(pc.mc, p, mcol.mu, amalg[0])], None


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

class DotPresheaf(namedtuple("DotPresheaf", "presheaf orig index")):
    """The presheaf over pc.mc.base; per object, orig is the tuple of
    source element indices and index the dict from each to its index."""
    __slots__ = ()


def jrp_to_sheaf(pc: ParCategory, rp: RestrictionPresheaf) -> DotPresheaf:
    """Keep only the total elements (restriction the identity span); the
    action of f is the action of the span (1, f).  Raises ValueError, from
    build_presheaf, when that action takes a total element to one that is
    not total: then rp is not a restriction presheaf."""
    rcb = pc.rc.base
    c = pc.mc.base
    q = rp.presheaf
    total_span = [pc.id_of_span(c.identity[c.mor_src[f]], f)
                  for f in c.morphisms()]
    psh, index = build_presheaf(
        c, lambda a: [e for e in q.elements(a)
                      if rp.bar(a, e) == rcb.identity[a]],
        lambda f, e: q.act(total_span[f], e), q.name)
    return DotPresheaf(psh, tuple(tuple(ix) for ix in index), index)


def amalgamation_formula_report(pc: ParCategory, top: Topology,
                                rp: RestrictionPresheaf,
                                max_family=None) -> LawReport:
    """The total-element presheaf is a sheaf, and each matching family for a
    monic cover amalgamates to the join of the partial inverses, uniquely.
    The covers are the covering antichains of top.basis, the empty one
    included, so top must be generated from pc.mc; by the lemma in the
    module docstring they stand for every covering family when rp is a
    restriction presheaf."""
    report = LawReport("amalgamation")
    dot = jrp_to_sheaf(pc, rp)
    report.extend(is_sheaf(dot.presheaf, top))
    for a, fams in enumerate(top.basis):
        for fam in fams:
            if max_family is None or len(fam) <= max_family:
                _check_formula(pc, rp, dot, report, a, fam)
    return report


def _check_formula(pc, rp, dot, report, a, fam):
    """Every matching family for the cover amalgamates to the join of the
    partial inverses of its legs, uniquely."""
    c = pc.mc.base
    p = dot.presheaf
    legs = [(pc.id_of_span(m, c.identity[c.mor_src[m]]), c.mor_src[m])
            for m in fam]
    for felems in matching_tuples(p, pc.mc, fam, a):
        # x = join of f_i · (m_i, 1), computed inside the source presheaf
        parts = [rp.presheaf.act(j, dot.orig[d][e])
                 for (j, d), e in zip(legs, felems)]
        x = element_join(rp, a, parts)
        if x is None:
            report.add("AMALG-JOIN", (a,) + fam, "join of partial inverses missing")
            continue
        if rp.bar(a, x) != pc.rc.base.identity[a]:
            report.add("AMALG-TOTAL", (a,) + fam, "join is not a total element")
            continue
        if amalgamations(p, a, fam, felems) != [dot.index[a][x]]:
            report.add("AMALG-UNIQUE", (a,) + fam,
                       "join is not the unique amalgamation")


# -- round trips ------------------------------------------------------------------

def roundtrip_report(pc: ParCategory) -> LawReport:
    """Representable fixtures go around both ways through comparison maps."""
    report = LawReport("roundtrip")
    c = pc.mc.base
    for w in c.objects:
        p = yoneda(c, w)
        tr = sheaf_to_jrp(pc, p)
        dot = jrp_to_sheaf(pc, tr.rp)
        # x goes to the total element (1, x), in its canonical pair
        if not _is_witness(p, dot.presheaf, lambda a, x: dot.index[a].get(
                tr.index[a].get(canonical_pair(pc.mc, p, c.identity[a], x)))):
            report.add("RT-SHEAF", (w,),
                       "sheaf -> presheaf -> sheaf is not the identity up to iso")
    for w in pc.rc.base.objects:
        q = yoneda_jr(pc.rc, w)
        dot = jrp_to_sheaf(pc, q)
        tr = sheaf_to_jrp(pc, dot.presheaf)
        if not _is_witness(q.presheaf, tr.rp.presheaf,
                           lambda a, t: _restricted_pair(pc, q, dot, tr, a, t),
                           (q.bar_elem, tr.rp.bar_elem)):
            report.add("RT-JRP", (w,),
                       "presheaf -> sheaf -> presheaf is not the identity up to iso")
    return report


def _restricted_pair(pc, q, dot, tr, a, t):
    """The index in tr of (m, t·(1, m)), for t at a with bar (m, m)."""
    m = pc.spans[q.bar(a, t)][0]
    d = pc.mc.base.mor_src[m]
    total = q.presheaf.act(pc.id_of_span(pc.mc.base.identity[d], m), t)
    return tr.index[a].get((m, dot.index[d].get(total)))


def _is_witness(p: Presheaf, q: Presheaf, image, bars=None) -> bool:
    """image(a, x), an index in q(a) or None (which is_iso rejects), is a
    natural isomorphism p -> q that keeps bars = (p's, q's) if given."""
    nat = NatTrans(p, q, tuple(tuple(image(a, x) for x in p.elements(a))
                               for a in p.cat.objects))
    return nat.is_iso() and nat.check() and (bars is None or all(
        bars[0][a][x] == bars[1][a][y]
        for a, comp in enumerate(nat.components) for x, y in enumerate(comp)))


# -- the unit of the cocompletion ---------------------------------------------------

class UnitResult(namedtuple("UnitResult", "report transferred")):
    """The unit report, and per object of x the presheaf built along fun."""
    __slots__ = ()


def cocompletion_unit(x: RestrictionCategory) -> UnitResult:
    """Route an object of x through idempotent splitting, the span category
    of its total maps, the (sheaf) representable there, and the transfer back;
    compare against the representable restriction presheaf of x.  The
    transfer is built along the comparison functor fun, on x's own maps."""
    report = LawReport("unit")
    kr = karoubi_r(x)
    su = split_unit_functor(kr.rc)
    fun = compose_functors(su.functor, kr.embedding)
    pc = su.pc
    c = pc.mc.base
    xb = x.base
    sub = subcanonical_report(generate_topology(pc.mc))
    if not sub.ok:
        report.add("UNIT-SUBCAN", (),
                   "representables are not sheaves; cannot skip sheafification")
        report.extend(sub)
        return UnitResult(report, ())
    # per object b, the span fun(g) -> g on hom(b, b); None if two g share it
    back = [{} for b in xb.objects]
    for b, inv in enumerate(back):
        for g in xb.hom(b, b):
            inv[fun.mor_map[g]] = None if fun.mor_map[g] in inv else g
    transferred = []
    for a in xb.objects:
        w = fun.obj_map[a]
        elements, act, name = _transfer(pc, yoneda(c, w))
        psh, index = build_presheaf(
            xb, lambda b: elements(fun.obj_map[b]),
            lambda f, t: act(fun.mor_map[f], t),
            lambda b, t: name(fun.obj_map[b], t))
        # the bar of (m, e) is the map of x sent to the span (m, m)
        bar_elem = tuple(tuple(back[b].get(pc.span_id[(m, m)]) for m, e in ix)
                         for b, ix in enumerate(index))
        if not all(g is not None and is_restriction_idempotent(x, g)
                   for col in bar_elem for g in col):
            report.add("UNIT-BAR", (a,),
                       "an element restriction is not in the image of x")
            continue
        transferred.append(RestrictionPresheaf(x, psh, bar_elem))
        y = yoneda_jr(x, a)

        def image(b, i):
            # fun(f) = (m, g) is the pair (m, g), g by its place in hom(-, w)
            m, g = pc.spans[fun.mor_map[xb.hom(b, a)[i]]]
            return index[b].get((m, c.hom(c.mor_src[m], w).index(g)))

        if not _is_witness(y.presheaf, psh, image, (y.bar_elem, bar_elem)):
            report.add("UNIT-ISO", (a,),
                       "unit route differs from the representable presheaf")
    return UnitResult(report, tuple(transferred))
