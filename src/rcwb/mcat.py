"""M-categories, Sub_M posets, the Par construction, matching diagrams,
the geometric criterion, MTotal and the Karoubi splitting.

Subobjects and spans are normalised to canonical representatives (smallest
ids after explicit iso search), so equality is plain component equality.
Two lazy tables on each MCategory keep the searches to one per key:
matching_memo (the matching colimit of each family asked for) and
span_isos (per first leg m, the iso that canonicalises every span (m, f)
when m alone decides it); the base category keeps the least iso of each
map asked for (fincat.least_iso), which canonicalises subobjects.
A matching diagram is a graph of pairwise pullbacks, a `fincat.Diagram`;
it builds no shape category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .fincat import (Cocone, Diagram, FinCategory, Functor, Subcategory,
                     build_category, certified, colimit, is_mono, least_iso,
                     mediating, pullback)
from .joins import families
from .reports import InternalInvariantError, LawReport
from .restriction import (RestrictionCategory, check_restriction_axioms,
                          is_total, restriction_idempotents,
                          total_subcategory)


@dataclass(frozen=True)
class MCategory:
    """A finite category with a class of monics.

    matching_memo caches matching_colimit results by (family, object),
    for the families asked for and for the families of their maximal
    members that those results are rebuilt from.  span_isos caches, per
    first leg m, the iso that canonical_span precomposes every (m, f) with,
    or None when f must break a tie.  Both fill lazily, take no part in
    equality or hashing, and hand the same result object to every caller,
    so cached results must not be mutated.
    """
    base: FinCategory
    monics: frozenset
    matching_memo: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)
    span_isos: dict = field(default_factory=dict, init=False,
                            repr=False, compare=False)


def check_m_system(mc: MCategory) -> LawReport:
    """The three stable-system conditions, checked exhaustively."""
    c = mc.base
    report = LawReport("m-system")
    for m in mc.monics:
        if not is_mono(c, m):
            report.add("M-MONO", (m,), "member of M is not monic")
    for f, _ in c.isos().items():
        if f not in mc.monics:
            report.add("M-ISO", (f,), "isomorphism missing from M")
    for m in sorted(mc.monics):
        for n in sorted(mc.monics):
            if c.mor_tgt[n] == c.mor_src[m]:
                if c.compose(m, n) not in mc.monics:
                    report.add("M-COMP", (m, n), "M not closed under composition")
    for m in sorted(mc.monics):
        b = c.mor_tgt[m]
        for f in c.into(b):
            cone = pullback(c, f, m)
            if cone is None:
                report.add("M-PB", (m, f), "pullback of m along f missing")
            elif cone.p not in mc.monics:
                report.add("M-PB", (m, f, cone.p),
                           "pullback leg opposite m not in M")
    return report


# -- M-subobjects ------------------------------------------------------------

def subobject_rep(mc: MCategory, m) -> int:
    """Canonical representative of the iso-class of the monic m."""
    return mc.base.compose(m, least_iso(mc.base, m))


def pullback_subobject(mc: MCategory, f, m) -> int:
    """f*(m): the canonical subobject of src(f) obtained by pulling the
    monic m back along f."""
    cone = pullback(mc.base, f, m)
    if cone is None:
        raise InternalInvariantError(
            f"pullback of monic {m} along {f} does not exist")
    return subobject_rep(mc, cone.p)


@dataclass(frozen=True)
class SubMPoset:
    """The poset of canonical M-subobjects of one object."""
    mc: MCategory
    obj: int
    elements: tuple

    def top(self):
        return self.mc.base.identity[self.obj]

    def join(self, family):
        return sub_m_join(self.mc, family, self.obj)


def sub_m_join(mc: MCategory, family, obj):
    """The join of a family of M-subobjects of obj, as the canonical Sub_M
    element that its matching colimit glues to: None when the colimit is
    missing or its induced map is not in M."""
    mcol = matching_colimit(mc, tuple(family), obj)
    if mcol is None or mcol.mu not in mc.monics:
        return None
    return subobject_rep(mc, mcol.mu)


def pullback_stable(mc: MCategory, f, family, join) -> bool:
    """f*(⋁S) == ⋁ f*(S): pulling the join of the family S back along f
    gives the join of the pulled-back members.  join is a monic in M
    representing ⋁S at tgt f, such as its canonical Sub_M element or the
    induced map of its matching colimit."""
    pulled = tuple(sorted({pullback_subobject(mc, f, m) for m in family}))
    return sub_m_join(mc, pulled, mc.base.mor_src[f]) == \
        pullback_subobject(mc, f, join)


def sub_m(mc: MCategory, obj) -> SubMPoset:
    c = mc.base
    reps = sorted({subobject_rep(mc, m)
                   for m in mc.monics if c.mor_tgt[m] == obj})
    return SubMPoset(mc, obj, tuple(reps))


# -- matching diagrams -------------------------------------------------------

def matching_diagram(mc: MCategory, family, obj) -> Diagram:
    """The diagram of pairwise pullbacks of a family of M-subobjects: the
    members m_0..m_{k-1} are vertices 0..k-1, and each ordered pair i != j,
    in turn, adds the apex of the pullback (p, q) of m_i and m_j as a vertex
    v with the arrows (v, i, p) and (v, j, q)."""
    c = mc.base
    family = tuple(family)
    _require_subobjects(mc, family, obj)
    k = len(family)
    objs = [c.mor_src[m] for m in family]
    arrows = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            cone = pullback(c, family[i], family[j])
            if cone is None:
                raise InternalInvariantError(
                    "missing pairwise pullback in matching diagram")
            arrows += [(len(objs), i, cone.p), (len(objs), j, cone.q)]
            objs.append(cone.apex)
    return Diagram(tuple(objs), tuple(arrows))


def _require_subobjects(mc: MCategory, family, obj):
    for m in family:
        if m not in mc.monics or mc.base.mor_tgt[m] != obj:
            raise ValueError(f"{m} is not an M-subobject of {obj}")


@dataclass(frozen=True)
class MatchingColimit:
    cocone: Cocone      # the colimit: one leg a_i per member, into the union
    mu: int             # induced map from the union into the target object


def matching_colimit(mc: MCategory, family, obj):
    """Colimit of the matching diagram plus the induced map, or None.
    Memoised in mc.matching_memo.

    The cocone keeps the legs at the members only: the leg at a pair vertex
    v with first arrow (v, i, p) is leg_i∘p, so the member legs decide a
    cocone under the matching diagram.

    The cocone search runs on the maximal members only, and the matching
    diagram is built only for a family with no dominated member.  Member i
    is dominated by member j when the canonical pullback (p, q) of
    (m_i, m_j) has an iso p; dominated members are dropped one at a time,
    each for a member still kept.  The result is the one the full search
    gives, in every category where the pairwise pullbacks exist:

    - In every cocone under the full diagram, leg_i∘p == leg_j∘q, so the
      leg of a dropped i is forced: leg_i == leg_j∘q∘p⁻¹.
    - Every other arrow condition of i follows from those of the members
      still there: at the pullback (p', q') of (m_i, m_k), the cone
      (q∘p⁻¹∘p', q') over (m_j, m_k) factors through their pullback, where
      leg_j and leg_k agree; so leg_i∘p' == leg_k∘q'.  Adding the dropped
      members back in reverse drop order, the cocones under the kept and
      under the full family correspond naturally in the apex: the two
      cocone functors are isomorphic, and the same apexes carry universal
      cocones.
    - The universal cocones at one apex L form a single orbit ψ∘legs under
      the automorphisms ψ of L.  `colimit` picks the least of them in leg
      order, and so does the least ψ∘legs over that orbit; the member legs
      decide the order, since they determine the legs at pair vertices.

    The kept family's own result comes from this memo too.
    """
    key = (tuple(family), obj)
    if key not in mc.matching_memo:
        mc.matching_memo[key] = _matching_colimit(mc, *key)
    return mc.matching_memo[key]


def _matching_colimit(mc: MCategory, family, obj):
    c = mc.base
    _require_subobjects(mc, family, obj)
    drops = _dominated(c, family)
    if not drops:
        full = colimit(c, matching_diagram(mc, family, obj))
        coc = None if full is None else Cocone(full.apex,
                                               full.legs[:len(family)])
    else:
        dropped = {i for i, _, _ in drops}
        kept = [i for i in range(len(family)) if i not in dropped]
        sub = matching_colimit(mc, tuple(family[i] for i in kept), obj)
        coc = None if sub is None else _rebuild(c, kept, drops, sub.cocone)
    if coc is None:
        return None
    mu = mediating(c, coc, obj, family)
    if mu is None:
        raise InternalInvariantError("no unique induced map from matching colimit")
    return MatchingColimit(coc, mu)


def _dominated(c: FinCategory, family):
    """The members of the family that are dropped, in drop order, as
    (i, j, g): member j was still kept when i was dropped, and every cocone
    under the matching diagram has leg_i == leg_j∘g.  Members are taken in
    order, and each is dropped for the first kept j whose pullback leg p
    is an iso."""
    isos = c.isos()
    kept = list(range(len(family)))
    drops = []
    for i, m in enumerate(family):
        for j in kept:
            if j == i:
                continue
            cone = pullback(c, m, family[j])
            if cone is None:
                raise InternalInvariantError(
                    "missing pairwise pullback in matching diagram")
            if cone.p in isos:
                drops.append((i, j, c.compose(cone.q, isos[cone.p])))
                kept.remove(i)
                break
    return drops


def _rebuild(c: FinCategory, kept, drops, sub: Cocone) -> Cocone:
    """The colimit cocone under the full family from sub, the one under the
    members listed in kept: dropped legs filled in reverse drop order, then
    the least ψ∘legs over the automorphisms ψ of the apex."""
    legs = [None] * (len(kept) + len(drops))
    for i, leg in zip(kept, sub.legs):
        legs[i] = leg
    for i, j, g in reversed(drops):
        legs[i] = c.compose(legs[j], g)
    apex = sub.apex
    return Cocone(apex, min(tuple([c.compose(psi, leg) for leg in legs])
                            for psi in c.isos_into(apex)
                            if c.mor_src[psi] == apex))


def is_geometric(mc: MCategory, max_family=None) -> LawReport:
    """Theorem-style criterion: matching colimits exist, their induced maps
    lie in M, and they are stable under pullback.  Lists the first failing
    family per object.

    GEO-STAB pulls back along the maps into each object that
    fincat.certified picks, the generators first.  Its induction step, for
    every family S the bound allows:

    - Along an identity it is trivial: id*(m) is m.
    - Pullbacks paste: (g∘h)*(m) == h*(g*(m)) as canonical subobjects.
    - Write f = g∘h with g a generator into obj.  The pass gave
      g*(⋁S) == ⋁(g*S).  g*S has at most |S| members, so it is a family at
      src g that the pass checked, within max_family; as the pass was
      clean, its matching colimit exists and its induced map is in M, so
      ⋁(g*S) exists.  Then f*(⋁S) == h*(⋁(g*S)) == ⋁h*(g*S) == ⋁f*(S), by
      the shorter word h on g*S and pasting.
    """
    return LawReport("geometric", certified(
        mc.base, partial(_geometric_scan, mc, max_family)))


def _geometric_scan(mc: MCategory, max_family, pick) -> list:
    """The violations of is_geometric with GEO-STAB checked along the maps
    pick(c.into(obj)) into each object obj."""
    c = mc.base
    report = LawReport("geometric")
    for obj in c.objects:
        maps = pick(c.into(obj))
        for family in families(sub_m(mc, obj).elements, max_family):
            mcol = matching_colimit(mc, family, obj)
            if mcol is None:
                report.add("GEO-COLIM", (obj,) + family,
                           "matching colimit does not exist")
                break
            if mcol.mu not in mc.monics:
                report.add("GEO-MU", (obj,) + family + (mcol.mu,),
                           "induced map not in M")
                break
            if not all(pullback_stable(mc, f, family, mcol.mu)
                       for f in maps):
                report.add("GEO-STAB", (obj,) + family,
                           "matching colimit not stable under pullback")
                break
    return report.violations


# -- the Par construction ----------------------------------------------------

def canonical_span(mc: MCategory, m, f):
    """The representative of the span (m, f) up to an iso of its apex: the
    one with the smallest (apex, m∘phi, f∘phi).

    The iso phi into dom m with the least (apex, m∘phi) is found once per m
    (_span_iso) and kept in mc.span_isos.  When it is the only minimiser,
    as it is for a monic m, where phi ↦ m∘phi is one-to-one, f cannot
    break the tie and phi is the answer for every f; otherwise the isos are
    scanned for each f.
    """
    c = mc.base
    rows, pos = c.rows, c.pos
    if m not in mc.span_isos:
        mc.span_isos[m] = _span_iso(c, m)
    phi = mc.span_isos[m]
    if phi is not None:
        return rows[m][pos[phi]], rows[f][pos[phi]]
    dom = c.mor_src[m]
    best = (dom, m, f)
    for phi in c.isos_into(dom):
        cand = (c.mor_src[phi], rows[m][pos[phi]], rows[f][pos[phi]])
        if cand < best:
            best = cand
    return best[1], best[2]


def _span_iso(c: FinCategory, m):
    """The iso phi into dom m, or the identity, with the least
    (src phi, m∘phi), when only one phi attains it; otherwise None."""
    dom = c.mor_src[m]
    ranked = sorted((c.mor_src[phi], c.compose(m, phi), phi)
                    for phi in {c.identity[dom], *c.isos_into(dom)})
    if len(ranked) > 1 and ranked[0][:2] == ranked[1][:2]:
        return None
    return ranked[0][2]


def compose_spans(mc: MCategory, second, first):
    """(n, g) ∘ (m, f) by pullback, canonicalised."""
    c = mc.base
    m, f = first
    n, g = second
    cone = pullback(c, f, n)
    if cone is None:
        raise InternalInvariantError("missing pullback in Par composition")
    return canonical_span(mc, c.rows[m][c.pos[cone.p]],
                          c.rows[g][c.pos[cone.q]])


@dataclass(frozen=True)
class ParCategory:
    """Par(C, M) with canonical span representatives.

    Objects are shared with the base M-category; morphism i is the span
    spans[i] == (m, f) with m in M.  axioms is the restriction-axiom report
    that `par` checked it against.
    """
    rc: RestrictionCategory
    mc: MCategory
    spans: tuple
    span_id: dict  # canonical (m, f) -> morphism id
    axioms: LawReport

    def id_of_span(self, m, f):
        return self.span_id[canonical_span(self.mc, m, f)]


def par(mc: MCategory) -> ParCategory:
    """The partial map category: spans (m, f) with m in M, composition by
    pullback, restriction (m, f) -> (m, m).  Its restriction axioms and the
    splitting of its restriction idempotents are verified."""
    c = mc.base
    canon = {canonical_span(mc, m, f) for m in mc.monics
             for f in c.out_of(c.mor_src[m])}
    spans = tuple(sorted(canon, key=lambda s: (c.mor_tgt[s[0]],
                                               c.mor_tgt[s[1]], s[0], s[1])))
    cat, _, span_id = build_category(
        c.objects, spans, lambda s: (c.mor_tgt[s[0]], c.mor_tgt[s[1]]),
        lambda a: canonical_span(mc, c.identity[a], c.identity[a]),
        lambda g, fs: [compose_spans(mc, g, f) for f in fs],
        obj_names=c.obj_names,
        mor_names=[f"({c.mor_names[m]},{c.mor_names[f]})" for m, f in spans])
    bar = tuple(span_id[canonical_span(mc, m, m)] for (m, f) in spans)
    rc = RestrictionCategory(cat, bar)
    rep = check_restriction_axioms(rc)
    if not rep.ok:
        raise InternalInvariantError(
            f"Par output fails restriction axioms:\n{rep}")
    for e, split in splittings(rc).items():
        if split is None:
            raise InternalInvariantError(
                f"restriction idempotent {e} does not split")
    return ParCategory(rc, mc, spans, span_id, rep)


def splittings(x: RestrictionCategory) -> dict:
    """Each restriction idempotent e of x -> some (s, r) with s∘r == e and
    r∘s an identity, or None; searched once per category and kept in
    x.splits."""
    if not x.splits:
        x.splits.update((e, _splitting(x.base, e))
                        for e in x.base.morphisms() if x.bar[e] == e)
    return x.splits


def _splitting(c: FinCategory, e):
    """Some (s, r) with s∘r == e and r∘s an identity, or None."""
    a = c.mor_src[e]
    rows, pos = c.rows, c.pos
    for obj in c.objects:
        for s in c.hom(obj, a):
            for r in c.hom(a, obj):
                if rows[s][pos[r]] == e and rows[r][pos[s]] == c.identity[obj]:
                    return s, r
    return None


# -- MTotal and the Karoubi splitting ----------------------------------------

def restriction_monic_candidates(x: RestrictionCategory):
    """Total maps m admitting r with r∘m == id and m∘r == bar(r)."""
    c = x.base
    out = set()
    for m in c.morphisms():
        if not is_total(x, m):
            continue
        a, b = c.mor_src[m], c.mor_tgt[m]
        for r in c.hom(b, a):
            if c.compose(r, m) == c.identity[a] and \
                    c.compose(m, r) == x.bar[r]:
                out.add(m)
                break
    return frozenset(out)


@dataclass(frozen=True)
class MTotalResult:
    mcat: MCategory
    sub: Subcategory    # total subcategory with old<->new translation


def mtotal(x: RestrictionCategory) -> MTotalResult:
    """(Total(x), restriction monics); requires all restriction idempotents
    of x to split."""
    for e, split in splittings(x).items():
        if split is None:
            raise ValueError(f"restriction idempotent {e} does not split")
    sub = total_subcategory(x)
    monics_old = restriction_monic_candidates(x)
    monics = frozenset(sub.mor_new[m] for m in monics_old
                       if m in sub.mor_new)
    return MTotalResult(MCategory(sub.cat, monics), sub)


@dataclass(frozen=True)
class KaroubiResult:
    rc: RestrictionCategory
    objects: tuple      # new object id -> (base object, idempotent)
    morphisms: tuple    # new morphism id -> (src idx, tgt idx, base morphism)
    embedding: Functor  # x -> karoubi_r(x)


def karoubi_r(x: RestrictionCategory) -> KaroubiResult:
    """Split restriction category on objects (A, e): morphisms f with
    f∘e == f and e'∘f == f, bar inherited.  The splitting and the full and
    faithful embedding of x are verified."""
    c = x.base
    rows, pos = c.rows, c.pos
    objects = []
    for a in c.objects:
        for e in restriction_idempotents(x, a):
            objects.append((a, e))
    objects.sort()
    obj_idx = {o: i for i, o in enumerate(objects)}
    # a morphism (i, j, f) is f from objects[i] to objects[j]
    morphisms = [(i, j, f)
                 for i, (a, e) in enumerate(objects)
                 for j, (b, e2) in enumerate(objects)
                 for f in c.hom(a, b)
                 if rows[f][pos[e]] == f and rows[e2][pos[f]] == f]
    # ids[j][i]: base map -> the id of the Karoubi map from i to j on it
    ids = [[{} for _ in objects] for _ in objects]
    for n, (i, j, f) in enumerate(morphisms):
        ids[j][i][f] = n
    src = [i for i, _, _ in morphisms]
    base_pos = [pos[f] for _, _, f in morphisms]

    def compose(g, fs):
        _, j, h = morphisms[g]
        row, into_j = rows[h], ids[j]
        return [into_j[src[f]].get(row[base_pos[f]]) for f in fs]

    cat, _, _ = build_category(
        range(len(objects)), range(len(morphisms)), lambda n: morphisms[n][:2],
        lambda i: ids[i][i].get(objects[i][1]), compose,
        obj_names=[f"({c.obj_names[a]},{c.mor_names[e]})"
                   for (a, e) in objects],
        mor_names=[f"{c.mor_names[f]}@{i}->{j}" for (i, j, f) in morphisms])
    bar = tuple(ids[i][i][rows[x.bar[f]][pos[objects[i][1]]]]
                for (i, j, f) in morphisms)
    rc = RestrictionCategory(cat, bar)
    unit = [obj_idx[(a, c.identity[a])] for a in c.objects]
    emb = Functor(c, cat, tuple(unit),
                  tuple(ids[unit[c.mor_tgt[f]]][unit[c.mor_src[f]]][f]
                        for f in c.morphisms()))
    for e, split in splittings(rc).items():
        if split is None:
            raise InternalInvariantError(
                f"restriction idempotent {e} does not split")
    if not emb.check() or not emb.is_full_and_faithful():
        raise InternalInvariantError("Karoubi embedding not full/faithful")
    return KaroubiResult(rc, tuple(objects), tuple(morphisms), emb)


@dataclass(frozen=True)
class SplitUnitResult:
    functor: Functor        # x.base -> par(mtotal(x)).rc.base, invertible
    pc: ParCategory


def split_unit_functor(x: RestrictionCategory) -> SplitUnitResult:
    """The comparison x -> Par(Total(x), restriction monics) for a split
    restriction category: f maps to the span (m, f∘m) where (m, r) is the
    splitting of bar(f) that splittings found.  The comparison is verified
    to be an isomorphism of restriction categories."""
    c = x.base
    mt = mtotal(x)
    pc = par(mt.mcat)
    sub = mt.sub
    if sub.obj_old != c.objects:
        raise InternalInvariantError("total subcategory must keep all objects")
    mor_map = []
    for f in c.morphisms():
        split = splittings(x).get(x.bar[f])
        if split is None:
            raise InternalInvariantError(
                f"idempotent {x.bar[f]} does not split")
        m = split[0]
        fm = c.compose(f, m)
        if m not in sub.mor_new or fm not in sub.mor_new:
            raise InternalInvariantError(
                "splitting legs are not total; cannot land in the span category")
        mm = sub.mor_new[m]
        if mm not in mt.mcat.monics:
            raise InternalInvariantError("splitting monic not a restriction monic")
        mor_map.append(pc.id_of_span(mm, sub.mor_new[fm]))
    fun = Functor(c, pc.rc.base, tuple(c.objects), tuple(mor_map))
    if not fun.check() or not fun.is_full_and_faithful() or \
            len(set(mor_map)) != pc.rc.base.n_morphisms or \
            c.n_objects != pc.rc.base.n_objects:
        raise InternalInvariantError(
            "comparison with the span category is not an isomorphism")
    for f in c.morphisms():
        if mor_map[x.bar[f]] != pc.rc.bar[mor_map[f]]:
            raise InternalInvariantError("comparison does not preserve bar")
    return SplitUnitResult(fun, pc)
