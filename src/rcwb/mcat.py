"""M-categories, Sub_M posets, the Par construction, matching diagrams,
the geometric criterion, MTotal and the Karoubi splitting.

Subobjects and spans have one canonical form, so equality is plain
component equality: a monic m becomes m∘phi and a span (m, f) becomes
(m∘phi, f∘phi), with phi = fincat.least_iso(c, m), the iso that the base
category c keeps per map.
A matching diagram is a graph of pairwise pullbacks, one for each pair
i < j of members, a `fincat.Diagram`; it builds no shape category.

Each pullback is paid for once where it can be.  The gate check_m_system
reads M-PB along the generators of the base through fincat.certified, as
is_geometric reads GEO-STAB: pullbacks paste, so pulling m back along a
word in the generators is pulling back one generator at a time.  Par
restricts each span along each canonical monic once, in its table legs,
which its composition and the sheaf transfer both read.

Sub_M(a) is ordered by s ≤ t iff s factors through t, that is, iff the
pullback leg opposite t is an iso.  A family S of Sub_M(a) and its
antichain max S of maximal members agree on all that the site and the
geometric criterion read:

- The join.  Cocones under S and under max S correspond, so
  mu_S == mu_maxS∘psi for an automorphism psi of the apex (see
  join_colimit).  So mu_S is in M iff mu_maxS is, by M-ISO and M-COMP,
  which the gate (check_m_system) checks.
- The generated sieve.  A dominated s == t∘g lies in the sieve of t, and
  so does every s∘h.
- GEO-STAB.  f* is monotone, so each f*(s) with s dominated lies below
  some f*(t) with t in max S: f*(S) and f*(max S) have the same maximal
  members, hence the same join, and ⋁S == ⋁max S on the other side.

So a family is read only through its antichain: each object keeps its
Sub_M order once, as a `joins.FinitePoset` whose families are the
antichains, and matching_colimit runs once per antichain, from
join_colimit.  Two lazy tables on each MCategory hold this: sub_m_orders,
the order of each object, and antichain_memo, each antichain that a join
asked for, with its matching colimit.  Only an antichain of two or more
members has its matching diagram built and its colimit searched: the
empty one is read off the initial object, and a single member m off the
isos out of dom m, as the universal cocones under one object are its isos
(matching_colimit).
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .fincat import (Cocone, Diagram, FinCategory, Functor,
                     build_category, certified, colimit, initial_object,
                     is_mono, least_iso, mediating, pullback,
                     validate_category)
from .joins import FinitePoset
from .reports import InternalInvariantError, LawReport
from .restriction import (RestrictionCategory, check_restriction_axioms,
                          restriction_idempotents, total_subcategory)


class MCategory(namedtuple("MCategory", "base monics")):
    """A finite category base with a class of monics, a frozenset of ids.

    sub_m_orders keeps the order of Sub_M(a) per object a (sub_m_order),
    and antichain_memo each antichain of Sub_M(a) with its matching
    colimit by (a, position mask) (join_colimit).  par_memo keeps Par of
    this M-category (par), topology_memo the topology it generates
    (site.generate_topology) and m_system_memo the report of its gate
    (check_m_system), each None until first asked for.  They fill lazily,
    take no part in equality or hashing, and hand the same result object
    to every caller, so cached results must not be mutated.  A _replace
    copy starts with all five empty.
    """

    def __new__(cls, base, monics):
        self = super().__new__(cls, base, monics)
        self.sub_m_orders, self.antichain_memo = {}, {}
        self.par_memo = self.topology_memo = self.m_system_memo = None
        return self

    # _replace builds through _make: start empty caches
    _make = classmethod(lambda cls, fields: cls(*fields))


def check_m_system(mc: MCategory) -> LawReport:
    """The three stable-system conditions, checked exhaustively, once per
    M-category: the report is kept in mc.m_system_memo and shared by every
    later caller, which must not mutate it.

    M-PB pulls each m in M back along the maps into tgt m that
    fincat.certified picks, the generators first, once M-MONO, M-ISO and
    M-COMP found nothing; otherwise along every map, as the step below
    needs M-ISO and M-COMP.  Its induction step, over every m in M:

    - At an identity the pullback exists, and its leg opposite m is m∘iso,
      in M by M-ISO and M-COMP.
    - Pullbacks paste.  Pulling m back along g∘w, with g a generator into
      tgt m, is pulling p_g back along w, where p_g is the leg opposite m
      of the pullback of m along g; p_g is in M by the generator pass, so
      the pullback along w exists and its leg is in M by the shorter word
      w, and the pasted square is a pullback of m along g∘w.
    - The canonical pullback differs from the pasted one by an iso of the
      apex, so its leg is the pasted leg∘iso, in M by M-ISO and M-COMP.
    """
    if mc.m_system_memo is not None:
        return mc.m_system_memo
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
    scan = partial(_m_pb_scan, mc)
    report.violations += scan(list) if report.violations else \
        certified(c, scan)
    mc.m_system_memo = report
    return report


def _m_pb_scan(mc: MCategory, pick) -> list:
    """The M-PB violations of check_m_system with each m in M pulled back
    along the maps pick(c.into(tgt m))."""
    c = mc.base
    report = LawReport("m-system")
    for m in sorted(mc.monics):
        for f in pick(c.into(c.mor_tgt[m])):
            cone = pullback(c, f, m)
            if cone is None:
                report.add("M-PB", (m, f), "pullback of m along f missing")
            elif cone.p not in mc.monics:
                report.add("M-PB", (m, f, cone.p),
                           "pullback leg opposite m not in M")
    return report.violations


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


def sub_m_order(mc: MCategory, obj) -> FinitePoset:
    """Sub_M(obj) as a FinitePoset, built on first use and kept in
    mc.sub_m_orders.  Its elements are the canonical M-subobjects of obj,
    sorted.  s ≤ t iff s is t∘g for some g, which for a monic t holds iff
    the pullback leg opposite t is an iso.  s is compatible with t iff the
    two are equal or incomparable, so the poset's families are the
    antichains of Sub_M(obj).  The top is subobject_rep(mc, identity[obj]), which is
    not the identity when an iso into obj has a smaller id."""
    order = mc.sub_m_orders.get(obj)
    if order is None:
        c = mc.base
        elements = sorted({subobject_rep(mc, m)
                           for m in mc.monics if c.mor_tgt[m] == obj})
        index = {s: i for i, s in enumerate(elements)}
        up = [0] * len(elements)
        down = [0] * len(elements)
        for j, t in enumerate(elements):
            # the row of t holds every t∘g
            for i in {index[s] for s in c.rows[t] if s in index}:
                up[i] |= 1 << j
                down[j] |= 1 << i
        full = (1 << len(elements)) - 1
        ok = [full & ~(u | d) | 1 << i
              for i, (u, d) in enumerate(zip(up, down))]
        order = mc.sub_m_orders[obj] = FinitePoset(elements, up, ok)
    return order


def sub_m(mc: MCategory, obj) -> tuple:
    """Sub_M(obj): the canonical M-subobjects of obj, sorted."""
    return sub_m_order(mc, obj).elements


def antichains(mc: MCategory, obj, max_family=None) -> list:
    """The antichains of Sub_M(obj) with at most max_family members, by
    size and then in combinations order of the sorted Sub_M(obj)."""
    return sub_m_order(mc, obj).families(max_family)


def join_colimit(mc: MCategory, family, obj):
    """(max S, the matching colimit of max S or None) for a family S of
    canonical M-subobjects of obj: the antichain of its maximal members,
    and the colimit its join is read from.  Kept in mc.antichain_memo by
    (obj, position mask of max S): one matching_colimit call per
    antichain, and the package calls matching_colimit nowhere else.  That
    call searches a colimit only for an antichain of two or more members;
    the empty family and a single member are read off the isos.

    S may repeat members.  Cocones under S and under max S correspond, in
    every category where the pairwise pullbacks exist:

    - Say member i is dominated by member j: the pullback (p, q) of
      (m_i, m_j) has an iso p.  In every cocone under S,
      leg_i∘p == leg_j∘q, so leg_i == leg_j∘q∘p⁻¹ is forced.
    - Every other arrow condition of i follows from those of the members
      still there: at the pullback (p', q') of (m_i, m_k), the cone
      (q∘p⁻¹∘p', q') over (m_j, m_k) factors through their pullback, where
      leg_j and leg_k agree; so leg_i∘p' == leg_k∘q'.  Dropping dominated
      members one at a time, each for a member still kept, leaves max S,
      and the cocones under S and under max S correspond naturally in the
      apex: the two cocone functors are isomorphic, and the same apexes
      carry universal cocones.
    - The universal cocones at one apex L form a single orbit ψ∘legs under
      the automorphisms ψ of L.  So the colimit of S restricts, at the
      members of max S, to ψ∘legs for the colimit legs of max S, and
      mu_S == mu_maxS∘ψ⁻¹: the two joins are the same subobject of obj.
    """
    order = sub_m_order(mc, obj)
    key = (obj, order.maximal(order.mask(family)))
    memo = mc.antichain_memo
    if key not in memo:
        antichain = tuple(s for i, s in enumerate(order.elements)
                          if key[1] >> i & 1)
        memo[key] = antichain, matching_colimit(mc, antichain, obj)
    return memo[key]


def sub_m_join(mc: MCategory, family, obj):
    """The join of a family of canonical M-subobjects of obj, as the
    canonical Sub_M element that its matching colimit glues to: None when
    the colimit is missing or its induced map is not in M.  It is read
    from the family's maximal members (see the module docstring)."""
    mcol = join_colimit(mc, family, obj)[1]
    if mcol is None or mcol.mu not in mc.monics:
        return None
    return subobject_rep(mc, mcol.mu)


def pullback_stable(mc: MCategory, f, family, join) -> bool:
    """f*(⋁S) == ⋁ f*(S): pulling the join of the family S back along f
    gives the join of the pulled-back members.  join is a monic in M
    representing ⋁S at tgt f, such as its canonical Sub_M element or the
    induced map of its matching colimit."""
    pulled = {pullback_subobject(mc, f, m) for m in family}
    return sub_m_join(mc, pulled, mc.base.mor_src[f]) == \
        pullback_subobject(mc, f, join)


# -- matching diagrams -------------------------------------------------------

def matching_diagram(mc: MCategory, family, obj) -> Diagram:
    """The diagram of pairwise pullbacks of a family of M-subobjects: the
    members m_0..m_{k-1} are vertices 0..k-1, and each pair i < j, in turn,
    adds the apex of the pullback (p, q) of m_i and m_j as a vertex v with
    the arrows (v, i, p) and (v, j, q).  The pair (j, i) would bind the
    member legs by the same condition: its canonical pullback is
    (q∘ψ, p∘ψ) for an iso ψ of the apex, and leg_j∘q∘ψ == leg_i∘p∘ψ iff
    leg_i∘p == leg_j∘q."""
    c = mc.base
    family = tuple(family)
    _require_subobjects(mc, family, obj)
    k = len(family)
    objs = [c.mor_src[m] for m in family]
    arrows = []
    for i in range(k):
        for j in range(i + 1, k):
            cone = pullback(c, family[i], family[j])
            if cone is None:
                raise InternalInvariantError(
                    "missing pairwise pullback in matching diagram")
            arrows += [(len(objs), i, cone.p), (len(objs), j, cone.q)]
            objs.append(cone.apex)
    return Diagram(tuple(objs), tuple(arrows))


def _require_subobjects(mc: MCategory, family, obj):
    if not 0 <= obj < mc.base.n_objects:
        raise ValueError(f"{obj} is not an object")
    for m in family:
        if m not in mc.monics or mc.base.mor_tgt[m] != obj:
            raise ValueError(f"{m} is not an M-subobject of {obj}")


class MatchingColimit(namedtuple("MatchingColimit", "cocone mu")):
    """The colimit cocone, with one leg a_i per member into the union, and
    the induced map mu from the union into the target object."""
    __slots__ = ()


def matching_colimit(mc: MCategory, family, obj):
    """Colimit of the matching diagram plus the induced map, or None.

    The cocone keeps the legs at the members only: the leg at a pair vertex
    v with first arrow (v, i, p) is leg_i∘p, so the member legs decide a
    cocone under the matching diagram.  A family of at most one member has
    a diagram with no arrow, and in a category its colimit is read off the
    isos with no search (_small_matching_colimit); a larger one is searched
    by fincat.colimit.  Nothing is memoised here: the site reads joins through
    join_colimit, one call per antichain."""
    c = mc.base
    family = tuple(family)
    if len(family) < 2 and validate_category(c).ok:
        _require_subobjects(mc, family, obj)
        return _small_matching_colimit(c, family, obj)
    full = colimit(c, matching_diagram(mc, family, obj))
    if full is None:
        return None
    coc = Cocone(full.apex, full.legs[:len(family)])
    mu = mediating(c, coc, obj, family)
    if mu is None:
        raise InternalInvariantError("no unique induced map from matching colimit")
    return MatchingColimit(coc, mu)


def _small_matching_colimit(c: FinCategory, family, obj):
    """The matching colimit of a family of at most one member, equal to
    the one fincat.colimit and mediating find, the first apex in object
    order with its least universal cocone, with no cocone listed.

    - The empty family.  Its diagram is empty, with the one cocone () at
      each object, so a universal cocone is an initial object L
      (fincat.initial_object), and mu is the one map L -> obj.  With no
      initial object there is no colimit.
    - One member m.  Its diagram is the object dom m alone, and a cocone
      at L is a leg φ: dom m -> L.  It is universal iff h ↦ h∘φ is a
      bijection hom(L, t) -> hom(dom m, t) for every t, that is iff φ is
      an iso (Yoneda; Mac Lane, CWM §III.2).  So the search's count test
      first passes, with a universal cocone, at the least tgt φ over the
      isos φ out of dom m, whose least cocone there is the least such φ,
      and mu, the one h with h∘φ == m, is m∘φ⁻¹.  The identity of dom m is
      such a φ, so the colimit exists.

    Both read the category laws, so c must be a category
    (fincat.validate_category); on a table that is not one,
    matching_colimit searches.
    """
    if not family:
        apex = initial_object(c)
        return None if apex is None else \
            MatchingColimit(Cocone(apex, ()), c.hom(apex, obj)[0])
    m = family[0]
    isos, tgt = c.isos(), c.mor_tgt
    # the isos φ out of dom m are the inverses of the isos into it
    inv = min(c.isos_into(c.mor_src[m]),
              key=lambda psi: (tgt[isos[psi]], isos[psi]))
    phi = isos[inv]
    return MatchingColimit(Cocone(tgt[phi], (phi,)), c.rows[m][c.pos[inv]])


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
    pick(c.into(obj)) into each object obj.

    Only the antichains of Sub_M(obj) are scanned.  A family's verdict is
    that of its maximal members (see the module docstring), and a family
    with a dominated member comes after its smaller antichain of maximal
    members when families are listed by size, so the first failing family
    of each object is an antichain either way."""
    c = mc.base
    report = LawReport("geometric")
    for obj in c.objects:
        maps = pick(c.into(obj))
        for family in antichains(mc, obj, max_family):
            mcol = join_colimit(mc, family, obj)[1]
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
    """The representative of the span (m, f) up to an iso of its apex:
    (m∘phi, f∘phi) with phi = least_iso(c, m), so its first leg is
    subobject_rep(m).  m must be monic, as every caller's is (a member of
    a gated M-system, or a restriction monic of mtotal): then phi ↦ m∘phi
    is one-to-one, and phi is the only iso that gives that first leg."""
    c = mc.base
    p = c.pos[least_iso(c, m)]
    return c.rows[m][p], c.rows[f][p]


class ParCategory(namedtuple("ParCategory",
                               "rc mc spans span_id axioms legs")):
    """Par(C, M) with canonical span representatives.

    Objects are shared with the base M-category mc; morphism i of the
    restriction category rc is the span spans[i] == (m, f) with m in M, and
    span_id maps each canonical (m, f) to its id.  axioms is the
    restriction-axiom report that `par` checked it against.

    legs[n], for each canonical monic n, maps the id j of each span (m, f)
    into tgt n, in id order, to (s, q) = (m∘p∘phi, q'∘phi): (p, q') is the
    pullback of (f, n) and phi the least iso of m∘p.  Par composes by it
    and the transfer acts by it (see par and bridge._transfer).
    """
    __slots__ = ()

    def id_of_span(self, m, f):
        return self.span_id[canonical_span(self.mc, m, f)]


def par(mc: MCategory) -> ParCategory:
    """The partial map category: spans (m, f) with m in M, composition by
    pullback, restriction (m, f) -> (m, m).  Its restriction axioms and the
    splitting of its restriction idempotents are verified.

    The maps are the canonical spans, listed as (s, f) for s in Sub_M and
    f out of dom s: canonical_span(m, f) is (s, f∘phi) with s =
    subobject_rep(m) and phi an iso, and as f runs over every map out of
    dom m, f∘phi runs over every map out of dom s.  The bar of (s, f) is
    (s, s).

    (n, g)∘(m, f) is the canonical span of (m∘p, g∘q'), with (p, q') the
    pullback of (f, n), and so (s, g∘q) for (s, q) = legs[n][j], j the id
    of (m, f), by associativity, (g∘q')∘phi == g∘(q'∘phi): Par is built
    only on gated categories and on the unit's Total(Karoubi(x)).  The
    transfer reads legs by functoriality, P(q'∘phi) == P(phi)∘P(q').

    Built once per M-category and kept in mc.par_memo; a build that
    raises keeps nothing."""
    if mc.par_memo is not None:
        return mc.par_memo
    c = mc.base
    rows, pos = c.rows, c.pos
    spans = tuple(sorted(
        ((m, f) for a in c.objects for m in sub_m(mc, a)
         for f in c.out_of(c.mor_src[m])),
        key=lambda s: (c.mor_tgt[s[0]], c.mor_tgt[s[1]], s[0], s[1])))
    span_id = {s: j for j, s in enumerate(spans)}    # build_category's ids
    into = [[] for _ in c.objects]  # per object: (j, m, f) of each span in
    for j, (m, f) in enumerate(spans):
        into[c.mor_tgt[f]].append((j, m, f))
    legs = {}   # one pullback(f, n) per map f into tgt n, for every n
    for a in c.objects:
        for n in sub_m(mc, a):
            cones = {f: pullback(c, f, n) for f in c.into(a)}
            if None in cones.values():
                raise InternalInvariantError(
                    "missing pullback in Par composition")
            at = legs[n] = {}
            for j, m, f in into[a]:
                _, p, q = cones[f]
                mp = rows[m][pos[p]]
                phi = pos[least_iso(c, mp)]
                at[j] = rows[mp][phi], rows[q][phi]

    def compose(second, fs):
        n, g = second
        at = legs[n]
        # build_category hands every row the spans into tgt n in id order
        kept = at.values() if len(fs) == len(at) else \
            [at[span_id[f]] for f in fs]
        row_g = rows[g]
        return [(s, row_g[pos[q]]) for s, q in kept]

    cat, _, _ = build_category(
        c.objects, spans, lambda s: (c.mor_tgt[s[0]], c.mor_tgt[s[1]]),
        lambda a: canonical_span(mc, c.identity[a], c.identity[a]),
        compose, obj_names=c.obj_names,
        mor_names=[f"({c.mor_names[m]},{c.mor_names[f]})" for m, f in spans])
    bar = tuple(span_id[(m, m)] for (m, f) in spans)
    rc = RestrictionCategory(cat, bar)
    rep = check_restriction_axioms(rc)
    if not rep.ok:
        raise InternalInvariantError(
            f"Par output fails restriction axioms:\n{rep}")
    for e, split in splittings(rc).items():
        if split is None:
            raise InternalInvariantError(
                f"restriction idempotent {e} does not split")
    mc.par_memo = ParCategory(rc, mc, spans, span_id, rep, legs)
    return mc.par_memo


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

class MTotalResult(namedtuple("MTotalResult", "mcat sub")):
    """Total(x) with the restriction monics as mcat, and the total
    subcategory sub with its old<->new translation."""
    __slots__ = ()


def mtotal(x: RestrictionCategory) -> MTotalResult:
    """(Total(x), restriction monics); requires all restriction idempotents
    of x to split.

    A restriction monic m, total with r∘m == 1 and m∘r == bar(r), is a
    section of a splitting of e = bar(r), and two splittings (m, r) and
    (s, r') of one idempotent differ by a unique iso phi = r'∘m (inverse
    r∘s), with s∘phi == e∘m == m.  Conversely s∘phi, for a splitting
    (s, r) of e and an iso phi into dom s, is one with r'' = phi⁻¹∘r: s is
    total as r∘s is, and bar(r'') == bar(r) == bar(s∘r) == e.  So M is
    read off the splittings that splittings found, with no search.
    """
    splits = splittings(x)
    for e, split in splits.items():
        if split is None:
            raise ValueError(f"restriction idempotent {e} does not split")
    sub = total_subcategory(x)
    c = x.base
    monics = frozenset(sub.mor_new[c.compose(s, phi)]
                       for s, _ in splits.values()
                       for phi in c.isos_into(c.mor_src[s]))
    return MTotalResult(MCategory(sub.cat, monics), sub)


class KaroubiResult(namedtuple("KaroubiResult",
                                "rc objects morphisms embedding")):
    """The splitting rc: objects[i] is (base object, idempotent) and
    morphisms[n] is (src idx, tgt idx, base morphism); embedding is the
    functor x -> karoubi_r(x)."""
    __slots__ = ()


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


class SplitUnitResult(namedtuple("SplitUnitResult", "functor pc")):
    """The invertible functor x.base -> pc.rc.base, pc = par(mtotal(x))."""
    __slots__ = ()


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
