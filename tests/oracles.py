"""Brute-force reference implementations that the faster library code is
checked against, and the constructions that only the tests use.  The
references enumerate everything and are only fit for small fixtures."""

import itertools
from dataclasses import dataclass
from functools import partial

from rcwb import bridge, fincat, mcat, site
from rcwb.fincat import (Cocone, Diagram, FinCategory, Functor, PullbackCone,
                         build_category, forced_assignments, mediating,
                         pullback)
from rcwb.fixtures import build_finset_mcat, subsets_category
from rcwb.joins import (CompatibleFamily, FinitePoset, compatible_subsets,
                        hom_poset, join as hom_join)
from rcwb.mcat import (MCategory, ParCategory, matching_colimit,
                       pullback_subobject, sub_m_join, subobject_rep)
from rcwb.reports import InternalInvariantError, LawReport, Violation
from rcwb.restriction import (RestrictionCategory, is_restriction_idempotent,
                              is_total, restriction_idempotents)
from rcwb.rpsh import (RestrictionPresheaf, check_rp_axioms, element_join,
                       element_poset)
from rcwb.site import (NatTrans, PlusData, Presheaf, SheafifyResult,
                       Topology, build_presheaf, is_sheaf, maximal_sieve,
                       sieve_pullback, yoneda)


def _require_parallel(x: RestrictionCategory, f, g):
    c = x.base
    if c.mor_src[f] != c.mor_src[g] or c.mor_tgt[f] != c.mor_tgt[g]:
        raise ValueError(f"morphisms {f} and {g} are not parallel")


def leq(x: RestrictionCategory, f, g) -> bool:
    """f ≤ g iff f == g∘f̄, read for one pair; with compatible, the
    reference for the masks of joins.hom_poset."""
    _require_parallel(x, f, g)
    c = x.base
    return f == c.rows[g][c.pos[x.bar[f]]]


def compatible(x: RestrictionCategory, f, g) -> bool:
    """f ⌣ g iff f∘ḡ == g∘f̄, read for one pair."""
    _require_parallel(x, f, g)
    c = x.base
    return c.rows[f][c.pos[x.bar[g]]] == c.rows[g][c.pos[x.bar[f]]]


def element_leq(rp, a, x, y) -> bool:
    """x ≤ y in P(a) iff x == y·x̄, read for one pair; with
    element_compatible, the reference for the masks of rpsh.element_poset."""
    return x == rp.presheaf.act(rp.bar(a, x), y)


def element_compatible(rp, a, x, y) -> bool:
    """x ⌣ y in P(a) iff x·ȳ == y·x̄, read for one pair."""
    act = rp.presheaf.act
    return act(rp.bar(a, y), x) == act(rp.bar(a, x), y)


def predicate_masks(elements, leq, compatible):
    """The up and ok masks of joins.FinitePoset read pair by pair: bit j of
    up[i] is leq(elements[i], elements[j]) and bit j of ok[i] is
    compatible(elements[j], elements[i]), 2n² predicate calls; the
    reference for joins.bar_masks."""
    elements = tuple(elements)
    return ([sum(1 << j for j, v in enumerate(elements) if leq(u, v))
             for u in elements],
            [sum(1 << j for j, v in enumerate(elements) if compatible(v, u))
             for u in elements])


def predicate_poset(elements, leq, compatible) -> FinitePoset:
    """The FinitePoset of the order leq and the relation compatible, each
    read pair by pair (predicate_masks)."""
    return FinitePoset(elements, *predicate_masks(elements, leq, compatible))


def least_upper_bound(elements, leq, members):
    """The least of the elements lying above every member in the order
    leq(s, u), or None, by scanning every pair; the reference for
    joins.FinitePoset.join."""
    ubs = [u for u in elements if all(leq(s, u) for s in members)]
    for u in ubs:
        if all(leq(u, v) for v in ubs):
            return u
    return None


def compatible_families(elements, compatible, max_family=None):
    """Every pairwise-compatible subset of elements, the empty one included,
    as tuples ordered by size and then by position in elements, each grown
    by testing the new member against every member; the reference for
    joins.FinitePoset.families."""
    elements = tuple(elements)
    n = len(elements)
    ok = [[compatible(e, f) for f in elements] for e in elements]
    out = [()]
    frontier = [()]       # positions, kept increasing
    while frontier and (max_family is None or len(frontier[0]) < max_family):
        frontier = [fam + (j,) for fam in frontier
                    for j in range(fam[-1] + 1 if fam else 0, n)
                    if all(ok[j][i] for i in fam)]
        out.extend(frontier)
    return [tuple(elements[i] for i in fam) for fam in out]


def pair_table(c: FinCategory) -> dict:
    """The composition of c as a dict (g, f) -> g∘f, read through
    FinCategory.pairs; tests edit it and rebuild with with_table."""
    return {(g, f): gf for g, f, gf in c.pairs()}


def with_table(c: FinCategory, table, identity=None) -> FinCategory:
    """c with its composition replaced by the dict table (see pair_table)
    and, when given, its identities by identity, built by
    fincat.build_category.  That raises ValueError for a composable pair
    without an entry, an entry or identity that is not a map, and an
    identity that is not an endomorphism; an entry on a pair that is not
    composable, which build_category never asks for, raises here."""
    left = dict(table)
    cat, _, _ = build_category(
        c.objects, c.morphisms(), lambda f: (c.mor_src[f], c.mor_tgt[f]),
        (c.identity if identity is None else identity).__getitem__,
        lambda g, fs: [left.pop((g, f), None) for f in fs],
        c.obj_names, c.mor_names)
    if left:
        raise ValueError(f"entries on pairs that are not composable: "
                         f"{sorted(left)}")
    return cat


def built_by_pair_scan(objects, morphisms, ends, identity, compose):
    """(object key -> id, morphism key -> id, sources, targets, identities,
    comp) of the category on the given keys, with comp filled by calling
    compose(g, [f]) on every ordered pair of morphism keys whose ends meet,
    one pair at a time; the reference for fincat.build_category."""
    obj_id = {a: i for i, a in enumerate(objects)}
    mor_id = {f: i for i, f in enumerate(morphisms)}
    comp = {(mor_id[g], mor_id[f]): mor_id[compose(g, [f])[0]]
            for g in morphisms for f in morphisms
            if ends(f)[1] == ends(g)[0]}
    return (obj_id, mor_id,
            tuple(obj_id[ends(f)[0]] for f in morphisms),
            tuple(obj_id[ends(f)[1]] for f in morphisms),
            tuple(mor_id[identity(a)] for a in objects), comp)


def representable(c, a):
    """hom(-, a): the maps b -> a in id order at each b, h acted on by f to
    h∘f, its position found by list.index; the reference for site.yoneda."""
    homs = [[h for h in c.morphisms()
             if (c.mor_src[h], c.mor_tgt[h]) == (b, a)] for b in c.objects]
    action = {(f, i): homs[c.mor_src[f]].index(c.compose(h, f))
              for f in c.morphisms()
              for i, h in enumerate(homs[c.mor_tgt[f]])}
    return Presheaf(c, tuple(map(len, homs)), action,
                    tuple(tuple(c.mor_names[h] for h in hs) for hs in homs))


def is_sieve(c, a, s) -> bool:
    for f in s:
        if c.mor_tgt[f] != a:
            return False
        for g in c.into(c.mor_src[f]):
            if c.compose(f, g) not in s:
                return False
    return True


def generate_sieve(c, a, gens) -> frozenset:
    """gens and every f∘g for f in gens: the union of their rows."""
    return frozenset(gens).union(*[c.rows[f] for f in gens])


def sieves_on(c, a):
    """All sieves on a, by closing each subset of generators."""
    into = c.into(a)
    out = set()
    for r in range(len(into) + 1):
        for gens in itertools.combinations(into, r):
            out.add(generate_sieve(c, a, gens))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _added_sieve(c, covers, sieves):
    """The first (object, sieve) that the maximality, stability or
    transitivity rule adds to covers, checked rule by rule over the sieves
    given per object, or None."""
    for a in c.objects:
        if maximal_sieve(c, a) not in covers[a]:
            return a, maximal_sieve(c, a)
        for s in covers[a]:
            for f in c.into(a):
                fs = sieve_pullback(c, s, f)
                if fs not in covers[c.mor_src[f]]:
                    return c.mor_src[f], fs
        for t in sieves[a]:
            if t in covers[a]:
                continue
            for r in covers[a]:
                if all(sieve_pullback(c, t, f) in covers[c.mor_src[f]]
                       for f in r):
                    return a, t
    return None


def saturation_is_fixpoint(top) -> bool:
    """Whether no maximality, stability or transitivity rule adds a sieve
    to the covers, checked rule by rule on the covers as given, with the
    sieves from the subset closure above; the reference for
    site.saturation_is_fixpoint."""
    c = top.cat
    return _added_sieve(c, top.covers,
                        [sieves_on(c, a) for a in c.objects]) is None


def generate_topology(mc: MCategory) -> Topology:
    """The sieves of the covering antichains of site.basis_covers, saturated
    one added sieve at a time until no rule adds one: the least topology
    holding them; the reference for site.generate_topology, which reads
    its covers off the join test.  Built by hand, so not joined."""
    c = mc.base
    basis = site.basis_covers(mc)
    sieves = tuple(tuple(site.sieves_on(c, a)) for a in c.objects)
    covers = [{generate_sieve(c, a, fam) for fam in fams} for a, fams in
              zip(c.objects, basis)]
    while (added := _added_sieve(c, covers, sieves)) is not None:
        covers[added[0]].add(added[1])
    return Topology(c, tuple(frozenset(s) for s in covers), sieves, basis)


def subcanonical_report(top) -> LawReport:
    """SUBCAN for each object whose representable fails is_sheaf, scanned
    on every covering sieve; the reference for site.subcanonical_report,
    which needs no scan on a join-certified topology."""
    report = LawReport("subcanonical")
    for a in top.cat.objects:
        if not is_sheaf(yoneda(top.cat, a), top).ok:
            report.add("SUBCAN", (a,), "representable is not a sheaf")
    return report


def cocones_at(c, d, apex):
    """All cocones under d with the given apex, by backtracking over every
    vertex in id order."""
    n = len(d.obj_map)
    out = []
    legs = [None] * n

    def extend(k):
        if k == n:
            out.append(tuple(legs))
            return
        for leg in c.hom(d.obj_map[k], apex):
            legs[k] = leg
            ok = True
            for i, j, f in d.arrows:
                if legs[i] is None or legs[j] is None:
                    continue
                if (i == k or j == k) and c.compose(legs[j], f) != legs[i]:
                    ok = False
                    break
            if ok:
                extend(k + 1)
        legs[k] = None

    extend(0)
    return out


def is_mono(c, m):
    """Whether no two distinct parallel maps u, v into src m have
    m∘u == m∘v, by scanning every pair of maps into src m; the reference
    for fincat.is_mono."""
    into = c.into(c.mor_src[m])
    return not any(c.compose(m, u) == c.compose(m, v)
                   for u, v in itertools.combinations(into, 2)
                   if c.mor_src[u] == c.mor_src[v])


def pullback_cone(c, f, g):
    """The first cone (apex, p, q) over the cospan (f, g), in that order, to
    which every commuting square f∘p' == g∘q' maps by exactly one h, found
    by building every square at every object by a p × q double loop and
    counting mediating maps per square; the reference for fincat.pullback.
    """
    x, y = c.mor_src[f], c.mor_src[g]
    cones = {t: [(p, q) for p in c.hom(t, x) for q in c.hom(t, y)
                 if c.compose(f, p) == c.compose(g, q)] for t in c.objects}
    for apex in c.objects:
        for p, q in cones[apex]:
            if all(_one_each(cones[t], [(c.compose(p, h), c.compose(q, h))
                                        for h in c.hom(t, apex)])
                   for t in c.objects if cones[t]):
                return PullbackCone(apex, p, q)
    return None


def colimit(c, d):
    """The first cocone under d, in (apex, sorted legs) order, that maps to
    every cocone by exactly one h, with cocones from the brute-force
    cocones_at and mediating maps counted per cocone; the reference for
    fincat.colimit."""
    cocones = {apex: cocones_at(c, d, apex) for apex in c.objects}
    for apex in c.objects:
        for legs in sorted(cocones[apex]):
            if all(len(c.hom(apex, t)) == len(cocones[t]) and
                   _one_each(cocones[t], [tuple(c.compose(h, leg)
                                                for leg in legs)
                                          for h in c.hom(apex, t)])
                   for t in c.objects):
                return Cocone(apex, legs)
    return None


def induced_map(c, d, coc, apex, legs):
    """The map h: coc.apex -> apex that carries the whole colimit cocone coc
    of a matching diagram d to the cocone with legs[i] at member i and
    legs[i]∘p at each pair vertex v, where (v, i, p) is the first arrow out
    of v; None when there is no such map or more than one.  The reference
    for fincat.mediating, which checks the member vertices only."""
    first = {}
    for v, i, p in d.arrows:
        first.setdefault(v, (i, p))
    target = list(legs) + [c.compose(legs[first[v][0]], first[v][1])
                           for v in range(len(legs), len(d.obj_map))]
    found = [h for h in c.hom(coc.apex, apex)
             if all(c.compose(h, leg) == want
                    for leg, want in zip(coc.legs, target))]
    return found[0] if len(found) == 1 else None


def ordered_matching_diagram(mc: MCategory, family, obj) -> Diagram:
    """The diagram of pairwise pullbacks with a vertex for each ordered
    pair i != j of members, in turn, with the arrows (v, i, p) and
    (v, j, q) for the pullback (p, q) of m_i and m_j; the reference for
    mcat.matching_diagram, which keeps the pairs i < j only."""
    c = mc.base
    family = tuple(family)
    mcat._require_subobjects(mc, family, obj)
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


def restriction_monic_candidates(x: RestrictionCategory):
    """Total maps m admitting r with r∘m == id and m∘r == bar(r), by
    scanning every map r back; the reference for the restriction monics
    that mcat.mtotal reads off the splittings."""
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


def families(elements, max_family=None):
    """Every subset of elements in combinations order, smallest first,
    up to max_family members; the family-by-family references read every
    family of Sub_M through it, where the package reads antichains."""
    top = len(elements) if max_family is None else min(max_family,
                                                       len(elements))
    for r in range(top + 1):
        yield from itertools.combinations(elements, r)


def least_iso(c, f):
    """The first iso phi into src f, over every iso of the category in id
    order, that minimises f∘phi; the reference for fincat.least_iso."""
    dom = c.mor_src[f]
    best, best_phi = f, c.identity[dom]
    for phi in c.isos():
        if c.mor_tgt[phi] == dom and c.compose(f, phi) < best:
            best, best_phi = c.compose(f, phi), phi
    return best_phi


def canonical_span(mc, m, f):
    """The least (m∘phi, f∘phi) over every iso phi of the category into
    dom m; the reference for mcat.canonical_span."""
    c = mc.base
    dom = c.mor_src[m]
    return min([(m, f)] + [(c.compose(m, phi), c.compose(f, phi))
                           for phi in c.isos() if c.mor_tgt[phi] == dom])


def par_spans(mc):
    """The maps of Par(mc) as canonical_span of every (m, f) with m in M and
    f out of dom m, in the order of mcat.par; the reference for its
    listing from Sub_M."""
    c = mc.base
    canon = {canonical_span(mc, m, f) for m in mc.monics
             for f in c.out_of(c.mor_src[m])}
    return tuple(sorted(canon, key=lambda s: (c.mor_tgt[s[0]],
                                              c.mor_tgt[s[1]], s[0], s[1])))


def compose_spans(mc, second, first):
    """(n, g) ∘ (m, f) by its own pullback of (f, n), canonicalised: one
    pair at a time; the reference for the rows of mcat.par."""
    c = mc.base
    m, f = first
    n, g = second
    cone = pullback(c, f, n)
    if cone is None:
        raise InternalInvariantError("missing pullback in Par composition")
    return mcat.canonical_span(mc, c.rows[m][c.pos[cone.p]],
                               c.rows[g][c.pos[cone.q]])


def check_m_system(mc: MCategory) -> LawReport:
    """The three stable-system conditions, with M-PB pulling each m in M
    back along every map into tgt m; the reference for
    mcat.check_m_system, which reads M-PB along the generators."""
    c = mc.base
    report = LawReport("m-system")
    for m in mc.monics:
        if not fincat.is_mono(c, m):
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


def _one_each(cones, images):
    """Whether every cone occurs exactly once among images."""
    counts = {}
    for k in images:
        counts[k] = counts.get(k, 0) + 1
    return all(counts.get(cone, 0) == 1 for cone in cones)


def matching_families(p, a, sieve):
    """(fs, families) for the sorted sieve fs: every tuple of elements
    x_f in P(src f), in product order, kept when x_{f∘g} = P(g)(x_f) for
    every f in the sieve and every g into src(f)."""
    c = p.cat
    fs = sorted(sieve)
    out = []
    for fam in itertools.product(*(p.elements(c.mor_src[f]) for f in fs)):
        x = dict(zip(fs, fam))
        if all(x[c.compose(f, g)] == p.act(g, x[f])
               for f in fs for g in c.into(c.mor_src[f])):
            out.append(fam)
    return fs, out


def nat_trans(p, q):
    """Every natural transformation p -> q as its tuple of components: each
    choice of one function P(A) -> Q(A) per object, kept when
    Q(f)(a_B(x)) = a_A(P(f)(x)) for every f: A -> B and x in P(B)."""
    c = p.cat
    out = []
    for comps in itertools.product(
            *(itertools.product(q.elements(a), repeat=p.sizes[a])
              for a in c.objects)):
        if all(q.act(f, comps[c.mor_tgt[f]][x]) ==
               comps[c.mor_src[f]][p.act(f, x)]
               for f in c.morphisms() for x in p.elements(c.mor_tgt[f])):
            out.append(comps)
    return out


# the natural-transformation search and the iso searches on it: the
# reference for the comparison maps that decide the round trips and the unit
# in bridge

def _nat_trans(p: Presheaf, q: Presheaf):
    """Every natural transformation p -> q, lazily.  A slot is an element
    x of some P(B); its value a_B(x) forces a_A(P(f)x) = Q(f)(a_B(x)) for
    every f: A -> B.  Slots are tried object by object, smallest P(A)
    first."""
    c = p.cat
    offset = (0, *itertools.accumulate(p.sizes))
    obj_of = [a for a in c.objects for _ in p.elements(a)]
    forces = [[] for _ in obj_of]
    for f in c.morphisms():
        a, b = c.mor_src[f], c.mor_tgt[f]
        for x in p.elements(b):
            forces[offset[b] + x].append((offset[a] + p.act(f, x), f))
    order = sorted(range(len(obj_of)), key=lambda k: p.sizes[obj_of[k]])
    for values in forced_assignments(
            len(obj_of), lambda k: q.elements(obj_of[k]), forces, q.act,
            order):
        yield NatTrans(p, q, tuple(values[offset[a]:offset[a + 1]]
                                   for a in c.objects))


def all_nat_trans(p: Presheaf, q: Presheaf):
    """Every natural transformation p -> q."""
    return list(_nat_trans(p, q))


def find_presheaf_iso(p: Presheaf, q: Presheaf, elem_constraint=None):
    """The first natural isomorphism p -> q, in search order, whose every
    component pair (a, x, y) passes elem_constraint, or None."""
    if p.sizes != q.sizes:
        return None
    allowed = elem_constraint or (lambda a, x, y: True)
    for nat in _nat_trans(p, q):
        if nat.is_monic_componentwise() and all(
                allowed(a, x, y) for a, comp in enumerate(nat.components)
                for x, y in enumerate(comp)):
            return nat
    return None


def find_rp_iso(rp1: RestrictionPresheaf, rp2: RestrictionPresheaf):
    """A natural isomorphism of the underlying presheaves that also matches
    the element restrictions, or None."""
    def same_bar(a, x, y):
        return rp1.bar_elem[a][x] == rp2.bar_elem[a][y]

    return find_presheaf_iso(rp1.presheaf, rp2.presheaf, same_bar)


def unit_transferred(x: RestrictionCategory) -> tuple:
    """bridge.cocompletion_unit's presheaves by the route over all of Par:
    per object a, the representable at fun(a) transferred with sheaf_to_jrp,
    then pulled back along fun; an object whose bars do not pull back is
    skipped, as UNIT-BAR skips it."""
    kr = mcat.karoubi_r(x)
    su = mcat.split_unit_functor(kr.rc)
    fun = fincat.compose_functors(su.functor, kr.embedding)
    out = []
    for a in x.base.objects:
        tr = bridge.sheaf_to_jrp(su.pc, yoneda(su.pc.mc.base, fun.obj_map[a]))
        pulled = _pull_back_rp(x, fun, tr.rp)
        if pulled is not None:
            out.append(pulled)
    return tuple(out)


def _pull_back_rp(x: RestrictionCategory, fun: Functor,
                  rp: RestrictionPresheaf):
    """Restrict a presheaf over the target of fun back along fun, translating
    each element restriction through the (faithful) functor."""
    c = x.base
    p = rp.presheaf
    pulled = build_presheaf(c, lambda a: p.elements(fun.obj_map[a]),
                            lambda f, e: p.act(fun.mor_map[f], e),
                            lambda a, e: p.name(fun.obj_map[a], e))[0]
    bar_elem = []
    for a in c.objects:
        fa = fun.obj_map[a]
        col = []
        for e in pulled.elements(a):
            b = rp.bar_elem[fa][e]
            back = [g for g in c.hom(a, a) if fun.mor_map[g] == b]
            if len(back) != 1 or not is_restriction_idempotent(x, back[0]):
                return None
            col.append(back[0])
        bar_elem.append(tuple(col))
    return RestrictionPresheaf(x, pulled, tuple(bar_elem))


def matching_tuples(c, p, fam):
    """Every tuple of elements x_i in P(dom m_i), in product order, kept
    when it agrees on the pullback of each ordered pair m_i, m_j (i != j)."""
    doms = [c.mor_src[m] for m in fam]
    cones = [(i, j, pullback(c, mi, mj)) for i, mi in enumerate(fam)
             for j, mj in enumerate(fam) if i != j]
    return [felems for felems in
            itertools.product(*[p.elements(d) for d in doms])
            if all(p.act(cone.p, felems[i]) == p.act(cone.q, felems[j])
                   for i, j, cone in cones)]


def assoc_violations(c):
    """(h, g, f) for every composable triple with h(gf) != (hg)f, scanning
    every morphism for h.  Every composite must have the right endpoints
    (no COMP-SHAPE entry), or compose raises ValueError."""
    out = []
    for g in c.morphisms():
        b = c.mor_tgt[g]
        for f in c.into(c.mor_src[g]):
            for h in c.morphisms():
                if c.mor_src[h] == b and \
                        c.compose(h, c.compose(g, f)) != \
                        c.compose(c.compose(h, g), f):
                    out.append((h, g, f))
    return out


def restriction_axioms(x):
    """BAR-SHAPE, then R1 on every map, R2 and R3 on every pair (g, f) of
    maps with one source, R4 on every composable pair (h, f), each read
    through the comp table; the reference for
    restriction.check_restriction_axioms."""
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
        if c.compose(f, bar[f]) != f:
            report.add("R1", (f,), "f∘f̄ != f")
    for f in c.morphisms():
        a = c.mor_src[f]
        for g in c.out_of(a):
            if c.compose(bar[g], bar[f]) != c.compose(bar[f], bar[g]):
                report.add("R2", (g, f), "ḡ∘f̄ != f̄∘ḡ")
            gbf = c.compose(g, bar[f])
            if bar[gbf] != c.compose(bar[g], bar[f]):
                report.add("R3", (g, f), "bar(g∘f̄) != ḡ∘f̄")
    for f in c.morphisms():
        b = c.mor_tgt[f]
        for h in c.out_of(b):
            hf = c.compose(h, f)
            if c.compose(bar[h], f) != c.compose(f, bar[hf]):
                report.add("R4", (h, f), "h̄∘f != f∘bar(h∘f)")
    return report


def presheaf_laws(p):
    """Whether P(id) = id and P(f∘g) = P(g)∘P(f) for every entry (f, g) of
    the composition table; the reference for site.check_presheaf."""
    c = p.cat
    for a in c.objects:
        for x in p.elements(a):
            if p.act(c.identity[a], x) != x:
                return False
    for f, g, fg in c.pairs():
        # f: B -> C, g: A -> B, so P(f∘g) = P(g)∘P(f)
        for x in p.elements(c.mor_tgt[f]):
            if p.act(fg, x) != p.act(g, p.act(f, x)):
                return False
    return True


def rp_axioms(rp):
    """RP-PSH by presheaf_laws, RP-SHAPE, then per element x of P(a): RP1,
    RP2 for every map out of a, RP3 and the two sanity identities for every
    map into a; the reference for rpsh.check_rp_axioms."""
    report = LawReport("restriction-presheaf")
    x = rp.rc
    c = x.base
    p = rp.presheaf
    if not presheaf_laws(p):
        report.add("RP-PSH", (), "underlying data is not a presheaf")
        return report
    for a in c.objects:
        for e in p.elements(a):
            be = rp.bar(a, e)
            if c.mor_src[be] != a or c.mor_tgt[be] != a or \
                    x.bar[be] != be:
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
                if rp.bar(a, xf) != c.compose(be, x.bar[f]):
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


def join_axioms(x, max_family=None):
    """JOIN-MISSING, J1, J2 and POSTCOMP over every compatible family of at
    most max_family members, J2 for every map into a and POSTCOMP for every
    map out of b, each family's join found by scanning its upper bounds;
    the reference for joins.check_join_axioms."""
    c = x.base

    def lub(a, b, members):
        return least_upper_bound(c.hom(a, b), partial(leq, x), members)

    report = LawReport("join")
    for a in c.objects:
        for b in c.objects:
            if not c.hom(a, b):
                continue
            for fam in compatible_subsets(x, a, b, max_family):
                if not fam.members:
                    continue
                j = lub(a, b, fam.members)
                key = tuple(sorted(fam.members))
                if j is None:
                    report.add("JOIN-MISSING", (a, b) + key,
                               "compatible family without a join")
                    continue
                jbar = lub(a, a, {x.bar[s] for s in fam.members})
                if jbar is None or x.bar[j] != jbar:
                    report.add("J1", (a, b) + key, "bar(⋁S) != ⋁ s̄")
                for g in c.into(a):
                    famg = {c.compose(s, g) for s in fam.members}
                    if not all(compatible(x, s, t) for s in famg
                               for t in famg):
                        report.add("J2", (g,) + key,
                                   "precomposed family not compatible")
                        continue
                    jg = lub(c.mor_src[g], b, famg)
                    if jg is None or c.compose(j, g) != jg:
                        report.add("J2", (g,) + key, "(⋁S)∘g != ⋁(s∘g)")
                for f in c.out_of(b):
                    famf = {c.compose(f, s) for s in fam.members}
                    if not all(compatible(x, s, t) for s in famf
                               for t in famf):
                        report.add("POSTCOMP", (f,) + key,
                                   "postcomposed family not compatible")
                        continue
                    jf = lub(a, c.mor_tgt[f], famf)
                    if jf is None or c.compose(f, j) != jf:
                        report.add("POSTCOMP", (f,) + key,
                                   "f∘(⋁S) != ⋁(f∘s): implementation bug")
    return report


def scan(x, fibres, text):
    """The Violations of joins.scan on fibres whose families are tuples of
    elements, read family by family: each family, its bars and its image
    under each map are handed to the posets' join and compatible as
    element sets, and every image is read from the map's image afresh; the
    reference for joins.scan."""
    for ids, a, poset, fams, bar, maps in fibres:
        for fam in fams:
            if not fam:
                continue
            j = poset.join(fam)
            if j is None:
                if text["missing"]:
                    tag, detail = text["missing"]
                    yield Violation(tag, ids + fam, detail)
                continue
            if bar is not None:
                jbar = hom_join(x, CompatibleFamily(a, a, frozenset(
                    bar[s] for s in fam)))
                if jbar is None or bar[j] != jbar:
                    tag, detail = text["bar"]
                    yield Violation(tag, ids + fam, detail)
            for role, before, after, image, target in maps:
                members = frozenset(image[s] for s in fam)
                ok = target.compatible(members)
                jw = target.join(members)
                if not ok or jw is None or image[j] != jw:
                    tag, detail = text[role, "join" if ok else "compatible"]
                    yield Violation(tag, before + fam + after, detail)


def jrp_axioms(rp, max_family=None):
    """JRP-MISSING, JRP1 and JRP2 over every compatible element set of at
    most max_family members, JRP2 for every map into a, then, when all that
    is clean, JRP-ACT for every element x of P(a) and every hom family into
    a with a join; the reference for rpsh.check_jrp_axioms."""
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
                jg = element_join(rp, b, [p.act(g, s) for s in fam])
                if jg is None or p.act(g, j) != jg:
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
                    want = element_join(rp, b, [p.act(s, e) for s in members])
                    if want is None or p.act(t, e) != want:
                        report.add("JRP-ACT", (a, e) + tuple(sorted(members)),
                                   "x·(⋁T) != ⋁(x·t): implementation bug")
    return report


def upper_bounds(x, fam):
    """The maps of hom(fam.src, fam.tgt) above every member, in id order."""
    return hom_poset(x, fam.src, fam.tgt).upper_bounds(fam.members)


class NotRestrictionFunctorError(ValueError):
    """The given functor is not a (bar-preserving) restriction functor."""


def is_join_restriction_functor(fun, x, y, max_family=None) -> bool:
    """True iff fun maps the join of every compatible family to the join
    of the image family."""
    if not fun.check():
        raise NotRestrictionFunctorError("not a functor")
    if not is_restriction_functor(fun, x, y):
        raise NotRestrictionFunctorError("functor does not preserve bar")
    c = x.base
    for a in c.objects:
        for b in c.objects:
            for fam in compatible_subsets(x, a, b, max_family):
                if not fam.members:
                    continue
                j = hom_join(x, fam)
                if j is None:
                    continue
                image = CompatibleFamily(
                    fun.obj_map[a], fun.obj_map[b],
                    frozenset(fun.mor_map[s] for s in fam.members))
                if hom_join(y, image) != fun.mor_map[j]:
                    return False
    return True


# -- test-only helpers ----------------------------------------------------------

def finset_iso_mcat(n) -> MCategory:
    """FinSet<=n, built fresh, with its isos as M: the M-category that
    bundles.build_fixture gives finset_iso_<n>, on a category of its own."""
    c = build_finset_mcat(n).base
    return MCategory(c, frozenset(c.isos()))


# FinSet<=n, built fresh, with the injections or the isos as M
FINSET_MCATS = {"inj": build_finset_mcat, "iso": finset_iso_mcat}


def initial_object(c):
    """The initial object as the colimit of the empty diagram, or None."""
    coc = colimit(c, Diagram((), ()))
    return None if coc is None else coc.apex


def identity_functor(c):
    return Functor(c, c, tuple(c.objects), tuple(c.morphisms()))


def trivial_restriction(c):
    """bar(f) = id_src(f): every map total."""
    return RestrictionCategory(
        c, tuple(c.identity[c.mor_src[f]] for f in c.morphisms()))


def par_leq_oracle(pc, i, j) -> bool:
    """(m, f) <= (n, g) iff a mediating arrow phi with n∘phi == m and
    g∘phi == f exists (it is then unique; uniqueness is re-checked)."""
    c = pc.mc.base
    rcb = pc.rc.base
    if rcb.mor_src[i] != rcb.mor_src[j] or rcb.mor_tgt[i] != rcb.mor_tgt[j]:
        raise ValueError("spans are not parallel")
    m, f = pc.spans[i]
    n, g = pc.spans[j]
    found = 0
    for phi in c.hom(c.mor_src[m], c.mor_src[n]):
        if c.compose(n, phi) == m and c.compose(g, phi) == f:
            found += 1
    if found > 1:
        raise InternalInvariantError(
            f"mediating arrow between spans {i} and {j} is not unique")
    return found == 1


def nojoin_certified_pair(x):
    """The compatible, joinless pair in the no-join fixture: the two maps
    from the 2-set to the point defined on exactly one element.

    After reindexing, object 0 is the 1-set and object 1 is the 2-set."""
    c = x.base
    a, b = 1, 0
    # the least upper bound of the empty family is the least element
    least = predicate_poset(restriction_idempotents(x, a), partial(leq, x),
                            partial(compatible, x)).join(())
    singles = [f for f in c.hom(a, b)
               if x.bar[f] != c.identity[a] and x.bar[f] != least]
    return tuple(sorted(singles))


def join_collapsing_functor():
    """A restriction functor between join restriction categories that fails
    to preserve joins: subsets of a 2-set into subsets of a 3-set, sending
    the top to the top but singletons to themselves."""
    x = subsets_category(2)
    y = subsets_category(3)

    def as_set(c, f):
        name = c.base.mor_names[f]
        inner = name.strip("{}")
        return frozenset(int(v) for v in inner.split(",") if v != "")

    y_index = {as_set(y, f): f for f in y.base.morphisms()}
    mor_map = []
    for f in x.base.morphisms():
        s = as_set(x, f)
        mor_map.append(y_index[frozenset(range(3))] if s == frozenset(range(2))
                       else y_index[s])
    fun = Functor(x.base, y.base, (0,), tuple(mor_map))
    return fun, x, y


def non_associative(c: FinCategory) -> FinCategory:
    """c with one composite redirected: the first g∘f of two non-identities
    whose hom-set has another map gives the first such other map instead.
    Every entry stays in place, so only the category laws reject it."""
    comp = pair_table(c)
    g, f = next((g, f) for g, f in sorted(comp)
                if not c.is_identity(g) and not c.is_identity(f)
                and len(c.hom(c.mor_src[f], c.mor_tgt[g])) > 1)
    comp[(g, f)] = next(h for h in c.hom(c.mor_src[f], c.mor_tgt[g])
                        if h != comp[(g, f)])
    return with_table(c, comp)


def m3_bundle():
    """The lattice M3, 0 < a, b, c < 1, as a thin category bundle with every
    map in M: objects in that order, maps x <= y ordered by x, then y, named
    "x<y" (identities "x=x").  Sub_M(1) is M3 itself, which is not
    distributive, so pulling a join back along c<1 loses it: the join of
    a<1 and b<1 is the top, but c∧a and c∧b are both 0."""
    objs = ["0", "a", "b", "c", "1"]
    pairs = [(x, y) for x in objs for y in objs
             if x == y or x == "0" or y == "1"]

    def name(x, y):
        return f"{x}={y}" if x == y else f"{x}<{y}"

    return {"objects": objs,
            "morphisms": [{"id": name(x, y), "src": x, "tgt": y}
                          for x, y in pairs],
            "identities": {x: name(x, x) for x in objs},
            "comp": [[name(y, z), name(x, y), name(x, z)]
                     for x, y in pairs for w, z in pairs if w == y],
            "monics": [name(x, y) for x, y in pairs]}


def z2_bundle(order):
    """The group Z/2 as a one-object bundle, maps "s" and "1" with s∘s = 1,
    listed in the given order, both in M.  When "s" comes first, the
    canonical subobject of the identity is s."""
    return {"objects": ["*"],
            "morphisms": [{"id": m, "src": "*", "tgt": "*"} for m in order],
            "identities": {"*": "1"},
            "comp": [["s", "s", "1"], ["s", "1", "s"], ["1", "s", "s"],
                     ["1", "1", "1"]],
            "monics": list(order)}


def iso_pair_bundle(order):
    """Two isomorphic objects A and B, maps 1A, 1B, i: A -> B and its
    inverse j, listed in the given order, all in M.  When 1B comes before
    i, the canonical subobject of i is 1B, over the larger apex B."""
    ends = {"1A": ("A", "A"), "1B": ("B", "B"), "i": ("A", "B"),
            "j": ("B", "A")}
    return {"objects": ["A", "B"],
            "morphisms": [{"id": m, "src": ends[m][0], "tgt": ends[m][1]}
                          for m in order],
            "identities": {"A": "1A", "B": "1B"},
            "comp": [["1A", "1A", "1A"], ["1B", "1B", "1B"], ["i", "1A", "i"],
                     ["1B", "i", "i"], ["j", "1B", "j"], ["1A", "j", "j"],
                     ["j", "i", "1A"], ["i", "j", "1B"]],
            "monics": list(order)}


# -- restriction functors --------------------------------------------------------

def is_restriction_functor(fun: Functor, x: RestrictionCategory,
                           y: RestrictionCategory) -> bool:
    """fun preserves bar (fun must already be a functor between the bases)."""
    if fun.source is not x.base or fun.target is not y.base:
        raise ValueError("functor endpoints do not match the restriction categories")
    return all(fun.mor_map[x.bar[f]] == y.bar[fun.mor_map[f]]
               for f in x.base.morphisms())


# -- Sub_M: meets, Heyting distributivity, pullback stability, the span join --

def sub_m_meet(mc: MCategory, m, n) -> int:
    """m ∧ n in Sub_M: the canonical subobject of the pullback of m and n."""
    c = mc.base
    cone = pullback(c, m, n)
    if cone is None:
        raise InternalInvariantError("missing meet pullback in Sub_M")
    return subobject_rep(mc, c.compose(m, cone.p))


def heyting_check(mc: MCategory, obj, max_family=None) -> LawReport:
    """Distributivity m ∧ ⋁ n_i == ⋁ (m ∧ n_i) over all finite families.
    Joins stable under pullback make the subobject lattices distributive
    (Johnstone, Sketches of an Elephant, A1.4), so the tests check it as a
    property wherever is_geometric passes."""
    report = LawReport("heyting")
    elements = sub_m(mc, obj)
    for m in elements:
        for family in families(elements, max_family):
            lhs_join = sub_m_join(mc, family, obj)
            if lhs_join is None:
                report.add("HEYT-JOIN", (obj,) + family, "join missing")
                continue
            lhs = sub_m_meet(mc, m, lhs_join)
            meets = tuple(sorted({sub_m_meet(mc, m, n) for n in family}))
            rhs = sub_m_join(mc, meets, obj)
            if lhs != rhs:
                report.add("HEYT-DIST", (obj, m) + family,
                           "m ∧ ⋁n_i != ⋁(m ∧ n_i)")
    return report


def pullback_preserves_joins(mc: MCategory, f, max_family=None,
                             memo=None) -> LawReport:
    """f*(⋁ m_i) == ⋁ f*(m_i) over all families in Sub_M(tgt f), each join
    from the whole family's matching colimit, kept in memo (a fresh dict
    when None) by (family, object); the reference for
    mcat.pullback_stable."""
    memo = {} if memo is None else memo
    report = LawReport("pullback-joins")
    obj = mc.base.mor_tgt[f]
    for family in families(sub_m(mc, obj), max_family):
        j = _full_join(mc, family, obj, memo)
        if j is None:
            report.add("PBJ-JOIN", (obj,) + family, "join missing")
            continue
        if not _stable(mc, f, family, j, memo):
            report.add("PBJ", (f,) + family, "f*(⋁m_i) != ⋁f*(m_i)")
    return report


def sub_m(mc: MCategory, obj) -> tuple:
    """Sub_M(obj) read off M: the canonical representatives of the members
    of M into obj, sorted; the reference for mcat.sub_m, which reads them
    from the memoised order."""
    c = mc.base
    return tuple(sorted({subobject_rep(mc, m)
                         for m in mc.monics if c.mor_tgt[m] == obj}))


def _full_colimit(mc, family, obj, memo):
    """The matching colimit of the whole family, no member dropped, kept in
    memo, a dict of the caller's own, by (family, obj)."""
    key = (tuple(family), obj)
    if key not in memo:
        memo[key] = matching_colimit(mc, family, obj)
    return memo[key]


def _full_join(mc, family, obj, memo):
    """The canonical join of the family from its whole matching colimit, or
    None when that is missing or its induced map is not in M."""
    mcol = _full_colimit(mc, family, obj, memo)
    if mcol is None or mcol.mu not in mc.monics:
        return None
    return subobject_rep(mc, mcol.mu)


def basis_covers(mc: MCategory):
    """Per object a, every family of Sub_M(a) whose whole matching colimit
    joins to the top, family by family; the reference for
    site.basis_covers, which lists the antichains among them."""
    c = mc.base
    memo = {}
    return tuple(
        tuple(fam for fam in families(sub_m(mc, a))
              if _full_join(mc, fam, a, memo) ==
              subobject_rep(mc, c.identity[a]))
        for a in c.objects)


def maximal_members(mc: MCategory, family) -> tuple:
    """The canonical subobjects of the family's members that factor through
    no other, sorted, each tested by a search for the factoring map; the
    reference for the antichain of mcat.join_colimit."""
    c = mc.base
    canon = {subobject_rep(mc, m) for m in family}
    return tuple(sorted(
        s for s in canon
        if not any(t != s and any(c.compose(t, g) == s for g in
                                  c.hom(c.mor_src[s], c.mor_src[t]))
                   for t in canon)))


def covering_antichains(mc: MCategory):
    """The antichains among the covering families of basis_covers, in its
    order; the reference for site.basis_covers."""
    return tuple(tuple(fam for fam in fams if maximal_members(mc, fam) == fam)
                 for fams in basis_covers(mc))


def amalgamation_formula_report(pc: ParCategory, top: Topology,
                                rp: RestrictionPresheaf,
                                max_family=None) -> LawReport:
    """The formula checked on every covering family of basis_covers above,
    family by family, the empty one included; the reference for
    bridge.amalgamation_formula_report, which checks the covering
    antichains only."""
    report = LawReport("amalgamation")
    dot = bridge.jrp_to_sheaf(pc, rp)
    report.extend(is_sheaf(dot.presheaf, top))
    for a, fams in enumerate(basis_covers(pc.mc)):
        for fam in fams:
            if max_family is None or len(fam) <= max_family:
                bridge._check_formula(pc, rp, dot, report, a, fam)
    return report


def _stable(mc, f, family, mu, memo):
    """f*(mu) is the join of the pulled-back members f*(S), read from the
    whole matching colimit of f*(S)."""
    pulled = tuple(sorted({pullback_subobject(mc, f, m) for m in family}))
    return _full_join(mc, pulled, mc.base.mor_src[f], memo) == \
        pullback_subobject(mc, f, mu)


def is_geometric(mc: MCategory, max_family=None) -> LawReport:
    """GEO-COLIM, GEO-MU and GEO-STAB with the first failing family per
    object, over every family and pulling back along every map into the
    object, each join from the whole family's matching colimit; the
    reference for mcat.is_geometric, which reads antichains only."""
    c = mc.base
    report = LawReport("geometric")
    memo = {}
    for obj in c.objects:
        for family in families(sub_m(mc, obj), max_family):
            mcol = _full_colimit(mc, family, obj, memo)
            if mcol is None:
                report.add("GEO-COLIM", (obj,) + family,
                           "matching colimit does not exist")
                break
            if mcol.mu not in mc.monics:
                report.add("GEO-MU", (obj,) + family + (mcol.mu,),
                           "induced map not in M")
                break
            if not all(_stable(mc, f, family, mcol.mu, memo)
                       for f in c.into(obj)):
                report.add("GEO-STAB", (obj,) + family,
                           "matching colimit not stable under pullback")
                break
    return report


def par_join_construction(pc: ParCategory, members, src=None, tgt=None):
    """The (mu, gamma) join recipe for a compatible family of spans:
    matching colimit of the monic legs, gamma induced by the f_i legs.
    Returns a Par morphism id, or None when the construction fails.
    src/tgt are required for the empty family."""
    members = sorted(members)
    if members:
        src = pc.rc.base.mor_src[members[0]]
        tgt = pc.rc.base.mor_tgt[members[0]]
    elif src is None or tgt is None:
        raise ValueError("empty family needs explicit hom endpoints")
    family = tuple(pc.spans[i][0] for i in members)
    mcol = mcat.matching_colimit(pc.mc, family, src)
    if mcol is None or mcol.mu not in pc.mc.monics:
        return None
    # gamma: induced by the cocone of the f_i legs
    gamma = mediating(pc.mc.base, mcol.cocone, tgt,
                      [pc.spans[i][1] for i in members])
    if gamma is None:
        return None
    return pc.id_of_span(mcol.mu, gamma)


# -- maps of presheaves: Yoneda, sieves, the plus construction ---------------

def yoneda_map(c: FinCategory, f, ya=None, yb=None) -> NatTrans:
    """y(f): hom(-, src f) -> hom(-, tgt f)."""
    a, b = c.mor_src[f], c.mor_tgt[f]
    ya = ya if ya is not None else yoneda(c, a)
    yb = yb if yb is not None else yoneda(c, b)
    comps = []
    for o in c.objects:
        hom_a = c.hom(o, a)
        hom_b = c.hom(o, b)
        idx = {h: i for i, h in enumerate(hom_b)}
        comps.append(tuple(idx[c.compose(f, h)] for h in hom_a))
    return NatTrans(ya, yb, tuple(comps))


def sieve_subpresheaf(c: FinCategory, a, sieve):
    """The subpresheaf of yoneda(c, a) picked out by a sieve, with its
    inclusion.  Raises ValueError when the maps into a that lie in sieve
    are not closed under precomposition."""
    ya = yoneda(c, a)
    sub = build_presheaf(c, lambda b: [h for h in c.hom(b, a) if h in sieve],
                         lambda f, h: c.compose(h, f),
                         lambda b, h: c.mor_names[h])[0]
    comps = tuple(tuple(i for i, h in enumerate(c.hom(b, a)) if h in sieve)
                  for b in c.objects)
    return sub, NatTrans(sub, ya, comps), ya


def _class_of(p, top, classes, lookup, a, fs, fam):
    """Index of the plus class at a holding the matching family fam over
    fs, memoised in lookup."""
    key = (a, fs, fam)
    if key not in lookup:
        for i, (fs2, fam2) in enumerate(classes[a]):
            if _agree_on_refinement(p, top, a, fs, fam, fs2, fam2):
                lookup[key] = i
                break
        else:
            raise InternalInvariantError(
                "matching family matches no plus class")
    return lookup[key]


def _agree_on_refinement(p, top, a, fs1, fam1, fs2, fam2):
    d1 = dict(zip(fs1, fam1))
    d2 = dict(zip(fs2, fam2))
    both = frozenset(d1) & frozenset(d2)
    for r in top.covers[a]:
        if r <= both and all(d1[f] == d2[f] for f in r):
            return True
    return False


def plus_by_refinement(p: Presheaf, top: Topology) -> PlusData:
    """The reference for site.plus: the matching families of every covering
    sieve, taken by (size, sorted ids), each kept as a class representative
    unless it agrees with an earlier one on some cover inside both sieves;
    the action and the unit look each family up by that search."""
    c = p.cat
    classes = []
    for a in c.objects:
        pairs = []
        for sieve in sorted(top.covers[a], key=lambda s: (len(s), sorted(s))):
            fs, fams = site.matching_families(p, a, sieve)
            for fam in fams:
                pairs.append((tuple(fs), fam))
        reps = []
        for pair in pairs:
            if not any(_agree_on_refinement(p, top, a, pair[0], pair[1],
                                            r[0], r[1]) for r in reps):
                reps.append(pair)
        classes.append(tuple(reps))
    lookup = {}

    def act(f, cls):
        a = c.mor_src[f]
        fs, fam = cls
        d = dict(zip(fs, fam))
        pulled = sorted(sieve_pullback(c, frozenset(fs), f))
        pfam = tuple(d[c.compose(f, g)] for g in pulled)
        return classes[a][_class_of(p, top, classes, lookup,
                                    a, tuple(pulled), pfam)]

    plus_p = build_presheaf(c, classes.__getitem__, act)[0]
    # unit: x |-> class of (maximal sieve, restrictions of x)
    comps = []
    for a in c.objects:
        ms = tuple(sorted(maximal_sieve(c, a)))
        col = []
        for x in p.elements(a):
            fam = tuple(p.act(f, x) for f in ms)
            col.append(_class_of(p, top, classes, lookup, a, ms, fam))
        comps.append(tuple(col))
    unit = NatTrans(p, plus_p, tuple(comps))
    data = PlusData(plus_p, top, tuple(classes), unit)
    if not site.check_presheaf(plus_p) or not unit.check():
        raise InternalInvariantError("plus construction produced bad data")
    return data


def refined_class(p: Presheaf, data: PlusData, a, fs, fam):
    """Index of the class of data, plus_by_refinement(p, data.top), at a
    that holds the matching family fam over fs, by the refinement
    search."""
    return _class_of(p, data.top, data.classes, {}, a, fs, fam)


def class_of(data: PlusData, a, fs, fam):
    """Index of the plus class of data at a holding the matching family
    fam over fs: the class of its restriction to the least cover L(a),
    which every covering sieve fs holds."""
    c = data.presheaf.cat
    least = sorted(maximal_sieve(c, a).intersection(*data.top.covers[a]))
    x = dict(zip(fs, fam))
    return [rep for _, rep in data.classes[a]].index(
        tuple(x[g] for g in least))


def plus_map(alpha: NatTrans, src_plus: PlusData, tgt_plus: PlusData) -> NatTrans:
    """The plus construction on a natural transformation."""
    p, q = alpha.source, alpha.target
    c = p.cat
    comps = []
    for a in c.objects:
        col = []
        for (fs, fam) in src_plus.classes[a]:
            qfam = tuple(alpha.components[c.mor_src[f]][fam[i]]
                         for i, f in enumerate(fs))
            col.append(class_of(tgt_plus, a, fs, qfam))
        comps.append(tuple(col))
    nat = NatTrans(src_plus.presheaf, tgt_plus.presheaf, tuple(comps))
    if not nat.check():
        raise InternalInvariantError("plus of a natural map is not natural")
    return nat


def sheafify_map(alpha: NatTrans, src: SheafifyResult,
                 tgt: SheafifyResult) -> NatTrans:
    return plus_map(plus_map(alpha, src.plus1, tgt.plus1),
                    src.plus2, tgt.plus2)


# -- M_PSh and the subobject classifier ----------------------------------------

def image_sieve(mc: MCategory, alpha: NatTrans, a, x):
    """{g into a | P(g)(x) lies in the image of alpha at src(g)}."""
    c = mc.base
    p = alpha.target
    images = [set(comp) for comp in alpha.components]
    return frozenset(g for g in c.into(a)
                     if p.act(g, x) in images[c.mor_src[g]])


def principal_generator(mc: MCategory, a, sieve):
    """The canonical m in M generating the sieve, or None."""
    c = mc.base
    for m in sub_m(mc, a):
        if generate_sieve(c, a, (m,)) == sieve:
            return m
    return None


def m_psh_member(mc: MCategory, alpha: NatTrans) -> bool:
    """alpha is a componentwise-monic map whose pullback along every element
    of the target is represented by a monic in M."""
    if not alpha.is_monic_componentwise():
        return False
    c = mc.base
    p = alpha.target
    for a in c.objects:
        for x in p.elements(a):
            if principal_generator(mc, a, image_sieve(mc, alpha, a, x)) is None:
                return False
    return True


def m_sh_member(mc: MCategory, top: Topology, alpha: NatTrans) -> bool:
    return m_psh_member(mc, alpha) and \
        is_sheaf(alpha.source, top).ok and is_sheaf(alpha.target, top).ok


def sigma_classifier(mc: MCategory) -> Presheaf:
    """Sigma(A) = canonical M-subobjects of A; action by pullback."""
    c = mc.base
    return build_presheaf(c, lambda a: sub_m(mc, a),
                          partial(pullback_subobject, mc),
                          lambda a, m: c.mor_names[m])[0]


def characteristic_map(mc: MCategory, sigma: Presheaf,
                       alpha: NatTrans) -> NatTrans:
    """chi: P -> Sigma sending x to the M-subobject classifying alpha at x."""
    c = mc.base
    p = alpha.target
    index = [{m: i for i, m in enumerate(sub_m(mc, a))}
             for a in c.objects]
    comps = []
    for a in c.objects:
        col = []
        for x in p.elements(a):
            m = principal_generator(mc, a, image_sieve(mc, alpha, a, x))
            if m is None:
                raise ValueError("alpha is not an M_PSh subobject")
            col.append(index[a][m])
        comps.append(tuple(col))
    chi = NatTrans(p, sigma, tuple(comps))
    if not chi.check():
        raise InternalInvariantError("characteristic map is not natural")
    return chi


def classification_report(mc: MCategory, sigma: Presheaf,
                          alpha: NatTrans) -> LawReport:
    """chi is the unique map P -> Sigma whose top-preimage is exactly the
    image of alpha."""
    report = LawReport("classification")
    c = mc.base
    p = alpha.target
    chi = characteristic_map(mc, sigma, alpha)
    tops = tuple(sub_m(mc, a).index(subobject_rep(mc, c.identity[a]))
                 for a in c.objects)
    images = [set(comp) for comp in alpha.components]

    def classifies(nat):
        for a in c.objects:
            for x in p.elements(a):
                if (nat.components[a][x] == tops[a]) != (x in images[a]):
                    return False
        return True

    if not classifies(chi):
        report.add("CLASS-PB", (), "chi's top-preimage differs from alpha")
    count = 0
    for nat in all_nat_trans(p, sigma):
        if classifies(nat):
            count += 1
            if nat.components != chi.components:
                report.add("CLASS-UNIQUE", (), "a second classifying map exists")
    if count == 0:
        report.add("CLASS-NONE", (), "no classifying map at all")
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
    collaged and judged by the category-level law checkers.  A composite
    outside the collage, such as an action value out of range, is refused
    with ValueError.
    """
    x = rp.rc
    c = x.base
    p = rp.presheaf
    point = "*"
    # keys: base morphisms by id, the element e of P(a) as (a, e), then 1*
    elems = [(a, e) for a in c.objects for e in p.elements(a)]
    ends = {f: (c.mor_src[f], c.mor_tgt[f]) for f in c.morphisms()}
    ends.update({k: (k[0], point) for k in elems})
    ends[point] = (point, point)

    def compose(g, fs):
        if g == point:
            return fs
        if isinstance(g, tuple):
            return [(c.mor_src[f], p.act(f, g[1])) for f in fs]
        return [c.compose(g, f) for f in fs]

    cat, _, mor_id = build_category(
        list(c.objects) + [point], list(ends), ends.__getitem__,
        lambda a: point if a == point else c.identity[a], compose,
        obj_names=tuple(c.obj_names) + ("*",),
        mor_names=list(c.mor_names) +
        [f"elem:{p.name(a, e)}@{c.obj_names[a]}" for a, e in elems] + ["1*"])
    bar = tuple(x.bar) + tuple(rp.bar(a, e) for a, e in elems) + \
        (mor_id[point],)
    return Collage(RestrictionCategory(cat, bar), c.n_objects,
                   {f: f for f in c.morphisms()},
                   tuple(tuple(mor_id[(a, e)] for e in p.elements(a))
                         for a in c.objects))


