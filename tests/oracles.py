"""Brute-force reference implementations that the faster library code is
checked against, and the constructions that only the tests use.  The
references enumerate everything and are only fit for small fixtures."""

import itertools
from dataclasses import dataclass
from functools import partial

from rcwb import fincat, mcat
from rcwb.fincat import (Cocone, Diagram, FinCategory, Functor, PullbackCone,
                         build_category, mediating, pullback)
from rcwb.fixtures import subsets_category
from rcwb.joins import (CompatibleFamily, FinitePoset, compatible_subsets,
                        families, hom_poset, join as hom_join)
from rcwb.mcat import (MatchingColimit, MCategory, ParCategory, SubMPoset,
                       matching_colimit, matching_diagram, pullback_stable,
                       pullback_subobject, sub_m, subobject_rep)
from rcwb.reports import InternalInvariantError, LawReport, Violation
from rcwb.restriction import RestrictionCategory, restriction_idempotents
from rcwb.rpsh import (RestrictionPresheaf, check_rp_axioms, element_join,
                       element_poset)
from rcwb.site import (NatTrans, PlusData, Presheaf, SheafifyResult,
                       Topology, _class_of, all_nat_trans, build_presheaf,
                       generate_sieve, is_sheaf, maximal_sieve,
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
    and, when given, its identities by identity."""
    return FinCategory(c.n_objects, c.mor_src, c.mor_tgt,
                       c.identity if identity is None else identity,
                       [(g, f, gf) for (g, f), gf in table.items()],
                       c.obj_names, c.mor_names)


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


def sieves_on(c, a):
    """All sieves on a, by closing each subset of generators."""
    into = c.into(a)
    out = set()
    for r in range(len(into) + 1):
        for gens in itertools.combinations(into, r):
            out.add(generate_sieve(c, a, gens))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def saturation_is_fixpoint(top) -> bool:
    """Whether no maximality, stability or transitivity rule adds a sieve
    to the covers, checked rule by rule on the covers as given, with the
    sieves from the subset closure above; the reference for
    site.saturation_is_fixpoint."""
    c = top.cat
    for a in c.objects:
        if maximal_sieve(c, a) not in top.covers[a]:
            return False
        for s in top.covers[a]:
            for f in c.into(a):
                if sieve_pullback(c, s, f) not in top.covers[c.mor_src[f]]:
                    return False
        for t in sieves_on(c, a):
            if t in top.covers[a]:
                continue
            for r in top.covers[a]:
                if all(sieve_pullback(c, t, f) in top.covers[c.mor_src[f]]
                       for f in r):
                    return False
    return True


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


def matching_colimit(mc, family, obj):
    """The colimit of the whole matching diagram of the family and the map
    it induces into obj, with no member dropped, or None; the reference for
    mcat.matching_colimit.  The cocone search is fincat.colimit's, which
    the brute-force colimit above checks on smaller diagrams.  The result
    keeps the legs at the members, after asserting that the leg at each
    pair vertex v is leg_i∘p for the first arrow (v, i, p) out of v."""
    c = mc.base
    d = matching_diagram(mc, family, obj)
    coc = fincat.colimit(c, d)
    if coc is None:
        return None
    for v, i, p in d.arrows[::2]:     # the first arrow out of each v
        assert coc.legs[v] == c.compose(coc.legs[i], p)
    return MatchingColimit(Cocone(coc.apex, coc.legs[:len(family)]),
                           mediating(c, coc, obj, tuple(family)))


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
    """The least (apex, m∘phi, f∘phi) over every iso phi of the category
    into dom m, in id order; the reference for mcat.canonical_span."""
    c = mc.base
    dom = c.mor_src[m]
    best = (dom, m, f)
    for phi in c.isos():
        if c.mor_tgt[phi] == dom:
            cand = (c.mor_src[phi], c.compose(m, phi), c.compose(f, phi))
            if cand < best:
                best = cand
    return best[1], best[2]


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
    """(h, g, f) for every composable triple with h(gf) != (hg)f or a
    missing composite, scanning every morphism for h."""
    def get(g, f):
        """g∘f, or None for a pair that is not composable or has no entry."""
        return c.rows[g][c.pos[f]] if c.mor_tgt[f] == c.mor_src[g] else None

    out = []
    for g in c.morphisms():
        b = c.mor_tgt[g]
        for f in c.into(c.mor_src[g]):
            gf = get(g, f)
            if gf is None:
                continue
            for h in c.morphisms():
                if c.mor_src[h] != b:
                    continue
                lhs = get(h, gf)
                hg = get(h, g)
                rhs = None if hg is None else get(hg, f)
                if lhs != rhs or lhs is None:
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
    """Whether p's action is total, P(id) = id and P(f∘g) = P(g)∘P(f) for
    every entry (f, g) of the composition table; the reference for
    site.check_presheaf."""
    c = p.cat
    for f in c.morphisms():
        a, b = c.mor_src[f], c.mor_tgt[f]
        for x in p.elements(b):
            y = p.action.get((f, x))
            if y is None or not 0 <= y < p.sizes[a]:
                return False
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


# -- restriction functors --------------------------------------------------------

def is_restriction_functor(fun: Functor, x: RestrictionCategory,
                           y: RestrictionCategory) -> bool:
    """fun preserves bar (fun must already be a functor between the bases)."""
    if fun.source is not x.base or fun.target is not y.base:
        raise ValueError("functor endpoints do not match the restriction categories")
    return all(fun.mor_map[x.bar[f]] == y.bar[fun.mor_map[f]]
               for f in x.base.morphisms())


# -- Sub_M: meets, Heyting distributivity, pullback stability, the span join --

def sub_m_meet(poset: SubMPoset, m, n) -> int:
    """m ∧ n in Sub_M(poset.obj): the canonical subobject of the pullback
    of m and n."""
    c = poset.mc.base
    cone = pullback(c, m, n)
    if cone is None:
        raise InternalInvariantError("missing meet pullback in Sub_M")
    return subobject_rep(poset.mc, c.compose(m, cone.p))


def heyting_check(mc: MCategory, obj, max_family=None) -> LawReport:
    """Distributivity m ∧ ⋁ n_i == ⋁ (m ∧ n_i) over all finite families.
    Joins stable under pullback make the subobject lattices distributive
    (Johnstone, Sketches of an Elephant, A1.4), so the tests check it as a
    property wherever is_geometric passes."""
    report = LawReport("heyting")
    poset = sub_m(mc, obj)
    for m in poset.elements:
        for family in families(poset.elements, max_family):
            lhs_join = poset.join(family)
            if lhs_join is None:
                report.add("HEYT-JOIN", (obj,) + family, "join missing")
                continue
            lhs = sub_m_meet(poset, m, lhs_join)
            meets = tuple(sorted({sub_m_meet(poset, m, n) for n in family}))
            rhs = poset.join(meets)
            if lhs != rhs:
                report.add("HEYT-DIST", (obj, m) + family,
                           "m ∧ ⋁n_i != ⋁(m ∧ n_i)")
    return report


def pullback_preserves_joins(mc: MCategory, f, max_family=None) -> LawReport:
    """f*(⋁ m_i) == ⋁ f*(m_i) over all families in Sub_M(tgt f); the
    reference for mcat.pullback_stable."""
    c = mc.base
    report = LawReport("pullback-joins")
    obj = c.mor_tgt[f]
    poset = sub_m(mc, obj)
    dom_poset = sub_m(mc, c.mor_src[f])
    for family in families(poset.elements, max_family):
        j = poset.join(family)
        if j is None:
            report.add("PBJ-JOIN", (obj,) + family, "join missing")
            continue
        lhs = pullback_subobject(mc, f, j)
        pulled = tuple(sorted({pullback_subobject(mc, f, m)
                               for m in family}))
        rhs = dom_poset.join(pulled)
        if lhs != rhs:
            report.add("PBJ", (f,) + family, "f*(⋁m_i) != ⋁f*(m_i)")
    return report


def is_geometric(mc: MCategory, max_family=None) -> LawReport:
    """GEO-COLIM, GEO-MU and GEO-STAB with the first failing family per
    object, pulling back along every map into the object; the reference
    for mcat.is_geometric."""
    c = mc.base
    report = LawReport("geometric")
    for obj in c.objects:
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


def class_of(data: PlusData, a, fs, fam):
    """Index of the plus class of data at a holding the matching family
    fam over fs."""
    return _class_of(data.source, data.top, data.classes, data.lookup,
                     a, fs, fam)


def plus_map(alpha: NatTrans, src_plus: PlusData, tgt_plus: PlusData) -> NatTrans:
    """The plus construction on a natural transformation."""
    p, q = alpha.source, alpha.target
    c = p.cat
    top = src_plus.top
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
    for m in sub_m(mc, a).elements:
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
    return build_presheaf(c, lambda a: sub_m(mc, a).elements,
                          partial(pullback_subobject, mc),
                          lambda a, m: c.mor_names[m])[0]


def characteristic_map(mc: MCategory, sigma: Presheaf,
                       alpha: NatTrans) -> NatTrans:
    """chi: P -> Sigma sending x to the M-subobject classifying alpha at x."""
    c = mc.base
    p = alpha.target
    index = [{m: i for i, m in enumerate(sub_m(mc, a).elements)}
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
    tops = tuple(sub_m(mc, a).elements.index(c.identity[a])
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


