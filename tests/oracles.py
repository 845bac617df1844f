"""Brute-force reference implementations that the faster library code is
checked against.  They enumerate everything and are only fit for small
fixtures."""

import itertools

from rcwb.fincat import Cocone, PullbackCone, pullback
from rcwb.site import generate_sieve


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


def is_sieve(c, a, s) -> bool:
    for f in s:
        if c.mor_tgt[f] != a:
            return False
        for g in c.into(c.mor_src[f]):
            if c.comp[(f, g)] not in s:
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


def cocones_at(c, d, apex):
    """All cocones under d with the given apex, by backtracking over every
    shape object in id order."""
    s = d.shape
    n = s.n_objects
    arrows = [u for u in s.morphisms() if not s.is_identity(u)]
    out = []
    legs = [None] * n

    def extend(k):
        if k == n:
            out.append(tuple(legs))
            return
        for leg in c.hom(d.obj_map[k], apex):
            legs[k] = leg
            ok = True
            for u in arrows:
                i, j = s.mor_src[u], s.mor_tgt[u]
                if legs[i] is None or legs[j] is None:
                    continue
                if (i == k or j == k) and \
                        c.comp[(legs[j], d.mor_map[u])] != legs[i]:
                    ok = False
                    break
            if ok:
                extend(k + 1)
        legs[k] = None

    extend(0)
    return out


def pullback_cone(c, f, g):
    """The first cone (apex, p, q) over the cospan (f, g), in that order, to
    which every commuting square f∘p' == g∘q' maps by exactly one h, found
    by building every square at every object by a p × q double loop and
    counting mediating maps per square; the reference for fincat.pullback.
    """
    x, y = c.mor_src[f], c.mor_src[g]
    cones = {t: [(p, q) for p in c.hom(t, x) for q in c.hom(t, y)
                 if c.comp[(f, p)] == c.comp[(g, q)]] for t in c.objects}
    for apex in c.objects:
        for p, q in cones[apex]:
            if all(_one_each(cones[t], [(c.comp[(p, h)], c.comp[(q, h)])
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
                   _one_each(cocones[t], [tuple(c.comp[(h, leg)]
                                                for leg in legs)
                                          for h in c.hom(apex, t)])
                   for t in c.objects):
                return Cocone(apex, legs)
    return None


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
        if all(x[c.comp[(f, g)]] == p.act(g, x[f])
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
    out = []
    for g in c.morphisms():
        b = c.mor_tgt[g]
        for f in c.into(c.mor_src[g]):
            gf = c.comp.get((g, f))
            if gf is None:
                continue
            for h in c.morphisms():
                if c.mor_src[h] != b:
                    continue
                lhs = c.comp.get((h, gf))
                hg = c.comp.get((h, g))
                rhs = None if hg is None else c.comp.get((hg, f))
                if lhs != rhs or lhs is None:
                    out.append((h, g, f))
    return out
