"""Explicit isomorphism search between finite restriction categories.

Identity of objects is never assumed: isomorphisms are found by backtracking
over object bijections and hom-wise morphism bijections, pruned by degree
invariants and composition consistency.
"""

from __future__ import annotations

import itertools

from .fincat import FinCategory, Functor
from .restriction import RestrictionCategory


def _obj_invariant(c: FinCategory, a):
    out = sorted(len(c.hom(a, b)) for b in c.objects)
    inn = sorted(len(c.hom(b, a)) for b in c.objects)
    return (out, inn)


def _extend_morphisms(c, d, bar_c, bar_d, obj_map):
    """Backtrack over a morphism bijection consistent with obj_map."""
    n = c.n_morphisms
    mor_map = [None] * n
    used = set()

    def candidates(f):
        a, b = c.mor_src[f], c.mor_tgt[f]
        return d.hom(obj_map[a], obj_map[b])

    order = sorted(c.morphisms(), key=lambda f: len(candidates(f)))

    def consistent(f, ff):
        """Whether f ↦ ff keeps the identities, the bars and the composites
        among f and the maps already placed."""
        if c.is_identity(f) and not d.is_identity(ff):
            return False
        bf = bar_c[f]
        img = ff if bf == f else mor_map[bf]
        if img is not None and img != bar_d[ff]:
            return False
        for g in c.morphisms():
            gg = mor_map[g]
            if gg is None:
                continue
            if bar_c[g] == f and bar_d[gg] != ff:
                return False
            if c.composable(g, f):
                gf = c.compose(g, f)
                img = mor_map[gf]
                if img is not None and d.compose(gg, ff) != img:
                    return False
            if c.composable(f, g):
                fg = c.compose(f, g)
                img = mor_map[fg]
                if img is not None and d.compose(ff, gg) != img:
                    return False
        return True

    def place(k):
        if k == n:
            return True
        f = order[k]
        for ff in candidates(f):
            if ff in used or not consistent(f, ff):
                continue
            mor_map[f] = ff
            used.add(ff)
            if place(k + 1):
                return True
            mor_map[f] = None
            used.discard(ff)
        return False

    if place(0):
        return tuple(mor_map)
    return None


def _iso_search(c, d, bar_c, bar_d):
    if c.n_objects != d.n_objects or c.n_morphisms != d.n_morphisms:
        return None
    inv_c = [_obj_invariant(c, a) for a in c.objects]
    inv_d = [_obj_invariant(d, a) for a in d.objects]
    if sorted(inv_c) != sorted(inv_d):
        return None
    for perm in itertools.permutations(d.objects):
        if any(inv_c[a] != inv_d[perm[a]] for a in c.objects):
            continue
        if any(len(c.hom(a, b)) != len(d.hom(perm[a], perm[b]))
               for a in c.objects for b in c.objects):
            continue
        mor_map = _extend_morphisms(c, d, bar_c, bar_d, perm)
        if mor_map is not None and all(mor_map[bar_c[f]] == bar_d[mor_map[f]]
                                       for f in c.morphisms()):
            fun = Functor(c, d, perm, mor_map)
            if fun.check():
                return fun
    return None


def find_restriction_iso(x: RestrictionCategory, y: RestrictionCategory):
    """An invertible bar-preserving functor x -> y, or None."""
    return _iso_search(x.base, y.base, x.bar, y.bar)

