"""Brute-force reference implementations that the faster library code is
checked against.  They enumerate everything and are only fit for small
fixtures."""

import itertools

from rcwb.site import generate_sieve


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
