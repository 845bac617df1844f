"""Finite categories as explicit composition tables.

Objects and morphisms are dense non-negative integers.  Composition is a
total table on composable pairs, stored once, as one row per map: rows[g]
holds g∘f for each f in into(src g), in that order, and pos[f] is the index
of f in into(tgt f), so g∘f is rows[g][pos[f]].  `FinCategory.compose`
reads one entry and checks that the pair is composable; the hot loops here
and in the law checks read rows directly, and `FinCategory.pairs` lists
the table as (g, f, g∘f) triples.  Limits and colimits are found by
exhaustive search and verified against every (co)cone, so a returned answer
is a certificate, not a guess.  All canonical choices break ties by
smallest id.

Pullbacks and colimits share one certificate, `_universal`, which counts
maps against (co)cones.  It is sound only because the (co)cones at each
object are listed exhaustively and without duplicates, and composing a
(co)cone with a map gives a (co)cone again; a caller that breaks any of the
three gets answers that are not certified.  A pullback is searched only for
the least cospan of its class under precomposing each leg with an iso, and
moved to the other cospans of the class along those isos: their cone
functors are isomorphic, and the universal cones at one apex form a single
orbit under its automorphisms, so the least of that orbit is the cone the
search would return (the proof is in `pullback`).

Every category comes from `build_category`: Par, the Karoubi splitting,
subcategories, the fixtures and loaded bundles.  It asks for one row of
composites per map, refuses an endpoint, identity or composite outside its
keys and an identity that is not an endomorphism of its object, and writes
the rows itself.  So every table is total: each composable pair has an
entry, and each entry is a map.  The category laws, the endpoints of each
composite among them, are left to `validate_category`.  It certifies
associativity on a generating set (Light's test, see
`FinCategory.generators`) and scans every triple only when that
certificate fails; `certified` reads the other laws the same way.  A
diagram needs no shape category: it is a graph of objects and maps, and a
cocone is one condition per arrow.

A category's tables are fixed at construction; its lazy tables fill on
first use: the canonical pullback of each cospan asked for
(`_pullback_cache`), the maps into the source of each second leg a
pullback search read, indexed by their composite with it
(`_second_legs`), the size of every hom-set (`_hom_counts`), the
isomorphisms and their inverses (`isos`), the isomorphisms into each
object (`isos_into`), the certified generators (`generators`) and the
least iso of each map asked for (`least_iso`).  The code is
single-threaded.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .reports import LawReport

_UNKNOWN = object()     # FinCategory.generators not yet computed


class FinCategory:
    """A finite category given by explicit tables.

    Composition is stored once, as rows: rows[g] holds g∘f for each f in
    into(src g), in that order, and pos[f] is the index of f in
    into(tgt f), so g∘f is rows[g][pos[f]] (`compose`).  The rows come
    finished from `build_category`, the one caller, which has checked that
    every entry is a map and every identity an endomorphism of its object.
    """

    def __init__(self, n_objects, mor_src, mor_tgt, identity, rows,
                 obj_names=None, mor_names=None):
        self.n_objects = n_objects
        self.objects = tuple(range(n_objects))
        self.mor_src = tuple(mor_src)
        self.mor_tgt = tuple(mor_tgt)
        self.identity = tuple(identity)
        self.n_morphisms = n = len(self.mor_src)
        self.obj_names = tuple(obj_names) if obj_names else tuple(
            str(a) for a in self.objects)
        self.mor_names = tuple(mor_names) if mor_names else tuple(
            str(f) for f in range(n))

        hom = {}
        into = [[] for _ in self.objects]
        out = [[] for _ in self.objects]
        pos = []
        for f, (a, b) in enumerate(zip(self.mor_src, self.mor_tgt)):
            hom.setdefault((a, b), []).append(f)
            out[a].append(f)
            pos.append(len(into[b]))
            into[b].append(f)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._into = tuple(map(tuple, into))
        self._into_src = tuple(tuple(self.mor_src[f] for f in fs)
                               for fs in into)
        self._out = tuple(map(tuple, out))
        self.pos = tuple(pos)
        self.rows = tuple(rows)
        self._pullback_cache = {}
        self._second_legs = {}
        self._hom_counts = None
        self._isos = None
        self._isos_into = None
        self._least_isos = {}
        self._generators = _UNKNOWN

    # -- basic accessors ---------------------------------------------------

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def into(self, b):
        """All morphisms with target b."""
        return self._into[b]

    def out_of(self, a):
        """All morphisms with source a, in ascending id order."""
        return self._out[a]

    def morphisms(self):
        return range(self.n_morphisms)

    def compose(self, g, f):
        """g∘f; ValueError unless tgt f == src g.  Hot loops read
        rows[g][pos[f]] instead."""
        if self.mor_tgt[f] != self.mor_src[g]:
            raise ValueError(f"maps {g} and {f} are not composable")
        return self.rows[g][self.pos[f]]

    def pairs(self):
        """Every (g, f, g∘f) of the table, g-major in id order and then f
        in ascending id order."""
        into = self._into
        for g, row in enumerate(self.rows):
            for f, gf in zip(into[self.mor_src[g]], row):
                yield g, f, gf

    def is_identity(self, f):
        return self.identity[self.mor_src[f]] == f and \
            self.mor_src[f] == self.mor_tgt[f]

    # -- isomorphisms ------------------------------------------------------

    def isos(self):
        """All isomorphisms, with their inverses: dict f -> f_inv."""
        if self._isos is None:
            out = {}
            rows, pos = self.rows, self.pos
            for f in self.morphisms():
                a, b = self.mor_src[f], self.mor_tgt[f]
                # f∘g is the identity of b only if rows[f] holds it
                if self.identity[b] not in rows[f]:
                    continue
                for g in self.hom(b, a):
                    if rows[g][pos[f]] == self.identity[a] and \
                            rows[f][pos[g]] == self.identity[b]:
                        out[f] = g
                        break
            self._isos = out
        return self._isos

    def isos_into(self, b):
        """The isomorphisms with target b, in ascending id order."""
        if self._isos_into is None:
            into = {a: [] for a in self.objects}
            for f in self.isos():
                into[self.mor_tgt[f]].append(f)
            self._isos_into = {a: tuple(fs) for a, fs in into.items()}
        return self._isos_into[b]

    def is_iso(self, f):
        return f in self.isos()

    # -- generators ----------------------------------------------------------

    def generators(self):
        """A generating set certified by Light's associativity test, as a
        frozenset of morphism ids, or None when this is not a category.

        The isomorphisms are scanned first, in id order, then the other
        maps in id order, and each map outside the composition closure of
        the identities and the generators scanned before it becomes a
        generator.  Taking the isos first keeps the set small: a composite
        with an iso factor is seldom a generator then (finset_p_3 has 19
        generators this way and 33 in plain id order).  The set is returned
        only when the identity laws and the table checks of
        `validate_category` hold and (h∘g)∘f == h∘(g∘f) for every generator
        g and every composable h, f.

        That certifies every triple (F. W. Light's test; Clifford & Preston,
        *The Algebraic Theory of Semigroups* I, 1961).  Call g
        associative when (h∘g)∘f == h∘(g∘f) for all composable h, f.  An
        identity is, by the identity laws.  If g and g' are, so is g∘g':
        (h∘(g∘g'))∘f = ((h∘g)∘g')∘f = (h∘g)∘(g'∘f) = h∘(g∘(g'∘f))
        = h∘((g∘g')∘f), using g, g', g and g' in turn.  So the associative
        maps are closed under composition, contain the identities and the
        generators, and hence are all maps.
        """
        if self._generators is _UNKNOWN:
            self._generators = _certified_generators(self)
        return self._generators


def build_category(objects, morphisms, ends, identity, compose,
                   obj_names=None, mor_names=None):
    """The category on sequences of distinct object and morphism keys,
    numbered in the order given, as (FinCategory, object key -> id,
    morphism key -> id).

    ends(f) is the (source, target) pair of object keys of morphism f,
    identity(a) the key of the identity on a, and compose(g, fs) the list of
    the keys of g∘f for each f in fs, the keys of the maps into src g in id
    order.  compose runs once per map g, in id order, and its list is the
    row of g (see FinCategory).  Raises ValueError when an endpoint,
    identity or composite is not a key, or an identity is not an
    endomorphism of its object.
    """
    obj_id = {a: i for i, a in enumerate(objects)}
    mor_id = {f: i for i, f in enumerate(morphisms)}
    if len(obj_id) != len(objects) or len(mor_id) != len(morphisms):
        raise ValueError("duplicate object or morphism key")
    src, tgt = [], []
    into = [[] for _ in obj_id]     # per object: the key of each map in
    for f in mor_id:
        a, b = ends(f)
        if a not in obj_id or b not in obj_id:
            raise ValueError(f"an endpoint of {f!r} is not an object")
        src.append(obj_id[a])
        tgt.append(obj_id[b])
        into[obj_id[b]].append(f)
    ids = []
    for a, k in obj_id.items():
        i = identity(a)
        if i not in mor_id:
            raise ValueError(f"identity {i!r} of {a!r} is not a morphism")
        if src[mor_id[i]] != k or tgt[mor_id[i]] != k:
            raise ValueError(f"identity {i!r} of {a!r} is not an "
                             f"endomorphism of it")
        ids.append(mor_id[i])
    get = mor_id.get
    rows = []
    for g, j in mor_id.items():
        fs = into[src[j]]
        keys = compose(g, fs)
        row = tuple(map(get, keys))
        if None in row:
            i = row.index(None)
            raise ValueError(f"composite {keys[i]!r} of {g!r}, {fs[i]!r} "
                             f"is not a morphism")
        rows.append(row)
    cat = FinCategory(len(obj_id), src, tgt, ids, rows, obj_names=obj_names,
                      mor_names=mor_names)
    return cat, obj_id, mor_id


def validate_category(c: FinCategory) -> LawReport:
    """Check identity and associativity laws plus the shape of the
    composition rows.

    Violations are report entries; an empty report means c is a category.
    When c.generators() certifies c, no triple is scanned again; otherwise
    every triple is, so the entries and their order do not depend on the
    generators.  A table with a composite of the wrong endpoints
    (COMP-SHAPE) has no triples to compose, and gets no ASSOC scan.
    """
    if c.generators() is not None:
        return LawReport("category")
    report = _table_report(c)
    if "COMP-SHAPE" not in report.tags():
        _associativity(c, c.morphisms(), report)
    return report


def certified(c: FinCategory, scan):
    """scan(pick), with pick(ms) the generators of c among the maps ms in
    their order (FinCategory.generators), when c has certified generators
    and that pass finds nothing (a falsy result); otherwise scan(list), the
    pass along every map, so the result never depends on the generators.

    scan checks a law at each map that pick lets through.  A clean pass
    along the generators proves it at every map, so the full pass would be
    clean too, once the caller shows its induction step: the law holds at
    the identities, and the law at a generator g, as the pass checked it,
    with the law at a shorter word w, over all the pass would check at w,
    gives the law at g∘w (or at w∘g).  Every map is a word in the
    generators, so induction on its length does the rest.
    """
    gens = c.generators()
    if gens is not None:
        found = scan(lambda ms: [m for m in ms if m in gens])
        if not found:
            return found
    return scan(list)


def _table_report(c: FinCategory) -> LawReport:
    """The identity laws and the shape of the rows."""
    report = LawReport("category")
    src, tgt, rows, pos = c.mor_src, c.mor_tgt, c.rows, c.pos
    for f in c.morphisms():
        il = c.identity[tgt[f]]
        ir = c.identity[src[f]]
        if rows[il][pos[f]] != f:
            report.add("ID-LEFT", (il, f), "comp(id, f) != f")
        if rows[f][pos[ir]] != f:
            report.add("ID-RIGHT", (f, ir), "comp(f, id) != f")
    # a full row of g: a -> b holds a map s -> b for each map s -> a
    ends = tuple(s * c.n_objects + t for s, t in zip(src, tgt))
    want = {}
    for g, row in enumerate(rows):
        a, b = src[g], tgt[g]
        if (a, b) not in want:
            want[a, b] = tuple(s * c.n_objects + b for s in c._into_src[a])
        if len(row) > 1 and itemgetter(*row)(ends) == want[a, b]:
            continue
        for f, gf in zip(c.into(src[g]), row):
            if not (src[gf] == src[f] and tgt[gf] == b):
                report.add("COMP-SHAPE", (g, f, gf),
                           "composite has wrong endpoints")
    return report


def _associativity(c: FinCategory, middles, report: LawReport):
    """Add an ASSOC entry for each composable (h, g, f) with g in middles
    and h∘(g∘f) != (h∘g)∘f, in (g, f, h) order.

    The rows must have the right endpoints (no COMP-SHAPE entry): then g∘f
    ends at tgt g and h∘g starts at src g, so both sides are entries."""
    src, tgt, rows, pos = c.mor_src, c.mor_tgt, c.rows, c.pos
    columns = {}    # b -> the column at each k of the rows of out_of(b)
    for g in middles:
        a, b, row_g = src[g], tgt[g], rows[g]
        hs = c.out_of(b)
        pg = pos[g]
        if b not in columns:
            # column k holds h∘x for every h, with x at k in into(b)
            columns[b] = list(zip(*[rows[h] for h in hs]))
        cols_hgf = columns[b]
        # column k holds (h∘g)∘x for every h, with x at k in into(a)
        cols_hg_f = list(zip(*[rows[rows[h][pg]] for h in hs]))
        for f, gf in zip(c.into(a), row_g):
            lhs, rhs = cols_hgf[pos[gf]], cols_hg_f[pos[f]]
            if lhs != rhs:
                for h, l, r in zip(hs, lhs, rhs):
                    if l != r:
                        report.add("ASSOC", (h, g, f), "h(gf) != (hg)f")


def _certified_generators(c: FinCategory):
    """FinCategory.generators, computed afresh."""
    report = _table_report(c)
    if not report.ok:
        return None
    rows, pos, src, tgt = c.rows, c.pos, c.mor_src, c.mor_tgt
    isos = c.isos()
    closed = set(c.identity)
    gens = []
    gens_into = [[] for _ in c.objects]
    gens_out = [[] for _ in c.objects]
    for m in sorted(isos) + [m for m in c.morphisms() if m not in isos]:
        if m in closed:
            continue
        gens.append(m)
        gens_into[tgt[m]].append(m)
        gens_out[src[m]].append(m)
        closed.add(m)
        todo = [m]
        # the closure is the least set holding the identities and the
        # generators that is closed under composing with a generator on
        # either side; a map w∘m with w in the closure before m is reached
        # from m one letter of w at a time, and once a step lands in that
        # closure the rest stays in it, so only the new maps need composing
        while todo:
            x = todo.pop()
            row_x, px = rows[x], pos[x]
            for z in [row_x[pos[g]] for g in gens_into[src[x]]] + \
                    [rows[g][px] for g in gens_out[tgt[x]]]:
                if z not in closed:
                    closed.add(z)
                    todo.append(z)
    _associativity(c, gens, report)
    return frozenset(gens) if report.ok else None


def is_mono(c: FinCategory, m) -> bool:
    """True iff m is left-cancellable: h ↦ m∘h is one-to-one on every
    hom(t, src m)."""
    if not 0 <= m < c.n_morphisms:
        raise ValueError(f"unknown morphism id {m}")
    a = c.mor_src[m]
    row, pos = c.rows[m], c.pos
    for t in c.objects:
        hs = c.hom(t, a)
        if len({row[pos[h]] for h in hs}) != len(hs):
            return False
    return True


def least_iso(c: FinCategory, f) -> int:
    """The iso phi into src f that minimises f∘phi, the first such in
    `FinCategory.isos_into` order, and the identity when f is already the
    least: f∘phi is the least member of f's orbit under precomposition
    with isos.  Scanned once per map and kept in c._least_isos."""
    memo = c._least_isos
    if f not in memo:
        src = c.mor_src[f]
        row, pos = c.rows[f], c.pos
        best, best_phi = f, c.identity[src]
        for phi in c.isos_into(src):
            if row[pos[phi]] < best:
                best, best_phi = row[pos[phi]], phi
        memo[f] = best_phi
    return memo[f]


# -- diagrams, cones, cocones ----------------------------------------------

class Diagram(namedtuple("Diagram", "obj_map arrows")):
    """A diagram given by a graph that generates its shape: obj_map[v] is
    the object at vertex v, and each arrow (i, j, f) is a map f from
    obj_map[i] to obj_map[j].  A cocone needs leg_j∘f == leg_i for each
    arrow only (Mac Lane, CWM §II.7, §III.3)."""
    __slots__ = ()

    def check(self, c: FinCategory) -> bool:
        """Whether every vertex is an object of c and every arrow a map of c
        between the objects at its ends."""
        objs = self.obj_map
        return all(0 <= a < c.n_objects for a in objs) and all(
            0 <= i < len(objs) and 0 <= j < len(objs) and
            0 <= f < c.n_morphisms and
            (c.mor_src[f], c.mor_tgt[f]) == (objs[i], objs[j])
            for i, j, f in self.arrows)


class Cocone(namedtuple("Cocone", "apex legs")):
    """A cocone with apex object apex and legs indexed by vertex."""
    __slots__ = ()


class PullbackCone(namedtuple("PullbackCone", "apex p q")):
    """Terminal cone over a cospan (f, g): f∘p == g∘q, with p: apex ->
    src(f) and q: apex -> src(g)."""
    __slots__ = ()


def pullback(c: FinCategory, f, g):
    """Canonical pullback of the cospan (f, g), or None: the first cone in
    (apex, p, q) order that every cone factors through uniquely.  The
    result is cached per cospan.

    Only the least cospan of each class is searched, by `_pullback_search`.
    With phi = least_iso(c, f) and gamma = least_iso(c, g), the cospan
    (f0, g0) = (f∘phi, g∘gamma) is searched (or read from the cache), and
    its cone (p0, q0) is carried over to (f, g):

    - (p0, q0) ↦ (phi∘p0, gamma∘q0) is a bijection from the cones of
      (f0, g0) at t onto those of (f, g) at t, with inverse
      (p, q) ↦ (phi⁻¹∘p, gamma⁻¹∘q), and it commutes with precomposition
      by any h.  So the two cone functors are isomorphic, a cone is
      universal for (f0, g0) iff its image is universal for (f, g), and
      the same apexes carry universal cones: the first of them is the
      apex of both canonical pullbacks.
    - The universal cones of (f, g) at one apex L form a single orbit
      (p∘psi, q∘psi) under the automorphisms psi of L: precomposing a
      universal cone with an iso gives a universal cone, and the map
      between two of them is an iso (Mac Lane, CWM §III.4).  The search
      picks the least cone at L, so the canonical pullback of (f, g) is
      the least (phi∘p0∘psi, gamma∘q0∘psi) over Aut(L).
    """
    if c.mor_tgt[f] != c.mor_tgt[g]:
        raise ValueError("pullback needs a cospan: tgt(f) != tgt(g)")
    cache = c._pullback_cache
    key = (f, g)
    if key in cache:
        return cache[key]
    rows, pos = c.rows, c.pos
    phi, gamma = least_iso(c, f), least_iso(c, g)
    rep = (rows[f][pos[phi]], rows[g][pos[gamma]])
    if rep not in cache:
        cache[rep] = _pullback_search(c, *rep)
    cone = cache[rep]
    if cone is not None and rep != key:
        row_p = rows[rows[phi][pos[cone.p]]]
        row_q = rows[rows[gamma][pos[cone.q]]]
        apex = cone.apex
        cone = PullbackCone(apex, *min(
            (row_p[pos[psi]], row_q[pos[psi]]) for psi in c.isos_into(apex)
            if c.mor_src[psi] == apex))
    cache[key] = cone
    return cone


def _pullback_search(c: FinCategory, f, g):
    """The canonical pullback of (f, g) found by search, or None.

    The cones at each object t are the pairs (p, q) with f∘p == g∘q, found
    by looking f∘p up, for each p in hom(t, src f), in an index of
    hom(t, src g) by g∘q that is built once per g and kept in
    c._second_legs; the winner is certified by `_universal`.
    """
    rows, pos = c.rows, c.pos
    row_f = rows[f]
    x = c.mor_src[f]
    index = c._second_legs.get(g)
    if index is None:
        index = c._second_legs[g] = _second_leg_index(c, g)
    cones = [[(p, q) for p in c.hom(t, x)
              for q in by_gq.get(row_f[pos[p]], ())]
             for t, by_gq in zip(c.objects, index)]

    def one_to_one(apex):
        # h ↦ (p∘h, q∘h, src h) is one-to-one on into(apex) iff h ↦ (p∘h,
        # q∘h) is on each hom(t, apex), as t is src h
        srcs = c._into_src[apex]
        return lambda pq: len(set(zip(rows[pq[0]], rows[pq[1]], srcs))) \
            == len(srcs)

    found = _universal(c, cones, _hom_counts(c)[0], one_to_one)
    return None if found is None else PullbackCone(found[0], *found[1])


def _second_leg_index(c: FinCategory, g):
    """Per object t, g∘q -> the maps q in hom(t, src g) with that composite,
    in id order."""
    row_g, pos, y = c.rows[g], c.pos, c.mor_src[g]
    index = []
    for t in c.objects:
        by_gq = {}
        for q in c.hom(t, y):
            by_gq.setdefault(row_g[pos[q]], []).append(q)
        index.append(by_gq)
    return index


def _hom_counts(c: FinCategory):
    """(into, out): into[b] lists |hom(t, b)| and out[a] lists |hom(a, t)|
    for every object t, as tuples; computed once per category."""
    if c._hom_counts is None:
        objs = c.objects
        c._hom_counts = (
            tuple(tuple(len(c.hom(t, b)) for t in objs) for b in objs),
            tuple(tuple(len(c.hom(a, t)) for t in objs) for a in objs))
    return c._hom_counts


def _universal(c, cones, counts, one_to_one):
    """The first (apex, cone), in apex order and then in sorted cone order,
    that is universal, or None.

    cones[t] lists the cones at object t, counts[apex][t] is the size of
    the hom-set homs(t, apex) whose maps act on the cones at apex, and
    one_to_one(apex)(cone) says whether h ↦ act(h, cone), the cone at t
    that h carries the cone at apex to, is one-to-one on homs(t, apex) for
    every t.  A cone is universal iff that map is a bijection from
    homs(t, apex) onto cones[t] for every t: limits and colimits represent
    their cone functors (Mac Lane, CWM §III.4).  That is certified by
    counting, |homs(t, apex)| == |cones[t]| for every t (it depends only on
    the apex, so it is tested once per apex), plus one_to_one.  The count
    is sound only if every cones[t] is exhaustive and free of duplicates,
    and every act(h, cone) is a cone at t: then a one-to-one map between
    finite sets of one size is onto.
    """
    sizes = tuple(map(len, cones))
    for apex in c.objects:
        if sizes[apex] and counts[apex] == sizes:
            test = one_to_one(apex)
            for cone in sorted(cones[apex]):
                if test(cone):
                    return apex, cone
    return None


def forced_assignments(n, domain, forces, push, order=None):
    """Every assignment of a value to each of the slots 0..n-1 in which
    every forcing edge holds, as tuples, lazily.

    forces[k] lists the edges (i, label) out of slot k: once slot k holds v,
    slot i must hold push(label, v).  The search branches only on slots no
    earlier choice has forced, in the given order (id order by default),
    trying the values of domain(k) in turn.  Forced values are pushed at
    once and a clash prunes the branch where it arises.  The assignments
    come out in lexicographic order of the slots taken in that order.
    """
    order = range(n) if order is None else order
    values = [None] * n
    trail = []

    def assign(k, v):
        """Set slot k and every slot it forces, recording each in trail;
        False on a clash."""
        values[k] = v
        trail.append(k)
        stack = [k]
        while stack:
            j = stack.pop()
            for i, label in forces[j]:
                forced = push(label, values[j])
                if values[i] is None:
                    values[i] = forced
                    trail.append(i)
                    stack.append(i)
                elif values[i] != forced:
                    return False
        return True

    def extend(pos):
        while pos < n and values[order[pos]] is not None:
            pos += 1
        if pos == n:
            yield tuple(values)
            return
        k = order[pos]
        for v in domain(k):
            mark = len(trail)
            if assign(k, v):
                yield from extend(pos + 1)
            while len(trail) > mark:
                values[trail.pop()] = None

    return extend(0)


def diagram_assignments(d: Diagram, domain, push):
    """Every assignment of a value in domain(v) to each vertex v of d with
    value_i == push(f, value_j) for each arrow (i, j, f), lazily, from
    forced_assignments: the value at j forces the one at i, so it branches
    first on the vertices that are the source of no arrow, in id order.
    Cocones have push(f, leg) == leg∘f, matching tuples P(f)(x)."""
    n = len(d.obj_map)
    forces = [[] for _ in range(n)]     # j -> [(i, f) for (i, j, f)]
    for i, j, f in d.arrows:
        forces[j].append((i, f))
    sources = {i for i, _, _ in d.arrows}
    return forced_assignments(n, domain, forces, push,
                              sorted(range(n), key=lambda k: k in sources))


def cocones_at(c: FinCategory, d: Diagram, apex):
    """All cocones under d with the given apex, from diagram_assignments."""
    rows, pos, objs = c.rows, c.pos, d.obj_map
    return list(diagram_assignments(
        d, lambda k: c.hom(objs[k], apex), lambda f, leg: rows[leg][pos[f]]))


def colimit(c: FinCategory, d: Diagram):
    """Canonical colimit of d, or None.

    Every cocone under d at every object is enumerated by `cocones_at`; the
    winner is the first cocone in (apex, legs) order that factors uniquely
    into every cocone by h ↦ (h∘leg_i), certified by `_universal`.
    """
    if not d.check(c):
        raise ValueError("invalid diagram")
    rows, pos = c.rows, c.pos

    def act(h, legs):
        row = rows[h]
        return tuple([row[pos[leg]] for leg in legs])

    def one_to_one(apex):
        # a map out of at most one element is one-to-one
        hsets = [hs for hs in (c.hom(apex, t) for t in c.objects)
                 if len(hs) > 1]
        return lambda legs: all(len({act(h, legs) for h in hs}) == len(hs)
                                for hs in hsets)

    found = _universal(c, [cocones_at(c, d, apex) for apex in c.objects],
                       _hom_counts(c)[1], one_to_one)
    return None if found is None else Cocone(*found)


def mediating(c: FinCategory, coc: Cocone, apex, legs):
    """The unique map h: coc.apex -> apex with h∘coc.legs[i] == legs[i] for
    each given leg, or None when there is none or more than one.

    legs may cover only the first vertices of coc.  That loses nothing when
    each vertex left out is the source of an arrow (v, i, f) into a covered
    vertex i, as the pair vertices of a matching diagram are: h∘leg_v is
    then h∘leg_i∘f.
    """
    found = None
    pos = c.pos
    for h in c.hom(coc.apex, apex):
        row = c.rows[h]
        if all(row[pos[leg]] == want for leg, want in zip(coc.legs, legs)):
            if found is not None:
                return None
            found = h
    return found


# -- functors ----------------------------------------------------------------

class Functor(namedtuple("Functor", "source target obj_map mor_map")):
    """A functor between finite categories, given by its object and
    morphism tables."""
    __slots__ = ()

    def check(self) -> bool:
        s, t, om, mm = self
        for f in s.morphisms():
            ff = mm[f]
            if t.mor_src[ff] != om[s.mor_src[f]]:
                return False
            if t.mor_tgt[ff] != om[s.mor_tgt[f]]:
                return False
        for a in s.objects:
            if mm[s.identity[a]] != t.identity[om[a]]:
                return False
        # F maps into(src g) into into(src Fg), so Fg's row holds Fg∘Ff
        pos = t.pos
        for g, row in enumerate(s.rows):
            row_fg = t.rows[mm[g]]
            for f, gf in zip(s.into(s.mor_src[g]), row):
                if row_fg[pos[mm[f]]] != mm[gf]:
                    return False
        return True

    def is_full_and_faithful(self) -> bool:
        s, t = self.source, self.target
        for a in s.objects:
            for b in s.objects:
                images = [self.mor_map[f] for f in s.hom(a, b)]
                codomain = t.hom(self.obj_map[a], self.obj_map[b])
                if len(set(images)) != len(images):
                    return False
                if set(images) != set(codomain):
                    return False
        return True


def compose_functors(g: Functor, f: Functor) -> Functor:
    if f.target is not g.source:
        raise ValueError("functors not composable")
    return Functor(f.source, g.target,
                   tuple(g.obj_map[a] for a in f.obj_map),
                   tuple(g.mor_map[m] for m in f.mor_map))


# -- subcategories -----------------------------------------------------------

class Subcategory(namedtuple("Subcategory", "cat obj_old mor_old mor_new")):
    """A subcategory with reindexed dense ids, plus translation tables:
    obj_old and mor_old map new object and morphism ids to old ones, and
    the dict mor_new maps old morphism ids to new ones."""
    __slots__ = ()


def subcategory(c: FinCategory, objs, mors) -> Subcategory:
    """Restrict c to the given objects and morphisms; ValueError unless they
    are closed under endpoints, identities and composition."""
    objs = sorted(objs)
    mors = sorted(mors)
    rows, pos = c.rows, c.pos
    cat, _, mor_new = build_category(
        objs, mors, lambda f: (c.mor_src[f], c.mor_tgt[f]),
        c.identity.__getitem__,
        lambda g, fs: [rows[g][pos[f]] for f in fs],
        obj_names=tuple(c.obj_names[a] for a in objs),
        mor_names=tuple(c.mor_names[f] for f in mors))
    return Subcategory(cat, tuple(objs), tuple(mors), mor_new)
