"""Sites of monic covers, presheaves, sheaves and sheafification.

A presheaf stores element counts per object and an explicit contravariant
action table.  Constructed presheaves (representables, constant presheaves,
the plus construction, both transfers, pulled-back and loaded presheaves)
come from `build_presheaf`.  It numbers the element keys it is given and
refuses a duplicate key or an image that is not a key; the presheaf laws are
left to `check_presheaf`.

The topology on an M-category is generated by the families of monics whose
subobject join is the whole object.  A sieve covers in it exactly when the
Sub_M join of its M-members is the whole object, so the covers are read
off that join test, one sieve at a time, and one saturation pass over them
certifies that they form a topology; the saturation loop runs only when
that pass adds a sieve.  A topology so certified is subcanonical with no
sheaf scan.  It keeps every sieve and, as its basis, the covering
antichains of Sub_M: a family has the same join and generates the same
sieve as its antichain of maximal members (see the mcat docstring), so no
other family is listed.
Sheafification is the plus construction applied twice.  Each application
reads the matching families on one sieve per object, the least cover,
which every cover holds (see `plus`), so no two families are compared.
"""

from __future__ import annotations

from collections import namedtuple

from .fincat import (FinCategory, certified, diagram_assignments,
                     forced_assignments)
from .mcat import (MCategory, antichains, join_colimit, matching_diagram,
                   sub_m, sub_m_join, subobject_rep)
from .reports import InternalInvariantError, LawReport


# -- presheaves and natural transformations ----------------------------------

class Presheaf(namedtuple("Presheaf", "cat sizes action elem_names",
                          defaults=(None,))):
    """A presheaf over cat: sizes[A] = |P(A)|; action[(f, x)] = P(f)(x) for
    f: A -> B and x in P(B), landing in P(A); elem_names[A][x], if given,
    names x."""
    __slots__ = ()

    def act(self, f, x):
        return self.action[(f, x)]

    def elements(self, a):
        return range(self.sizes[a])

    def name(self, a, x):
        if self.elem_names is None:
            return str(x)
        return self.elem_names[a][x]


def build_presheaf(c: FinCategory, elements, act, names=None):
    """The presheaf over c on the distinct element keys elements(a) at each
    object a, numbered in the order given, as (Presheaf, per object: key ->
    index).

    act(f, x) is the key of P(f)(x) at A, for f: A -> B and a key x at B; it
    runs once per such pair, maps in id order.  names(a, x), if given, names
    key x at a.  Raises ValueError for a duplicate key or an image that is
    not a key at A.
    """
    keys = [tuple(elements(a)) for a in c.objects]
    index = tuple({x: i for i, x in enumerate(ks)} for ks in keys)
    if any(len(ix) != len(ks) for ix, ks in zip(index, keys)):
        raise ValueError("duplicate element key")
    action = {}
    for f in c.morphisms():
        at = index[c.mor_src[f]]
        for i, x in enumerate(keys[c.mor_tgt[f]]):
            y = act(f, x)
            if y not in at:
                raise ValueError(f"image {y!r} of {x!r} under "
                                 f"{c.mor_names[f]!r} is not an element key")
            action[(f, i)] = at[y]
    elem_names = None if names is None else tuple(
        tuple(names(a, x) for x in ks) for a, ks in zip(c.objects, keys))
    return Presheaf(c, tuple(map(len, keys)), action, elem_names), index


def check_presheaf(p: Presheaf) -> bool:
    """P is a presheaf: P(id) = id, and P(f∘g) = P(g)∘P(f) for g among the
    maps that fincat.certified picks, the generators first, and every f
    composable after g.  The action is total and lands in P(A) by
    construction (`build_presheaf`).

    The induction step: the law holds at an identity as P(id) = id.  For
    w = w'∘g with g a generator, associativity (which the generators
    certify) and the law at g, taken at f∘w' and at w', give P(f∘w) =
    P(g)P(f∘w') = P(g)P(w')P(f) = P(w)P(f), the middle step by the law at
    the shorter word w'.
    """
    c, act = p.cat, p.action
    for a in c.objects:
        for x in p.elements(a):
            if act[c.identity[a], x] != x:
                return False
    # f: B -> C, g: A -> B, so P(f∘g) = P(g)∘P(f)
    return not certified(c, lambda pick: any(
        act[c.compose(f, g), x] != act[g, act[f, x]]
        for g in pick(c.morphisms()) for f in c.out_of(c.mor_tgt[g])
        for x in p.elements(c.mor_tgt[f])))


class NatTrans(namedtuple("NatTrans", "source target components")):
    """A natural transformation source -> target: components[a] maps each
    element of source(a) to one of target(a)."""
    __slots__ = ()

    def check(self) -> bool:
        p, q, comps = self
        c, p_act, q_act = p.cat, p.action, q.action
        for f in c.morphisms():
            a, b = c.mor_src[f], c.mor_tgt[f]
            for x in p.elements(b):
                if q_act[f, comps[b][x]] != comps[a][p_act[f, x]]:
                    return False
        return True

    def is_monic_componentwise(self) -> bool:
        return all(len(set(comp)) == len(comp) for comp in self.components)

    def is_iso(self) -> bool:
        return self.is_monic_componentwise() and all(
            set(comp) == set(self.target.elements(a))
            for a, comp in enumerate(self.components))


def compose_nat(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    if alpha.target is not beta.source and alpha.target != beta.source:
        raise ValueError("natural transformations not composable")
    return NatTrans(alpha.source, beta.target,
                    tuple(tuple(beta.components[a][x] for x in comp)
                          for a, comp in enumerate(alpha.components)))


def constant_presheaf(c: FinCategory, k) -> Presheaf:
    """k elements at every object, every action the identity."""
    return build_presheaf(c, lambda a: range(k), lambda f, x: x)[0]


# -- representables -----------------------------------------------------------

def yoneda(c: FinCategory, a) -> Presheaf:
    """The representable presheaf hom(-, a)."""
    return build_presheaf(c, lambda b: c.hom(b, a),
                          lambda f, h: c.compose(h, f),
                          lambda b, h: c.mor_names[h])[0]


# -- sieves and topologies -----------------------------------------------------

def sieves_on(c: FinCategory, a):
    """All sieves on a.  A sieve is a union of principal sieves, so the
    sieves are grown from the empty one by adding one principal sieve at a
    time, each held as a bitmask over into(a)."""
    into = c.into(a)
    bit = {f: 1 << i for i, f in enumerate(into)}
    principal = set()
    for f in into:
        # the principal sieve of f is the set of f∘g, f's row
        mask = 0
        for fg in c.rows[f]:
            mask |= bit[fg]
        principal.add(mask)
    found = {0}
    todo = [0]
    while todo:
        s = todo.pop()
        for p in principal:
            t = s | p
            if t not in found:
                found.add(t)
                todo.append(t)
    out = (frozenset(f for f in into if bit[f] & s) for s in found)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def maximal_sieve(c: FinCategory, a) -> frozenset:
    return frozenset(c.into(a))


def sieve_pullback(c: FinCategory, s, f) -> frozenset:
    """f*(s) = {g into src(f) | f∘g in s}."""
    return frozenset(g for g, fg in zip(c.into(c.mor_src[f]), c.rows[f])
                     if fg in s)


class Topology(namedtuple("Topology", "cat covers sieves basis")):
    """A topology with the site data it was generated from, so that later
    checks on the same M-category read them instead of enumerating again.
    Every caller takes it from generate_topology on the M-category it goes
    on to use (the CLI from the bundle's, which par keeps as pc.mc).  That
    builds it once per M-category and keeps it in mc.topology_memo, so
    every later check on the same M-category reads the same instance,
    which must not be mutated.  Per object, covers holds the frozenset of
    covering sieves, sieves every sieve as sieves_on lists them, and basis
    the covering antichains as basis_covers lists them.

    joined records how the covers were found: the M-category whose Sub_M
    joins gave them, when they are exactly the sieves that pass the join
    test and one saturation pass added nothing to them; None when the
    saturation loop ran.  Only generate_topology sets it, on the instance,
    so a Topology built by hand or copied with _replace never claims it;
    it takes no part in equality or hashing."""
    joined = None


def basis_covers(mc: MCategory):
    """Per object a, the antichains of Sub_M(a) whose join is the top, the
    canonical subobject of the identity (the whole object), in the order
    of mcat.antichains: one join per antichain, and no family with a
    dominated member, as its join is its antichain's."""
    return tuple(tuple(filter(_joins_to_top(mc, a), antichains(mc, a)))
                 for a in mc.base.objects)


def _joins_to_top(mc: MCategory, a):
    """Whether a family of Sub_M(a) joins to the top of Sub_M(a)."""
    top = subobject_rep(mc, mc.base.identity[a])
    return lambda fam: sub_m_join(mc, fam, a) == top


def generate_topology(mc: MCategory) -> Topology:
    """The topology generated by the covering families: the least one that
    holds the sieve of each, with the covering antichains as its basis.

    A sieve S on a covers in it iff the Sub_M join of the canonical
    M-members of S (the empty family counts) is the top:
    - If S passes, the maximal members of its M-members form a covering
      family whose sieve lies in S, and a topology is upward closed, so S
      lies in the generated topology.
    - The sieve of a covering family F passes: its other M-members factor
      through members of F, so its M-members and F have the same maximal
      members, hence the same join.
    So the sieves that pass lie in the generated topology and hold its
    basis.  One _saturate pass over them is the certificate: if it adds
    nothing, they are a topology, hence the generated one, and joined
    records mc.  Otherwise the loop runs on from them to the fixpoint,
    which is the generated topology, as they lie inside it.

    Built once per M-category and kept in mc.topology_memo."""
    if mc.topology_memo is not None:
        return mc.topology_memo
    c = mc.base
    sieves = tuple(tuple(sieves_on(c, a)) for a in c.objects)
    covers = []
    for a in c.objects:
        members, covering = sub_m(mc, a), _joins_to_top(mc, a)
        covers.append({s for s in sieves[a]
                       if covering([m for m in members if m in s])})
    joined = not _saturate(c, covers, sieves)
    if not joined:
        while _saturate(c, covers, sieves):
            pass
    top = Topology(c, tuple(frozenset(s) for s in covers), sieves,
                   basis_covers(mc))
    if joined:
        top.joined = mc
    mc.topology_memo = top
    return top


def saturation_is_fixpoint(top: Topology) -> bool:
    """One more saturation pass adds no covering sieve.  A topology that
    records joined was certified by generate_topology's own pass over
    these covers and sieves, which added nothing, so it is not run again;
    one built by hand, or copied with _replace, records None and runs the
    pass."""
    if top.joined is not None:
        return True
    return not _saturate(top.cat, [set(s) for s in top.covers], top.sieves)


def _saturate(c: FinCategory, covers, sieves) -> bool:
    """One pass of the maximality, stability and transitivity rules over
    every object, adding to covers in place; whether any sieve was added."""
    changed = False
    for a in c.objects:
        if maximal_sieve(c, a) not in covers[a]:
            covers[a].add(maximal_sieve(c, a))
            changed = True
        for s in list(covers[a]):
            for f in c.into(a):
                b = c.mor_src[f]
                fs = sieve_pullback(c, s, f)
                if fs not in covers[b]:
                    covers[b].add(fs)
                    changed = True
        for t in sieves[a]:
            if t in covers[a]:
                continue
            for r in covers[a]:
                if all(sieve_pullback(c, t, f) in covers[c.mor_src[f]]
                       for f in r):
                    covers[a].add(t)
                    changed = True
                    break
    return changed


# -- matching families, sheaves ------------------------------------------------

def matching_families(p: Presheaf, a, sieve):
    """(fs, families): fs is the sorted sieve, families every assignment
    x_f in P(src f) with x_{f∘g} = P(g)(x_f), in lexicographic order."""
    c = p.cat
    fs = sorted(sieve)
    pos = {f: i for i, f in enumerate(fs)}
    forces = [[(pos[fg], g) for g, fg in zip(c.into(c.mor_src[f]), c.rows[f])]
              for f in fs]
    return fs, list(forced_assignments(
        len(fs), lambda k: p.elements(c.mor_src[fs[k]]), forces, p.act))


def matching_tuples(p: Presheaf, mc: MCategory, family, a):
    """The tuples (x_i in P(dom m_i)) on a family of M-subobjects m_i of a
    that agree on each pairwise pullback, in lexicographic order: the
    P-valued cocones under its matching diagram, read at the members."""
    k = len(family)
    d = matching_diagram(mc, family, a)
    return [x[:k] for x in diagram_assignments(
        d, lambda v: p.elements(d.obj_map[v]), p.act)]


def amalgamations(p: Presheaf, a, fs, fam):
    act = p.action
    return [x for x in p.elements(a)
            if all(act[f, x] == fam[i] for i, f in enumerate(fs))]


def sheaf_reports(p: Presheaf, top: Topology):
    """(separated, sheaf) reports from one pass over the matching families
    of every covering sieve: SEP for a family with several amalgamations,
    SHEAF for one without exactly one."""
    sep = LawReport("separated")
    sheaf = LawReport("sheaf")
    for a in p.cat.objects:
        for sieve in sorted(top.covers[a], key=sorted):
            fs, fams = matching_families(p, a, sieve)
            for fam in fams:
                n = len(amalgamations(p, a, fs, fam))
                if n > 1:
                    sep.add("SEP", (a,) + tuple(fs),
                            "matching family with several amalgamations")
                if n != 1:
                    sheaf.add("SHEAF", (a,) + tuple(fs),
                              f"matching family with {n} amalgamations")
    return sep, sheaf


def is_separated(p: Presheaf, top: Topology) -> LawReport:
    return sheaf_reports(p, top)[0]


def is_sheaf(p: Presheaf, top: Topology) -> LawReport:
    return sheaf_reports(p, top)[1]


# -- the plus construction ------------------------------------------------------

class PlusData(namedtuple("PlusData", "presheaf top classes unit")):
    """One application of the plus construction: the presheaf P+ over the
    topology top, with its unit P -> P+.

    classes[a] is the tuple of elements (fs, fam) of P+(a): fs is the sorted
    tuple of the maps of L(a), the least covering sieve on a, and fam a
    matching family over it, in matching_families order.
    """
    __slots__ = ()


def plus(p: Presheaf, top: Topology) -> PlusData:
    """P+, with its unit P -> P+, read off one sieve per object.

    P+(a) is the colimit of the matching families of P over the covering
    sieves of a, ordered by reverse inclusion (Mac Lane and Moerdijk,
    Sheaves in Geometry and Logic, III.5).  In a finite site that diagram
    has a greatest element.  The covers of a are closed under binary
    intersection: if R and S cover, then f*(R ∩ S) = f*(S) covers for each
    f in R, so R ∩ S covers by transitivity.  So the intersection L(a) of
    all of them covers, and lies inside every cover; the colimit is the set
    of matching families on L(a), each other family being identified with
    its restriction to L(a), and two families on L(a) only when equal.
    - P+(f), for f: b -> a, sends x to (x_{f∘g}) for g in L(b): f*(L(a))
      covers b, so it holds L(b).
    - The unit sends x in P(a) to (P(g)x) for g in L(a).
    Raises ValueError when the covers at some object do not hold L(a),
    which no topology from generate_topology does.
    """
    c = p.cat
    least, classes, index = [], [], []
    for a in c.objects:
        la = maximal_sieve(c, a).intersection(*top.covers[a])
        if la not in top.covers[a]:
            raise ValueError(f"the covers of {c.obj_names[a]} do not hold "
                             f"their intersection")
        fs, fams = matching_families(p, a, la)
        least.append(tuple(fs))
        classes.append(tuple((least[a], fam) for fam in fams))
        index.append({fam: i for i, fam in enumerate(fams)})

    def act(f, cls):
        b = c.mor_src[f]
        fs, fam = cls
        d = dict(zip(fs, fam))
        return classes[b][index[b][tuple(d[c.compose(f, g)]
                                         for g in least[b])]]

    plus_p = build_presheaf(c, classes.__getitem__, act)[0]
    unit = NatTrans(p, plus_p, tuple(
        tuple(index[a][tuple(p.act(g, x) for g in least[a])]
              for x in p.elements(a))
        for a in c.objects))
    if not check_presheaf(plus_p) or not unit.check():
        raise InternalInvariantError("plus construction produced bad data")
    return PlusData(plus_p, top, tuple(classes), unit)


class SheafifyResult(namedtuple("SheafifyResult",
                                 "presheaf unit plus1 plus2")):
    """P++ with its unit P -> P++ and the two plus applications."""
    __slots__ = ()


def sheafify(p: Presheaf, top: Topology) -> SheafifyResult:
    d1 = plus(p, top)
    d2 = plus(d1.presheaf, top)
    unit = compose_nat(d2.unit, d1.unit)
    return SheafifyResult(d2.presheaf, unit, d1, d2)


# -- subcanonicity ----------------------------------------------------------------

def subcanonical_report(top: Topology) -> LawReport:
    """SUBCAN for each object whose representable is not a sheaf.

    A topology certified by the join test needs no sheaf scan.  Let S be a
    covering sieve on a and F the antichain of its maximal M-members that
    the join was read from, with matching colimit (L, l) and induced map
    mu: L -> a, mu∘l_m == m for m in F.  Suppose every such mu is an iso.
    - Then (a, F) is a colimit of F's matching diagram.  So two maps
      u, v: a -> b with u∘m == v∘m for every m in F are equal: yoneda(b)
      is separated on S.
    - A matching family x of yoneda(b) on S gives a cocone (b, x_m) under
      that diagram: m∘p == n∘q at the pullback (p, q) of members m and n,
      so x_m∘p == x_{m∘p} == x_n∘q.  Its mediating map h: a -> b is the
      one amalgamation of x on the sieve of F.
    - For f in S, the sieve of F covers, so f*(sieve of F) covers by
      stability, and h∘f agrees with x_f along each of its maps g, as
      h∘f∘g == x_{f∘g} == x_f∘g.  By separation on f*(sieve of F),
      h∘f == x_f, so h amalgamates x on S (Mac Lane and Moerdijk,
      Sheaves in Geometry and Logic, III.4; Johnstone, Sketches of an
      Elephant, C2.1).
    The certificate checks what this uses: top.joined (each cover passes
    the join test, and the covers are a topology), each mu in c.isos(),
    and the sieve of each F among the covers.  No M-system law is
    assumed, so it holds on bridge.cocompletion_unit's ungated
    M-category.  Otherwise each representable is scanned with is_sheaf.
    """
    report = LawReport("subcanonical")
    if _join_certified(top):
        return report
    for a in top.cat.objects:
        rep = is_sheaf(yoneda(top.cat, a), top)
        if not rep.ok:
            report.add("SUBCAN", (a,), "representable is not a sheaf")
    return report


def _join_certified(top: Topology) -> bool:
    """top.joined is set, and every covering sieve's antichain of maximal
    M-members has a matching colimit with an iso mu and generates a
    covering sieve."""
    mc, c = top.joined, top.cat
    if mc is None:
        return False
    isos = c.isos()
    for a in c.objects:
        members = sub_m(mc, a)
        for s in top.covers[a]:
            fam, mcol = join_colimit(mc, [m for m in members if m in s], a)
            if mcol is None or mcol.mu not in isos or frozenset().union(
                    *(c.rows[m] for m in fam)) not in top.covers[a]:
                return False
    return True
