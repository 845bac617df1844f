"""Sites of monic covers, presheaves, sheaves and sheafification.

A presheaf stores element counts per object and an explicit contravariant
action table.  Constructed presheaves (representables, constant presheaves,
sieve subpresheaves, Sigma, the plus construction, both transfers, pulled-back
and loaded presheaves) come from `build_presheaf`.  It numbers the element
keys it is given and refuses a duplicate key or an image that is not a key;
the presheaf laws are left to `check_presheaf`.

The topology on an M-category is generated by the families of monics whose
subobject join is the whole object, then saturated to a fixpoint over all
sieves.  Sheafification is the plus construction applied twice,
with classes kept as canonical representatives so equality is plain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

from .fincat import FinCategory, forced_assignments
from .joins import families
from .mcat import MCategory, pullback_subobject, sub_m
from .reports import InternalInvariantError, LawReport


# -- presheaves and natural transformations ----------------------------------

@dataclass(frozen=True)
class Presheaf:
    """sizes[A] = |P(A)|; action[(f, x)] = P(f)(x) for f: A -> B and
    x in P(B), landing in P(A)."""
    cat: FinCategory
    sizes: tuple
    action: dict
    elem_names: tuple = None

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
    """P is a presheaf: its action is total, P(id) = id, and P(f∘g) =
    P(g)∘P(f) for g among the generators of the base
    (FinCategory.generators) and every f composable after g, or for every
    composable pair when the base has no certified generators.

    The generators suffice.  Every map w is a word in them, and P(f∘w) =
    P(w)∘P(f) for every f after w follows by induction on its length.  For
    an identity it is P(id) = id.  For w = w'∘g with g a generator,
    associativity (which the generators certify) and the law at g, taken
    at f∘w' and at w', give P(f∘w) = P(g)P(f∘w') = P(g)P(w')P(f) =
    P(w)P(f), the middle step by the law at the shorter word w'.
    """
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
    gens = c.generators()
    pairs = c.comp.items() if gens is None else (
        ((f, g), c.comp[(f, g)])
        for g in sorted(gens) for f in c.out_of(c.mor_tgt[g]))
    for (f, g), fg in pairs:
        # f: B -> C, g: A -> B, so P(f∘g) = P(g)∘P(f)
        for x in p.elements(c.mor_tgt[f]):
            if p.act(fg, x) != p.act(g, p.act(f, x)):
                return False
    return True


@dataclass(frozen=True)
class NatTrans:
    source: Presheaf
    target: Presheaf
    components: tuple   # per object: tuple mapping source elems to target elems

    def at(self, a, x):
        return self.components[a][x]

    def check(self) -> bool:
        p, q = self.source, self.target
        c = p.cat
        for f in c.morphisms():
            a, b = c.mor_src[f], c.mor_tgt[f]
            for x in p.elements(b):
                if q.act(f, self.components[b][x]) != \
                        self.components[a][p.act(f, x)]:
                    return False
        return True

    def is_monic_componentwise(self) -> bool:
        return all(len(set(comp)) == len(comp) for comp in self.components)

    def is_iso(self) -> bool:
        return self.is_monic_componentwise() and all(
            len(self.components[a]) == self.target.sizes[a]
            for a in self.source.cat.objects)


def compose_nat(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    if alpha.target is not beta.source and alpha.target != beta.source:
        raise ValueError("natural transformations not composable")
    return NatTrans(alpha.source, beta.target,
                    tuple(tuple(beta.components[a][x] for x in comp)
                          for a, comp in enumerate(alpha.components)))


def _nat_trans(p: Presheaf, q: Presheaf):
    """Every natural transformation p -> q, lazily.  A slot is an element
    x of some P(B); its value a_B(x) forces a_A(P(f)x) = Q(f)(a_B(x)) for
    every f: A -> B.  Slots are tried object by object, smallest P(A)
    first."""
    c = p.cat
    offset = (0, *accumulate(p.sizes))
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


def constant_presheaf(c: FinCategory, k) -> Presheaf:
    """k elements at every object, every action the identity."""
    return build_presheaf(c, lambda a: range(k), lambda f, x: x)[0]


# -- representables -----------------------------------------------------------

def yoneda(c: FinCategory, a) -> Presheaf:
    """The representable presheaf hom(-, a)."""
    return build_presheaf(c, lambda b: c.hom(b, a),
                          lambda f, h: c.comp[(h, f)],
                          lambda b, h: c.mor_names[h])[0]


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
        comps.append(tuple(idx[c.comp[(f, h)]] for h in hom_a))
    return NatTrans(ya, yb, tuple(comps))


# -- sieves and topologies -----------------------------------------------------

def sieves_on(c: FinCategory, a):
    """All sieves on a.  A sieve is a union of principal sieves, so the
    sieves are grown from the empty one by adding one principal sieve at a
    time, each held as a bitmask over into(a)."""
    into = c.into(a)
    bit = {f: 1 << i for i, f in enumerate(into)}
    principal = set()
    for f in into:
        mask = 0
        for g in c.into(c.mor_src[f]):
            mask |= bit[c.comp[(f, g)]]
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


def generate_sieve(c: FinCategory, a, gens) -> frozenset:
    return frozenset(c.comp[(f, g)]
                     for f in gens for g in c.into(c.mor_src[f])) \
        | frozenset(gens)


def maximal_sieve(c: FinCategory, a) -> frozenset:
    return frozenset(c.into(a))


def sieve_pullback(c: FinCategory, s, f) -> frozenset:
    """f*(s) = {g into src(f) | f∘g in s}."""
    return frozenset(g for g in c.into(c.mor_src[f]) if c.comp[(f, g)] in s)


@dataclass(frozen=True)
class Topology:
    cat: FinCategory
    covers: tuple   # per object: frozenset of covering sieves


def basis_covers(mc: MCategory):
    """Per object, the families of canonical monics whose Sub_M join is the
    identity (the whole object)."""
    c = mc.base
    out = []
    for a in c.objects:
        poset = sub_m(mc, a)
        out.append(tuple(fam for fam in families(poset.elements)
                         if poset.join(fam) == poset.top()))
    return tuple(out)


def generate_topology(mc: MCategory) -> Topology:
    """Sieves generated by the covering families, saturated to a fixpoint
    under the maximality, stability and transitivity axioms."""
    c = mc.base
    covers = [set() for _ in c.objects]
    for a, fams in enumerate(basis_covers(mc)):
        for fam in fams:
            covers[a].add(generate_sieve(c, a, fam))
    all_sieves = {a: sieves_on(c, a) for a in c.objects}
    while _saturate(c, covers, all_sieves):
        pass
    return Topology(c, tuple(frozenset(s) for s in covers))


def saturation_is_fixpoint(top: Topology) -> bool:
    """One more saturation pass adds no covering sieve."""
    c = top.cat
    return not _saturate(c, [set(s) for s in top.covers],
                         {a: sieves_on(c, a) for a in c.objects})


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
    forces = [[(pos[c.comp[(f, g)]], g) for g in c.into(c.mor_src[f])]
              for f in fs]
    return fs, list(forced_assignments(
        len(fs), lambda k: p.elements(c.mor_src[fs[k]]), forces, p.act))


def amalgamations(p: Presheaf, a, fs, fam):
    return [x for x in p.elements(a)
            if all(p.act(f, x) == fam[i] for i, f in enumerate(fs))]


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

@dataclass(frozen=True)
class PlusData:
    """One application of the plus construction.

    classes[a] is the tuple of canonical representatives (fs, fam); fs is the
    sorted tuple of the sieve's morphisms, fam the matching family over it.
    lookup memoises class_of by (a, fs, fam); it takes no part in equality.
    """
    source: Presheaf
    presheaf: Presheaf
    top: Topology
    classes: tuple
    unit: NatTrans
    lookup: dict = field(default_factory=dict, repr=False, compare=False)

    def class_of(self, a, fs, fam):
        return _class_of(self.source, self.top, self.classes, self.lookup,
                         a, fs, fam)


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


def plus(p: Presheaf, top: Topology) -> PlusData:
    c = p.cat
    classes = []
    for a in c.objects:
        pairs = []
        for sieve in sorted(top.covers[a], key=lambda s: (len(s), sorted(s))):
            fs, fams = matching_families(p, a, sieve)
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
        pfam = tuple(d[c.comp[(f, g)]] for g in pulled)
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
    data = PlusData(p, plus_p, top, tuple(classes), unit, lookup)
    if not check_presheaf(plus_p) or not unit.check():
        raise InternalInvariantError("plus construction produced bad data")
    return data


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
            col.append(tgt_plus.class_of(a, fs, qfam))
        comps.append(tuple(col))
    nat = NatTrans(src_plus.presheaf, tgt_plus.presheaf, tuple(comps))
    if not nat.check():
        raise InternalInvariantError("plus of a natural map is not natural")
    return nat


@dataclass(frozen=True)
class SheafifyResult:
    presheaf: Presheaf
    unit: NatTrans          # P -> P++
    plus1: PlusData
    plus2: PlusData


def sheafify(p: Presheaf, top: Topology) -> SheafifyResult:
    d1 = plus(p, top)
    d2 = plus(d1.presheaf, top)
    unit = compose_nat(d2.unit, d1.unit)
    return SheafifyResult(d2.presheaf, unit, d1, d2)


def sheafify_map(alpha: NatTrans, src: SheafifyResult,
                 tgt: SheafifyResult) -> NatTrans:
    return plus_map(plus_map(alpha, src.plus1, tgt.plus1),
                    src.plus2, tgt.plus2)


def sieve_subpresheaf(c: FinCategory, a, sieve):
    """The subpresheaf of yoneda(c, a) picked out by a sieve, with its
    inclusion.  Raises ValueError when the maps into a that lie in sieve
    are not closed under precomposition."""
    ya = yoneda(c, a)
    sub = build_presheaf(c, lambda b: [h for h in c.hom(b, a) if h in sieve],
                         lambda f, h: c.comp[(h, f)],
                         lambda b, h: c.mor_names[h])[0]
    comps = tuple(tuple(i for i, h in enumerate(c.hom(b, a)) if h in sieve)
                  for b in c.objects)
    return sub, NatTrans(sub, ya, comps), ya


# -- subcanonicity ----------------------------------------------------------------

def subcanonical_report(top: Topology) -> LawReport:
    report = LawReport("subcanonical")
    for a in top.cat.objects:
        rep = is_sheaf(yoneda(top.cat, a), top)
        if not rep.ok:
            report.add("SUBCAN", (a,), "representable is not a sheaf")
    return report


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


def all_nat_trans(p: Presheaf, q: Presheaf):
    """Every natural transformation p -> q."""
    return list(_nat_trans(p, q))
