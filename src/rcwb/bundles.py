"""Category bundle I/O.

A bundle is a JSON document describing a finite category, with optional
sections for a restriction structure, a class of monics, and named
presheaves.  All ids are strings in the file and are interned to dense
integers in file order on load.  Load errors carry the JSON path of the
offending entry.

A loaded Bundle is frozen.  The named fixtures (`build_fixture`) are
built once per process and shared by every caller, together with the
tables their categories fill lazily, so they must not be mutated.  A
bundle file is read again on every call, as it can change between calls,
but a text identical to the last one loaded gives back the same Bundle,
tables and all (`resolve_bundle`).
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple

from . import fixtures
from .fincat import FinCategory, build_category
from .mcat import MCategory
from .restriction import RestrictionCategory
from .site import Presheaf, build_presheaf


class BundleError(ValueError):
    """Unreadable or inconsistent bundle; message includes the JSON path."""


class Bundle(namedtuple("Bundle", "cat restriction mcat presheaves",
                        defaults=(None, None, {}))):
    """A category with its optional sections; presheaves maps each name to
    (Presheaf, bars).  The default presheaves dict is shared: no caller
    adds to a bundle's presheaves."""
    __slots__ = ()


def _fail(path, msg):
    raise BundleError(f"{path}: {msg}")


def _id(value, path):
    """value, which must be a string id."""
    if not isinstance(value, str):
        _fail(path, f"expected a string id, not {value!r}")
    return value


def _ref(ids, value, path, what, where=""):
    """ids[value] for value a string id that ids knows, else the bundle
    error `unknown <what> <value><where>` at path."""
    if _id(value, path) not in ids:
        _fail(path, f"unknown {what} {value!r}{where}")
    return ids[value]


def _expect(data, key, kind, path):
    if key not in data:
        _fail(path, f"missing required field {key!r}")
    if not isinstance(data[key], kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}")
    return data[key]


def load_bundle(text_or_dict) -> Bundle:
    if isinstance(text_or_dict, dict):
        data = text_or_dict
    else:
        try:
            data = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise BundleError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        _fail("$", "top level must be an object")
    objects = _expect(data, "objects", list, "$")
    obj_id = {}
    for i, name in enumerate(objects):
        if not isinstance(name, str):
            _fail(f"$.objects[{i}]", "object names must be strings")
        if name in obj_id:
            _fail(f"$.objects[{i}]", f"duplicate object {name!r}")
        obj_id[name] = i
    morphisms = _expect(data, "morphisms", list, "$")
    mor_id, mor_src, mor_tgt, mor_names = {}, [], [], []
    for i, entry in enumerate(morphisms):
        path = f"$.morphisms[{i}]"
        if not isinstance(entry, dict):
            _fail(path, "each morphism must be an object")
        mid = _expect(entry, "id", str, path)
        if mid in mor_id:
            _fail(f"{path}.id", f"duplicate morphism {mid!r}")
        a, b = (_ref(obj_id, _expect(entry, k, str, path), f"{path}.{k}",
                     "object") for k in ("src", "tgt"))
        mor_id[mid] = i
        mor_src.append(a)
        mor_tgt.append(b)
        mor_names.append(mid)
    identity = [None] * len(objects)
    for name, mid in _expect(data, "identities", dict, "$").items():
        path = f"$.identities.{name}"
        a = _ref(obj_id, name, path, "object")
        f = _ref(mor_id, mid, path, "morphism")
        if mor_src[f] != a or mor_tgt[f] != a:
            _fail(path, f"identity {mid!r} is not an endomorphism of {name!r}")
        identity[a] = f
    for name, a in obj_id.items():
        if identity[a] is None:
            _fail("$.identities", f"object {name!r} has no identity")
    section = "$.comp"
    table = {}     # (g, f) -> g∘f
    for i, triple in enumerate(_expect(data, "comp", list, "$")):
        path = f"{section}[{i}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            _fail(path, "each entry must be [g, f, gf]")
        g, f, gf = [_ref(mor_id, mid, path, "morphism") for mid in triple]
        if mor_tgt[f] != mor_src[g]:
            _fail(path, f"{triple[0]!r} and {triple[1]!r} are not composable")
        if mor_src[gf] != mor_src[f] or mor_tgt[gf] != mor_tgt[g]:
            _fail(path, f"composite {triple[2]!r} of [{triple[0]!r}, "
                        f"{triple[1]!r}] has the wrong endpoints")
        if (g, f) in table:
            _fail(path, "duplicate composition entry")
        table[g, f] = gf

    def row(g, fs):
        """g∘f for each f in fs, refusing the first pair without an entry;
        build_category asks for g in id order."""
        out = [table.get((g, f)) for f in fs]
        if None in out:
            f = fs[out.index(None)]
            _fail(section, f"no entry for the composable pair "
                           f"[{mor_names[g]!r}, {mor_names[f]!r}]")
        return out

    cat, _, _ = build_category(
        range(len(objects)), range(len(morphisms)),
        lambda f: (mor_src[f], mor_tgt[f]), identity.__getitem__, row,
        obj_names=objects, mor_names=mor_names)
    restriction = mcat = None
    if "restriction" in data:
        bar = [None] * cat.n_morphisms
        for mid, bid in _expect(data, "restriction", dict, "$").items():
            path = f"$.restriction.{mid}"
            f = _ref(mor_id, mid, path, "morphism")
            bar[f] = _ref(mor_id, bid, path, "morphism")
        for mid, f in mor_id.items():
            if bar[f] is None:
                _fail("$.restriction", f"morphism {mid!r} has no entry")
        restriction = RestrictionCategory(cat, tuple(bar))
    if "monics" in data:
        monics = frozenset(
            _ref(mor_id, mid, f"$.monics[{i}]", "morphism")
            for i, mid in enumerate(_expect(data, "monics", list, "$")))
        mcat = MCategory(cat, monics)
    presheaves = {}
    if "presheaves" in data:
        table = _expect(data, "presheaves", dict, "$")
        for name in table:
            presheaves[name] = _load_presheaf(
                cat, obj_id, mor_id, name,
                _expect(table, name, dict, "$.presheaves"))
    return Bundle(cat, restriction, mcat, presheaves)


def _load_presheaf(cat, obj_id, mor_id, name, pdata):
    path = f"$.presheaves.{name}"
    elems = [None] * cat.n_objects
    for oname, lst in _expect(pdata, "sections", dict, path).items():
        spath = f"{path}.sections.{oname}"
        a = _ref(obj_id, oname, spath, "object")
        if not isinstance(lst, list):
            _fail(spath, "expected list")
        elems[a] = es = {}
        for i, e in enumerate(lst):
            if _id(e, f"{spath}[{i}]") in es:
                _fail(f"{spath}[{i}]", f"duplicate element {e!r}")
            es[e] = i
    for oname, a in obj_id.items():
        if elems[a] is None:
            _fail(f"{path}.sections", f"object {oname!r} has no section list")
    images = {}
    table = _expect(pdata, "action", dict, path)
    for mid in table:
        mpath = f"{path}.action.{mid}"
        f = _ref(mor_id, mid, mpath, "morphism")
        a, b = cat.mor_src[f], cat.mor_tgt[f]
        for e, img in _expect(table, mid, dict, f"{path}.action").items():
            _ref(elems[b], e, mpath, "element", " at the target object")
            _ref(elems[a], img, mpath, "image", " at the source object")
            images[(f, e)] = img
    for f in cat.morphisms():
        for e in elems[cat.mor_tgt[f]]:
            if (f, e) not in images:
                _fail(f"{path}.action",
                      f"morphism {cat.mor_names[f]!r} has no entry for "
                      f"element {e!r}")
    psh, pos = build_presheaf(cat, elems.__getitem__,
                              lambda f, e: images[(f, e)], lambda a, e: e)
    bars = None
    if "element_bar" in pdata:
        bars = [None] * cat.n_objects
        table = _expect(pdata, "element_bar", dict, path)
        for oname in table:
            bpath = f"{path}.element_bar.{oname}"
            a = _ref(obj_id, oname, bpath, "object")
            col = [None] * len(elems[a])
            for e, mid in _expect(table, oname, dict,
                                  f"{path}.element_bar").items():
                i = _ref(pos[a], e, bpath, "element")
                col[i] = _ref(mor_id, mid, bpath, "morphism")
            if None in col:
                _fail(bpath, "element without a restriction entry")
            bars[a] = tuple(col)
        for a in cat.objects:
            if bars[a] is None:
                if elems[a]:
                    _fail(f"{path}.element_bar",
                          f"object {cat.obj_names[a]!r} has no table")
                bars[a] = ()
        bars = tuple(bars)
    return psh, bars


# -- saving ---------------------------------------------------------------------

def bundle_dict(cat: FinCategory, restriction=None, monics=None,
                presheaves=None) -> dict:
    data = {
        "objects": list(cat.obj_names),
        "morphisms": [{"id": cat.mor_names[f],
                       "src": cat.obj_names[cat.mor_src[f]],
                       "tgt": cat.obj_names[cat.mor_tgt[f]]}
                      for f in cat.morphisms()],
        "identities": {cat.obj_names[a]: cat.mor_names[cat.identity[a]]
                       for a in cat.objects},
        "comp": sorted([cat.mor_names[g], cat.mor_names[f],
                        cat.mor_names[gf]]
                       for g, f, gf in cat.pairs()),
    }
    if restriction is not None:
        data["restriction"] = {cat.mor_names[f]: cat.mor_names[restriction[f]]
                               for f in cat.morphisms()}
    if monics is not None:
        data["monics"] = sorted(cat.mor_names[m] for m in monics)
    if presheaves:
        data["presheaves"] = {
            name: _presheaf_dict(cat, psh, bars)
            for name, (psh, bars) in sorted(presheaves.items())}
    return data


def _presheaf_dict(cat, psh: Presheaf, bars):
    out = {
        "sections": {cat.obj_names[a]: [psh.name(a, x) for x in
                                        psh.elements(a)]
                     for a in cat.objects},
        "action": {cat.mor_names[f]: {
            psh.name(cat.mor_tgt[f], x): psh.name(cat.mor_src[f],
                                                  psh.act(f, x))
            for x in psh.elements(cat.mor_tgt[f])}
            for f in cat.morphisms()},
    }
    if bars is not None:
        out["element_bar"] = {
            cat.obj_names[a]: {psh.name(a, x): cat.mor_names[bars[a][x]]
                               for x in psh.elements(a)}
            for a in cat.objects}
    return out


def dump_bundle(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# -- the fixture registry ---------------------------------------------------------

# the composition-table entries of finset_inj_5, the largest fixture built
MAX_FIXTURE_TABLE = 18_705_846


def _table_size(n, partial, bound):
    """The number of composition-table entries of FinSet<=n (FinSet_p<=n
    when partial), or the first partial sum above bound.

    The table holds g∘f for each map g and each f into src g, so it has
    |maps out of b|·|maps into b| entries at each object b; FinSet has b^a
    maps a -> b, and FinSet_p (b+1)^a."""
    def hom(a, b):
        return (b + 1) ** a if partial else b ** a
    total = 0
    for b in range(n + 1):
        total += sum(hom(b, t) for t in range(n + 1)) * \
            sum(hom(t, b) for t in range(n + 1))
        if total > bound:
            break
    return total


def _too_large(digits, partial):
    """Whether the fixture of size n, written as digits with no leading
    zero, has more than MAX_FIXTURE_TABLE composites.  The row of the
    identity of set n alone holds n^n >= 2^n of them, so an n above the
    bound's bit length is too large, and no longer digit string is
    converted (int() refuses more than 4,300 digits)."""
    limit = MAX_FIXTURE_TABLE.bit_length()
    return len(digits) > len(str(limit)) or int(digits) > limit or \
        _table_size(int(digits), partial, MAX_FIXTURE_TABLE) > \
        MAX_FIXTURE_TABLE


@functools.cache
def build_fixture(name: str) -> Bundle:
    """Named fixtures accepted anywhere a bundle path is: finset_p_<n>,
    finset_inj_<n>, finset_iso_<n>, nojoin, with n in ASCII digits.

    Each fixture is built once per process and the same bundle is handed
    to every later caller, so the tables its category fills lazily
    (generators, isos, pullbacks, posets, splittings, Sub_M orders) fill
    once too; shared bundles must not be mutated.  A name with leading
    zeros gives the bundle of its plain form (finset_p_03 is finset_p_3),
    and finset_iso_<n> is FinSet<=n with its isomorphisms as M, on the
    category of finset_inj_<n>.  An unknown name raises KeyError and is
    not remembered.  A fixture whose composition table would have more
    than MAX_FIXTURE_TABLE entries raises BundleError before anything is
    built: finset_inj_<n> and finset_iso_<n> are built up to n = 5, and
    finset_p_<n> up to n = 4."""
    if name == "nojoin":
        rc = fixtures.build_nojoin_fixture()
        return Bundle(rc.base, restriction=rc)
    for prefix, family in (("finset_p_", "p"), ("finset_inj_", "inj"),
                           ("finset_iso_", "iso")):
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isascii() and digits.isdigit():
            digits = digits.lstrip("0") or "0"
            if _too_large(digits, family == "p"):
                shown = digits if len(digits) <= 12 else digits[:12] + "..."
                raise BundleError(
                    f"$: fixture {prefix}{shown} is too large to build "
                    f"(more than {MAX_FIXTURE_TABLE:,} composites)")
            n = int(digits)
            if name != f"{prefix}{n}":
                return build_fixture(f"{prefix}{n}")
            if family == "p":
                rc = fixtures.build_finset_p(n)
                return Bundle(rc.base, restriction=rc)
            if family == "inj":
                mc = fixtures.build_finset_mcat(n)
                return Bundle(mc.base, mcat=mc)
            # the isos of FinSet<=n are its bijective endomaps
            c = build_fixture(f"finset_inj_{n}").cat
            return Bundle(c, mcat=MCategory(c, frozenset(c.isos())))
    raise KeyError(name)


@functools.lru_cache(maxsize=1)
def _load_text(text: str) -> Bundle:
    """load_bundle(text), kept for the last text loaded: a byte-identical
    text gets back the same frozen bundle, so the tables its category and
    M-category fill lazily fill once, and an edited file is loaded afresh.
    A text that fails to load raises on every call, as lru_cache keeps no
    exception.  One entry is enough for a batch that reads one file
    bundle at a time."""
    return load_bundle(text)


def resolve_bundle(name_or_path: str) -> Bundle:
    """A registered fixture name, or a path to a bundle file, whose text
    is read on every call and loaded by _load_text."""
    try:
        return build_fixture(name_or_path)
    except KeyError:
        pass
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"$: cannot read {name_or_path!r} ({exc})") from exc
    return _load_text(text)
