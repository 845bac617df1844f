"""Structural invariants of the source: each kind of finite object is made
by its one builder."""

import ast
import functools
import pathlib
import re

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rcwb"


@functools.cache
def _parsed(path):
    """(text, tree) of a source file, read and parsed once per run; the
    trees are shared and must not be changed."""
    text = path.read_text(encoding="utf-8")
    return text, ast.parse(text)


def _callers(pattern):
    """(module, function) for each line of src/rcwb/*.py that matches the
    pattern: the innermost def around the line, or None at module level.
    A def's decorator lines belong to it.  A class statement is no call:
    `class Presheaf(namedtuple(...))` names the record's base class."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        text, tree = _parsed(path)
        defs = [(min([node.lineno] +
                     [d.lineno for d in node.decorator_list]),
                 node.end_lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line) and \
                    not line.lstrip().startswith("class "):
                # the innermost def starts last
                around = [d for d in defs if d[0] <= lineno <= d[1]]
                out.add((path.stem, max(around)[2] if around else None))
    return out


@pytest.mark.parametrize("pattern, builders", [
    (r"\bFinCategory\(", {("fincat", "build_category")}),
    (r"\bPresheaf\(", {("site", "build_presheaf")}),
    # its own def line, the one search that builds the diagram, and the
    # matching tuples of the amalgamation formula, its P-valued cocones
    (r"\bmatching_diagram\(", {("mcat", "matching_colimit"),
                                ("mcat", "matching_diagram"),
                                ("site", "matching_tuples")}),
    # its own def line, and the two searches it certifies: pullback reaches
    # it only through _pullback_search, once per class of cospans
    (r"\b_universal\(", {("fincat", "_universal"),
                          ("fincat", "_pullback_search"),
                          ("fincat", "colimit")}),
    # its own def line, the category laws it certifies, and the one pass
    # that reads every other law along the generators first
    (r"\bgenerators\(", {("fincat", "generators"),
                           ("fincat", "validate_category"),
                           ("fincat", "certified")}),
    # the two posets of the join kernel, each with its masks from the bars,
    # and the order of Sub_M(a), whose families are the antichains
    (r"\bFinitePoset\(", {("joins", "hom_poset"),
                            ("rpsh", "element_poset"),
                            ("mcat", "sub_m_order")}),
    # its own def line, and the antichain memo: the package reads every
    # family through its maximal members, one search per antichain
    (r"\bmatching_colimit\(", {("mcat", "join_colimit"),
                                ("mcat", "matching_colimit")}),
    # one argument parser per process: built by the cached _parser, which
    # only main calls
    (r"\bArgumentParser\(", {("cli", "_parser")}),
    (r"\b_parser\(", {("cli", "_parser"), ("cli", "main")}),
    # one fixture per process: the registry and the parser are the only
    # memoised functions, and no module (fixtures included) keeps a memo
    # of its own in a module-level container or a global
    (r"^\s*@.*\b(lru_)?cache\b", {("cli", "_parser"),
                                   ("bundles", "build_fixture")}),
    (r"\bglobal\b|^\w+\s*(:.*)?=\s*(\{|\[|dict\(|set\(|defaultdict\()",
     {("joins", None), ("rpsh", None)}),
    # its own def line, the sheaf scan over every cover, and the plus
    # construction, once per object on the least cover
    (r"\bmatching_families\(", {("site", "matching_families"),
                                 ("site", "sheaf_reports"),
                                 ("site", "plus")}),
    # the natural-transformation search is a test oracle: the round trips
    # and the unit check their comparison maps, and no module calls it
    (r"\b_nat_trans\(", set()),
])
def test_only_the_builders_call_the_constructors(pattern, builders):
    assert _callers(pattern) == builders


def test_iso_searches_are_test_references_only():
    # the round trips and the unit are decided by their comparison maps;
    # the searches live on as oracles.find_presheaf_iso and find_rp_iso,
    # on the natural-transformation search oracles.all_nat_trans
    assert _callers(r"\bfind_presheaf_iso\b|\bfind_rp_iso\b") == set()
    # Par(FinSet, inj) ≅ FinSet_p is checked through its comparison functor,
    # and the presheaf maps have no restriction or join of their own
    assert _callers(r"\b(_nat_trans|all_nat_trans|find_restriction_iso|"
                    r"nat_join|hom_restriction)\b") == set()


def test_forced_assignments_is_the_one_recursive_generator():
    # cocones, matching tuples and matching families are all enumerated by
    # its extend, and so are the natural transformations of the oracles
    assert _callers(r"\byield from\b") == {("fincat", "extend")}


def test_restriction_monics_need_no_search_for_retractions():
    # mtotal reads them off the splittings; the retraction scan lives on
    # only as oracles.restriction_monic_candidates
    assert _callers(r"\brestriction_monic_candidates\b") == set()


def test_plus_classes_need_no_search_over_refinements():
    # the refinement route lives on only as oracles.plus_by_refinement
    assert _callers(r"\b_class_of\b|\b_agree_on_refinement\b") == set()


def _row_writers():
    """(module, function) for each place in src/rcwb/*.py that writes a
    composition row: an assignment to an attribute named rows, to an item
    of rows (rows[g] = ..., rows[g][i] = ...), or a list method called on
    rows.  Binding a local name to a category's rows does not count."""
    def is_rows(node):
        return isinstance(node, ast.Name) and node.id == "rows" or \
            isinstance(node, ast.Attribute) and node.attr == "rows"

    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _parsed(path)[1]
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            written = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    if isinstance(target, ast.Attribute) and \
                            target.attr == "rows":
                        written.append(target)
                    while isinstance(target, ast.Subscript):
                        target = target.value
                        if is_rows(target):
                            written.append(target)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("append", "extend", "insert",
                                       "__setitem__") and \
                    is_rows(node.func.value):
                written.append(node)
            for w in written:
                around = [d for d in defs
                          if d.lineno <= w.lineno <= d.end_lineno]
                out.add((path.stem, max(around, key=lambda d: d.lineno).name
                         if around else None))
    return out


def _reached_from(start):
    """The modules of src/rcwb that start imports, directly or through
    other modules, along `from .x import ...` and `from . import x`."""
    reached, todo = {start}, [start]
    while todo:
        tree = _parsed(SRC / f"{todo.pop()}.py")[1]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for name in ([node.module] if node.module else
                             [a.name for a in node.names]):
                    if name not in reached:
                        reached.add(name)
                        todo.append(name)
    return reached


def test_the_cli_reaches_every_module():
    # a module the command line never imports is dead code or a test
    # reference, and belongs in tests/oracles.py or nowhere
    assert _reached_from("cli") == \
        {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def test_only_the_builders_write_composition_rows():
    assert _row_writers() == {("fincat", "__init__"),
                              ("fincat", "build_category")}


def test_no_module_reads_a_tuple_keyed_composition_table():
    assert _callers(r"\.comp\[") == set()
    assert not [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(_parsed(path)[1])
                if isinstance(node, ast.Attribute) and node.attr == "comp"]


# Public functions that nothing in src/ calls, each kept for a reason outside
# src/.  Everything else without a caller belongs in tests/oracles.py or
# nowhere.
DECLARED_API = {
    ("joins", "compatible_subsets"):
        "perfbench/spans.py wraps it; tests/test_bench_names.py requires it",
    ("site", "is_separated"):
        "perfbench/spans.py wraps it; tests/test_bench_names.py requires it",
    ("site", "constant_presheaf"):
        "perfbench/workloads.py builds the inj3_iso_const bundles with it",
    ("fixtures", "build_finset"): "an example category",
    ("fixtures", "subsets_category"): "an example category",
}


def _uncalled_public_functions():
    """(module, name) for each public top-level function of src/rcwb/*.py
    that no code in src/ refers to, outside its own def.  A reference is a
    name read in the code that resolves to the function: a name in its
    defining module, a name bound by `from .module import name` (or its
    alias), or `module.name` on a module bound by `from . import module`.
    An attribute that only shares the function's name does not count, nor
    do docstrings, comments and the imports themselves."""
    defs = {}
    refs = []
    for path in sorted(SRC.glob("*.py")):
        here, tree = path.stem, _parsed(path)[1]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                defs[(here, node.name)] = (node.lineno, node.end_lineno)
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        modules[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = (node.module, a.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = names.get(node.id, (here, node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                target = (modules[node.value.id], node.attr)
            else:
                continue
            refs.append((here, target, node.lineno))
    return {(module, name) for (module, name), (lo, hi) in defs.items()
            if not any(target == (module, name) and
                       not (m == module and lo <= line <= hi)
                       for m, target, line in refs)}


def test_every_public_function_has_a_caller_or_is_declared_api():
    assert _uncalled_public_functions() == set(DECLARED_API)


def _unused_imports():
    """(module, name) for each name that an import in src/rcwb/*.py or
    tests/*.py binds and the module never reads; from __future__ imports
    bind no name."""
    out = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = _parsed(path)[1]
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0]
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and
                isinstance(node.ctx, ast.Load)}
        out.update((path.stem, name) for name in bound - read)
    return out


def test_every_imported_name_is_read():
    assert _unused_imports() == set()
