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
    pattern: the innermost def around the line, or None at module level."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        text, tree = _parsed(path)
        defs = [(node.lineno, node.end_lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                # the innermost def starts last
                around = [d for d in defs if d[0] <= lineno <= d[1]]
                out.add((path.stem, max(around)[2] if around else None))
    return out


@pytest.mark.parametrize("pattern, builders", [
    (r"\bFinCategory\(", {("fincat", "build_category"),
                          ("bundles", "load_bundle")}),
    (r"\bPresheaf\(", {("site", "build_presheaf")}),
    # its own def line, and the one caller, which builds the diagram only
    # for a family with no dominated member
    (r"\bmatching_diagram\(", {("mcat", "_matching_colimit"),
                                ("mcat", "matching_diagram")}),
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
    # the two posets of the join kernel, each with its masks from the bars
    (r"\bFinitePoset\(", {("joins", "hom_poset"),
                            ("rpsh", "element_poset")}),
])
def test_only_the_builders_call_the_constructors(pattern, builders):
    assert _callers(pattern) == builders


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
    ("search", "find_restriction_iso"): "ROADMAP item 8 names it",
    ("rpsh", "nat_join"): "ROADMAP item 8 names it",
    ("rpsh", "hom_restriction"): "ROADMAP item 8 names it",
    ("site", "all_nat_trans"): "ROADMAP item 8 names it",
}


def _uncalled_public_functions():
    """(module, name) for each public top-level function of src/rcwb/*.py
    that no code in src/ refers to, outside its own def.  A reference is a
    name or an attribute in the code; docstrings, comments and imports do
    not count."""
    defs = {}
    refs = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parsed(path)[1]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                defs[(path.stem, node.name)] = (node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno))
    return {(module, name) for (module, name), (lo, hi) in defs.items()
            if not any(n == name and not (m == module and lo <= line <= hi)
                       for m, n, line in refs)}


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
