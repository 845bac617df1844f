"""Structural invariants of the source: each kind of finite object is made
by its one builder."""

import ast
import pathlib
import re

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rcwb"


def _callers(pattern):
    """(module, function) for each line of src/rcwb/*.py that matches the
    pattern: the innermost def around the line, or None at module level."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        defs = [(node.lineno, node.end_lineno, node.name)
                for node in ast.walk(ast.parse(text))
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
])
def test_only_the_builders_call_the_constructors(pattern, builders):
    assert _callers(pattern) == builders


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
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
