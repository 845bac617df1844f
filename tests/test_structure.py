"""Structural invariants of the source: each kind of finite object is made
by its one builder."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rcwb"


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
])
def test_only_the_builders_call_the_constructors(pattern, builders):
    assert _callers(pattern) == builders
