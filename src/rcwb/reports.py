"""Law reports: one violation per line, axiom tag plus tuple ids."""

from __future__ import annotations

from collections import namedtuple


class InternalInvariantError(RuntimeError):
    """A structural guarantee the code itself relies on was violated."""


class Violation(namedtuple("Violation", "tag ids detail", defaults=("",))):
    """A law's tag, the ids it failed on and an optional detail."""
    __slots__ = ()

    def line(self) -> str:
        ids = ",".join(str(i) for i in self.ids)
        return f"{self.tag}\t{ids}" + (f"\t{self.detail}" if self.detail else "")


class LawReport:
    """The named list of violations a check found; two reports are equal
    when their names and violation lists are."""

    def __init__(self, name, violations=None):
        self.name = name
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if not isinstance(other, LawReport):
            return NotImplemented
        return (self.name, self.violations) == (other.name, other.violations)

    def __repr__(self):
        return f"LawReport(name={self.name!r}, violations={self.violations!r})"

    def add(self, tag, ids, detail=""):
        self.violations.append(Violation(tag, tuple(ids), detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "LawReport"):
        self.violations.extend(other.violations)

    def lines(self):
        return sorted(v.line() for v in self.violations)

    def tags(self):
        return {v.tag for v in self.violations}

    def __str__(self):
        if self.ok:
            return f"{self.name}: ok"
        return f"{self.name}: {len(self.violations)} violation(s)\n" + \
            "\n".join(self.lines())

    def summary(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "violations": [
                {"tag": v.tag, "ids": list(v.ids), "detail": v.detail}
                for v in self.violations
            ],
        }
