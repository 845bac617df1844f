"""Records are named tuples: equality and hashing over their fields only,
read-only fields, caches outside equality, and no dataclasses machinery
imported at start-up."""

import os
import pathlib
import subprocess
import sys

import pytest

from rcwb.bundles import Bundle
from rcwb.fincat import PullbackCone
from rcwb.joins import hom_poset
from rcwb.mcat import MCategory, splittings, sub_m_order
from rcwb.reports import LawReport, Violation
from rcwb.restriction import RestrictionCategory
from rcwb.rpsh import element_poset, yoneda_jr

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_start_up_imports_no_dataclass_machinery():
    # building dataclasses execs their generated methods, and importing
    # dataclasses pulls in inspect, ast and dis: a one-shot command pays
    # for both before it checks anything
    code = ("import sys; before = set(sys.modules); "
            "import rcwb.cli, rcwb.bridge, rcwb.fixtures; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    added = set(run.stdout.split())
    assert run.returncode == 0 and "rcwb.bridge" in added
    assert added & {"dataclasses", "inspect", "ast", "dis"} == set()


def test_caches_take_no_part_in_equality_or_hashing(finset_p2, mc_inj):
    x = RestrictionCategory(finset_p2.base, finset_p2.bar)
    hom_poset(x, 1, 1)
    splittings(x)
    fresh = RestrictionCategory(x.base, x.bar)
    assert x.posets and x.splits and not fresh.posets and not fresh.splits
    assert x == fresh and hash(x) == hash(fresh)
    mc = MCategory(mc_inj.base, mc_inj.monics)
    sub_m_order(mc, 2)
    fresh = MCategory(mc.base, mc.monics)
    assert mc.sub_m_orders and not fresh.sub_m_orders
    assert mc == fresh and hash(mc) == hash(fresh)
    # the caches live in an instance dict, the fields do not
    for record, field in ((x, "bar"), (mc, "monics")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_restriction_category_refuses_a_short_bar_table(finset_p2):
    with pytest.raises(ValueError, match="bar table must cover"):
        RestrictionCategory(finset_p2.base, finset_p2.bar[:-1])
    with pytest.raises(ValueError, match="bar table must cover"):
        finset_p2._replace(bar=finset_p2.bar[:-1])


def test_a_replaced_record_starts_empty_caches(finset_p2, mc_inj):
    hom_poset(finset_p2, 1, 1)
    sub_m_order(mc_inj, 2)
    x, mc = finset_p2._replace(), mc_inj._replace()
    assert x == finset_p2 and not x.posets and not x.splits
    assert mc == mc_inj and not mc.sub_m_orders and not mc.antichain_memo
    rp = yoneda_jr(x, 1)
    element_poset(rp, 1)
    assert rp._replace() == rp and not rp._replace().posets


@pytest.mark.parametrize("record, field", [
    (Violation("R1", (0,)), "tag"),
    (PullbackCone(0, 1, 2), "p"),
    (Bundle(None), "presheaves"),
])
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_defaults():
    assert Violation("R1", (0,)).detail == ""
    assert Bundle(None) == (None, None, None, {})


def test_law_reports_compare_name_and_violations():
    v = Violation("R1", (0,), "f∘f̄ != f")
    assert LawReport("restriction", [v]) == LawReport("restriction", [v])
    assert LawReport("restriction", [v]) != LawReport("m-system", [v])
    assert LawReport("restriction", [v]) != LawReport("restriction")
    assert LawReport("restriction") == LawReport("restriction", [])
