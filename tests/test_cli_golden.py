"""Every smoke suite of scripts/run_suites.py, pinned byte for byte.

Each SUITES command runs in-process with the suite runner's default
--max-family 3 and an --out file; the exit code, the stdout lines and the
--out JSON (null for a command refused before any report, which writes
none) must equal tests/cli_golden.json.  Every --out key is kept in
full but the artifact bundle, which is kept as its object and morphism
counts and the SHA-256 of each top-level section's canonical JSON
(`digest`).  Regenerate the goldens only when a change is meant to alter
output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile

import pytest

from rcwb.bundles import build_fixture, bundle_dict, load_bundle
from rcwb.cli import main
from rcwb.fincat import validate_category
from rcwb.restriction import check_restriction_axioms
from rcwb.rpsh import RestrictionPresheaf, check_rp_axioms
from rcwb.site import check_presheaf

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
EXPECTED = os.path.join(PERFBENCH, "expected.json")
# the benchmark's job lists and bundle generators, read, not imported, so
# nothing is written next to them
WORKLOADS = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "scripts"))

from run_suites import SUITES  # noqa: E402

MAX_FAMILY = "3"   # the default of run_suites.py


def _key(cmd):
    return " ".join(cmd)


def run_suite(cmd):
    """{"exit", "stdout", "out"} of one suite command run in-process."""
    return run_cli(cmd + ["--max-family", MAX_FAMILY])


def run_cli(argv):
    """{"exit", "stdout", "out"} of main(argv) with an --out file; out is
    None when main wrote none."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--out", path])
        out = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out = json.load(fh)
    return {"exit": code, "stdout": stdout.getvalue().splitlines(),
            "out": out}


def digest(artifact):
    """The golden form of an artifact bundle: its object and morphism
    counts, and per top-level section the SHA-256 of its canonical JSON
    (sorted keys, compact separators)."""
    return {"objects": len(artifact["objects"]),
            "morphisms": len(artifact["morphisms"]),
            "sha256": {name: hashlib.sha256(json.dumps(
                section, sort_keys=True, separators=(",", ":"),
                ensure_ascii=False).encode("utf-8")).hexdigest()
                for name, section in artifact.items()}}


def golden_form(run):
    """A run_suite result with its artifact, if any, replaced by digest."""
    out = run["out"]
    if out is not None and "artifact" in out:
        out = dict(out, artifact=digest(out["artifact"]))
    return dict(run, out=out)


def assert_matches(run, want, key):
    """The run's golden form equals want; when both hold an artifact and
    they differ, the failure names the first section that differs."""
    got = golden_form(run)
    art, pinned = (got["out"] or {}).get("artifact"), \
        (want["out"] or {}).get("artifact")
    if art and pinned and art != pinned:
        ours, theirs = art["sha256"], pinned["sha256"]
        first = next((name for name in sorted(set(ours) | set(theirs))
                      if ours.get(name) != theirs.get(name)), None)
        if first is not None:
            pytest.fail(f"{key}: artifact section {first!r} differs")
    assert got == want, key


@functools.cache
def _golden():
    """The goldens, read once per process: the artifact tests are
    parametrized from them too.  Shared, so they must not be changed."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def _run(key):
    """run_suite of the SUITES command with this key, run once per process
    and shared by the golden and the artifact tests, so it must not be
    changed."""
    return run_suite(next(cmd for cmd, _ in SUITES if _key(cmd) == key))


@pytest.fixture(scope="module")
def golden():
    return _golden()


def test_every_suite_has_a_golden(golden):
    assert sorted(golden) == sorted(_key(cmd) for cmd, _ in SUITES)


@pytest.mark.parametrize("cmd", [cmd for cmd, _ in SUITES], ids=_key)
def test_suite_output_matches_golden(golden, cmd):
    assert_matches(_run(_key(cmd)), golden[_key(cmd)], _key(cmd))


def test_every_suite_matches_its_golden_again_in_reverse_order(golden):
    # Par, the topology and the tables a command fills on a fixture are
    # shared with every later command on it: none may change them, so a
    # second pass over every suite, in reverse order, reads as the first
    # (_run's, whose tables the fixtures still hold: no test of this file
    # clears the registry before this one)
    for cmd, _ in SUITES:
        assert_matches(_run(_key(cmd)), golden[_key(cmd)], _key(cmd))
    for cmd, _ in reversed(SUITES):
        assert_matches(run_suite(cmd), golden[_key(cmd)], _key(cmd))


def _artifacts():
    """The suite keys whose --out JSON holds an artifact bundle."""
    return sorted(k for k, v in _golden().items()
                  if "artifact" in (v["out"] or {}))


@pytest.mark.parametrize("key", _artifacts())
def test_every_artifact_reloads_as_a_lawful_bundle(key):
    # the printed construction is a bundle in its own right: it loads, its
    # laws hold, and dumping it again gives the same tables
    art = _run(key)["out"]["artifact"]
    b = load_bundle(art)
    assert validate_category(b.cat).ok
    if b.restriction is not None:
        assert check_restriction_axioms(b.restriction).ok
    for psh, bars in b.presheaves.values():
        assert check_presheaf(psh)
        if bars is not None:
            assert check_rp_axioms(
                RestrictionPresheaf(b.restriction, psh, bars)).ok
    assert bundle_dict(
        b.cat, restriction=b.restriction and b.restriction.bar,
        presheaves=b.presheaves) == art


def _size(bundle):
    """The n of a finset_*_<n> fixture; nojoin lives in FinSet_p<=2."""
    return 2 if bundle == "nojoin" else int(bundle.rsplit("_", 1)[1])


def test_small_suites_match_their_goldens_in_either_order(golden):
    # the fixtures are built once per process and fill their tables on
    # first use: no verdict may depend on which command warmed them
    small = [cmd for cmd, _ in SUITES if _size(cmd[1]) <= 3]
    for order in (small, small[::-1]):
        build_fixture.cache_clear()
        for cmd in order:
            assert_matches(run_suite(cmd), golden[_key(cmd)], _key(cmd))


def test_the_sites_jobs_read_the_same_on_a_second_pass(tmp_path):
    # the sites benchmark runs six commands on one generated bundle file,
    # which is loaded once; both passes print the pinned lines, and the
    # second, in reverse order, writes the first one's --out files
    jobs = WORKLOADS["expand"]("sites", {"const": "const2"})
    paths = WORKLOADS["write_bundles"](WORKLOADS["bundle_names"](jobs),
                                       str(tmp_path))
    with open(EXPECTED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    first = {}
    for order in (jobs, jobs[::-1]):
        for job in order:
            key = WORKLOADS["job_key"](job)
            run = golden_form(run_cli(WORKLOADS["resolve"](job, paths)))
            assert {"exit": run["exit"], "stdout": WORKLOADS["normalise"](
                run["stdout"], paths)} == pinned[key], key
            assert first.setdefault(key, run) == run, key


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({_key(cmd): golden_form(run_suite(cmd))
                   for cmd, _ in SUITES},
                  fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
