import argparse
import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import m3_bundle, non_associative, trivial_restriction
from rcwb import bundles, cli, fincat, mcat, restriction, rpsh, site
from rcwb.bridge import sheaf_to_jrp
from rcwb.bundles import (BundleError, build_fixture, bundle_dict,
                          dump_bundle, load_bundle)
from rcwb.cli import main
from rcwb.fixtures import build_finset_mcat, build_finset_p
from rcwb.mcat import par
from rcwb.rpsh import yoneda_jr
from rcwb.site import Presheaf, check_presheaf, constant_presheaf, yoneda

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _finset_p2_text():
    rc = build_finset_p(2)
    return dump_bundle(bundle_dict(rc.base, restriction=rc.bar))


def test_bundle_roundtrip_is_faithful():
    rc = build_finset_p(2)
    bundle = load_bundle(_finset_p2_text())
    c = bundle.cat
    assert c.n_objects == rc.base.n_objects
    assert c.n_morphisms == rc.base.n_morphisms
    assert list(c.pairs()) == list(rc.base.pairs())
    assert bundle.restriction.bar == rc.bar


def test_bundle_dump_is_deterministic():
    assert _finset_p2_text() == _finset_p2_text()


def test_loader_flags_dangling_src():
    data = json.loads(_finset_p2_text())
    data["morphisms"][3]["src"] = "ghost"
    with pytest.raises(BundleError, match=r"morphisms\[3\].src"):
        load_bundle(data)


def test_loader_flags_missing_identity():
    data = json.loads(_finset_p2_text())
    victim = next(iter(data["identities"]))
    del data["identities"][victim]
    with pytest.raises(BundleError, match="identities"):
        load_bundle(data)


def test_loader_flags_non_endo_identity():
    data = json.loads(_finset_p2_text())
    non_endo = next(m["id"] for m in data["morphisms"]
                    if m["src"] != m["tgt"])
    data["identities"][next(iter(data["identities"]))] = non_endo
    with pytest.raises(BundleError, match="not an endomorphism"):
        load_bundle(data)


def test_loader_rejects_garbage():
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle("{nope")


def _finset_inj2_data():
    mc = build_finset_mcat(2)
    return json.loads(dump_bundle(bundle_dict(mc.base, monics=mc.monics)))


def _non_identity_entry(data):
    ids = set(data["identities"].values())
    return next(i for i, (g, f, gf) in enumerate(data["comp"])
                if g not in ids and f not in ids)


def test_loader_flags_non_composable_entry():
    data = _finset_inj2_data()
    data["comp"].append([data["identities"]["set0"],
                         data["identities"]["set1"],
                         data["identities"]["set0"]])
    with pytest.raises(BundleError,
                       match=r"^\$\.comp\[\d+\]: .*not composable"):
        load_bundle(data)


def test_fixture_registry_names():
    for name in ("finset_p_2", "finset_inj_2", "finset_iso_2", "nojoin"):
        bundle = build_fixture(name)
        assert bundle.cat.n_morphisms > 0
    with pytest.raises(KeyError):
        build_fixture("unknown_fixture")


@pytest.mark.parametrize("name", ["finset_p_5", "finset_inj_6",
                                  "finset_iso_6", "finset_p_" + "9" * 5000])
def test_cli_refuses_a_fixture_too_large_to_build(name, capsys):
    # the table size is read off n before anything is built, and a name of
    # more digits than int() converts is refused without converting it
    start = time.perf_counter()
    assert main(["check-laws", name]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"bundle error: $: fixture {name[:21]}")
    assert "is too large to build" in err


def test_fixture_table_sizes_are_read_off_n():
    # the formula counts the entries of the built tables, and the largest
    # fixtures built are finset_inj_5 (finset_iso_5) and finset_p_4
    for n in range(4):
        for name, partial in (("finset_inj", False), ("finset_p", True)):
            rows = build_fixture(f"{name}_{n}").cat.rows
            assert bundles._table_size(n, partial, float("inf")) == \
                sum(map(len, rows))
    assert bundles._table_size(5, False, float("inf")) == \
        bundles.MAX_FIXTURE_TABLE == 18_705_846
    assert bundles._table_size(4, True, float("inf")) == 848_469
    assert bundles._table_size(5, True, float("inf")) > \
        bundles.MAX_FIXTURE_TABLE
    # the sum stops at the first partial sum above the bound: 26·26 at set0
    assert bundles._table_size(25, True, 100) == 676
    assert not bundles._too_large("4", True) and bundles._too_large("5", True)
    assert bundles._too_large("26", False) and bundles._too_large("9" * 5000,
                                                                  False)
    assert build_fixture("finset_p_03") is build_fixture("finset_p_3")


def test_presheaf_section_roundtrip(tmp_path):
    mc = build_finset_mcat(1)
    psh = yoneda(mc.base, 1)
    text = dump_bundle(bundle_dict(mc.base, monics=mc.monics,
                                   presheaves={"y1": (psh, None)}))
    bundle = load_bundle(text)
    got, bars = bundle.presheaves["y1"]
    assert got.sizes == psh.sizes
    assert got.action == psh.action
    assert bundle.mcat.monics == mc.monics


# -- CLI ------------------------------------------------------------------------

def test_cli_check_laws_pass(capsys):
    assert main(["check-laws", "finset_p_2", "--max-family", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS\tcheck-laws\tfinset_p_2" in out


def test_cli_check_laws_fail_on_nojoin(capsys):
    assert main(["check-laws", "nojoin"]) == 1
    out = capsys.readouterr().out
    assert "JOIN-MISSING" in out


def test_cli_geometric_passes_unbounded_on_finset_inj_4(capsys):
    # 65,536 families of Sub_M(set4), scanned as its 168 antichains; the
    # suites script always passes --max-family, so it cannot hold this run
    assert main(["geometric", "finset_inj_4"]) == 0
    assert capsys.readouterr().out == "PASS\tgeometric\tfinset_inj_4\n"


def test_cli_geometric_rejects_iso(capsys):
    assert main(["geometric", "finset_iso_2"]) == 1
    assert "GEO-MU" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["check-laws", "nojoin"],
                                     ["geometric", "finset_iso_2"]])
def test_cli_refuses_a_negative_max_family(capsys, command):
    # both fail unbounded; a bound of -1 would admit no family, not even the
    # empty one, and pass
    assert main(command) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(command + ["--max-family", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "Traceback" not in err
    assert "--max-family: expected a non-negative integer, got '-1'" in err
    assert main(command + ["--max-family", "0"]) in (0, 1)


@pytest.mark.parametrize("bound", ["\u0663", "\uff13", "\u00b3"])
def test_cli_refuses_a_max_family_in_other_digits(capsys, bound):
    # an Arabic-Indic three, a fullwidth three and a superscript three: int()
    # reads the first two as 3, and the gate takes ASCII digits only
    with pytest.raises(SystemExit) as exc:
        main(["geometric", "finset_iso_2", "--max-family", bound])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"--max-family: expected a non-negative integer, got {bound!r}" \
        in err


def test_suites_script_refuses_a_negative_max_family():
    # the script reads the bound as the CLI does, so a bad one stops it
    # before any suite runs, with its own usage line
    for bound in ("-1", "\u0663"):
        run = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_suites.py"),
             "--max-family", bound],
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("usage: run_suites.py")
        assert ("--max-family: expected a non-negative integer, "
                f"got {bound!r}") in run.stderr


def _fresh_cli(argv):
    """(exit code, stdout) of argv run by a fresh `python -m rcwb.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "rcwb.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    return run.returncode, run.stdout


def test_cli_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    # the top parser, the shared --max-family/--out parent and the ten
    # subcommand parsers are built on the first main call only; a bound, a
    # refused bound and a refused missing --direction leave no trace on the
    # shared parser, so the last call reads as in a fresh process
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self)
                        or real_init(self, *args, **kwargs))
    cli._parser.cache_clear()
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    counts, codes = [], []
    for argv in (["check-laws", "finset_p_2", "--max-family", "3"],
                 ["check-laws", "finset_p_2", "--max-family", "-1"],
                 ["transfer", "finset_inj_2", "yset2"],
                 ["check-laws", "finset_p_2", "--out", str(here)]):
        before = len(built)
        capsys.readouterr()
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(("exit", exc.code))
        counts.append(len(built) - before)
    assert counts == [12, 0, 0, 0]
    assert codes == [0, ("exit", 2), ("exit", 2), 0]
    out = capsys.readouterr().out
    assert _fresh_cli(["check-laws", "finset_p_2", "--out", str(fresh)]) \
        == (0, out)
    text = here.read_text(encoding="utf-8")
    assert json.loads(text)["max_family"] is None
    assert text == fresh.read_text(encoding="utf-8")


def test_cli_builds_each_fixture_once_per_process(monkeypatch, tmp_path,
                                                  capsys):
    # the registry hands every later caller the bundle it built first, with
    # the tables its category filled, so a second command on a fixture
    # builds no category and still reads as in a fresh process
    build_fixture.cache_clear()
    assert build_fixture("finset_p_2") is build_fixture("finset_p_2")
    assert build_fixture("finset_p_02") is build_fixture("finset_p_2")
    assert build_fixture("finset_iso_2").cat is \
        build_fixture("finset_inj_2").cat
    build_fixture.cache_clear()
    built = []
    real_init = fincat.FinCategory.__init__
    monkeypatch.setattr(fincat.FinCategory, "__init__",
                        lambda self, *args, **kwargs: built.append(self)
                        or real_init(self, *args, **kwargs))
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    counts = []
    for argv in (["check-laws", "finset_p_2"],
                 ["check-laws", "finset_p_2", "--out", str(here)]):
        before = len(built)
        capsys.readouterr()
        assert main(argv) == 0
        counts.append(len(built) - before)
    assert counts[0] > 0 and counts[1] == 0
    out = capsys.readouterr().out
    assert _fresh_cli(["check-laws", "finset_p_2", "--out", str(fresh)]) \
        == (0, out)
    assert here.read_text(encoding="utf-8") == \
        fresh.read_text(encoding="utf-8")


def test_cli_reads_a_bundle_file_again_on_every_call(tmp_path, capsys):
    # a file can change between calls: the second run reads the broken law
    rc = build_finset_p(1)
    data = bundle_dict(rc.base, restriction=rc.bar)
    path = tmp_path / "b.json"
    path.write_text(dump_bundle(data), encoding="utf-8")
    assert main(["check-laws", str(path)]) == 0
    lawful = capsys.readouterr().out
    data["restriction"]["p1->1:(0,)"] = "p1->1:(None,)"
    path.write_text(dump_bundle(data), encoding="utf-8")
    assert main(["check-laws", str(path)]) == 1
    broken = capsys.readouterr().out
    assert "\tR1\t" not in lawful and "\tR1\t" in broken
    assert broken.endswith(f"FAIL\tcheck-laws\t{path}\n")


def _mcat_text(name):
    """The category and monics of fixture name as bundle text."""
    mc = build_fixture(name).mcat
    return dump_bundle(bundle_dict(mc.base, monics=mc.monics))


def test_cli_loads_a_rewritten_bundle_file_afresh(tmp_path, capsys):
    # a loaded bundle is kept by its text, not its path: after the file is
    # rewritten, the verdicts and the topology are the new text's, not
    # those the old text's M-category keeps
    path, out = tmp_path / "b.json", tmp_path / "out.json"
    covers = {}
    for name, geometric in (("finset_inj_2", 0), ("finset_iso_2", 1)):
        path.write_text(_mcat_text(name), encoding="utf-8")
        assert main(["geometric", str(path)]) == geometric
        assert main(["topology", str(path), "--out", str(out)]) == 0
        covers[name] = json.loads(out.read_text())["topology"]
        assert main(["topology", name, "--out", str(out)]) == 0
        assert covers[name] == json.loads(out.read_text())["topology"]
    assert covers["finset_inj_2"] != covers["finset_iso_2"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"PASS\tgeometric\t{path}"
    assert f"FAIL\tgeometric\t{path}" in lines


def test_the_same_bundle_text_gives_the_same_bundle(tmp_path):
    # two files with one text share one load, with its lazy tables
    text = _mcat_text("finset_inj_2")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(text, encoding="utf-8")
    second.write_text(text, encoding="utf-8")
    bundle = bundles.resolve_bundle(str(first))
    assert bundles.resolve_bundle(str(first)) is bundle
    assert bundles.resolve_bundle(str(second)) is bundle
    assert par(bundle.mcat) is par(bundles.resolve_bundle(str(second)).mcat)


def test_a_malformed_bundle_text_exits_2_on_every_call(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": []}', encoding="utf-8")
    for _ in range(2):
        assert main(["check-laws", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "bundle error: $: missing required field 'morphisms'\n"


def test_load_bundle_keeps_no_bundle():
    # only resolve_bundle's file texts are kept; a dict, or a text handed
    # to load_bundle directly, is loaded afresh every time
    data = _finset_inj2_data()
    text = dump_bundle(data)
    before = bundles._load_text.cache_info()
    assert load_bundle(data) is not load_bundle(data)
    assert load_bundle(text) is not load_bundle(text)
    assert bundles._load_text.cache_info() == before


def test_cli_unreadable_bundle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check-laws", str(bad)]) == 2


def test_cli_refuses_a_bundle_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "b.json"
    bad.write_bytes(b"\xff\xfe")
    assert main(["check-laws", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"bundle error: $: cannot read {str(bad)!r}")


@pytest.mark.parametrize("name", ["finset_p_\u00b2", "finset_p_\u0662"])
def test_cli_reads_a_fixture_name_with_other_digits_as_a_path(name, capsys):
    # a superscript two and an Arabic-Indic two are digits to str.isdigit,
    # but not fixture sizes: the name is tried as a file and is not there
    assert main(["check-laws", name]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"bundle error: $: cannot read {name!r}")


def test_cli_reports_an_unwritable_out_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["check-laws", "nojoin", "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    # the report is printed before the write fails
    assert printed.endswith("FAIL\tcheck-laws\tnojoin\n")
    assert "Traceback" not in err
    assert err.startswith(f"output error: cannot write {str(out)!r}")
    assert not out.exists()


def test_cli_topology_summary(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["topology", "finset_inj_2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["ok"] is True
    assert "topology" in summary
    # covers of the empty set include the empty sieve
    assert [] in summary["topology"]["set0"]


def test_cli_build_par_emits_bundle(tmp_path):
    out = tmp_path / "par.json"
    assert main(["build-par", "finset_inj_2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    loaded = load_bundle(summary["artifact"])
    assert loaded.cat.n_morphisms == 23
    assert loaded.restriction is not None


def test_cli_transfer_and_roundtrip(tmp_path):
    assert main(["transfer", "finset_inj_2", "yset2", "--direction",
                 "to-jrp", "--max-family", "2"]) == 0
    assert main(["transfer", "finset_inj_2", "yset2", "--direction",
                 "to-sheaf", "--max-family", "2"]) == 0
    assert main(["roundtrip", "finset_inj_2", "yset1",
                 "--max-family", "2"]) == 0


def test_cli_unit(capsys):
    assert main(["unit", "finset_p_2", "--max-family", "2"]) == 0


def test_cli_needs_matching_sections(capsys):
    # geometric needs monics; finset_p_2 only carries a restriction
    assert main(["geometric", "finset_p_2"]) == 2


@pytest.mark.parametrize("defect", ["missing", "endpoints"])
@pytest.mark.parametrize("command", ["check-laws", "topology", "geometric"])
def test_cli_bad_comp_table_exits_2(tmp_path, capsys, command, defect):
    data = _finset_inj2_data()
    i = _non_identity_entry(data)
    g, f, _ = data["comp"][i]
    if defect == "missing":
        del data["comp"][i]
        path = "$.comp:"
    else:
        data["comp"][i][2] = data["identities"]["set0"]
        path = f"$.comp[{i}]:"
    bundle = tmp_path / "bad.json"
    bundle.write_text(dump_bundle(data))
    assert main([command, str(bundle)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bundle error: {path}")
    assert f"[{g!r}, {f!r}]" in err
    assert "Traceback" not in err


def test_cli_topology_finset_inj_3(capsys):
    # a size-3 site: 40 maps into set3, beyond closing every generator set
    assert main(["topology", "finset_inj_3"]) == 0
    assert "PASS\ttopology\tfinset_inj_3" in capsys.readouterr().out


@pytest.mark.parametrize("monics, tag", [("identities", "M-ISO"),
                                         ("all", "M-MONO")])
@pytest.mark.parametrize("command", ["build-par", "topology", "geometric"])
def test_cli_gate_stops_on_a_bad_m_system(tmp_path, capsys, command, monics,
                                          tag):
    # finset_inj_2 with M the identities only (the swap of set2 is an iso
    # missing from M) or every map (some of them not monic)
    data = _finset_inj2_data()
    if monics == "identities":
        data["monics"] = sorted(data["identities"].values())
    else:
        data["monics"] = sorted(m["id"] for m in data["morphisms"])
    bundle = tmp_path / "bad_m.json"
    bundle.write_text(dump_bundle(data))
    assert main([command, str(bundle)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert f"\t{tag}\t" in out
    assert all(line.startswith("m-system\t") for line in lines[:-1])
    assert lines[-1] == f"FAIL\t{command}\t{bundle}"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["karoubi", "unit"])
def test_cli_gate_stops_on_bad_restriction_axioms(tmp_path, capsys, command):
    rc = build_finset_p(2)
    c = rc.base
    # the identity of set1 gets the empty map as its restriction: R1 fails
    empty = next(f for f in c.hom(1, 1) if f != c.identity[1])
    bar = list(rc.bar)
    bar[c.identity[1]] = empty
    bundle = tmp_path / "bad_bar.json"
    bundle.write_text(dump_bundle(bundle_dict(c, restriction=bar)))
    assert main([command, str(bundle)]) == 1
    out, err = capsys.readouterr()
    assert "restriction\tR1\t" in out
    assert out.splitlines()[-1] == f"FAIL\t{command}\t{bundle}"
    assert "Traceback" not in err


def test_cli_roundtrip_rejects_an_unknown_presheaf(capsys):
    assert main(["roundtrip", "finset_inj_2", "nosuchthing"]) == 2
    assert capsys.readouterr().err == (
        "bundle error: $.presheaves: no presheaf or object named "
        "'nosuchthing'\n")


def _non_functorial_bundle(tmp_path):
    # the constant presheaf with two elements on finset_inj_2, with one
    # injection set1 -> set2 acting by the swap: P(f∘g) != P(g)∘P(f)
    mc = build_finset_mcat(2)
    c = mc.base
    p = constant_presheaf(c, 2)
    f = c.hom(1, 2)[0]
    action = dict(p.action)
    action[(f, 0)], action[(f, 1)] = 1, 0
    bad = Presheaf(c, p.sizes, action)
    assert not check_presheaf(bad)
    bundle = tmp_path / "bad_psh.json"
    bundle.write_text(dump_bundle(bundle_dict(
        c, monics=mc.monics, presheaves={"bad": (bad, None)})))
    return str(bundle)


@pytest.mark.parametrize("command", [["sheaf-check"], ["sheafify"],
                                     ["transfer", "--direction", "to-jrp"]],
                         ids=["sheaf-check", "sheafify", "transfer-to-jrp"])
def test_cli_gate_stops_on_a_non_functorial_presheaf(tmp_path, capsys,
                                                     command):
    bundle = _non_functorial_bundle(tmp_path)
    assert main(command[:1] + [bundle, "bad"] + command[1:]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["presheaf:bad\tPSH\t\tnot a presheaf",
                                f"FAIL\t{command[0]}\t{bundle}"]
    assert "Traceback" not in err


def test_cli_roundtrip_resolves_its_presheaf_without_checking_it(
        tmp_path, capsys, monkeypatch):
    # roundtrip reads only the name, so not even a presheaf that breaks the
    # laws is checked; sheaf-check, which gates on it, checks it once
    bundle = _non_functorial_bundle(tmp_path)
    checked = []
    real = cli.check_presheaf
    monkeypatch.setattr(cli, "check_presheaf",
                        lambda p: checked.append(p) or real(p))
    assert main(["roundtrip", bundle, "bad"]) == 0
    assert checked == []
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"PASS\troundtrip\t{bundle}"
    assert main(["sheaf-check", bundle, "bad"]) == 1
    assert len(checked) == 1


def _non_associative_bundle(tmp_path):
    # finset_inj_2 with every map total and M the injections, on a table
    # the loader accepts but where (h∘g)∘f != h∘(g∘f) for some triples
    mc = build_finset_mcat(2)
    bad = non_associative(mc.base)
    bundle = tmp_path / "bad_assoc.json"
    bundle.write_text(dump_bundle(bundle_dict(
        bad, restriction=trivial_restriction(bad).bar, monics=mc.monics)))
    return str(bundle)


@pytest.mark.parametrize("command", ["build-par", "topology", "karoubi",
                                     "unit"])
def test_cli_gate_stops_on_a_non_associative_table(tmp_path, capsys,
                                                   command):
    bundle = _non_associative_bundle(tmp_path)
    assert main([command, bundle]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "category\tASSOC\t" in out
    assert all(line.startswith("category\t") for line in lines[:-1])
    assert lines[-1] == f"FAIL\t{command}\t{bundle}"
    assert "Traceback" not in err


def _first(table):
    return next(iter(table))


# each malformed bundle: how it is broken from the finset_p_1 bundle below,
# and the JSON path its error must name
MALFORMED = {
    "presheaves-list": (lambda d: d.update(presheaves=[]), "$.presheaves"),
    "presheaf-int": (lambda d: d["presheaves"].update(P=5),
                     "$.presheaves.P"),
    "section-int": (lambda d: d["presheaves"]["P"]["sections"].update(
        set0=5), "$.presheaves.P.sections.set0"),
    # a repeated element name, which the action table cannot tell apart
    "section-duplicate": (lambda d: d["presheaves"]["P"]["sections"][
        "set1"].append(d["presheaves"]["P"]["sections"]["set1"][0]),
        "$.presheaves.P.sections.set1[2]"),
    "identity-list": (lambda d: d["identities"].update(set0=["x"]),
                      "$.identities.set0"),
    "monic-list": (lambda d: d["monics"].__setitem__(0, ["x"]),
                   "$.monics[0]"),
    "comp-list": (lambda d: d["comp"][0].__setitem__(0, ["x"]), "$.comp[0]"),
    "restriction-list": (lambda d: d["restriction"].update(
        {_first(d["restriction"]): ["x"]}),
        "$.restriction.p0->0:()"),
    "action-list": (lambda d: d["presheaves"]["P"]["action"].update(
        {"p0->0:()": ["x"]}), "$.presheaves.P.action.p0->0:()"),
    # a map with no image for an element: every action is total on load
    "action-missing": (lambda d: d["presheaves"]["P"]["action"][
        "p0->0:()"].clear(), "$.presheaves.P.action"),
    "element-bar-list": (lambda d: d["presheaves"]["P"].update(
        element_bar=[]), "$.presheaves.P.element_bar"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_bundle_exits_2_with_its_path(tmp_path, capsys, case):
    rc = build_finset_p(1)
    rp = yoneda_jr(rc, 1)
    data = json.loads(dump_bundle(bundle_dict(
        rc.base, restriction=rc.bar, monics=[rc.base.identity[0]],
        presheaves={"P": (rp.presheaf, rp.bar_elem)})))
    breaks, path = MALFORMED[case]
    breaks(data)
    bundle = tmp_path / "malformed.json"
    bundle.write_text(json.dumps(data))
    assert main(["check-laws", str(bundle)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bundle error: {path}: ")
    assert "Traceback" not in err


def _par_inj2_rp_bundle(tmp_path):
    # Par(finset_inj_2) with the transfer of each representable as a
    # presheaf with element bars, one of them with two bars swapped so that
    # its RP gate fails, and one presheaf without element bars
    mc = build_finset_mcat(2)
    pc = par(mc)
    presheaves = {}
    for w in mc.base.objects:
        rp = sheaf_to_jrp(pc, yoneda(mc.base, w)).rp
        presheaves[f"y{w}"] = (rp.presheaf, rp.bar_elem)
    bars = [list(col) for col in rp.bar_elem]
    bars[1][0], bars[1][1] = bars[1][1], bars[1][0]
    assert bars != [list(col) for col in rp.bar_elem]
    presheaves["swapped"] = (rp.presheaf, tuple(map(tuple, bars)))
    presheaves["plain"] = (rp.presheaf, None)
    bundle = tmp_path / "par_inj2_rp.json"
    bundle.write_text(dump_bundle(bundle_dict(
        pc.rc.base, restriction=pc.rc.bar, presheaves=presheaves)))
    return str(bundle)


def test_cli_check_laws_runs_the_rp_gate_once_per_presheaf(tmp_path,
                                                           monkeypatch):
    bundle = _par_inj2_rp_bundle(tmp_path)
    calls = []
    real = rpsh.check_rp_axioms
    for module in (rpsh, cli):
        # counted wherever the CLI would look it up
        monkeypatch.setattr(module, "check_rp_axioms",
                            lambda rp: calls.append(rp) or real(rp),
                            raising=False)
    out = tmp_path / "out.json"
    assert main(["check-laws", bundle, "--out", str(out)]) == 1
    # y0, y1, y2 and swapped have element bars, plain has none
    assert len(calls) == 4
    names = [rep["name"] for rep in json.loads(out.read_text())["reports"]]
    # a presheaf whose RP gate fails gets no join-law report
    assert names == ["category", "restriction", "join", "presheaf:plain",
                     "presheaf:swapped", "restriction-presheaf"] + [
        name for w in range(3) for name in (
            f"presheaf:y{w}", "restriction-presheaf",
            "join-restriction-presheaf")]


def test_cli_sheaf_check_enumerates_matching_families_once(monkeypatch):
    # one pass feeds the SEP and the SHEAF report: one matching_families
    # call per covering sieve of finset_inj_2
    calls = []
    real = site.matching_families
    monkeypatch.setattr(site, "matching_families",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["sheaf-check", "finset_inj_2", "yset2"]) == 0
    assert len(calls) == 5


def _cold(monkeypatch, name):
    """Empty the Par, topology and gate memos of fixture name's M-category
    for this test, so a count below sees the first command on it; the warm
    memos come back when the test ends."""
    mc = build_fixture(name).mcat
    monkeypatch.setattr(mc, "par_memo", None)
    monkeypatch.setattr(mc, "topology_memo", None)
    monkeypatch.setattr(mc, "m_system_memo", None)


def test_cli_build_par_checks_the_restriction_axioms_once(tmp_path,
                                                         monkeypatch):
    # par's own invariant check is the report the CLI prints, and a second
    # command on the same M-category reads the Par the first one built
    _cold(monkeypatch, "finset_inj_2")
    calls = []
    real = restriction.check_restriction_axioms
    for module in (restriction, mcat, cli):
        monkeypatch.setattr(module, "check_restriction_axioms",
                            lambda x: calls.append(x) or real(x))
    out = tmp_path / "out.json"
    for _ in range(2):
        assert main(["build-par", "finset_inj_2", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert [(rep["name"], rep["ok"])
                for rep in json.loads(out.read_text())["reports"]] == [
            ("restriction", True)]


def test_cli_geometric_fires_geo_stab_on_m3(tmp_path, capsys):
    bundle = tmp_path / "m3.json"
    bundle.write_text(dump_bundle(m3_bundle()))
    assert main(["geometric", str(bundle)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "geometric\tGEO-STAB\t4,6,8\tmatching colimit not stable under "
        "pullback", f"FAIL\tgeometric\t{bundle}"]
    assert "Traceback" not in err


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def _once_per_m_category(monkeypatch, module, name, argv, count):
    """On a cold finset_inj_3, the first main(argv) calls module.name count
    times and a second one on the same bundle calls it no more."""
    _cold(monkeypatch, "finset_inj_3")
    calls = _counted(monkeypatch, module, name)
    for _ in range(2):
        assert main(argv) == 0
        assert len(calls) == count


def test_cli_gates_each_m_category_once(monkeypatch):
    # the M-system report of the first gated command is kept on the
    # M-category, and a second command on the same bundle reads it
    _cold(monkeypatch, "finset_inj_3")
    calls = _counted(monkeypatch, mcat, "_m_pb_scan")
    for argv in (["build-par", "finset_inj_3"],
                 ["geometric", "finset_inj_3"]):
        assert main(argv) == 0
        assert len(calls) == 1


def test_cli_searches_no_cone_that_the_isos_give(monkeypatch):
    # on a cold finset_inj_3, with its joins and pullbacks forgotten too:
    # colimit sees no matching diagram of at most one member (at most one
    # vertex), and _pullback_search no cospan with an iso leg
    _cold(monkeypatch, "finset_inj_3")
    mc = build_fixture("finset_inj_3").mcat
    c = mc.base
    monkeypatch.setattr(mc, "antichain_memo", {})
    monkeypatch.setattr(c, "_pullback_cache", {})
    colimits = _counted(monkeypatch, mcat, "colimit")
    searched = _counted(monkeypatch, fincat, "_pullback_search")
    assert main(["geometric", "finset_inj_3"]) == 0
    assert main(["build-par", "finset_inj_3"]) == 0
    assert colimits and searched
    assert min(len(d.obj_map) for _, d in colimits) == 3
    assert not any(c.is_iso(f) or c.is_iso(g) for _, f, g in searched)


def test_cli_topology_enumerates_each_object_s_sieves_once(monkeypatch):
    # the fixpoint check reads the sieves the topology was saturated over
    _once_per_m_category(monkeypatch, site, "sieves_on",
                         ["topology", "finset_inj_3"], 4)


def test_cli_topology_saturates_once(monkeypatch):
    # TOP-FIX reads the certificate pass generate_topology already ran
    _once_per_m_category(monkeypatch, site, "_saturate",
                         ["topology", "finset_inj_3"], 1)


def test_cli_to_sheaf_finds_the_basis_covers_once(monkeypatch):
    # the amalgamation formula reads the families the topology came from
    _once_per_m_category(monkeypatch, site, "basis_covers",
                         ["transfer", "finset_inj_3", "yset3",
                          "--direction", "to-sheaf"], 1)


def test_cli_to_sheaf_refuses_an_unknown_object_before_building(
        monkeypatch, capsys):
    par_calls = _counted(monkeypatch, cli, "par")
    top_calls = _counted(monkeypatch, cli, "generate_topology")
    assert main(["transfer", "finset_inj_2", "ynosuch",
                 "--direction", "to-sheaf"]) == 2
    out, err = capsys.readouterr()
    assert err == ("bundle error: $: to-sheaf expects a representable "
                   "y<object>; no object named 'nosuch'\n")
    assert "Traceback" not in err
    assert par_calls == top_calls == []


def test_cli_unit_searches_each_splitting_once(monkeypatch):
    # karoubi_r splits the 13 restriction idempotents of Karoubi(finset_p_2)
    # once and par the 13 of its output; mtotal and the comparison read the
    # splittings kept on Karoubi(finset_p_2)
    calls = _counted(monkeypatch, mcat, "_splitting")
    assert main(["unit", "finset_p_2"]) == 0
    assert len(calls) == 26


# -- the exit-code contract under mutation -------------------------------------

def _fuzz_bases():
    """Three small valid bundles, each with a presheaf named P: finset_p_1
    with the representable restriction presheaf at set1, finset_inj_2 with
    the representable at set2, and Par(finset_inj_1) with the transfer of
    the representable at set1.  The restriction bundles take the identities
    as monics."""
    rc = build_finset_p(1)
    rp = yoneda_jr(rc, 1)
    mc = build_finset_mcat(2)
    pc = par(build_finset_mcat(1))
    tr = sheaf_to_jrp(pc, yoneda(pc.mc.base, 1)).rp
    return {
        "finset_p_1": bundle_dict(
            rc.base, restriction=rc.bar, monics=rc.base.identity,
            presheaves={"P": (rp.presheaf, rp.bar_elem)}),
        "finset_inj_2": bundle_dict(
            mc.base, monics=mc.monics,
            presheaves={"P": (yoneda(mc.base, 2), None)}),
        "par_inj_1": bundle_dict(
            pc.rc.base, restriction=pc.rc.bar, monics=pc.rc.base.identity,
            presheaves={"P": (tr.presheaf, tr.bar_elem)}),
    }


FUZZ_BASES = _fuzz_bases()


def _keys(table):
    return range(len(table)) if isinstance(table, list) else table


def _fuzz_slots(data, section):
    """(table, key) for each entry of one section of a bundle: an object,
    a morphism, a comp triple, an identity, a monic, a bar, a section
    element, an action image, an element bar."""
    psh = data.get("presheaves", {}).get("P", {})
    if section in ("sections", "action", "element_bar"):
        table = psh.get(section, {})
        return [(row, key) for row in table.values() for key in _keys(row)]
    table = data.get(section, ())
    return [(table, key) for key in _keys(table)]


def _mutate(data, section, op, i, j, target):
    """Delete, retarget or duplicate entry i of the section: a retarget
    sets it (in a comp triple, its item j; in a morphism, its src or tgt
    by j) to target; a duplicate copies it to position j of a list, or over
    entry j of a table."""
    slots = _fuzz_slots(data, section)
    if not slots:
        return
    table, key = slots[i % len(slots)]
    if op == "delete":
        del table[key]
    elif op == "retarget" and isinstance(table[key], list):
        table[key][j % len(table[key])] = target
    elif op == "retarget" and isinstance(table[key], dict):
        table[key][("src", "tgt")[j % 2]] = target
    elif op == "retarget":
        table[key] = target
    elif isinstance(table, list):
        table.insert(j % (len(table) + 1), copy.copy(table[key]))
    else:
        other, other_key = slots[j % len(slots)]
        other[other_key] = table[key]


FUZZ_NAMES = sorted({name for data in FUZZ_BASES.values()
                     for name in data["objects"] + [
                         m["id"] for m in data["morphisms"]] + [
                         e for lst in data["presheaves"]["P"][
                             "sections"].values() for e in lst]})
FUZZ_COMMANDS = [["check-laws"], ["build-par"], ["karoubi"], ["geometric"],
                 ["topology"], ["sheaf-check", "P"], ["sheafify", "P"],
                 ["transfer", "P", "--direction", "to-jrp"],
                 ["transfer", "yset1", "--direction", "to-sheaf"],
                 ["roundtrip", "P"], ["unit"]]


# one mutation: (section, op, i, j, target), the arguments of _mutate
FUZZ_MUTATION = st.tuples(
    st.sampled_from(["objects", "morphisms", "comp", "identities", "monics",
                     "restriction", "sections", "action", "element_bar"]),
    st.sampled_from(["delete", "retarget", "duplicate"]),
    st.integers(0, 40), st.integers(0, 40), st.sampled_from(FUZZ_NAMES))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FUZZ_BASES)),
       st.lists(FUZZ_MUTATION, min_size=1, max_size=2))
# a bar that is no endomorphism of its source, under a presheaf with
# element bars: check-laws once raised a KeyError in the RP2 check
@example("finset_p_1", [("restriction", "retarget", 1, 0, "p0->1:()")])
# two defects in the comp section at once: a composite retargeted and a
# composable pair left without an entry
@example("finset_p_1", [("comp", "retarget", 3, 2, "p1->1:(0,)"),
                        ("comp", "delete", 5, 0, "p0->1:()")])
def test_cli_exits_0_1_or_2_on_mutated_bundles(tmp_path_factory, base,
                                               mutations):
    data = copy.deepcopy(FUZZ_BASES[base])
    for mutation in mutations:
        _mutate(data, *mutation)
    bundle = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    bundle.write_text(json.dumps(data))
    for command in FUZZ_COMMANDS:
        argv = command[:1] + [str(bundle)] + command[1:] + [
            "--max-family", "2"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("bundle error: $"), argv


def test_cli_check_laws_skips_rp_reports_on_a_bad_bar(tmp_path, capsys):
    data = copy.deepcopy(FUZZ_BASES["finset_p_1"])
    data["restriction"]["p0->1:()"] = "p0->1:()"
    bundle = tmp_path / "bad_bar.json"
    bundle.write_text(json.dumps(data))
    assert main(["check-laws", str(bundle)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "restriction\tBAR-SHAPE\t1,1\tf̄ is not an endomorphism of src(f)",
        f"FAIL\tcheck-laws\t{bundle}"]
    assert err == ""
