"""Tests of the benchmark itself, on the size <= 2 job list "small".

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_named_metric_is_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "small", "--seed", "3", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_a_planted_wrong_expectation_lowers_verdicts_ok():
    expected = run.load_expected()
    honest = run.run("small", 5, 0.1, False, expected)
    assert honest["correct"] and honest["metrics"]["verdicts_ok"]["value"] == 1
    planted = dict(expected)
    planted["check-laws nojoin"] = dict(expected["check-laws nojoin"], exit=0)
    lines = expected["topology finset_inj_2"]["stdout"]
    planted["topology finset_inj_2"] = {"exit": 0,
                                        "stdout": lines + ["extra line"]}
    result = run.run("small", 5, 0.1, False, planted)
    passes = result["attempted"] // 7
    assert not result["correct"]
    assert result["failed"] == 2 * passes
    assert result["metrics"]["verdicts_ok"]["value"] == 5 / 7


def test_per_layer_counts_repeat_across_two_traced_passes():
    workdir = os.path.join(run.WORK, f"test-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        counts = []
        for i in range(2):
            res, _, _ = run._worker("small", 7, workdir, i, 1e12, trace=True)
            counts.append({m: res["layers"][m] for m in spans.COUNTS})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert counts[0] == counts[1]
    assert counts[0]["joins.join_calls"] > 0
    assert counts[0]["site.sieves_on_calls"] > 0
    assert counts[0]["mcat.matching_colimit_calls"] > 0


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", "laws", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
