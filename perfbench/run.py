"""Time-to-verdict benchmark for rcwb.

    python3 perfbench/run.py --workload {laws,spans,sites} --seed N
        --seconds S --trace {0,1}

A closed loop with one caller.  Each pass runs the workload's whole job list
in a fresh interpreter (worker.py), and each job starts only after the
previous verdict.  Passes start while the next one is expected to end within
S seconds, with at least three per run, or two if a third would end after
2 S.  Before the passes, set-up-only interpreters measure the time from a
fresh interpreter to ready.

--trace 0 reports the end-to-end metrics of untraced passes.
--trace 1 alternates untraced and traced passes and reports per-layer self
times, counts and shares from the traced ones (see spans.py), with
trace.overhead_s as traced minus untraced median wall time.

Every job's exit code and normalised stdout are compared with
expected.json.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_PROBES = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170
END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "verdicts_ok": "fraction"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace.coverage":
        return "fraction"
    return "count"


PER_LAYER = (spans.SELF_METRICS + list(spans.COUNTS) + sorted(spans.SHARES)
             + ["trace.coverage", "trace.overhead_s"])


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _worker(workload, seed, workdir, index, deadline, trace=False,
            setup_only=False):
    """Run worker.py once; returns (result or None if killed, spawn time,
    seconds until exit)."""
    out = os.path.join(workdir, f"pass-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--out", out]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(WORK, f"spans-{workload}.tsv")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    took = time.perf_counter() - spawned
    if code is None:
        return None, spawned, took
    if code != 0 or not os.path.exists(out):
        raise BenchError(f"worker exited with {code} ({' '.join(cmd)})")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), spawned, took


def run(workload, seed, seconds, trace, expected=None):
    """Measure one run; returns the result object printed as the last line,
    plus a "report" entry of human-readable lines."""
    if not os.path.isdir(os.path.join(ROOT, "src", "rcwb")):
        raise BenchError(f"no rcwb sources under {ROOT}")
    expected = load_expected() if expected is None else expected
    job_list = workloads.jobs(workload, seed)
    missing = [workloads.job_key(j) for j in job_list
               if workloads.job_key(j) not in expected]
    if missing:
        raise BenchError(f"no pinned expectation for {missing}")
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setups, passes = [], []
    try:
        for i in range(SETUP_PROBES):
            res, spawned, _ = _worker(workload, seed, workdir, i, deadline,
                                      setup_only=True)
            if res is None:
                raise BenchError("set-up did not finish in time")
            setups.append(res["ready"] - spawned)
        loop_start = time.perf_counter()
        took = []
        while True:
            traced = trace and len(passes) % 2 == 1
            res, spawned, seconds_taken = _worker(
                workload, seed, workdir, SETUP_PROBES + len(passes),
                deadline, trace=traced)
            took.append(seconds_taken)
            if res is None:
                passes.append({"traced": traced, "killed": True,
                               "wall": seconds_taken,
                               "slowest": seconds_taken, "jobs": []})
                break
            setups.append(res["ready"] - spawned)
            res["traced"] = traced
            passes.append(res)
            now, typical = time.perf_counter(), statistics.median(took)
            next_end = now - loop_start + typical
            if (len(passes) >= MIN_PASSES and next_end > seconds
                    or len(passes) >= 2 and next_end > 2 * seconds
                    or now + typical > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarise(job_list, passes, setups, expected, trace)


def _median(values):
    """The median, or 0.0 when a killed pass left no sample."""
    return statistics.median(values) if values else 0.0


def _summarise(job_list, passes, setups, expected, trace):
    report = []
    attempted = failed = 0
    ok_untraced = attempted_untraced = 0
    for p in passes:
        jobs = p["jobs"]
        if p.get("killed"):
            jobs = [{"key": workloads.job_key(j), "exit": None, "stdout": [],
                     "error": "pass killed at the run time limit"}
                    for j in job_list]
        for j in jobs:
            want = expected[j["key"]]
            ok = j["error"] is None and j["exit"] == want["exit"] and \
                j["stdout"] == want["stdout"]
            attempted += 1
            failed += not ok
            if not p["traced"]:
                attempted_untraced += 1
                ok_untraced += ok
            if not ok:
                report.append(f"job failed: {j['key']}: exit {j['exit']} "
                              f"(want {want['exit']}) "
                              f"{(j['error'] or '').strip()[-300:]}")
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in plain]
    correct = failed == 0
    if trace:
        traced = [p for p in passes if p["traced"] and not p.get("killed")]
        layers = [p["layers"] for p in traced]
        counts = {tuple(lay[m] for m in spans.COUNTS) for lay in layers}
        if len(counts) > 1:
            correct = False
            report.append("per-layer counts differ between traced passes")
        metrics = {m: _median([lay[m] for lay in layers])
                   for m in PER_LAYER if m != "trace.overhead_s"}
        metrics.update({m: layers[0][m] if layers else 0
                        for m in spans.COUNTS})
        metrics["trace.overhead_s"] = (
            _median([p["wall"] for p in traced]) - _median(walls))
        units = {m: per_layer_unit(m) for m in PER_LAYER}
    else:
        finished = [p for p in plain if not p.get("killed")]
        metrics = {
            "wall_s": _median(walls),
            "slowest_job_s": _median([p["slowest"] for p in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["rss_mb"] for p in finished]),
            "verdicts_ok": ok_untraced / attempted_untraced,
        }
        units = END_TO_END
    report.append(f"passes: {len(plain)} untraced, "
                  f"{len(passes) - len(plain)} traced; "
                  f"wall_s median {_median(walls):.4f} "
                  f"max {max(walls):.4f} s over {len(walls)}; "
                  f"setup_s median {statistics.median(setups):.4f} "
                  f"max {max(setups):.4f} s over {len(setups)}")
    report.append("untraced pass wall_s: "
                  + " ".join(f"{w:.4f}" for w in walls))
    for name in sorted(metrics):
        report.append(f"{name}\t{metrics[name]}\t{units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()},
            "report": report}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
