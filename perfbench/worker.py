"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --out F
        [--trace --spans S] [--setup-only]

Set-up imports rcwb (the lazily imported bridge included) and generates and
writes the workload's bundles; the perf_counter reading when set-up ends is
reported as "ready".  The bundles are then checked with check-laws, outside
any timed region, and the jobs run one after another through rcwb.cli.main
with stdout captured.  The result, with every job's exit code and normalised
stdout, is written to F as JSON.  --trace runs the jobs under spans.Tracer and
writes the spans to S.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# cli imports the other layers; it imports bridge and fixtures lazily
MODULES = ("cli", "bridge", "fixtures")
JOB_TIMEOUT_S = 60


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(main, argv, tracer=None, index=0, timeout=JOB_TIMEOUT_S):
    """(exit code or None, stdout lines, seconds, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.job(index, lambda: main(argv))
    except JobTimeout:
        error = f"timeout after {timeout} s"
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue().splitlines(), seconds, error


def check_bundles(main, paths):
    """Every generated bundle must pass check-laws before it is used."""
    for name, path in sorted(paths.items()):
        code, lines, _, error = run_job(main, ["check-laws", path])
        if code != 0:
            raise RuntimeError(f"generated bundle {name} fails check-laws: "
                               f"exit {code}, {error or lines}")


def run_pass(workload, seed, workdir, trace=False, setup_only=False,
             spans_path=None):
    for name in MODULES:
        importlib.import_module("rcwb." + name)
    job_list = workloads.jobs(workload, seed)
    paths = workloads.write_bundles(workloads.bundle_names(job_list), workdir)
    ready = time.perf_counter()
    result = {"ready": ready}
    if setup_only:
        return result
    main = sys.modules["rcwb.cli"].main
    check_bundles(main, paths)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    jobs = []
    start = time.perf_counter()
    for index, job in enumerate(job_list):
        code, lines, seconds, error = run_job(
            main, workloads.resolve(job, paths), tracer, index)
        jobs.append({"key": workloads.job_key(job), "exit": code,
                     "stdout": workloads.normalise(lines, paths),
                     "seconds": seconds, "error": error})
    end = time.perf_counter()
    result.update(
        wall=end - start,
        slowest=max(j["seconds"] for j in jobs),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        jobs=jobs)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.workdir, args.trace,
                      args.setup_only, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
