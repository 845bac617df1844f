"""Pin the expected exit code and stdout lines of every benchmark job.

    python3 perfbench/pin.py

Runs every job of every workload, for every menu entry, once in this
process, and writes perfbench/expected.json.  Run it only when a change is
meant to alter verdicts or report lines; the benchmark compares every job
against this file.
"""

from __future__ import annotations

import json
import os
import shutil

import run
import worker  # puts src/ on sys.path
import workloads

import rcwb.cli  # noqa: E402


def pin():
    workdir = os.path.join(run.WORK, f"pin-{os.getpid()}")
    jobs = sorted({job for w in workloads.WORKLOADS
                   for choice in workloads.menu_choices(w)
                   for job in workloads.expand(w, choice)})
    expected = {}
    try:
        paths = workloads.write_bundles(workloads.bundle_names(jobs), workdir)
        worker.check_bundles(rcwb.cli.main, paths)
        for job in jobs:
            code, lines, seconds, error = worker.run_job(
                rcwb.cli.main, workloads.resolve(job, paths))
            if error is not None:
                raise RuntimeError(f"{workloads.job_key(job)}: {error}")
            print(f"{seconds:8.3f} s  exit {code}  {workloads.job_key(job)}")
            expected[workloads.job_key(job)] = {
                "exit": code, "stdout": workloads.normalise(lines, paths)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    pin()
