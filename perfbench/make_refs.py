#!/usr/bin/env python3
"""Regenerate refs.json: the +64-bit references of every seed-independent
input (pentagon, windmill, pentagon grid) and of seed 0's seeded inputs.

    python3 perfbench/make_refs.py

Runs one untimed pass of each workload at seed 0, checks it with an empty
reference store, and writes every reference the checks computed.  Run it when
a workload's inputs change; the benchmark computes any reference it does not
find here, so a stale file costs time, never correctness.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads


def main() -> int:
    mods = run.import_polyrho()
    import checks

    refs = checks.References(path=None)
    work = os.path.join(run.WORK_ROOT, f"refs-{os.getpid()}")
    status = 0
    try:
        for name in workloads.WORKLOADS:
            wl, input_dir = run.prepare(name, 0, mods, os.path.join(work, name), False)
            passes = [run.run_pass(wl, mods, 0, os.path.join(work, name), input_dir)]
            report = checks.check_run(wl, passes, refs)
            print(f"{name}: correct={report.correct} {report.problems}")
            status = status or (not report.correct)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs.dump()
    print(f"wrote {len(refs.computed)} references to {checks.REFS_PATH}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
