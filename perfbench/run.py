#!/usr/bin/env python3
"""polyrho benchmark: certified rho_N, family sweeps, and verify/cache runs.

    python3 perfbench/run.py --workload certify-high-n --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout, never from an installed copy.  One process, one thread; each
workload is a closed loop that repeats its fixed op list ("a pass") until
``--seconds`` are used, with at least two passes so output files can be
compared byte for byte.  Outputs are checked after the timed passes.  The last
line of stdout is one JSON object; the exit code is 1 when a check fails and
2 when the checkout has no ``src/polyrho``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
ENV_PRECISION = "POLYRHO_PRECISION_BITS"
WARM_UP = ["rho", "--family", "regular-ngon:4", "--n", "2"]

END_TO_END_UNITS = {
    "wall_cal_s": "s", "op_cal_s_p50": "s", "ok_frac": "ratio", "err_digits_min": "digits",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# Speed calibration.  The machine's speed drifts by up to a quarter over
# seconds to minutes, and CPU time drifts with it.  While an op runs, a timer
# interrupts it every PROBE_EVERY_S to time a fixed slice of interpreter work
# (about 0.1 ms); one more slice is timed just before and just after the op.
# The op's calibrated time is its own time (probe slices removed) times
# PROBE_NOMINAL_S / (median slice time): seconds at the speed where one slice
# takes PROBE_NOMINAL_S, about its median on a 2-core shared x86-64 VM at
# 2.1 GHz under Python 3.11.
PROBE_EVERY_S = 0.02
PROBE_NOMINAL_S = 1.3e-4


def import_polyrho() -> dict:
    """Import polyrho from this checkout's src/; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "polyrho", "__init__.py")):
        print(f"perfbench: no polyrho package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import polyrho
    from polyrho import cli, content, extremal, geometry, moments, oracle

    if not os.path.abspath(polyrho.__file__).startswith(SRC + os.sep):
        print(f"perfbench: polyrho imported from {polyrho.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return {"cli": cli, "content": content, "extremal": extremal, "geometry": geometry,
            "moments": moments, "oracle": oracle}


@dataclass
class OpRun:
    op: object
    seconds: float      # the op's own time, probe slices removed
    rc: object          # exit code of cli.main, 0 for an extremal call, None if it raised
    error: str
    result: object      # return value of an extremal call
    stdout: str
    speed: float        # PROBE_NOMINAL_S over the median probe slice around this op

    @property
    def seconds_cal(self) -> float:
        return self.seconds * self.speed

    @property
    def failed(self) -> bool:
        return self.rc != 0

    @property
    def why(self) -> str:
        return self.error or f"exit code {self.rc}"


@dataclass
class Pass:
    index: int
    dir: str
    runs: list
    traced: bool

    @property
    def wall(self) -> float:
        """Seconds the ops took, back to back."""
        return sum(r.seconds for r in self.runs)

    @property
    def wall_cal(self) -> float:
        return sum(r.seconds_cal for r in self.runs)

    @property
    def speed(self) -> float:
        return self.wall_cal / self.wall


def probe_slice() -> float:
    """Seconds for a fixed slice of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Times probe slices on a SIGALRM timer while the block runs."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_slice())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_op(op, mods, pass_dir, input_dir) -> OpRun:
    if op.kind == "maximize":
        fam = mods["geometry"].FamilySpec("triangle-base", (("a", 3.0),), ("lambda",))
        s = op.spec
    else:
        argv = op.command(pass_dir, input_dir)
    out = io.StringIO()
    rc, error, result = None, "", None
    before = probe_slice()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                if op.kind == "maximize":
                    result = mods["extremal"].maximize_1d(fam, s["lo"], s["hi"], s["n"],
                                                          tol=s["tol"], steps=s["steps"])
                    rc = 0
                else:
                    rc = mods["cli"].main(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - sum(probe.samples)
    slices = [before, *probe.samples, probe_slice()]
    speed = PROBE_NOMINAL_S / statistics.median(slices)
    return OpRun(op, seconds, rc, error, result, out.getvalue(), speed)


def run_pass(wl, mods, index, work, input_dir, tracer=None) -> Pass:
    pass_dir = os.path.join(work, f"pass{index}")
    os.makedirs(pass_dir)
    runs = []
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(wl.ops):
            if tracer:
                tracer.op, tracer.op_kind = f"p{index}:{i}:{op.name}", op.kind
            runs.append(run_op(op, mods, pass_dir, input_dir))
    finally:
        if tracer:
            tracer.uninstall()
    return Pass(index, pass_dir, runs, tracer is not None)


def measure(wl, mods, seconds, work, input_dir, tracer=None) -> list:
    """Closed loop: passes back to back until `seconds` would be exceeded,
    at least two.  With a tracer, passes alternate untraced and traced."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer if (tracer and len(passes) % 2 == 1) else None
        passes.append(run_pass(wl, mods, len(passes), work, input_dir, traced))
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= 2 and time.perf_counter() - start + typical > seconds:
            return passes


def prepare(workload, seed, mods, work, small):
    """Set-up: generate the inputs and warm up, as a fresh process would."""
    wl = workloads.build(workload, seed, small)
    input_dir = os.path.join(work, "inputs")
    workloads.write_inputs(wl, input_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        if mods["cli"].main(WARM_UP) != 0:
            raise RuntimeError("warm-up op failed")
    return wl, input_dir


def measure_setup(args, work) -> float:
    """Median wall time of fresh interpreters that import polyrho, generate the
    workload's inputs and run the warm-up op."""
    env = {k: v for k, v in os.environ.items() if k != ENV_PRECISION}
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", os.path.join(work, f"setup{i}")] + (["--small"] if args.small else [])
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(passes, report, setup_s, peak_rss_mb, failed, attempted) -> dict:
    ops = [r.seconds_cal for p in passes for r in p.runs]
    return {
        "wall_cal_s": statistics.median(p.wall_cal for p in passes),
        "op_cal_s_p50": statistics.median(ops),
        "ok_frac": (attempted - failed) / attempted,
        "err_digits_min": min(report.digits, default=0.0),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(args) -> int:
    mods = import_polyrho()
    os.environ.pop(ENV_PRECISION, None)
    import checks
    import tracing

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_s = None if args.trace else measure_setup(args, work)
        wl, input_dir = prepare(args.workload, args.seed, mods, work, args.small)
        tracer = tracing.Tracer(mods) if args.trace else None
        passes = measure(wl, mods, args.seconds, work, input_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = checks.check_run(wl, passes, checks.References())
        runs = [r for p in passes for r in p.runs]
        failed = sum(r.failed or r.op.name in report.mismatched for r in runs)
        if args.trace:
            traced = [p for p in passes if p.traced]
            metrics = tracing.summarize(tracer, traced)
            metrics["oracle.failed"] += report.oracle_failed
            metrics["cli.overclaim_digits_max"] = max(report.overclaims, default=0.0)
            metrics["bench.trace_overhead_s"] = (
                statistics.median(p.wall_cal for p in traced)
                - statistics.median(p.wall_cal for p in passes if not p.traced))
            units = tracing.PER_LAYER_UNITS
            os.makedirs(OUT_ROOT, exist_ok=True)
            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            print(f"spans: {spans_path}")
        else:
            metrics = end_to_end(passes, report, setup_s, peak_rss_mb, failed, len(runs))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"pass walls {', '.join(f'{p.wall:.2f}' for p in passes)} s, "
          f"speed factors {', '.join(f'{p.speed:.3f}' for p in passes)}")
    for msg in report.notes:
        print(f"known defect: {msg}")
    for msg in report.problems:
        print(f"CHECK FAILED: {msg}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if report.correct else 1


def setup_probe(args) -> int:
    mods = import_polyrho()
    os.makedirs(args.work)
    prepare(args.workload, args.seed, mods, args.work, args.small)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            rows[name] = json.loads(lines[-1])
    names = list(next(iter(rows.values()))["metrics"]) if rows else []
    print(f"\n{'metric':34s}" + "".join(f"{w:>18s}" for w in rows))
    for metric in names:
        unit = rows[next(iter(rows))]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:18.6g}" for r in rows.values())
        print(f"{metric + ' [' + unit + ']':34s}{cells}")
    print(f"{'correct':34s}" + "".join(f"{str(r['correct']):>18s}" for r in rows.values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="certify-high-n, sweep-low-n, cache-verify, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny N and grids, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
