"""Smoke test of the benchmark itself at small N.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload with ``--small`` in both modes and checks the result
schema against BENCHMARK.json, that the output checks catch a corrupted
value, and that a checkout without ``src/polyrho`` is refused.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

MODS = run.import_polyrho()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_schema(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 2 * len(workloads.build(workload, 7, small=True).ops)
    assert 0 <= doc["failed"] <= doc["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}
    for rec in doc["metrics"].values():
        assert isinstance(rec["value"], (int, float))
    if not trace:
        assert doc["metrics"]["wall_cal_s"]["value"] > 0
        assert doc["metrics"]["setup_s"]["value"] > 0


def test_checks_catch_a_wrong_value():
    import checks

    work = os.path.join(run.WORK_ROOT, f"smoke-{os.getpid()}")
    try:
        wl, input_dir = run.prepare("certify-high-n", 3, MODS, work, small=True)
        passes = [run.run_pass(wl, MODS, k, work, input_dir) for k in range(2)]
        assert checks.check_run(wl, passes, checks.References(path=None)).correct
        path = os.path.join(passes[0].dir, "pentagon.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["value"] = repr(float(doc["value"]) * (1 + 1e-6))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        report = checks.check_run(wl, passes, checks.References(path=None))
        assert not report.correct
        assert any("rho:pentagon" in msg for msg in report.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_checkout_without_sources_is_refused():
    bare = os.path.join(run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-low-n",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
