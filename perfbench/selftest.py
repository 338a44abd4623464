"""Self-test of the benchmark harness on tiny grids; takes about half a minute.

    python3 perfbench/selftest.py        # from the repository root

Checks that
  * BENCHMARK.json lists exactly the metrics and workloads the harness reports;
  * ``run.py --workload all --smoke`` exits 0 with no failed operation and
    prints every end-to-end and per-layer metric for every workload;
  * a deliberately wrong reference energy makes every operation fail
    (fail_frac = 1) instead of crashing the harness;
  * an entry point that no longer exists is reported as absent, and the
    tracer puts every wrapped name back;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads

ROOT = Path.cwd()
SMOKE_SEED = 7


def check_manifest() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == workloads.NAMES, bench["workloads"]
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert listed == run.END_TO_END, listed
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == layers.PER_LAYER, listed


def check_smoke_run() -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
           "--seconds", "0.5", "--seed", str(SMOKE_SEED)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    for name in workloads.NAMES:
        sections = result["workloads"][name]
        for metric, unit in run.END_TO_END:
            assert sections["end_to_end"][metric]["unit"] == unit, (name, metric)
        for metric, unit, _ in layers.PER_LAYER:
            assert sections["per_layer"][metric]["unit"] == unit, (name, metric)
        assert f"workload {name}: trace=0" in proc.stdout
        assert f"workload {name}: trace=1" in proc.stdout
    assert "env {" in proc.stdout


def check_wrong_reference() -> None:
    job = workloads.make_job("direct-p3", SMOKE_SEED, smoke=True)
    job["oracle"]["energy"] *= 1.5
    job.update(seconds=0.2, trace=False)
    summary = run.summarize(run.run_child(job, ROOT), trace=False)
    assert not summary["correct"], summary
    assert summary["failed"] == summary["attempted"] >= 1, summary
    assert summary["metrics"]["ok_frac"]["value"] == 0.0, summary


def check_absent_entry_point() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    solvers = importlib.import_module("fracplap.solvers")
    before = solvers.energy
    tracer = layers.Tracer()
    missing = [
        ("solvers.metric_factor", "fracplap.solvers", "no_such_function"),
        ("fracops.apply", "fracplap.no_such_module", "apply"),
    ]
    restore = tracer.install(layers.ENTRY_POINTS + missing)
    assert solvers.energy is not before
    restore()
    assert solvers.energy is before
    assert tracer.absent == [f"{m}.{a}" for _, m, a in missing], tracer.absent
    assert layers.metrics(tracer)["trace.absent_entry_points"] == 2


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "direct-p3",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = (check_manifest, check_smoke_run, check_wrong_reference,
              check_absent_entry_point, check_bare_directory)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
