"""Benchmark of the fracplap CLI: end-to-end metrics and, traced, per-layer ones.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload direct-p3 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --workload all --smoke --seconds 1   # tiny grids

Each run starts one fresh child interpreter (``child.py``) with the BLAS
thread count pinned, which imports fracplap from ``src/`` and repeats the
workload's command for ``--seconds`` after a warm-up, checking every
output.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``layers.py`` (the spans of the last
traced round go to ``.perfbench_out/spans-<workload>.jsonl``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The machine and library versions are printed on an ``env`` line above it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

# (metric, unit); all are better lower except ok_frac.  ok_frac is the
# share of operations that passed their oracle, 1 - fail_frac.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]


def run_child(job: dict, root: Path) -> dict:
    """Run one measurement in a fresh interpreter; return its raw result."""
    out = root / ".perfbench_out" / f"{job['name']}-{'trace' if job['trace'] else 'plain'}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job = dict(
        job,
        src=str(root / "src"),
        workdir=str(out / "work"),
        spans_path=str(root / ".perfbench_out" / f"spans-{job['name']}.jsonl"),
    )
    (out / "job.json").write_text(json.dumps(job), encoding="utf-8")
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    try:
        # the child's stdout goes to our stderr so that our last stdout line is the result
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(out / "job.json"), str(out / "result.json")],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{job['name']}: measuring process timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"{job['name']}: measuring process exited with {proc.returncode}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["spans_path"] = job["spans_path"]
    shutil.rmtree(out)
    return result


def summarize(raw: dict, trace: bool) -> dict:
    """The result object: correct, attempted, failed and the metrics."""
    attempted = raw["attempted"]
    failed = len(raw["failures"])
    if trace:
        rounds = raw["layers"]
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        values = {
            "wall_s": statistics.median(raw["wall_s"]),
            "cpu_s": statistics.median(raw["cpu_s"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(name: str, raw: dict, summary: dict, trace: bool) -> None:
    """Human-readable lines for one run."""
    print("env " + json.dumps(raw["env"], sort_keys=True))
    failed, attempted = summary["failed"], summary["attempted"]
    print(f"workload {name}: trace={int(trace)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g}")
    for reason in sorted(set(raw["failures"])):
        print(f"  failure: {reason}")
    if trace:
        print(f"  traced rounds: {len(raw['layers'])}; absent entry points: {raw['absent'] or 'none'}")
        print(f"  spans of the last traced round: {raw['spans_path']}")
    else:
        for key in ("wall_s", "cpu_s", "setup_s"):
            xs = raw[key]
            print(f"  {key} samples: n={len(xs)} min={min(xs):.4f} max={max(xs):.4f}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for checking the harness")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fracplap" / "__init__.py").is_file():
        print(f"no fracplap sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    def run_one(name: str, trace: bool) -> dict:
        job = workloads.make_job(name, args.seed, args.smoke)
        job.update(seconds=args.seconds, trace=trace)
        raw = run_child(job, root)
        summary = summarize(raw, trace)
        report(name, raw, summary, trace)
        return summary

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, bool(args.trace))))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.NAMES:
        for trace in (False, True):
            summary = run_one(name, trace)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            section = "per_layer" if trace else "end_to_end"
            combined["workloads"].setdefault(name, {})[section] = summary["metrics"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
