"""Measuring process: runs one workload repeatedly in a fresh interpreter.

    python3 child.py JOB.json RESULT.json

``run.py`` starts this with the BLAS thread count pinned in the
environment and ``PYTHONPATH`` set to the checkout's ``src``.  The job
names the workload, the seed, how long to measure and whether to trace.
Every command's outputs go through the workload's oracle; a non-zero
exit, an exception or a mismatch counts as a failed operation.

Untraced: one warm-up command, then rounds of (repeated set-up, command)
until the time is up.  Traced: one warm-up, then rounds of
(untraced command, traced command); the verify workload also traces the
public ``verify()`` once per property after its command.  The spans of
the last traced round are written to the job's ``spans_path``.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads

MIN_ROUNDS = 3
# Each round sets the problem up at least MIN_SETUPS times and for at
# least SETUP_ROUND_S seconds, so that millisecond set-ups get enough
# samples for a steady median.
MIN_SETUPS = 3
SETUP_ROUND_S = 0.25


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Runner:
    """Runs and checks the workload's command; counts operations."""

    def __init__(self, job: dict, workdir: Path):
        self.job = job
        self.workdir = workdir
        self.cli = importlib.import_module("fracplap.cli")
        self.argv = workloads.command(job, workdir)
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(reason)
            print(f"{self.job['name']}: operation failed: {reason}", file=sys.stderr)

    def command(self) -> tuple[float, float]:
        """Run the command once; return its wall and CPU seconds."""
        for out in ("sol.csv", "rep.json", "verify.json"):
            (self.workdir / out).unlink(missing_ok=True)
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(self.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if code is None:
            self.record("exception")
        else:
            try:
                self.record(workloads.check(self.job, self.workdir, code))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.record(f"unreadable output: {exc!r}")
        return wall, cpu

    def setup(self) -> float:
        """Seconds to a ready problem, built and then dropped."""
        t0 = time.perf_counter()
        if self.job["kind"] == "solve":
            cfg = self.cli.load_config(self.argv[2])
            ready = cfg.build_state()
        else:
            from fracplap.fracops import build_operators
            from fracplap.grid import FracParams, make_grid

            a = self.job["args"]
            grid = make_grid(a["T"], a["n"])
            ready = build_operators(FracParams(alpha=a["alpha"], p=a["p"], T=a["T"]), grid)
        elapsed = time.perf_counter() - t0
        del ready
        return elapsed

    def properties(self, tracer: layers.Tracer) -> None:
        """Public ``verify()`` once per property, each its own traced operation."""
        from fracplap.grid import FracParams, make_grid
        from fracplap.verify import PropertyId

        verify_mod = importlib.import_module("fracplap.verify")
        a = self.job["args"]
        params = FracParams(alpha=a["alpha"], p=a["p"], T=a["T"])
        grid = make_grid(a["T"], a["n"])
        for op, prop in enumerate(PropertyId, start=1):
            tracer.op = op
            try:
                rep = verify_mod.verify(prop, params, grid, samples=a["samples"], seed=a["seed"])
                reason = "" if rep.passed else f"{prop.value} failed"
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                reason = f"{prop.value} raised"
            self.record(reason)


def measure(runner: Runner, seconds: float) -> dict:
    runner.command()  # warm-up
    walls, cpus, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()
        batch = []
        start = time.perf_counter()
        while len(batch) < MIN_SETUPS or time.perf_counter() - start < SETUP_ROUND_S:
            batch.append(runner.setup())
        setups += batch
        wall, cpu = runner.command()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}


def measure_traced(runner: Runner, seconds: float) -> dict:
    runner.command()  # warm-up
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        plain, _ = runner.command()
        tracer = layers.Tracer()
        restore = tracer.install()
        try:
            traced, _ = runner.command()
            if runner.job["kind"] == "verify":
                runner.properties(tracer)
        finally:
            restore()
        found = layers.metrics(tracer)
        found["trace.overhead_ratio"] = traced / plain
        rounds.append(found)
    tracer.dump(runner.job["spans_path"])
    return {"layers": rounds, "absent": tracer.absent}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import fracplap

    src = Path(job["src"]).resolve()
    if src not in Path(fracplap.__file__).resolve().parents:
        print(f"fracplap was imported from {fracplap.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(job, workdir)
    if job["trace"]:
        result = measure_traced(runner, job["seconds"])
    else:
        result = measure(runner, job["seconds"])
    result.update(
        env=environment(),
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
