"""Workload definitions and output oracles for the fracplap benchmark.

Each workload is one ``fracplap`` CLI command.  The reference energies
were produced by the package as first committed and are independent of
the seed: the direct solver's start is a fixed sine bump, and the
mountain-pass seed only moves the sampled rim value ``beta``.  Artifacts
are checked by value, never by hash, because ``sol.csv`` bytes change
with the BLAS thread count.
"""

from __future__ import annotations

import json
from pathlib import Path

ENERGY_RTOL = 1e-6
PROPERTY_COUNT = 13

# Solve workloads: problem, nonlinearity and solver settings, then the
# energy the solution must reach.  "smoke" gives a tiny grid and its own
# reference energy for the harness self-test.
SOLVE_WORKLOADS = {
    # 14 iterations: time goes into operator build, the metric GEMM and
    # Cholesky, and about 1.1 GB of dense operators.
    "direct-large": {
        "problem": {"alpha": 0.6, "p": 2.0, "T": 1.0, "n": 4096},
        "nonlinearity": {"family": "SUBLINEAR_POWER", "q": 1.5},
        "solver": {"method": "direct", "tol": 1e-8},
        "energy": -0.05841508389653438,
        "smoke": {"n": 256, "energy": -0.05729920357861529},
    },
    # 317 iterations and about 700 energy calls; set-up is under 5%.
    "direct-p3": {
        "problem": {"alpha": 0.6, "p": 3.0, "T": 1.0, "n": 1024},
        "nonlinearity": {"family": "SUBLINEAR_POWER", "q": 2.0},
        "solver": {"method": "direct", "tol": 1e-8},
        "energy": -0.05803082220717043,
        "smoke": {"n": 256, "energy": -0.05855153766741332},
    },
    # Most of the time is the dense-Jacobian root polish.
    "mountain-pass": {
        "problem": {"alpha": 0.7, "p": 2.0, "T": 1.0, "n": 1024},
        "nonlinearity": {"family": "SUPERLINEAR_POWER", "mu": 4.0},
        "solver": {"method": "mountain_pass", "tol": 1e-8, "path_points": 21},
        "energy": 2.0792587170921655,
        "smoke": {"n": 256, "energy": 2.0374672198519725},
    },
}

# The full property suite: 17 operator builds, about 1100 operator
# applications, no solver.
VERIFY_WORKLOADS = {
    "verify-suite": {
        "alpha": 0.6,
        "p": 2.0,
        "T": 1.0,
        "n": 1024,
        "samples": 100,
        "smoke": {"n": 128, "samples": 10},
    },
}

NAMES = list(SOLVE_WORKLOADS) + list(VERIFY_WORKLOADS)


def make_job(name: str, seed: int, smoke: bool) -> dict:
    """Everything the measuring process needs to run and check a workload.

    The result is plain JSON, so a test can alter the oracle (for example
    the reference energy) before handing it over.
    """
    if name in SOLVE_WORKLOADS:
        w = SOLVE_WORKLOADS[name]
        problem = dict(w["problem"])
        energy = w["energy"]
        if smoke:
            problem["n"] = w["smoke"]["n"]
            energy = w["smoke"]["energy"]
        solver = dict(w["solver"], seed=seed)
        return {
            "kind": "solve",
            "name": name,
            "config": {
                "problem": problem,
                "nonlinearity": w["nonlinearity"],
                "solver": solver,
            },
            "oracle": {"n": problem["n"], "tol": solver["tol"], "energy": energy},
        }
    w = VERIFY_WORKLOADS[name]
    sizes = w["smoke"] if smoke else w
    args = {k: w[k] for k in ("alpha", "p", "T")}
    args.update(n=sizes["n"], samples=sizes["samples"], seed=seed)
    return {
        "kind": "verify",
        "name": name,
        "args": args,
        "oracle": {"records": PROPERTY_COUNT},
    }


def command(job: dict, workdir: Path) -> list[str]:
    """The ``fracplap`` argv for the job; writes the solve config file."""
    if job["kind"] == "solve":
        cfg = dict(job["config"])
        cfg["output"] = {
            "solution_path": str(workdir / "sol.csv"),
            "report_path": str(workdir / "rep.json"),
        }
        path = workdir / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return ["solve", "--config", str(path)]
    a = job["args"]
    argv = ["verify"]
    for key in ("alpha", "p", "T", "n", "samples", "seed"):
        argv += [f"--{key}", str(a[key])]
    return argv + ["--out", str(workdir / "verify.json")]


def check(job: dict, workdir: Path, exit_code: int) -> str:
    """Return "" when the command's outputs are correct, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    oracle = job["oracle"]
    if job["kind"] == "verify":
        records = json.loads((workdir / "verify.json").read_text(encoding="utf-8"))
        if len(records) != oracle["records"]:
            return f"{len(records)} verification records, expected {oracle['records']}"
        bad = [r["property"] for r in records if r["status"] != "skipped" and not r["passed"]]
        return f"properties failed: {bad}" if bad else ""

    rep = json.loads((workdir / "rep.json").read_text(encoding="utf-8"))
    if rep["converged"] is not True:
        return "report says not converged"
    if not rep["residual"] <= oracle["tol"]:
        return f"residual {rep['residual']} above tol {oracle['tol']}"
    ref = oracle["energy"]
    if not abs(rep["energy_value"] - ref) <= ENERGY_RTOL * abs(ref):
        return f"energy {rep['energy_value']!r} differs from reference {ref!r}"
    rows = (workdir / "sol.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != oracle["n"] + 1:
        return f"{len(rows)} solution rows, expected {oracle['n'] + 1}"
    for row in (rows[0], rows[-1]):
        if float(row.split(",")[1]) != 0.0:
            return f"boundary row {row!r} is not exactly zero"
    return ""
