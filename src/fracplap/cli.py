"""Command-line front end: JSON problem configs in, CSV/JSON artifacts out.

Subcommands:
    solve       run the configured solver, write solution CSV + report JSON
    verify      run the property suite (or one property), emit report JSON
    apply       apply a fractional operator to tabulated data
    hypotheses  validate the configured nonlinearity against its regime

Exit codes: 0 success/converged, 1 configuration error, 2 non-converged
run, failed property or numerical error, 3 I/O failure.  Subcommands
raise; ``main`` alone maps an exception to its exit code and one stderr
line, and a written artifact alone decides between 0 and 2.  All numeric
output is written with 17 significant digits and no locale formatting,
so identical configs and seeds give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .energy import ProblemState
from .fracops import MAX_GRID_CELLS, OpKind, build_operators
from .fracops import apply as apply_op
from .grid import FracParams, Grid, GridFunction, make_grid
from .nonlinearity import (
    CoefficientFn,
    ExtrapolationError,
    Family,
    NonlinearitySpec,
    validate_hypotheses,
)
from .solvers import (
    GeometryError,
    SolveReport,
    minimize_direct,
    mountain_pass,
    multiplicity_search,
)
from .verify import PropertyId, VerificationReport, run_suite, verify

__all__ = ["main", "load_config", "ConfigError", "RunConfig"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


# ---------------------------------------------------------------- config ---

# Config keys of each coefficient kind with their defaults, in output
# order.  A None default marks a required list of numbers.
_COEFF_KEYS = {
    "constant": {"value": 1.0},
    "affine": {"value": 1.0, "slope": 0.0},
    "sine": {"value": 0.0, "amplitude": 1.0, "frequency": math.pi, "phase": 0.0},
    "table": {"values": None, "T": 1.0},
}
# CoefficientFn field of a config key, where the two names differ
_COEFF_FIELDS = {"values": "table_values", "T": "table_T"}

_SOLVER_DEFAULTS = {
    "tol": 1e-6,
    "max_iter": 2000,
    "k": 3,
    "seed": 0,
    "eps_reg": None,
    "path_points": 21,
}


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key} is not a recognized key")


def _coeff_from(d, path: str) -> CoefficientFn:
    if d is None:
        return CoefficientFn()
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = d["kind"]
    if kind not in _COEFF_KEYS:
        raise ConfigError(f"{path}.kind must be one of {sorted(_COEFF_KEYS)}")
    _reject_unknown(d, _COEFF_KEYS[kind].keys() | {"kind"}, path)
    fields = {}
    try:
        for key, default in _COEFF_KEYS[kind].items():
            if default is None:
                value = np.asarray(d[key], dtype=float)
            else:
                value = float(d.get(key, default))
            fields[_COEFF_FIELDS.get(key, key)] = value
        return CoefficientFn(kind=kind, **fields)
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class RunConfig:
    params: FracParams
    n: int
    spec: NonlinearitySpec
    method: str
    tol: float
    max_iter: int
    k: int
    seed: int
    eps_reg: Optional[float]
    path_points: int
    solution_path: str
    report_path: str

    def build_state(self) -> tuple[Grid, ProblemState]:
        grid = make_grid(self.params.T, self.n)
        ops = build_operators(self.params, grid)
        st = ProblemState(
            params=self.params, grid=grid, ops=ops, spec=self.spec, eps_reg=self.eps_reg
        )
        return grid, st

    def to_dict(self) -> dict:
        """Normalized form: defaults filled in, key order fixed."""
        nl: dict = {"family": self.spec.family.value}
        if self.spec.q is not None:
            nl["q"] = self.spec.q
        if self.spec.mu is not None:
            nl["mu"] = self.spec.mu
        nl["r"] = self.spec.r
        if self.spec.b_const is not None:
            nl["b_const"] = self.spec.b_const
        for name, co in (("a_coeff", self.spec.a_coeff), ("b_coeff", self.spec.b_coeff)):
            entry = {"kind": co.kind}
            for key, default in _COEFF_KEYS[co.kind].items():
                value = getattr(co, _COEFF_FIELDS.get(key, key))
                entry[key] = value if default is not None else list(map(float, value))
            nl[name] = entry
        if self.spec.family is Family.TABLE:
            nl["table"] = {
                "breakpoints": list(map(float, self.spec.table_breakpoints)),
                "values": list(map(float, self.spec.table_values)),
            }
        return {
            "problem": {
                "alpha": self.params.alpha,
                "p": self.params.p,
                "T": self.params.T,
                "n": self.n,
            },
            "nonlinearity": nl,
            "solver": {
                "method": self.method,
                **{key: getattr(self, key) for key in _SOLVER_DEFAULTS},
            },
            "output": {
                "solution_path": self.solution_path,
                "report_path": self.report_path,
            },
        }


def load_config(path) -> RunConfig:
    """Parse and eagerly validate a JSON run configuration.

    Every numeric invariant of the referenced domain types is checked
    here so a bad config fails before any computation, with the key path
    in the message.  Unknown keys are rejected.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(raw, {"problem", "nonlinearity", "solver", "output"}, "config")

    prob = raw.get("problem")
    if not isinstance(prob, dict):
        raise ConfigError("problem section is required")
    _reject_unknown(prob, {"alpha", "p", "T", "n"}, "problem")
    try:
        alpha = float(prob["alpha"])
        p = float(prob["p"])
        T = float(prob["T"])
        n = int(prob["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"problem section incomplete or malformed: {exc}") from exc
    try:
        params = FracParams(alpha=alpha, p=p, T=T)
    except ValueError as exc:
        raise ConfigError(f"problem.{exc}") from exc
    if n < 2:
        raise ConfigError(f"problem.n must be at least 2, got {n}")
    if n > MAX_GRID_CELLS:
        raise ConfigError(f"problem.n must be at most {MAX_GRID_CELLS}, got {n}")

    nl = raw.get("nonlinearity")
    if not isinstance(nl, dict):
        raise ConfigError("nonlinearity section is required")
    _reject_unknown(
        nl,
        {"family", "q", "mu", "r", "b_const", "a_coeff", "b_coeff", "table"},
        "nonlinearity",
    )
    fam_name = nl.get("family")
    try:
        family = Family(fam_name)
    except ValueError:
        raise ConfigError(
            f"nonlinearity.family must be one of {[f.value for f in Family]}, got {fam_name!r}"
        ) from None
    a_coeff = _coeff_from(nl.get("a_coeff"), "nonlinearity.a_coeff")
    if family is Family.SUBLINEAR_POWER and "b_coeff" not in nl:
        b_coeff = a_coeff  # the power family saturates the growth bound with b = a
    else:
        b_coeff = _coeff_from(nl.get("b_coeff"), "nonlinearity.b_coeff")
    table_bp = table_vals = None
    if family is Family.TABLE:
        tab = nl.get("table")
        if not isinstance(tab, dict):
            raise ConfigError("nonlinearity.table is required for the TABLE family")
        _reject_unknown(tab, {"breakpoints", "values"}, "nonlinearity.table")
        table_bp = tab.get("breakpoints")
        table_vals = tab.get("values")
    try:
        spec = NonlinearitySpec(
            family=family,
            q=None if nl.get("q") is None else float(nl["q"]),
            mu=None if nl.get("mu") is None else float(nl["mu"]),
            r=float(nl.get("r", 1.0)),
            b_const=None if nl.get("b_const") is None else float(nl["b_const"]),
            a_coeff=a_coeff,
            b_coeff=b_coeff,
            table_breakpoints=table_bp,
            table_values=table_vals,
        )
    except ValueError as exc:
        raise ConfigError(f"nonlinearity: {exc}") from exc

    sol = raw.get("solver")
    if not isinstance(sol, dict):
        raise ConfigError("solver section is required")
    _reject_unknown(sol, {"method"} | set(_SOLVER_DEFAULTS), "solver")
    method = sol.get("method")
    if method not in ("direct", "mountain_pass", "multiplicity"):
        raise ConfigError(
            f"solver.method must be direct, mountain_pass or multiplicity, got {method!r}"
        )
    merged = {**_SOLVER_DEFAULTS, **sol}
    try:
        tol = float(merged["tol"])
        max_iter = int(merged["max_iter"])
        k = int(merged["k"])
        seed = int(merged["seed"])
        eps_reg = None if merged["eps_reg"] is None else float(merged["eps_reg"])
        path_points = int(merged["path_points"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver section malformed: {exc}") from exc
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"solver.tol must be positive and finite, got {tol}")
    if eps_reg is not None and not 0.0 <= eps_reg < math.inf:
        raise ConfigError(f"solver.eps_reg must be null or finite and >= 0, got {eps_reg}")
    if max_iter < 1:
        raise ConfigError(f"solver.max_iter must be at least 1, got {max_iter}")
    if k < 1:
        raise ConfigError(f"solver.k must be at least 1, got {k}")
    if path_points < 3:
        raise ConfigError(f"solver.path_points must be at least 3, got {path_points}")

    out = raw.get("output")
    if not isinstance(out, dict):
        raise ConfigError("output section is required")
    _reject_unknown(out, {"solution_path", "report_path"}, "output")
    try:
        solution_path = str(out["solution_path"])
        report_path = str(out["report_path"])
    except KeyError as exc:
        raise ConfigError(f"output.{exc.args[0]} is required") from exc

    return RunConfig(
        params=params,
        n=n,
        spec=spec,
        method=method,
        tol=tol,
        max_iter=max_iter,
        k=k,
        seed=seed,
        eps_reg=eps_reg,
        path_points=path_points,
        solution_path=solution_path,
        report_path=report_path,
    )


# --------------------------------------------------------------- writers ---


def _sanitize(value):
    """Replace non-finite floats by string sentinels; report whether any."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value), True  # "nan", "inf" or "-inf"
    if isinstance(value, dict):
        items = {k: _sanitize(v) for k, v in value.items()}
        return {k: v for k, (v, _) in items.items()}, any(b for _, b in items.values())
    if isinstance(value, (list, tuple)):
        items = [_sanitize(v) for v in value]
        return [v for v, _ in items], any(b for _, b in items)
    return value, False


def _finalize(d: dict) -> dict:
    clean, bad = _sanitize(d)
    if bad and "passed" in clean:
        clean["passed"] = False
        clean["status"] = "failed"
    if bad and "converged" in clean:
        clean["converged"] = False
    return clean


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def write_solution_csv(path, grid: Grid, u: GridFunction) -> None:
    rows = map("{:.17g},{:.17g}".format, grid.nodes.tolist(), u.values.tolist())
    Path(path).write_text("\n".join(["t,u", *rows]) + "\n", encoding="utf-8", newline="\n")


def solve_report_dict(rep: SolveReport, solution_path: str) -> dict:
    return _finalize(
        {
            "method": rep.method,
            "energy_value": rep.energy_value,
            "residual": rep.residual,
            "iterations": rep.iterations,
            "converged": rep.converged,
            "seed": rep.seed,
            "eps_reg_used": rep.eps_reg_used,
            "trivial": rep.trivial,
            "rim_value": rep.rim_value,
            "endpoint_energy": rep.endpoint_energy,
            "solution_path": solution_path,
        }
    )


def verification_report_dict(r: VerificationReport) -> dict:
    return _finalize(
        {
            "property": r.property.value,
            "status": r.status,
            "samples": r.samples,
            "worst_margin": r.worst_margin,
            "bound_constant": r.bound_constant,
            "tolerance_used": r.tolerance_used,
            "passed": r.passed,
            "refinement_ratio": r.refinement_ratio,
            "reason": r.reason,
        }
    )


def _read_csv_column(path) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.strip()]
    if rows and not rows[0][0].isdigit() and not rows[0].startswith("-"):
        rows = rows[1:]  # header
    try:
        data = np.array([[float(x) for x in line.split(",")[:2]] for line in rows])
    except ValueError as exc:
        raise ValueError(f"malformed input CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("malformed input CSV: need rows of two columns t,u")
    return data[:, 0], data[:, 1]


# ------------------------------------------------------------ subcommands ---


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    grid, st = cfg.build_state()
    if cfg.method == "multiplicity":
        mrep = multiplicity_search(st, k=cfg.k, tol=cfg.tol, seed=cfg.seed)
        base = Path(cfg.solution_path)
        pairs = []
        for j, rep in enumerate(mrep.pairs, start=1):
            pth = str(base.with_name(f"{base.stem}_pair{j}{base.suffix}"))
            write_solution_csv(pth, grid, rep.solution)
            pairs.append(solve_report_dict(rep, pth))
        payload = _finalize(
            {
                "method": "multiplicity",
                "converged_count": mrep.converged_count,
                "requested_pairs": cfg.k,
                "separation": mrep.separation,
                "seed": mrep.seed,
                "pairs": pairs,
                "pairwise_distances": mrep.pairwise_distances.tolist(),
            }
        )
        converged = sum(pair["converged"] for pair in payload["pairs"]) >= cfg.k
    else:
        if cfg.method == "direct":
            init = GridFunction(
                0.1 * np.sin(np.pi * grid.nodes / grid.T), dirichlet=True
            )
            rep = minimize_direct(
                st, init, tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed
            )
        else:
            rep = mountain_pass(
                st,
                path_points=cfg.path_points,
                tol=cfg.tol,
                max_iter=cfg.max_iter,
                seed=cfg.seed,
            )
        write_solution_csv(cfg.solution_path, grid, rep.solution)
        payload = solve_report_dict(rep, cfg.solution_path)
        converged = payload["converged"]
    Path(cfg.report_path).write_text(_dump_json(payload), encoding="utf-8")
    return 0 if converged else 2


def _cmd_verify(args) -> int:
    params = FracParams(alpha=args.alpha, p=args.p, T=args.T)
    grid = make_grid(args.T, args.n)
    if args.property is None:
        reports = run_suite([params], grid, seed=args.seed, samples=args.samples)
    elif args.property not in PropertyId.__members__:
        raise ValueError(
            f"unknown property {args.property!r}; "
            f"choose from {[p.value for p in PropertyId]}"
        )
    else:
        prop = PropertyId(args.property)
        reports = [verify(prop, params, grid, samples=args.samples, seed=args.seed)]
    payload = [verification_report_dict(r) for r in reports]
    text = _dump_json(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    ran = [r for r in payload if r["status"] != "skipped"]
    return 0 if all(r["passed"] for r in ran) else 2


def _cmd_apply(args) -> int:
    if args.kind not in OpKind.__members__:
        raise ValueError(
            f"unknown kind {args.kind!r}; choose from {[k.value for k in OpKind]}"
        )
    t, u = _read_csv_column(args.input)
    params = FracParams(alpha=args.alpha, p=2.0, T=float(t[-1]))
    grid = make_grid(params.T, len(t) - 1)
    if not np.allclose(t, grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, params.T)):
        raise ValueError("input t column is not a uniform grid starting at 0")
    out = apply_op(build_operators(params, grid), OpKind(args.kind), GridFunction(u))
    write_solution_csv(args.output, grid, out)
    return 0


def _cmd_hypotheses(args) -> int:
    cfg = load_config(args.config)
    regime = "SUPERLINEAR" if cfg.method == "mountain_pass" else "SUBLINEAR"
    report = validate_hypotheses(
        cfg.spec, cfg.params, regime, sample_count=400, seed=cfg.seed
    )
    payload = _finalize(
        {
            "regime": report.regime,
            "family": report.family,
            "all_hold": report.all_hold,
            "records": [
                {
                    "id": r.id,
                    "holds": r.holds,
                    "worst_margin": r.worst_margin,
                    "witness_t": r.witness[0],
                    "witness_u": r.witness[1],
                }
                for r in report.records
            ],
        }
    )
    sys.stdout.write(_dump_json(payload))
    for r in report.records:
        if r.id == "table_range" and not r.holds:
            print(
                f"numerical error: TABLE family sampled outside its breakpoints, "
                f"up to u = {float(r.witness[1])!r}; the other records use the samples inside",
                file=sys.stderr,
            )
    return 0 if payload["all_hold"] else 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracplap",
        description="Mixed-derivative fractional p-Laplacian solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver from a JSON config")
    ps.add_argument("--config", required=True)
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser("verify", help="run the property-verification suite")
    pv.add_argument("--alpha", type=float, required=True)
    pv.add_argument("--p", type=float, required=True)
    pv.add_argument("--T", type=float, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--property", default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify)

    pa = sub.add_parser("apply", help="apply a fractional operator to CSV data")
    pa.add_argument("--kind", required=True)
    pa.add_argument("--alpha", type=float, required=True)
    pa.add_argument("--input", required=True)
    pa.add_argument("--output", required=True)
    pa.set_defaults(func=_cmd_apply)

    ph = sub.add_parser("hypotheses", help="validate the configured nonlinearity")
    ph.add_argument("--config", required=True)
    ph.set_defaults(func=_cmd_hypotheses)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    # ExtrapolationError is a ValueError, so it has to be caught first
    except (ExtrapolationError, GeometryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
