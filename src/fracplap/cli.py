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
import copy
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

# A schema table maps each key of a section, in normal-form order, to
# (parse, default, *checks).  parse reads the JSON value and raises
# TypeError with a phrase if its type is wrong.  An absent or null key takes
# the default, which is read like a given value unless it is None; _REQUIRED
# marks a key without one.  Each check is a (holds, phrase) pair on the
# parsed value.
_REQUIRED = object()


def _any(v):
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v) -> float:
    if not _is_number(v):
        raise TypeError("must be a number")
    return float(v)


def _integer(v) -> int:
    if not (_is_number(v) and (isinstance(v, int) or v.is_integer())):
        raise TypeError("must be an integer")
    return int(v)


def _numbers(v) -> list:
    if not (isinstance(v, list) and all(map(_is_number, v))):
        raise TypeError("must be a list of numbers")
    return [float(x) for x in v]


def _at_least(lo):
    return lambda v: v >= lo, f"must be at least {lo}"


_FAMILIES = [f.value for f in Family]
_METHODS = ["direct", "mountain_pass", "multiplicity"]

_PROBLEM = {
    "alpha": (_number, _REQUIRED),
    "p": (_number, _REQUIRED),
    "T": (_number, _REQUIRED),
    "n": (_integer, _REQUIRED, _at_least(2),
          (lambda n: n <= MAX_GRID_CELLS, f"must be at most {MAX_GRID_CELLS}")),
}
_NONLINEARITY = {
    "family": (_any, _REQUIRED, (_FAMILIES.__contains__, f"must be one of {_FAMILIES}")),
    "q": (_number, None),
    "mu": (_number, None),
    "r": (_number, 1.0),
    "b_const": (_number, None),
    "a_coeff": (_any, {"kind": "constant"}),
    "b_coeff": (_any, {"kind": "constant"}),
    "table": (_any, None),
}
_TABLE = {"breakpoints": (_numbers, _REQUIRED), "values": (_numbers, _REQUIRED)}
_SOLVER = {
    "method": (_any, _REQUIRED,
               (_METHODS.__contains__, "must be direct, mountain_pass or multiplicity")),
    "tol": (_number, 1e-6, (lambda x: 0.0 < x < math.inf, "must be positive and finite")),
    "max_iter": (_integer, 2000, _at_least(1)),
    "k": (_integer, 3, _at_least(1), (lambda k: k <= 64, "must be at most 64")),
    "seed": (_integer, 0, _at_least(0)),
    "eps_reg": (_number, None, (lambda x: 0.0 <= x < math.inf, "must be null or finite and >= 0")),
    "path_points": (_integer, 21, _at_least(3),  # ignored; kept so path-solver configs load
                    (lambda k: k <= 1024, "must be at most 1024")),
}
_OUTPUT = {"solution_path": (str, _REQUIRED), "report_path": (str, _REQUIRED)}
_CONFIG = {"problem": _PROBLEM, "nonlinearity": _NONLINEARITY, "solver": _SOLVER, "output": _OUTPUT}
# one table per coefficient kind, after its "kind" key
_COEFFS = {
    "constant": {"value": (_number, 1.0)},
    "affine": {"value": (_number, 1.0), "slope": (_number, 0.0)},
    "sine": {"value": (_number, 0.0), "amplitude": (_number, 1.0),
             "frequency": (_number, math.pi), "phase": (_number, 0.0)},
    "table": {"values": (_numbers, _REQUIRED, (len, "must not be empty")), "T": (_number, 1.0)},
}
_KINDS = sorted(_COEFFS)
# CoefficientFn field of a config key, where the two names differ
_COEFF_FIELDS = {"values": "table_values", "T": "table_T"}


def _section(d, where: str, keys: dict) -> dict:
    """Read one config section through its schema table into normal form:
    unknown keys rejected, defaults filled in, every value parsed and
    checked.  Each message starts with the key's path."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    for key in d:
        if key not in keys:
            raise ConfigError(f"{where}.{key} is not a recognized key")
    out = {}
    for key, (parse, default, *checks) in keys.items():
        at = f"{where}.{key}"
        value = d.get(key)
        if value is None:
            value = default
        if value is _REQUIRED:
            raise ConfigError(f"{at} is required")
        if value is not None:
            try:
                value = parse(value)
            except OverflowError:
                raise ConfigError(f"{at} holds a number too large for a float") from None
            except TypeError as exc:
                raise ConfigError(f"{at} {exc}, got {value!r}") from None
            for holds, phrase in checks:
                if not holds(value):
                    raise ConfigError(f"{at} {phrase}, got {value!r}")
        out[key] = value
    return out


def _coeff(d, where: str) -> tuple[dict, CoefficientFn]:
    """A coefficient object's normal form, read through the table of its
    kind, and the CoefficientFn it gives."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    if d["kind"] not in _KINDS:
        raise ConfigError(f"{where}.kind must be one of {_KINDS}")
    entry = _section(d, where, {"kind": (_any, _REQUIRED), **_COEFFS[d["kind"]]})
    try:
        return entry, CoefficientFn(**{_COEFF_FIELDS.get(k, k): v for k, v in entry.items()})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class RunConfig:
    """A checked run config: the problem constants and nonlinearity it
    gives, and its sections in normal form (defaults filled in, key order
    fixed)."""

    params: FracParams
    spec: NonlinearitySpec
    sections: dict

    def build_state(self) -> tuple[Grid, ProblemState]:
        grid = make_grid(self.params.T, self.sections["problem"]["n"])
        ops = build_operators(self.params, grid)
        eps_reg = self.sections["solver"]["eps_reg"]
        return grid, ProblemState(self.params, grid, ops, self.spec, eps_reg=eps_reg)

    def to_dict(self) -> dict:
        """Normalized form: defaults filled in, key order fixed."""
        return copy.deepcopy(self.sections)


def load_config(path) -> RunConfig:
    """Parse and eagerly validate a JSON run configuration.

    Every numeric invariant of the referenced domain types is checked
    here so a bad config fails before any computation, with the key path
    in the message.  Unknown keys are rejected.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _section(raw, "config", dict.fromkeys(_CONFIG, (_any, _REQUIRED)))
    sections = {name: _section(raw[name], name, keys) for name, keys in _CONFIG.items()}
    prob, nl = sections["problem"], sections["nonlinearity"]
    try:
        params = FracParams(alpha=prob["alpha"], p=prob["p"], T=prob["T"])
    except ValueError as exc:
        raise ConfigError(f"problem.{exc}") from exc

    family = Family(nl["family"])
    if family is not Family.TABLE:
        nl["table"] = None  # read by the TABLE family alone
    elif not isinstance(nl["table"], dict):
        raise ConfigError("nonlinearity.table is required for the TABLE family")
    else:
        nl["table"] = _section(nl["table"], "nonlinearity.table", _TABLE)
    # the section's keys are NonlinearitySpec's fields, but for the table
    args = dict(nl, family=family)
    table = args.pop("table") or {}
    nl["a_coeff"], args["a_coeff"] = _coeff(nl["a_coeff"], "nonlinearity.a_coeff")
    if family is Family.SUBLINEAR_POWER and raw["nonlinearity"].get("b_coeff") is None:
        # the power family saturates the growth bound with b = a
        nl["b_coeff"], args["b_coeff"] = nl["a_coeff"], args["a_coeff"]
    else:
        nl["b_coeff"], args["b_coeff"] = _coeff(nl["b_coeff"], "nonlinearity.b_coeff")
    try:
        spec = NonlinearitySpec(
            **args, table_breakpoints=table.get("breakpoints"), table_values=table.get("values")
        )
    except ValueError as exc:
        raise ConfigError(f"nonlinearity: {exc}") from exc
    nl["b_const"] = spec.b_const  # SUPERLINEAR_POWER derives it from mu
    sections["nonlinearity"] = {k: v for k, v in nl.items() if v is not None}
    return RunConfig(params=params, spec=spec, sections=sections)


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
    # one % over the interleaved (t, u) values formats every row at once
    pairs = np.column_stack((grid.nodes, u.values)).ravel().tolist()
    text = "t,u\n" + "%.17g,%.17g\n" * (len(pairs) // 2) % tuple(pairs)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def solve_report_dict(rep: SolveReport, solution_path: str) -> dict:
    d = {"method": rep.method, **vars(rep), "solution_path": solution_path}
    del d["solution"]
    return _finalize(d)


def verification_report_dict(r: VerificationReport) -> dict:
    return _finalize({**vars(r), "property": r.property.value})


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
    sol, out = cfg.sections["solver"], cfg.sections["output"]
    grid, st = cfg.build_state()
    if sol["method"] == "multiplicity":
        mrep = multiplicity_search(st, k=sol["k"], tol=sol["tol"], seed=sol["seed"])
        base = Path(out["solution_path"])
        pairs = []
        for j, rep in enumerate(mrep.pairs, start=1):
            pth = str(base.with_name(f"{base.stem}_pair{j}{base.suffix}"))
            write_solution_csv(pth, grid, rep.solution)
            pairs.append(solve_report_dict(rep, pth))
        payload = _finalize(
            {
                "method": "multiplicity",
                "converged_count": mrep.converged_count,
                "requested_pairs": sol["k"],
                "separation": mrep.separation,
                "seed": mrep.seed,
                "pairs": pairs,
                "pairwise_distances": mrep.pairwise_distances.tolist(),
            }
        )
        converged = sum(pair["converged"] for pair in payload["pairs"]) >= sol["k"]
    else:
        opts = {key: sol[key] for key in ("tol", "max_iter", "seed")}
        if sol["method"] == "direct":
            init = GridFunction(0.1 * np.sin(np.pi * grid.nodes / grid.T), dirichlet=True)
            rep = minimize_direct(st, init, **opts)
        else:
            rep = mountain_pass(st, **opts)
        write_solution_csv(out["solution_path"], grid, rep.solution)
        payload = solve_report_dict(rep, out["solution_path"])
        converged = payload["converged"]
    Path(out["report_path"]).write_text(_dump_json(payload), encoding="utf-8")
    return 0 if converged else 2


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be at least 0, got {args.seed}")
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
    sol = cfg.sections["solver"]
    regime = "SUPERLINEAR" if sol["method"] == "mountain_pass" else "SUBLINEAR"
    report = validate_hypotheses(
        cfg.spec, cfg.params, regime, sample_count=400, seed=sol["seed"]
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as a config error does
        raise ValueError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
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

    try:
        args = parser.parse_args(argv)
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
