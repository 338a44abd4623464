"""Per-layer tracing of fracplap from outside the package.

The tracer replaces each layer's entry point, as the calling modules see
it, with a wrapper that records a span: name, start, end, parent span and
operation id.  Spans stay in memory; per-layer metrics are computed from
them after the traced command has finished.  ``install`` returns a
function that puts every original back, so untraced and traced runs can
alternate in one process.

Modules are fetched with ``importlib.import_module``: ``fracplap.verify``
and ``fracplap.energy`` as package attributes are the re-exported
functions, not the modules.  An entry point that no longer exists (say
``cho_factor`` once the metric is solved in closed form) is reported as
absent, and its layer metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
ENTRY_POINTS = [
    ("grid.norm", "fracplap.grid", "lp_norm"),
    ("grid.norm", "fracplap.grid", "sup_norm"),
    ("fracops.build", "fracplap.fracops", "build_operators"),
    ("fracops.apply", "fracplap.fracops", "apply"),
    ("fracops.apply", "fracplap.fracops", "alpha_norm"),
    ("nonlinearity.eval", "fracplap.nonlinearity", "NonlinearitySpec.f_values"),
    ("nonlinearity.eval", "fracplap.nonlinearity", "NonlinearitySpec.F_values"),
    ("nonlinearity.eval", "fracplap.nonlinearity", "NonlinearitySpec.fu_values"),
    ("energy.energy", "fracplap.energy", "energy"),
    ("energy.gradient", "fracplap.energy", "gradient"),
    ("energy.basis_norms", "fracplap.energy", "basis_alpha_norms"),
    ("solvers.solve", "fracplap.solvers", "minimize_direct"),
    ("solvers.solve", "fracplap.solvers", "mountain_pass"),
    ("solvers.solve", "fracplap.solvers", "multiplicity_search"),
    ("solvers.metric_factor", "fracplap.solvers", "cho_factor"),
    ("solvers.metric_solve", "fracplap.solvers", "cho_solve"),
    ("solvers.root", "fracplap.solvers", "root"),
    ("verify.suite", "fracplap.verify", "run_suite"),
    ("verify.property", "fracplap.verify", "verify"),
    ("cli.main", "fracplap.cli", "main"),
    ("cli.load_config", "fracplap.cli", "load_config"),
    ("cli.write", "fracplap.cli", "write_solution_csv"),
    ("cli.write", "fracplap.cli", "Path.write_text"),
]

PROPERTIES = [
    "SEMIGROUP",
    "LEFT_INVERSE",
    "IBP_EXACT",
    "IBP_INTEGRAL",
    "RL_CAPUTO",
    "YOUNG_BOUND",
    "POINCARE",
    "SUP_EMBED",
    "EMBED_LQ",
    "TRANSLATION_COMPACT",
    "MONOTONE_GAP",
    "GRAD_FD",
    "EVEN_ENERGY",
]

# (metric, unit, better); the order is the order of the report.
PER_LAYER = [
    ("fracops.build_calls", "count", "lower"),
    ("fracops.build_s", "s", "lower"),
    ("fracops.operator_mb", "MiB", "lower"),
    ("fracops.apply_calls", "count", "lower"),
    ("fracops.apply_s", "s", "lower"),
    ("grid.norm_calls", "count", "lower"),
    ("grid.norm_s", "s", "lower"),
    ("nonlinearity.eval_calls", "count", "lower"),
    ("nonlinearity.eval_s", "s", "lower"),
    ("energy.energy_calls", "count", "lower"),
    ("energy.energy_s", "s", "lower"),
    ("energy.gradient_calls", "count", "lower"),
    ("energy.gradient_s", "s", "lower"),
    ("energy.basis_norms_s", "s", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.energy_calls", "count", "lower"),
    ("solvers.step_accept_ratio", "ratio", "higher"),
    ("solvers.metric_factor_s", "s", "lower"),
    ("solvers.metric_solve_calls", "count", "lower"),
    ("solvers.metric_solve_s", "s", "lower"),
    ("solvers.root_calls", "count", "lower"),
    ("solvers.root_nfev", "count", "lower"),
    ("solvers.root_s", "s", "lower"),
    ("solvers.self_s", "s", "lower"),
    *[(f"verify.{prop}_s", "s", "lower") for prop in PROPERTIES],
    ("verify.suite_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.absent_entry_points", "count", "lower"),
]


def _array_bytes(obj, seen: set, depth: int = 2) -> int:
    """Bytes of distinct array buffers reachable from obj's attributes."""
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen or not isinstance(base, np.ndarray):
            return 0
        seen.add(id(base))
        return base.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(_array_bytes(v, seen, depth - 1) for v in vars(obj).values())


def _operator_mb(args, result):
    return _array_bytes(result, set()) / 2**20


def _nfev(args, result):
    return int(result.nfev)


def _iterations(args, result):
    return int(getattr(result, "iterations", 0))


def _property(args, result):
    return result.property.value


_NOTES = {
    "fracops.build": _operator_mb,
    "solvers.root": _nfev,
    "solvers.solve": _iterations,
    "verify.property": _property,
}


class Tracer:
    """Span store.  A span is [name, start, end, parent index, op, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.absent: list[str] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        fields = ("name", "start", "end", "parent", "op", "note")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

    def install(self, entry_points=ENTRY_POINTS):
        """Wrap every entry point; return a function that unwraps them."""
        patched = []  # (owner, attribute, original, owned by owner)
        self.absent = []
        packages = [
            m for key, m in list(sys.modules.items())
            if key == "fracplap" or key.startswith("fracplap.")
        ]
        for name, module, attr in entry_points:
            cls_name, _, key = attr.rpartition(".")
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, key, None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                patched.append((owner, key, original, key in vars(owner)))
                setattr(owner, key, wrapper)
                continue
            for pkg in packages:
                for pkg_key, value in list(vars(pkg).items()):
                    if value is original:
                        patched.append((pkg, pkg_key, original, True))
                        setattr(pkg, pkg_key, wrapper)

        def restore() -> None:
            for owner, key, original, owned in reversed(patched):
                if owned:
                    setattr(owner, key, original)
                else:
                    delattr(owner, key)

        return restore


def metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced command, operation 0.

    Times of a layer count only its outermost spans, so a layer calling
    itself is not counted twice.  ``verify.<PROPERTY>_s`` comes from the
    per-property operations traced after the command.
    """
    spans = tracer.spans
    cmd = [i for i, s in enumerate(spans) if s[4] == 0]

    def names_above(i):
        out = set()
        parent = spans[i][3]
        while parent is not None:
            out.add(spans[parent][0])
            parent = spans[parent][3]
        return out

    above = {i: names_above(i) for i in cmd}

    def dur(i):
        return spans[i][2] - spans[i][1]

    def calls(name):
        return sum(1 for i in cmd if spans[i][0] == name)

    def busy(name):
        return sum(dur(i) for i in cmd if spans[i][0] == name and name not in above[i])

    def self_time(name):
        total = 0.0
        for i in cmd:
            if spans[i][0] == name:
                children = sum(dur(j) for j in cmd if spans[j][3] == i)
                total += dur(i) - children
        return total

    def notes(name):
        return [spans[i][5] for i in cmd if spans[i][0] == name]

    iterations = sum(
        spans[i][5] for i in cmd
        if spans[i][0] == "solvers.solve" and "solvers.solve" not in above[i]
    )
    solver_energy_calls = sum(
        1 for i in cmd if spans[i][0] == "energy.energy" and "solvers.solve" in above[i]
    )
    out = {
        "fracops.build_calls": calls("fracops.build"),
        "fracops.build_s": busy("fracops.build"),
        # the largest OperatorSet built, which bounds the operators' memory
        "fracops.operator_mb": max(notes("fracops.build"), default=0.0),
        "fracops.apply_calls": calls("fracops.apply"),
        "fracops.apply_s": busy("fracops.apply"),
        "grid.norm_calls": calls("grid.norm"),
        "grid.norm_s": busy("grid.norm"),
        "nonlinearity.eval_calls": calls("nonlinearity.eval"),
        "nonlinearity.eval_s": busy("nonlinearity.eval"),
        "energy.energy_calls": calls("energy.energy"),
        "energy.energy_s": busy("energy.energy"),
        "energy.gradient_calls": calls("energy.gradient"),
        "energy.gradient_s": busy("energy.gradient"),
        "energy.basis_norms_s": busy("energy.basis_norms"),
        "solvers.iterations": iterations,
        "solvers.energy_calls": solver_energy_calls,
        "solvers.step_accept_ratio": iterations / solver_energy_calls if solver_energy_calls else 0.0,
        "solvers.metric_factor_s": busy("solvers.metric_factor"),
        "solvers.metric_solve_calls": calls("solvers.metric_solve"),
        "solvers.metric_solve_s": busy("solvers.metric_solve"),
        "solvers.root_calls": calls("solvers.root"),
        "solvers.root_nfev": sum(notes("solvers.root")),
        "solvers.root_s": busy("solvers.root"),
        "solvers.self_s": self_time("solvers.solve"),
    }
    for prop in PROPERTIES:
        out[f"verify.{prop}_s"] = sum(
            s[2] - s[1] for s in spans if s[0] == "verify.property" and s[5] == prop
        )
    out["verify.suite_s"] = busy("verify.suite")
    out["cli.load_config_s"] = busy("cli.load_config")
    out["cli.write_s"] = busy("cli.write")
    out["cli.self_s"] = self_time("cli.main")
    out["trace.absent_entry_points"] = len(tracer.absent)
    return out
