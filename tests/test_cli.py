import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fracplap
from fracplap.cli import ConfigError, load_config, main, write_solution_csv


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"alpha": 0.6, "p": 2.0, "T": 1.0, "n": 64},
        "nonlinearity": {"family": "SUBLINEAR_POWER", "q": 1.5},
        "solver": {"method": "direct", "tol": 1e-6, "max_iter": 2000, "seed": 1},
        "output": {
            "solution_path": str(tmp_path / "sol.csv"),
            "report_path": str(tmp_path / "rep.json"),
        },
    }
    for key, val in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = val
        else:
            cfg[section] = val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    normalized = cfg.to_dict()
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(normalized))
    cfg2 = load_config(path2)
    assert cfg2.to_dict() == normalized


def test_load_config_rejects_bad_alpha(tmp_path):
    path = write_config(tmp_path, **{"problem.alpha": 1.2})
    with pytest.raises(ConfigError, match="problem.alpha"):
        load_config(path)


def test_load_config_rejects_p_one(tmp_path):
    path = write_config(tmp_path, **{"problem.p": 1.0})
    with pytest.raises(ConfigError, match="problem.p"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, **{"solver.fancy": True})
    with pytest.raises(ConfigError, match="solver.fancy"):
        load_config(path)


def test_solve_writes_artifacts(tmp_path):
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    lines = (tmp_path / "sol.csv").read_text().splitlines()
    assert lines[0] == "t,u"
    assert len(lines) == 66  # header + 65 nodes
    first_u = lines[1].split(",")[1]
    last_u = lines[-1].split(",")[1]
    assert first_u == "0" and last_u == "0"
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["converged"] is True
    assert rep["energy_value"] < 0.0


def test_solution_csv_keeps_per_value_format_bytes(tmp_path):
    # the writer formats whole rows at once; each value keeps the bytes of
    # the per-value f"{x:.17g}" it replaced, edge values included
    tiny = np.finfo(float).smallest_subnormal
    edge = [0.0, -0.0, tiny, -tiny, 3.0 * tiny, np.finfo(float).tiny, np.finfo(float).max,
            -np.finfo(float).max, np.inf, -np.inf, np.nan, -np.nan, 1.0 / 3.0, 1e16, 1e17]
    rng = np.random.default_rng(0)
    random = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    values = np.concatenate((edge, random))
    nodes = values[::-1].copy()
    path = tmp_path / "s.csv"
    write_solution_csv(path, SimpleNamespace(nodes=nodes), SimpleNamespace(values=values))
    expected = "t,u\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(nodes, values))
    assert path.read_bytes() == expected.encode("utf-8")


def test_solve_deterministic_bytes(tmp_path):
    path = write_config(tmp_path)
    main(["solve", "--config", str(path)])
    sol1 = (tmp_path / "sol.csv").read_bytes()
    rep1 = (tmp_path / "rep.json").read_bytes()
    main(["solve", "--config", str(path)])
    assert (tmp_path / "sol.csv").read_bytes() == sol1
    assert (tmp_path / "rep.json").read_bytes() == rep1


def _solve_bytes_per_blas_threads(tmp_path, problem, nonlinearity, solver, names):
    # same config and output names, solved in fresh interpreters with one
    # and with two BLAS threads; the bytes of the named outputs per run
    src = str(Path(fracplap.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        cfg = {
            "problem": problem,
            "nonlinearity": nonlinearity,
            "solver": solver,
            "output": {"solution_path": "sol.csv", "report_path": "rep.json"},
        }
        (run_dir / "cfg.json").write_text(json.dumps(cfg))
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracplap.cli", "solve", "--config", "cfg.json"],
            cwd=run_dir, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(run_dir / name).read_bytes() for name in names])
    return outputs


def test_solve_bytes_independent_of_blas_threads(tmp_path):
    outputs = _solve_bytes_per_blas_threads(
        tmp_path,
        {"alpha": 0.6, "p": 3.0, "T": 1.0, "n": 1024},
        {"family": "SUBLINEAR_POWER", "q": 2.0},
        {"method": "direct", "tol": 1e-8},
        ("sol.csv", "rep.json"),
    )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "problem, nonlinearity, solver, names",
    [
        (
            {"alpha": 0.7, "p": 2.0, "T": 1.0, "n": 1024},
            {"family": "SUPERLINEAR_POWER", "mu": 4.0},
            {"method": "mountain_pass", "tol": 1e-8, "path_points": 21, "seed": 1},
            ("sol.csv", "rep.json"),
        ),
        (
            {"alpha": 0.6, "p": 2.0, "T": 1.0, "n": 128},
            {"family": "SUBLINEAR_POWER", "q": 1.5},
            {"method": "multiplicity", "tol": 1e-8, "k": 3, "seed": 0},
            ("sol_pair1.csv", "sol_pair2.csv", "sol_pair3.csv", "rep.json"),
        ),
    ],
    ids=["mountain_pass", "multiplicity"],
)
def test_root_solve_bytes_independent_of_blas_threads(tmp_path, problem, nonlinearity, solver, names):
    outputs = _solve_bytes_per_blas_threads(tmp_path, problem, nonlinearity, solver, names)
    assert outputs[0] == outputs[1]


def test_verify_bytes_independent_of_blas_threads(tmp_path):
    # the full suite in fresh interpreters with one and with two BLAS threads
    src = str(Path(fracplap.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracplap.cli", "verify", "--alpha", "0.6", "--p", "2",
             "--T", "1", "--n", "512", "--seed", "3", "--samples", "20"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_solve_rejects_n_above_grid_cap(tmp_path, capsys):
    path = write_config(tmp_path, **{"problem.n": 9000})
    with pytest.raises(ConfigError, match="problem.n"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "problem.n" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("prop", [[], ["--property", "IBP_INTEGRAL"]])
def test_verify_refinement_above_grid_cap_is_config_error(capsys, prop):
    # the refinement check doubles the grid: n = 5000 would need 10000 cells
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "5000",
                 "--samples", "2", *prop])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "n=5000" in err and "10000" not in err


@pytest.mark.parametrize("prop", ["SEMIGROUP", "LEFT_INVERSE"])
def test_verify_identity_runs_up_to_grid_cap(prop):
    # exact identities build no doubled grid
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "5000",
                 "--samples", "2", "--property", prop])
    assert code == 0


def test_solve_config_error_exit(tmp_path, capsys):
    path = write_config(tmp_path, **{"problem.alpha": 1.2})
    assert main(["solve", "--config", str(path)]) == 1
    assert "problem.alpha" in capsys.readouterr().err


def test_solve_nonconverged_exit(tmp_path):
    path = write_config(tmp_path, **{"solver.tol": 1e-15, "solver.max_iter": 1})
    assert main(["solve", "--config", str(path)]) == 2


def test_solve_mountain_pass(tmp_path):
    path = write_config(
        tmp_path,
        nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0},
        **{"problem.alpha": 0.7, "solver.method": "mountain_pass", "solver.tol": 1e-5},
    )
    assert main(["solve", "--config", str(path)]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["rim_value"] > 0.0
    assert rep["energy_value"] >= rep["rim_value"]


def test_solve_reports_rim_radius(tmp_path):
    # the radius of the sphere the mountain pass's rim bounds; the direct
    # method has no rim and writes null
    path = write_config(
        tmp_path,
        nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0},
        **{"problem.alpha": 0.7, "solver.method": "mountain_pass", "solver.tol": 1e-5},
    )
    assert main(["solve", "--config", str(path)]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    _, st = load_config(path).build_state()
    _, radius = fracplap.solvers._rim_value(fracplap.solvers._Workspace(st))
    assert rep["rim_radius"] == radius > 0.0
    assert main(["solve", "--config", str(write_config(tmp_path))]) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["rim_radius"] is None


def test_solve_multiplicity(tmp_path):
    path = write_config(
        tmp_path,
        **{"solver.method": "multiplicity", "solver.k": 2, "solver.tol": 1e-8},
    )
    assert main(["solve", "--config", str(path)]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["converged_count"] >= 2
    assert (tmp_path / "sol_pair1.csv").exists()
    assert (tmp_path / "sol_pair2.csv").exists()


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "ver.json"
    code = main([
        "verify", "--alpha", "0.75", "--p", "2", "--T", "1", "--n", "64",
        "--seed", "42", "--samples", "10", "--out", str(out),
    ])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 13
    assert all(r["status"] == "passed" for r in reports)


def test_verify_skip_entries_present(tmp_path):
    out = tmp_path / "ver.json"
    main([
        "verify", "--alpha", "0.3", "--p", "2", "--T", "1", "--n", "64",
        "--seed", "42", "--samples", "10", "--out", str(out),
    ])
    reports = json.loads(out.read_text())
    skipped = [r for r in reports if r["status"] == "skipped"]
    assert [r["property"] for r in skipped] == ["SUP_EMBED"]
    assert "alpha" in skipped[0]["reason"]


def test_verify_single_property(capsys):
    code = main([
        "verify", "--alpha", "0.5", "--p", "2", "--T", "1", "--n", "64",
        "--seed", "1", "--samples", "20", "--property", "POINCARE",
    ])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1 and reports[0]["property"] == "POINCARE"


def test_verify_deterministic_bytes(tmp_path):
    args = ["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "64",
            "--seed", "42", "--samples", "10"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_apply_integration_of_constant(tmp_path):
    inp = tmp_path / "ones.csv"
    n = 32
    rows = ["t,u"] + [f"{i/n:.17g},1" for i in range(n + 1)]
    inp.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    code = main(["apply", "--kind", "LEFT_INT", "--alpha", "1", "--input", str(inp),
                 "--output", str(out)])
    assert code == 0
    data = np.array([
        [float(x) for x in line.split(",")]
        for line in out.read_text().splitlines()[1:]
    ])
    assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 1.0 / n + 1e-12


def test_apply_rejects_unknown_kind(tmp_path, capsys):
    inp = tmp_path / "ones.csv"
    inp.write_text("t,u\n0,1\n0.5,1\n1,1\n")
    code = main(["apply", "--kind", "SIDEWAYS", "--alpha", "0.5", "--input", str(inp),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert "SIDEWAYS" in capsys.readouterr().err


def test_apply_missing_input_is_io_error(tmp_path):
    code = main(["apply", "--kind", "LEFT_INT", "--alpha", "0.5",
                 "--input", str(tmp_path / "absent.csv"),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 3


def test_hypotheses_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["hypotheses", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_hold"] is True
    assert payload["regime"] == "SUBLINEAR"
    ids = {r["id"] for r in payload["records"]}
    assert {"lower_bound", "growth", "sub_homogeneity", "evenness"} <= ids


def test_hypotheses_failing_spec(tmp_path, capsys):
    path = write_config(
        tmp_path, nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0}
    )
    assert main(["hypotheses", "--config", str(path)]) == 2


def test_solve_io_error_exit(tmp_path):
    path = write_config(
        tmp_path,
        **{"output.solution_path": str(tmp_path / "missing_dir" / "sol.csv")},
    )
    assert main(["solve", "--config", str(path)]) == 3


def test_verify_standard_invocation(tmp_path):
    out = tmp_path / "v.json"
    code = main([
        "verify", "--alpha", "0.5", "--p", "2", "--T", "1", "--n", "256",
        "--seed", "42", "--samples", "25", "--out", str(out),
    ])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 13
    # at alpha = 1/p the sup embedding is precondition-gated
    assert [r["property"] for r in reports if r["status"] == "skipped"] == ["SUP_EMBED"]


@pytest.mark.parametrize("text", ["", "t,u\n", "0\n0.5\n1\n"])
def test_apply_malformed_csv_is_config_error(tmp_path, capsys, text):
    inp = tmp_path / "bad.csv"
    inp.write_text(text)
    code = main(["apply", "--kind", "LEFT_INT", "--alpha", "0.5", "--input", str(inp),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert "malformed input CSV" in capsys.readouterr().err


_COEFFS = {
    "constant": {"kind": "constant", "value": 2.0},
    "affine": {"kind": "affine", "value": 1.0, "slope": 0.5},
    "sine": {"kind": "sine", "value": 1.5, "amplitude": 0.25},  # frequency, phase omitted
    "table": {"kind": "table", "values": [1.0, 2.0, 1.5]},
}
_TABLE_FAMILY = {
    "family": "TABLE",
    "table": {"breakpoints": [-1.0, 0.0, 1.0], "values": [-1.0, 0.0, 1.0]},
}


@pytest.mark.parametrize("family", ["SUBLINEAR_POWER", "TABLE"])
@pytest.mark.parametrize("slot", ["a_coeff", "b_coeff"])
@pytest.mark.parametrize("kind", sorted(_COEFFS))
def test_load_config_roundtrip_every_coefficient_kind(tmp_path, family, slot, kind):
    nl = dict(_TABLE_FAMILY) if family == "TABLE" else {"family": family, "q": 1.5}
    nl[slot] = _COEFFS[kind]
    path = write_config(tmp_path, nonlinearity=nl)
    normalized = load_config(path).to_dict()
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(normalized))
    assert load_config(path2).to_dict() == normalized
    entry = normalized["nonlinearity"][slot]
    assert entry["kind"] == kind
    if kind == "sine":
        assert entry["frequency"] == np.pi and entry["phase"] == 0.0
    if family == "TABLE":
        assert normalized["nonlinearity"]["table"] == _TABLE_FAMILY["table"]


def _one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def test_hypotheses_table_out_of_range_is_numerical_error(tmp_path, capsys):
    # the hypothesis sampler draws |u| up to 1e3, far outside [-1, 1]
    path = write_config(tmp_path, nonlinearity=_TABLE_FAMILY)
    assert main(["hypotheses", "--config", str(path)]) == 2
    assert _one_line(capsys.readouterr().err).startswith("numerical error: TABLE")


def test_hypotheses_table_out_of_range_writes_failed_record(tmp_path, capsys):
    # the sampler's |u| reaches 1e3; the report is written all the same,
    # with a failed table_range record at the farthest sample
    path = write_config(tmp_path, nonlinearity=_TABLE_FAMILY)
    assert main(["hypotheses", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_hold"] is False
    first, *rest = payload["records"]
    assert first["id"] == "table_range" and first["holds"] is False
    assert abs(first["witness_u"]) > 1.0
    assert first["worst_margin"] == -(abs(first["witness_u"]) - 1.0) / 2.0
    assert rest and all(abs(r["witness_u"]) <= 1.0 for r in rest)


def test_solve_table_out_of_range_is_numerical_error(tmp_path, capsys):
    nl = {
        "family": "TABLE",
        "table": {"breakpoints": [-0.05, 0.0, 0.05], "values": [-1.0, 0.0, 1.0]},
    }
    path = write_config(tmp_path, nonlinearity=nl)
    assert main(["solve", "--config", str(path)]) == 2
    assert _one_line(capsys.readouterr().err).startswith("numerical error: TABLE")
    assert not (tmp_path / "rep.json").exists()


def test_geometry_error_is_numerical_error(tmp_path, capsys, monkeypatch):
    from fracplap.solvers import GeometryError

    def no_geometry(*args, **kwargs):
        raise GeometryError("no rim above the origin")

    monkeypatch.setattr("fracplap.cli.mountain_pass", no_geometry)
    path = write_config(
        tmp_path,
        nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0},
        **{"solver.method": "mountain_pass"},
    )
    assert main(["solve", "--config", str(path)]) == 2
    assert _one_line(capsys.readouterr().err) == "numerical error: no rim above the origin"


def test_solve_without_positive_rim_is_numerical_error(tmp_path, capsys):
    # f = 100 u outgrows the p = 2 energy's quadratic part on every sphere,
    # so the mountain pass finds no positive rim; no monkeypatch
    nl = {"family": "TABLE", "table": {"breakpoints": [-10.0, 10.0], "values": [-1000.0, 1000.0]}}
    path = write_config(tmp_path, nonlinearity=nl, **{"solver.method": "mountain_pass"})
    assert main(["solve", "--config", str(path)]) == 2
    assert _one_line(capsys.readouterr().err).startswith("numerical error: no positive rim")
    assert not (tmp_path / "rep.json").exists() and not (tmp_path / "sol.csv").exists()


def test_mountain_pass_reports_differ_only_in_seed(tmp_path):
    # the mountain pass draws nothing: the seed is only reported
    runs = []
    for seed in (0, 3):
        path = write_config(
            tmp_path,
            nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0},
            **{"problem.alpha": 0.7, "solver.method": "mountain_pass", "solver.tol": 1e-8,
               "solver.seed": seed},
        )
        assert main(["solve", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        runs.append(((tmp_path / "sol.csv").read_bytes(), rep))
    (sol0, rep0), (sol3, rep3) = runs
    assert sol0 == sol3
    assert (rep0.pop("seed"), rep3.pop("seed")) == (0, 3)
    assert rep0 == rep3


@pytest.mark.parametrize("T", ["1e308", "1e-300"])
def test_verify_extreme_T_is_config_error(capsys, T):
    # SEMIGROUP's factor h^(2 alpha) overflows at T = 1e308 and underflows
    # at T = 1e-300
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", T, "--n", "64",
                 "--samples", "3"])
    assert code == 1
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error: T=") and "n=64" in line and "order -1.2" in line


def test_translation_bound_at_tiny_T_passes_record(capsys):
    # at T = 1e-300 the translation bound once underflowed to 0 and the
    # record failed with a NaN margin; its root is now taken on scaled
    # terms, and the decay terms are relative
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1e-300", "--n", "64",
                 "--samples", "3", "--property", "TRANSLATION_COMPACT"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["passed"] and record["worst_margin"] > 0.0


def test_translation_bound_at_huge_T_passes_record_without_warning(capsys):
    # at T = 1e308 the sine table overflowed with a RuntimeWarning, and
    # the translation bound once overflowed to inf and failed the record
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1e308", "--n", "64",
                 "--property", "TRANSLATION_COMPACT"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["passed"] and math.isfinite(record["bound_constant"])


def test_translation_bound_at_huge_p_passes_record(capsys):
    # Gamma(1.5)^10000 underflows to 0, and the bound once divided by it
    code = main(["verify", "--alpha", "0.5", "--p", "10000", "--T", "1", "--n", "64",
                 "--property", "TRANSLATION_COMPACT"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["passed"] and record["worst_margin"] > 0.0


def test_verify_nonfinite_margin_fails(tmp_path):
    # at p = 400 the energy of each of these ensembles overflows, so the
    # energy checks fail with NaN; every norm is taken on max-scaled rows,
    # so the norm checks still measure, and EVEN_ENERGY takes phi_p on
    # max-scaled rows and no energy
    out = tmp_path / "v.json"
    with pytest.warns(RuntimeWarning):
        code = main(["verify", "--alpha", "0.6", "--p", "400", "--T", "1", "--n", "64",
                     "--samples", "4", "--out", str(out)])
    assert code == 2
    records = {r["property"]: r for r in json.loads(out.read_text())}
    for prop in ("YOUNG_BOUND", "POINCARE", "SUP_EMBED", "EMBED_LQ", "TRANSLATION_COMPACT",
                 "EVEN_ENERGY"):
        assert records[prop]["passed"], prop
        assert math.isfinite(records[prop]["worst_margin"]), prop
    for prop in ("MONOTONE_GAP", "GRAD_FD"):
        assert records[prop]["status"] == "failed", prop
        assert records[prop]["worst_margin"] == "nan", prop
    for prop in ("SEMIGROUP", "LEFT_INVERSE"):
        assert records[prop]["passed"] and 0.0 < -records[prop]["worst_margin"] <= 1e-12


def test_verification_report_dict_nonfinite_forces_failed():
    from fracplap.cli import verification_report_dict
    from fracplap.verify import PropertyId, VerificationReport

    rep = VerificationReport(
        property=PropertyId.YOUNG_BOUND, status="passed", samples=1, worst_margin=0.5,
        bound_constant=float("nan"), tolerance_used=0.0, passed=True,
    )
    d = verification_report_dict(rep)
    assert d["bound_constant"] == "nan"
    assert d["passed"] is False and d["status"] == "failed"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_is_config_error(capsys, samples):
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "64",
                 "--samples", samples])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err) == f"config error: samples must be at least 1, got {samples}"


@pytest.mark.parametrize("prop", [[], ["--property", "POINCARE"]])
def test_verify_infinite_p_is_config_error(capsys, prop):
    code = main(["verify", "--alpha", "0.6", "--p", "inf", "--T", "1", "--n", "64",
                 "--samples", "4", *prop])
    assert code == 1
    assert _one_line(capsys.readouterr().err).startswith("config error: p must lie in (1, inf)")


@pytest.mark.parametrize("key", ["p", "T"])
def test_load_config_rejects_infinite_problem_constant(tmp_path, capsys, key):
    path = write_config(tmp_path, **{f"problem.{key}": math.inf})
    with pytest.raises(ConfigError, match=f"problem.{key}"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert f"problem.{key}" in _one_line(capsys.readouterr().err)
    assert not (tmp_path / "sol.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("tol", math.inf), ("tol", math.nan), ("eps_reg", math.nan), ("eps_reg", -1.0)]
)
def test_load_config_rejects_bad_solver_tolerances(tmp_path, capsys, key, value):
    path = write_config(tmp_path, **{f"solver.{key}": value})
    with pytest.raises(ConfigError, match=f"solver.{key}"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert f"solver.{key}" in _one_line(capsys.readouterr().err)


def test_runtime_runs_without_scipy(tmp_path):
    # every subcommand in a fresh interpreter in which importing scipy fails
    write_config(tmp_path)
    n = 32
    rows = ["t,u"] + [f"{i/n:.17g},{(i/n) ** 2:.17g}" for i in range(n + 1)]
    (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
    commands = [
        ["solve", "--config", "cfg.json"],
        ["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "32",
         "--samples", "2", "--out", "v.json"],
        ["apply", "--kind", "LEFT_INT", "--alpha", "0.5", "--input", "in.csv",
         "--output", "o.csv"],
        ["hypotheses", "--config", "cfg.json"],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from fracplap.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m, mod in sys.modules.items()\n"
        "                if m.startswith('scipy') and mod is not None)\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    src = str(Path(fracplap.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "loaded": []}


def test_solve_collapsed_mountain_pass_is_numerical_error(tmp_path, capsys, monkeypatch):
    # every ray maximum is pushed out to four times its place, where the
    # energy at mu 4 is negative
    ray_max = fracplap.solvers._ray_max
    monkeypatch.setattr(
        fracplap.solvers, "_ray_max", lambda st, w, dw: tuple(4.0 * x for x in ray_max(st, w, dw))
    )
    path = write_config(
        tmp_path,
        problem={"alpha": 1.0, "p": 3.0, "T": 1.0, "n": 64},
        nonlinearity={"family": "SUPERLINEAR_POWER", "mu": 4.0},
        **{"solver.method": "mountain_pass", "solver.max_iter": 600, "solver.seed": 3},
    )
    assert main(["solve", "--config", str(path)]) == 2
    assert _one_line(capsys.readouterr().err).startswith("numerical error: mountain-pass ray maximum")
    assert not (tmp_path / "sol.csv").exists() and not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("T", [-1.0, 0.0])
def test_load_config_rejects_nonpositive_table_coefficient_range(tmp_path, capsys, T):
    # a table over [0, T] with T <= 0 used to evaluate to its last value everywhere
    path = write_config(
        tmp_path,
        nonlinearity={
            "family": "SUBLINEAR_POWER",
            "q": 1.5,
            "a_coeff": {"kind": "table", "values": [1.0, 2.0, 3.0], "T": T},
        },
    )
    where = f"nonlinearity.a_coeff: table_T must be positive, got {T}"
    with pytest.raises(ConfigError, match=f"^{where}$"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {where}"
    assert not (tmp_path / "sol.csv").exists()


_TABLE = {"breakpoints": [-1.0, 0.0, 1.0], "values": [-1.0, 0.0, 1.0]}


@pytest.mark.parametrize(
    "nonlinearity, where",
    [
        ({"family": "SUBLINEAR_POWER", "q": math.nan}, "nonlinearity: q"),
        ({"family": "SUPERLINEAR_POWER", "mu": math.inf}, "nonlinearity: mu"),
        ({"family": "SUPERLINEAR_POWER", "mu": 4.0, "r": math.nan}, "nonlinearity: r"),
        ({"family": "SUPERLINEAR_POWER", "mu": 4.0, "b_const": -math.inf}, "nonlinearity: b_const"),
        (
            {"family": "TABLE", "table": dict(_TABLE, breakpoints=[-1.0, math.nan, 1.0])},
            "nonlinearity: table_breakpoints",
        ),
        (
            {"family": "TABLE", "table": dict(_TABLE, values=[-1.0, 0.0, math.inf])},
            "nonlinearity: table_values",
        ),
        (
            {"family": "SUBLINEAR_POWER", "q": 1.5, "a_coeff": {"kind": "constant", "value": math.nan}},
            "nonlinearity.a_coeff: value",
        ),
        (
            {
                "family": "TABLE",
                "table": _TABLE,
                "b_coeff": {"kind": "sine", "frequency": math.inf},
            },
            "nonlinearity.b_coeff: frequency",
        ),
        (
            {
                "family": "SUBLINEAR_POWER",
                "q": 1.5,
                "a_coeff": {"kind": "table", "values": [1.0, math.nan]},
            },
            "nonlinearity.a_coeff: table_values",
        ),
    ],
    ids=["q", "mu", "r", "b_const", "breakpoints", "values", "a_value", "b_frequency", "a_table"],
)
def test_load_config_rejects_nonfinite_nonlinearity(tmp_path, capsys, nonlinearity, where):
    path = write_config(tmp_path, nonlinearity=nonlinearity)
    with pytest.raises(ConfigError, match=f"^{where} must be finite$"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {where} must be finite"
    assert not (tmp_path / "sol.csv").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("problem.T", 10**400, "problem.T holds a number too large for a float"),
        ("problem.n", 64.7, "problem.n must be an integer, got 64.7"),
        ("solver.max_iter", 2.9, "solver.max_iter must be an integer, got 2.9"),
        ("problem.alpha", True, "problem.alpha must be a number, got True"),
        ("nonlinearity.q", "1.5", "nonlinearity.q must be a number, got '1.5'"),
    ],
    ids=["overflow", "fractional_n", "fractional_max_iter", "bool_alpha", "string_q"],
)
def test_load_config_numbers_are_json_numbers(tmp_path, capsys, key, value, message):
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {message}"
    assert not (tmp_path / "sol.csv").exists()


def test_load_config_integral_float_is_an_integer(tmp_path):
    path = write_config(tmp_path, **{"problem.n": 64.0, "solver.k": 2.0})
    normalized = load_config(path).to_dict()
    assert normalized["problem"]["n"] == 64 and type(normalized["problem"]["n"]) is int
    assert normalized["solver"]["k"] == 2 and type(normalized["solver"]["k"]) is int


@pytest.mark.parametrize(
    "nonlinearity, method",
    [
        ({"family": "SUBLINEAR_POWER", "q": 1.5}, "direct"),
        ({"family": "SUPERLINEAR_POWER", "mu": 4.0}, "mountain_pass"),
    ],
)
def test_solve_rejects_negative_seed(tmp_path, capsys, nonlinearity, method):
    path = write_config(
        tmp_path, nonlinearity=nonlinearity, **{"solver.method": method, "solver.seed": -1}
    )
    message = "solver.seed must be at least 0, got -1"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {message}"
    assert not (tmp_path / "sol.csv").exists() and not (tmp_path / "rep.json").exists()


def test_verify_negative_seed_is_config_error(capsys):
    code = main(["verify", "--alpha", "0.6", "--p", "2", "--T", "1", "--n", "64",
                 "--samples", "2", "--seed", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err) == "config error: seed must be at least 0, got -1"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"problem": {"p": 2.0, "T": 1.0, "n": 64}}, "problem.alpha is required"),
        ({"solver.tol": "abc"}, "solver.tol must be a number, got 'abc'"),
        (
            {"nonlinearity": {"family": "TABLE", "table": {"breakpoints": [-1.0, 0.0, 1.0]}}},
            "nonlinearity.table.values is required",
        ),
        (
            {"nonlinearity": {"family": "SUBLINEAR_POWER", "q": 1.5, "a_coeff": {"kind": "table"}}},
            "nonlinearity.a_coeff.values is required",
        ),
    ],
    ids=["missing_alpha", "string_tol", "table_without_values", "coefficient_without_values"],
)
def test_config_diagnostic_names_its_key(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {message}"


@pytest.mark.parametrize(
    "nonlinearity, message",
    [
        (
            {"family": "CUBIC"},
            "nonlinearity.family must be one of "
            "['SUBLINEAR_POWER', 'SUPERLINEAR_POWER', 'TABLE'], got 'CUBIC'",
        ),
        (
            {"family": "SUBLINEAR_POWER", "q": 1.5, "a_coeff": 2.0},
            "nonlinearity.a_coeff must be an object with a 'kind'",
        ),
        (
            {"family": "SUBLINEAR_POWER", "q": 1.5, "b_coeff": {"kind": []}},
            "nonlinearity.b_coeff.kind must be one of ['affine', 'constant', 'sine', 'table']",
        ),
        (
            {"family": "SUBLINEAR_POWER", "q": 1.5, "a_coeff": {"kind": "table", "values": 2.0}},
            "nonlinearity.a_coeff.values must be a list of numbers, got 2.0",
        ),
        (
            {"family": "SUBLINEAR_POWER", "q": 1.5, "a_coeff": {"kind": "table", "values": []}},
            "nonlinearity.a_coeff.values must not be empty, got []",
        ),
    ],
    ids=["family", "coefficient_object", "unhashable_kind", "scalar_values", "empty_values"],
)
def test_load_config_nonlinearity_shape_messages(tmp_path, capsys, nonlinearity, message):
    # the list of families and of kinds is named; a malformed coefficient
    # is a config error, not a traceback from inside the solve
    path = write_config(tmp_path, nonlinearity=nonlinearity)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err) == f"config error: {message}"


def test_load_config_null_takes_the_default(tmp_path):
    nl = {"family": "SUPERLINEAR_POWER", "mu": 4.0, "r": None, "a_coeff": None}
    path = write_config(tmp_path, nonlinearity=nl, **{"solver.tol": None, "solver.k": None})
    normalized = load_config(path).to_dict()
    assert normalized["nonlinearity"]["r"] == 1.0
    assert normalized["nonlinearity"]["a_coeff"] == {"kind": "constant", "value": 1.0}
    assert normalized["solver"]["tol"] == 1e-6 and normalized["solver"]["k"] == 3


def _readme_schema():
    """The jsonc block under "Config schema" in README.md, comments cut,
    and the text of its comments."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("### Config schema", 1)[1]
    block = block.split("```jsonc\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("//") for line in block.splitlines()]
    return json.loads("\n".join(code for code, _, _ in lines)), " ".join(c for _, _, c in lines)


def test_readme_schema_lists_the_schema_tables():
    from fracplap.cli import _COEFFS, _CONFIG, _TABLE

    schema, _ = _readme_schema()
    assert list(schema) == list(_CONFIG)
    for section, keys in _CONFIG.items():
        assert list(schema[section]) == list(keys), section
    assert list(schema["nonlinearity"]["table"]) == list(_TABLE)
    for slot in ("a_coeff", "b_coeff"):
        entry = schema["nonlinearity"][slot]
        assert set(entry) <= {"kind", *_COEFFS[entry["kind"]]}, slot


def test_readme_schema_states_coefficient_defaults():
    from fracplap.cli import _COEFFS, _REQUIRED

    import re

    _, comments = _readme_schema()
    text = comments.split("kinds (defaults):", 1)[1]
    listed = {}
    for kind, body in re.findall(r"(\w+) \{([^}]*)\}", text):
        pairs = (item.split() for item in body.split(","))
        listed[kind] = {key: " ".join(rest) for key, *rest in pairs}
    assert list(listed) == list(_COEFFS)
    for kind, keys in _COEFFS.items():
        assert list(listed[kind]) == list(keys), kind
        for key, (_, default, *_) in keys.items():
            word = listed[kind][key]
            if default is _REQUIRED:
                assert word == "(required)", (kind, key)
            else:
                assert (math.pi if word == "pi" else float(word)) == default, (kind, key)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--alpha", "0.5", "--T", "1", "--n", "64"],
        ["verify", "--alpha", "0.5", "--p", "2", "--T", "1", "--n", "abc"],
        ["frobnicate"],
        [],
    ],
    ids=["missing-flag", "bad-int", "unknown-command", "no-command"],
)
def test_usage_error_is_config_error(capsys, argv):
    # argparse's own exit 2 collided with the code of a non-converged run
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert _one_line(err).startswith("config error: ")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--alpha" in capsys.readouterr().out


def test_load_config_bounds_path_points(tmp_path):
    # a huge path used to pass and then die allocating the path arrays
    assert load_config(write_config(tmp_path, **{"solver.path_points": 1024})).sections[
        "solver"
    ]["path_points"] == 1024
    with pytest.raises(ConfigError, match=r"solver\.path_points must be at most 1024"):
        load_config(write_config(tmp_path, **{"solver.path_points": 1000000000000}))


def test_load_config_bounds_k(tmp_path):
    # a huge k used to pass and then run 15 k trials over k + 2 sine modes
    assert load_config(write_config(tmp_path, **{"solver.k": 64})).sections["solver"]["k"] == 64
    with pytest.raises(ConfigError, match=r"^solver\.k must be at most 64, got 65$"):
        load_config(write_config(tmp_path, **{"solver.k": 65}))


@pytest.mark.parametrize("command", ["solve", "hypotheses"])
def test_unreadable_config_is_io_error(tmp_path, capsys, command):
    # an absent file and a directory used to exit 1 as config errors
    for path in (tmp_path / "absent.json", tmp_path):
        assert main([command, "--config", str(path)]) == 3
        assert _one_line(capsys.readouterr().err).startswith("i/o error: ")


def test_huge_json_integer_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"problem": {"n": ' + "1" * 5000 + "}}")
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 1
    assert _one_line(capsys.readouterr().err).startswith(
        "config error: config is not valid JSON: "
    )


def test_load_config_unreadable_or_malformed_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")
    with pytest.raises(OSError):
        load_config(tmp_path)  # a directory
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": ')
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config(bad)


@pytest.mark.parametrize(
    "coeff, closed_form",
    [
        ({"kind": "affine", "value": 0.5, "slope": 2.0}, lambda t: 0.5 + 2.0 * t),
        # piecewise linear through (0, 1), (1, 3), (2, 2), constant past T
        (
            {"kind": "table", "values": [1.0, 3.0, 2.0], "T": 2.0},
            lambda t: np.where(t <= 1.0, 1.0 + 2.0 * t, np.where(t <= 2.0, 4.0 - t, 2.0)),
        ),
    ],
    ids=["affine", "table"],
)
def test_config_coefficient_kinds_evaluate(tmp_path, coeff, closed_form):
    # with q = 1.5 and u = 1 the power family's F(t, u) = a(t) |u|^q is a(t)
    cfg = load_config(write_config(tmp_path, **{"nonlinearity.a_coeff": coeff}))
    t = np.linspace(0.0, 3.0, 25)
    assert np.allclose(cfg.spec.a_coeff(t), closed_form(t), rtol=1e-15, atol=0.0)
    assert np.allclose(cfg.spec.F_values(t, np.ones_like(t)), closed_form(t), rtol=1e-15, atol=0.0)


def test_apply_right_int_is_dense_transpose(tmp_path):
    from conftest import dense
    from fracplap import FracParams, build_operators, make_grid

    n, alpha = 32, 0.4
    grid = make_grid(1.0, n)
    u = np.cos(3.0 * grid.nodes) + grid.nodes
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_solution_csv(inp, grid, SimpleNamespace(values=u))
    assert main(["apply", "--kind", "RIGHT_INT", "--alpha", str(alpha),
                 "--input", str(inp), "--output", str(out)]) == 0
    got = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    left_int = dense(build_operators(FracParams(alpha=alpha, p=2.0, T=1.0), grid).left_int)
    assert np.allclose(got, left_int.T @ u, rtol=1e-12, atol=1e-14)
