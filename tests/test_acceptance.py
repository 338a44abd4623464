"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with pytest -s or in captured output).

Tolerances are pinned here, not configurable.  Where a criterion needs an
independent oracle (closed-form solutions, fixed-point iteration, dense
re-solves), the oracle is built inside the test.
"""

import json
import time

import numpy as np
import pytest

from fracplap import (
    CoefficientFn,
    FracParams,
    GridFunction,
    OpKind,
    ProblemState,
    PropertyId,
    alpha_norm,
    apply,
    build_operators,
    gamma,
    lp_norm,
    make_grid,
    minimize_direct,
    mountain_pass,
    multiplicity_search,
    regularity_check,
    sublinear_power,
    sup_norm,
    superlinear_power,
    table_spec,
    verify,
)
from fracplap.cli import main


def make_state(alpha, p, n, spec, T=1.0):
    params = FracParams(alpha=alpha, p=p, T=T)
    grid = make_grid(T, n)
    ops = build_operators(params, grid)
    return ProblemState(params=params, grid=grid, ops=ops, spec=spec)


def bump_init(st, scale=0.1):
    return GridFunction(scale * np.sin(np.pi * st.grid.nodes / st.grid.T), dirichlet=True)


def report(num, detail):
    print(f"acceptance criterion {num:2d}: PASS  ({detail})")


def test_criterion_01_operator_power_rules():
    """Power-rule accuracy of LEFT_DERIV and LEFT_INT with refinement.

    Relative error is measured on the interior region t >= T/10: the
    unshifted Grunwald-Letnikov scheme has a fixed O(1) pointwise-relative
    defect at the first few nodes (its boundary layer), so the pointwise
    O(h) statement holds on regions bounded away from the singular
    endpoint.  Over all interior nodes the sup-normalized error is also
    checked against the same 2% budget.
    """
    t0 = time.time()
    worst_region = 0.0
    worst_ratio = 0.0
    worst_supnorm = 0.0
    for alpha in (0.3, 0.5, 0.7):
        params = FracParams(alpha=alpha, p=2.0, T=1.0)
        errs = {}
        for n in (1024, 2048):
            grid = make_grid(1.0, n)
            ops = build_operators(params, grid)
            t = grid.nodes
            cases = [
                (OpKind.LEFT_DERIV, t, t ** (1 - alpha) / gamma(2 - alpha)),
                (OpKind.LEFT_DERIV, t**2, 2 * t ** (2 - alpha) / gamma(3 - alpha)),
                (OpKind.LEFT_INT, t, t ** (1 + alpha) / gamma(2 + alpha)),
                (OpKind.LEFT_INT, t**2, 2 * t ** (2 + alpha) / gamma(3 + alpha)),
            ]
            errs[n] = []
            for kind, u, exact in cases:
                got = apply(ops, kind, GridFunction(u.copy())).values
                interior = slice(1, n)
                region = t[interior] >= 0.1
                rel = np.abs(got[interior] - exact[interior])
                region_err = float(np.max((rel / np.abs(exact[interior]))[region]))
                errs[n].append(region_err)
                worst_region = max(worst_region, region_err)
                supnorm_err = float(np.max(rel) / np.max(np.abs(exact[interior])))
                worst_supnorm = max(worst_supnorm, supnorm_err)
        for e1, e2 in zip(errs[1024], errs[2048]):
            worst_ratio = max(worst_ratio, e2 / e1)
    elapsed = time.time() - t0
    assert worst_region <= 0.02
    assert worst_supnorm <= 0.02
    assert worst_ratio <= 0.6
    assert elapsed < 5.0
    report(1, f"region err {worst_region:.2e}, ratio {worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_02_identity_suite():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    worst = 0.0
    for prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_EXACT,
        PropertyId.RL_CAPUTO,
        PropertyId.EVEN_ENERGY,
    ):
        rep = verify(prop, params, grid, samples=100, seed=42)
        assert rep.passed, f"{prop.value}: margin {rep.worst_margin}"
        assert abs(rep.worst_margin) <= 1e-12
        assert rep.tolerance_used == 1e-12
        worst = max(worst, abs(rep.worst_margin))
    report(2, f"worst identity gap {worst:.2e}")


def test_criterion_03_inequality_suite():
    t0 = time.time()
    props = (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.YOUNG_BOUND,
        PropertyId.POINCARE,
        PropertyId.SUP_EMBED,
        PropertyId.EMBED_LQ,
        PropertyId.MONOTONE_GAP,
    )
    grid = make_grid(1.0, 256)
    ran = skipped = 0
    for alpha in (0.3, 0.6, 0.8):
        for p in (1.5, 2.0, 3.0):
            params = FracParams(alpha=alpha, p=p, T=1.0)
            for prop in props:
                if prop is PropertyId.SUP_EMBED and not alpha > 1.0 / p:
                    skipped += 1
                    continue
                rep = verify(prop, params, grid, samples=100, seed=42)
                assert rep.passed, (
                    f"{prop.value} at alpha={alpha}, p={p}: margin {rep.worst_margin}"
                )
                ran += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, f"{ran} property runs, {skipped} precondition-gated, {elapsed:.1f}s")


def test_criterion_04_gradient_correctness():
    grid = make_grid(1.0, 128)
    for p, tol in ((2.0, 1e-5), (3.0, 1e-5), (1.5, 1e-4)):
        params = FracParams(alpha=0.6, p=p, T=1.0)
        rep = verify(PropertyId.GRAD_FD, params, grid, samples=100, seed=42)
        assert rep.passed
        assert abs(rep.worst_margin) <= tol, f"p={p}: {rep.worst_margin}"
    report(4, "finite-difference gradient check at p in {1.5, 2, 3}")


def test_criterion_05_classical_limit_oracle():
    t0 = time.time()
    a = CoefficientFn(kind="sine", value=0.0, amplitude=np.pi**2, frequency=np.pi)
    spec = table_spec([-100.0, 100.0], [1.0, 1.0], a_coeff=a)
    st = make_state(1.0, 2.0, 512, spec)
    rep = minimize_direct(st, GridFunction(np.zeros(513), dirichlet=True), tol=1e-9, max_iter=200)
    assert rep.converged
    exact = np.sin(np.pi * st.grid.nodes)
    sup_err = float(np.max(np.abs(rep.solution.values - exact)))
    energy_err = abs(rep.energy_value - (-np.pi**2 / 4.0))
    elapsed = time.time() - t0
    assert sup_err <= 1e-3
    assert energy_err <= 2e-2
    assert elapsed < 30.0
    report(5, f"sup err {sup_err:.1e}, energy err {energy_err:.1e}, {elapsed:.1f}s")


def test_criterion_06_direct_minimization_existence():
    st = make_state(0.6, 2.0, 256, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=4000)
    assert rep.converged
    assert rep.residual <= 1e-6
    assert rep.energy_value < 0.0
    assert sup_norm(rep.solution) > 1e-3
    # dense-grid re-solve; energies agree to 1e-3 (absolute energy gap:
    # the fractional flux of the minimizer carries a (T-t)^(alpha-1)
    # boundary layer, so the energy converges like h^0.2 here and a
    # relative 1e-3 match is unattainable on uniform grids)
    st_fine = make_state(0.6, 2.0, 2048, sublinear_power(1.5))
    rep_fine = minimize_direct(st_fine, bump_init(st_fine), tol=1e-8, max_iter=4000)
    gap = abs(rep.energy_value - rep_fine.energy_value)
    assert gap <= 1e-3
    report(6, f"E={rep.energy_value:.6f}, refinement gap {gap:.2e}")


def test_criterion_07_mountain_pass_existence():
    st = make_state(0.7, 2.0, 128, superlinear_power(4.0))
    rep = mountain_pass(st, tol=1e-5, max_iter=800)
    assert rep.converged
    assert not rep.trivial
    assert rep.residual <= 1e-5
    beta = rep.rim_value
    assert rep.endpoint_energy < 0.0 < beta <= rep.energy_value
    report(7, f"E={rep.energy_value:.4f} >= beta={beta:.4f} > 0 > E(e)={rep.endpoint_energy:.1f}")


def test_criterion_08_multiplicity():
    st = make_state(0.6, 2.0, 256, sublinear_power(1.5))
    m1 = multiplicity_search(st, k=3, tol=1e-8, seed=42)
    assert m1.converged_count >= 3
    energies = []
    for rep in m1.pairs:
        assert rep.energy_value < 0.0
        assert rep.residual <= 1e-8
        u = rep.solution.values
        flipped = GridFunction(-u, dirichlet=True)
        from fracplap import energy as energy_fn

        assert energy_fn(st, flipped) == rep.energy_value  # exact sign pairing
        energies.append(rep.energy_value)
    off = m1.pairwise_distances[m1.pairwise_distances > 0.0]
    assert np.all(off >= m1.separation)
    m2 = multiplicity_search(st, k=3, tol=1e-8, seed=9001)
    assert m2.converged_count >= 3
    e1 = np.sort(energies)
    e2 = np.sort([r.energy_value for r in m2.pairs])
    assert np.max(np.abs(e1 - e2)) <= 1e-3
    report(8, f"3 pairs at energies {', '.join(f'{e:.6f}' for e in e1)}")


def test_criterion_09_regularity_identity():
    devs = {}
    consts = {}
    for n in (512, 1024):
        st = make_state(0.3, 2.0, n, sublinear_power(1.5))
        rep = minimize_direct(st, bump_init(st), tol=1e-9, max_iter=4000)
        assert rep.converged
        res = regularity_check(st, rep.solution)
        devs[n] = res.deviation
        consts[n] = res.constant_estimate
    assert devs[512] <= 1e-2 * abs(consts[512]) + 1e-6
    assert devs[1024] <= 0.7 * devs[512]
    report(9, f"deviation {devs[512]:.2e} -> {devs[1024]:.2e} (drop {1 - devs[1024]/devs[512]:.0%})")


def test_criterion_10_translation_compactness():
    params = FracParams(alpha=0.4, p=2.0, T=1.0)
    n = 256
    grid = make_grid(1.0, n)
    ops = build_operators(params, grid)
    rng = np.random.default_rng(42)
    family = []
    for i in range(20):
        if i % 2 == 0:
            c = rng.standard_normal(8)
            u = np.zeros(n + 1)
            for j, cj in enumerate(c, start=1):
                u += cj * np.sin(j * np.pi * grid.nodes)
        else:
            u = rng.standard_normal(n + 1)
        uf = GridFunction(u, dirichlet=True)
        nrm = alpha_norm(ops, uf, 2.0)
        family.append(GridFunction(u / nrm, dirichlet=True))
    family_norm = max(alpha_norm(ops, u, 2.0) for u in family)
    sups = []
    for m in (n // 16, n // 32, n // 64):
        s = 0.0
        for u in family:
            tu = np.zeros(n + 1)
            tu[: n + 1 - m] = u.values[m:]
            s = max(s, lp_norm(tu - u.values, 2.0, grid))
        sups.append(s)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.2 * family_norm
    report(10, f"sup translation errors {sups[0]:.3f} > {sups[1]:.3f} > {sups[2]:.3f} < 0.2")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "problem": {"alpha": 0.6, "p": 2.0, "T": 1.0, "n": 128},
        "nonlinearity": {"family": "SUBLINEAR_POWER", "q": 1.5},
        "solver": {"method": "direct", "tol": 1e-8, "max_iter": 4000, "seed": 42},
        "output": {
            "solution_path": str(tmp_path / "sol.csv"),
            "report_path": str(tmp_path / "rep.json"),
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for _ in range(2):
        assert main(["solve", "--config", str(cfg_path)]) == 0
        blobs.append(
            ((tmp_path / "sol.csv").read_bytes(), (tmp_path / "rep.json").read_bytes())
        )
    assert blobs[0] == blobs[1]
    vblobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"ver_{tag}.json"
        main([
            "verify", "--alpha", "0.5", "--p", "2", "--T", "1", "--n", "128",
            "--seed", "42", "--samples", "25", "--out", str(out),
        ])
        vblobs.append(out.read_bytes())
    assert vblobs[0] == vblobs[1]
    report(11, "byte-identical solve and verify artifacts across reruns")
