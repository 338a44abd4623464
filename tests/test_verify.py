import dataclasses
import importlib
import math

import mpmath
import numpy as np
import pytest

from fracplap import FracParams, PropertyId, build_operators, gamma, make_grid, run_suite, verify
from fracplap.energy import ProblemState, _energy_rows, _gradient_rows
from fracplap.fracops import _alpha_rows, _gl_operator, _rows, embedding_constants
from fracplap.grid import _lp_rows, _max_scaled, trapezoid_weights
from fracplap.nonlinearity import table_spec
from fracplap.verify import _CHECKERS, _lq_ladder, translation_bound


def test_checker_coverage_matches_enumeration():
    assert set(_CHECKERS) == set(PropertyId)
    assert len(PropertyId) == 13


def test_identity_properties_machine_exact():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    grid = make_grid(1.0, 128)
    for prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_EXACT,
        PropertyId.RL_CAPUTO,
        PropertyId.EVEN_ENERGY,
    ):
        rep = verify(prop, params, grid, samples=100, seed=42)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-12
        assert rep.tolerance_used == 1e-12


def test_inequality_properties_pass():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    for prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_INTEGRAL,
        PropertyId.YOUNG_BOUND,
        PropertyId.POINCARE,
        PropertyId.SUP_EMBED,
        PropertyId.EMBED_LQ,
        PropertyId.MONOTONE_GAP,
        PropertyId.GRAD_FD,
    ):
        rep = verify(prop, params, grid, samples=40, seed=1)
        assert rep.passed, f"{prop.value} failed with margin {rep.worst_margin}"


NORM_CHECKS = (
    PropertyId.YOUNG_BOUND,
    PropertyId.POINCARE,
    PropertyId.SUP_EMBED,
    PropertyId.EMBED_LQ,
    PropertyId.TRANSLATION_COMPACT,
)


def test_norm_checks_pass_at_large_p():
    # max |D u|^130 passes 1e308 on this ensemble, so unscaled p-th powers
    # overflow; the energy checks do overflow, and warn
    params = FracParams(alpha=0.6, p=130.0, T=1.0)
    with pytest.warns(RuntimeWarning):
        reports = run_suite([params], make_grid(1.0, 1024), samples=20)
    for rep in reports:
        if rep.property in NORM_CHECKS:
            assert rep.passed and math.isfinite(rep.worst_margin), rep.property.value


def test_monotone_gap_overflow_is_a_nan_record():
    # the norms are finite here but their p-th powers are not, and a
    # Python float power raises OverflowError there
    params = FracParams(alpha=0.6, p=400.0, T=1.0)
    with pytest.warns(RuntimeWarning):
        rep = verify(PropertyId.MONOTONE_GAP, params, make_grid(1.0, 64), samples=4)
    assert math.isnan(rep.worst_margin) and rep.status == "failed"


def test_poincare_constant_recomputed():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    rep = verify(PropertyId.POINCARE, params, grid, samples=100, seed=0)
    assert rep.passed
    # closed form 1/Gamma(1.5) = 2/sqrt(pi)
    assert rep.bound_constant == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert rep.bound_constant == pytest.approx(
        1.0**0.5 / gamma(1.5), rel=1e-12
    )


def sampled_embedding_margin(prop, params, grid, samples, seed=0):
    """The sampled SUP_EMBED or POINCARE record that the proven one
    replaced: the smallest slack of max|u| (or ||u||_p) <= C ||u||_{a,p}
    relative to the right side, over verify's pinned ensemble with the
    property's own stream."""
    verify_mod = importlib.import_module("fracplap.verify")
    ops = build_operators(params, grid)
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(prop)])
    if prop is PropertyId.SUP_EMBED:
        C = verify_mod._sup_embed_constant(params)
        small = lambda block: np.max(np.abs(block), axis=1).tolist()
    else:
        C = verify_mod._young_constant(params)
        small = lambda block: _lp_rows(block, params.p, trapezoid_weights(grid))
    worst = math.inf
    for block in verify_mod._ensemble(grid, rng, samples, dirichlet=True):
        for lg, sm in zip(_alpha_rows(ops, block, params.p), small(block)):
            rhs = C * lg
            worst = verify_mod._fold(min, worst, (rhs - sm) / max(rhs, 1e-300))
    return worst


def test_sampled_reference_reproduces_the_old_records():
    # the 100-sample records of the suite config before the proof
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert sampled_embedding_margin(PropertyId.SUP_EMBED, params, grid, 100) == 0.5535430588671049
    assert sampled_embedding_margin(PropertyId.POINCARE, params, grid, 100) == 0.7312657588957632


@pytest.mark.parametrize(
    "alpha, p, n", [(0.6, 2.0, 64), (1.0, 2.0, 16), (0.9, 1.5, 64), (0.6, 3.0, 128), (0.6, 130.0, 1024)]
)
@pytest.mark.parametrize("prop", [PropertyId.SUP_EMBED, PropertyId.POINCARE])
def test_proven_embedding_margin_is_below_every_sample(prop, alpha, p, n):
    # the proven margin bounds every pinned function's slack, so no sample
    # of a large ensemble falls below it; samples is only echoed
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    rep = verify(prop, params, grid, samples=7, seed=0)
    C_n, K_n = embedding_constants(build_operators(params, grid), p)
    K = C_n if prop is PropertyId.SUP_EMBED else K_n
    C = rep.bound_constant
    assert rep.worst_margin == (C - K) / C
    assert rep.passed and rep.samples == 7
    assert rep.worst_margin <= sampled_embedding_margin(prop, params, grid, 2000)


def sampled_identity_margin(prop, params, grid, samples, seed=0):
    """The sampled SEMIGROUP or LEFT_INVERSE record that the column record
    replaced: minus the worst ||lhs u - rhs u||_p / ||rhs u||_p over
    verify's non-pinned ensemble with the property's own stream, u(0) set
    to 0 for LEFT_INVERSE."""
    verify_mod = importlib.import_module("fracplap.verify")
    ops = build_operators(params, grid)
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(prop)])
    w = trapezoid_weights(grid)
    I = ops.left_int
    if prop is PropertyId.SEMIGROUP:
        I2 = _gl_operator(-2.0 * params.alpha, grid)
        sides = lambda x: (_rows(I, _rows(I, x)), _rows(I2, x))
    else:
        sides = lambda x: (_rows(ops.left_deriv, _rows(I, x)), x)
    worst = 0.0
    for block in verify_mod._ensemble(grid, rng, samples, dirichlet=False):
        if prop is PropertyId.LEFT_INVERSE:
            block[:, 0] = 0.0
        lhs, rhs = sides(block)
        errs = zip(_lp_rows(lhs - rhs, params.p, w), _lp_rows(rhs, params.p, w))
        worst = verify_mod._fold(max, worst, *[e / max(size, 1e-300) for e, size in errs])
    return -worst


def test_sampled_identity_reference_reproduces_the_old_records():
    # the 100-sample records of the suite config before the column records
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert sampled_identity_margin(PropertyId.SEMIGROUP, params, grid, 100) == -2.2310060536786405e-15
    assert sampled_identity_margin(PropertyId.LEFT_INVERSE, params, grid, 100) == -1.1121432396474603e-14


# every (alpha, p, T, n) at which a test checks SEMIGROUP or LEFT_INVERSE
IDENTITY_CONFIGS = [
    *[(a, p, 1.0, 256) for a in (0.3, 0.6, 0.8) for p in (1.5, 2.0, 3.0)],
    (0.5, 2.0, 1.0, 256),
    (0.5, 2.0, 1.0, 128),
    (0.5, 2.0, 1.0, 64),
    (0.6, 2.0, 1.0, 32),
    (0.6, 2.0, 1.0, 1024),
    (0.6, 2.0, 0.01, 1024),
    (0.6, 2.0, 100.0, 1024),
    (0.6, 2.0, 1.0, 64),
    (0.75, 2.0, 1.0, 64),
    (0.3, 2.0, 1.0, 64),
    (0.3, 3.0, 1.0, 64),
    (0.9, 1.5, 1.0, 128),
    (0.8, 1.5, 1.0, 64),
    (1.0, 2.0, 1.0, 1024),
    (0.9, 3.0, 10.0, 1024),
    (0.9, 1.5, 100.0, 256),
    (0.6, 130.0, 1.0, 1024),
    (0.6, 400.0, 1.0, 64),
    (0.6, 2.0, 1.0, 5000),
]


@pytest.mark.parametrize("alpha, p, T, n", IDENTITY_CONFIGS)
@pytest.mark.parametrize("prop", [PropertyId.SEMIGROUP, PropertyId.LEFT_INVERSE])
def test_column_and_sampled_identity_records_pass(prop, alpha, p, T, n):
    # the column record holds for every u, the sampled one on 100 of them;
    # both sit at the rounding level under the same tolerance
    params = FracParams(alpha=alpha, p=p, T=T)
    grid = make_grid(T, n)
    rep = verify(prop, params, grid, samples=100, seed=0)
    assert rep.passed and rep.worst_margin < 0.0, rep.worst_margin
    assert sampled_identity_margin(prop, params, grid, 100) >= -rep.tolerance_used


@pytest.mark.parametrize("k", [0, -1])
def test_semigroup_fails_with_one_perturbed_weight(monkeypatch, k):
    verify_mod = importlib.import_module("fracplap.verify")
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    assert verify(PropertyId.SEMIGROUP, params, grid).passed

    def perturbed(order, grid):
        col = fracops._gl_operator(order, grid).col.copy()
        col[k] *= 1.0 + 1e-9
        return fracops.Toeplitz(col)

    monkeypatch.setattr(verify_mod, "_gl_operator", perturbed)
    assert not verify(PropertyId.SEMIGROUP, params, grid).passed


def test_left_inverse_fails_with_a_wrong_order_derivative(monkeypatch):
    verify_mod = importlib.import_module("fracplap.verify")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert verify(PropertyId.LEFT_INVERSE, params, grid).passed
    build = verify_mod.build_operators

    def wrong_order(params, grid):
        ops = build(params, grid)
        return dataclasses.replace(ops, left_deriv=_gl_operator(params.alpha + 0.01, grid))

    monkeypatch.setattr(verify_mod, "build_operators", wrong_order)
    rep = verify(PropertyId.LEFT_INVERSE, params, grid)
    assert not rep.passed and rep.worst_margin < -1e-3


def test_suite_column_budget(monkeypatch):
    # Toeplitz columns of the benchmark's verify config: the identity
    # records and RL_CAPUTO take one column each, the embedding records,
    # TRANSLATION_COMPACT and EVEN_ENERGY none, GRAD_FD reuses the images it
    # holds (2530 columns before, 1732 with the sampled TRANSLATION_COMPACT,
    # 1632 with the sampled EMBED_LQ, RL_CAPUTO and EVEN_ENERGY)
    fracops = importlib.import_module("fracplap.fracops")
    matmul = fracops.Toeplitz.__matmul__
    columns = []

    def counting(op, x):
        columns.append(1 if np.ndim(x) == 1 else np.shape(x)[1])
        return matmul(op, x)

    monkeypatch.setattr(fracops.Toeplitz, "__matmul__", counting)
    run_suite([FracParams(alpha=0.6, p=2.0, T=1.0)], make_grid(1.0, 1024), seed=0, samples=100)
    assert sum(columns) == 1133


def test_rl_caputo_fails_with_a_wrong_order_correction(monkeypatch):
    # the record reads _caputo_correction against its closed form: a
    # correction of the wrong order fails it
    verify_mod = importlib.import_module("fracplap.verify")
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert verify(PropertyId.RL_CAPUTO, params, grid, samples=10).passed

    def wrong_order(ops, left):
        return fracops._caputo_correction(dataclasses.replace(ops, alpha=0.3), left)

    monkeypatch.setattr(verify_mod, "_caputo_correction", wrong_order)
    rep = verify(PropertyId.RL_CAPUTO, params, grid, samples=10)
    assert not rep.passed and rep.worst_margin < -1e-3


def sampled_rl_caputo_margin(params, ops, samples, seed=0):
    """The sampled RL_CAPUTO record that the column record replaced: minus
    the worst gap |cap + corr - rl| / max(|rl|, 1) over verify's unpinned
    ensemble with the property's own stream, u(0) kept off 0.  rl cancels
    from the gap, so it reads _caputo_correction and never D."""
    verify_mod = importlib.import_module("fracplap.verify")
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(PropertyId.RL_CAPUTO)])
    grid, a = ops.grid, params.alpha
    coef = 0.0 if a >= 1.0 else 1.0 / gamma(1.0 - a)
    caputo = verify_mod._caputo_correction(ops, left=True)
    worst = 0.0
    for block in verify_mod._ensemble(grid, rng, samples, dirichlet=False):
        u0 = block[:, :1]
        u0[np.abs(u0) < 0.5] = 1.5
        rl = _rows(ops.left_deriv, block)
        cap = rl - u0 * caputo
        corr = (u0 * coef) * grid.nodes[1:] ** (-a) if a < 1.0 else 0.0
        gap = np.abs(cap[:, 1:] + corr - rl[:, 1:]) / np.maximum(np.abs(rl[:, 1:]), 1.0)
        worst = verify_mod._fold(max, worst, *np.max(gap, axis=1).tolist())
    return -worst


def test_sampled_rl_caputo_reference_reproduces_the_old_record():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    margin = sampled_rl_caputo_margin(params, build_operators(params, grid), 100)
    assert margin == -4.440892098500626e-15


def wrong_derivative(monkeypatch, make):
    """Make verify build D as make(params, grid)."""
    verify_mod = importlib.import_module("fracplap.verify")
    build = verify_mod.build_operators

    def replaced(params, grid):
        return dataclasses.replace(build(params, grid), left_deriv=make(params, grid))

    monkeypatch.setattr(verify_mod, "build_operators", replaced)
    return replaced


@pytest.mark.parametrize(
    "make",
    [lambda params, grid: _gl_operator(0.3, grid), lambda params, grid: _gl_operator(-params.alpha, grid)],
    ids=["order-0.3 derivative", "I^alpha"],
)
def test_rl_caputo_fails_with_a_wrong_derivative(monkeypatch, make):
    # D 1 is read against h^(-alpha) gl_weights(alpha - 1): the sampled
    # record passed both of these, as its gap cancels D
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert verify(PropertyId.RL_CAPUTO, params, grid).passed
    replaced = wrong_derivative(monkeypatch, make)
    assert sampled_rl_caputo_margin(params, replaced(params, grid), 100) >= -1e-12
    rep = verify(PropertyId.RL_CAPUTO, params, grid)
    assert not rep.passed and rep.worst_margin < -0.1


@pytest.mark.parametrize("k, rel", [(0, 1e-9), (-1, 1e-5)])
def test_rl_caputo_fails_with_one_perturbed_weight(monkeypatch, k, rel):
    # w_0 sets every partial sum of D 1; the last weight is about 4e-6 of
    # w_0 at n 1024, so 1e-5 of it moves the last partial sum by 4e-11
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    fracops = importlib.import_module("fracplap.fracops")

    def perturbed(params, grid):
        col = _gl_operator(params.alpha, grid).col.copy()
        col[k] *= 1.0 + rel
        return fracops.Toeplitz(col)

    wrong_derivative(monkeypatch, perturbed)
    rep = verify(PropertyId.RL_CAPUTO, params, grid)
    assert not rep.passed and rep.worst_margin < -rep.tolerance_used


def old_lq_ladder(params):
    """The sampled EMBED_LQ's ladder, which started at q = p."""
    p = params.p
    ap = params.alpha * p
    q_hi = 0.9 * p / (1.0 - ap) if ap < 1.0 else 3.0 * p
    return np.geomspace(p, max(q_hi, p * 1.01), 4).tolist()


def sampled_lq_record(params, grid, samples, qs, seed=0):
    """The sampled EMBED_LQ record that the proven one replaced, on the
    rungs qs, as (margin, sups): the margin is the smallest slack of
    sum w v^q <= sum w v^p for v = |u| / max|u|, and sups[k] the largest
    ||u||_q / ||u||_{a,p} at qs[k], over verify's pinned ensemble with the
    property's own stream."""
    verify_mod = importlib.import_module("fracplap.verify")
    ops = build_operators(params, grid)
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(PropertyId.EMBED_LQ)])
    p, w = params.p, trapezoid_weights(grid)
    worst, sups = math.inf, [0.0] * len(qs)
    for block in verify_mod._ensemble(grid, rng, samples, dirichlet=True):
        unit, scale = _max_scaled(block)
        lp_p = np.sum(w * unit**p, axis=1).tolist()
        lq_p = [np.sum(w * unit**q, axis=1).tolist() for q in qs]
        for r, an in enumerate(_alpha_rows(ops, block, p)):
            for k, (q, lq) in enumerate(zip(qs, lq_p)):
                worst = verify_mod._fold(min, worst, (lp_p[r] - lq[r]) / max(lp_p[r], 1e-300))
                if an > 0:
                    sups[k] = max(sups[k], scale[r] * lq[r] ** (1.0 / q) / an)
    return worst, sups


def test_sampled_lq_reference_reproduces_the_old_record():
    # margin exactly 0 from the rung q = p; only the constant informed
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    margin, sups = sampled_lq_record(params, make_grid(1.0, 1024), 100, old_lq_ladder(params))
    assert margin == 0.0 and max(sups) == 0.46003196827860043


@pytest.mark.parametrize(
    "alpha, p, n",
    [(0.6, 2.0, 1024), (1.0, 2.0, 16), (0.9, 1.5, 64), (0.6, 3.0, 128), (0.6, 130.0, 1024),
     (0.3, 2.0, 64), (0.1, 1.2, 64)],
)
def test_proven_lq_constant_is_above_every_sample(alpha, p, n):
    # the proven K_q bounds every pinned function's ratio, so no sample of
    # a large ensemble exceeds it on any rung; C_q is the L^r norm of the
    # kernel t^(a-1) / G(a), here in mpmath; samples is only echoed
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    rep = verify(PropertyId.EMBED_LQ, params, grid, samples=7, seed=0)
    qs = _lq_ladder(params)
    K = embedding_constants(build_operators(params, grid), p, qs)[2:]
    with mpmath.workdps(30):
        C = []
        for q in qs:
            r = 1 / (1 + mpmath.mpf(1) / q - mpmath.mpf(1) / p)
            s = (alpha - 1) * r + 1  # int_0^1 t^((a-1) r) dt = 1/s
            C.append((1 / s) ** (1 / r) / mpmath.gamma(alpha))
    assert rep.worst_margin == pytest.approx(float(min((c - k) / c for c, k in zip(C, K))), rel=1e-9)
    assert rep.bound_constant == pytest.approx(float(C[-1]), rel=1e-12)
    assert rep.passed and rep.worst_margin > 0.0 and rep.samples == 7
    sups = sampled_lq_record(params, grid, 2000, qs)[1]
    assert all(s <= k for s, k in zip(sups, K)), (sups, K)


@pytest.mark.parametrize("alpha, p", [(0.005, 1.2), (0.05, 1.01), (0.3, 2.0), (0.5, 2.0), (0.6, 2.0)])
def test_lq_ladder_stays_below_the_critical_exponent(alpha, p):
    # the rungs lie strictly above p (the rung p is POINCARE) and, for
    # alpha p < 1, strictly below p* = p/(1 - alpha p), where C_q is finite;
    # the old ladder's floor 1.01 p passed p* at (0.005, 1.2)
    params = FracParams(alpha=alpha, p=p, T=1.0)
    qs = _lq_ladder(params)
    assert len(qs) == 3 and p < qs[0] < qs[1] < qs[2]
    if alpha * p < 1.0:
        assert qs[-1] < p / (1.0 - alpha * p)
    rep = verify(PropertyId.EMBED_LQ, params, make_grid(1.0, 1024))
    assert rep.passed and rep.worst_margin > 0.0 and math.isfinite(rep.bound_constant)


def test_embed_lq_fails_with_a_wrong_order_integral(monkeypatch):
    # I^alpha of order alpha - 0.05 puts K_q above the continuum C_q
    verify_mod = importlib.import_module("fracplap.verify")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert verify(PropertyId.EMBED_LQ, params, grid).passed
    build = verify_mod.build_operators

    def wrong_order(params, grid):
        ops = build(params, grid)
        return dataclasses.replace(ops, left_int=_gl_operator(-(params.alpha - 0.05), grid))

    monkeypatch.setattr(verify_mod, "build_operators", wrong_order)
    rep = verify(PropertyId.EMBED_LQ, params, grid)
    assert not rep.passed and rep.worst_margin < -rep.tolerance_used


def sampled_even_energy_margin(params, grid, samples, seed=0):
    """The sampled EVEN_ENERGY record that the pointwise one replaced:
    minus the worst relative gap of E(u) = E(-u) and G(u) = -G(-u) over
    verify's pinned ensemble with the property's own stream, -(D u) taken
    as the image of -u."""
    verify_mod = importlib.import_module("fracplap.verify")
    ops = build_operators(params, grid)
    st = verify_mod._default_state(params, ops)
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(PropertyId.EVEN_ENERGY)])
    worst = 0.0
    for U in verify_mod._ensemble(grid, rng, samples, dirichlet=True):
        DU = _rows(ops.left_deriv, U)
        X, DX = np.concatenate((U, -U)), np.concatenate((DU, -DU))
        E = _energy_rows(st, X, DX).tolist()
        G = _gradient_rows(st, X, DX)
        b = len(U)
        gmax = np.max(np.abs(G[:b]), axis=1).tolist()
        gsum = np.max(np.abs(G[:b] + G[b:]), axis=1).tolist()
        for r in range(b):
            worst = verify_mod._fold(max, worst, abs(E[r] - E[b + r]) / max(abs(E[r]), 1.0))
            worst = verify_mod._fold(max, worst, gsum[r] / max(gmax[r], 1.0))
    return -worst


@pytest.mark.parametrize("alpha, p, n", [(0.6, 2.0, 1024), (0.9, 1.5, 128), (0.3, 3.0, 64), (1.0, 2.0, 64)])
def test_even_energy_reads_the_sampled_record(alpha, p, n):
    # both read -0.0: every step from u to E(u) and G(u) is sign-symmetric
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    rep = verify(PropertyId.EVEN_ENERGY, params, grid, samples=40, seed=0)
    ref = sampled_even_energy_margin(params, grid, 40)
    assert rep.worst_margin == ref == 0.0 and math.copysign(1.0, ref) == -1.0
    assert rep.passed


@pytest.mark.parametrize("values, even", [([-1.0, 0.0, 2.0], False), ([-1.0, 0.0, 1.0], True)])
def test_even_energy_reads_the_nonlinearity(monkeypatch, values, even):
    # an asymmetric TABLE profile makes F uneven and f not odd
    verify_mod = importlib.import_module("fracplap.verify")
    spec = table_spec([-50.0, 0.0, 50.0], values)

    def table_state(params, ops):
        return ProblemState(params=params, grid=ops.grid, ops=ops, spec=spec)

    monkeypatch.setattr(verify_mod, "_default_state", table_state)
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    rep = verify(PropertyId.EVEN_ENERGY, params, make_grid(1.0, 256), samples=20)
    if even:
        assert rep.passed
    else:
        assert not rep.passed and rep.worst_margin < -0.1


def test_sup_embed_precondition_raises():
    params = FracParams(alpha=0.3, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    with pytest.raises(ValueError):
        verify(PropertyId.SUP_EMBED, params, grid)


def test_translation_compact_report():
    params = FracParams(alpha=0.4, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    rep = verify(PropertyId.TRANSLATION_COMPACT, params, grid, samples=20, seed=42)
    assert rep.passed
    assert rep.refinement_ratio is not None and rep.refinement_ratio <= 1.0
    # derived bound is positive and h-monotone
    assert translation_bound(params, 1.0 / 64.0) < translation_bound(params, 1.0 / 16.0)


def test_translation_bound_at_float_range_edge_matches_mpmath():
    # T^(a(p-1)) and (2 s^a)^p once left the float range here, and the
    # bound read inf; it is of order T^a / G(a+1)
    params = FracParams(alpha=0.6, p=2.0, T=1e308)
    a, p, T, s = mpmath.mpf("0.6"), 2, mpmath.mpf(1e308), mpmath.mpf(1e306)
    with mpmath.workdps(40):
        ref = ((2 * s**a) ** p + T ** (a * (p - 1)) * s**a) ** (mpmath.mpf(1) / p) / mpmath.gamma(a + 1)
    assert translation_bound(params, 1e306) == pytest.approx(float(ref), rel=1e-12)


def translation_shifts(n):
    return [max(1, n // 16), max(1, n // 32), max(1, n // 64)]


def sampled_translation_record(params, grid, samples, seed=0):
    """The sampled TRANSLATION_COMPACT record that the proven one
    replaced, as (margin, sups): sups[k] is the largest
    ||tau_m u - u||_p / ||u||_{a,p} at the k-th shift over verify's pinned
    ensemble with the property's own stream, and the margin folds the
    slack to translation_bound at each shift with the decay of the sups."""
    verify_mod = importlib.import_module("fracplap.verify")
    ops = build_operators(params, grid)
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(PropertyId.TRANSLATION_COMPACT)])
    n, p = grid.n, params.p
    w = trapezoid_weights(grid)
    shifts = translation_shifts(n)
    sups = [0.0] * len(shifts)
    for block in verify_mod._ensemble(grid, rng, max(samples, 4), dirichlet=True):
        an = np.array(_alpha_rows(ops, block, p))
        if not np.all(np.isfinite(an)):
            sups = [math.nan] * len(shifts)
        members = block[an > 0] / an[an > 0, None]
        for k, m in enumerate(shifts):
            tu = np.zeros_like(members)
            tu[:, : n + 1 - m] = members[:, m:]
            sups[k] = verify_mod._fold(max, sups[k], *_lp_rows(tu - members, p, w))
    margins = []
    for m, s in zip(shifts, sups):
        bound = translation_bound(params, m * grid.h)
        margins.append((bound - s) / bound if 0.0 < bound < math.inf else math.nan)
    margins += [a - b for a, b in zip(sups, sups[1:])]
    return verify_mod._fold(min, math.inf, *margins), sups


def translation_constants(params, n):
    """(K_m, bound) at each shift in mpmath, from the closed form
    S_m = h^a Gamma(m + a) / (Gamma(a + 1) Gamma(m)) of the partial sums of
    the I^a weights and the continuum bound's own formula."""
    a, p, T = params.alpha, mpmath.mpf(params.p), mpmath.mpf(params.T)
    with mpmath.workdps(40):
        h, g = T / n, mpmath.gamma(a + 1)
        S = lambda m: h**a * mpmath.gamma(m + a) * mpmath.rgamma(m) / g
        K = S(n - 1)
        out = []
        for m in translation_shifts(n):
            c = 2 * S(m) - (K - S(n - m - 1))
            s = m * h
            bound = ((2 * s**a / g) ** p + T ** (a * (p - 1)) * s**a / g**p) ** (1 / p)
            out.append(((c**p + S(m) * K ** (p - 1)) ** (1 / p), bound))
        return out


def test_sampled_translation_reference_reproduces_the_old_records():
    # the 100-sample records before the proof: the suite config, and the
    # config whose sampled decay term 1.0317 - 1.0822 failed it
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    assert sampled_translation_record(params, make_grid(1.0, 1024), 100)[0] == 0.052234528060458044
    params = FracParams(alpha=0.1, p=1.2, T=1.0)
    margin, sups = sampled_translation_record(params, make_grid(1.0, 64), 100)
    assert margin == -0.050515827224710375 and sups[0] - sups[1] == margin


# (0.1, 1.2, 64) is the config the sampled record failed
TRANSLATION_ORACLE_CONFIGS = [
    (0.1, 1.2, 64), (0.6, 2.0, 1024), (0.4, 2.0, 256), (0.6, 130.0, 1024), (0.9, 1.5, 64), (1.0, 2.0, 16)
]


@pytest.mark.parametrize("alpha, p, n", TRANSLATION_ORACLE_CONFIGS)
def test_proven_translation_constant_is_above_every_sample(alpha, p, n):
    # the record is the smallest of its five margins, computed here from
    # the closed-form partial sums, and no sample of a large ensemble
    # translates by more than K_m; samples is only echoed
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    rep = verify(PropertyId.TRANSLATION_COMPACT, params, grid, samples=7, seed=0)
    consts = translation_constants(params, n)
    Km = [K for K, _ in consts]
    margins = [(b - K) / b for K, b in consts] + [(a - b) / max(a, b) for a, b in zip(Km, Km[1:])]
    assert rep.worst_margin == pytest.approx(float(min(margins)), rel=1e-12)
    assert rep.bound_constant == pytest.approx(float(consts[-1][1]), rel=1e-12)
    assert rep.refinement_ratio == pytest.approx(float(Km[-1] / Km[-2]), rel=1e-12)
    assert rep.passed and rep.samples == 7
    sups = sampled_translation_record(params, grid, 2000)[1]
    assert all(s <= K for s, K in zip(sups, Km)), (sups, Km)


def test_translation_compact_passes_wherever_the_bound_is_finite():
    # the record takes no product, so a wide sweep is cheap; the bound's
    # root is taken on scaled terms, so it is finite at every config here
    # (at 56 of the 504 it once over- or underflowed and the record failed)
    passed = 0
    for alpha in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        for p in (1.01, 1.2, 2.0, 3.0, 130.0, 400.0):
            for n in (16, 64, 1024, 8192):
                for T in (1e-3, 1.0, 1e3):
                    params = FracParams(alpha=alpha, p=p, T=T)
                    rep = verify(PropertyId.TRANSLATION_COMPACT, params, make_grid(T, n), samples=1)
                    bounds = [translation_bound(params, m * T / n) for m in translation_shifts(n)]
                    assert all(0.0 < b < math.inf for b in bounds), (alpha, p, n, T)
                    assert rep.passed and rep.worst_margin >= 0.0, (alpha, p, n, T, rep.worst_margin)
                    passed += 1
    assert passed == 504


def test_translation_compact_margin_is_free_of_the_unit_of_t():
    # the decay terms are relative to the larger K_m, as the bound terms
    # are to the bound; an absolute decay term read 1.1e-181 at T 1e-300
    prop = PropertyId.TRANSLATION_COMPACT
    margins = [
        verify(prop, FracParams(alpha=0.6, p=2.0, T=T), make_grid(T, 1024)).worst_margin
        for T in (1e-300, 1e-3, 1.0, 1e3)
    ]
    assert margins[0] > 0.0
    assert margins == pytest.approx([margins[2]] * 4, rel=1e-9)


def test_translation_compact_fails_with_a_wrong_order_integral(monkeypatch):
    # I^alpha of order alpha - 0.05 puts the partial sums above the
    # continuum bound; at p = 130 the margin is only -0.006, so p is 2
    verify_mod = importlib.import_module("fracplap.verify")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    assert verify(PropertyId.TRANSLATION_COMPACT, params, grid).passed
    build = verify_mod.build_operators

    def wrong_order(params, grid):
        ops = build(params, grid)
        return dataclasses.replace(ops, left_int=_gl_operator(-(params.alpha - 0.05), grid))

    monkeypatch.setattr(verify_mod, "build_operators", wrong_order)
    rep = verify(PropertyId.TRANSLATION_COMPACT, params, grid)
    assert not rep.passed and rep.worst_margin < -0.1


def test_suite_skip_routing_low_alpha():
    params = FracParams(alpha=0.3, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    reports = run_suite([params], grid, seed=0, samples=10)
    by_prop = {r.property: r for r in reports}
    assert by_prop[PropertyId.SUP_EMBED].status == "skipped"
    assert "alpha" in by_prop[PropertyId.SUP_EMBED].reason
    assert by_prop[PropertyId.POINCARE].status == "passed"
    assert by_prop[PropertyId.EMBED_LQ].status == "passed"


def test_suite_all_run_high_alpha():
    params = FracParams(alpha=0.75, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    reports = run_suite([params], grid, seed=0, samples=10)
    assert len(reports) == 13
    assert all(r.status != "skipped" for r in reports)


def test_suite_empty_params():
    assert run_suite([], make_grid(1.0, 16), seed=0) == []


def test_suite_order_and_determinism():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    r1 = run_suite([params], grid, seed=42, samples=10)
    r2 = run_suite([params], grid, seed=42, samples=10)
    assert [r.property for r in r1] == list(PropertyId)
    for a, b in zip(r1, r2):
        assert a == b  # dataclass equality covers every reported number


def test_report_invariant_passed_iff_margin():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    for r in run_suite([params], grid, seed=3, samples=10):
        if r.status == "skipped":
            continue
        if r.refinement_ratio is None:
            assert r.passed == (r.worst_margin >= -r.tolerance_used)
        elif r.passed:
            assert r.worst_margin >= -r.tolerance_used


def test_bound_constants_closed_forms():
    import mpmath

    mpmath.mp.dps = 30
    grid = make_grid(1.0, 128)
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    young = verify(PropertyId.YOUNG_BOUND, params, grid, samples=10, seed=0)
    ref = float(1.0**0.6 / mpmath.gamma(1.6))
    assert young.bound_constant == pytest.approx(ref, rel=1e-12)
    sup = verify(PropertyId.SUP_EMBED, params, grid, samples=10, seed=0)
    a, p, q = 0.6, 2.0, 2.0
    ref = float(1.0 ** (a - 1 / p) / (mpmath.gamma(a) * ((a - 1) * q + 1) ** (1 / q)))
    assert sup.bound_constant == pytest.approx(ref, rel=1e-12)


def test_run_suite_builds_operators_once_per_parameter_set(monkeypatch):
    # one set per parameter set, plus the 2n set of IBP_INTEGRAL, the one
    # refinement check; the package attribute fracplap.verify is the
    # function, so fetch the module itself
    verify_mod = importlib.import_module("fracplap.verify")

    calls = []
    build = verify_mod.build_operators

    def counting(params, grid):
        calls.append(grid.n)
        return build(params, grid)

    monkeypatch.setattr(verify_mod, "build_operators", counting)
    grid = make_grid(1.0, 64)
    params = [FracParams(alpha=0.6, p=2.0, T=1.0), FracParams(alpha=0.3, p=2.0, T=1.0)]
    reports = run_suite(params, grid, seed=0, samples=4)
    assert len(reports) == 26
    assert sorted(calls) == [64, 64, 128, 128]


@pytest.mark.parametrize(
    "T, n, alpha, p, props",
    [
        (1.0, 1024, 1.0, 2.0, ("LEFT_INVERSE",)),
        (10.0, 1024, 0.9, 3.0, ("SEMIGROUP", "LEFT_INVERSE")),
        (100.0, 256, 0.9, 1.5, ("SEMIGROUP",)),
    ],
)
def test_exact_identities_pass_at_any_scale(T, n, alpha, p, props):
    # errors here sit at the rounding level, where a refinement ratio
    # would compare two rounding errors
    params = FracParams(alpha=alpha, p=p, T=T)
    for prop in props:
        rep = verify(PropertyId(prop), params, make_grid(T, n), samples=100, seed=0)
        assert rep.passed, (prop, rep.worst_margin)
        assert rep.refinement_ratio is None and rep.tolerance_used == 1e-12


def test_identity_margins_independent_of_T():
    # errors are relative to the exact side, so the T^(2 alpha) scale of
    # I^(2 alpha) drops out
    margins = {
        T: [
            verify(prop, FracParams(alpha=0.6, p=2.0, T=T), make_grid(T, 1024), seed=0).worst_margin
            for prop in (PropertyId.SEMIGROUP, PropertyId.LEFT_INVERSE)
        ]
        for T in (0.01, 1.0, 100.0)
    }
    for T in (0.01, 100.0):
        for m, ref in zip(margins[T], margins[1.0]):
            assert 0.5 * ref >= m >= 2.0 * ref, (T, m, ref)


@pytest.mark.parametrize("alpha, p, n", [(0.6, 2.0, 256), (0.3, 3.0, 64), (0.9, 1.5, 128)])
def test_single_property_reproduces_suite_record(alpha, p, n):
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    suite = run_suite([params], grid, seed=1, samples=20)
    ran = [r for r in suite if r.status != "skipped"]
    assert ran
    for rec in ran:
        assert verify(rec.property, params, grid, samples=20, seed=1) == rec


_BATCHED = [
    PropertyId.SEMIGROUP,
    PropertyId.LEFT_INVERSE,
    PropertyId.IBP_EXACT,
    PropertyId.IBP_INTEGRAL,
    PropertyId.RL_CAPUTO,
    PropertyId.YOUNG_BOUND,
    PropertyId.POINCARE,
    PropertyId.SUP_EMBED,
    PropertyId.EMBED_LQ,
    PropertyId.TRANSLATION_COMPACT,
    PropertyId.MONOTONE_GAP,
    PropertyId.GRAD_FD,
    PropertyId.EVEN_ENERGY,
]


@pytest.mark.parametrize("samples", [11, 17])
def test_reports_independent_of_block_size(samples, monkeypatch):
    # blocks of 1, 2, 3, 4 and 6 rows against the default (one block
    # here); checks holding two rows per sample then take 1, 1, 1, 2 and
    # 3 samples per block, and odd counts put the smooth/rough
    # alternation across block boundaries
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.8, p=1.5, T=1.0)
    grid = make_grid(1.0, 64)
    assert fracops._BLOCK_DOUBLES // (2 * (grid.n + 1)) >= samples
    ref = {prop: verify(prop, params, grid, samples=samples, seed=7) for prop in _BATCHED}
    for rows in (1, 2, 3, 4, 6):
        monkeypatch.setattr(fracops, "_BLOCK_DOUBLES", rows * (grid.n + 1))
        for prop in _BATCHED:
            assert verify(prop, params, grid, samples=samples, seed=7) == ref[prop], (prop, rows)


def test_grad_fd_redraw_independent_of_block_size(monkeypatch):
    # a config whose clearance test rejects candidates, so a u redraws,
    # possibly across a block boundary, while v draws never do
    verify_mod = importlib.import_module("fracplap.verify")
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    samples = 11
    draw = verify_mod._draw
    drawn = []

    def counting(grid, rng, smooth, dirichlet):
        drawn.append(len(smooth))
        return draw(grid, rng, smooth, dirichlet)

    monkeypatch.setattr(verify_mod, "_draw", counting)
    ref = verify(PropertyId.GRAD_FD, params, grid, samples=samples, seed=9)
    assert ref.passed
    assert sum(drawn) > 2 * samples
    for rows in (1, 2, 3):
        monkeypatch.setattr(fracops, "_BLOCK_DOUBLES", rows * (grid.n + 1))
        drawn.clear()
        assert verify(PropertyId.GRAD_FD, params, grid, samples=samples, seed=9) == ref, rows
        assert max(drawn) == rows and sum(drawn) > 2 * samples


def test_verify_memory_stays_in_blocks():
    # whole ensembles held as arrays would exceed this at n = 1024; a small
    # run of every property first keeps first-use allocations (FFT plans,
    # sine tables at n and 2n) out of the measured peaks, so the result
    # does not depend on which tests ran before
    import tracemalloc

    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    for prop in PropertyId:
        verify(prop, params, grid, samples=2, seed=1)
    for prop in PropertyId:
        tracemalloc.start()
        try:
            verify(prop, params, grid, samples=100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, (prop.value, peak)


@pytest.mark.parametrize("prop", [PropertyId.POINCARE, PropertyId.YOUNG_BOUND])
def test_verify_rejects_grid_of_another_T(prop):
    # the bound constant is T's; on a grid of another length it used to pass
    with pytest.raises(ValueError, match="T=2.0.*T=1"):
        verify(prop, FracParams(alpha=0.6, p=2.0, T=1.0), make_grid(2.0, 256), samples=20)


def test_run_suite_rejects_grid_of_another_T():
    with pytest.raises(ValueError, match="T=2.0.*T=1"):
        run_suite([FracParams(alpha=0.6, p=2.0, T=1.0)], make_grid(2.0, 64), samples=5)
