import numpy as np
import pytest

from conftest import dense
from fracplap import (
    CoefficientFn,
    FracParams,
    GridFunction,
    ProblemState,
    build_operators,
    energy,
    gradient,
    make_grid,
    monotonicity_gap,
    sublinear_power,
    superlinear_power,
    table_spec,
    weak_residual,
)
from fracplap.energy import _energy_rows, _gap_rows, _gradient_rows
from fracplap.fracops import _rows, alpha_norm
from fracplap.grid import sine_series


def make_state(alpha, p, n, spec, T=1.0, eps_reg=None):
    params = FracParams(alpha=alpha, p=p, T=T)
    grid = make_grid(T, n)
    ops = build_operators(params, grid)
    return ProblemState(params=params, grid=grid, ops=ops, spec=spec, eps_reg=eps_reg)


def classical_linear_source():
    # f(t, u) = pi^2 sin(pi t), so the continuous solution is sin(pi t)
    a = CoefficientFn(kind="sine", value=0.0, amplitude=np.pi**2, frequency=np.pi)
    return table_spec([-100.0, 100.0], [1.0, 1.0], a_coeff=a)


def test_energy_zero_at_zero():
    st = make_state(0.5, 2.0, 64, sublinear_power(1.5))
    assert energy(st, GridFunction(np.zeros(65), dirichlet=True)) == 0.0


def test_energy_classical_value():
    # I(sin) = (1/2) int (pi cos)^2 - int pi^2 sin^2 = pi^2/4 - pi^2/2 = -pi^2/4
    st = make_state(1.0, 2.0, 512, classical_linear_source())
    u = GridFunction(np.sin(np.pi * st.grid.nodes), dirichlet=True)
    assert energy(st, u) == pytest.approx(-np.pi**2 / 4.0, abs=2e-2)


def test_energy_evenness():
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(65)
        e1 = energy(st, GridFunction(u, dirichlet=True))
        e2 = energy(st, GridFunction(-u, dirichlet=True))
        assert e1 == e2  # |.| makes both terms bitwise sign-blind


def test_energy_requires_dirichlet():
    st = make_state(0.5, 2.0, 16, sublinear_power(1.5))
    with pytest.raises(ValueError):
        energy(st, GridFunction(np.ones(17)))


def test_gradient_zero_at_zero():
    st = make_state(0.7, 2.0, 32, superlinear_power(4.0))
    g = gradient(st, GridFunction(np.zeros(33), dirichlet=True))
    assert np.all(g.values == 0.0)


@pytest.mark.parametrize(
    "p,tol",
    [(2.0, 1e-5), (3.0, 1e-4), (1.5, 1e-4)],
)
def test_gradient_matches_finite_differences(p, tol):
    spec = sublinear_power((1.0 + p) / 2.0)
    st = make_state(0.6, p, 128, spec, eps_reg=1e-10)
    rng = np.random.default_rng(42)
    h = st.grid.h
    eps = 1e-6
    for _ in range(100):
        c1, c2 = rng.standard_normal((2, 6))
        t = st.grid.nodes
        u = sum(c * np.sin((j + 1) * np.pi * t) for j, c in enumerate(c1))
        v = sum(c * np.sin((j + 1) * np.pi * t) for j, c in enumerate(c2))
        uf = GridFunction(u, dirichlet=True)
        g = gradient(st, uf).values
        pair = float(np.sum(h * g * v))
        ep = energy(st, GridFunction(u + eps * v, dirichlet=True))
        em = energy(st, GridFunction(u - eps * v, dirichlet=True))
        fd = (ep - em) / (2.0 * eps)
        assert abs(fd - pair) <= tol * max(abs(fd), abs(pair), 1e-12)


def test_gradient_odd_under_negation():
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    rng = np.random.default_rng(5)
    u = rng.standard_normal(65)
    g1 = gradient(st, GridFunction(u, dirichlet=True)).values
    g2 = gradient(st, GridFunction(-u, dirichlet=True)).values
    assert np.array_equal(g1, -g2)


def test_plap_homogeneity():
    # the gradient term alone scales like |lambda|^p
    p = 2.5
    st = make_state(0.4, p, 64, sublinear_power(1.5))
    zero_spec_energy = lambda u: (
        energy(st, u)
        + float(
            np.sum(
                np.r_[st.grid.h / 2, np.full(st.grid.n - 1, st.grid.h), st.grid.h / 2]
                * st.spec.F_values(st.grid.nodes, u.values)
            )
        )
    )
    rng = np.random.default_rng(6)
    u = rng.standard_normal(65)
    base = zero_spec_energy(GridFunction(u, dirichlet=True))
    for lam in (0.5, 2.0, -3.0):
        scaled = zero_spec_energy(GridFunction(lam * u, dirichlet=True))
        assert scaled == pytest.approx(abs(lam) ** p * base, rel=1e-12)


def test_weak_residual_trivial_point():
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    assert weak_residual(st, GridFunction(np.zeros(65), dirichlet=True)) == 0.0


def test_weak_residual_classical_solution_small():
    st = make_state(1.0, 2.0, 512, classical_linear_source())
    u = GridFunction(np.sin(np.pi * st.grid.nodes), dirichlet=True)
    assert weak_residual(st, u) <= 1e-3


def test_weak_residual_generic_positive():
    st = make_state(0.5, 2.0, 64, sublinear_power(1.5))
    rng = np.random.default_rng(8)
    u = GridFunction(rng.standard_normal(65), dirichlet=True)
    assert weak_residual(st, u) > 1e-3


def test_monotonicity_gap_at_equal_args():
    st = make_state(0.5, 2.0, 64, sublinear_power(1.5))
    rng = np.random.default_rng(10)
    u = GridFunction(rng.standard_normal(65), dirichlet=True)
    assert monotonicity_gap(st, u, u) == 0.0


def test_monotonicity_gap_hilbert_case():
    # p = 2, u = 2v: pairing = ||v||^2 and the product term equals it
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    rng = np.random.default_rng(11)
    v = rng.standard_normal(65)
    gap = monotonicity_gap(
        st, GridFunction(2.0 * v, dirichlet=True), GridFunction(v, dirichlet=True)
    )
    assert abs(gap) <= 1e-10 * np.sum(v * v)


def test_monotonicity_gap_nonnegative_sweep():
    rng = np.random.default_rng(12)
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.3, 0.7):
            st = make_state(alpha, p, 48, sublinear_power((1.0 + p) / 2.0))
            for _ in range(170):
                u = GridFunction(rng.standard_normal(49), dirichlet=True)
                v = GridFunction(rng.standard_normal(49), dirichlet=True)
                gap = monotonicity_gap(st, u, v)
                du = st.ops.left_deriv @ u.values
                dv = st.ops.left_deriv @ v.values
                scale = np.sum(np.abs(du) ** p) + np.sum(np.abs(dv) ** p)
                assert gap >= -1e-12 * (1.0 + scale)


def test_coercivity_surrogate():
    # energy(s u)/s^p approaches the gradient term as s grows
    p = 2.0
    st = make_state(0.6, p, 64, sublinear_power(1.5))
    rng = np.random.default_rng(13)
    u = GridFunction(rng.standard_normal(65), dirichlet=True)
    du = st.ops.left_deriv @ u.values
    plap = float(np.sum(st.ops.deriv_quad_weights * np.abs(du) ** p)) / p
    ratios = [energy(st, GridFunction(2.0**k * u.values, dirichlet=True)) / 2.0 ** (k * p) for k in range(11)]
    assert abs(ratios[-1] - plap) <= 0.05 * plap
    assert abs(ratios[0] - plap) > abs(ratios[-1] - plap)


def test_mountain_pass_geometry_surrogate():
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    rng = np.random.default_rng(14)
    # positive rim on a small sphere
    from fracplap import alpha_norm

    rho = 1e-2
    for _ in range(30):
        u = rng.standard_normal(65)
        uf = GridFunction(u, dirichlet=True)
        nrm = alpha_norm(st.ops, uf, 2.0)
        v = GridFunction(rho * u / nrm, dirichlet=True)
        assert energy(st, v) > 0.0
    # blow-down along a fixed ray
    w = GridFunction(np.sin(np.pi * st.grid.nodes), dirichlet=True)
    es = [energy(st, GridFunction(s * w.values, dirichlet=True)) for s in (1.0, 4.0, 16.0)]
    assert es[-1] < es[0] and es[-1] < -1.0


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("alpha", [0.4, 1.0])
def test_basis_norms_match_dense_columns(alpha, p):
    from fracplap.energy import basis_alpha_norms

    st = make_state(alpha, p, 64, sublinear_power(1.2))
    D = dense(st.ops.left_deriv)
    wd = st.ops.deriv_quad_weights
    ref = np.sum(wd[:, None] * np.abs(D[:, 1:-1]) ** p, axis=0) ** (1.0 / p)
    assert np.max(np.abs(basis_alpha_norms(st) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("n", [64, 1023])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_row_bodies_bitwise_equal_one_row_calls(p, n):
    # rough, smooth and small rows through one batched product give, row
    # by row, the bits of the one-function calls; at p < 2 the flux is
    # regularized
    st = make_state(0.7, p, n, sublinear_power((1.0 + p) / 2.0))
    assert (st.eps_reg > 0.0) == (p < 2.0)
    rng = np.random.default_rng(11)
    U = np.concatenate((
        rng.standard_normal((3, n + 1)),
        sine_series(st.grid, rng.standard_normal((3, 8))),
        1e-6 * rng.standard_normal((2, n + 1)),
    ))
    U[:, 0] = U[:, -1] = 0.0
    DU = _rows(st.ops.left_deriv, U)
    E = _energy_rows(st, U, DU)
    G = _gradient_rows(st, U, DU)
    half = len(U) // 2
    gaps, nu, nv = _gap_rows(st, DU[:half], DU[half:])
    fns = [GridFunction(u, dirichlet=True) for u in U]
    for r, u in enumerate(fns):
        assert E[r] == energy(st, u), r
        assert np.array_equal(G[r], gradient(st, u).values), r
    for r in range(half):
        u, v = fns[r], fns[half + r]
        assert gaps[r] == monotonicity_gap(st, u, v), r
        assert (nu[r], nv[r]) == (alpha_norm(st.ops, u, p), alpha_norm(st.ops, v, p)), r


def test_problem_state_rejects_operators_of_another_T():
    params2 = FracParams(alpha=0.6, p=2.0, T=2.0)
    ops2 = build_operators(params2, make_grid(2.0, 64))
    params1, grid1 = FracParams(alpha=0.6, p=2.0, T=1.0), make_grid(1.0, 64)
    with pytest.raises(ValueError, match="not built for these params and grid"):
        ProblemState(params=params1, grid=grid1, ops=ops2, spec=sublinear_power(1.5))
    with pytest.raises(ValueError, match="not built for these params and grid"):
        ProblemState(params=params1, grid=make_grid(2.0, 64), ops=ops2, spec=sublinear_power(1.5))
