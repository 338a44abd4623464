import numpy as np
import pytest

from conftest import dense
from fracplap import fracops, solvers
from fracplap.fracops import _alpha_rows, _rows
from fracplap.energy import _energy_rows, _gradient_and_du, phi
from fracplap.grid import _lp_rows, sine_series, trapezoid_weights

from fracplap import (
    CoefficientFn,
    FracParams,
    GridFunction,
    ProblemState,
    alpha_norm,
    build_operators,
    energy,
    make_grid,
    minimize_direct,
    mountain_pass,
    multiplicity_search,
    regularity_check,
    sublinear_power,
    sup_norm,
    superlinear_power,
    table_spec,
    weak_residual,
)


def make_state(alpha, p, n, spec, T=1.0):
    params = FracParams(alpha=alpha, p=p, T=T)
    grid = make_grid(T, n)
    ops = build_operators(params, grid)
    return ProblemState(params=params, grid=grid, ops=ops, spec=spec)


def bump_init(st, scale=0.1):
    return GridFunction(scale * np.sin(np.pi * st.grid.nodes / st.grid.T), dirichlet=True)


def fixed_point_oracle(st, mu, iters=400):
    """Independent route to the superlinear critical point: normalized
    inverse iteration u = K^{-1} |u|^(mu-2) u followed by the homogeneity
    rescaling s = c^(-1/(mu-2))."""
    n = st.grid.n
    D = dense(st.ops.left_deriv)
    wd = st.ops.deriv_quad_weights
    K = ((D.T * wd) @ D / st.grid.h)[1:n, 1:n]
    w = np.sin(np.pi * st.grid.nodes / st.grid.T)[1:n]
    c = 1.0
    for _ in range(iters):
        v = np.linalg.solve(K, np.abs(w) ** (mu - 2.0) * w)
        c = np.max(np.abs(v))
        wn = v / c
        if np.max(np.abs(wn - w)) < 1e-15:
            w = wn
            break
        w = wn
    u = np.zeros(n + 1)
    u[1:n] = c ** (-1.0 / (mu - 2.0)) * w
    return GridFunction(u, dirichlet=True)


def dense_hessian(st, ui):
    """Interior Hessian of the energy, assembled from the dense D."""
    n = st.grid.n
    u = np.zeros(n + 1)
    u[1:-1] = ui
    p = st.params.p
    du = st.ops.left_deriv @ u
    eps = st.eps_reg
    if p >= 2.0:
        dphi = (p - 1.0) * np.abs(du) ** (p - 2.0)
    else:
        s2 = du * du + eps * eps
        dphi = s2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * du * du + eps * eps)
    D = dense(st.ops.left_deriv)
    wd = st.ops.deriv_quad_weights
    H = (D.T * (wd * dphi)) @ D / st.grid.h
    fu = st.spec.fu_values(st.grid.nodes, u)
    return H[1:n, 1:n] - np.diag(fu[1:n])


# -------------------------------------------------------- minimize_direct ---


def test_minimize_rejects_superlinear():
    st = make_state(0.6, 2.0, 32, superlinear_power(4.0))
    with pytest.raises(ValueError):
        minimize_direct(st, bump_init(st))


@pytest.mark.parametrize(
    "solve, spec, message",
    [
        (
            minimize_direct,
            superlinear_power(4.0),
            "minimize_direct requires a sublinear-regime nonlinearity; "
            "got SUPERLINEAR_POWER (mu=4.0)",
        ),
        (minimize_direct, sublinear_power(2.0), "minimize_direct requires exponent q < p, got q=2.0, p=2.0"),
        (
            mountain_pass,
            sublinear_power(1.5),
            "mountain_pass requires a superlinear-regime nonlinearity; "
            "got SUBLINEAR_POWER (q=1.5)",
        ),
        (mountain_pass, superlinear_power(2.0), "mountain_pass requires exponent mu > p, got mu=2.0, p=2.0"),
    ],
    ids=["superlinear-family", "q-not-below-p", "sublinear-family", "mu-not-above-p"],
)
def test_regime_gate_rejections(solve, spec, message):
    st = make_state(0.6, 2.0, 32, spec)
    args = (bump_init(st),) if solve is minimize_direct else ()
    with pytest.raises(ValueError) as info:
        solve(st, *args)
    assert str(info.value) == message


def test_minimize_standard_problem():
    st = make_state(0.6, 2.0, 128, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-6, max_iter=2000)
    assert rep.converged
    assert rep.residual <= 1e-6
    assert rep.energy_value < 0.0
    assert not rep.trivial
    assert sup_norm(rep.solution) > 1e-3
    # report invariant
    assert rep.method == "direct"
    assert rep.eps_reg_used == 0.0


def test_minimize_from_zero_is_trivial():
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    rep = minimize_direct(st, GridFunction(np.zeros(65), dirichlet=True), tol=1e-8)
    assert rep.converged
    assert rep.residual == 0.0
    assert rep.energy_value == 0.0
    assert rep.trivial


def test_minimize_symmetry_invariant():
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    init = GridFunction(
        0.1 * np.sin(np.pi * st.grid.nodes) + 0.05 * np.sin(2 * np.pi * st.grid.nodes),
        dirichlet=True,
    )
    r_plus = minimize_direct(st, init, tol=1e-8)
    r_minus = minimize_direct(st, GridFunction(-init.values, dirichlet=True), tol=1e-8)
    assert np.array_equal(r_plus.solution.values, -r_minus.solution.values)
    assert r_plus.energy_value == r_minus.energy_value


def test_minimize_scaling_sanity():
    energies = {}
    for n in (128, 256):
        st = make_state(0.6, 2.0, n, sublinear_power(1.5))
        energies[n] = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=4000).energy_value
    assert abs(energies[128] - energies[256]) <= 5e-3


def test_minimize_nonconverged_report():
    st = make_state(0.6, 2.0, 128, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-14, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2


def test_minimize_stops_when_energy_rises(monkeypatch):
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    init = bump_init(st)
    monkeypatch.setattr(solvers, "_armijo_step", lambda st, u, E, d, slope, ray: (u + d, E + 1.0, None))
    rep = minimize_direct(st, init, tol=1e-8)
    assert not rep.converged
    assert rep.iterations == 0
    assert np.array_equal(rep.solution.values, init.values)


def test_minimize_stops_on_nan_descent_direction(monkeypatch):
    # a NaN slope used to run every Armijo halving and accept a NaN state,
    # iteration after iteration, until max_iter
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    init = bump_init(st)
    monkeypatch.setattr(solvers._Workspace, "metric_solver", lambda self, w: lambda g: np.full_like(g, np.nan))
    rep = minimize_direct(st, init, tol=1e-8, max_iter=50)
    assert rep.iterations == 0 and not rep.converged
    assert np.all(np.isfinite(rep.solution.values))
    assert rep.energy_value == energy(st, init)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("p, q", [(1.5, 1.2), (3.0, 2.0), (5.0, 2.0)])
def test_minimize_iterations_flat_in_p_and_n(p, q, n):
    # in the fixed p = 2 metric these took 317 iterations at (3, 2, 1024)
    # and did not converge in 3000 at (1.5, 1.2, 1024) and (5, 2, 1024)
    st = make_state(0.6, p, n, sublinear_power(q))
    rep = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=3000)
    assert rep.converged and rep.iterations <= 60
    if (p, q, n) == (3.0, 2.0, 256):
        # the converged energy of the fixed-metric descent
        assert rep.energy_value == pytest.approx(-0.05855153766741332, rel=1e-6)


def test_minimize_product_budget(monkeypatch):
    # set-up is one product (L^-T r); every energy call takes its point's
    # derivative image (1), which the next gradient reuses, so a gradient
    # costs its D^T product (1) and an iteration adds one gradient and its
    # metric solve (2); the start's energy and gradient share its image.
    # At p = 2 the secant memory shapes the step and adds no product.
    states = [make_state(0.6, p, 128, sublinear_power(q)) for p, q in ((3.0, 2.0), (2.0, 1.5))]
    counts = {"matmul": 0, "energy": 0}
    matmul, rows_fn = fracops.Toeplitz.__matmul__, solvers._energy_rows

    def counted_matmul(self, x):
        counts["matmul"] += 1
        return matmul(self, x)

    def counted_rows(st, V, DV):
        counts["energy"] += 1
        return rows_fn(st, V, DV)

    monkeypatch.setattr(fracops.Toeplitz, "__matmul__", counted_matmul)
    monkeypatch.setattr(solvers, "_energy_rows", counted_rows)
    for st in states:
        for max_iter in (3, 2000):
            counts.update(matmul=0, energy=0)
            rep = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=max_iter)
            assert (rep.iterations == 3) if max_iter == 3 else rep.converged
            assert counts["matmul"] == 2 + 3 * rep.iterations + counts["energy"]


def count_products(monkeypatch) -> list:
    """A one-item list that counts every Toeplitz product from here on."""
    counts, matmul = [0], fracops.Toeplitz.__matmul__

    def counted(self, x):
        counts[0] += 1
        return matmul(self, x)

    monkeypatch.setattr(fracops.Toeplitz, "__matmul__", counted)
    return counts


@pytest.mark.parametrize("n", [1024, 4096])
def test_secant_memory_cuts_direct_products_at_p2(n, monkeypatch):
    # the plain metric step took 16 and 14 iterations, 67 and 59 products
    st = make_state(0.6, 2.0, n, sublinear_power(1.5))
    counts = count_products(monkeypatch)
    rep = minimize_direct(st, bump_init(st), tol=1e-8)
    assert rep.converged and counts[0] <= 37


def test_secant_memory_leaves_the_p3_descent_bitwise(monkeypatch):
    # the lagged-diffusivity weights change at every step, so the memory
    # is cleared at every step and each step is the plain metric step
    st = make_state(0.6, 3.0, 1024, sublinear_power(2.0))
    counts = count_products(monkeypatch)
    rep = minimize_direct(st, bump_init(st), tol=1e-8)
    assert rep.converged and (rep.iterations, counts[0]) == (17, 79)
    assert rep.energy_value == -0.058030821822805514


def test_secant_memory_converges_where_the_metric_step_crawled():
    # the plain metric step ended all 3000 iterations above tol here
    st = make_state(0.1, 2.0, 1024, sublinear_power(1.9))
    rep = minimize_direct(st, bump_init(st), tol=1e-8)
    assert rep.converged and rep.iterations <= 60


def test_secant_memory_speeds_the_slow_ray_descent(monkeypatch):
    # the plain ray descent took 524 gradients and 2515 products here
    st = make_state(0.3, 2.0, 256, superlinear_power(4.0))
    counts = count_products(monkeypatch)
    rep = mountain_pass(st, tol=1e-8)
    assert rep.converged and counts[0] <= 400
    assert rep.energy_value == pytest.approx(0.2845973681270813, rel=0.0, abs=1e-10)


def test_direct_descent_stops_at_the_floor_at_tol_0(monkeypatch):
    # at the roundoff floor an Armijo search halves its step until the
    # trial is u itself, and every later search from u would repeat it
    # (60 energy calls for no move each, until max_iter).  So a search that
    # ends at u fails: the memory's direction first, then the plain metric
    # step, which ends the descent.
    st = make_state(0.6, 2.0, 256, sublinear_power(1.5))
    searches, armijo = [], solvers._armijo_step

    def recorded(st, u, E, d, slope, ray):
        searches.append((u, d))
        return armijo(st, u, E, d, slope, ray)

    monkeypatch.setattr(solvers, "_armijo_step", recorded)
    rep = minimize_direct(st, bump_init(st), tol=0.0, max_iter=500)
    assert not rep.converged and rep.iterations < 50
    u, d = searches[-1]
    assert np.array_equal(u, rep.solution.values)
    ws = solvers._Workspace(st)
    assert np.array_equal(d, -ws.metric_solver(ws.linear_weights)(_gradient_and_du(st, u)[0]))


def test_minimize_reports_energy_of_its_solution():
    st = make_state(0.6, 3.0, 128, sublinear_power(2.0))
    rep = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=4000)
    assert rep.converged
    assert rep.energy_value == energy(st, rep.solution)


def test_minimize_p3_regime():
    st = make_state(0.5, 3.0, 96, sublinear_power(2.0))
    rep = minimize_direct(st, bump_init(st), tol=1e-6, max_iter=4000)
    assert rep.converged and rep.energy_value < 0.0


def test_minimize_accepts_table_source():
    a = CoefficientFn(kind="sine", value=0.0, amplitude=np.pi**2, frequency=np.pi)
    st = make_state(1.0, 2.0, 64, table_spec([-100.0, 100.0], [1.0, 1.0], a_coeff=a))
    rep = minimize_direct(st, GridFunction(np.zeros(65), dirichlet=True), tol=1e-8)
    assert rep.converged and not rep.trivial


# ---------------------------------------------------------- mountain_pass ---


def test_mountain_pass_rejects_sublinear():
    st = make_state(0.7, 2.0, 32, sublinear_power(1.5))
    with pytest.raises(ValueError):
        mountain_pass(st)


def test_mountain_pass_small_problem():
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    rep = mountain_pass(st, tol=1e-5, max_iter=600, seed=3)
    assert rep.converged
    assert rep.residual <= 1e-5
    assert rep.rim_value > 0.0
    assert rep.endpoint_energy < 0.0 < rep.rim_value <= rep.energy_value
    assert not rep.trivial


def test_mountain_pass_collapsed_path_is_geometry_error(monkeypatch):
    # a point pushed past its ray maximum falls into the unbounded basin;
    # the run used to end with energy 0, residual 0 and a trivial
    # solution, as if exact.  At mu 4 four times the maximum has negative
    # energy.
    ray_max = solvers._ray_max
    monkeypatch.setattr(
        solvers, "_ray_max", lambda st, w, dw: tuple(4.0 * x for x in ray_max(st, w, dw))
    )
    st = make_state(1.0, 3.0, 64, superlinear_power(4.0))
    with pytest.raises(solvers.GeometryError, match="non-positive level"):
        mountain_pass(st, max_iter=600, seed=3)


@pytest.mark.parametrize("seed", range(4))
def test_mountain_pass_sweeps_do_not_collapse_at_p3(seed):
    # the sweeps used to step in the fixed metric of the linear part, which
    # overshoots at p = 3 and collapsed this path for every seed.  Oracle:
    # the Newton polish from the top of the unswept straight path 0 -> e.
    st = make_state(0.9, 3.0, 256, superlinear_power(6.0))
    rep = mountain_pass(st, tol=1e-8, seed=seed)
    assert rep.converged and rep.residual <= 1e-8
    assert rep.endpoint_energy < 0.0 < rep.rim_value <= rep.energy_value
    w0 = GridFunction(np.sin(np.pi * st.grid.nodes), dirichlet=True)
    w0 = w0.values / alpha_norm(st.ops, w0, 3.0)
    s = 1.0
    while energy(st, GridFunction(s * w0, dirichlet=True)) >= 0.0:
        s *= 2.0
    path = [lam * s * w0 for lam in np.linspace(0.0, 1.0, 21)]
    top = max(path, key=lambda v: energy(st, GridFunction(v, dirichlet=True)))
    ws = solvers._Workspace(st)
    z, g, _, _ = solvers._polish_root(ws, top, tol=1e-8)
    assert ws.residual(g) <= 1e-8
    oracle = energy(st, GridFunction(z, dirichlet=True))
    assert rep.energy_value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_mountain_pass_polish_stops_at_tol(monkeypatch):
    # the benchmark's mountain-pass settings: the residual meets tol after
    # three Newton solves, where polishing to the roundoff floor took ten
    # solves and 559 products, and the energy stays that of the floor;
    # solving each system only as far as tol needs cut 94 products to 53
    st = make_state(0.7, 2.0, 1024, superlinear_power(4.0))
    counts = {"matmul": 0, "newton": 0}
    matmul, newton_step = fracops.Toeplitz.__matmul__, solvers._Workspace.newton_step

    def counted_matmul(self, x):
        counts["matmul"] += 1
        return matmul(self, x)

    def counted_newton_step(self, u, g, du, rtol):
        counts["newton"] += 1
        return newton_step(self, u, g, du, rtol)

    monkeypatch.setattr(fracops.Toeplitz, "__matmul__", counted_matmul)
    monkeypatch.setattr(solvers._Workspace, "newton_step", counted_newton_step)
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and rep.residual <= 1e-8
    assert counts["newton"] == 3
    assert counts["matmul"] <= 53
    assert rep.energy_value == pytest.approx(2.079258717092121, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_polish_forcing_follows_tol(tol, monkeypatch):
    # each Newton system is solved to max(1e-12, 0.1 tol / res) for the
    # residual res of the gradient it is given, so tol = 0 keeps the
    # exact solve; the first sine ray's maximum takes four steps to 1e-8
    st = make_state(0.7, 2.0, 256, superlinear_power(4.0))
    ws = solvers._Workspace(st)
    (w,), (dw,) = ws.unit_sines(np.ones((1, 1)))
    u0, _ = solvers._ray_max(st, w, dw)
    seen = []
    minres = solvers._minres

    def spy(rest, b, M, rtol):
        seen.append((rtol, ws.residual(b)))
        return minres(rest, b, M, rtol)

    monkeypatch.setattr(solvers, "_minres", spy)
    _, g, _, _ = solvers._polish_root(ws, u0, tol=tol)
    assert len(seen) >= 4
    assert [rtol for rtol, _ in seen] == [max(1e-12, 0.1 * tol / res) for _, res in seen]
    if tol > 0.0:
        assert ws.residual(g) <= tol and max(rtol for rtol, _ in seen) > 1e-2
    else:
        assert ws.residual(g) < 1e-14


@pytest.mark.parametrize(
    "alpha, p, mu, n",
    [(0.7, 2.0, 4.0, 1024), (0.9, 3.0, 4.5, 64), (0.9, 3.0, 4.5, 1024), (0.7, 1.5, 2.25, 256)],
)
def test_mountain_pass_forcing_meets_tol_on_a_fresh_gradient(alpha, p, mu, n):
    # the benchmark's settings and the three configs of PR 20's probe that
    # end nearest tol: the inexact Newton solves never fake convergence
    st = make_state(alpha, p, n, superlinear_power(mu))
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and weak_residual(st, rep.solution) <= 1e-8


def test_polish_halvings_are_bounded(monkeypatch):
    # this start lies outside Newton's basin: the first polish gives up
    # after 83 gradients, where 30 halvings a step took 207
    st = make_state(0.3, 2.0, 256, superlinear_power(4.0))
    nfevs = []
    polish = solvers._polish_root

    def counted(ws, u, **kw):
        out = polish(ws, u, **kw)
        nfevs.append(out[3])
        return out

    monkeypatch.setattr(solvers, "_polish_root", counted)
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and nfevs[0] <= 100
    assert rep.energy_value == pytest.approx(0.2845973681, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("modes", [1, 6, 66])
def test_unit_sines_match_fresh_products(n, modes, monkeypatch):
    # D V comes from the table of mode images; it agrees with a fresh
    # product to that product's own rounding scale, ||col||_1 max|V|
    # (relative to max|D V| a smooth row at alpha 1, n 1024 differs by up
    # to 2.5e-13, as much as either differs from the exact product)
    for alpha in (0.3, 0.7, 1.0):
        st = make_state(alpha, 2.0, n, superlinear_power(4.0))
        ws = solvers._Workspace(st)
        C = np.random.default_rng(modes).standard_normal((15, modes))
        products = []
        matmul = fracops.Toeplitz.__matmul__
        monkeypatch.setattr(
            fracops.Toeplitz, "__matmul__", lambda op, x: products.append(1) or matmul(op, x)
        )
        V, DV = ws.unit_sines(C)
        ws.unit_sines(C[:, :1])
        assert len(products) == 1
        monkeypatch.undo()
        ref = _rows(st.ops.left_deriv, V)
        scale = np.sum(np.abs(st.ops.left_deriv.col)) * np.max(np.abs(V), axis=1)
        assert np.all(np.max(np.abs(DV - ref), axis=1) <= 1e-14 * scale)
        norms = solvers._lp_rows(DV, 2.0, st.ops.deriv_quad_weights)
        assert norms == pytest.approx(np.ones(15), rel=1e-14, abs=0.0)
        assert np.all(V[:, [0, -1]] == 0.0) and not np.any(np.signbit(V[:, [0, -1]]))


def test_unit_sines_reject_zero_row():
    ws = solvers._Workspace(make_state(0.7, 2.0, 64, superlinear_power(4.0)))
    with pytest.raises(ValueError, match="zero function"):
        ws.unit_sines(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("solve", ["mountain_pass", "multiplicity_search"])
def test_solvers_never_repeat_a_gradient(solve, monkeypatch):
    evaluated = []
    gradient_and_du, gradient_rows = solvers._gradient_and_du, solvers._gradient_rows
    monkeypatch.setattr(
        solvers, "_gradient_and_du",
        lambda st, u: evaluated.append(u.tobytes()) or gradient_and_du(st, u),
    )
    monkeypatch.setattr(
        solvers, "_gradient_rows",
        lambda st, V, DV: evaluated.append(V.tobytes()) or gradient_rows(st, V, DV),
    )
    if solve == "mountain_pass":
        st = make_state(0.7, 2.0, 1024, superlinear_power(4.0))
        rep = mountain_pass(st, tol=1e-8, seed=0)
        assert rep.converged and rep.iterations == len(evaluated)
    else:
        st = make_state(0.6, 2.0, 256, sublinear_power(1.5))
        assert multiplicity_search(st, k=3, tol=1e-8, seed=0).converged_count == 3
    assert evaluated and len(set(evaluated)) == len(evaluated)


def test_ray_max_matches_closed_form():
    # for F = |u|^mu / mu the ray maximum is t w with
    # t = (||w||^p / sum_i w_i |w_i|^mu)^(1/(mu - p))
    st = make_state(0.7, 2.0, 1024, superlinear_power(4.0))
    W = sine_series(st.grid, np.random.default_rng(0).standard_normal((200, 6)))
    W[:, 0] = W[:, -1] = 0.0
    quad = trapezoid_weights(st.grid)
    for w in W:
        dw = st.ops.left_deriv @ w
        U, DU = solvers._ray_max(st, w, dw)
        t = (np.sum(st.ops.deriv_quad_weights * dw**2) / np.sum(quad * w**4)) ** 0.5
        assert np.max(np.abs(U - t * w)) <= 2e-15 * np.max(np.abs(t * w))
        assert np.max(np.abs(DU - t * dw)) <= 2e-15 * np.max(np.abs(t * dw))


def test_mountain_pass_on_table_profile():
    # the piecewise-linear |u|^0.5 u; the path sweeps took 2009 iterations
    bp = np.linspace(-50.0, 50.0, 20001)
    st = make_state(0.7, 1.5, 256, table_spec(bp, np.abs(bp) ** 0.5 * bp))
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and rep.residual <= 1e-8 and rep.iterations <= 20
    assert rep.endpoint_energy < 0.0 < rep.rim_value <= rep.energy_value
    assert rep.energy_value == pytest.approx(1.3857501020998537, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "alpha, p, mu, n, level",
    [
        (0.3, 1.5, 3.0, 256, 0.1719870500),
        (0.3, 2.0, 4.0, 64, 0.2901467222),
        (0.3, 2.0, 4.0, 256, 0.2845973681),
        (0.3, 2.0, 4.0, 1024, 0.2809179954),
        (0.3, 3.0, 4.5, 1024, 0.2239188351),
        (0.3, 3.0, 6.0, 64, 0.2208140522),
        (0.3, 3.0, 6.0, 256, 0.2139409899),
        (0.3, 3.0, 6.0, 1024, 0.2089599913),
        (0.5, 3.0, 6.0, 1024, 0.6650126324),
    ],
)
def test_mountain_pass_converges_where_the_path_missed_tol(alpha, p, mu, n, level):
    # the 21-state path ended each of these above tol, its sweeps stalled
    # near residual 1e-3 or its polish started outside Newton's basin
    st = make_state(alpha, p, n, superlinear_power(mu))
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and rep.residual <= 1e-8
    assert rep.endpoint_energy < 0.0 < rep.rim_value <= rep.energy_value
    assert rep.energy_value == pytest.approx(level, rel=1e-9, abs=0.0)


def test_mountain_pass_polishes_each_point_once(monkeypatch):
    # at tol 1e-2 the gate is 1, so the start is polished at once; the
    # stand-in polish misses tol, which lowers the gate, and the resumed
    # descent takes no step (max_iter is spent), so the polish at hand is
    # kept rather than taken again at the same point
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    starts = []

    def no_progress(ws, u, *, tol, known=(), start=None):
        starts.append(u)
        return (u, *start, 0)

    monkeypatch.setattr(solvers, "_polish_root", no_progress)
    rep = mountain_pass(st, tol=1e-2, max_iter=1, seed=0)
    assert len(starts) == 1 and rep.iterations == 1 and not rep.converged


def test_mountain_pass_matches_fixed_point_oracle():
    st = make_state(1.0, 2.0, 64, superlinear_power(4.0))
    rep = mountain_pass(st, tol=1e-5, max_iter=600, seed=3)
    oracle = fixed_point_oracle(st, 4.0)
    diff = np.max(np.abs(np.abs(rep.solution.values) - np.abs(oracle.values)))
    assert diff <= 1e-3
    assert weak_residual(st, oracle) <= 1e-6  # the oracle itself is critical


# ---------------------------------------------------- multiplicity_search ---


def test_multiplicity_k1_reduces_to_minimum():
    st = make_state(0.6, 2.0, 128, sublinear_power(1.5))
    m = multiplicity_search(st, k=1, tol=1e-8, seed=0)
    assert m.converged_count == 1
    direct = minimize_direct(st, bump_init(st), tol=1e-8)
    assert m.pairs[0].energy_value == pytest.approx(direct.energy_value, rel=1e-9)
    # sign pairing is exact
    u = m.pairs[0].solution.values
    assert energy(st, GridFunction(-u, dirichlet=True)) == m.pairs[0].energy_value


def test_multiplicity_three_pairs():
    st = make_state(0.6, 2.0, 128, sublinear_power(1.5))
    m = multiplicity_search(st, k=3, tol=1e-8, seed=7)
    assert m.converged_count >= 3
    for rep in m.pairs:
        assert rep.energy_value < 0.0
        assert rep.residual <= 1e-8
    off = m.pairwise_distances[m.pairwise_distances > 0.0]
    assert np.all(off >= m.separation)
    # +/- distinctness against sign flips too
    sols = [r.solution.values for r in m.pairs]
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            d = alpha_norm(st.ops, GridFunction(sols[i] + sols[j], dirichlet=True), 2.0)
            assert d >= m.separation


def test_multiplicity_rejects_uneven():
    st = make_state(0.6, 2.0, 32, table_spec([-2.0, 0.0, 2.0], [0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        multiplicity_search(st, k=2)


def test_multiplicity_rejects_superlinear():
    st = make_state(0.6, 2.0, 32, superlinear_power(4.0))
    with pytest.raises(ValueError):
        multiplicity_search(st, k=2)


def test_multiplicity_distances_with_no_pair_and_one_pair(monkeypatch):
    # the distance matrix is filled one row block per pair, so it must
    # also come out right when there are no rows at all
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    one = multiplicity_search(st, k=1, tol=1e-8, seed=0)
    assert one.converged_count == 1
    assert one.pairwise_distances.shape == (1, 1) and one.pairwise_distances[0, 0] == 0.0

    def never_converges(st, init, tol, max_iter, seed):
        return solvers.SolveReport(
            solution=init, energy_value=-1.0, residual=1.0, iterations=max_iter,
            converged=False, method="direct", seed=seed, eps_reg_used=st.eps_reg, trivial=False,
        )

    monkeypatch.setattr(solvers, "minimize_direct", never_converges)
    none = multiplicity_search(st, k=1, tol=1e-8, seed=0)
    assert none.converged_count == 0 and none.pairs == []
    assert none.pairwise_distances.shape == (0, 0)


# -------------------------------------------------------- regularity_check ---


def test_regularity_gate():
    st = make_state(0.6, 2.0, 32, sublinear_power(1.5))  # alpha >= 1/p
    with pytest.raises(ValueError):
        regularity_check(st, bump_init(st))


def test_regularity_at_critical_point():
    st = make_state(0.3, 2.0, 256, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-9, max_iter=4000)
    res = regularity_check(st, rep.solution)
    assert res.deviation <= 1e-2 * abs(res.constant_estimate) + 1e-6
    # the left-sided variant is genuinely non-constant
    assert res.deviation_left_variant > 10.0 * res.deviation


def test_regularity_rejects_noncritical():
    st = make_state(0.3, 2.0, 256, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-9, max_iter=4000)
    good = regularity_check(st, rep.solution)
    rng = np.random.default_rng(2)
    bad = regularity_check(
        st, GridFunction(0.5 * np.sin(2 * np.pi * st.grid.nodes) + 0.01 * rng.standard_normal(257), dirichlet=True)
    )
    assert bad.deviation > 10.0 * good.deviation


def test_regularity_tuple_protocol():
    st = make_state(0.3, 2.0, 128, sublinear_power(1.5))
    rep = minimize_direct(st, bump_init(st), tol=1e-8, max_iter=4000)
    c, dev = regularity_check(st, rep.solution)
    assert isinstance(c, float) and isinstance(dev, float)


def test_mountain_pass_fractional_oracle_crosscheck():
    # independent damped fixed-point route at alpha = 0.7, same starting ray
    st = make_state(0.7, 2.0, 128, superlinear_power(4.0))
    rep = mountain_pass(st, tol=1e-5, max_iter=800, seed=3)
    oracle = fixed_point_oracle(st, 4.0)
    assert weak_residual(st, oracle) <= 1e-8
    assert np.max(np.abs(np.abs(rep.solution.values) - np.abs(oracle.values))) <= 1e-3


def test_regularity_linear_source_analogue():
    # quadratic problem with the classical sine source: the minimizer is an
    # exact discrete critical point, and the transform constancy holds to
    # 1e-3 of the constant on a fine grid
    a = CoefficientFn(kind="sine", value=0.0, amplitude=np.pi**2, frequency=np.pi)
    spec = table_spec([-100.0, 100.0], [1.0, 1.0], a_coeff=a)
    st = make_state(0.3, 2.0, 2048, spec)
    rep = minimize_direct(
        st, GridFunction(np.zeros(2049), dirichlet=True), tol=1e-10, max_iter=200
    )
    assert rep.residual <= 1e-12
    res = regularity_check(st, rep.solution)
    assert res.deviation <= 1e-3 * abs(res.constant_estimate)


# ------------------------------------------------------------- internals ---


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_closed_form_metric_solve_matches_dense(alpha):
    st = make_state(alpha, 2.0, 64, sublinear_power(1.5))
    n = st.grid.n
    D = dense(st.ops.left_deriv)
    wd = st.ops.deriv_quad_weights
    H_int = ((D.T * wd) @ D / st.grid.h)[1:n, 1:n]
    ws = solvers._Workspace(st)
    g = np.zeros(n + 1)
    g[1:n] = np.random.default_rng(1).standard_normal(n - 1)
    d = -ws.metric_solver(wd / st.grid.h)(g)
    ref = np.linalg.solve(H_int, g[1:n])
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.max(np.abs(-d[1:n] - ref)) <= 1e-12 * np.max(np.abs(ref))


def max_rule_weights(st, du):
    """wd / h times the larger of the flux's tangent and secant slopes on
    nodes 1..n, floored at PRECOND_FLOOR of the largest."""
    p, eps = st.params.p, st.eps_reg
    s = du[1:]
    if p >= 2.0:
        tangent = (p - 1.0) * np.abs(s) ** (p - 2.0)
    else:
        tangent = (s * s + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps)
    secant = phi(s, p, eps) / s
    w = np.zeros_like(du)
    w[1:] = st.ops.deriv_quad_weights[1:] / st.grid.h * np.maximum(tangent, secant)
    return np.maximum(w, solvers.PRECOND_FLOOR * np.max(w))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_descent_direction_matches_dense_p_adapted_metric(alpha, p):
    st = make_state(alpha, p, 64, sublinear_power(1.2))
    n = st.grid.n
    ws = solvers._Workspace(st)
    g, du = _gradient_and_du(st, bump_init(st).values)
    w = ws.descent_weights(du)
    assert np.allclose(w, max_rule_weights(st, du), rtol=1e-14, atol=0.0)
    D = dense(st.ops.left_deriv)
    H_w = ((D.T * w) @ D)[1:n, 1:n]
    ref = -np.linalg.solve(H_w, g[1:n])
    d = -ws.metric_solver(w)(g)
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.max(np.abs(d[1:n] - ref)) <= 1e-12 * np.max(np.abs(ref))
    if p == 2.0:
        # the metric of the linear part, bit for bit
        assert np.array_equal(w[1:], ws.linear_weights[1:])
        assert np.array_equal(d, -ws.metric_solver(ws.linear_weights)(g))


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_weighted_metric_solver_matches_dense(alpha):
    st = make_state(alpha, 2.0, 64, sublinear_power(1.5))
    n = st.grid.n
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 10.0, n + 1)
    D = dense(st.ops.left_deriv)
    H_w = ((D.T * w) @ D)[1:n, 1:n]
    g = np.zeros(n + 1)
    g[1:n] = rng.standard_normal(n - 1)
    x = solvers._Workspace(st).metric_solver(w)(g)
    ref = np.linalg.solve(H_w, g[1:n])
    assert x[0] == 0.0 and x[-1] == 0.0
    assert np.max(np.abs(x[1:n] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_secant_memory_matches_dense_bfgs_update():
    # the two-loop recursion, with H0 applied by linearity, is the BFGS
    # inverse update H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T,
    # rho = 1 / s.y, of H0 = H_w^-1 over the last QN_MEMORY pairs
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    n, m = st.grid.n, solvers.QN_MEMORY
    ws = solvers._Workspace(st)
    w = ws.linear_weights
    solve = ws.metric_solver(w)
    rng = np.random.default_rng(2)
    B = rng.standard_normal((n - 1, n - 1))
    A = B @ B.T / n + np.eye(n - 1)  # positive definite: every s.y > 0
    memory, points = solvers._SecantMemory(), []
    for _ in range(m + 2):
        u, g = np.zeros(n + 1), np.zeros(n + 1)
        u[1:n] = rng.standard_normal(n - 1)
        g[1:n] = A @ u[1:n]
        d = memory.direction(w, u, g, solve(g))
        points.append((u[1:n], g[1:n]))
    D = dense(st.ops.left_deriv)
    H = np.linalg.inv(((D.T * w) @ D)[1:n, 1:n])
    for (u0, g0), (u1, g1) in zip(points[-m - 1 : -1], points[-m:]):
        s, y = u1 - u0, g1 - g0
        V = np.eye(n - 1) - np.outer(y, s) / (s @ y)
        H = V.T @ H @ V + np.outer(s, s) / (s @ y)
    ref = H @ points[-1][1]
    assert len(memory.pairs) == m and d[0] == d[-1] == 0.0
    assert np.max(np.abs(d[1:n] - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the same point again adds no pair; another metric clears the memory
    u, g, z = memory.last
    assert np.array_equal(memory.direction(w, u, g, z), d) and len(memory.pairs) == m
    assert memory.direction(2.0 * w, u, g, z) is z and memory.pairs == []


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_step_matches_dense_hessian(p):
    # at the mountain-pass maximizer the Hessian is indefinite
    st = make_state(0.7, p, 64, superlinear_power(4.0))
    u = mountain_pass(st, tol=1e-8, max_iter=50, seed=3).solution.values
    H = dense_hessian(st, u[1:-1])
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] < 0.0 < eigs[-1]
    b = np.zeros_like(u)
    b[1:-1] = np.random.default_rng(0).standard_normal(len(u) - 2)
    ref = np.linalg.solve(H, b[1:-1])
    step = solvers._Workspace(st).newton_step(u, b, st.ops.left_deriv @ u)[1:-1]
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("p, floor", [(3.0, 0.3), (3.0, 0.7), (1.5, 0.5)])
def test_newton_step_with_floored_weights_matches_dense_hessian(p, floor, monkeypatch):
    # a floor this high lifts many interior weights, so the metric is no
    # longer H's whole flux part and MINRES must apply the difference
    st = make_state(0.7, p, 64, superlinear_power(4.0))
    u = mountain_pass(st, tol=1e-8, max_iter=50, seed=3).solution.values
    du = st.ops.left_deriv @ u
    s, eps = du[1:], st.eps_reg
    if p >= 2.0:
        slope = (p - 1.0) * np.abs(s) ** (p - 2.0)
    else:
        slope = (s * s + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps)
    w = st.ops.deriv_quad_weights[1:] * slope
    assert np.any(w < floor * np.max(w))
    H = dense_hessian(st, u[1:-1])
    b = np.zeros_like(u)
    b[1:-1] = np.random.default_rng(0).standard_normal(len(u) - 2)
    ref = np.linalg.solve(H, b[1:-1])
    monkeypatch.setattr(solvers, "PRECOND_FLOOR", floor)
    step = solvers._Workspace(st).newton_step(u, b, du)[1:-1]
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_newton_step_takes_only_metric_solves_at_p2(monkeypatch):
    # no weight is floored at p = 2: the Hessian's flux part is the metric,
    # whose product MINRES reads off the solve, so every product is a solve's
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    u = mountain_pass(st, tol=1e-8, max_iter=50, seed=3).solution.values
    ws = solvers._Workspace(st)
    du = st.ops.left_deriv @ u
    counts = {"matmul": 0, "solve": 0}
    matmul, metric_solver = fracops.Toeplitz.__matmul__, solvers._Workspace.metric_solver

    def counted_matmul(self, x):
        counts["matmul"] += 1
        return matmul(self, x)

    def counted_metric_solver(self, w):
        solve = metric_solver(self, w)

        def counted(g):
            counts["solve"] += 1
            return solve(g)

        return counted

    monkeypatch.setattr(fracops.Toeplitz, "__matmul__", counted_matmul)
    monkeypatch.setattr(solvers._Workspace, "metric_solver", counted_metric_solver)
    g = np.zeros_like(u)
    g[1:-1] = np.random.default_rng(0).standard_normal(len(u) - 2)
    ws.newton_step(u, g, du)
    assert counts["solve"] > 2
    assert counts["matmul"] == 2 * counts["solve"]


def test_newton_step_finite_without_regularization_below_p2():
    # at node 0 D u = 0, and for p < 2 with eps_reg = 0 the weight formula
    # there is 0^((p-4)/2) * 0 = NaN; the node carries no weight
    params = FracParams(alpha=0.7, p=1.5, T=1.0)
    grid = make_grid(1.0, 64)
    st = ProblemState(
        params=params, grid=grid, ops=build_operators(params, grid),
        spec=superlinear_power(4.0), eps_reg=0.0,
    )
    ws = solvers._Workspace(st)
    u0 = GridFunction(np.sin(np.pi * grid.nodes), dirichlet=True).values
    g0, du0 = _gradient_and_du(st, u0)
    assert np.all(np.isfinite(ws.newton_step(u0, g0, du0)))
    u, g, _, nfev = solvers._polish_root(ws, u0, tol=0.0)
    assert nfev > 1
    assert np.max(np.abs(g)) < np.max(np.abs(g0))


def test_polish_never_reevaluates_a_point(monkeypatch):
    # from a point at the roundoff floor the halved steps soon stop moving
    # u; each such trial used to cost a gradient, up to POLISH_MAX_HALVINGS.
    # mountain_pass stops at its tol, so the floor is reached here.
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    ws = solvers._Workspace(st)
    u0 = mountain_pass(st, tol=1e-8, max_iter=600, seed=3).solution.values
    u0 = solvers._polish_root(ws, u0, tol=0.0)[0]
    evaluated = []
    monkeypatch.setattr(
        solvers, "_gradient_and_du",
        lambda st, u: evaluated.append(u.tobytes()) or _gradient_and_du(st, u),
    )
    u, _, _, nfev = solvers._polish_root(ws, u0, tol=0.0)
    assert nfev == len(evaluated) == len(set(evaluated))
    assert np.array_equal(u, u0)


def test_polish_stops_at_tolerance(monkeypatch):
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    ws = solvers._Workspace(st)
    u0 = mountain_pass(st, tol=1e-8, max_iter=600, seed=3).solution.values
    g0, du0 = _gradient_and_du(st, u0)
    res = ws.residual(g0)
    assert res > 0.0
    stepped = []
    newton_step = solvers._Workspace.newton_step
    monkeypatch.setattr(
        solvers._Workspace, "newton_step",
        lambda self, u, g, du, rtol: stepped.append(u) or newton_step(self, u, g, du, rtol),
    )
    u, g, du, nfev = solvers._polish_root(ws, u0, tol=res)
    assert not stepped and nfev == 1
    assert np.array_equal(u, u0) and np.array_equal(g, g0) and np.array_equal(du, du0)
    u, g, du, nfev = solvers._polish_root(ws, u0, tol=res, start=(g0, du0))
    assert not stepped and nfev == 0
    assert u is u0 and g is g0 and du is du0
    solvers._polish_root(ws, u0, tol=0.5 * res, start=(g0, du0))
    assert stepped


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_polish_survives_singular_newton_system(bad, monkeypatch):
    st = make_state(0.7, 2.0, 32, superlinear_power(4.0))
    ws = solvers._Workspace(st)
    minres = solvers._minres
    # metric Id and rest (bad - 1) Id: the Newton operator is bad * Id
    monkeypatch.setattr(
        solvers, "_minres",
        lambda rest, b, M, rtol: minres(lambda v: (bad - 1.0) * v, b, lambda r: r.copy(), rtol),
    )
    u0 = np.sin(np.pi * st.grid.nodes)
    u0[-1] = 0.0
    u, _, _, nfev = solvers._polish_root(ws, u0, tol=0.0)
    assert np.array_equal(u, u0)
    assert nfev == 1


@pytest.mark.parametrize("n_known", [0, 1])
def test_polish_returns_gradient_of_its_iterate(n_known):
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    ws = solvers._Workspace(st)
    t = st.grid.nodes
    u0 = GridFunction(0.5 * np.sin(np.pi * t) ** 2, dirichlet=True).values
    known = [GridFunction(0.1 * np.sin(2 * np.pi * t), dirichlet=True).values][:n_known]
    u, g, du, nfev = solvers._polish_root(ws, u0, tol=0.0, known=known)
    assert nfev > 1 and not np.array_equal(u, u0)
    g_ref, du_ref = _gradient_and_du(st, u)
    assert np.array_equal(g, g_ref) and np.array_equal(du, du_ref)


def _deflation_setup(n_known):
    st = make_state(0.6, 2.0, 64, sublinear_power(1.5))
    t = st.grid.nodes
    x0 = (0.3 * np.sin(np.pi * t) + 0.1 * np.sin(2 * np.pi * t))[1:-1]
    known = []
    for j, c in ((2, 0.2), (3, 0.1))[:n_known]:
        uk = c * np.sin(j * np.pi * t)
        uk[0] = uk[-1] = 0.0
        known.append(uk)
    return st, solvers._Workspace(st), x0, known


@pytest.mark.parametrize("n_known", [1, 2])
def test_deflated_step_matches_explicit_jacobian(n_known, monkeypatch):
    st, ws, x0, known = _deflation_setup(n_known)
    u0 = np.zeros(st.grid.n + 1)
    u0[1:-1] = x0
    g = _gradient_and_du(st, u0)[0][1:-1]
    H = dense_hessian(st, x0)
    log_m, dlog_m = ws.log_deflation(u0, known)
    m = np.exp(log_m)
    # Newton step of the deflated field M g with its full Jacobian
    ref = np.linalg.solve(m * H + np.outer(g, m * dlog_m[1:-1]), m * g)
    evaluated = []
    monkeypatch.setattr(
        solvers, "_gradient_and_du", lambda st, u: evaluated.append(u) or _gradient_and_du(st, u)
    )
    solvers._polish_root(ws, u0, tol=0.0, known=known)
    step = (u0 - evaluated[1])[1:-1]  # the first trial is the full step
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_known", [0, 1, 2])
def test_log_deflation_value_and_gradient(n_known):
    st, ws, x0, known = _deflation_setup(n_known)
    u = np.zeros(st.grid.n + 1)
    u[1:-1] = x0
    log_m, dlog_m = ws.log_deflation(u, known)
    m = 1.0
    for uk in known:
        for v in (u - uk, u + uk):
            m *= 1.0 + alpha_norm(st.ops, GridFunction(v, dirichlet=True), 2.0) ** -2.0
    assert log_m == pytest.approx(np.log(m), rel=1e-13, abs=0.0)  # exactly 0 without pairs
    eps = 1e-6
    fd = np.empty_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(u)
        e[i + 1] = eps
        up, down = ws.log_deflation(u + e, known), ws.log_deflation(u - e, known)
        fd[i] = (up[0] - down[0]) / (2 * eps)
    assert np.max(np.abs(fd - dlog_m[1:-1])) <= 1e-6 * np.max(np.abs(dlog_m[1:-1]))


def test_multiplicity_pairs_independent_of_seed():
    st = make_state(0.7, 3.0, 256, sublinear_power(2.0))
    runs = [
        sorted(r.energy_value for r in multiplicity_search(st, k=3, tol=1e-8, seed=s).pairs)
        for s in (0, 7, 42, 9001)
    ]
    assert len(runs[0]) == 3
    for energies in runs[1:]:
        assert energies == pytest.approx(runs[0], rel=1e-9)


def test_multiplicity_pairs_survive_perturbed_polish_starts(monkeypatch):
    # a run-away deflated stage used to hand the plain Newton stage a start
    # from which rounding decided the pair it landed on
    st = make_state(0.7, 3.0, 256, sublinear_power(2.0))
    ref = sorted(r.energy_value for r in multiplicity_search(st, k=3, tol=1e-8, seed=0).pairs)
    polish = solvers._polish_root
    for draw in range(4):
        rng = np.random.default_rng(draw)
        # the caller's start gradient belongs to the unperturbed point, so
        # the stub drops it and the polish takes the perturbed one
        monkeypatch.setattr(
            solvers,
            "_polish_root",
            lambda ws, u0, *, tol, known=(), start=None: polish(
                ws, u0 * (1.0 + 1e-15 * rng.standard_normal(len(u0))), tol=tol, known=known
            ),
        )
        m = multiplicity_search(st, k=3, tol=1e-8, seed=0)
        assert sorted(r.energy_value for r in m.pairs) == pytest.approx(ref, rel=1e-9)


def test_multiplicity_plain_stage_restarts_after_runaway(monkeypatch):
    # at this state one deflated stage ends with max|g| 2.5e3 from a start
    # at 0.18; the plain stage must then start from the deflated stage's start
    st = make_state(0.7, 3.0, 256, sublinear_power(2.0))
    polish = solvers._polish_root
    calls = []

    def spy(ws, u0, *, tol, known=(), start=None):
        out = polish(ws, u0, tol=tol, known=known, start=start)
        calls.append((u0, out[0], len(known)))
        return out

    monkeypatch.setattr(solvers, "_polish_root", spy)
    multiplicity_search(st, k=3, tol=1e-8, seed=0)

    def max_g(u):
        return np.max(np.abs(_gradient_and_du(st, u)[0]))

    stages = list(zip(calls[::2], calls[1::2]))
    assert stages and all(d[2] > 0 and p[2] == 0 for d, p in stages)
    assert any(max_g(d[1]) >= max_g(d[0]) for d, _ in stages)  # a run-away happens
    for deflated, plain in stages:
        ran_away = max_g(deflated[1]) >= max_g(deflated[0])
        assert np.array_equal(plain[0], deflated[0] if ran_away else deflated[1])


def test_mountain_pass_polishes_top_state_when_sweep_step_fails(monkeypatch):
    # a NaN trial used to be written into the path, which then raised the
    # collapse GeometryError; the failed step now hands its ray maximum to
    # the Newton polish
    st = make_state(0.7, 2.0, 64, superlinear_power(4.0))
    nan = lambda st, u, E, d, slope, ray: (np.full_like(u, np.nan), np.nan, np.full_like(u, np.nan))
    monkeypatch.setattr(solvers, "_armijo_step", nan)
    rep = mountain_pass(st, tol=1e-8, seed=0)
    assert rep.converged and rep.residual <= 1e-8 and not rep.trivial
    assert rep.endpoint_energy < 0.0 < rep.rim_value <= rep.energy_value
    assert rep.energy_value == pytest.approx(1.9721865433488235, rel=1e-12)


# (alpha, p, mu) of the proven-rim checks, all at n 1024; below alpha = 1/p
# C_n grows with n and the rim is small but positive
RIM_CASES = [
    (0.7, 2.0, 4.0), (0.9, 3.0, 6.0), (1.0, 1.5, 3.0), (0.3, 2.0, 4.0), (0.3, 1.5, 2.25),
    (0.7, 1.5, 1.8),  # mu < 2: 2 F / s^2 is unbounded near 0, max F is not
]


def sup_constant(st):
    """C_n = h^(-1/p) ||(iota_0 .. iota_{n-2})||_p' for the I^alpha weights
    iota, the constant _rim_value reads off fracops.embedding_constants."""
    return fracops.embedding_constants(st.ops, st.params.p)[0]


def best_rim(st, mu):
    """The best radius rho* and the value beta* of the lower bound
    rho^p / p - T (C_n rho)^mu / mu of the SUPERLINEAR_POWER energy on the
    sphere ||w||_alpha = rho."""
    p = st.params.p
    rho = (st.grid.T * sup_constant(st) ** mu) ** (-1.0 / (mu - p))
    return rho, (1.0 / p - 1.0 / mu) * rho**p


@pytest.mark.parametrize("alpha, p, mu", RIM_CASES)
def test_rim_value_meets_closed_form(alpha, p, mu):
    # the sampled rim was 0.0050 against beta* 0.118 at (0.7, 2, 4)
    st = make_state(alpha, p, 1024, superlinear_power(mu))
    rho, beta = best_rim(st, mu)
    rim, radius = solvers._rim_value(solvers._Workspace(st))
    assert 0.95 * beta <= rim <= beta
    # the ladder's radius lies within one rung, 2^(1/8), of the best one
    assert 2.0 ** -0.125 <= radius / rho <= 2.0**0.125


def test_rim_value_is_pinned_at_the_workload_config():
    # the mountain-pass workload's rim, bit for bit
    st = make_state(0.7, 2.0, 1024, superlinear_power(4.0))
    assert solvers._rim_value(solvers._Workspace(st)) == (0.11764865382935369, 0.6966328356162286)


def sphere_blocks(n, rng):
    """10^4 pinned directions in blocks of at most 1000 rows: the n - 1
    single-node spikes, then smooth rows (cumulative sums of white noise)
    and rough rows (white noise) in turn."""
    yield np.eye(n + 1)[1:n]
    rows = 10_000 - (n - 1)
    for start in range(0, rows, 1000):
        W = rng.standard_normal((min(1000, rows - start), n + 1))
        if start % 2000 == 0:
            W = np.cumsum(W, axis=1)
        W[:, 0] = W[:, -1] = 0.0
        yield W


@pytest.mark.parametrize("alpha, p, mu", RIM_CASES)
def test_no_direction_on_the_sphere_falls_below_the_rim(alpha, p, mu):
    n = 1024
    st = make_state(alpha, p, n, superlinear_power(mu))
    rim, _ = solvers._rim_value(solvers._Workspace(st))
    rho, _ = best_rim(st, mu)
    count, lowest = 0, np.inf
    for W in sphere_blocks(n, np.random.default_rng(0)):
        DW = _rows(st.ops.left_deriv, W)
        scale = rho / np.array(_lp_rows(DW, p, st.ops.deriv_quad_weights))[:, None]
        lowest = min(lowest, float(np.min(_energy_rows(st, scale * W, scale * DW))))
        count += len(W)
    assert count == 10_000
    assert lowest >= rim > 0.0


@pytest.mark.parametrize("alpha, p, mu", RIM_CASES)
def test_sup_constant_is_attained(alpha, p, mu):
    # the Hoelder-extremal y_k = sign(iota_{n-1-k}) |iota_{n-1-k}|^(p'-1),
    # k = 1..n-1, gives w = I^alpha y with |w_{n-1}| = C_n ||w||_alpha, so
    # C_n is sharp and not only valid; w_n is left free
    n = 1024
    st = make_state(alpha, p, n, superlinear_power(mu))
    iota = st.ops.left_int.col[n - 2 :: -1]
    y = np.zeros(n + 1)
    y[1:n] = np.sign(iota) * np.abs(iota) ** (1.0 / (p - 1.0))
    w = st.ops.left_int @ y
    norm = _alpha_rows(st.ops, w, p)[0]
    assert abs(w[n - 1]) == pytest.approx(sup_constant(st) * norm, rel=1e-12, abs=0.0)


def cubic_table(bound, count, slope=0.0):
    """f = slope u + u^3 on count breakpoints of [-bound, bound]."""
    u = np.linspace(-bound, bound, count)
    return table_spec(u, slope * u + u**3)


def linear_metric(st):
    """The dense interior block of D^T diag(wd) D: ||w||_alpha^2 at p = 2."""
    n = st.grid.n
    D = dense(st.ops.left_deriv)
    return ((D.T * st.ops.deriv_quad_weights) @ D)[1:n, 1:n]


def first_eigenvalue(st, qa):
    """min ||w||_alpha^2 / sum_i qa_i w_i^2 over pinned w at p = 2, dense."""
    n = st.grid.n
    s = np.sqrt(qa[1:n])
    return 1.0 / np.linalg.eigvalsh(s[:, None] * np.linalg.inv(linear_metric(st)) * s).max()


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_linear_metric_is_a_z_matrix(alpha):
    # eigen_bound's proof rests on this: off the diagonal the metric is <= 0
    st = make_state(alpha, 2.0, 256, superlinear_power(4.0))
    H = linear_metric(st)
    assert np.all(H[~np.eye(len(H), dtype=bool)] <= 0.0)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("weight", ["one", "abs_sine", "half_sine"])
def test_eigen_bound_is_a_sharp_lower_bound(alpha, weight):
    # node weights quad |a| for a = 1, |sin 4 pi t| (zero at four nodes)
    # and sin^2 4 pi t on the first half only
    st = make_state(alpha, 2.0, 128, superlinear_power(4.0))
    t = st.grid.nodes
    a = {"one": np.ones_like(t), "abs_sine": np.abs(np.sin(4 * np.pi * t)),
         "half_sine": np.sin(4 * np.pi * t) ** 2 * (t < 0.5)}[weight]
    qa = st._quad * a
    lam, exact = solvers._Workspace(st).eigen_bound(qa), first_eigenvalue(st, qa)
    assert 0.98 * exact <= lam <= exact * (1.0 + 1e-12)


# tables linear near 0 at p = 2, whose sup-norm bound proves no rim; the
# energies are those the sampled rim converged to
TABLE_RIMS = [
    (0.7, cubic_table(50.0, 101), 1.448774092045222, 6),  # slope 1 on [-1, 1]
    (0.9, cubic_table(50.0, 51), 3.973342614203159, 4),  # slope 4 on [-2, 2]
    (0.7, cubic_table(10.0, 2001, 1.0), 1.0174131701029885, 5),  # f = u + u^3
]


@pytest.mark.parametrize("alpha, spec, energy, iterations", TABLE_RIMS)
def test_mountain_pass_proves_the_rim_of_a_table_linear_near_0(alpha, spec, energy, iterations):
    st = make_state(alpha, 2.0, 256, spec)
    # the sup-norm bound alone proves no rim here
    r = 2.0 ** np.arange(-100.0, 20.125, 0.125)
    k = spec.quadratic_bound(st.grid.nodes, r)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.max((r / sup_constant(st)) ** 2 / 2.0 - k * r * r * np.sum(st._quad) / 2.0) > 0.0
    rep = mountain_pass(st, tol=1e-8)
    assert rep.converged and rep.iterations == iterations
    assert rep.energy_value == pytest.approx(energy, rel=1e-12, abs=0.0)
    assert 0.0 < rep.rim_value <= rep.energy_value


def test_no_direction_on_the_sphere_falls_below_a_table_rim():
    # the rim of f = u + u^3 at p = 2 from the eigenvalue bound; its radius
    # is the ladder's best for that bound
    n = 256
    st = make_state(0.7, 2.0, n, cubic_table(10.0, 2001, 1.0))
    ws = solvers._Workspace(st)
    rim, radius = solvers._rim_value(ws)
    r = 2.0 ** np.arange(-100.0, 20.125, 0.125)
    lam = ws.eigen_bound(st._quad)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (r / sup_constant(st)) ** 2 / 2.0 * (1.0 - st.spec.quadratic_bound(0.0, r)[1] / lam)
    assert rim == np.max(bound) > 0.0
    rho = r[np.argmax(bound)] / sup_constant(st)
    assert radius == pytest.approx(rho, rel=1e-14, abs=0.0)
    # the pencil's first eigenvector, the worst direction near 0, first
    H = linear_metric(st)
    s = np.sqrt(st._quad[1:n])
    v = np.zeros(n + 1)
    v[1:n] = np.linalg.solve(H, s * np.linalg.eigh(s[:, None] * np.linalg.inv(H) * s)[1][:, -1])
    lowest = np.inf
    for W in [v[None, :], *sphere_blocks(n, np.random.default_rng(1))]:
        DW = _rows(st.ops.left_deriv, W)
        scale = rho / np.array(_lp_rows(DW, 2.0, st.ops.deriv_quad_weights))[:, None]
        lowest = min(lowest, float(np.min(_energy_rows(st, scale * W, scale * DW))))
    assert lowest >= rim


def test_rim_value_overflows_quietly():
    # r^mu overflows at the ladder's top radii, where a RuntimeWarning
    # would fail the suite; the best radius lies far below them
    st = make_state(0.7, 10.0, 128, superlinear_power(60.0))
    assert 0.0 < solvers._rim_value(solvers._Workspace(st))[0] < np.inf


def test_mountain_pass_without_positive_rim_is_geometry_error():
    # f = 100 u outgrows the p = 2 energy's quadratic part on every sphere
    st = make_state(0.6, 2.0, 64, table_spec([-10.0, 10.0], [-1000.0, 1000.0]))
    with pytest.raises(solvers.GeometryError, match="no positive rim"):
        mountain_pass(st)


def test_mountain_pass_does_not_depend_on_seed():
    st = make_state(0.7, 2.0, 256, superlinear_power(4.0))
    a = mountain_pass(st, tol=1e-8, seed=0)
    b = mountain_pass(st, tol=1e-8, seed=3)
    assert np.array_equal(a.solution.values, b.solution.values)
    assert (a.energy_value, a.rim_value) == (b.energy_value, b.rim_value)
    assert (a.seed, b.seed) == (0, 3)
