import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplap import (
    FracParams,
    GridFunction,
    OpKind,
    alpha_norm,
    apply,
    build_operators,
    gamma,
    gl_weights,
    lp_norm,
    make_grid,
)
from conftest import dense
from fracplap.fracops import MAX_GRID_CELLS, embedding_constants
from fracplap.grid import _lp_rows


def _ops(alpha, n, T=1.0, p=2.0):
    grid = make_grid(T, n)
    return grid, build_operators(FracParams(alpha=alpha, p=p, T=T), grid)


# ----------------------------------------------------------------- gamma ---


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_half_integers():
    # sqrt(pi) and sqrt(pi)/2, cross-checked against the mpmath oracle
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
    mpmath.mp.dps = 30
    for x in (0.5, 1.5):
        assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-13)


def test_gamma_against_high_precision_oracle():
    mpmath.mp.dps = 30
    for x in np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(1.1, 29.9, 50)]):
        ref = float(mpmath.gamma(x))
        assert abs(gamma(float(x)) - ref) <= 1e-12 * abs(ref)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.05, 25.0, allow_nan=False))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(ValueError):
            gamma(x)


# --------------------------------------------------------------- weights ---


def test_gl_weights_half():
    w = gl_weights(0.5, 4)
    assert w[0] == 1.0
    assert w[1] == -0.5
    assert w[2] == -0.125


def test_gl_weights_classical_limit():
    # binomial(1, k) vanishes for k >= 2: backward difference
    w = gl_weights(1.0, 6)
    assert w[0] == 1.0 and w[1] == -1.0
    assert np.all(w[2:] == 0.0)


def test_gl_weights_integral_signs():
    # (1-z)^(-a) has nonnegative, decreasing coefficients
    g = gl_weights(-0.6, 50)
    assert np.all(g > 0.0)
    assert np.all(np.diff(g[1:]) <= 0.0)


@pytest.mark.parametrize("m", [1024, 4096, 8192])
@pytest.mark.parametrize("order", [0.6, -0.6, 0.7, -0.7, 1.0, -1.0, -1.2, 0.1])
def test_gl_weights_bitwise_equal_to_array_recurrence(order, m):
    # the running product of the ratios, one array entry at a time: the
    # artifact bytes rest on these bits
    ref = np.empty(m + 1)
    ref[0] = 1.0
    for k in range(1, m + 1):
        ratio = (k - 1.0 - order) / k if k <= 2 else 1.0 - (1.0 + order) / k
        ref[k] = ref[k - 1] * ratio
    assert gl_weights(order, m).tobytes() == ref.tobytes()


@functools.cache
def _mp_weights(order):
    """w_k of (1-z)^order, k = 0..8192, as float pairs hi + lo from a
    40-digit mpmath recurrence."""
    mpmath.mp.dps = 40
    o, x = mpmath.mpf(order), mpmath.mpf(1)
    hi, lo = [1.0], [0.0]
    for k in range(1, 8193):
        x = x * (k - 1 - o) / k
        hi.append(float(x))
        lo.append(float(x - hi[-1]))
    return np.array(hi), np.array(lo)


@pytest.mark.parametrize("m", [1024, 4096, 8192])
@pytest.mark.parametrize("order", [0.001, -0.001, 0.1, -0.1, 0.6, -0.6, 0.999, -0.999, -1.2, -2.0])
def test_gl_weights_match_mpmath(order, m):
    # the textbook loop w_{k-1} (k-1-order)/k reaches 2.8e-13 at m = 8192
    hi, lo = (a[: m + 1] for a in _mp_weights(order))
    rel = np.abs((gl_weights(order, m) - hi) - lo) / np.abs(hi)
    assert np.max(rel) <= 3e-14


def test_gl_weights_exact_cases():
    m = 8192
    assert np.array_equal(gl_weights(1.0, m), np.r_[1.0, -1.0, np.zeros(m - 1)])
    assert np.array_equal(gl_weights(-1.0, m), np.ones(m + 1))
    assert np.array_equal(gl_weights(0.5, 4), [1.0, -0.5, -0.125, -0.0625, -0.0390625])
    assert np.array_equal(gl_weights(0.3, 0), [1.0])


@pytest.mark.parametrize("alpha", [0.001, 0.1, 0.3, 0.6, 0.9, 0.999, 1.0])
def test_gl_weights_convolve_to_delta(alpha):
    # (1-z)^a (1-z)^(-a) = 1: summed exactly, each coefficient of the
    # product is within a few ulp of the size of its terms
    m = 1024
    wd, wi = gl_weights(alpha, m), gl_weights(-alpha, m)
    eps = np.finfo(float).eps
    for k in range(m + 1):
        terms = wd[: k + 1] * wi[k::-1]
        gap = math.fsum(terms.tolist()) - (k == 0)
        assert abs(gap) <= 8 * eps * np.sum(np.abs(terms)), k


# ------------------------------------------------------------- operators ---


def test_operator_shapes_and_triangularity():
    grid, ops = _ops(0.5, 16)
    n1 = grid.n + 1
    for m, lower in ((ops.left_deriv, True), (ops.left_int, True), (ops.right_deriv, False), (ops.right_int, False)):
        assert m.shape == (n1, n1)
        M = dense(m)
        assert np.array_equal(M, np.tril(M) if lower else np.triu(M))


def test_operator_cap():
    grid = make_grid(1.0, MAX_GRID_CELLS + 1)
    with pytest.raises(ValueError):
        build_operators(FracParams(alpha=0.5, p=2.0, T=1.0), grid)


def test_derivative_of_constant():
    # c -> c t^(-alpha)/Gamma(1-alpha) away from the boundary layer
    alpha = 0.5
    grid, ops = _ops(alpha, 512)
    du = (ops.left_deriv @ np.ones(grid.n + 1))[1:]
    exact = grid.nodes[1:] ** (-alpha) / gamma(1.0 - alpha)
    region = grid.nodes[1:] >= 0.1
    rel = np.abs(du - exact) / np.abs(exact)
    assert np.max(rel[region]) < 2e-2


def test_adjointness_exact():
    grid, ops = _ops(0.62, 64)
    rng = np.random.default_rng(0)
    h = grid.h
    for _ in range(20):
        u = GridFunction(rng.standard_normal(65), dirichlet=True)
        v = GridFunction(rng.standard_normal(65), dirichlet=True)
        lhs = np.sum(h * (ops.left_deriv @ u.values) * v.values)
        rhs = np.sum(h * u.values * (ops.right_deriv @ v.values))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_left_int_order_one_is_integration():
    grid, ops = _ops(1.0, 32)
    iu = apply(ops, OpKind.LEFT_INT, GridFunction(np.ones(33))).values
    # left-rectangle style sum: matches t to within one cell
    assert np.max(np.abs(iu - grid.nodes)) <= grid.h + 1e-14


def _rl_integral_oracle(u, alpha, t, pieces=20000):
    """Dense quadrature of the defining convolution
    (1/Gamma(a)) int_0^t (t-s)^(a-1) u(s) ds, with the kernel singularity
    removed by substituting y = (t-s)^a."""
    if t == 0.0:
        return 0.0
    y = np.linspace(0.0, t**alpha, pieces)
    vals = u(t - y ** (1.0 / alpha))
    return np.trapezoid(vals, y) / (alpha * gamma(alpha))


def test_half_integral_of_linear():
    # Gamma-ratio closed form Gamma(2)/Gamma(2.5) t^{3/2}
    alpha = 0.5
    grid, ops = _ops(alpha, 1024)
    iu = apply(ops, OpKind.LEFT_INT, GridFunction(grid.nodes.copy())).values
    coef = gamma(2.0) / gamma(2.5)
    assert coef == pytest.approx(0.7522527780636751, rel=1e-12)
    exact = coef * grid.nodes**1.5
    # the closed form itself agrees with the convolution quadrature oracle
    for t in (0.25, 0.5, 1.0):
        assert _rl_integral_oracle(lambda s: s, alpha, t) == pytest.approx(
            coef * t**1.5, rel=1e-6
        )
    sl = grid.nodes >= 0.1
    rel = np.abs(iu[sl] - exact[sl]) / np.abs(exact[sl])
    assert np.max(rel) <= 1e-2


def test_half_derivative_of_linear():
    alpha = 0.5
    grid, ops = _ops(alpha, 1024)
    du = apply(ops, OpKind.LEFT_DERIV, GridFunction(grid.nodes.copy())).values
    coef = gamma(2.0) / gamma(1.5)
    assert coef == pytest.approx(1.1283791670955126, rel=1e-12)
    exact = coef * grid.nodes**0.5
    sl = grid.nodes >= 0.1
    rel = np.abs(du[sl] - exact[sl]) / np.abs(exact[sl])
    assert np.max(rel) <= 2e-2


def test_semigroup_exact():
    # I^a I^a = I^{2a} holds exactly: the weights multiply as symbols
    grid, ops = _ops(0.35, 64)
    wi = gl_weights(-0.7, grid.n) * grid.h**0.7
    rng = np.random.default_rng(3)
    u = rng.standard_normal(65)
    composed = ops.left_int @ (ops.left_int @ u)
    direct = np.array([np.dot(wi[: i + 1][::-1], u[: i + 1]) for i in range(65)])
    assert np.max(np.abs(composed - direct)) <= 1e-13 * np.max(np.abs(u))


def test_left_inverse_exact():
    grid, ops = _ops(0.45, 64)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(65)
    back = ops.left_deriv @ (ops.left_int @ u)
    assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))


def test_caputo_relation_with_boundary_value():
    alpha = 0.6
    grid, ops = _ops(alpha, 64)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(65)
    v[0] = 2.0
    u = GridFunction(v)
    cap = apply(ops, OpKind.CAPUTO_LEFT, u).values
    rl = apply(ops, OpKind.LEFT_DERIV, u).values
    corr = v[0] * grid.nodes[1:] ** (-alpha) / gamma(1.0 - alpha)
    assert np.max(np.abs(cap[1:] + corr - rl[1:])) <= 1e-12 * np.max(np.abs(rl))
    # node 0 carries the raw value
    assert cap[0] == rl[0]


def test_caputo_equals_rl_for_dirichlet():
    grid, ops = _ops(0.4, 32)
    u = GridFunction(np.sin(np.pi * grid.nodes), dirichlet=True)
    cap = apply(ops, OpKind.CAPUTO_LEFT, u).values
    rl = apply(ops, OpKind.LEFT_DERIV, u).values
    assert np.array_equal(cap[1:], rl[1:])


def test_apply_grid_mismatch():
    _, ops = _ops(0.5, 16)
    with pytest.raises(ValueError):
        apply(ops, OpKind.LEFT_INT, GridFunction(np.ones(9)))


def test_alpha_norm_zero_and_gate():
    grid, ops = _ops(0.5, 32)
    assert alpha_norm(ops, GridFunction(np.zeros(33), dirichlet=True), 2.0) == 0.0
    with pytest.raises(ValueError):
        alpha_norm(ops, GridFunction(np.ones(33)), 2.0)


def test_alpha_norm_classical_value():
    # ||d/dt sin(pi t)||_L2 = pi/sqrt(2)
    grid, ops = _ops(1.0, 512)
    u = GridFunction(np.sin(np.pi * grid.nodes), dirichlet=True)
    assert alpha_norm(ops, u, 2.0) == pytest.approx(np.pi / np.sqrt(2.0), abs=1e-2)


def test_alpha_norm_homogeneity():
    grid, ops = _ops(0.7, 64)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(65)
    a1 = alpha_norm(ops, GridFunction(2.0 * u, dirichlet=True), 2.5)
    a2 = 2.0 * alpha_norm(ops, GridFunction(u, dirichlet=True), 2.5)
    assert abs(a1 - a2) <= 1e-12 * a2


def test_young_type_bound_sampled():
    # ||I^a u||_p <= (T^a/Gamma(a+1)) ||u||_p (1 + 0.05) at n = 256
    for alpha, p in ((0.3, 2.0), (0.6, 1.5), (0.8, 3.0)):
        grid, ops = _ops(alpha, 256, p=p)
        bound = 1.0**alpha / gamma(alpha + 1.0)
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = rng.standard_normal(257)
            lhs = lp_norm(ops.left_int @ u, p, grid)
            assert lhs <= bound * lp_norm(u, p, grid) * 1.05


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9, 1.0])
@pytest.mark.parametrize("p, n, T", [(1.2, 16, 1.0), (2.0, 256, 10.0), (130.0, 1024, 1.0)])
def test_embedding_constants_closed_forms(alpha, p, n, T):
    # K_n = h^a Gamma(n-1+a) / (Gamma(a+1) Gamma(n-1)) by the hockey-stick
    # sum of the I^a weights, below T^a / Gamma(a+1) by Gautschi's
    # inequality; C_n against the plain p'-power sum, and at a = 1, where
    # every weight is h, against ((n-1) h)^(1/p')
    grid, ops = _ops(alpha, n, T=T, p=p)
    C_n, K_n = embedding_constants(ops, p)
    with mpmath.workdps(30):
        h = mpmath.mpf(T) / n
        ref = h**alpha * mpmath.gamma(n - 1 + alpha) / (mpmath.gamma(alpha + 1) * mpmath.gamma(n - 1))
    assert K_n == pytest.approx(float(ref), rel=1e-12)
    assert K_n < T**alpha / gamma(alpha + 1.0)
    q = p / (p - 1.0)
    iota = ops.left_int.col[: n - 1]
    assert C_n == pytest.approx((grid.h ** (1.0 - q) * np.sum(iota**q)) ** (1.0 / q), rel=1e-12)
    if alpha == 1.0:
        assert C_n == pytest.approx(((n - 1) * grid.h) ** (1.0 / q), rel=1e-12)


@pytest.mark.parametrize("alpha, n", [(1.0, 64), (0.6, 64), (0.1, 16)])
@pytest.mark.parametrize("p", [1.2, 2.0, 130.0])
def test_lq_embedding_constants(alpha, p, n):
    # K_q = h^(1/q - 1/p) ||iota||_r against mpmath on the closed-form
    # weights h^a Gamma(k + a) / (Gamma(a) Gamma(k + 1)), all h at a = 1;
    # the rung q = p is K_n and the rung q = inf is C_n
    grid, ops = _ops(alpha, n, p=p)
    qs = [p * 1.01, 1.5 * p, 4.0 * p]
    C_n, K_n, *K = embedding_constants(ops, p, qs + [p, math.inf])
    with mpmath.workdps(30):
        h = mpmath.mpf(1) / n
        iota = [h**alpha * mpmath.gamma(k + alpha) * mpmath.rgamma(alpha) * mpmath.rgamma(k + 1)
                for k in range(n - 1)]
        for q, Kq in zip(qs, K):
            r = 1 / (1 + mpmath.mpf(1) / q - mpmath.mpf(1) / p)
            ref = h ** (mpmath.mpf(1) / q - mpmath.mpf(1) / p) * mpmath.fsum(x**r for x in iota) ** (1 / r)
            assert Kq == pytest.approx(float(ref), rel=1e-12), q
    assert K[-2] == pytest.approx(K_n, rel=1e-14) and K[-1] == pytest.approx(C_n, rel=1e-14)


def test_refinement_halves_power_rule_error():
    alpha = 0.5
    errs = []
    for n in (512, 1024):
        grid, ops = _ops(alpha, n)
        du = apply(ops, OpKind.LEFT_DERIV, GridFunction(grid.nodes.copy())).values
        exact = grid.nodes**0.5 / gamma(1.5)
        sl = grid.nodes >= 0.1
        errs.append(np.max(np.abs(du[sl] - exact[sl]) / exact[sl]))
    assert errs[1] <= 0.6 * errs[0]


def test_holder_continuity_spot_check():
    # boundedness sanity for the integral image when alpha > 1/p: increments
    # scale no worse than |t-s|^(alpha-1/p) and the image vanishes at 0.
    # (A certified Hoelder seminorm from nodal data is ill-posed; this is a
    # spot check only.)
    alpha, p = 0.75, 2.0
    grid, ops = _ops(alpha, 512, p=p)
    rng = np.random.default_rng(0)
    expo = alpha - 1.0 / p
    for _ in range(20):
        u = rng.standard_normal(513)
        iu = ops.left_int @ u
        nrm = lp_norm(u, p, grid)
        for i, j in ((0, 1), (1, 40), (100, 140), (256, 500)):
            gap = abs(iu[j] - iu[i])
            assert gap <= 1.0 * (grid.nodes[j] - grid.nodes[i]) ** expo * nrm
        # the discrete image at the origin is h^alpha u_0, vanishing under
        # refinement; nearby values scale with t^(alpha - 1/p)
        assert abs(iu[0]) <= grid.h**alpha * abs(u[0]) * (1.0 + 1e-12)
        assert abs(iu[1]) <= grid.nodes[1] ** expo * nrm


def test_caputo_right_relation():
    alpha = 0.55
    grid, ops = _ops(alpha, 64)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(65)
    v[-1] = 1.3
    u = GridFunction(v)
    cap = apply(ops, OpKind.CAPUTO_RIGHT, u).values
    rl = apply(ops, OpKind.RIGHT_DERIV, u).values
    corr = v[-1] * (grid.nodes[-1] - grid.nodes[:-1]) ** (-alpha) / gamma(1.0 - alpha)
    assert np.max(np.abs(cap[:-1] + corr - rl[:-1])) <= 1e-12 * np.max(np.abs(rl))
    assert cap[-1] == rl[-1]  # singular endpoint keeps the raw value


# -------------------------------------------------------------- Toeplitz ---


@pytest.mark.parametrize("m", [2, 3, 64, 1025, 4097])
def test_toeplitz_products_match_dense(m):
    from scipy.linalg import toeplitz

    from fracplap.fracops import Toeplitz

    rng = np.random.default_rng(m)
    col = rng.standard_normal(m)
    lower = toeplitz(col, np.zeros(m))
    A = Toeplitz(col)
    assert A.shape == (m, m) and A.T.shape == (m, m)
    x = rng.standard_normal(m)
    X = rng.standard_normal((m, 3))
    for op, ref in ((A, lower), (A.T, lower.T)):
        scale = np.max(np.abs(ref @ X)) + 1.0
        assert np.max(np.abs(op @ x - ref @ x)) <= 1e-13 * scale
        assert np.max(np.abs(op @ X - ref @ X)) <= 1e-13 * scale
        assert np.array_equal(dense(op), ref)


@pytest.mark.parametrize("n, nfft", [(1024, 2048), (1080, 2160)])
def test_toeplitz_columns_bitwise_equal_vector_products(n, nfft):
    # batched callers rely on each column of op @ X being exactly the
    # product with that column alone, whatever the memory layout of X
    _, ops = _ops(0.6, n)
    assert ops.left_int._nfft == nfft
    block = np.random.default_rng(n).standard_normal((6, n + 1))
    layouts = {
        "C": np.ascontiguousarray(block.T),
        "F": np.asfortranarray(block.T),
        "block.T": block.T,
        "strided rows": block[1::2].T,
    }
    for op in (ops.left_deriv, ops.right_deriv, ops.left_int, ops.right_int):
        for name, X in layouts.items():
            Y = op @ X
            for i in range(X.shape[1]):
                assert np.array_equal(Y[:, i], op @ X[:, i]), (op.upper, name, i)
                assert np.array_equal(Y[:, i], op @ np.ascontiguousarray(X[:, i]))


@pytest.mark.parametrize("n", [64, 1024, 1080])
@pytest.mark.parametrize("k", [-40, 3, 40])
def test_toeplitz_products_commute_with_power_of_two_scaling(k, n):
    # the solvers scale D images by powers of two instead of taking a
    # product again; the wrapped term's fold keeps that exact
    _, ops = _ops(0.6, n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n + 1)
    X = rng.standard_normal((n + 1, 3))
    for op in (ops.left_deriv, ops.right_deriv, ops.left_int, ops.right_int):
        assert np.array_equal(op @ (2.0**k * x), 2.0**k * (op @ x))
        assert np.array_equal(op @ (2.0**k * X), 2.0**k * (op @ X))


@pytest.mark.parametrize("n", [64, 1024, 1080])
def test_toeplitz_products_are_odd(n):
    # EVEN_ENERGY takes no product, as D(-u) = -(D u) here bit for bit:
    # every step of the FFT product and the wrapped term's fold is
    # sign-symmetric
    _, ops = _ops(0.6, n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n + 1)
    X = rng.standard_normal((n + 1, 3))
    for op in (ops.left_deriv, ops.right_deriv, ops.left_int, ops.right_int):
        assert np.array_equal(op @ -x, -(op @ x))
        assert np.array_equal(op @ -X, -(op @ X))


def test_interior_blocks_are_inverse():
    # L^{-1} is the interior block of the left integral, to roundoff
    from fracplap.fracops import Toeplitz

    for alpha in (0.3, 0.6, 1.0):
        grid, ops = _ops(alpha, 256)
        n = grid.n
        L = Toeplitz(ops.left_deriv.col[: n - 1])
        Li = Toeplitz(ops.left_int.col[: n - 1])
        assert np.max(np.abs(L @ dense(Li) - np.eye(n - 1))) <= 1e-13


def test_fast_len_matches_scipy():
    # every target an operator build can request: 2m - 2 for a column of
    # m = n + 1 <= MAX_GRID_CELLS + 1 nodes
    from scipy.fft import next_fast_len

    from fracplap.fracops import _fast_len

    for target in range(1, 2 * MAX_GRID_CELLS + 2):
        assert _fast_len(target) == next_fast_len(target, real=True), target


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 2.5, 3.0, 5.0])
def test_lp_rows_take_scalar_roots(p):
    # an array power differs from the scalar one in the last bit for about
    # one value in a hundred here, so every row's root must be the scalar
    # power of its own sum, as the one-vector norms take it
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((400, 17)) * rng.uniform(0.1, 10.0, (400, 1))
    w = rng.uniform(0.5, 1.5, 17)
    ref = []
    for r in rows:
        top = float(np.max(np.abs(r)))
        ref.append(float(np.sum(w * (np.abs(r) / top) ** p) ** (1.0 / p)) * top)
    assert _lp_rows(rows, p, w) == ref
    assert [_lp_rows(r, p, w)[0] for r in rows] == ref
