import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplap import FracParams, GridFunction, lp_norm, make_grid, sup_norm
from fracplap.grid import _lp_rows, sine_series


def test_make_grid_basic():
    g = make_grid(1.0, 4)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.h == 0.25
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_make_grid_h():
    assert make_grid(2.0, 2).h == 1.0


def test_make_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        make_grid(1.0, 1)
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(-1.0, 4)


def test_params_invariants():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    assert abs(1.0 / params.p + 1.0 / params.q_conj - 1.0) < 1e-15
    params = FracParams(alpha=0.3, p=1.5, T=2.0)
    assert abs(1.0 / params.p + 1.0 / params.q_conj - 1.0) < 1e-15
    for bad in (dict(alpha=0.0), dict(alpha=1.2), dict(p=1.0), dict(T=0.0)):
        kw = dict(alpha=0.5, p=2.0, T=1.0)
        kw.update(bad)
        with pytest.raises(ValueError):
            FracParams(**kw)


def test_dirichlet_pins_endpoints():
    u = GridFunction(np.ones(5), dirichlet=True)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.all(u.values[1:-1] == 1.0)


def test_lp_norm_zero_and_constant():
    g = make_grid(1.0, 16)
    assert lp_norm(GridFunction(np.zeros(17)), 2.0, g) == 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_norm(GridFunction(np.ones(17)), p, g) == pytest.approx(1.0, abs=1e-14)


def test_lp_norm_linear_profile():
    # closed form: (int_0^1 t^2 dt)^(1/2) = 1/sqrt(3); cross-checked by a
    # dense quadrature oracle on the same integrand
    g = make_grid(1.0, 1024)
    got = lp_norm(GridFunction(g.nodes.copy()), 2.0, g)
    dense = np.linspace(0.0, 1.0, 200001)
    oracle = np.sqrt(np.trapezoid(dense**2, dense))
    assert got == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)
    assert got == pytest.approx(oracle, abs=1e-4)


def test_lp_norm_rejects_small_p():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        lp_norm(GridFunction(np.ones(5)), 0.5, g)


def test_sup_norm_examples():
    g = make_grid(1.0, 16)
    assert sup_norm(GridFunction(np.zeros(17))) == 0.0
    assert sup_norm(GridFunction(np.sin(np.pi * g.nodes))) == pytest.approx(1.0, abs=1e-15)
    assert sup_norm(GridFunction(g.nodes - 0.5)) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lam=st.floats(-100.0, 100.0, allow_nan=False),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]),
)
def test_norm_homogeneity(seed, lam, p):
    g = make_grid(1.0, 32)
    u = np.random.default_rng(seed).standard_normal(33)
    lhs = abs(lam) * lp_norm(u, p, g)
    rhs = lp_norm(lam * u, p, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_norm_triangle_inequality(seed, p):
    g = make_grid(1.0, 32)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(33)
    v = rng.standard_normal(33)
    assert lp_norm(u + v, p, g) <= lp_norm(u, p, g) + lp_norm(v, p, g) + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_norm_interpolation_bound(seed):
    # ||u||_q^q <= ||u||_inf^(q-p) ||u||_p^p for sampled p <= q
    g = make_grid(1.0, 64)
    rng = np.random.default_rng(seed)
    u = GridFunction(rng.standard_normal(65), dirichlet=True)
    p = float(rng.uniform(1.0, 3.0))
    q = float(p + rng.uniform(0.0, 3.0))
    lhs = lp_norm(u, q, g) ** q
    rhs = sup_norm(u) ** (q - p) * lp_norm(u, p, g) ** p
    assert lhs <= rhs * (1.0 + 1e-10)


def test_lp_norm_second_order_convergence():
    exact = np.sqrt(0.5)  # ||sin(pi t)||_L2 on [0,1]
    errs = []
    for n in (64, 128, 256):
        g = make_grid(1.0, n)
        errs.append(abs(lp_norm(np.sin(np.pi * g.nodes), 2.0, g) - exact))
    assert errs[1] <= 0.3 * errs[0]
    assert errs[2] <= 0.3 * errs[1]


@pytest.mark.parametrize("n, modes", [(64, 8), (1024, 8), (300, 3), (16, 0)])
def test_sine_series_rows_bitwise_equal_vector_calls(n, modes):
    g = make_grid(2.0, n)
    c = np.random.default_rng(n).standard_normal((5, modes))
    rows = sine_series(g, c)
    assert rows.shape == (5, n + 1)
    for k in range(5):
        assert np.array_equal(rows[k], sine_series(g, c[k]))
        # the expression evaluated per mode before the table existed
        direct = np.zeros(n + 1)
        for j, cj in enumerate(c[k], start=1):
            direct += cj * np.sin(j * np.pi * g.nodes / g.T)
        assert np.array_equal(rows[k], direct)


def test_sine_table_built_once_per_grid():
    g = make_grid(1.0, 32)
    assert g.sine_modes(8).base is g.sine_modes(3).base
    wide = g.sine_modes(10)
    assert np.array_equal(wide[:8], g.sine_modes(8))
    assert not wide.flags.writeable


def test_sine_modes_finite_near_float_max():
    # j pi t overflowed before the division by T.  t / T carries about an
    # ulp of rounding from the nodes and the division, which sin(8 pi x)
    # scales by up to 8 pi, so the tables agree to a few ulps, not bitwise
    big = make_grid(1e308, 64).sine_modes(8)
    assert np.all(np.isfinite(big))
    assert np.max(np.abs(big - make_grid(1.0, 64).sine_modes(8))) <= 1e-14


@pytest.mark.parametrize("c", [2.0**600, 2.0**-600])
def test_lp_rows_scale_with_their_rows(c):
    # a power of two scales every value exactly, so the norm scales
    # exactly with it; unscaled p-th powers overflow or underflow here
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((6, 17))
    w = rng.uniform(0.5, 1.5, 17)
    for p in (1.5, 2.0, 3.0):
        assert _lp_rows(c * rows, p, w) == [c * x for x in _lp_rows(rows, p, w)]


def test_lp_rows_of_zero_and_nonfinite_rows():
    rows = np.array([[1.0, np.inf, 2.0], [1.0, np.nan, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    with pytest.warns(RuntimeWarning):  # inf / inf
        norms = _lp_rows(rows, 2.0, np.ones(3))
    assert math.isnan(norms[0]) and math.isnan(norms[1])
    assert norms[2:] == [0.0, 5.0]
