"""Energy functional, its discrete gradient, and weak-form residuals.

The functional on boundary-pinned grid functions is

    I(u) = (1/p) sum_i wd_i |(D u)_i|^p  -  sum_i w_i F(t_i, u_i),

where D is the left fractional derivative, wd its quadrature weights and
w the trapezoid weights.  The gradient returned here is the coefficient
vector g of the discrete Riesz representation

    sum_i h g_i v_i  =  I'(u) v   for every dirichlet v,

which keeps solver step sizes mesh-independent.  By the chain rule

    g = D^T diag(wd) phi(D u) / h - f(t, u)

at interior nodes (zero at the boundary), with phi(s) = |s|^(p-2) s.  For
p < 2 the pointwise phi is not Lipschitz at 0, so the gradient uses the
regularization (s^2 + eps^2)^((p-2)/2) s with a configurable eps.

Energy, gradient and the monotonicity gap have one body each, written on
pinned rows V (1-D, or (b, n+1) for b functions at once) and their
derivative images DV = D V, reduced along the last axis.  The public
functions are its one-row calls, and a caller that already holds D u
(a solver, a verify block) passes it instead of taking the product
again.  D is applied by batched products whose rows are bitwise equal
to the one-vector product, and elementwise powers do not depend on a
value's position, so row r of a block is bitwise the one-row result.
The norms come from grid._lp_rows, which scales each row by its max
|.| so that no p-th power overflows, and takes each root per row, as a
scalar: an array power may differ from the scalar one in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fracops import OperatorSet, _rows
from .grid import FracParams, Grid, GridFunction, _lp_rows, trapezoid_weights
from .nonlinearity import NonlinearitySpec

__all__ = [
    "ProblemState",
    "phi",
    "energy",
    "gradient",
    "weak_residual",
    "monotonicity_gap",
]

DEFAULT_EPS_REG = 1e-10


@dataclass(frozen=True)
class ProblemState:
    """Bundle of problem data: constants, grid, operators, nonlinearity.

    eps_reg is forced to 0 for p >= 2, where phi needs no regularization.
    """

    params: FracParams
    grid: Grid
    ops: OperatorSet
    spec: NonlinearitySpec
    eps_reg: Optional[float] = None
    _quad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        built = (self.ops.alpha, self.ops.grid.n, self.ops.grid.T)
        if built != (self.params.alpha, self.grid.n, self.grid.T) or self.grid.T != self.params.T:
            raise ValueError("operator set was not built for these params and grid")
        if self.params.p >= 2.0:
            object.__setattr__(self, "eps_reg", 0.0)
        elif self.eps_reg is None:
            object.__setattr__(self, "eps_reg", DEFAULT_EPS_REG)
        w = trapezoid_weights(self.grid)
        w.setflags(write=False)
        object.__setattr__(self, "_quad", w)

    def require_dirichlet(self, u: GridFunction) -> np.ndarray:
        if not u.dirichlet:
            raise ValueError("operation requires a dirichlet grid function")
        return self.ops.check_grid(u)


def phi(s: np.ndarray, p: float, eps_reg: float = 0.0) -> np.ndarray:
    """p-Laplacian flux |s|^(p-2) s, regularized near 0 when p < 2."""
    s = np.asarray(s, dtype=float)
    if p >= 2.0:
        return np.abs(s) ** (p - 2.0) * s
    if eps_reg > 0.0:
        return (s * s + eps_reg * eps_reg) ** ((p - 2.0) / 2.0) * s
    out = np.zeros_like(s)
    nz = s != 0.0
    out[nz] = np.abs(s[nz]) ** (p - 2.0) * s[nz]
    return out


def _dphi(s: np.ndarray, p: float, eps: float = 0.0) -> np.ndarray:
    """phi'(s), the tangent slope of the flux phi(s, p, eps)."""
    if p >= 2.0:
        return (p - 1.0) * np.abs(s) ** (p - 2.0)
    return (s * s + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps)


def energy(st: ProblemState, u: GridFunction) -> float:
    """I(u) = (1/p) ||u||_{alpha,p}^p - quadrature of F(t, u)."""
    v = st.require_dirichlet(u)
    return float(_energy_rows(st, v, st.ops.left_deriv @ v))


def gradient(st: ProblemState, u: GridFunction) -> GridFunction:
    """Riesz coefficient vector of I'(u) in the h-weighted pairing."""
    g, _ = _gradient_and_du(st, st.require_dirichlet(u))
    return GridFunction(g, dirichlet=True)


def _gradient_and_du(st: ProblemState, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of the pinned v and the derivative image D v it used."""
    du = st.ops.left_deriv @ v
    return _gradient_rows(st, v, du), du


def _energy_rows(st: ProblemState, V: np.ndarray, DV: np.ndarray) -> np.ndarray:
    """Energy of each pinned row of V, given DV = D V row by row."""
    p = st.params.p
    grad_term = np.sum(st.ops.deriv_quad_weights * np.abs(DV) ** p, axis=-1) / p
    F = st.spec.F_values(st.grid.nodes, V)
    return grad_term - np.sum(st._quad * F, axis=-1)


def _gradient_rows(st: ProblemState, V: np.ndarray, DV: np.ndarray) -> np.ndarray:
    """Gradient of each pinned row of V, given DV = D V row by row."""
    flux = phi(DV, st.params.p, st.eps_reg)
    G = _rows(st.ops.right_deriv, st.ops.deriv_quad_weights * flux)
    G /= st.grid.h
    G -= st.spec.f_values(st.grid.nodes, V)
    G[..., 0] = 0.0
    G[..., -1] = 0.0
    return G


def basis_alpha_norms(st: ProblemState) -> np.ndarray:
    """alpha-norms of the interior nodal basis vectors e_1 .. e_{n-1}.

    D e_j is the weight column shifted down to rows j..n, and the
    quadrature weights are h on rows 1..n-1, so with a_k = |w_k|^p

        ||e_j||^p = h (a_0 + ... + a_{n-1-j}) + wd_n a_{n-j},

    one cumulative sum for all j.
    """
    n = st.grid.n
    p = st.params.p
    a = np.abs(st.ops.left_deriv.col) ** p
    head = st.grid.h * np.cumsum(a[: n - 1])
    return (head[::-1] + st.ops.deriv_quad_weights[n] * a[n - 1 : 0 : -1]) ** (1.0 / p)


def _residual_from_gradient(st: ProblemState, g: np.ndarray, norms: np.ndarray) -> float:
    return float(np.max(st.grid.h * np.abs(g[1:-1]) / norms))


def weak_residual(st: ProblemState, u: GridFunction) -> float:
    """Dual-norm surrogate: max_j |I'(u) e_j| / ||e_j||_{alpha,p}.

    Zero exactly at discrete weak solutions.  The nodal basis spans the
    interior, so a vanishing value certifies criticality on the whole
    discrete test space.
    """
    return _residual_from_gradient(st, gradient(st, u).values, basis_alpha_norms(st))


def monotonicity_gap(st: ProblemState, u: GridFunction, v: GridFunction) -> float:
    """Slack in the norm-bracket monotonicity bound of the p-Laplacian part.

    Returns <J'(u) - J'(v), u - v> minus the product
    (||u||^(p-1) - ||v||^(p-1)) (||u|| - ||v||) in the alpha,p norm, where
    J is the gradient term alone.  The discrete Hoelder inequality gives
    the same lower bound as in the continuum, so the gap is nonnegative
    up to rounding.
    """
    uu = st.require_dirichlet(u)
    vv = st.require_dirichlet(v)
    gaps, _, _ = _gap_rows(st, st.ops.left_deriv @ uu, st.ops.left_deriv @ vv)
    return gaps[0]


def _gap_rows(
    st: ProblemState, DU: np.ndarray, DV: np.ndarray
) -> tuple[list[float], list[float], list[float]]:
    """monotonicity_gap of each pair of rows whose derivative images are
    DU and DV, with the alpha-norms of both rows."""
    p = st.params.p
    wd = st.ops.deriv_quad_weights
    pairing = np.sum(wd * (phi(DU, p) - phi(DV, p)) * (DU - DV), axis=-1)
    nu = _lp_rows(DU, p, wd)
    nv = _lp_rows(DV, p, wd)
    # numpy powers give inf past 1e308, where Python floats raise
    gaps = [
        pr - float(np.float64(a) ** (p - 1.0) - np.float64(b) ** (p - 1.0)) * (a - b)
        for pr, a, b in zip(np.atleast_1d(pairing).tolist(), nu, nv)
    ]
    return gaps, nu, nv
