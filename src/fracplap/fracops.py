"""Discrete fractional integral and derivative operators on uniform grids.

Left-sided operators of order 0 < alpha <= 1 are discretized with
Grunwald-Letnikov weights,

    (D^a u)(t_i) ~ h^(-a) * sum_k w_k u(t_{i-k}),   w_k = (-1)^k C(a, k),

so each operator is a lower-triangular Toeplitz matrix; the integral uses
the same weights with order -a and the factor h^a.  The weights are one
running product of the ratios w_k / w_{k-1} = 1 - (1+a)/k.  The textbook
recurrence w_k = w_{k-1} (k-1-a)/k rounds k-1-a the same way for every k
in a binade, so its relative error grows linearly in k (2.8e-13 at
k = 8192); the ratio form rounds without that bias (1.6e-14 for orders
in [-2, 1]).  Right-sided operators are the transposes of the left-sided
ones.  That choice makes
them simultaneously the natural Grunwald-Letnikov discretizations from
the right endpoint and the exact adjoints of the left operators in the
plain h-weighted pairing, so the discrete integration-by-parts identity
for boundary-pinned functions holds to machine precision.

No matrix is stored: a Toeplitz operator keeps its first column and the
real FFT of that column, and applies itself as a zero-padded convolution
in O(n log n), by a transform of length at least 2m - 2 for m nodes.
The transpose shares both arrays and applies by reversing its input and
output.

Because the weight sequences are exactly the coefficients of (1-z)^a and
(1-z)^(-a), compositions inherit the symbol algebra: D^a I^a = Id and
I^a I^b = I^(a+b) hold exactly as matrices, not just up to O(h).
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from math import gamma

import numpy as np

from .grid import FracParams, Grid, GridFunction, _lp_rows, trapezoid_weights

__all__ = [
    "gamma",
    "gl_weights",
    "OpKind",
    "Toeplitz",
    "OperatorSet",
    "build_operators",
    "apply",
    "alpha_norm",
    "embedding_constants",
    "MAX_GRID_CELLS",
]

# Operators and solvers are matrix-free, so memory is linear in n; the cap
# dates from the dense root-solve Hessian and stays until it is set from
# measured memory.
MAX_GRID_CELLS = 8192


def gl_weights(order: float, m: int) -> np.ndarray:
    """Coefficients w_k of (1-z)^order, k = 0..m.

    One running product w_k = w_{k-1} r_k of the ratios
    r_k = 1 - (1+order)/k.  The ratio form rounds each factor to nearest
    on its own, where the textbook form r_k = (k-1-order)/k rounds
    k-1-order in the same direction for every k in a binade, so that
    loop's error grows linearly in k.  For k = 1 and 2 the subtraction
    k-1-order is exact, so those two ratios keep the textbook form and
    orders near +-1 lose nothing; gl_weights(+-1, m) are exact.
    order > 0 gives derivative weights, order < 0 integral weights.
    """
    order = float(order)
    k = np.arange(1.0, m + 1)
    ratios = 1.0 - (1.0 + order) / k
    ratios[:2] = (k[:2] - 1.0 - order) / k[:2]
    w = np.empty(m + 1)
    w[0] = 1.0
    np.cumprod(ratios, out=w[1:])
    return w


def _fast_len(target: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= target, a fast real FFT length.

    Each product 3^b 5^c below the best length so far is doubled up to
    the target in one shift, so the search costs O(log^2 target).
    """
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((target - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class Toeplitz:
    """Lower-triangular Toeplitz matrix given by its first column.

    ``A @ x`` accepts a vector or a 2-D array (columns are transformed)
    and evaluates the product as a convolution by a real FFT of the
    fast length at least 2m - 2; the spectrum of the column is computed
    once.  Of the linear convolution's 2m - 1 terms, only the last,
    col[m-1] x[m-1], can wrap around, onto y[0], and it is subtracted
    there.  The fold is exact under power-of-two scaling of x, so
    A @ (2^k x) == 2^k (A @ x) bitwise away from overflow and underflow,
    and every step is sign-symmetric, so A @ (-x) == -(A @ x) bitwise.
    Each column of a 2-D product is bitwise equal to the product with
    that column alone, whatever the memory layout of x, so a batch of
    vectors can be applied in one call without changing a bit.  ``A.T``
    is the upper-triangular transpose: it shares the column and the
    spectrum, and applies by reversing its input and output.
    """

    def __init__(self, col: np.ndarray):
        m = len(col)
        self.col = col
        self.shape = (m, m)
        self.upper = False
        self._nfft = _fast_len(2 * m - 2)
        self._spectrum = np.fft.rfft(col, self._nfft)
        self._spectrum.setflags(write=False)

    @property
    def T(self) -> "Toeplitz":
        twin = copy.copy(self)
        twin.upper = not self.upper
        return twin

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = self.shape[0]
        if self.upper:
            x = x[::-1]
        spec = self._spectrum if x.ndim == 1 else self._spectrum[:, None]
        y = np.fft.irfft(spec * np.fft.rfft(x, self._nfft, axis=0), self._nfft, axis=0)[:m]
        if self._nfft < 2 * m - 1:  # the convolution's last term wrapped onto y[0]
            y[0] -= self.col[-1] * x[-1]
        return y[::-1] if self.upper else y


# values per row block (128 KiB of doubles): a block holds
# max(1, _BLOCK_DOUBLES // (n + 1)) functions
_BLOCK_DOUBLES = 1 << 14


def _rows(op, block: np.ndarray) -> np.ndarray:
    """op applied to every row of block (or to block itself if it is 1-D),
    as C-ordered rows, so that a row-wise reduction adds in the same order
    as on one vector."""
    return np.ascontiguousarray((op @ block.T).T)


def _block_len(grid: Grid, rows: int) -> int:
    """Items per row block on this grid for items of rows rows each."""
    return max(1, _BLOCK_DOUBLES // (rows * (grid.n + 1)))


def _blocks(grid: Grid, count: int, rows: int = 1):
    """(start, stop) of each block of count items of rows rows each."""
    b = _block_len(grid, rows)
    for start in range(0, count, b):
        yield start, min(start + b, count)


def _gl_operator(order: float, grid: Grid) -> Toeplitz:
    """Left-sided Grunwald-Letnikov operator of the given order on grid:
    the derivative of that order if order > 0, the integral of order
    -order if order < 0."""
    try:
        power, inverse = grid.h ** abs(order), grid.h ** -abs(order)
    except OverflowError:
        power = inverse = math.inf
    if not (0.0 < power < math.inf and 0.0 < inverse < math.inf):
        raise ValueError(
            f"T={grid.T!r}, n={grid.n}: the step h={grid.h!r} has no positive "
            f"finite power of order {order!r}"
        )
    w = gl_weights(order, grid.n)
    w = w / power if order > 0 else w * power
    w.setflags(write=False)
    return Toeplitz(w)


class OpKind(enum.Enum):
    LEFT_INT = "LEFT_INT"
    RIGHT_INT = "RIGHT_INT"
    LEFT_DERIV = "LEFT_DERIV"
    RIGHT_DERIV = "RIGHT_DERIV"
    CAPUTO_LEFT = "CAPUTO_LEFT"
    CAPUTO_RIGHT = "CAPUTO_RIGHT"


@dataclass(frozen=True)
class OperatorSet:
    """Toeplitz operators for one (alpha, grid) pair.

    The right-sided operators are the transposes of the left-sided ones
    and share their storage.

    deriv_quad_weights is the quadrature vector used for integrals of
    the derivative image (the alpha-norm and the energy).  For alpha < 1
    it is the trapezoid rule on the nodal samples.  At alpha = 1 the
    Grunwald-Letnikov samples are backward differences, i.e. cell
    quadrature amounts to the standard piecewise-linear finite element
    energy; halving the last cell there would lose first-order accuracy
    at the right boundary.
    """

    alpha: float
    grid: Grid
    left_deriv: Toeplitz
    right_deriv: Toeplitz
    left_int: Toeplitz
    right_int: Toeplitz
    deriv_quad_weights: np.ndarray

    def check_grid(self, u: GridFunction) -> np.ndarray:
        if len(u) != self.grid.n + 1:
            raise ValueError(
                f"grid function has {len(u)} nodes, operators expect {self.grid.n + 1}"
            )
        return u.values


def build_operators(params: FracParams, grid: Grid) -> OperatorSet:
    """Assemble the four fractional operators for (params.alpha, grid)."""
    n = grid.n
    if n > MAX_GRID_CELLS:
        raise ValueError(f"n={n} exceeds the grid cap {MAX_GRID_CELLS}")
    if grid.T != params.T:
        raise ValueError(f"the grid ends at T={grid.T}, the params have T={params.T}")
    a = params.alpha
    if a < 1.0:
        quad = trapezoid_weights(grid)
    else:
        # classical limit: samples are per-cell differences
        quad = np.full(n + 1, grid.h)
        quad[0] = 0.0
    quad.setflags(write=False)
    left_deriv = _gl_operator(a, grid)
    left_int = _gl_operator(-a, grid)
    return OperatorSet(
        alpha=a,
        grid=grid,
        left_deriv=left_deriv,
        right_deriv=left_deriv.T,
        left_int=left_int,
        right_int=left_int.T,
        deriv_quad_weights=quad,
    )


def _caputo_correction(ops: OperatorSet, left: bool) -> np.ndarray:
    """Values of (t-a)^(-alpha)/Gamma(1-alpha) away from the singular end.

    At alpha = 1 the coefficient 1/Gamma(0) vanishes, so the correction
    is identically zero and the Caputo and Riemann-Liouville derivatives
    coincide.
    """
    n = ops.grid.n
    corr = np.zeros(n + 1)
    if ops.alpha >= 1.0:
        return corr
    coef = 1.0 / gamma(1.0 - ops.alpha)
    nodes = ops.grid.nodes
    if left:
        corr[1:] = coef * nodes[1:] ** (-ops.alpha)
    else:
        corr[:-1] = coef * (nodes[-1] - nodes[:-1]) ** (-ops.alpha)
    return corr


def apply(ops: OperatorSet, kind: OpKind, u: GridFunction) -> GridFunction:
    """Apply a fractional operator to the nodal values of u.

    Caputo kinds subtract the boundary term u(a)(t-a)^(-alpha)/Gamma(1-alpha)
    from the Riemann-Liouville value.  The term is singular at the
    operator's own endpoint, so that node keeps the raw value: node 0 for
    CAPUTO_LEFT, node n for CAPUTO_RIGHT.
    """
    v = ops.check_grid(u)
    if kind is OpKind.LEFT_INT:
        out = ops.left_int @ v
    elif kind is OpKind.RIGHT_INT:
        out = ops.right_int @ v
    elif kind is OpKind.LEFT_DERIV:
        out = ops.left_deriv @ v
    elif kind is OpKind.RIGHT_DERIV:
        out = ops.right_deriv @ v
    elif kind is OpKind.CAPUTO_LEFT:
        out = ops.left_deriv @ v - v[0] * _caputo_correction(ops, left=True)
    elif kind is OpKind.CAPUTO_RIGHT:
        out = ops.right_deriv @ v - v[-1] * _caputo_correction(ops, left=False)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return GridFunction(out, dirichlet=False)


def alpha_norm(ops: OperatorSet, u: GridFunction, p: float) -> float:
    """Working norm ||D^alpha u||_{L^p}, defined for boundary-pinned u."""
    if not u.dirichlet:
        raise ValueError("alpha_norm is defined for dirichlet grid functions")
    if p < 1.0:
        raise ValueError(f"alpha_norm requires p >= 1, got {p}")
    return _alpha_rows(ops, ops.check_grid(u), p)[0]


def embedding_constants(ops: OperatorSet, p: float, qs=()) -> tuple[float, ...]:
    """Discrete constants (C_n, K_n, K_q for each q in qs) of max|u|, ||u||_p
    and ||u||_q <= that constant times ||u||_{alpha,p} for every pinned u,
    read off the I^alpha weights iota = (iota_0 .. iota_{n-2}):

        K_q = h^(1/q - 1/p) ||iota||_r,   1/r = 1 + 1/q - 1/p,

    K_n = ||iota||_1 at q = p and C_n = h^(-1/p) ||iota||_p' at q = inf.

    A pinned u is I^alpha D u, with (D u)_0 = 0 and u_n = 0, so u_i for
    i <= n-1 is the convolution of iota with rows 1..n-1 of D u, and
    those rows weigh h in ||.||_{alpha,p}.  Young's inequality (the l^q
    norm of a convolution is at most the l^r norm of iota times the l^p
    norm of D u) gives each bound, Hoelder on each u_i the sup one; the
    weight of row n only adds to the right side.  C_n is sharp: the
    Hoelder-extremal rows 1..n-1 of D u put |u_{n-1}| at C_n ||u||_{alpha,p}
    (with u_n left free).  K_n is a certified upper bound of the Poincare
    constant, not attained.
    """
    h, iota = ops.grid.h, ops.left_int.col[: ops.grid.n - 1]
    K = [h ** (1.0 / q - 1.0 / p) * _lp_rows(iota, 1.0 / (1.0 + 1.0 / q - 1.0 / p), 1.0)[0]
         for q in qs]
    return (h ** (-1.0 / p) * _lp_rows(iota, p / (p - 1.0), 1.0)[0], float(np.sum(iota)), *K)


def _alpha_rows(ops: OperatorSet, V: np.ndarray, p: float) -> list[float]:
    """alpha_norm of each pinned row of V (or of V itself if it is 1-D)."""
    return _lp_rows(_rows(ops.left_deriv, V), p, ops.deriv_quad_weights)

