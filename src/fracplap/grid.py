"""Uniform grids on [0, T], nodal grid functions, and discrete norms.

The interval [0, T] is split into n equal cells of width h = T/n with
nodes t_i = i*h.  Grid functions store one real value per node; the
Dirichlet flag pins the endpoint values to exactly zero.  Integrals are
approximated with the composite trapezoid rule, whose weights are
(h/2, h, ..., h, h/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "FracParams",
    "Grid",
    "GridFunction",
    "make_grid",
    "trapezoid_weights",
    "lp_norm",
    "sup_norm",
    "sine_series",
]


@dataclass(frozen=True)
class FracParams:
    """Problem constants: derivative order alpha, exponent p, horizon T.

    alpha lies in (0, 1]; alpha = 1 is the classical limit in which the
    fractional derivative degenerates to the ordinary one.  q_conj is the
    conjugate exponent of p, derived so that 1/p + 1/q_conj = 1.
    """

    alpha: float
    p: float
    T: float
    q_conj: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        object.__setattr__(self, "q_conj", self.p / (self.p - 1.0))


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] with n cells and n+1 nodes."""

    n: int
    h: float
    nodes: np.ndarray
    _sines: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    def sine_modes(self, k: int) -> np.ndarray:
        """Rows sin(j pi t / T) at the nodes, j = 1..k.  The table is
        computed once per grid and only grows when more modes are asked
        for."""
        if self._sines is None or len(self._sines) < k:
            t, T = self.nodes, self.T
            # t / T first: j pi t overflows near the float maximum
            table = np.array([np.sin(j * np.pi * (t / T)) for j in range(1, k + 1)])
            table = table.reshape(k, self.n + 1)
            table.setflags(write=False)
            object.__setattr__(self, "_sines", table)
        return self._sines[:k]


def make_grid(T: float, n: int) -> Grid:
    """Build the uniform grid with nodes i*T/n, i = 0..n.

    Rejects non-positive T and n < 2 (a single cell cannot carry an
    interior unknown).
    """
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    nodes = np.linspace(0.0, T, n + 1)
    nodes.setflags(write=False)
    return Grid(n=int(n), h=T / n, nodes=nodes)


@dataclass
class GridFunction:
    """Nodal values aligned with a grid; dirichlet pins u(0) = u(T) = 0."""

    values: np.ndarray
    dirichlet: bool = False

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("grid function values must be a 1-d vector")
        if self.dirichlet:
            v[0] = 0.0
            v[-1] = 0.0
        v.setflags(write=False)
        self.values = v

    def __len__(self) -> int:
        return len(self.values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.values.copy(), dirichlet=self.dirichlet)


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights (h/2, h, ..., h, h/2)."""
    w = np.full(grid.n + 1, grid.h)
    w[0] = grid.h / 2.0
    w[-1] = grid.h / 2.0
    return w


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)


def lp_norm(u, p: float, grid: Grid) -> float:
    """Discrete L^p norm (sum_i w_i |u_i|^p)^(1/p) with trapezoid weights.

    Nonnegative, and zero exactly when u vanishes at every node.
    """
    if p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    v = _values(u)
    if len(v) != grid.n + 1:
        raise ValueError("grid function length does not match grid")
    return _lp_rows(v, p, trapezoid_weights(grid))[0]


def _lp_rows(rows: np.ndarray, p: float, w: np.ndarray) -> list[float]:
    """Row-wise (sum_i w_i |x_i|^p)^(1/p) of a 1-D or 2-D array: the
    package's one norm kernel.  It takes the norm of each row over its
    _max_scaled scale times that scale, so no p-th power over- or
    underflows (Blue, ACM TOMS 4, 1978), and a row holding inf or nan
    gives nan.  Each root is a scalar power of that row's sum, as the
    one-vector call takes it: an array power may differ in the last bit."""
    unit, scale = _max_scaled(rows)
    sums = np.atleast_1d(np.sum(w * unit**p, axis=-1))
    return [float(s ** (1.0 / p)) * c for s, c in zip(sums, scale)]


def _max_scaled(rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """|rows| over each row's scale, and the scales: a row's max |x_i|,
    or 1 for a zero row."""
    mag = np.abs(rows)
    top = np.max(mag, axis=-1, keepdims=True)
    scale = np.where(top > 0.0, top, 1.0)
    return mag / scale, scale.ravel().tolist()


def sup_norm(u) -> float:
    """Max over nodes of |u_i|."""
    v = _values(u)
    return float(np.max(np.abs(v)))


def sine_series(grid: Grid, coeffs) -> np.ndarray:
    """Nodal values of sum_j c_j sin(j pi t / T), j = 1, 2, ..., summed
    mode by mode in coefficient order.

    A (k, modes) coefficient array gives k rows, each bitwise equal to
    the call on its own coefficient row.
    """
    c = np.asarray(coeffs, dtype=float)
    modes = grid.sine_modes(c.shape[-1])
    u = np.zeros(c.shape[:-1] + (grid.n + 1,))
    for j in range(c.shape[-1]):
        u += c[..., j, None] * modes[j]
    return u
