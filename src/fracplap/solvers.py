"""Constructive solution finders: direct minimization, mountain pass,
deflated multiplicity search, and the almost-everywhere identity check.

Every metric here is a node-weighted D^T diag(w) D, solved in closed form
from the Toeplitz structure (see _Workspace), so changing its weights
costs no matrix work.  Every descent, of the direct minimizer and of the
mountain pass alike, takes one guarded Armijo step (_descend; c1 = 1e-4,
shrink 0.5, initial step 1) in the lagged-diffusivity metric rebuilt at
the state from the flux's slopes at D u (_Workspace.descent_weights): it
follows the curvature of the p-energy, so the direct minimizer's
iteration count stays flat in p and n, and at p = 2 it is the metric of
the linear part, D^T diag(wd) D / h.  Each descent also keeps a secant
memory (_SecantMemory): the last QN_MEMORY pairs of step and gradient
change, which the L-BFGS two-loop recursion combines with the metric
solve into a quasi-Newton step (Nocedal, Math. Comp. 35, 1980).  It is
valid for one metric only and is cleared whenever the weights change,
so it serves p = 2, where the metric misses only the -f_u part of the
Hessian; at every other p the weights change at each step and the step
is the plain metric step, bit for bit.  The recursion applies the metric
solve by linearity and takes no product, and the pairs come from the
gradients the descents take anyway, so an iteration still costs one
gradient, one metric solve and its line search at every p.  A memory
step that finds no descent or no lower energy clears the memory and is
retried as the plain metric step; a plain step that finds no descent, no
lower energy or no move off its start ends the direct descent, and
hands the mountain pass's iterate to the polish.  The mountain pass
walks rays, not a path: its step moves each trial point to the energy's
maximum along the point's ray from 0 (_ray_max), so it descends the
ray-maximum level (the local minimax method with support {0}; Li & Zhou,
SIAM J. Sci. Comput. 23, 2001).  Critical points that are not minima (the higher symmetric pairs,
and the mountain-pass maximizer) are finished by one backtracking Newton
engine (_polish_root).  Its steps come from MINRES on Hessian-vector
products, preconditioned by the closed-form metric with the Hessian's
own flux weights, so no dense matrix is formed: that metric is the
Hessian's principal part, and each Lanczos vector is a metric solve, so
MINRES reads the principal part's product off the solve and applies only
the rest of the Hessian.  MINRES stops at the relative tolerance
max(MINRES_RTOL, FORCING tol / res) for the current weak residual res, so
a step solves its system only as far as the polish's tol needs (tol = 0
keeps the exact solve).  The polish stops as soon as the weak residual of
a fresh gradient meets the caller's tol, and it starts from the gradient
and D u its caller already holds, so no solver takes a gradient twice.
The search for the higher pairs first runs it on the deflated field,
whose Newton step is the plain one times a scalar.  The iterations of a
mountain-pass report, and of a pair that Newton found, count the
gradients its solve took; those of the direct minimizer count its
accepted steps.

Every evaluation goes through the row layer (energy._energy_rows,
energy._gradient_rows, fracops._alpha_rows) on pinned arrays and the D
images at hand.  The unit sine directions of the endpoint march and the
multiplicity rays combine a table of pinned sine modes and their D
images, taken once per workspace by one block product
(_Workspace.unit_sines), so a direction costs no product; the endpoint
and the rays scale it by powers of two, which is exact.  The ray maximum
scales the D image it is given, D(t w) = t (D w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    ProblemState,
    _dphi,
    _energy_rows,
    _gradient_and_du,
    _gradient_rows,
    _residual_from_gradient,
    basis_alpha_norms,
    phi,
)
from .fracops import _alpha_rows, _gl_operator, _rows, embedding_constants
from .grid import GridFunction, _lp_rows, sup_norm
from .nonlinearity import Family

__all__ = [
    "GeometryError",
    "SolveReport",
    "MultiplicityReport",
    "RegularityResult",
    "minimize_direct",
    "mountain_pass",
    "multiplicity_search",
    "regularity_check",
    "DEFAULT_SEPARATION_SCALE",
]

ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
TRIVIAL_SUP = 1e-10
DEFAULT_SEPARATION_SCALE = 1e-3
POLISH_MAX_STEPS = 20
POLISH_MAX_HALVINGS = 10
ARMIJO_MAX_HALVINGS = 60
RAY_STEPS = 200
EIGEN_SOLVES = 8
MINRES_RTOL = 1e-12
FORCING = 0.1
MINRES_MAX_ITER = 200
PRECOND_FLOOR = 1e-12
QN_MEMORY = 5


class GeometryError(RuntimeError):
    """The mountain-pass geometry could not be established numerically."""


@dataclass
class SolveReport:
    solution: GridFunction
    energy_value: float
    residual: float
    iterations: int
    converged: bool
    method: str
    eps_reg_used: float
    trivial: bool
    rim_value: Optional[float] = None
    rim_radius: Optional[float] = None
    endpoint_energy: Optional[float] = None


@dataclass
class MultiplicityReport:
    pairs: list
    pairwise_distances: np.ndarray
    converged_count: int
    separation: float
    seed: int


@dataclass
class RegularityResult:
    """Constancy statistics of the transformed flux plus the f-primitive.

    constant_estimate and deviation are taken over the central region
    [T/10, 9T/10]; the fractional flux of a converged solution carries an
    integrable singularity at t = T whose quadrature error would otherwise
    mask the identity.  deviation_full_interior covers all interior nodes,
    and deviation_left_variant evaluates the same expression with the
    left-sided transform, which is *not* constant for critical points and
    is reported for contrast.
    """

    constant_estimate: float
    deviation: float
    deviation_full_interior: float
    deviation_left_variant: float

    def __iter__(self):
        return iter((self.constant_estimate, self.deviation))


class _Workspace:
    """Per-state cache: closed-form metric solves, basis norms, Newton steps,
    all on boundary-pinned vectors (n+1 nodal values with zero ends).

    Row 0 of D vanishes on the interior columns and rows 1..n-1 carry the
    quadrature weight h, so for positive node weights w the interior block
    of the weighted metric D^T diag(w) D is

        H_w = L^T W L + w_n r r^T,    W = diag(w_1 .. w_{n-1}),

    with L the interior block of D and r row n of D on the interior
    columns.  Because D^a I^a = Id holds as matrices, L^{-1} is the
    interior block of the left integral.  Sherman-Morrison then gives

        H_w^{-1} g = L^{-1} W^{-1} (y_g - beta y_r),
        y_g = L^{-T} g,  y_r = L^{-T} r,
        beta = w_n (y_r . W^{-1} y_g) / (1 + w_n (y_r . W^{-1} y_r)),

    and y_r (kept on the interior) does not depend on w, so it is computed
    once: a metric solve is two Toeplitz products around O(n) work, and
    building one for new weights costs no product.  linear_weights = wd / h
    is the metric of the linear part, whose interior weights are exactly 1.
    A MINRES iteration of newton_step costs one metric solve, plus two
    products only where flooring raised an interior weight (never at
    p = 2).
    """

    def __init__(self, st: ProblemState):
        self.st = st
        n = st.grid.n
        r = np.zeros(n + 1)
        r[1:n] = st.ops.left_deriv.col[n - 1 : 0 : -1]
        self._yr = (st.ops.right_int @ r)[1:n]
        self.linear_weights = st.ops.deriv_quad_weights / st.grid.h
        self.basis_norms = basis_alpha_norms(st)
        self._modes = self._dmodes = np.zeros((0, n + 1))

    def metric_solver(self, w: np.ndarray):
        """g -> H_w^{-1} g for a pinned g, for positive node weights w
        (w_0 is not used)."""
        ops = self.st.ops
        yr = self._yr
        wi = w[1:-1]
        c = w[-1]
        wyr = yr / wi
        denom = 1.0 + c * np.sum(yr * wyr)

        def solve(g: np.ndarray) -> np.ndarray:
            y = ops.right_int @ g
            y[0] = y[-1] = 0.0
            yi = y[1:-1]
            yi /= wi
            yi -= (c * np.sum(yr * yi) / denom) * wyr
            x = ops.left_int @ y
            x[0] = x[-1] = 0.0
            return x

        return solve

    def descent_weights(self, du: np.ndarray) -> np.ndarray:
        """Node weights of the p-adapted descent metric at the state whose
        derivative image is du (lagged diffusivity; Huang, Li & Liu,
        J. Sci. Comput. 2007).

        Each weight is wd / h times the larger of the flux's tangent and
        secant slopes at du: (p-1)|du|^(p-2) for p >= 2 and
        (du^2 + eps^2)^((p-2)/2) for p < 2, so the metric follows the
        energy's curvature for every p and is linear_weights at p = 2.
        Weights are floored at PRECOND_FLOOR of the largest, as in
        newton_step.  Node 0, where D u vanishes and which the metric does
        not read, gets the floor.
        """
        st = self.st
        p = st.params.p
        s = du[1:]
        if p >= 2.0:
            slope = _dphi(s, p)
        else:
            slope = (s * s + st.eps_reg * st.eps_reg) ** ((p - 2.0) / 2.0)
        w = np.zeros_like(du)
        w[1:] = self.linear_weights[1:] * slope
        return np.maximum(w, PRECOND_FLOOR * np.max(w))

    def eigen_bound(self, qa: np.ndarray) -> float:
        """A lower bound of min ||w||_alpha^2 / sum_i qa_i w_i^2 over pinned w
        at p = 2 (node weights qa >= 0), by EIGEN_SOLVES inverse iterations
        from w = 1 and Collatz-Wielandt.  The linear metric H (||w||_alpha^2
        = h w^T H w) is a Z-matrix: its off-diagonal entries are truncated
        sums of the centered fractional difference's negative weights.  So
        for y = H^-1 (qa x) > 0 and lam = min h x_i / y_i over qa_i > 0,
        h H - lam diag(qa) scaled by y is a diagonally dominant Z-matrix,
        hence semidefinite."""
        n = self.st.grid.n
        solve = self.metric_solver(self.linear_weights)
        x, lam, b = np.ones(n - 1), 0.0, np.zeros(n + 1)
        for _ in range(EIGEN_SOLVES):
            b[1:n] = qa[1:n] * x
            y = solve(b)[1:n]
            if not np.all(y > 0.0):
                break
            lam = max(lam, self.st.grid.h * float(np.min((x / y)[qa[1:n] > 0.0])))
            x = y / np.max(y)
        return lam

    def residual(self, g: np.ndarray) -> float:
        """Weak residual of the point whose gradient is g."""
        return _residual_from_gradient(self.st, g, self.basis_norms)

    def unit_sines(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sine series V of each coefficient row, pinned and scaled to
        unit alpha-norm, and D V, scaled alike.

        The pinned modes S_j and their images D S_j are kept in a table,
        taken by one block product and grown on demand.  V and D V are
        summed from the table rows in coefficient order, so before the
        scaling V is sine_series bitwise on the interior, and D V is the
        product D V up to rounding.
        """
        st = self.st
        c = np.asarray(coeffs, dtype=float)
        k = c.shape[-1]
        if len(self._modes) < k:
            S = st.grid.sine_modes(k).copy()
            S[:, 0] = S[:, -1] = 0.0
            self._modes, self._dmodes = S, _rows(st.ops.left_deriv, S)
        V = np.zeros((len(c), st.grid.n + 1))
        DV = np.zeros_like(V)
        for j in range(k):
            V += c[:, j, None] * self._modes[j]
            DV += c[:, j, None] * self._dmodes[j]
        V[:, 0] = V[:, -1] = 0.0
        norms = np.array(_lp_rows(DV, st.params.p, st.ops.deriv_quad_weights))
        if np.any(norms <= 0.0):
            raise ValueError("cannot normalize the zero function")
        return V / norms[:, None], DV / norms[:, None]

    def log_deflation(self, u: np.ndarray, known) -> tuple[float, np.ndarray]:
        """log M and its gradient, where M is the product of
        (1 + ||u -+ u_k||^-p) over the known pairs u_k.

        With v = u -+ u_k and N = ||v||^p, each factor contributes
        log1p(N) - log(N) to log M and -p D^T(wd phi(D v)) / (N (N + 1))
        to its gradient; neither forms ||v||^-p, which overflows near a
        known pair.
        """
        st = self.st
        p = st.params.p
        wd = st.ops.deriv_quad_weights
        log_m = 0.0
        grad = np.zeros_like(u)
        if not known:
            return log_m, grad
        V = np.array([v for uk in known for v in (u - uk, u + uk)])
        DV = _rows(st.ops.left_deriv, V)
        Ns = np.sum(wd * np.abs(DV) ** p, axis=-1)
        for N, r in zip(Ns, _rows(st.ops.right_deriv, wd * phi(DV, p))):
            log_m += np.log1p(N) - np.log(N)
            grad -= (p / (N * (N + 1.0))) * r
        grad[0] = grad[-1] = 0.0
        return log_m, grad

    def newton_step(
        self, u: np.ndarray, g: np.ndarray, du: np.ndarray, rtol: float = MINRES_RTOL
    ) -> np.ndarray:
        """H^{-1} g for the Hessian H at u (boundary rows zero), by MINRES
        to the relative tolerance rtol.

        H v = D^T(w D v) - f_u v with w = wd phi'(D u) / h, so the metric
        with the same weights is its exact principal part and preconditions
        it for every p; weights are floored at PRECOND_FLOOR of the largest
        to keep that metric positive definite where phi' vanishes (p > 2).
        _minres gets that metric's solve and the rest of H: -f_u v, plus
        D^T((w - wf) D v) where the floored weights wf raised an interior
        weight.  du is D u.
        """
        st = self.st
        # node 0 gets weight 0: it only multiplies (D v)_0 = wd_0 v_0, which
        # is 0 for a pinned v, and there D u vanishes, where the p < 2
        # formula at eps_reg = 0 is 0^((p-4)/2) * 0 = NaN
        dphi = np.zeros_like(du)
        dphi[1:] = _dphi(du[1:], st.params.p, st.eps_reg)
        w = st.ops.deriv_quad_weights * dphi / st.grid.h
        wf = np.maximum(w, PRECOND_FLOOR * np.max(w))
        nfu = -st.spec.fu_values(st.grid.nodes, u)
        nfu[0] = nfu[-1] = 0.0
        # dw vanishes unless flooring raised an interior weight (never at
        # p = 2); node 0 counts in neither metric, as (D v)_0 = 0
        dw = w - wf
        dw[0] = 0.0
        floored = bool(np.any(dw))

        def rest(v: np.ndarray) -> np.ndarray:
            hv = nfu * v
            if floored:
                hv += st.ops.right_deriv @ (dw * (st.ops.left_deriv @ v))
                hv[0] = hv[-1] = 0.0
            return hv

        return _minres(rest, g, self.metric_solver(wf), rtol)


def _minres(rest, b: np.ndarray, M, rtol: float = MINRES_RTOL) -> np.ndarray:
    """Preconditioned MINRES (Paige & Saunders, SIAM J. Numer. Anal. 1975).

    Solves (H_M + rest) x = b for a symmetric, possibly indefinite
    operator, where M applies the inverse of the symmetric positive
    definite H_M and rest is a symmetric product.  H_M is both the
    preconditioner and a part of the operator: each Lanczos vector is
    v = M(r) / beta, so H_M v = r / beta takes no work, and an iteration
    costs one M and one rest.  Stops once the preconditioned residual is
    rtol of its start, or after MINRES_MAX_ITER iterations.  Inner
    products use np.sum, so no threaded BLAS call enters the result.  A
    breakdown (singular operator, indefinite M) or a non-finite value
    gives NaN.
    """
    failed = np.full_like(b, np.nan)
    x = np.zeros_like(b)
    y = M(b)
    beta1 = float(np.sum(b * y))
    if beta1 == 0.0:
        return x
    if not beta1 > 0.0:
        return failed
    beta1 = math.sqrt(beta1)
    beta, oldb = beta1, 0.0
    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    r1 = r2 = b
    w = w2 = np.zeros_like(b)
    for itn in range(MINRES_MAX_ITER):
        v = y / beta
        y = r2 / beta + rest(v)
        if itn:
            y = y - (beta / oldb) * r1
        alfa = float(np.sum(v * y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = M(r2)
        oldb, beta = beta, float(np.sum(r2 * y))
        if not beta >= 0.0:
            return failed
        beta = math.sqrt(beta)
        # next plane rotation of the Lanczos tridiagonal
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if not gamma > 0.0:
            return failed
        cs, sn = gbar / gamma, beta / gamma
        phi_k = cs * phibar
        phibar *= sn
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi_k * w
        if phibar <= rtol * beta1:
            break
    return x if np.all(np.isfinite(x)) else failed


def _armijo_step(
    st: ProblemState, u: np.ndarray, E: float, d: np.ndarray, slope: float, ray: bool
) -> tuple[np.ndarray, float, np.ndarray]:
    """The last trial point u + s d (at its ray maximum if ray is set), its
    energy and D image, halving s from 1 until the Armijo condition holds."""
    s = 1.0
    for _ in range(ARMIJO_MAX_HALVINGS):
        un = u + s * d
        un[0] = un[-1] = 0.0
        dun = st.ops.left_deriv @ un
        un, dun = _ray_max(st, un, dun) if ray else (un, dun)
        En = float(_energy_rows(st, un, dun))
        if En <= E + ARMIJO_C1 * s * slope:
            break
        s *= ARMIJO_SHRINK
    return un, En, dun


class _SecantMemory:
    """The last QN_MEMORY secant pairs (s, y) = (u_{k+1} - u_k, g_{k+1} -
    g_k) of one descent, valid for the one metric H0 they were taken under
    (L-BFGS; Nocedal, Math. Comp. 35, 1980).

    Each pair also keeps H0 y = H0 g_{k+1} - H0 g_k, the difference of the
    two points' plain metric steps, so the two-loop recursion applies H0
    by linearity, H0 q = H0 g - sum_i a_i H0 y_i, and takes no product
    beyond the plain step's one solve.  A pair is kept only if s . y is
    positive and finite, so the update stays positive definite; the h of
    the h-weighted pairing cancels in each of the recursion's ratios.
    """

    def __init__(self):
        self.weights = None
        self.last = None
        self.pairs = []

    def direction(self, w: np.ndarray, u: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
        """H g for the L-BFGS inverse seeded with H0 = H_w^{-1}, at the
        point u of gradient g and plain step z = H0 g; the memory takes
        the pair from its last point first, or is cleared if w is a new
        metric.  With no pair this is z itself."""
        if not np.array_equal(w, self.weights):
            self.weights, self.pairs = w, []
        else:
            s, y = u - self.last[0], g - self.last[1]
            sy = float(np.sum(s * y))
            if sy > 0.0 and math.isfinite(sy):
                self.pairs = [*self.pairs, (s, y, z - self.last[2], sy)][-QN_MEMORY:]
        self.last = (u, g, z)
        if not self.pairs:
            return z
        q, r, coeffs = g.copy(), z.copy(), []
        for s, y, hy, sy in reversed(self.pairs):
            a = float(np.sum(s * q)) / sy
            q -= a * y
            r -= a * hy
            coeffs.append(a)
        for (s, y, _, sy), a in zip(self.pairs, reversed(coeffs)):
            r += (a - float(np.sum(y * r)) / sy) * s
        return r


def _descend(
    ws: _Workspace, u: np.ndarray, E: float, g: np.ndarray, du: np.ndarray,
    memory: _SecantMemory, ray: bool = False,
) -> Optional[tuple[np.ndarray, float, np.ndarray]]:
    """One Armijo step from the pinned u, of energy E, gradient g and D
    image du, in the p-adapted metric at du (trials at their ray maxima if
    ray is set), with the quasi-Newton memory of the descent.

    The metric solve of g seeds the memory's L-BFGS direction; the memory
    is cleared whenever the metric's weights change, so it is used only at
    p = 2, and at every other p the step is the plain metric step.  If the
    memory's direction has a slope that is not negative (or NaN), or its
    search ends above E or back at u, the memory is cleared and the plain
    step is searched instead.  Returns the accepted point, its energy and
    its D image; None when the plain step fails alike.  A search that ends
    back at u (the roundoff floor, where the step underflows) fails, as
    every later step from u would repeat it."""
    w = ws.descent_weights(du)
    z = ws.metric_solver(w)(g)
    d = -memory.direction(w, u, g, z)
    while True:
        slope = float(np.sum(ws.st.grid.h * g * d))
        if slope < 0.0:
            un, En, dun = _armijo_step(ws.st, u, E, d, slope, ray)
            if En <= E and not np.array_equal(un, u):
                return un, En, dun
        if not memory.pairs:
            return None
        memory.pairs, d = [], -z


def _report(st: ProblemState, u: np.ndarray, E: float, res: float, iterations: int,
            converged: bool, method: str, **extra) -> SolveReport:
    """The report of the pinned u, flagged trivial when its sup norm is at
    most TRIVIAL_SUP; extra holds the method's own fields."""
    sol = GridFunction(u, dirichlet=True)
    return SolveReport(
        solution=sol, energy_value=E, residual=res, iterations=iterations,
        converged=converged, method=method, eps_reg_used=st.eps_reg,
        trivial=sup_norm(sol) <= TRIVIAL_SUP, **extra,
    )


def _regime_gate(st: ProblemState, caller: str, regime: str) -> None:
    """Reject the other regime's power family, and this regime's power
    family unless q < p ("sublinear") or mu > p ("superlinear")."""
    spec, p = st.spec, st.params.p
    sub = regime == "sublinear"
    own, exp, other, other_exp = (
        (Family.SUBLINEAR_POWER, "q", Family.SUPERLINEAR_POWER, "mu")
        if sub
        else (Family.SUPERLINEAR_POWER, "mu", Family.SUBLINEAR_POWER, "q")
    )
    if spec.family is other:
        raise ValueError(
            f"{caller} requires a {regime}-regime nonlinearity; "
            f"got {other.value} ({other_exp}={getattr(spec, other_exp)})"
        )
    x = getattr(spec, exp)
    if spec.family is own and not (x < p if sub else x > p):
        raise ValueError(
            f"{caller} requires exponent {exp} {'<' if sub else '>'} p, got {exp}={x}, p={p}"
        )


def minimize_direct(
    st: ProblemState,
    init: GridFunction,
    tol: float = 1e-6,
    max_iter: int = 2000,
) -> SolveReport:
    """Armijo descent on the energy in the p-adapted metric.

    Each direction solves D^T diag(w) D d = -g with the weights
    _Workspace.descent_weights builds from D u, and at p = 2, where the
    weights never change, the descent's secant memory turns it into the
    L-BFGS step seeded with that solve (_descend).  The start's energy and
    gradient share its derivative image, and the line search keeps the
    image of the point it accepts for the next gradient, so an iteration
    costs one Toeplitz product for the gradient, two for the metric solve
    and one per energy call of the line search, with or without memory.
    The descent ends when the plain metric step fails: no descent, no
    lower energy, or a search that ends back at u (the roundoff floor).

    Requires a sublinear-regime nonlinearity (coercive energy).  On
    convergence the weak residual is at or below tol; starting from a
    small multiple of a smooth bump lands at a nontrivial negative-energy
    minimizer, while starting from zero stays at the trivial critical
    point, which the report flags.
    """
    _regime_gate(st, "minimize_direct", "sublinear")
    ws = _Workspace(st)
    u = init.values.copy()
    u[0] = u[-1] = 0.0
    du = st.ops.left_deriv @ u
    E = float(_energy_rows(st, u, du))
    steps, memory = 0, _SecantMemory()
    while True:
        g = _gradient_rows(st, u, du)
        res = ws.residual(g)
        if res <= tol or steps >= max_iter:
            break
        if (step := _descend(ws, u, E, g, du, memory)) is None:
            break  # no descent, or a failed line search: keep the last point
        u, E, du = step
        steps += 1
    return _report(st, u, E, res, steps, res <= tol, "direct")


def _ray_max(st: ProblemState, w: np.ndarray, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The energy's maximum t w along the ray of the pinned w, and its D
    image t dw.  t is where the slope psi(t) = t^(p-1) ||w||^p - sum_i w_i
    f(t_i, t w_i) w_i turns from positive to negative (at one point for
    the power families), found by Newton steps from t = 1 (psi' from
    fu_values); a step that does not descend psi or leaves the bracket
    [lo, hi] of the signs seen so far doubles t until psi is negative,
    halves it until psi is positive, and then bisects.  No root within
    RAY_STEPS steps, or a psi that is not finite, raises GeometryError."""
    p, t, spec = st.params.p, st.grid.nodes, st.spec
    a = float(np.sum(st.ops.deriv_quad_weights * np.abs(dw) ** p))
    qw = st._quad * w

    def psi(tau: float) -> float:
        v = float(np.float64(tau) ** (p - 1.0) * a - np.sum(qw * spec.f_values(t, tau * w)))
        if not math.isfinite(v):
            raise GeometryError(f"energy along the ray is not finite at t={tau}")
        return v

    # far out along the ray the powers overflow; psi turns that into GeometryError
    with np.errstate(over="ignore", invalid="ignore"):
        x, fx, lo, hi = 1.0, psi(1.0), 0.0, math.inf
        for _ in range(RAY_STEPS):
            lo, hi = (x, hi) if fx > 0.0 else (lo, x)
            fu = spec.fu_values(t, x * w)
            d = float((p - 1.0) * np.float64(x) ** (p - 2.0) * a - np.sum(qw * w * fu))
            y = x - fx / d if d < 0.0 else math.nan
            if not lo < y < hi:
                y = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
            step, x, fx = abs(y - x), y, psi(y)
            if fx == 0.0 or step <= 1e-15 * x:
                return x * w, x * dw
    raise GeometryError("the energy has no maximum along the ray")


def _rim_value(ws: _Workspace) -> tuple[float, float]:
    """The largest, over radii rho = r / C on a ladder of ratio 2^(1/8), of
    a lower bound of the energy on the sphere ||w||_alpha = rho, and the
    radius rho at which it is largest.

    Every pinned w has max|w| <= C ||w||_alpha, C the sharp discrete
    constant C_n of fracops.embedding_constants; with the spec's
    2 |F(t, s)| <= m(t) k(r) s^2 on |s| <= r, the energy is at least
    rho^p / p - k r^2 sum(quad m) / 2.
    Where that proves nothing at p >= 2, sum_i quad_i m_i w_i^2 is at most
    ||w||_{alpha,2}^2 / lam (_Workspace.eigen_bound), and by Hoelder on D's
    weights wd at most (sum wd)^(1 - 2/p) rho^2 / lam, so the energy is at
    least rho^p / p - k (sum wd)^(1 - 2/p) rho^2 / (2 lam)."""
    st = ws.st
    p = st.params.p
    c = embedding_constants(st.ops, p)[0]
    r = 2.0 ** np.arange(-100.0, 20.125, 0.125)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, k = st.spec.quadratic_bound(st.grid.nodes, r)
        qa = st._quad * m
        bound = (r / c) ** p / p - k * r**2 * np.sum(qa) / 2.0
        if not np.max(bound) > 0.0 and p >= 2.0:
            lam = ws.eigen_bound(qa) * np.sum(st.ops.deriv_quad_weights) ** (2.0 / p - 1.0)
            bound = (r / c) ** p / p - k * (r / c) ** 2 / (2.0 * lam)
    i = int(np.argmax(bound))
    if not bound[i] > 0.0:
        raise GeometryError("no positive rim found: energy is not positive near 0")
    return float(bound[i]), float(r[i] / c)


def _merit_below(r: float, log_m: float, best: float, best_log_m: float) -> bool:
    """Whether r e^log_m < best e^best_log_m, without overflow; equal
    factors (always, without deflation) compare r < best exactly."""
    d = log_m - best_log_m
    return r * math.exp(d) < best if d <= 0.0 else r < best * math.exp(-d)


def _polish_root(
    ws: _Workspace, u0: np.ndarray, *, tol: float, known=(), start=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Newton polish of a critical point near the pinned u0.

    Each step solves the Hessian system by preconditioned MINRES
    (_Workspace.newton_step, on the D u its gradient took) to the
    relative tolerance max(MINRES_RTOL, FORCING tol / res), res the weak
    residual of the iterate: a step need only bring the residual to a
    tenth of tol, and tol = 0 keeps the exact solve.  It halves the step
    until max|g| decreases, at most POLISH_MAX_HALVINGS times.  The
    polish ends before a step once the weak residual of its current
    gradient is at or below tol (Kelley, Solving Nonlinear
    Equations with Newton's Method, SIAM 2003), when no step length
    decreases max|g| (the roundoff floor; a halved step that no longer
    moves u ends it at once), after POLISH_MAX_STEPS steps, or when the
    Newton solve breaks down or is not finite.  tol = 0 polishes to the
    floor.  start is the (gradient, D u) pair of u0 when the caller
    already holds it.  Returns the best iterate, its gradient, its D u
    and the number of gradients the polish took.

    With known pairs the field is deflated to M g, M the product of
    (1 + ||u -+ u_k||^-p), so the known pairs stop being roots (Farrell,
    Birkisson & Funke, SIAM J. Sci. Comput. 2015).  By Sherman-Morrison
    on its Jacobian M H + g grad(M)^T, the deflated Newton step is the
    plain one scaled by 1 / (1 + grad(log M) . step), and the halving
    runs on max|M g|.
    """
    st = ws.st
    u = u0
    if start is None:
        g, du = _gradient_and_du(st, u)
        nfev = 1
    else:
        g, du = start
        nfev = 0
    log_m, dlog_m = ws.log_deflation(u, known)
    best = float(np.max(np.abs(g)))
    for _ in range(POLISH_MAX_STEPS):
        res = ws.residual(g)
        if res <= tol:
            break
        step = ws.newton_step(u, g, du, max(MINRES_RTOL, FORCING * tol / res))
        if not np.all(np.isfinite(step)):
            break
        if known:
            denom = 1.0 + float(np.sum(dlog_m * step))
            if denom == 0.0 or not math.isfinite(denom):
                break
            step = step / denom
        s = 1.0
        for _ in range(POLISH_MAX_HALVINGS):
            un = u - s * step
            if np.array_equal(un, u):
                # every further halving gives u again, which cannot lower the merit
                return u, g, du, nfev
            gn, dun = _gradient_and_du(st, un)
            log_mn, dlog_mn = ws.log_deflation(un, known)
            nfev += 1
            rn = float(np.max(np.abs(gn)))
            if _merit_below(rn, log_mn, best, log_m):
                break
            s *= 0.5
        else:
            break
        u, g, du, best, log_m, dlog_m = un, gn, dun, rn, log_mn, dlog_mn
    return u, g, du, nfev


def mountain_pass(
    st: ProblemState,
    tol: float = 1e-5,
    max_iter: int = 2000,
) -> SolveReport:
    """Min-max by ray selection: descend the energy's ray maximum.

    The rim value beta > 0 bounds the energy below on a whole sphere
    (_rim_value), so nothing is drawn; the endpoint e marches out
    the first sine ray until the energy turns negative.  From the maximum
    along the first sine's ray, the direct minimizer's step, with its own
    secant memory of the ray maxima and their gradients, is taken with
    each trial moved to its ray maximum, until the residual meets the
    gate max(100 tol, 1e-3) or a step fails; the Newton polish then
    starts from the gradient and D u at hand.  If it misses tol from
    under a gate above tol, the descent goes on from where it started,
    under a tenth of that point's residual.  The descent takes at most
    max_iter gradients; iterations counts them all.  rim_radius is the
    radius of the sphere on which beta bounds the energy.  The result
    satisfies energy(e) < 0 < beta <= energy_value; no positive rim, a
    ray maximum at energy <= 0 (or NaN), or a ray without one raises
    GeometryError.
    """
    _regime_gate(st, "mountain_pass", "superlinear")
    ws = _Workspace(st)
    beta, rho = _rim_value(ws)

    # D(s w0) == s (D w0) bitwise: s is a power of two
    (w0,), (dw0,) = ws.unit_sines(np.ones((1, 1)))
    s = 1.0
    for _ in range(80):
        endpoint_energy = float(_energy_rows(st, s * w0, s * dw0))
        if endpoint_energy < 0.0:
            break
        s *= 2.0
    else:
        raise GeometryError("no negative-energy endpoint within the ray budget")

    u, du = _ray_max(st, w0, dw0)
    E = float(_energy_rows(st, u, du))
    g = _gradient_rows(st, u, du)
    iterations, gate, polished, memory = 1, max(100.0 * tol, 1e-3), None, _SecantMemory()
    while True:
        if not E > 0.0:
            raise GeometryError(f"mountain-pass ray maximum at non-positive level {E}")
        res = ws.residual(g)
        descend = res > gate and iterations < max_iter
        step = _descend(ws, u, E, g, du, memory, ray=True) if descend else None
        if step is not None:
            u, E, du = step
            g = _gradient_rows(st, u, du)
            iterations += 1
            continue
        if polished is u:
            break  # the descent resumed from u found no step: keep u's polish
        z, gz, dz, nfev = _polish_root(ws, u, tol=tol, start=(g, du))
        iterations, polished = iterations + nfev, u
        if (res_z := ws.residual(gz)) <= tol or res > gate or gate <= tol:
            break
        gate = res / 10.0

    E = float(_energy_rows(st, z, dz))
    converged = res_z <= tol and E >= beta and sup_norm(z) > TRIVIAL_SUP
    return _report(
        st, z, E, res_z, iterations, converged, "mountain_pass",
        rim_value=beta, rim_radius=rho, endpoint_energy=endpoint_energy,
    )


def multiplicity_search(
    st: ProblemState,
    k: int,
    tol: float = 1e-8,
    seed: int = 0,
) -> MultiplicityReport:
    """Collect up to k distinct +-pairs of negative-energy critical points.

    The even, coercive sublinear energy has exactly one minimizing pair;
    the further pairs guaranteed by the symmetric min-max values are
    saddle points, so descent alone cannot reach them.  Starts are taken
    on stationary points of the energy along rays through nested sine
    spans (pure modes first, then seeded combinations), the first pair by
    descent and the rest by Newton on the field with the found pairs
    deflated away, finished by Newton on the plain gradient.  Pairs closer
    than the separation threshold to a known pair (under either sign) are
    discarded.
    """
    _regime_gate(st, "multiplicity_search", "sublinear")
    if not st.spec.is_even():
        raise ValueError("multiplicity_search requires an even antiderivative F")
    ws = _Workspace(st)
    p = st.params.p
    sep = DEFAULT_SEPARATION_SCALE * st.grid.T ** st.params.alpha
    rng = np.random.default_rng(seed)

    found: list[np.ndarray] = []
    reports: list[SolveReport] = []
    trials = 0
    budget = 15 * max(k, 1)
    n_modes = k + 2
    while len(found) < k and trials < budget:
        mode = trials % n_modes + 1
        if trials < n_modes:
            coeffs = np.zeros(mode)
            coeffs[-1] = 1.0
        else:
            coeffs = rng.standard_normal(mode)
            if not np.any(coeffs):
                coeffs[0] = 1.0
        trials += 1
        V, DV = ws.unit_sines(coeffs[None])
        # D(sigma v) == sigma (D v) bitwise: sigma is a power of two
        sigmas = 2.0 ** np.arange(3.0, -13.0, -1.0)[:, None]
        ray = _energy_rows(st, sigmas * V, sigmas * DV)
        u0 = float(sigmas[int(np.argmin(ray)), 0]) * V[0]

        if not found:
            rep = minimize_direct(st, GridFunction(u0, dirichlet=True), tol=tol, max_iter=4000)
            u, res, E = rep.solution.values, rep.residual, rep.energy_value
            iters = rep.iterations
            ok = rep.converged
        else:
            # stage 1: deflated Newton escapes the basins of the found pairs;
            # stage 2: undeflated Newton, since the deflation factor's
            # curvature can stall the first stage short of full tolerance
            g0, du0 = _gradient_and_du(st, u0)
            u, g, du, nfev1 = _polish_root(ws, u0, known=found, tol=tol, start=(g0, du0))
            # the deflated merit can fall while max|g| runs away; Newton
            # from such a point lands on whichever root chance picks
            if np.max(np.abs(g)) >= np.max(np.abs(g0)):
                u, g, du = u0, g0, du0
            u, g, du, nfev2 = _polish_root(ws, u, tol=tol, start=(g, du))
            res = ws.residual(g)
            E = float(_energy_rows(st, u, du))
            iters = 1 + nfev1 + nfev2
            ok = res <= tol

        if not ok or E >= 0.0 or sup_norm(u) <= 1e-8:
            continue
        if found:
            F = np.array(found)
            norms = _alpha_rows(st.ops, np.concatenate((u - F, u + F)), p)
            if any(min(a, b) < sep for a, b in zip(norms[: len(F)], norms[len(F) :])):
                continue
        found.append(u)
        reports.append(_report(st, u, E, res, iters, True, "multiplicity"))

    # one block of m rows per pair, so memory stays O(m n)
    m = len(found)
    F = np.array(found)
    dist = np.zeros((m, m))
    for i in range(m):
        dist[i] = _alpha_rows(st.ops, F[i] - F, p)
    return MultiplicityReport(
        pairs=reports,
        pairwise_distances=dist,
        converged_count=m,
        separation=sep,
        seed=seed,
    )


def regularity_check(st: ProblemState, u: GridFunction) -> RegularityResult:
    """Constancy of the right (1-alpha)-integral of the flux plus the
    running integral of f along a critical point.

    For 0 < alpha < 1/p a discrete weak solution satisfies, up to
    discretization error,

        I_right^(1-alpha)[ |D u|^(p-2) D u ](t) + int_0^t f(s, u(s)) ds = const,

    which is the almost-everywhere form of the boundary value problem.
    The returned deviation certifies the identity when it is small against
    |constant_estimate|; for non-critical u it is large.
    """
    a = st.params.alpha
    p = st.params.p
    if not a < 1.0 / p:
        raise ValueError(
            f"regularity_check requires alpha < 1/p, got alpha={a}, p={p}"
        )
    v = st.require_dirichlet(u)
    n = st.grid.n
    h = st.grid.h
    left_tf = _gl_operator(a - 1.0, st.grid)  # I^(1 - alpha)
    flux = phi(st.ops.left_deriv @ v, p)
    f = st.spec.f_values(st.grid.nodes, v)
    cumf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * h)])
    g_right = left_tf.T @ flux + cumf
    g_left = left_tf @ flux + cumf

    i0 = max(1, int(math.ceil(n / 10)))
    i1 = min(n - 1, int(math.floor(9 * n / 10)))
    central = g_right[i0 : i1 + 1]
    c = float(np.mean(central))
    dev = float(np.max(np.abs(central - c)))
    dev_full = float(np.max(np.abs(g_right[1:n] - c)))
    c_left = float(np.mean(g_left[i0 : i1 + 1]))
    dev_left = float(np.max(np.abs(g_left[i0 : i1 + 1] - c_left)))
    return RegularityResult(
        constant_estimate=c,
        deviation=dev,
        deviation_full_interior=dev_full,
        deviation_left_variant=dev_left,
    )
