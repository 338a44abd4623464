"""Constructive solution finders: direct minimization, mountain pass,
deflated multiplicity search, and the almost-everywhere identity check.

Every metric here is a node-weighted D^T diag(w) D, solved in closed form
from the Toeplitz structure (see _Workspace), so changing its weights
costs no matrix work.  The direct minimizer descends (Armijo backtracking,
c1 = 1e-4, shrink 0.5, initial step 1) in the lagged-diffusivity metric
rebuilt at every iterate from the flux's slopes at D u
(_Workspace.descent_weights): it follows the curvature of the p-energy,
so its iteration count stays flat in p and n, and at p = 2 it is the
metric of the linear part, D^T diag(wd) D / h.  The mountain-pass sweeps
descend in that fixed linear-part metric.  Critical points that are not
minima (the higher symmetric pairs, and the mountain-pass maximizer) are
finished by one backtracking Newton engine (_polish_root).  Its steps
come from MINRES on Hessian-vector products, preconditioned by the
closed-form metric with the Hessian's own flux weights, so no dense
matrix is formed.  The search for the higher pairs first runs it on the
deflated field, whose Newton step is the plain one times a scalar.

Every evaluation goes through the row layer (energy._energy_rows,
energy._gradient_rows, fracops._alpha_rows) on pinned arrays and the D
images at hand.  The endpoint march and the multiplicity rays take one
D v and scale it: their scales are powers of two, and D(2^k v) equals
2^k (D v) bitwise, since every step of the FFT product is exact under
such a scale (short of overflow and underflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    ProblemState,
    _energy_rows,
    _gradient_and_du,
    _gradient_rows,
    _residual_from_gradient,
    basis_alpha_norms,
    phi,
)
from .fracops import Toeplitz, _alpha_rows, _blocks, _rows, gl_weights
from .grid import GridFunction, sine_series, sup_norm
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
POLISH_MAX_HALVINGS = 30
ARMIJO_MAX_HALVINGS = 60
RIM_DIRECTIONS = 40
MINRES_RTOL = 1e-12
MINRES_MAX_ITER = 200
PRECOND_FLOOR = 1e-12


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
    seed: int
    eps_reg_used: float
    trivial: bool
    rim_value: Optional[float] = None
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
    """

    def __init__(self, st: ProblemState):
        self.st = st
        n = st.grid.n
        r = np.zeros(n + 1)
        r[1:n] = st.ops.left_deriv.col[n - 1 : 0 : -1]
        self._yr = (st.ops.right_int @ r)[1:n]
        self.linear_weights = st.ops.deriv_quad_weights / st.grid.h
        self.basis_norms = basis_alpha_norms(st)

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
            slope = (p - 1.0) * np.abs(s) ** (p - 2.0)
        else:
            slope = (s * s + st.eps_reg * st.eps_reg) ** ((p - 2.0) / 2.0)
        w = np.zeros_like(du)
        w[1:] = self.linear_weights[1:] * slope
        return np.maximum(w, PRECOND_FLOOR * np.max(w))

    def residual(self, g: np.ndarray) -> float:
        """Weak residual of the point whose gradient is g."""
        return _residual_from_gradient(self.st, g, self.basis_norms)

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

    def newton_step(self, u: np.ndarray, g: np.ndarray, du: np.ndarray) -> np.ndarray:
        """H^{-1} g for the Hessian H at u (boundary rows zero), by MINRES.

        H v = D^T(w D v) - f_u v with w = wd phi'(D u) / h, so the metric
        with the same weights is its exact principal part and preconditions
        it for every p; weights are floored at PRECOND_FLOOR of the largest
        to keep that metric positive definite where phi' vanishes (p > 2).
        du is D u.
        """
        st = self.st
        p = st.params.p
        eps = st.eps_reg
        # node 0 gets weight 0: it only multiplies (D v)_0 = wd_0 v_0, which
        # is 0 for a pinned v, and there D u vanishes, where the p < 2
        # formula at eps_reg = 0 is 0^((p-4)/2) * 0 = NaN
        s = du[1:]
        dphi = np.zeros_like(du)
        if p >= 2.0:
            dphi[1:] = (p - 1.0) * np.abs(s) ** (p - 2.0)
        else:
            dphi[1:] = (s * s + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps)
        w = st.ops.deriv_quad_weights * dphi / st.grid.h
        fu = st.spec.fu_values(st.grid.nodes, u)

        def hess(v: np.ndarray) -> np.ndarray:
            hv = st.ops.right_deriv @ (w * (st.ops.left_deriv @ v)) - fu * v
            hv[0] = hv[-1] = 0.0
            return hv

        return _minres(hess, g, self.metric_solver(np.maximum(w, PRECOND_FLOOR * np.max(w))))


def _minres(A, b: np.ndarray, M) -> np.ndarray:
    """Preconditioned MINRES (Paige & Saunders, SIAM J. Numer. Anal. 1975).

    Solves A x = b for a symmetric, possibly indefinite A given as a
    product, with M applying the inverse of a symmetric positive definite
    preconditioner.  Stops once the preconditioned residual is
    MINRES_RTOL of its start, or after MINRES_MAX_ITER iterations.  Inner
    products use np.sum, so no threaded BLAS call enters the result.  A
    breakdown (singular A, indefinite M) or a non-finite value gives NaN.
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
        y = A(v)
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
        if phibar <= MINRES_RTOL * beta1:
            break
    return x if np.all(np.isfinite(x)) else failed


def _armijo_step(
    st: ProblemState,
    u: np.ndarray,
    E: float,
    d: np.ndarray,
    slope: float,
) -> tuple[np.ndarray, float, np.ndarray]:
    """The last trial point u + s d, its energy and its derivative image,
    halving s from 1 until the Armijo condition holds."""
    s = 1.0
    for _ in range(ARMIJO_MAX_HALVINGS):
        un = u + s * d
        un[0] = 0.0
        un[-1] = 0.0
        dun = st.ops.left_deriv @ un
        En = float(_energy_rows(st, un, dun))
        if En <= E + ARMIJO_C1 * s * slope:
            break
        s *= ARMIJO_SHRINK
    return un, En, dun


def _sublinear_gate(st: ProblemState, caller: str) -> None:
    spec = st.spec
    if spec.family is Family.SUPERLINEAR_POWER:
        raise ValueError(
            f"{caller} requires a sublinear-regime nonlinearity; "
            f"got SUPERLINEAR_POWER (mu={spec.mu})"
        )
    if spec.family is Family.SUBLINEAR_POWER and not spec.q < st.params.p:
        raise ValueError(
            f"{caller} requires exponent q < p, got q={spec.q}, p={st.params.p}"
        )


def _superlinear_gate(st: ProblemState, caller: str) -> None:
    spec = st.spec
    if spec.family is Family.SUBLINEAR_POWER:
        raise ValueError(
            f"{caller} requires a superlinear-regime nonlinearity; "
            f"got SUBLINEAR_POWER (q={spec.q})"
        )
    if spec.family is Family.SUPERLINEAR_POWER and not spec.mu > st.params.p:
        raise ValueError(
            f"{caller} requires exponent mu > p, got mu={spec.mu}, p={st.params.p}"
        )


def minimize_direct(
    st: ProblemState,
    init: GridFunction,
    tol: float = 1e-6,
    max_iter: int = 2000,
    seed: int = 0,
) -> SolveReport:
    """Armijo descent on the energy in the p-adapted metric.

    Each direction solves D^T diag(w) D d = -g with the weights
    _Workspace.descent_weights builds from D u.  The start's energy and
    gradient share its derivative image, and the line search keeps the
    image of the point it accepts for the next gradient, so an iteration
    costs one Toeplitz product for the gradient, two for the metric solve
    and one per energy call of the line search.

    Requires a sublinear-regime nonlinearity (coercive energy).  On
    convergence the weak residual is at or below tol; starting from a
    small multiple of a smooth bump lands at a nontrivial negative-energy
    minimizer, while starting from zero stays at the trivial critical
    point, which the report flags.
    """
    _sublinear_gate(st, "minimize_direct")
    ws = _Workspace(st)
    u = init.values.copy()
    u[0] = 0.0
    u[-1] = 0.0
    du = st.ops.left_deriv @ u
    E = float(_energy_rows(st, u, du))
    res = math.inf
    steps = 0
    while True:
        g = _gradient_rows(st, u, du)
        res = ws.residual(g)
        if res <= tol or steps >= max_iter:
            break
        d = -ws.metric_solver(ws.descent_weights(du))(g)
        slope = float(np.sum(st.grid.h * g * d))
        if not slope < 0.0:  # no descent direction, or NaN
            break
        un, En, dun = _armijo_step(st, u, E, d, slope)
        if not En <= E:  # the line search failed; keep the last accepted point
            break
        u, E, du = un, En, dun
        steps += 1
    sol = GridFunction(u, dirichlet=True)
    return SolveReport(
        solution=sol,
        energy_value=E,
        residual=res,
        iterations=steps,
        converged=res <= tol,
        method="direct",
        seed=seed,
        eps_reg_used=st.eps_reg,
        trivial=sup_norm(sol) <= TRIVIAL_SUP,
    )


def _unit_sines(st: ProblemState, coeffs: np.ndarray) -> np.ndarray:
    """The sine series of each coefficient row, pinned and scaled to unit
    alpha-norm."""
    V = sine_series(st.grid, coeffs)
    V[:, 0] = V[:, -1] = 0.0
    norms = np.array(_alpha_rows(st.ops, V, st.params.p))
    if np.any(norms <= 0.0):
        raise ValueError("cannot normalize the zero function")
    return V / norms[:, None]


def _redistribute(path: list[np.ndarray]) -> list[np.ndarray]:
    """Resample the polygonal path at uniform chord length.

    Keeps the states a connected chain from 0 to the far endpoint; without
    this the free states drain into the two basins and the running maximum
    ceases to witness the min-max level.
    """
    P = np.asarray(path)
    chords = np.sqrt(((P[1:] - P[:-1]) ** 2).sum(axis=1))
    s = np.concatenate([[0.0], np.cumsum(chords)])
    total = s[-1]
    if total <= 0.0:
        return path
    s /= total
    targets = np.linspace(0.0, 1.0, len(path))
    out = [path[0]]
    for tgt in targets[1:-1]:
        k = min(max(int(np.searchsorted(s, tgt)) - 1, 0), len(path) - 2)
        width = s[k + 1] - s[k]
        th = (tgt - s[k]) / width if width > 0 else 0.0
        out.append((1.0 - th) * P[k] + th * P[k + 1])
    out.append(path[-1])
    return out


def _rim_value(st: ProblemState, rng: np.random.Generator) -> float:
    """Smallest sampled energy on the sphere of radius rho, shrinking rho
    until that minimum is positive."""
    rho = 0.1 * st.grid.T ** st.params.alpha
    for _ in range(80):
        C = rng.standard_normal((RIM_DIRECTIONS, 6))
        C[~C.any(axis=1), 0] = 1.0
        worst = math.inf
        for start, stop in _blocks(st.grid, RIM_DIRECTIONS):
            X = rho * _unit_sines(st, C[start:stop])
            for e in _energy_rows(st, X, _rows(st.ops.left_deriv, X)).tolist():
                worst = min(worst, e)
        if worst > 0.0:
            return float(worst)
        rho *= 0.5
    raise GeometryError("no positive rim found: energy is not positive near 0")


def _merit_below(r: float, log_m: float, best: float, best_log_m: float) -> bool:
    """Whether r e^log_m < best e^best_log_m, without overflow; equal
    factors (always, without deflation) compare r < best exactly."""
    d = log_m - best_log_m
    return r * math.exp(d) < best if d <= 0.0 else r < best * math.exp(-d)


def _polish_root(ws: _Workspace, u0: np.ndarray, known=()) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton polish of a critical point near the pinned u0.

    Each step solves the Hessian system by preconditioned MINRES
    (_Workspace.newton_step, on the D u its gradient took) and halves
    the step until max|g| decreases.  The polish ends when no step length
    decreases it (the roundoff floor; a halved step that no longer moves u
    ends it at once), after POLISH_MAX_STEPS steps, or when the Newton
    solve breaks down or is not finite; it returns the best iterate, its
    gradient and the number of gradient evaluations.

    With known pairs the field is deflated to M g, M the product of
    (1 + ||u -+ u_k||^-p), so the known pairs stop being roots (Farrell,
    Birkisson & Funke, SIAM J. Sci. Comput. 2015).  By Sherman-Morrison
    on its Jacobian M H + g grad(M)^T, the deflated Newton step is the
    plain one scaled by 1 / (1 + grad(log M) . step), and the halving
    runs on max|M g|.
    """
    st = ws.st
    u = u0
    g, du = _gradient_and_du(st, u)
    log_m, dlog_m = ws.log_deflation(u, known)
    best = float(np.max(np.abs(g)))
    nfev = 1
    for _ in range(POLISH_MAX_STEPS):
        step = ws.newton_step(u, g, du)
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
                return u, g, nfev
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
    return u, g, nfev


def mountain_pass(
    st: ProblemState,
    path_points: int = 21,
    tol: float = 1e-5,
    max_iter: int = 2000,
    seed: int = 0,
) -> SolveReport:
    """Min-max search along a deforming path from 0 to a negative endpoint.

    The rim value beta > 0 is certified by sampling a small sphere, the
    endpoint e by marching out the first sine ray until the energy turns
    negative.  Each sweep evaluates the whole path as one row block
    (energy.py's row body on one batched product), applies one Armijo
    descent step to the path's maximal-energy state (endpoints fixed)
    and re-equidistributes the chain; once the maximizer's residual is
    small its critical point is polished by Newton steps on the gradient.
    The returned value satisfies energy(e) < 0 < beta <= energy_value; a
    path whose top state falls to energy <= 0 (or NaN) raises
    GeometryError.
    """
    _superlinear_gate(st, "mountain_pass")
    ws = _Workspace(st)
    rng = np.random.default_rng(seed)
    beta = _rim_value(st, rng)

    # D(s w0) == s (D w0) bitwise: s is a power of two
    w0 = _unit_sines(st, np.ones((1, 1)))[0]
    dw0 = st.ops.left_deriv @ w0
    s = 1.0
    for _ in range(80):
        endpoint_energy = float(_energy_rows(st, s * w0, s * dw0))
        if endpoint_energy < 0.0:
            break
        s *= 2.0
    else:
        raise GeometryError("no negative-energy endpoint within the ray budget")
    e = s * w0

    lams = np.linspace(0.0, 1.0, path_points)
    path = [lam * e for lam in lams]
    polish_gate = max(100.0 * tol, 1e-3)
    sweeps = 0
    res = math.inf
    kmax = 1
    for sweeps in range(max_iter):
        P = np.array(path)
        DP = _rows(st.ops.left_deriv, P)
        energies = _energy_rows(st, P, DP).tolist()
        kmax = 1 + int(np.argmax(energies[1:-1]))
        if not energies[kmax] > 0.0:
            raise GeometryError(f"mountain-pass path collapsed to top energy {energies[kmax]}")
        z = path[kmax]
        g = _gradient_rows(st, z, DP[kmax])
        del DP  # held through the step, the block's images raised peak RSS
        res = ws.residual(g)
        if res <= polish_gate:
            break
        d = -ws.metric_solver(ws.linear_weights)(g)
        slope = float(np.sum(st.grid.h * g * d))
        zn, _, _ = _armijo_step(st, z, energies[kmax], d, slope)
        path[kmax] = zn
        path = _redistribute(path)

    z, g, nfev = _polish_root(ws, path[kmax])
    sol = GridFunction(z, dirichlet=True)
    res = ws.residual(g)
    E = float(_energy_rows(st, z, st.ops.left_deriv @ z))
    converged = res <= tol and E >= beta and sup_norm(sol) > TRIVIAL_SUP
    return SolveReport(
        solution=sol,
        energy_value=E,
        residual=res,
        iterations=sweeps + nfev,
        converged=converged,
        method="mountain_pass",
        seed=seed,
        eps_reg_used=st.eps_reg,
        trivial=sup_norm(sol) <= TRIVIAL_SUP,
        rim_value=beta,
        endpoint_energy=endpoint_energy,
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
    _sublinear_gate(st, "multiplicity_search")
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
        v = _unit_sines(st, coeffs[None])[0]
        # D(sigma v) == sigma (D v) bitwise: sigma is a power of two
        sigmas = 2.0 ** np.arange(3.0, -13.0, -1.0)[:, None]
        ray = _energy_rows(st, sigmas * v, sigmas * (st.ops.left_deriv @ v))
        u0 = float(sigmas[int(np.argmin(ray)), 0]) * v

        if not found:
            rep = minimize_direct(
                st, GridFunction(u0, dirichlet=True), tol=tol, max_iter=4000, seed=seed
            )
            u, res, E = rep.solution.values, rep.residual, rep.energy_value
            iters = rep.iterations
            ok = rep.converged
        else:
            # stage 1: deflated Newton escapes the basins of the found pairs;
            # stage 2: undeflated Newton, since the deflation factor's
            # curvature can stall the first stage short of full tolerance
            u, g, nfev1 = _polish_root(ws, u0, known=found)
            # the deflated merit can fall while max|g| runs away; Newton
            # from such a point lands on whichever root chance picks
            if np.max(np.abs(g)) >= np.max(np.abs(_gradient_and_du(st, u0)[0])):
                u = u0
            u, g, nfev2 = _polish_root(ws, u)
            res = ws.residual(g)
            E = float(_energy_rows(st, u, st.ops.left_deriv @ u))
            iters = nfev1 + nfev2
            ok = res <= tol

        if not ok or E >= 0.0 or sup_norm(u) <= 1e-8:
            continue
        if found:
            F = np.array(found)
            norms = _alpha_rows(st.ops, np.concatenate((u - F, u + F)), p)
            if any(min(a, b) < sep for a, b in zip(norms[: len(F)], norms[len(F) :])):
                continue
        found.append(u)
        reports.append(
            SolveReport(
                solution=GridFunction(u, dirichlet=True),
                energy_value=E,
                residual=res,
                iterations=iters,
                converged=True,
                method="multiplicity",
                seed=seed,
                eps_reg_used=st.eps_reg,
                trivial=False,
            )
        )

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
    order = 1.0 - a
    left_tf = Toeplitz(gl_weights(-order, n) * h**order)
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
