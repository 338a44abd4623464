"""Property-verification engine: every quantitative identity and
inequality the operator calculus and the energy rest on, checked on
seeded random ensembles with machine-readable margin reports.

Margins are signed slacks normalized to the local scale, so 0 is the
pass boundary before tolerance: identities report minus the largest
normalized gap (tolerance 1e-12), inequalities the smallest normalized
right-minus-left slack (tolerance 0.05 at n = 256, 0.03 from n = 512),
and convergence statements minus the worst relative error together with
the error ratio under one grid doubling.  Ensembles are half smooth
(up to 8 random sine modes) and half rough (i.i.d. nodal noise); the
inequalities hold on the whole discrete space, not just on smooth
functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .energy import ProblemState, energy, gradient, monotonicity_gap
from .fracops import (
    MAX_GRID_CELLS,
    OpKind,
    OperatorSet,
    Toeplitz,
    alpha_norm,
    apply,
    build_operators,
    gamma,
    gl_weights,
)
from .grid import (
    FracParams,
    Grid,
    GridFunction,
    lp_norm,
    make_grid,
    sine_series,
    sup_norm,
    trapezoid_weights,
)
from .nonlinearity import sublinear_power

__all__ = ["PropertyId", "VerificationReport", "verify", "run_suite"]


class PropertyId(enum.Enum):
    SEMIGROUP = "SEMIGROUP"
    LEFT_INVERSE = "LEFT_INVERSE"
    IBP_EXACT = "IBP_EXACT"
    IBP_INTEGRAL = "IBP_INTEGRAL"
    RL_CAPUTO = "RL_CAPUTO"
    YOUNG_BOUND = "YOUNG_BOUND"
    POINCARE = "POINCARE"
    SUP_EMBED = "SUP_EMBED"
    EMBED_LQ = "EMBED_LQ"
    TRANSLATION_COMPACT = "TRANSLATION_COMPACT"
    MONOTONE_GAP = "MONOTONE_GAP"
    GRAD_FD = "GRAD_FD"
    EVEN_ENERGY = "EVEN_ENERGY"


IDENTITY_TOL = 1e-12
# GL operators are first-order accurate; the continuous constants are not
# exactly sharp discretely, hence the slack at moderate n.
def _ledger_tolerance(n: int) -> float:
    return 0.05 if n < 512 else 0.03


# error ratios below this count as converged-to-roundoff; their
# refinement ratio is reported as 0
_ROUNDOFF_FLOOR = 1e-13
_RATIO_CAP = 0.75


@dataclass
class VerificationReport:
    property: PropertyId
    status: str
    samples: int
    worst_margin: float
    bound_constant: Optional[float]
    tolerance_used: float
    passed: bool
    refinement_ratio: Optional[float] = None
    reason: str = ""


@dataclass(frozen=True)
class _Outcome:
    """What a checker measured: the margin and its tolerance, the bound
    constant if the property has one, and the refinement ratio, which
    gates the result only when ratio_cap is set."""

    margin: float
    tolerance: float
    bound: Optional[float] = None
    ratio: Optional[float] = None
    ratio_cap: Optional[float] = None


def _smooth(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Sine modes c[:-2] plus c[-2] cos(pi t/T) + c[-1]: smooth and free
    at both endpoints, realizable on any grid."""
    return sine_series(grid, c[:-2]) + c[-2] * np.cos(np.pi * grid.nodes / grid.T) + c[-1]


def _random_function(grid: Grid, rng: np.random.Generator, smooth: bool, dirichlet: bool) -> GridFunction:
    if not smooth:
        u = rng.standard_normal(grid.n + 1)
    elif dirichlet:
        u = sine_series(grid, rng.standard_normal(8))
    else:
        u = _smooth(grid, rng.standard_normal(10))
    return GridFunction(u, dirichlet=dirichlet)


def _ensemble(grid, rng, count, dirichlet):
    return [
        _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=dirichlet)
        for i in range(count)
    ]


def _default_state(params: FracParams, ops: OperatorSet) -> ProblemState:
    # canonical even sublinear family: q halfway between 1 and p
    return ProblemState(
        params=params, grid=ops.grid, ops=ops, spec=sublinear_power(q=(1.0 + params.p) / 2.0)
    )


def _semigroup_error(params, ops, samples, rng) -> float:
    grid = ops.grid
    a = params.alpha
    # the composed order 2a may exceed 1, so build its weights directly
    I2 = Toeplitz(gl_weights(-2.0 * a, grid.n) * grid.h ** (2.0 * a))
    worst = 0.0
    for u in _ensemble(grid, rng, samples, dirichlet=False):
        iu = apply(ops, OpKind.LEFT_INT, u)
        iiu = apply(ops, OpKind.LEFT_INT, iu)
        ref = I2 @ u.values
        err = lp_norm(iiu.values - ref, params.p, grid) / max(
            lp_norm(u, params.p, grid), 1e-300
        )
        worst = max(worst, err)
    return worst


def _refinement_check(error, params, ops, *args) -> _Outcome:
    """Convergence record of error(params, ops, *args): its value at n
    is the margin and its ratio from n to 2n the refinement ratio (0 at
    the roundoff floor), capped at _RATIO_CAP.  n runs first, so shared
    rng draws keep their order."""
    n = ops.grid.n
    if 2 * n > MAX_GRID_CELLS:
        raise ValueError(
            f"the refinement check doubles the grid, so n must be at most "
            f"{MAX_GRID_CELLS // 2}, got n={n}"
        )
    e1 = error(params, ops, *args)
    e2 = error(params, build_operators(params, make_grid(ops.grid.T, 2 * n)), *args)
    return _Outcome(
        -e1,
        _ledger_tolerance(n),
        ratio=0.0 if e1 <= _ROUNDOFF_FLOOR else e2 / e1,
        ratio_cap=_RATIO_CAP,
    )


def _left_inverse_error(params, ops, samples, rng) -> float:
    grid = ops.grid
    worst = 0.0
    for u in _ensemble(grid, rng, samples, dirichlet=False):
        v = u.values.copy()
        v[0] = 0.0  # vanishing at the left endpoint
        un = GridFunction(v)
        du = apply(ops, OpKind.LEFT_DERIV, apply(ops, OpKind.LEFT_INT, un))
        err = lp_norm(du.values - un.values, params.p, grid) / max(
            lp_norm(un, params.p, grid), 1e-300
        )
        worst = max(worst, err)
    return worst


def _check_ibp_exact(params, ops, samples, rng):
    grid = ops.grid
    h = grid.h
    worst = 0.0
    for _ in range(samples):
        u = _random_function(grid, rng, smooth=True, dirichlet=True)
        v = _random_function(grid, rng, smooth=False, dirichlet=True)
        lhs = float(np.sum(h * (ops.left_deriv @ u.values) * v.values))
        rhs = float(np.sum(h * u.values * (ops.right_deriv @ v.values)))
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, gap)
    return _Outcome(-worst, IDENTITY_TOL)


def _ibp_integral_gap(ops, pairs) -> float:
    """Worst relative gap of (I u, v) = (u, I_right v) in the trapezoid
    pairing over the (u, v) value pairs."""
    w = trapezoid_weights(ops.grid)
    worst = 0.0
    for u, v in pairs:
        lhs = float(np.sum(w * (ops.left_int @ u) * v))
        rhs = float(np.sum(w * u * (ops.right_int @ v)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst


def _ibp_integral_matched(params, ops, coeff_pairs) -> float:
    # the same smooth pairs on every grid, so refinement ratios compare
    # like with like
    g = ops.grid
    return _ibp_integral_gap(ops, ((_smooth(g, cu), _smooth(g, cv)) for cu, cv in coeff_pairs))


def _check_ibp_integral(params, ops, samples, rng):
    grid = ops.grid
    random_pairs = (
        (
            _random_function(grid, rng, smooth=True, dirichlet=False).values,
            _random_function(grid, rng, smooth=False, dirichlet=False).values,
        )
        for _ in range(samples)
    )
    gap = _ibp_integral_gap(ops, random_pairs)
    # refinement ratio on matched smooth pairs, identical at both resolutions
    coeff_pairs = [
        (rng.standard_normal(10), rng.standard_normal(10))
        for _ in range(max(8, samples // 4))
    ]
    return replace(_refinement_check(_ibp_integral_matched, params, ops, coeff_pairs), margin=-gap)


def _check_rl_caputo(params, ops, samples, rng):
    grid = ops.grid
    a = params.alpha
    worst = 0.0
    coef = 0.0 if a >= 1.0 else 1.0 / gamma(1.0 - a)
    for i in range(samples):
        u = _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=False)
        v = u.values.copy()
        if abs(v[0]) < 0.5:
            v[0] = 1.5  # the relation is only informative with u(0) != 0
        un = GridFunction(v)
        cap = apply(ops, OpKind.CAPUTO_LEFT, un).values
        rl = apply(ops, OpKind.LEFT_DERIV, un).values
        corr = v[0] * coef * grid.nodes[1:] ** (-a) if a < 1.0 else 0.0
        gap = np.abs(cap[1:] + corr - rl[1:])
        scale = np.maximum(np.abs(rl[1:]), 1.0)
        worst = max(worst, float(np.max(gap / scale)))
    return _Outcome(-worst, IDENTITY_TOL)


def _ensemble_bound(constant, dirichlet, small, large, params, ops, samples, rng):
    """small(u) <= C large(u) on the ensemble, C = constant(params); the
    margin is the smallest slack relative to the right side.  small and
    large are norms called as (ops, u, p)."""
    C = constant(params)
    worst = math.inf
    for u in _ensemble(ops.grid, rng, samples, dirichlet=dirichlet):
        rhs = C * large(ops, u, params.p)
        worst = min(worst, (rhs - small(ops, u, params.p)) / max(rhs, 1e-300))
    return _Outcome(worst, _ledger_tolerance(ops.grid.n), bound=C)


def _young_constant(params: FracParams) -> float:
    return params.T**params.alpha / gamma(params.alpha + 1.0)


def _sup_embed_constant(params: FracParams) -> float:
    a, p, q = params.alpha, params.p, params.q_conj
    return params.T ** (a - 1.0 / p) / (gamma(a) * ((a - 1.0) * q + 1.0) ** (1.0 / q))


def _lp(ops, u, p) -> float:
    return lp_norm(u, p, ops.grid)


def _lp_of_integral(ops, u, p) -> float:
    return lp_norm(apply(ops, OpKind.LEFT_INT, u), p, ops.grid)


def _sup(ops, u, p) -> float:
    return sup_norm(u)


def _alpha(ops, u, p) -> float:
    # the name alpha_norm is looked up per call, not bound into the
    # checker table, so replacing it in this module (say, to trace it)
    # reaches these checks too
    return alpha_norm(ops, u, p)


def _check_embed_lq(params, ops, samples, rng):
    """Interpolation bound ||u||_q^q <= ||u||_inf^(q-p) ||u||_p^p on a
    geometric ladder of q, plus the empirical embedding constant
    max ||u||_q / ||u||_{alpha,p}, which is reported, not asserted.

    For alpha*p < 1 the ladder stops at 0.9 * p/(1 - alpha*p), the top of
    the compact-embedding range; otherwise the embedding reaches every
    finite q and the ladder is capped at 3p.
    """
    grid = ops.grid
    p = params.p
    if params.alpha * p < 1.0:
        q_hi = 0.9 * p / (1.0 - params.alpha * p)
    else:
        q_hi = 3.0 * p
    qs = np.geomspace(p, max(q_hi, p * 1.01), 4)
    worst = math.inf
    cmax = 0.0
    w = trapezoid_weights(grid)
    for u in _ensemble(grid, rng, samples, dirichlet=True):
        an = alpha_norm(ops, u, p)
        for q in qs:
            lq_p = float(np.sum(w * np.abs(u.values) ** q))
            rhs = sup_norm(u) ** (q - p) * float(np.sum(w * np.abs(u.values) ** p))
            worst = min(worst, (rhs - lq_p) / max(rhs, 1e-300))
            if an > 0:
                cmax = max(cmax, lq_p ** (1.0 / q) / an)
    return _Outcome(worst, 1e-10, bound=cmax)


def translation_bound(params: FracParams, shift: float) -> float:
    """Right side of the translation estimate derived from the Hoelder
    split of u(t+h) - u(t) = I^a[D^a u](t+h) - I^a[D^a u](t):

        ||tau_h u - u||_p^p <= [ (2 h^a / G(a+1))^p
                                 + T^(a(p-1)) h^a / G(a+1)^p ] ||u||_{a,p}^p.

    The first term collects the two kernel pieces on [0, T-h], the second
    the cut-off tail where the translation is zero.
    """
    a, p, T = params.alpha, params.p, params.T
    g1 = gamma(a + 1.0)
    return float(
        (
            (2.0 * shift**a / g1) ** p
            + T ** (a * (p - 1.0)) * shift**a / g1**p
        )
        ** (1.0 / p)
    )


def _check_translation(params, ops, samples, rng):
    grid = ops.grid
    p = params.p
    n = grid.n
    members = []
    count = max(samples, 4)
    for u in _ensemble(grid, rng, count, dirichlet=True):
        an = alpha_norm(ops, u, p)
        if an > 0:
            members.append(GridFunction(u.values / an, dirichlet=True))
    shifts = [max(1, n // 16), max(1, n // 32), max(1, n // 64)]
    sups = []
    margins = []
    bound = None
    for m in shifts:
        h_shift = m * grid.h
        s = 0.0
        for u in members:
            tu = np.zeros(n + 1)
            tu[: n + 1 - m] = u.values[m:]
            s = max(s, lp_norm(tu - u.values, p, grid))
        sups.append(s)
        bound = translation_bound(params, h_shift)
        margins.append((bound - s) / bound)
    # monotone decay of the sup as the shift shrinks
    for a, b in zip(sups, sups[1:]):
        margins.append(a - b)  # family is normalized, so absolute slack
    ratio = sups[-1] / sups[-2] if sups[-2] > 0 else 0.0
    return _Outcome(float(min(margins)), _ledger_tolerance(n), bound=bound, ratio=ratio)


def _check_monotone_gap(params, ops, samples, rng):
    grid = ops.grid
    st = _default_state(params, ops)
    worst = math.inf
    for i in range(samples):
        u = _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=True)
        v = _random_function(grid, rng, smooth=(i % 2 == 1), dirichlet=True)
        gap = monotonicity_gap(st, u, v)
        scale = (
            alpha_norm(ops, u, params.p) ** params.p
            + alpha_norm(ops, v, params.p) ** params.p
        )
        worst = min(worst, gap / (1.0 + scale))
    return _Outcome(worst, IDENTITY_TOL)


def _check_grad_fd(params, ops, samples, rng):
    """Directional derivatives of the energy against the gradient pairing.

    Samples whose nodal values (or derivative samples) sit within ~100*eps
    of zero are redrawn: the integrands have |.|^(q-1)-type kinks there and
    central differences of the energy lose their O(eps^2) validity, which
    would measure the instrument, not the gradient.
    """
    grid = ops.grid
    st = _default_state(params, ops)
    h = grid.h
    eps = 1e-6
    clearance = 100.0 * eps
    worst = 0.0
    for _ in range(samples):
        for _try in range(50):
            u = _random_function(grid, rng, smooth=True, dirichlet=True)
            du = ops.left_deriv @ u.values
            if (
                np.min(np.abs(u.values[1:-1])) > clearance * max(1.0, sup_norm(u))
                and np.min(np.abs(du[1:])) > clearance * np.max(np.abs(du))
            ):
                break
        v = _random_function(grid, rng, smooth=True, dirichlet=True)
        g = gradient(st, u).values
        pair = float(np.sum(h * g * v.values))
        ep = energy(st, GridFunction(u.values + eps * v.values, dirichlet=True))
        em = energy(st, GridFunction(u.values - eps * v.values, dirichlet=True))
        fd = (ep - em) / (2.0 * eps)
        worst = max(worst, abs(fd - pair) / max(abs(fd), abs(pair), 1e-12))
    return _Outcome(-worst, 1e-5 if params.p >= 2.0 else 1e-4)


def _check_even_energy(params, ops, samples, rng):
    grid = ops.grid
    st = _default_state(params, ops)
    worst = 0.0
    for i in range(samples):
        u = _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=True)
        um = GridFunction(-u.values, dirichlet=True)
        e1, e2 = energy(st, u), energy(st, um)
        worst = max(worst, abs(e1 - e2) / max(abs(e1), 1.0))
        g1, g2 = gradient(st, u).values, gradient(st, um).values
        scale = max(float(np.max(np.abs(g1))), 1.0)
        worst = max(worst, float(np.max(np.abs(g1 + g2))) / scale)
    return _Outcome(-worst, IDENTITY_TOL)


def _precondition(prop: PropertyId, params: FracParams) -> Optional[str]:
    if prop is PropertyId.SUP_EMBED and not params.alpha > 1.0 / params.p:
        return f"requires alpha > 1/p (alpha={params.alpha}, p={params.p})"
    return None


_CHECKERS = {
    PropertyId.SEMIGROUP: partial(_refinement_check, _semigroup_error),
    PropertyId.LEFT_INVERSE: partial(_refinement_check, _left_inverse_error),
    PropertyId.IBP_EXACT: _check_ibp_exact,
    PropertyId.IBP_INTEGRAL: _check_ibp_integral,
    PropertyId.RL_CAPUTO: _check_rl_caputo,
    PropertyId.YOUNG_BOUND: partial(_ensemble_bound, _young_constant, False, _lp_of_integral, _lp),
    PropertyId.POINCARE: partial(_ensemble_bound, _young_constant, True, _lp, _alpha),
    PropertyId.SUP_EMBED: partial(_ensemble_bound, _sup_embed_constant, True, _sup, _alpha),
    PropertyId.EMBED_LQ: _check_embed_lq,
    PropertyId.TRANSLATION_COMPACT: _check_translation,
    PropertyId.MONOTONE_GAP: _check_monotone_gap,
    PropertyId.GRAD_FD: _check_grad_fd,
    PropertyId.EVEN_ENERGY: _check_even_energy,
}

# no property may be silently dropped from the suite
assert set(_CHECKERS) == set(PropertyId), "checker table out of sync with PropertyId"


def _verify_with_rng(prop, params, ops, samples, rng) -> VerificationReport:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    out = _CHECKERS[prop](params, ops, samples, rng)
    margin = float(out.margin)
    tol = float(out.tolerance)
    # an ensemble whose every sample overflowed leaves its worst margin at
    # the +-inf start value (min/max drop NaN), so it must not pass
    passed = (
        math.isfinite(margin)
        and margin >= -tol
        and (out.ratio_cap is None or out.ratio <= out.ratio_cap)
    )
    return VerificationReport(
        property=prop,
        status="passed" if passed else "failed",
        samples=samples,
        worst_margin=margin,
        bound_constant=out.bound,
        tolerance_used=tol,
        passed=passed,
        refinement_ratio=None if out.ratio is None else float(out.ratio),
    )


def verify(
    prop: PropertyId,
    params: FracParams,
    grid: Grid,
    samples: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Check a single property; precondition violations raise.  The report
    equals run_suite's record of prop for [params] with the same seed."""
    reason = _precondition(prop, params)
    if reason is not None:
        raise ValueError(f"{prop.value}: {reason}")
    rng = np.random.default_rng([seed, 0, list(PropertyId).index(prop)])
    return _verify_with_rng(prop, params, build_operators(params, grid), samples, rng)


def run_suite(
    params_list: list[FracParams],
    grid: Grid,
    seed: int = 0,
    samples: int = 100,
) -> list[VerificationReport]:
    """Run every property for each parameter set, in PropertyId order,
    on one operator set per parameter set.

    Properties whose preconditions fail are emitted with status
    "skipped" and the reason, never dropped.  Identical (seed, config)
    give bit-identical reports.
    """
    reports = []
    for pi, params in enumerate(params_list):
        ops = build_operators(params, grid)
        for prop in PropertyId:
            reason = _precondition(prop, params)
            if reason is not None:
                reports.append(VerificationReport(
                    property=prop,
                    status="skipped",
                    samples=0,
                    worst_margin=0.0,
                    bound_constant=None,
                    tolerance_used=0.0,
                    passed=False,
                    reason=reason,
                ))
                continue
            rng = np.random.default_rng([seed, pi, list(PropertyId).index(prop)])
            reports.append(_verify_with_rng(prop, params, ops, samples, rng))
    return reports
