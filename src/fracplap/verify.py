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
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .energy import ProblemState, energy, gradient, monotonicity_gap
from .fracops import (
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


def _random_function(grid: Grid, rng: np.random.Generator, smooth: bool, dirichlet: bool) -> GridFunction:
    t = grid.nodes
    T = grid.T
    if smooth:
        c = rng.standard_normal(8)
        u = np.zeros_like(t)
        for j, cj in enumerate(c, start=1):
            u += cj * np.sin(j * np.pi * t / T)
        if not dirichlet:
            u = u + rng.standard_normal() * np.cos(np.pi * t / T) + rng.standard_normal()
    else:
        u = rng.standard_normal(len(t))
    return GridFunction(u, dirichlet=dirichlet)


def _ensemble(grid, rng, count, dirichlet):
    return [
        _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=dirichlet)
        for i in range(count)
    ]


def _default_state(params: FracParams, grid: Grid, ops: OperatorSet) -> ProblemState:
    # canonical even sublinear family: q halfway between 1 and p
    return ProblemState(
        params=params, grid=grid, ops=ops, spec=sublinear_power(q=(1.0 + params.p) / 2.0)
    )


def _semigroup_error(params, grid, samples, rng) -> float:
    ops = build_operators(params, grid)
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


def _refinement_check(error, params, grid, *args):
    """Convergence record of error(params, grid, *args): its value at n
    is the margin and its ratio from n to 2n the refinement ratio (0 at
    the roundoff floor).  n runs first, so shared rng draws keep their
    order."""
    e1 = error(params, grid, *args)
    e2 = error(params, make_grid(grid.T, 2 * grid.n), *args)
    return dict(
        worst_margin=-e1,
        bound_constant=None,
        tolerance_used=_ledger_tolerance(grid.n),
        refinement_ratio=0.0 if e1 <= _ROUNDOFF_FLOOR else e2 / e1,
    )


def _left_inverse_error(params, grid, samples, rng) -> float:
    ops = build_operators(params, grid)
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


def _check_ibp_exact(params, grid, samples, rng):
    ops = build_operators(params, grid)
    h = grid.h
    worst = 0.0
    for _ in range(samples):
        u = _random_function(grid, rng, smooth=True, dirichlet=True)
        v = _random_function(grid, rng, smooth=False, dirichlet=True)
        lhs = float(np.sum(h * (ops.left_deriv @ u.values) * v.values))
        rhs = float(np.sum(h * u.values * (ops.right_deriv @ v.values)))
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, gap)
    return dict(
        worst_margin=-worst,
        bound_constant=None,
        tolerance_used=IDENTITY_TOL,
        refinement_ratio=None,
    )


def _smooth_pair(grid, coeffs_u, coeffs_v):
    """The same two smooth functions realized on any grid, so refinement
    ratios compare like with like."""
    t = grid.nodes
    T = grid.T
    def build(c):
        u = np.zeros_like(t)
        for j, cj in enumerate(c[:-2], start=1):
            u += cj * np.sin(j * np.pi * t / T)
        return u + c[-2] * np.cos(np.pi * t / T) + c[-1]
    return build(coeffs_u), build(coeffs_v)


def _ibp_integral_gap(params, grid, pairs) -> float:
    """Worst relative gap of (I u, v) = (u, I_right v) in the trapezoid
    pairing over the (u, v) value pairs."""
    ops = build_operators(params, grid)
    w = trapezoid_weights(grid)
    worst = 0.0
    for u, v in pairs:
        lhs = float(np.sum(w * (ops.left_int @ u) * v))
        rhs = float(np.sum(w * u * (ops.right_int @ v)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return worst


def _ibp_integral_matched(params, grid, coeff_pairs) -> float:
    return _ibp_integral_gap(
        params, grid, (_smooth_pair(grid, cu, cv) for cu, cv in coeff_pairs)
    )


def _check_ibp_integral(params, grid, samples, rng):
    random_pairs = (
        (
            _random_function(grid, rng, smooth=True, dirichlet=False).values,
            _random_function(grid, rng, smooth=False, dirichlet=False).values,
        )
        for _ in range(samples)
    )
    gap = _ibp_integral_gap(params, grid, random_pairs)
    # refinement ratio on matched smooth pairs, identical at both resolutions
    coeff_pairs = [
        (rng.standard_normal(10), rng.standard_normal(10))
        for _ in range(max(8, samples // 4))
    ]
    return dict(
        _refinement_check(_ibp_integral_matched, params, grid, coeff_pairs),
        worst_margin=-gap,
    )


def _check_rl_caputo(params, grid, samples, rng):
    ops = build_operators(params, grid)
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
    return dict(
        worst_margin=-worst,
        bound_constant=None,
        tolerance_used=IDENTITY_TOL,
        refinement_ratio=None,
    )


def _check_young(params, grid, samples, rng):
    ops = build_operators(params, grid)
    C = params.T**params.alpha / gamma(params.alpha + 1.0)
    worst = math.inf
    for u in _ensemble(grid, rng, samples, dirichlet=False):
        iu = apply(ops, OpKind.LEFT_INT, u)
        rhs = C * lp_norm(u, params.p, grid)
        lhs = lp_norm(iu, params.p, grid)
        worst = min(worst, (rhs - lhs) / max(rhs, 1e-300))
    return dict(
        worst_margin=worst,
        bound_constant=C,
        tolerance_used=_ledger_tolerance(grid.n),
        refinement_ratio=None,
    )


def _check_poincare(params, grid, samples, rng):
    ops = build_operators(params, grid)
    C = params.T**params.alpha / gamma(params.alpha + 1.0)
    worst = math.inf
    for u in _ensemble(grid, rng, samples, dirichlet=True):
        rhs = C * alpha_norm(ops, u, params.p)
        lhs = lp_norm(u, params.p, grid)
        worst = min(worst, (rhs - lhs) / max(rhs, 1e-300))
    return dict(
        worst_margin=worst,
        bound_constant=C,
        tolerance_used=_ledger_tolerance(grid.n),
        refinement_ratio=None,
    )


def _sup_embed_constant(params: FracParams) -> float:
    a, p, q = params.alpha, params.p, params.q_conj
    return params.T ** (a - 1.0 / p) / (gamma(a) * ((a - 1.0) * q + 1.0) ** (1.0 / q))


def _check_sup_embed(params, grid, samples, rng):
    ops = build_operators(params, grid)
    C = _sup_embed_constant(params)
    worst = math.inf
    for u in _ensemble(grid, rng, samples, dirichlet=True):
        rhs = C * alpha_norm(ops, u, params.p)
        worst = min(worst, (rhs - sup_norm(u)) / max(rhs, 1e-300))
    return dict(
        worst_margin=worst,
        bound_constant=C,
        tolerance_used=_ledger_tolerance(grid.n),
        refinement_ratio=None,
    )


def _check_embed_lq(params, grid, samples, rng):
    """Interpolation bound ||u||_q^q <= ||u||_inf^(q-p) ||u||_p^p on a
    geometric ladder of q, plus the empirical embedding constant
    max ||u||_q / ||u||_{alpha,p}, which is reported, not asserted.

    For alpha*p < 1 the ladder stops at 0.9 * p/(1 - alpha*p), the top of
    the compact-embedding range; otherwise the embedding reaches every
    finite q and the ladder is capped at 3p.
    """
    ops = build_operators(params, grid)
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
    return dict(
        worst_margin=worst,
        bound_constant=cmax,
        tolerance_used=1e-10,
        refinement_ratio=None,
    )


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


def _check_translation(params, grid, samples, rng):
    ops = build_operators(params, grid)
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
    tol = _ledger_tolerance(grid.n)
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
    return dict(
        worst_margin=float(min(margins)),
        bound_constant=bound,
        tolerance_used=tol,
        refinement_ratio=ratio,
    )


def _check_monotone_gap(params, grid, samples, rng):
    ops = build_operators(params, grid)
    st = _default_state(params, grid, ops)
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
    return dict(
        worst_margin=worst,
        bound_constant=None,
        tolerance_used=IDENTITY_TOL,
        refinement_ratio=None,
    )


def _check_grad_fd(params, grid, samples, rng):
    """Directional derivatives of the energy against the gradient pairing.

    Samples whose nodal values (or derivative samples) sit within ~100*eps
    of zero are redrawn: the integrands have |.|^(q-1)-type kinks there and
    central differences of the energy lose their O(eps^2) validity, which
    would measure the instrument, not the gradient.
    """
    ops = build_operators(params, grid)
    st = _default_state(params, grid, ops)
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
    tol = 1e-5 if params.p >= 2.0 else 1e-4
    return dict(
        worst_margin=-worst,
        bound_constant=None,
        tolerance_used=tol,
        refinement_ratio=None,
    )


def _check_even_energy(params, grid, samples, rng):
    ops = build_operators(params, grid)
    st = _default_state(params, grid, ops)
    worst = 0.0
    for i in range(samples):
        u = _random_function(grid, rng, smooth=(i % 2 == 0), dirichlet=True)
        um = GridFunction(-u.values, dirichlet=True)
        e1, e2 = energy(st, u), energy(st, um)
        worst = max(worst, abs(e1 - e2) / max(abs(e1), 1.0))
        g1, g2 = gradient(st, u).values, gradient(st, um).values
        scale = max(float(np.max(np.abs(g1))), 1.0)
        worst = max(worst, float(np.max(np.abs(g1 + g2))) / scale)
    return dict(
        worst_margin=-worst,
        bound_constant=None,
        tolerance_used=IDENTITY_TOL,
        refinement_ratio=None,
    )


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
    PropertyId.YOUNG_BOUND: _check_young,
    PropertyId.POINCARE: _check_poincare,
    PropertyId.SUP_EMBED: _check_sup_embed,
    PropertyId.EMBED_LQ: _check_embed_lq,
    PropertyId.TRANSLATION_COMPACT: _check_translation,
    PropertyId.MONOTONE_GAP: _check_monotone_gap,
    PropertyId.GRAD_FD: _check_grad_fd,
    PropertyId.EVEN_ENERGY: _check_even_energy,
}

# no property may be silently dropped from the suite
assert set(_CHECKERS) == set(PropertyId), "checker table out of sync with PropertyId"


def _verify_with_rng(
    prop: PropertyId, params: FracParams, grid: Grid, samples: int, rng
) -> VerificationReport:
    reason = _precondition(prop, params)
    if reason is not None:
        return VerificationReport(
            property=prop,
            status="skipped",
            samples=0,
            worst_margin=0.0,
            bound_constant=None,
            tolerance_used=0.0,
            passed=False,
            refinement_ratio=None,
            reason=reason,
        )
    out = _CHECKERS[prop](params, grid, samples, rng)
    margin = float(out["worst_margin"])
    tol = float(out["tolerance_used"])
    ratio = out["refinement_ratio"]
    passed = margin >= -tol
    if ratio is not None and prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_INTEGRAL,
    ):
        passed = passed and ratio <= _RATIO_CAP
    return VerificationReport(
        property=prop,
        status="passed" if passed else "failed",
        samples=samples,
        worst_margin=margin,
        bound_constant=out["bound_constant"],
        tolerance_used=tol,
        passed=passed,
        refinement_ratio=None if ratio is None else float(ratio),
        reason="",
    )


def verify(
    prop: PropertyId,
    params: FracParams,
    grid: Grid,
    samples: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Check a single property; precondition violations raise."""
    reason = _precondition(prop, params)
    if reason is not None:
        raise ValueError(f"{prop.value}: {reason}")
    rng = np.random.default_rng([seed, list(PropertyId).index(prop)])
    return _verify_with_rng(prop, params, grid, samples, rng)


def run_suite(
    params_list: list[FracParams],
    grid: Grid,
    seed: int = 0,
    samples: int = 100,
) -> list[VerificationReport]:
    """Run every property for each parameter set, in PropertyId order.

    Properties whose preconditions fail are emitted with status
    "skipped" and the reason, never dropped.  Identical (seed, config)
    give bit-identical reports.
    """
    reports = []
    for pi, params in enumerate(params_list):
        for prop in PropertyId:
            rng = np.random.default_rng([seed, pi, list(PropertyId).index(prop)])
            reports.append(_verify_with_rng(prop, params, grid, samples, rng))
    return reports
