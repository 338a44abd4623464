"""Property-verification engine: every quantitative identity and
inequality the operator calculus and the energy rest on, checked on
seeded random ensembles with machine-readable margin reports.

Margins are signed slacks normalized to the local scale, so 0 is the
pass boundary before tolerance.  Checks come in three kinds.  Identities
report minus the largest normalized gap (tolerance 1e-12, times
max(1, n/1024) for the composed products of SEMIGROUP and LEFT_INVERSE,
whose rounding grows with n); inequalities the smallest normalized
right-minus-left slack (tolerance 0.05 below n = 512, 0.03 from there);
and the one refinement statement, IBP_INTEGRAL, minus its worst relative
gap together with the gap ratio under one grid doubling.  A non-finite
per-sample value leaves the margin NaN, which fails.  Ensembles are half
smooth (up to 8 random sine modes) and half rough (i.i.d. nodal noise);
the inequalities hold on the whole discrete space, not just on smooth
functions.

Every check streams its ensemble in row blocks of at most
fracops._BLOCK_DOUBLES values (a check that holds several rows per
sample takes that many times fewer samples per block): each block is
drawn from the rng in sample order, each operator is applied to it once
(a batched FFT product, bitwise equal to the per-vector one), norms and
pairings are reduced row by row, and the worst margin is folded in
sample order.  The energy checks (MONOTONE_GAP, GRAD_FD, EVEN_ENERGY)
evaluate the energy, its gradient and the monotonicity gap with
energy.py's row bodies on the block and its derivative image, and take
every p-th root per row as a scalar.  Reports therefore do not depend on
the block size, and memory stays at a few blocks.  No check calls
energy, gradient, monotonicity_gap or alpha_norm: tests/test_static.py
keeps per-sample loops out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .energy import ProblemState, _energy_rows, _gap_rows, _gradient_rows
from .fracops import (
    MAX_GRID_CELLS,
    OperatorSet,
    Toeplitz,
    _alpha_rows,
    _block_len,
    _blocks,
    _caputo_correction,
    _lp_rows,
    _rows,
    build_operators,
    gamma,
    gl_weights,
)
from .grid import FracParams, Grid, make_grid, sine_series, trapezoid_weights
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
    """Sine modes c[..., :-2] plus c[..., -2] cos(pi t/T) + c[..., -1]:
    smooth and free at both endpoints, realizable on any grid.  A 2-D c
    gives one row per coefficient row."""
    cos = np.cos(np.pi * grid.nodes / grid.T)
    return sine_series(grid, c[..., :-2]) + c[..., -2:-1] * cos + c[..., -1:]


def _draw(grid: Grid, rng: np.random.Generator, smooth, dirichlet: bool) -> np.ndarray:
    """One row per flag in smooth, drawn from rng in row order: 8 sine
    coefficients (dirichlet) or 10 _smooth coefficients for a smooth row,
    i.i.d. nodal noise for a rough one.  Dirichlet rows are pinned."""
    rows = np.empty((len(smooth), grid.n + 1))
    smooth_rows, coeffs = [], []
    for r, s in enumerate(smooth):
        if s:
            smooth_rows.append(r)
            coeffs.append(rng.standard_normal(8 if dirichlet else 10))
        else:
            rows[r] = rng.standard_normal(grid.n + 1)
    if coeffs:
        c = np.array(coeffs)
        rows[smooth_rows] = sine_series(grid, c) if dirichlet else _smooth(grid, c)
    if dirichlet:
        rows[:, 0] = 0.0
        rows[:, -1] = 0.0
    return rows


def _ensemble(grid, rng, count, dirichlet):
    """Row blocks of count samples, smooth at even and rough at odd
    sample indices."""
    for start, stop in _blocks(grid, count):
        yield _draw(grid, rng, [i % 2 == 0 for i in range(start, stop)], dirichlet)


def _default_state(params: FracParams, ops: OperatorSet) -> ProblemState:
    # canonical even sublinear family: q halfway between 1 and p
    return ProblemState(
        params=params, grid=ops.grid, ops=ops, spec=sublinear_power(q=(1.0 + params.p) / 2.0)
    )


def _fold(op, worst: float, *values: float) -> float:
    """worst folded with each of values by op (max or min), in order.
    A non-finite value makes the result NaN, which then stays: max and
    min alone would drop a NaN value."""
    for v in values:
        worst = op(worst, v) if math.isfinite(v) else math.nan
    return worst


def _lp_rows_scaled(rows: np.ndarray, p: float, w: np.ndarray) -> list[float]:
    """_lp_rows of each row over its max |.|, times that max: no p-th
    power under- or overflows, and a row holding inf gives NaN."""
    top = np.max(np.abs(rows), axis=1)
    unit = _lp_rows(rows / np.maximum(top, 1e-300)[:, None], p, w)
    return [t * s for t, s in zip(top.tolist(), unit)]


def _identity_check(params, ops, samples, rng, sides, pin_left=False) -> _Outcome:
    """Exact matrix identity lhs u = rhs u on a non-pinned ensemble, with
    u(0) set to 0 first if pin_left; sides(params, ops) returns the map
    from a row block to its (lhs, rhs) blocks.  The margin is minus the
    worst ||lhs - rhs||_p / ||rhs||_p, relative to the exact side so that
    T drops out.  Rounding grows with the length of the composed product,
    hence the tolerance scales with n."""
    w = trapezoid_weights(ops.grid)
    both = sides(params, ops)
    worst = 0.0
    for block in _ensemble(ops.grid, rng, samples, dirichlet=False):
        if pin_left:
            block[:, 0] = 0.0
        lhs, rhs = both(block)
        errs = zip(_lp_rows_scaled(lhs - rhs, params.p, w), _lp_rows_scaled(rhs, params.p, w))
        worst = _fold(max, worst, *[e / max(size, 1e-300) for e, size in errs])
    return _Outcome(-worst, IDENTITY_TOL * max(1.0, ops.grid.n / 1024))


def _semigroup_sides(params, ops):
    a, grid = params.alpha, ops.grid
    # the composed order 2a may exceed 1, so build its weights directly
    I2 = Toeplitz(gl_weights(-2.0 * a, grid.n) * grid.h ** (2.0 * a))
    return lambda x: (_rows(ops.left_int, _rows(ops.left_int, x)), _rows(I2, x))


def _left_inverse_sides(params, ops):
    return lambda x: (_rows(ops.left_deriv, _rows(ops.left_int, x)), x)


def _pairing_gap(weight, left, right, pairs) -> float:
    """Worst relative gap of (left u, v) = (u, right v) in the weighted
    pairing over the (u, v) row-block pairs, folded in order."""
    worst = 0.0
    for U, V in pairs:
        lhs = np.sum(weight * _rows(left, U) * V, axis=1)
        rhs = np.sum(weight * U * _rows(right, V), axis=1)
        for l, r in zip(lhs.tolist(), rhs.tolist()):
            worst = _fold(max, worst, abs(l - r) / max(abs(l), abs(r), 1.0))
    return worst


def _random_pairs(grid, rng, samples, dirichlet):
    """Row blocks of (smooth u, rough v) pairs; each sample draws u, then v."""
    for start, stop in _blocks(grid, samples, rows=2):
        uv = _draw(grid, rng, [True, False] * (stop - start), dirichlet)
        yield uv[0::2], uv[1::2]


def _check_ibp_exact(params, ops, samples, rng):
    pairs = _random_pairs(ops.grid, rng, samples, dirichlet=True)
    worst = _pairing_gap(ops.grid.h, ops.left_deriv, ops.right_deriv, pairs)
    return _Outcome(-worst, IDENTITY_TOL)


def _check_ibp_integral(params, ops, samples, rng):
    """The trapezoid pairing (I u, v) = (u, I^T v) carries a discretization
    error, so its gap must also shrink: the gap ratio from n to 2n on the
    same smooth pairs is capped at 0.75, and is 0 once the gap at n is
    below the roundoff floor 1e-13."""
    grid = ops.grid
    n = grid.n
    if 2 * n > MAX_GRID_CELLS:
        raise ValueError(
            f"IBP_INTEGRAL doubles the grid, so n must be at most "
            f"{MAX_GRID_CELLS // 2}, got n={n}"
        )
    pairs = _random_pairs(grid, rng, samples, dirichlet=False)
    gap = _pairing_gap(trapezoid_weights(grid), ops.left_int, ops.right_int, pairs)
    # coeff_pairs[k] holds the _smooth coefficients of u_k and then v_k
    coeff_pairs = rng.standard_normal((max(8, samples // 4), 2, 10))

    def matched_gap(operators):
        g = operators.grid
        pairs = (
            (_smooth(g, coeff_pairs[start:stop, 0]), _smooth(g, coeff_pairs[start:stop, 1]))
            for start, stop in _blocks(g, len(coeff_pairs), rows=2)
        )
        return _pairing_gap(trapezoid_weights(g), operators.left_int, operators.right_int, pairs)

    e1 = matched_gap(ops)
    e2 = matched_gap(build_operators(params, make_grid(grid.T, 2 * n)))
    ratio = 0.0 if e1 <= 1e-13 else e2 / e1
    return _Outcome(-gap, _ledger_tolerance(n), ratio=ratio, ratio_cap=0.75)


def _check_rl_caputo(params, ops, samples, rng):
    grid = ops.grid
    a = params.alpha
    worst = 0.0
    coef = 0.0 if a >= 1.0 else 1.0 / gamma(1.0 - a)
    caputo = _caputo_correction(ops, left=True)
    decay = grid.nodes[1:] ** (-a)
    for block in _ensemble(grid, rng, samples, dirichlet=False):
        u0 = block[:, :1]
        # the relation is only informative with u(0) != 0
        u0[np.abs(u0) < 0.5] = 1.5
        rl = _rows(ops.left_deriv, block)
        cap = rl - u0 * caputo
        corr = (u0 * coef) * decay if a < 1.0 else 0.0
        gap = np.abs(cap[:, 1:] + corr - rl[:, 1:])
        scale = np.maximum(np.abs(rl[:, 1:]), 1.0)
        worst = _fold(max, worst, *np.max(gap / scale, axis=1).tolist())
    return _Outcome(-worst, IDENTITY_TOL)


def _ensemble_bound(constant, dirichlet, small, large, params, ops, samples, rng):
    """small(u) <= C large(u) on the ensemble, C = constant(params); the
    margin is the smallest slack relative to the right side.  small and
    large are row-wise norms called as (ops, block, p)."""
    C = constant(params)
    worst = math.inf
    for block in _ensemble(ops.grid, rng, samples, dirichlet=dirichlet):
        for lg, sm in zip(large(ops, block, params.p), small(ops, block, params.p)):
            rhs = C * lg
            worst = _fold(min, worst, (rhs - sm) / max(rhs, 1e-300))
    return _Outcome(worst, _ledger_tolerance(ops.grid.n), bound=C)


def _young_constant(params: FracParams) -> float:
    return params.T**params.alpha / gamma(params.alpha + 1.0)


def _sup_embed_constant(params: FracParams) -> float:
    a, p, q = params.alpha, params.p, params.q_conj
    return params.T ** (a - 1.0 / p) / (gamma(a) * ((a - 1.0) * q + 1.0) ** (1.0 / q))


def _lp(ops, block, p) -> list[float]:
    return _lp_rows(block, p, trapezoid_weights(ops.grid))


def _lp_of_integral(ops, block, p) -> list[float]:
    return _lp(ops, _rows(ops.left_int, block), p)


def _sup(ops, block, p) -> list[float]:
    return np.max(np.abs(block), axis=1).tolist()


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
    for block in _ensemble(grid, rng, samples, dirichlet=True):
        mag = np.abs(block)
        lp_p = np.sum(w * mag**p, axis=1).tolist()
        lq_p = [np.sum(w * mag**q, axis=1).tolist() for q in qs]
        sups = _sup(ops, block, p)
        for r, an in enumerate(_alpha_rows(ops, block, p)):
            for q, lq in zip(qs, lq_p):
                rhs = sups[r] ** (q - p) * lp_p[r]
                worst = _fold(min, worst, (rhs - lq[r]) / max(rhs, 1e-300))
                if an > 0:
                    cmax = max(cmax, lq[r] ** (1.0 / q) / an)
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
    w = trapezoid_weights(grid)
    shifts = [max(1, n // 16), max(1, n // 32), max(1, n // 64)]
    sups = [0.0] * len(shifts)
    for block in _ensemble(grid, rng, max(samples, 4), dirichlet=True):
        an = np.array(_alpha_rows(ops, block, p))
        if not np.all(np.isfinite(an)):  # dividing by inf would scale a sample to zero
            sups = [math.nan] * len(shifts)
        members = block[an > 0] / an[an > 0, None]
        for k, m in enumerate(shifts):
            tu = np.zeros_like(members)
            tu[:, : n + 1 - m] = members[:, m:]
            sups[k] = _fold(max, sups[k], *_lp_rows(tu - members, p, w))
    margins = []
    bound = None
    for m, s in zip(shifts, sups):
        bound = translation_bound(params, m * grid.h)
        margins.append((bound - s) / bound)
    # monotone decay of the sup as the shift shrinks
    for a, b in zip(sups, sups[1:]):
        margins.append(a - b)  # family is normalized, so absolute slack
    ratio = sups[-1] / sups[-2] if sups[-2] > 0 else 0.0
    return _Outcome(_fold(min, math.inf, *margins), _ledger_tolerance(n), bound=bound, ratio=ratio)


def _check_monotone_gap(params, ops, samples, rng):
    grid = ops.grid
    st = _default_state(params, ops)
    p = params.p
    worst = math.inf
    for start, stop in _blocks(grid, samples, rows=2):
        # sample i draws u, then v, smooth and rough in turn
        flags = [s for i in range(start, stop) for s in (i % 2 == 0, i % 2 == 1)]
        DUV = _rows(ops.left_deriv, _draw(grid, rng, flags, dirichlet=True))
        # the gap's norms are alpha_norm's, so they scale it too
        gaps, nu, nv = _gap_rows(st, DUV[0::2], DUV[1::2])
        for gap, a, b in zip(gaps, nu, nv):
            worst = _fold(min, worst, gap / (1.0 + (a**p + b**p)))
    return _Outcome(worst, IDENTITY_TOL)


def _cleared_pairs(ops, rng, samples, clearance):
    """Row blocks (U, DU, V) of GRAD_FD's samples, with DU = D U.

    Each sample redraws a smooth u until it clears (at most 50 tries,
    the last one kept) and then draws a smooth v.  Every draw takes 8
    sine coefficients, so candidates come in blocks drawn in that stream
    and never past the draws still needed; each block goes through D
    once and is walked in order, a u waiting across blocks for its v.
    """
    grid = ops.grid
    b = _block_len(grid, rows=1)
    done, tries, u = 0, 0, None
    while done < samples:
        need = 2 * (samples - done) - (u is not None)
        C = _draw(grid, rng, [True] * min(b, need), dirichlet=True)
        DC = _rows(ops.left_deriv, C)
        sup = np.maximum(np.max(np.abs(C), axis=1), 1.0)
        clear = (np.min(np.abs(C[:, 1:-1]), axis=1) > clearance * sup) & (
            np.min(np.abs(DC[:, 1:]), axis=1) > clearance * np.max(np.abs(DC), axis=1)
        )
        pairs = []
        for r, ok in enumerate(clear.tolist()):
            if u is None:
                tries += 1
                if ok or tries == 50:
                    u, du, tries = C[r], DC[r], 0
            else:
                pairs.append((u, du, C[r]))
                u = None
        if pairs:
            done += len(pairs)
            yield tuple(np.array(rows) for rows in zip(*pairs))


def _check_grad_fd(params, ops, samples, rng):
    """Directional derivatives of the energy against the gradient pairing.

    Samples whose nodal values (or derivative samples) sit within ~100*eps
    of zero are redrawn: the integrands have |.|^(q-1)-type kinks there and
    central differences of the energy lose their O(eps^2) validity, which
    would measure the instrument, not the gradient.  The gradient at u
    reuses u's derivative image; the energies at u +- eps v are taken on
    their own images, in one product.
    """
    st = _default_state(params, ops)
    eps = 1e-6
    worst = 0.0
    for U, DU, V in _cleared_pairs(ops, rng, samples, 100.0 * eps):
        pair = np.sum(ops.grid.h * _gradient_rows(st, U, DU) * V, axis=1).tolist()
        W = np.concatenate((U + eps * V, U - eps * V))
        E = _energy_rows(st, W, _rows(ops.left_deriv, W)).tolist()
        for r, pr in enumerate(pair):
            fd = (E[r] - E[len(pair) + r]) / (2.0 * eps)
            worst = _fold(max, worst, abs(fd - pr) / max(abs(fd), abs(pr), 1e-12))
    return _Outcome(-worst, 1e-5 if params.p >= 2.0 else 1e-4)


def _check_even_energy(params, ops, samples, rng):
    grid = ops.grid
    st = _default_state(params, ops)
    worst = 0.0
    for start, stop in _blocks(grid, samples, rows=2):
        U = _draw(grid, rng, [i % 2 == 0 for i in range(start, stop)], dirichlet=True)
        # -u goes through the operator itself, not through -(D u), so the
        # check still tests the whole pipeline; energy and gradient at one
        # point share its image
        X = np.concatenate((U, -U))
        X[:, 0] = X[:, -1] = 0.0
        DX = _rows(ops.left_deriv, X)
        E = _energy_rows(st, X, DX).tolist()
        G = _gradient_rows(st, X, DX)
        b = stop - start
        gmax = np.max(np.abs(G[:b]), axis=1).tolist()
        gsum = np.max(np.abs(G[:b] + G[b:]), axis=1).tolist()
        for r in range(b):
            worst = _fold(max, worst, abs(E[r] - E[b + r]) / max(abs(E[r]), 1.0))
            worst = _fold(max, worst, gsum[r] / max(gmax[r], 1.0))
    return _Outcome(-worst, IDENTITY_TOL)


def _precondition(prop: PropertyId, params: FracParams) -> Optional[str]:
    if prop is PropertyId.SUP_EMBED and not params.alpha > 1.0 / params.p:
        return f"requires alpha > 1/p (alpha={params.alpha}, p={params.p})"
    return None


_CHECKERS = {
    PropertyId.SEMIGROUP: partial(_identity_check, sides=_semigroup_sides),
    PropertyId.LEFT_INVERSE: partial(_identity_check, sides=_left_inverse_sides, pin_left=True),
    PropertyId.IBP_EXACT: _check_ibp_exact,
    PropertyId.IBP_INTEGRAL: _check_ibp_integral,
    PropertyId.RL_CAPUTO: _check_rl_caputo,
    PropertyId.YOUNG_BOUND: partial(_ensemble_bound, _young_constant, False, _lp_of_integral, _lp),
    PropertyId.POINCARE: partial(_ensemble_bound, _young_constant, True, _lp, _alpha_rows),
    PropertyId.SUP_EMBED: partial(_ensemble_bound, _sup_embed_constant, True, _sup, _alpha_rows),
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
    # a non-finite per-sample value leaves the margin NaN
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
