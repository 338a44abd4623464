"""Property-verification engine: every quantitative identity and
inequality the operator calculus and the energy rest on, with
machine-readable margin reports.  Ten records are proven for the whole
space or checked pointwise; YOUNG_BOUND, MONOTONE_GAP and GRAD_FD are
checked on a seeded random ensemble.

Margins are signed slacks normalized to the local scale, so 0 is the
pass boundary before tolerance.  Checks come in three kinds.  Identities
report minus the largest normalized gap (tolerance 1e-12, times
max(1, n/1024) for the column records SEMIGROUP, LEFT_INVERSE, IBP_EXACT
and RL_CAPUTO, whose products round more as n grows); inequalities the
smallest normalized right-minus-left slack (tolerance 0.05 below
n = 512, 0.03 from there); and the one refinement statement,
IBP_INTEGRAL, minus its largest gap relative to the largest pairing,
together with that ratio's change under one grid doubling.  A non-finite
per-sample value leaves the margin NaN, which fails.  Ensembles are half
smooth (up to 8 random sine modes) and half rough (i.i.d. nodal noise);
the inequalities hold on the whole discrete space, not just on smooth
functions.

SEMIGROUP and LEFT_INVERSE (_check_column) read the first column of the
difference of their two sides, RL_CAPUTO D 1 against the exact
h^(-alpha) gl_weights(alpha - 1), and IBP_EXACT and IBP_INTEGRAL
(_check_ibp) the last column of the right-sided operator against the
first of the left-sided one: one product each.  IBP_INTEGRAL's gap is
the trapezoid boundary form W I - I W; its sup-norm bound B and that of
the pairing, P, are read off the I^alpha weights, and B/P tends to
(1 + alpha)/n, so the record fails at n 16 from alpha 0.5 and at n 32
from alpha 0.9.  Every pinned u is I^alpha D u, so Young's inequality
bounds max|u|, ||u||_p and ||u||_q by C_n, K_n and K_q of
fracops.embedding_constants times ||u||_{alpha,p}; SUP_EMBED, POINCARE
and EMBED_LQ (_check_embedding) report the margin (C - K)/C against the
continuum constant C, EMBED_LQ on three q strictly between p and
p* = p/(1 - alpha p).  TRANSLATION_COMPACT reads its constants off the
partial sums of the I^alpha weights.  EVEN_ENERGY takes no product: the
FFT product is odd bit for bit, so the energy is even and its gradient
odd wherever F is even and f and phi_p are odd, which it checks on a
fixed lattice of nodes and dyadic amplitudes.  These ten draw nothing,
and samples is only echoed; the three sampled records draw their stream
from the seed, the parameter set's index and the property's index.

Every sampled check streams its ensemble in row blocks of at most
fracops._BLOCK_DOUBLES values (a check that holds several rows per
sample takes that many times fewer samples per block): each block is
drawn from the rng in sample order, each operator is applied to it once
(a batched FFT product, bitwise equal to the per-vector one), norms
(grid._lp_rows) and pairings are reduced row by row, and the worst
margin is folded in sample order.  The energy checks (MONOTONE_GAP and
GRAD_FD) evaluate the energy, its gradient and the monotonicity gap with
energy.py's row bodies on the block and its derivative image, and take
every p-th root per row as a scalar.  GRAD_FD takes u +- eps v's images
as D u +- eps D v.  Reports do not depend on the block size, and memory
stays at a few blocks.  No check calls energy, gradient,
monotonicity_gap or alpha_norm: tests/test_static.py keeps per-sample
loops out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .energy import ProblemState, _energy_rows, _gap_rows, _gradient_rows, phi
from .fracops import (
    MAX_GRID_CELLS,
    OperatorSet,
    _block_len,
    _blocks,
    _caputo_correction,
    _gl_operator,
    _rows,
    build_operators,
    embedding_constants,
    gamma,
    gl_weights,
)
from .grid import FracParams, Grid, _lp_rows, sine_series, trapezoid_weights
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


def _check_column(params, ops, samples, rng, semigroup):
    """SEMIGROUP (I I = I^(2 alpha)) or LEFT_INVERSE (D I = Id) for every
    u, read off one column.  Both sides are lower-triangular Toeplitz, so
    their difference E has first column c = I iota - iota_2 or
    D iota - e_0, iota the column of I and iota_2 that of the order-2 alpha
    integral (built directly, as 2 alpha may exceed 1).  Young's inequality
    gives ||E u||_p <= ||c||_1 ||u||_p in the h-weighted norm, and the
    trapezoid end weights h/2 cost at most 2^(1/p).  SEMIGROUP's margin is
    relative to ||iota_2||_1, the Young bound of I^(2 alpha), so T drops
    out.  c is taken by the product routine: it holds that product's
    rounding, but bounds no FFT rounding on other inputs."""
    grid = ops.grid
    if semigroup:
        op, exact = ops.left_int, _gl_operator(-2.0 * params.alpha, grid).col
    else:
        op, exact = ops.left_deriv, np.eye(1, grid.n + 1)[0]
    # ||e_0||_1 = 1, so LEFT_INVERSE's gap is absolute
    gap = np.sum(np.abs(op @ ops.left_int.col - exact)) / np.sum(np.abs(exact))
    return _Outcome(-(2.0 ** (1.0 / params.p)) * gap, IDENTITY_TOL * max(1.0, grid.n / 1024))


def _boundary_form(w: np.ndarray) -> tuple[float, float]:
    """(B, P) / h for I^alpha weights w of any scale: the sup-norm bounds
    B = h (w_1 + ... + w_{n-1}) of the trapezoid gap (I u, v) - (u, I^T v)
    and P = sum_i W_i S_{i+1} of the pairing (I u, v), S the partial sums."""
    S = np.cumsum(w)
    return float(np.sum(w[1:-1])), float(np.sum(S) - 0.5 * (S[0] + S[-1]))


def _check_ibp(params, ops, samples, rng, integral):
    """IBP_EXACT, (D u, v) = (u, D^R v) in the h-pairing, or IBP_INTEGRAL,
    (I u, v) = (u, I^R v) in the trapezoid pairing, for every u and v.  One
    product reads c, the last column of D^R (I^R) reversed minus the first
    of D (I), 0 for a transpose; Young bounds IBP_EXACT's gap by ||c||_1,
    relative to ||D.col||_1.  IBP_INTEGRAL's gap is then the commutator
    W I - I W, (h/2) [u_0 sum_{i=1}^{n-1} iota_i v_i - v_n sum_{j=1}^{n-1}
    iota_{n-j} u_j], which over max|u| = max|v| = 1 reaches B at u = 1,
    v = (0, 1, ..., 1, -1), and the pairing P at u = v = 1; c adds at most
    T ||c||_1, as the W_j sum to T.  The margin -(B + T ||c||_1) / P is
    free of the unit of T, and rho = B / P must shrink: rho_2n / rho_n is
    capped at 0.75, rho_2n read off gl_weights(-alpha, 2n), as h^alpha
    cancels in it."""
    n = ops.grid.n
    if integral and 2 * n > MAX_GRID_CELLS:
        raise ValueError(
            f"IBP_INTEGRAL doubles the grid, so n must be at most {MAX_GRID_CELLS // 2}, got n={n}"
        )
    left, right = (ops.left_int, ops.right_int) if integral else (ops.left_deriv, ops.right_deriv)
    gap = np.sum(np.abs((right @ np.eye(1, n + 1, n)[0])[::-1] - left.col))
    if not integral:
        return _Outcome(-gap / np.sum(np.abs(left.col)), IDENTITY_TOL * max(1.0, n / 1024))
    (B, P), (B2, P2) = _boundary_form(left.col), _boundary_form(gl_weights(-params.alpha, 2 * n))
    # B and P are per h, and T ||c||_1 / h = n ||c||_1
    margin, ratio = -(B + n * gap) / P, B2 / P2 / (B / P)
    return _Outcome(margin, _ledger_tolerance(n), ratio=ratio, ratio_cap=0.75)


def _caputo_closed_form(grid: Grid, a: float) -> np.ndarray:
    """t^(-a) / Gamma(1 - a) at the nodes t > 0; 0 for a = 1."""
    return (1.0 / gamma(1.0 - a) if a < 1.0 else 0.0) * grid.nodes[1:] ** (-a)


def _check_rl_caputo(params, ops, samples, rng):
    """D 1 = h^(-alpha) w, w = gl_weights(alpha - 1, n), exactly by the
    symbol identity (1-z)^alpha / (1-z) = (1-z)^(alpha-1): one product
    reads D against w, relative to the first entry h^(-alpha).  Caputo =
    RL - u(0) t^(-alpha) / Gamma(1 - alpha), so _caputo_correction is read
    against that closed form, relative to its largest value (absolutely
    at alpha = 1, where it vanishes)."""
    grid = ops.grid
    a = params.alpha
    exact = gl_weights(a - 1.0, grid.n) / grid.h**a
    gap = np.max(np.abs(ops.left_deriv @ np.ones(grid.n + 1) - exact)) / exact[0]
    closed = _caputo_closed_form(grid, a)
    corr = np.max(np.abs(_caputo_correction(ops, left=True)[1:] - closed)) / (closed[0] or 1.0)
    return _Outcome(-_fold(max, gap, corr), IDENTITY_TOL * max(1.0, grid.n / 1024))


def _young_constant(params: FracParams) -> float:
    return params.T**params.alpha / gamma(params.alpha + 1.0)


def _sup_embed_constant(params: FracParams) -> float:
    a, p, q = params.alpha, params.p, params.q_conj
    return params.T ** (a - 1.0 / p) / (gamma(a) * ((a - 1.0) * q + 1.0) ** (1.0 / q))


def _check_young_bound(params, ops, samples, rng):
    """||I^alpha u||_p <= T^alpha / Gamma(alpha + 1) ||u||_p on a non-pinned
    ensemble, as the smallest slack relative to the right side.  u is not
    pinned and its end nodes weigh h/2, so the K_n of the pinned space
    does not bound it, and the bound stays sampled."""
    C = _young_constant(params)
    w = trapezoid_weights(ops.grid)
    worst = math.inf
    for block in _ensemble(ops.grid, rng, samples, dirichlet=False):
        small = _lp_rows(_rows(ops.left_int, block), params.p, w)
        for lg, sm in zip(_lp_rows(block, params.p, w), small):
            rhs = C * lg
            worst = _fold(min, worst, (rhs - sm) / max(rhs, 1e-300))
    return _Outcome(worst, _ledger_tolerance(ops.grid.n), bound=C)


def _lq_ladder(params: FracParams) -> list[float]:
    """EMBED_LQ's three q, geometric above p (the rung p is POINCARE) up to
    p + 0.9 (p* - p) below p* = p/(1 - alpha p), the top of the compact
    embedding range, or up to 3p where alpha p >= 1 and p* is inf."""
    p, ap = params.p, params.alpha * params.p
    q_hi = p * (1.0 - 0.1 * ap) / (1.0 - ap) if ap < 1.0 else 3.0 * p
    return np.geomspace(p, q_hi, 4)[1:].tolist()


def _lq_constant(params: FracParams, q: float) -> float:
    """C_q = ||t^(alpha-1) / G(alpha)||_{L^r(0,T)} = (T^s / s)^(1/r) / G(alpha),
    s = (alpha - 1) r + 1, 1/r = 1 + 1/q - 1/p: Young's constant of
    ||I^alpha y||_q <= C_q ||y||_p, finite exactly for q < p*; it is
    _young_constant at q = p and _sup_embed_constant at q = inf."""
    a = params.alpha
    r = 1.0 / (1.0 + 1.0 / q - 1.0 / params.p)
    s = (a - 1.0) * r + 1.0
    return params.T ** (s / r) / (s ** (1.0 / r) * gamma(a))


def _check_embedding(params, ops, samples, rng, norm):
    """max|u| (norm "sup"), ||u||_p ("p") or ||u||_q on each rung of
    _lq_ladder ("lq") <= C ||u||_{alpha,p}, C the continuum constant,
    proven for every pinned u by the C_n, K_n or K_q of
    fracops.embedding_constants: the margin is the smallest (C - K) / C,
    and the bound C, at the top rung for "lq"."""
    p = params.p
    if norm == "lq":
        qs = _lq_ladder(params)
        Cs = [_lq_constant(params, q) for q in qs]
        Ks = embedding_constants(ops, p, qs)[2:]
    else:
        sup = norm == "sup"
        Cs = [(_sup_embed_constant if sup else _young_constant)(params)]
        Ks = [embedding_constants(ops, p)[0 if sup else 1]]
    margin = _fold(min, math.inf, *[(C - K) / C for C, K in zip(Cs, Ks)])
    return _Outcome(margin, _ledger_tolerance(ops.grid.n), bound=Cs[-1])


def translation_bound(params: FracParams, shift: float) -> float:
    """Right side of the translation estimate derived from the Hoelder
    split of u(t+h) - u(t) = I^a[D^a u](t+h) - I^a[D^a u](t):

        ||tau_h u - u||_p^p <= [ (2 h^a / G(a+1))^p
                                 + T^(a(p-1)) h^a / G(a+1)^p ] ||u||_{a,p}^p.

    The first term collects the two kernel pieces on [0, T-h], the second
    the cut-off tail.  With x = (h/T)^a <= 1 the bound is
    T^a / G(a+1) ((2 x)^p + x)^(1/p), and the root is taken on the terms
    2 x and x^(1/p) scaled by the larger, so no intermediate power leaves
    the float range where the bound itself does not.
    """
    a, p = params.alpha, params.p
    c, d = 2.0 * (shift / params.T) ** a, (shift / params.T) ** (a / p)
    top = max(c, d)
    return _young_constant(params) * top * ((c / top) ** p + (d / top) ** p) ** (1.0 / p)


def _check_translation(params, ops, samples, rng):
    """||tau_m u - u||_p <= K_m ||u||_{alpha,p} for every pinned u, read off
    the partial sums S_r = iota_0 + ... + iota_{r-1} of the I^alpha weights
    iota, which do not increase for alpha <= 1, with K = S_{n-1}:

        K_m^p = c_m^p + S_m K^(p-1),   c_m = 2 S_m - (S_{n-1} - S_{n-m-1}).

    u = I^alpha y for y = D u, whose rows 1..n-1 weigh h.  Rows 0..n-m-1
    of tau_m u - u convolve them with the shifted difference of iota, of
    l^1 norm c_m (Young); rows n-m..n-1 are -u_i, a block of column sums
    at most S_m and row sums at most K (Schur test).  By Gautschi's
    inequality S_m < (m h)^alpha / G(alpha+1) and K < T^alpha / G(alpha+1),
    so K_m is below translation_bound(m h) term by term.  The margin folds
    (bound - K_m) / bound at three shifts with the decay of K_m.
    """
    n, p = ops.grid.n, params.p
    S = [0.0] + np.cumsum(ops.left_int.col[: n - 1]).tolist()
    K = S[-1]
    consts, margins = [], []
    # from n 8 the floors keep the three shifts apart, so each decay term
    # compares two distinct K_m
    for m in (1, 1, 1) if n < 8 else (max(4, n // 16), max(2, n // 32), max(1, n // 64)):
        c = 2.0 * S[m] - (K - S[n - m - 1])
        top = max(c, K)  # every ratio below is at most 1, so no power overflows
        consts.append(top * ((c / top) ** p + S[m] / top * (K / top) ** (p - 1.0)) ** (1.0 / p))
        bound = translation_bound(params, m * ops.grid.h)
        # a bound that underflowed to 0 or overflowed certifies nothing
        margins.append((bound - consts[-1]) / bound if 0.0 < bound < math.inf else math.nan)
    # decay as the shift shrinks, relative so that the unit of T drops out
    margins += [(a - b) / max(a, b) for a, b in zip(consts, consts[1:])]
    ratio = consts[-1] / consts[-2]
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
            # numpy powers give inf past 1e308, where Python floats raise
            worst = _fold(min, worst, gap / (1.0 + float(np.float64(a) ** p + np.float64(b) ** p)))
    return _Outcome(worst, IDENTITY_TOL)


def _cleared_pairs(ops, rng, samples, clearance):
    """Row blocks (U, DU, V, DV) of GRAD_FD's samples, DU = D U, DV = D V.

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
                pairs.append((u, du, C[r], DC[r]))
                u = None
        if pairs:
            done += len(pairs)
            yield tuple(np.array(rows) for rows in zip(*pairs))


def _check_grad_fd(params, ops, samples, rng):
    """Directional derivatives of the energy against the gradient pairing.

    Samples whose nodal values (or derivative samples) sit within ~100*eps
    of zero are redrawn: the integrands have |.|^(q-1)-type kinks there and
    central differences of the energy lose their O(eps^2) validity, which
    would measure the instrument, not the gradient.  Every image is the
    one the clearance test took: the gradient at u reuses D u, and the
    energies at u +- eps v take D u +- eps D v, by linearity of D.
    """
    st = _default_state(params, ops)
    eps = 1e-6
    worst = 0.0
    for U, DU, V, DV in _cleared_pairs(ops, rng, samples, 100.0 * eps):
        pair = np.sum(ops.grid.h * _gradient_rows(st, U, DU) * V, axis=1).tolist()
        W = np.concatenate((U + eps * V, U - eps * V))
        E = _energy_rows(st, W, np.concatenate((DU + eps * DV, DU - eps * DV))).tolist()
        for r, pr in enumerate(pair):
            fd = (E[r] - E[len(pair) + r]) / (2.0 * eps)
            worst = _fold(max, worst, abs(fd - pr) / max(abs(fd), abs(pr), 1e-12))
    return _Outcome(-worst, 1e-5 if params.p >= 2.0 else 1e-4)


def _check_even_energy(params, ops, samples, rng):
    """F(t, -xi) = F(t, xi), f(t, -xi) = -f(t, xi) and phi_p(-y) = -phi_p(y)
    at every node t, in row blocks of xi = 2^-40 ... 2^3 and y = xi / 8 <= 1,
    so no power overflows: all that the energy's evenness and the gradient's
    oddness rest on as D(-u) = -(D u) bit for bit.  Each gap is relative to
    the row's largest |F|, |f| or |phi_p|, floored at 1."""
    st = _default_state(params, ops)
    grid = ops.grid
    terms = (
        (partial(st.spec.F_values, grid.nodes), 1.0),
        (partial(st.spec.f_values, grid.nodes), -1.0),
        (partial(phi, p=params.p, eps_reg=st.eps_reg), -1.0),
    )
    lattice = 2.0 ** np.arange(-40.0, 4.0)
    worst = 0.0
    for start, stop in _blocks(grid, len(lattice)):
        X = np.outer(lattice[start:stop], np.ones(grid.n + 1))
        for (value, sign), Z in zip(terms, (X, X, X / 8.0)):
            plus = value(Z)
            gap = np.max(np.abs(value(-Z) - sign * plus), axis=1)
            scale = np.maximum(np.max(np.abs(plus), axis=1), 1.0)
            worst = _fold(max, worst, *(gap / scale).tolist())
    return _Outcome(-worst, IDENTITY_TOL)


def _precondition(prop: PropertyId, params: FracParams) -> Optional[str]:
    if prop is PropertyId.SUP_EMBED and not params.alpha > 1.0 / params.p:
        return f"requires alpha > 1/p (alpha={params.alpha}, p={params.p})"
    return None


_CHECKERS = {
    PropertyId.SEMIGROUP: partial(_check_column, semigroup=True),
    PropertyId.LEFT_INVERSE: partial(_check_column, semigroup=False),
    PropertyId.IBP_EXACT: partial(_check_ibp, integral=False),
    PropertyId.IBP_INTEGRAL: partial(_check_ibp, integral=True),
    PropertyId.RL_CAPUTO: _check_rl_caputo,
    PropertyId.YOUNG_BOUND: _check_young_bound,
    PropertyId.POINCARE: partial(_check_embedding, norm="p"),
    PropertyId.SUP_EMBED: partial(_check_embedding, norm="sup"),
    PropertyId.EMBED_LQ: partial(_check_embedding, norm="lq"),
    PropertyId.TRANSLATION_COMPACT: _check_translation,
    PropertyId.MONOTONE_GAP: _check_monotone_gap,
    PropertyId.GRAD_FD: _check_grad_fd,
    PropertyId.EVEN_ENERGY: _check_even_energy,
}

# no property may be silently dropped from the suite
assert set(_CHECKERS) == set(PropertyId), "checker table out of sync with PropertyId"


def _record(prop, params, ops, samples, stream) -> VerificationReport:
    """prop's report on ops, "skipped" where its precondition fails; a
    sampled record draws from the stream of (*stream, prop's index)."""
    reason = _precondition(prop, params)
    if reason is not None:
        return VerificationReport(
            property=prop, status="skipped", samples=0, worst_margin=0.0, bound_constant=None,
            tolerance_used=0.0, passed=False, reason=reason,
        )
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng([*stream, list(PropertyId).index(prop)])
    out = _CHECKERS[prop](params, ops, samples, rng)
    margin = float(out.margin)
    tol = float(out.tolerance)
    ratio = None if out.ratio is None else float(out.ratio)
    # a non-finite per-sample value leaves the margin NaN; bool, as a
    # numpy comparison would not serialize to JSON
    passed = bool(
        math.isfinite(margin)
        and margin >= -tol
        and (out.ratio_cap is None or ratio <= out.ratio_cap)
    )
    return VerificationReport(
        property=prop,
        status="passed" if passed else "failed",
        samples=samples,
        worst_margin=margin,
        bound_constant=out.bound,
        tolerance_used=tol,
        passed=passed,
        refinement_ratio=ratio,
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
    return _record(prop, params, build_operators(params, grid), samples, (seed, 0))


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
        reports += [_record(prop, params, ops, samples, (seed, pi)) for prop in PropertyId]
    return reports
