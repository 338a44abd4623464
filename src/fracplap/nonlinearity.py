"""Parametric nonlinearity families f(t, u) with exact antiderivatives.

Two analytic power families cover the sublinear and superlinear regimes:

    SUBLINEAR_POWER:    f = q a(t) |u|^(q-2) u,    F = a(t) |u|^q,    1 < q < p
    SUPERLINEAR_POWER:  f = |u|^(mu-2) u,          F = |u|^mu / mu,   mu > p

and TABLE carries a piecewise-linear profile in u (optionally scaled by a
coefficient function of t) whose antiderivative is integrated exactly
segment by segment, anchored at F(t, 0) = 0.

validate_hypotheses samples the inequalities that each regime rests on
and reports the worst signed margin per hypothesis together with the
witness point, so a failing family is rejected with evidence instead of
a bare flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import FracParams

__all__ = [
    "ExtrapolationError",
    "CoefficientFn",
    "Family",
    "NonlinearitySpec",
    "sublinear_power",
    "superlinear_power",
    "table_spec",
    "point_values",
    "HypothesisRecord",
    "HypothesisReport",
    "validate_hypotheses",
]


class ExtrapolationError(ValueError):
    """Raised when a TABLE family is evaluated outside its breakpoints."""


def _require_finite(obj, names) -> None:
    """Reject a NaN or infinite entry in any of the named fields; None passes."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite")


class Family(enum.Enum):
    SUBLINEAR_POWER = "SUBLINEAR_POWER"
    SUPERLINEAR_POWER = "SUPERLINEAR_POWER"
    TABLE = "TABLE"


@dataclass(frozen=True)
class CoefficientFn:
    """Closed-form coefficient of t: constant, affine, sine, or nodal table.

    kind "sine" evaluates offset + amplitude*sin(frequency*t + phase);
    kind "table" interpolates nodal values given on a uniform grid over
    [0, T_table].
    """

    kind: str = "constant"
    value: float = 1.0
    slope: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    table_values: Optional[np.ndarray] = None
    table_T: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(
            self, ("value", "slope", "amplitude", "frequency", "phase", "table_values", "table_T")
        )
        # np.interp over a non-increasing grid returns the last value everywhere
        if not self.table_T > 0.0:
            raise ValueError(f"table_T must be positive, got {self.table_T}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.value), t.shape).copy()
        if self.kind == "affine":
            return self.value + self.slope * t
        if self.kind == "sine":
            return self.value + self.amplitude * np.sin(self.frequency * t + self.phase)
        if self.kind == "table":
            tv = np.asarray(self.table_values, dtype=float)
            xs = np.linspace(0.0, self.table_T, len(tv))
            return np.interp(t, xs, tv)
        raise ValueError(f"unknown coefficient kind {self.kind!r}")


_CONST_ONE = CoefficientFn()
# fu_values raises |u| + _FU_FLOOR to its powers, so they stay finite at u = 0
_FU_FLOOR = 1e-14


@dataclass(frozen=True)
class NonlinearitySpec:
    """One member of a nonlinearity family, with all exponents fixed."""

    family: Family
    q: Optional[float] = None
    mu: Optional[float] = None
    r: float = 1.0
    b_const: Optional[float] = None
    a_coeff: CoefficientFn = _CONST_ONE
    b_coeff: CoefficientFn = _CONST_ONE
    table_breakpoints: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None
    _table_cumint: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        _require_finite(self, ("q", "mu", "r", "b_const", "table_breakpoints", "table_values"))
        if self.family is Family.SUBLINEAR_POWER:
            if self.q is None or self.q <= 1.0:
                raise ValueError("SUBLINEAR_POWER needs an exponent q > 1")
        elif self.family is Family.SUPERLINEAR_POWER:
            if self.mu is None or self.mu <= 1.0:
                raise ValueError("SUPERLINEAR_POWER needs an exponent mu > 1")
            if self.b_const is None:
                # the pure power family saturates |f| = mu * (1/mu) |u|^(mu-1)
                object.__setattr__(self, "b_const", 1.0 / self.mu)
        elif self.family is Family.TABLE:
            bp = np.asarray(self.table_breakpoints, dtype=float)
            fv = np.asarray(self.table_values, dtype=float)
            if bp.ndim != 1 or bp.shape != fv.shape or len(bp) < 2:
                raise ValueError("TABLE needs matching 1-d breakpoints and values")
            if np.any(np.diff(bp) <= 0):
                raise ValueError("TABLE breakpoints must be strictly increasing")
            if not (bp[0] <= 0.0 <= bp[-1]):
                raise ValueError("TABLE range must contain u = 0 to anchor F(t,0)=0")
            bp.setflags(write=False)
            fv.setflags(write=False)
            object.__setattr__(self, "table_breakpoints", bp)
            object.__setattr__(self, "table_values", fv)
            # exact antiderivative of the linear interpolant at each breakpoint
            seg = 0.5 * (fv[1:] + fv[:-1]) * np.diff(bp)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            cum -= np.interp(0.0, bp, cum)  # anchor at u = 0
            cum.setflags(write=False)
            object.__setattr__(self, "_table_cumint", cum)

    def f_values(self, t, u):
        """Vectorized f(t, u)."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.family is Family.SUBLINEAR_POWER:
            q = self.q
            return q * self.a_coeff(t) * np.abs(u) ** (q - 1.0) * np.sign(u)
        if self.family is Family.SUPERLINEAR_POWER:
            mu = self.mu
            return np.abs(u) ** (mu - 1.0) * np.sign(u)
        self._table_segment(u)  # raises outside the breakpoints
        return self.a_coeff(t) * np.interp(u, self.table_breakpoints, self.table_values)

    def F_values(self, t, u):
        """Vectorized antiderivative F(t, u) = int_0^u f(t, s) ds."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.family is Family.SUBLINEAR_POWER:
            return self.a_coeff(t) * np.abs(u) ** self.q
        if self.family is Family.SUPERLINEAR_POWER:
            return np.abs(u) ** self.mu / self.mu
        idx = self._table_segment(u)
        bp = self.table_breakpoints
        fv = self.table_values
        du = u - bp[idx]
        slope = (fv[idx + 1] - fv[idx]) / (bp[idx + 1] - bp[idx])
        local = fv[idx] * du + 0.5 * slope * du * du
        return self.a_coeff(t) * (self._table_cumint[idx] + local)

    def fu_values(self, t, u):
        """Vectorized df/du; |u| is floored where the power is singular."""
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.family is Family.SUBLINEAR_POWER:
            q = self.q
            return q * (q - 1.0) * self.a_coeff(t) * (np.abs(u) + _FU_FLOOR) ** (q - 2.0)
        if self.family is Family.SUPERLINEAR_POWER:
            mu = self.mu
            return (mu - 1.0) * (np.abs(u) + (_FU_FLOOR if mu < 2.0 else 0.0)) ** (mu - 2.0)
        idx = self._table_segment(u)
        bp = self.table_breakpoints
        fv = self.table_values
        slope = (fv[idx + 1] - fv[idx]) / (bp[idx + 1] - bp[idx])
        return self.a_coeff(t) * slope

    def _table_segment(self, u: np.ndarray) -> np.ndarray:
        """Index of the TABLE segment that holds each u; raises
        ExtrapolationError if a u lies outside the breakpoints."""
        bp = self.table_breakpoints
        if np.any(u < bp[0]) or np.any(u > bp[-1]):
            raise ExtrapolationError(f"TABLE family evaluated outside [{bp[0]}, {bp[-1]}]")
        return np.clip(np.searchsorted(bp, u, side="right") - 1, 0, len(bp) - 2)

    def is_even(self) -> bool:
        """Whether F(t, -u) = F(t, u); exact for the power families, probed
        at 101 points of the symmetric part of the range for TABLE."""
        if self.family is not Family.TABLE:
            return True
        lo, hi = self.table_breakpoints[0], self.table_breakpoints[-1]
        probe = np.linspace(0.0, min(-lo, hi), 101)
        try:
            return bool(
                np.allclose(
                    self.F_values(0.0, probe),
                    self.F_values(0.0, -probe),
                    rtol=0.0,
                    atol=1e-14,
                )
            )
        except ExtrapolationError:
            return False


def sublinear_power(q: float, a_coeff: CoefficientFn = _CONST_ONE) -> NonlinearitySpec:
    return NonlinearitySpec(family=Family.SUBLINEAR_POWER, q=q, a_coeff=a_coeff, b_coeff=a_coeff)


def superlinear_power(mu: float, r: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(family=Family.SUPERLINEAR_POWER, mu=mu, r=r)


def table_spec(breakpoints, values, a_coeff: CoefficientFn = _CONST_ONE) -> NonlinearitySpec:
    return NonlinearitySpec(
        family=Family.TABLE,
        table_breakpoints=np.asarray(breakpoints, dtype=float),
        table_values=np.asarray(values, dtype=float),
        a_coeff=a_coeff,
    )


def point_values(spec: NonlinearitySpec, t: float, u: float) -> tuple[float, float]:
    """Pointwise (f(t,u), F(t,u))."""
    return float(spec.f_values(t, u)), float(spec.F_values(t, u))


@dataclass(frozen=True)
class HypothesisRecord:
    id: str
    holds: bool
    worst_margin: float
    witness: tuple[float, float]


@dataclass(frozen=True)
class HypothesisReport:
    regime: str
    family: str
    records: tuple[HypothesisRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    def record(self, id_: str) -> HypothesisRecord:
        for r in self.records:
            if r.id == id_:
                return r
        raise KeyError(id_)


def _sample_points(params: FracParams, count: int, seed: int):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, params.T, count)
    # log-uniform magnitudes over [1e-6, 1e3] with both signs
    mag = 10.0 ** rng.uniform(-6.0, 3.0, count)
    sign = rng.choice([-1.0, 1.0], count)
    return t, mag * sign


def _covered(spec: NonlinearitySpec, u) -> np.ndarray:
    """Mask of the u that spec can be evaluated at: every u for the power
    families, those within the breakpoints for TABLE."""
    u = np.asarray(u, dtype=float)
    if spec.family is not Family.TABLE:
        return np.ones(u.shape, dtype=bool)
    bp = spec.table_breakpoints
    return (u >= bp[0]) & (u <= bp[-1])


def _finish(id_: str, margins, witnesses) -> HypothesisRecord:
    margins = np.asarray(margins, dtype=float)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    return HypothesisRecord(
        id=id_, holds=worst >= -1e-12, worst_margin=worst, witness=witnesses[k]
    )


def validate_hypotheses(
    spec: NonlinearitySpec,
    params: FracParams,
    regime: str,
    sample_count: int = 400,
    seed: int = 0,
) -> HypothesisReport:
    """Sample the regime's hypothesis set and report worst signed margins.

    regime is "SUBLINEAR" (coercive minimization setting) or "SUPERLINEAR"
    (mountain-pass setting).  Margins are normalized by the local scale of
    the two sides so a negative value is a genuine violation, not a
    rounding artifact.  Exponent-ordering requirements enter as structural
    margins with witness (0, 0).

    A TABLE profile is defined only within its breakpoints.  If a sample
    falls outside, a failed table_range record comes first, its margin
    the overshoot over the table's width and its witness the farthest
    sample, and every other record takes the samples the table covers;
    a record left with none of them is left out.
    """
    regime = regime.upper()
    if regime not in ("SUBLINEAR", "SUPERLINEAR"):
        raise ValueError(f"unknown regime {regime!r}")
    t, u = _sample_points(params, sample_count, seed)
    records = []
    inside = _covered(spec, u)
    if not np.all(inside):
        bp = spec.table_breakpoints
        excess = np.maximum(bp[0] - u, u - bp[-1])
        records.append(_finish("table_range", -excess / (bp[-1] - bp[0]), list(zip(t, u))))
        t, u = t[inside], u[inside]
        if not len(u):
            return HypothesisReport(
                regime=regime, family=spec.family.value, records=tuple(records)
            )
    f = spec.f_values(t, u)
    F = spec.F_values(t, u)
    p = params.p

    if spec.family is Family.SUBLINEAR_POWER:
        q_eff = mu_eff = spec.q
    elif spec.family is Family.SUPERLINEAR_POWER:
        q_eff = mu_eff = spec.mu
    else:
        q_eff = mu_eff = spec.q if spec.q is not None else None

    if regime == "SUBLINEAR":
        at = spec.a_coeff(t)
        bt = spec.b_coeff(t)
        # lower bound F >= a|u|^q and growth |f| <= q b |u|^(q-1)
        if q_eff is not None:
            lower = F - at * np.abs(u) ** q_eff
            scale = np.maximum(np.abs(F), np.abs(at) * np.abs(u) ** q_eff) + 1e-300
            m = lower / scale
            struct = min(q_eff - 1.0, p - q_eff)
            records.append(
                _finish(
                    "lower_bound",
                    np.concatenate([m, [struct]]),
                    list(zip(t, u)) + [(0.0, 0.0)],
                )
            )
            rhs = q_eff * bt * np.abs(u) ** (q_eff - 1.0)
            scale = np.maximum(np.abs(f), rhs) + 1e-300
            records.append(
                _finish("growth", (rhs - np.abs(f)) / scale, list(zip(t, u)))
            )
        # f u <= mu F with 1 < mu <= q < p
        fu = f * u
        if mu_eff is not None:
            lhs = mu_eff * F - fu
            scale = np.maximum(np.abs(fu), np.abs(mu_eff * F)) + 1e-300
            struct = min(mu_eff - 1.0, q_eff - mu_eff, p - q_eff)
            records.append(
                _finish(
                    "sub_homogeneity",
                    np.concatenate([lhs / scale, [struct]]),
                    list(zip(t, u)) + [(0.0, 0.0)],
                )
            )
        # evenness F(t,u) = F(t,-u), where the spec covers -u too
        sym = _covered(spec, -u)
        if np.any(sym):
            Fp = F[sym]
            Fm = spec.F_values(t[sym], -u[sym])
            scale = np.maximum(np.abs(Fp), np.abs(Fm)) + 1e-300
            records.append(
                _finish("evenness", -np.abs(Fp - Fm) / scale, list(zip(t[sym], u[sym])))
            )
    else:
        # F(t, 0) = 0 and |f| <= q b |u|^(q-1) with q >= p
        F0 = spec.F_values(t, np.zeros_like(t))
        records.append(_finish("zero_at_origin", -np.abs(F0), list(zip(t, np.zeros_like(t)))))
        if q_eff is not None and spec.b_const is not None:
            rhs = q_eff * spec.b_const * np.abs(u) ** (q_eff - 1.0)
            scale = np.maximum(np.abs(f), rhs) + 1e-300
            struct = q_eff - p
            records.append(
                _finish(
                    "growth",
                    np.concatenate([(rhs - np.abs(f)) / scale, [struct]]),
                    list(zip(t, u)) + [(0.0, 0.0)],
                )
            )
        # Ambrosetti-Rabinowitz: 0 < mu F <= f u for |u| >= r, mu > p
        if mu_eff is not None:
            big = np.abs(u) >= spec.r
            tb, ub = t[big], u[big]
            if len(ub) == 0:
                tb, ub = np.array([0.0]), np.array([spec.r])
            ok = _covered(spec, ub)
            tb, ub = tb[ok], ub[ok]
            fb = spec.f_values(tb, ub)
            Fb = spec.F_values(tb, ub)
            fu = fb * ub
            scale = np.maximum(np.abs(fu), np.abs(mu_eff * Fb)) + 1e-300
            margins = np.minimum((fu - mu_eff * Fb) / scale, Fb / scale)
            struct = mu_eff - p
            records.append(
                _finish(
                    "ambrosetti_rabinowitz",
                    np.concatenate([margins, [struct]]),
                    list(zip(tb, ub)) + [(0.0, 0.0)],
                )
            )
        # f(t, xi) = o(|xi|^(p-1)) as xi -> 0, tested on a dyadic ladder
        ks = np.arange(0, 41)
        xi = 2.0 ** (-ks)
        xi = xi[_covered(spec, xi)]
        if len(xi):
            t0 = float(t[0]) if len(t) else 0.0
            ratios = np.abs(spec.f_values(np.full_like(xi, t0), xi)) / xi ** (p - 1.0)
            decay = -np.maximum(np.diff(ratios), 0.0) / (np.abs(ratios[:-1]) + 1e-300)
            tail = 1e-6 - ratios[-1]
            records.append(
                _finish(
                    "small_amplitude_decay",
                    np.concatenate([decay, [tail]]),
                    [(t0, float(x)) for x in xi[:-1]] + [(t0, float(xi[-1]))],
                )
            )

    return HypothesisReport(
        regime=regime, family=spec.family.value, records=tuple(records)
    )
