"""Parametric nonlinearity families f(t, u) with exact antiderivatives.

Two analytic power families cover the sublinear and superlinear regimes:

    SUBLINEAR_POWER:    f = q a(t) |u|^(q-2) u,    F = a(t) |u|^q,    1 < q < p
    SUPERLINEAR_POWER:  f = |u|^(mu-2) u,          F = |u|^mu / mu,   mu > p

and TABLE carries a piecewise-linear profile in u (optionally scaled by a
coefficient function of t) whose antiderivative is integrated exactly
segment by segment and expanded about the nearer end of each segment;
u = 0 is always a node, so F(t, 0) = 0 exactly.

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
        if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
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
    # (nodes, values, slope of each segment, F at each node): the
    # breakpoints with u = 0 among them
    _table_nodes: tuple = field(init=False, default=None, repr=False)

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
            # F is expanded about nodes, so u = 0 is made one: the
            # interpolant is unchanged and F(t, 0) = 0 holds exactly
            slope = np.diff(fv) / np.diff(bp)
            k = int(np.searchsorted(bp, 0.0))
            if bp[k] != 0.0:
                bp, fv = np.insert(bp, k, 0.0), np.insert(fv, k, np.interp(0.0, bp, fv))
                slope = np.insert(slope, k, slope[k - 1])
            # exact antiderivative of the linear interpolant at each node
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (fv[1:] + fv[:-1]) * np.diff(bp))])
            cum -= cum[k]
            for a in (bp, fv, slope, cum):
                a.setflags(write=False)
            object.__setattr__(self, "_table_nodes", (bp, fv, slope, cum))

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
        return self.a_coeff(t) * self._table_F(u)

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
        return self.a_coeff(t) * self._table_nodes[2][self._table_segment(u)]

    def quadratic_bound(self, t, r):
        """(m, k) with 2 |F(t, s)| <= m(t) k(r) s^2 for |s| <= r, k(r) the
        least such factor for each radius r > 0 in r; inf where [-r, r]
        leaves a table's range, or where f(t, 0) != 0.  For SUPERLINEAR_POWER
        m k r^2 / 2 is max |F| on [-r, r]; below mu = 2, where no such
        factor exists, k bounds only that max."""
        m = np.abs(self.a_coeff(t))
        if self.family is Family.SUPERLINEAR_POWER:
            return np.ones_like(m), 2.0 * r ** (self.mu - 2.0) / self.mu
        bp, fv, slope, cum = self._table_nodes
        k0 = int(np.searchsorted(bp, 0.0))
        # on a segment F / a = slope s^2 / 2 + b s + c, so 2 F / (a s^2) is a
        # quadratic in 1 / s: |.| peaks at +-r, at a node, at s = -2 c / b,
        # or next to 0, where it is the slope there if f(t, 0) = 0
        near = np.abs(slope[max(k0 - 1, 0) : k0 + 1]).max() if fv[k0] == 0.0 else np.inf
        x0, f0 = bp[:-1], fv[:-1]
        b, c = f0 - slope * x0, cum[:-1] - x0 * (f0 - 0.5 * slope * x0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = -2.0 * c / b
        z = np.concatenate([bp[bp != 0.0], v[(x0 < v) & (v < bp[1:]) & (x0 * bp[1:] > 0.0)]])
        z = z[np.argsort(np.abs(z))]
        ratio = 2.0 * np.abs(self._table_F(z)) / z**2
        peak = np.maximum.accumulate(np.concatenate([[near], ratio]))
        inside = r <= min(-bp[0], bp[-1])
        r = np.where(inside, r, 1.0)
        ends = 2.0 * np.abs(self._table_F(np.stack([r, -r]))).max(axis=0) / r**2
        k = np.maximum(peak[np.searchsorted(np.abs(z), r, "right")], ends)
        return m, np.where(inside, k, np.inf)

    def _table_F(self, u: np.ndarray) -> np.ndarray:
        """F / a for a table: the exact antiderivative of its interpolant."""
        idx = self._table_segment(u)
        bp, fv, slope, cum = self._table_nodes
        # expand about the nearer end of the segment, so nothing cancels
        j = idx + (u - bp[idx] > bp[idx + 1] - u)
        du = u - bp[j]
        return cum[j] + (fv[j] * du + 0.5 * slope[idx] * du * du)

    def _table_segment(self, u: np.ndarray) -> np.ndarray:
        """Index of the segment between _table_nodes that holds each u;
        raises ExtrapolationError if a u lies outside the breakpoints."""
        if not np.all(_covered(self, u)):
            bp = self.table_breakpoints
            raise ExtrapolationError(f"TABLE family evaluated outside [{bp[0]}, {bp[-1]}]")
        nodes = self._table_nodes[0]
        return np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, len(nodes) - 2)

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
    families, those not outside the breakpoints for TABLE (a NaN is not
    outside, so it propagates instead of raising)."""
    u = np.asarray(u, dtype=float)
    if spec.family is not Family.TABLE:
        return np.ones(u.shape, dtype=bool)
    bp = spec.table_breakpoints
    return ~((u < bp[0]) | (u > bp[-1]))


def _slack(small, large):
    """Signed slack of small <= large, relative to the larger side."""
    return (large - small) / (np.maximum(np.abs(small), np.abs(large)) + 1e-300)


def _finish(id_: str, margins, t, u, struct=None) -> HypothesisRecord:
    """Record of the worst of margins, each witnessed by its (t, u); a
    structural exponent margin struct enters at witness (0, 0)."""
    if struct is not None:
        margins, t, u = np.append(margins, struct), np.append(t, 0.0), np.append(u, 0.0)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    return HypothesisRecord(
        id=id_, holds=worst >= -1e-12, worst_margin=worst, witness=(float(t[k]), float(u[k]))
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
    (mountain-pass setting).  Both regimes read one exponent q: mu for
    SUPERLINEAR_POWER, q otherwise (TABLE reads q, if given, in both
    regimes, and skips the records that need it if not).  An inequality
    small <= large enters as the slack (large - small) / max(|small|,
    |large|), relative to the larger side, so a negative value is a
    genuine violation, not a rounding artifact.  Exponent-ordering
    requirements enter as structural margins with witness (0, 0).

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
        records.append(_finish("table_range", -excess / (bp[-1] - bp[0]), t, u))
        t, u = t[inside], u[inside]
        if not len(u):
            return HypothesisReport(
                regime=regime, family=spec.family.value, records=tuple(records)
            )
    f = spec.f_values(t, u)
    F = spec.F_values(t, u)
    p = params.p
    q = spec.mu if spec.family is Family.SUPERLINEAR_POWER else spec.q

    def growth(b, struct=None):
        # |f| <= q b |u|^(q-1)
        return _finish("growth", _slack(np.abs(f), q * b * np.abs(u) ** (q - 1.0)), t, u, struct)

    if regime == "SUBLINEAR":
        if q is not None:
            # F >= a|u|^q, the growth bound and f u <= q F, with 1 < q < p
            lower = _slack(spec.a_coeff(t) * np.abs(u) ** q, F)
            records.append(_finish("lower_bound", lower, t, u, min(q - 1.0, p - q)))
            records.append(growth(spec.b_coeff(t)))
            # the homogeneity exponent is q itself, so its ordering term is 0
            struct = min(q - 1.0, 0.0, p - q)
            records.append(_finish("sub_homogeneity", _slack(f * u, q * F), t, u, struct))
        # evenness F(t,u) = F(t,-u), where the spec covers -u too
        sym = _covered(spec, -u)
        if np.any(sym):
            Fm = spec.F_values(t[sym], -u[sym])
            records.append(_finish("evenness", -np.abs(_slack(F[sym], Fm)), t[sym], u[sym]))
    else:
        # F(t, 0) = 0 and the growth bound with q >= p
        F0 = spec.F_values(t, np.zeros_like(t))
        records.append(_finish("zero_at_origin", -np.abs(F0), t, np.zeros_like(t)))
        if q is not None and spec.b_const is not None:
            records.append(growth(spec.b_const, q - p))
        # Ambrosetti-Rabinowitz: 0 < q F <= f u for |u| >= r, q > p
        if q is not None:
            big = np.abs(u) >= spec.r
            tb, ub = t[big], u[big]
            if len(ub) == 0:
                tb, ub = np.array([0.0]), np.array([spec.r])
            ok = _covered(spec, ub)
            tb, ub = tb[ok], ub[ok]
            fu = spec.f_values(tb, ub) * ub
            Fb = spec.F_values(tb, ub)
            positive = Fb / (np.maximum(np.abs(fu), np.abs(q * Fb)) + 1e-300)
            margins = np.minimum(_slack(q * Fb, fu), positive)
            records.append(_finish("ambrosetti_rabinowitz", margins, tb, ub, q - p))
        # f(t, xi) = o(|xi|^(p-1)) as xi -> 0, tested on a dyadic ladder
        xi = 2.0 ** -np.arange(41.0)
        xi = xi[_covered(spec, xi)]
        if len(xi):
            t0 = np.full_like(xi, t[0])
            ratios = np.abs(spec.f_values(t0, xi)) / xi ** (p - 1.0)
            decay = -np.maximum(np.diff(ratios), 0.0) / (np.abs(ratios[:-1]) + 1e-300)
            margins = np.append(decay, 1e-6 - ratios[-1])
            records.append(_finish("small_amplitude_decay", margins, t0, xi))

    return HypothesisReport(
        regime=regime, family=spec.family.value, records=tuple(records)
    )
