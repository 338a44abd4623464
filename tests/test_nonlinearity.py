import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplap import (
    CoefficientFn,
    ExtrapolationError,
    FracParams,
    sublinear_power,
    superlinear_power,
    table_spec,
    validate_hypotheses,
)
from fracplap.nonlinearity import _sample_points, point_values

PARAMS = FracParams(alpha=0.6, p=2.0, T=1.0)


def test_zero_maps_to_zero():
    for spec in (sublinear_power(1.5), superlinear_power(4.0)):
        f, F = point_values(spec, 0.3, 0.0)
        assert f == 0.0 and F == 0.0


def test_sublinear_example():
    # q = 1.5, a = 1, u = 4: f = 1.5 * 4^0.5 = 3, F = 4^1.5 = 8
    f, F = point_values(sublinear_power(1.5), 0.0, 4.0)
    assert f == pytest.approx(3.0, rel=1e-14)
    assert F == pytest.approx(8.0, rel=1e-14)


def test_superlinear_example():
    # mu = 4, u = -2: f = |u|^2 u = -8, F = |u|^4/4 = 4
    f, F = point_values(superlinear_power(4.0), 0.0, -2.0)
    assert f == pytest.approx(-8.0, rel=1e-14)
    assert F == pytest.approx(4.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(-1e3, 1e3, allow_nan=False),
    t=st.floats(0.0, 1.0),
    q=st.floats(1.2, 1.9),
    mu=st.floats(2.5, 6.0),
)
def test_odd_f_even_F(u, t, q, mu):
    for spec in (sublinear_power(q), superlinear_power(mu)):
        fp_, Fp = point_values(spec, t, u)
        fm, Fm = point_values(spec, t, -u)
        assert fm == -fp_
        assert Fm == Fp


def test_antiderivative_consistency():
    # (F(u+e) - F(u-e)) / 2e = f(u), away from the kink at 0 for q < 2
    rng = np.random.default_rng(9)
    specs = [sublinear_power(1.5), superlinear_power(4.0)]
    for spec in specs:
        for _ in range(1000):
            u = float(rng.uniform(0.1, 50.0) * rng.choice([-1.0, 1.0]))
            t = float(rng.uniform(0.0, 1.0))
            eps = 1e-5 * max(1.0, abs(u))
            _, Fp = point_values(spec, t, u + eps)
            _, Fm = point_values(spec, t, u - eps)
            f, _ = point_values(spec, t, u)
            fd = (Fp - Fm) / (2.0 * eps)
            assert fd == pytest.approx(f, rel=1e-6, abs=1e-12)


def test_table_family_matches_linear_profile():
    # table encoding of f(u) = u reproduces F(u) = u^2/2 exactly
    spec = table_spec(np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9))
    f, F = point_values(spec, 0.0, 0.75)
    assert f == pytest.approx(0.75, rel=1e-14)
    assert F == pytest.approx(0.75**2 / 2.0, rel=1e-13)


def test_table_extrapolation_rejected():
    spec = table_spec([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ExtrapolationError):
        point_values(spec, 0.0, 2.0)
    for values in (spec.F_values, spec.fu_values):
        with pytest.raises(ExtrapolationError):
            values(0.0, 2.0)


def test_table_with_time_coefficient():
    # f(t, u) = pi^2 sin(pi t), F = pi^2 sin(pi t) u: the classical source
    a = CoefficientFn(kind="sine", value=0.0, amplitude=np.pi**2, frequency=np.pi)
    spec = table_spec([-10.0, 10.0], [1.0, 1.0], a_coeff=a)
    f, F = point_values(spec, 0.5, 3.0)
    assert f == pytest.approx(np.pi**2, rel=1e-14)
    assert F == pytest.approx(3.0 * np.pi**2, rel=1e-14)


def test_sublinear_hypotheses_hold():
    rep = validate_hypotheses(sublinear_power(1.5), PARAMS, "SUBLINEAR", seed=3)
    assert rep.all_hold
    for rec in rep.records:
        assert rec.worst_margin >= -1e-12


def test_superlinear_hypotheses_hold():
    rep = validate_hypotheses(superlinear_power(4.0), PARAMS, "SUPERLINEAR", seed=3)
    assert rep.all_hold


def test_superlinear_fails_sublinear_regime():
    # exponent ordering mu <= q < p is violated structurally for mu = 4 > p = 2
    rep = validate_hypotheses(superlinear_power(4.0), PARAMS, "SUBLINEAR", seed=3)
    rec = rep.record("sub_homogeneity")
    assert not rec.holds
    assert rec.worst_margin < 0.0


def test_sublinear_fails_superlinear_regime():
    rep = validate_hypotheses(sublinear_power(1.5), PARAMS, "SUPERLINEAR", seed=3)
    assert not rep.all_hold


def test_small_amplitude_decay_record():
    rep = validate_hypotheses(superlinear_power(4.0), PARAMS, "SUPERLINEAR", seed=3)
    rec = rep.record("small_amplitude_decay")
    assert rec.holds


def test_evenness_detection():
    asym = table_spec([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert not asym.is_even()
    sym = table_spec([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    assert sym.is_even()


@pytest.mark.parametrize("regime", ["SUBLINEAR", "SUPERLINEAR"])
def test_hypotheses_on_narrow_table_report_range_failure(regime):
    spec = table_spec([-1.0, 0.0, 2.0], [1.0, 0.0, 1.0])
    rep = validate_hypotheses(spec, PARAMS, regime, seed=3)
    rec = rep.records[0]
    assert rec.id == "table_range" and not rec.holds and not rep.all_hold
    # the witness is the sample farthest outside [-1, 2]
    _, u = _sample_points(PARAMS, 400, 3)
    excess = np.maximum(-1.0 - u, u - 2.0)
    assert rec.witness[1] == u[np.argmax(excess)]
    assert rec.worst_margin == -np.max(excess) / 3.0
    assert len(rep.records) > 1
    assert all(-1.0 <= r.witness[1] <= 2.0 for r in rep.records[1:])


def test_hypotheses_on_wide_table_have_no_range_record():
    spec = table_spec([-2e3, 0.0, 2e3], [-2e3, 0.0, 2e3])
    ids = [r.id for r in validate_hypotheses(spec, PARAMS, "SUPERLINEAR", seed=3).records]
    assert "table_range" not in ids and "zero_at_origin" in ids


def test_hypotheses_on_table_outside_every_sample():
    # the sampler's |u| starts at 1e-6, so no sample lies inside
    spec = table_spec([-1e-7, 0.0, 1e-7], [-1.0, 0.0, 1.0])
    rep = validate_hypotheses(spec, PARAMS, "SUPERLINEAR", seed=3)
    assert [r.id for r in rep.records] == ["table_range"] and not rep.all_hold


# every record of the two power families in both regimes at seed 3: id,
# holds, exact worst margin (sign of zero included) and exact witness
PINNED_RECORDS = {
    ("sublinear", "SUBLINEAR"): [
        ("lower_bound", True, 0.0, (0.08564916714362436, -0.002188480996532658)),
        ("growth", True, 0.0, (0.08564916714362436, -0.002188480996532658)),
        ("sub_homogeneity", True, -4.434486511249928e-16, (0.2368105065960997, -0.0002443756748099864)),
        ("evenness", True, -0.0, (0.08564916714362436, -0.002188480996532658)),
    ],
    ("sublinear", "SUPERLINEAR"): [
        ("zero_at_origin", True, -0.0, (0.08564916714362436, 0.0)),
        ("ambrosetti_rabinowitz", False, -0.5, (0.0, 0.0)),
        ("small_amplitude_decay", False, -1572863.999999, (0.08564916714362436, 9.094947017729282e-13)),
    ],
    ("superlinear", "SUBLINEAR"): [
        ("lower_bound", False, -2.0, (0.0, 0.0)),
        ("growth", True, 0.7499999999999999, (0.6605000674278948, 4.3298906533780664e-05)),
        ("sub_homogeneity", False, -2.0, (0.0, 0.0)),
        ("evenness", True, -0.0, (0.08564916714362436, -0.002188480996532658)),
    ],
    ("superlinear", "SUPERLINEAR"): [
        ("zero_at_origin", True, -0.0, (0.08564916714362436, 0.0)),
        ("growth", True, 0.0, (0.08564916714362436, -0.002188480996532658)),
        ("ambrosetti_rabinowitz", True, -2.218979702409258e-16, (0.08403124803742068, -3.364141204790413)),
        ("small_amplitude_decay", True, -0.0, (0.08564916714362436, 1.0)),
    ],
}


@pytest.mark.parametrize("family, regime", sorted(PINNED_RECORDS))
def test_hypothesis_records_are_pinned(family, regime):
    spec = sublinear_power(1.5) if family == "sublinear" else superlinear_power(4.0)
    rep = validate_hypotheses(spec, PARAMS, regime, seed=3)
    got = [(r.id, r.holds, r.worst_margin, tuple(map(float, r.witness))) for r in rep.records]
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got) == repr(PINNED_RECORDS[family, regime])


@pytest.mark.parametrize("breakpoints", [[-1.0, 1.0], [-1.0, 0.5, 2.0], [-1.0, 0.0, 1.0]])
def test_table_antiderivative_is_anchored_at_origin(breakpoints):
    # f = u whether or not u = 0 is a breakpoint, so F = u^2/2
    spec = table_spec(breakpoints, breakpoints)
    assert spec.F_values(0.3, 0.0) == 0.0
    assert point_values(spec, 0.3, 1.0)[1] == 0.5
    rep = validate_hypotheses(spec, PARAMS, "SUPERLINEAR", seed=3)
    assert rep.record("zero_at_origin").worst_margin == 0.0


@pytest.mark.parametrize("breakpoints", [[-1.0, 0.0, 1.0], [-1.0, 1.0]])
def test_table_antiderivative_near_origin_is_accurate(breakpoints):
    spec = table_spec(breakpoints, breakpoints)
    x = np.geomspace(1e-8, 1.0, 161)
    for u in (x, -x):
        np.testing.assert_allclose(spec.F_values(0.0, u), x * x / 2.0, rtol=1e-15, atol=0.0)
    # the samples inside [-1, 1] cover -u too, so evenness is checked there
    rep = validate_hypotheses(spec, PARAMS, "SUBLINEAR", seed=0)
    assert rep.record("evenness").holds


@pytest.mark.parametrize(
    "spec",
    [
        # a non-odd profile that changes sign inside [-r, r] three times
        table_spec([-2.0, -0.5, 0.0, 0.3, 1.0, 3.0], [1.5, -0.4, 0.0, 0.9, -2.0, 4.0]),
        # f vanishes for u > 0, so F peaks at -r
        table_spec([-1.0, 0.0, 1.0], [-5.0, 0.0, 0.0]),
        # a coefficient that changes sign over [0, 1]
        table_spec(
            [-1.0, -0.2, 0.0, 1.0], [-1.0, 0.3, 0.0, 1.0],
            a_coeff=CoefficientFn(kind="sine", value=0.2, amplitude=1.0, frequency=7.0),
        ),
        superlinear_power(3.0),
    ],
    ids=["non_odd_table", "one_sided_table", "sign_changing_a", "superlinear"],
)
def test_quadratic_bound_covers_the_max_of_F(spec):
    t = np.linspace(0.0, 1.0, 11)
    for r in (0.1, 0.2, 0.3, 0.45, 0.5, 0.7, 1.0):
        s = np.broadcast_to(np.linspace(-r, r, 20001), (len(t), 20001))
        brute = np.max(np.abs(spec.F_values(t[:, None], s)), axis=1)
        m, k = spec.quadratic_bound(t, np.array([r]))
        bound = m * k[0] * r * r / 2.0
        assert np.all(bound >= brute * (1.0 - 1e-14))  # the two round apart
        if spec.table_breakpoints is None:
            np.testing.assert_allclose(bound, brute, rtol=1e-15, atol=0.0)


QUADRATIC_SPECS = [
    table_spec([-2.0, -0.5, 0.0, 0.3, 1.0, 3.0], [1.5, -0.4, 0.0, 0.9, -2.0, 4.0]),
    table_spec([-1.0, 0.0, 1.0], [-5.0, 0.0, 0.0]),
    table_spec(np.linspace(-3.0, 3.0, 61), np.linspace(-3.0, 3.0, 61) ** 3),
    # 2 F / s^2 peaks inside the segment [2, 4], at s = 28 / 13, not at a node
    table_spec([-4.0, 0.0, 1.0, 2.0, 4.0], [-1.0, 0.0, 1.0, 6.0, -14.0]),
    superlinear_power(3.0),
    superlinear_power(2.5),
] + [
    table_spec(bp, np.where(bp == 0.0, 0.0, np.random.default_rng(seed).standard_normal(9)))
    for seed in range(8)
    for bp in [np.sort(np.append(np.random.default_rng(seed).uniform(-3.0, 3.0, 8), 0.0))]
]


@pytest.mark.parametrize("spec", QUADRATIC_SPECS)
def test_quadratic_bound_is_the_max_of_the_F_ratio(spec):
    for r in (0.05, 0.3, 0.7, 1.0, 2.5):
        if spec.table_breakpoints is not None and not r <= min(
            -spec.table_breakpoints[0], spec.table_breakpoints[-1]
        ):
            continue
        s = np.linspace(-r, r, 200_002)
        brute = np.max(2.0 * np.abs(spec.F_values(0.0, s)) / s**2)
        bound = spec.quadratic_bound(0.0, np.array([r]))[1][0]
        # the grid point and the peak round apart in the last bits
        assert brute * (1.0 - 1e-12) <= bound <= brute * (1.0 + 1e-6)


def test_quadratic_bound_is_inf_off_a_zero_at_0_or_past_the_table():
    # f(0) = 0.1 makes 2 F / s^2 blow up at 0
    spec = table_spec([-1.0, 1.0], [-0.9, 1.1])
    assert np.all(spec.quadratic_bound(0.0, np.array([1e-3, 0.5]))[1] == np.inf)
    spec = table_spec([-2.0, 0.0, 1.0], [-2.0, 0.0, 1.0])
    assert list(spec.quadratic_bound(0.0, np.array([0.5, 1.0, 1.5]))[1]) == [1.0, 1.0, np.inf]


