import importlib
import math

import pytest

from fracplap import FracParams, PropertyId, gamma, make_grid, run_suite, verify
from fracplap.verify import _CHECKERS, translation_bound


def test_checker_coverage_matches_enumeration():
    assert set(_CHECKERS) == set(PropertyId)
    assert len(PropertyId) == 13


def test_identity_properties_machine_exact():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    grid = make_grid(1.0, 128)
    for prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_EXACT,
        PropertyId.RL_CAPUTO,
        PropertyId.EVEN_ENERGY,
    ):
        rep = verify(prop, params, grid, samples=100, seed=42)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-12
        assert rep.tolerance_used == 1e-12


def test_inequality_properties_pass():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    for prop in (
        PropertyId.SEMIGROUP,
        PropertyId.LEFT_INVERSE,
        PropertyId.IBP_INTEGRAL,
        PropertyId.YOUNG_BOUND,
        PropertyId.POINCARE,
        PropertyId.SUP_EMBED,
        PropertyId.EMBED_LQ,
        PropertyId.MONOTONE_GAP,
        PropertyId.GRAD_FD,
    ):
        rep = verify(prop, params, grid, samples=40, seed=1)
        assert rep.passed, f"{prop.value} failed with margin {rep.worst_margin}"


def test_poincare_constant_recomputed():
    params = FracParams(alpha=0.5, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    rep = verify(PropertyId.POINCARE, params, grid, samples=100, seed=0)
    assert rep.passed
    # closed form 1/Gamma(1.5) = 2/sqrt(pi)
    assert rep.bound_constant == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert rep.bound_constant == pytest.approx(
        1.0**0.5 / gamma(1.5), rel=1e-12
    )


def test_sup_embed_precondition_raises():
    params = FracParams(alpha=0.3, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    with pytest.raises(ValueError):
        verify(PropertyId.SUP_EMBED, params, grid)


def test_translation_compact_report():
    params = FracParams(alpha=0.4, p=2.0, T=1.0)
    grid = make_grid(1.0, 256)
    rep = verify(PropertyId.TRANSLATION_COMPACT, params, grid, samples=20, seed=42)
    assert rep.passed
    assert rep.refinement_ratio is not None and rep.refinement_ratio <= 1.0
    # derived bound is positive and h-monotone
    assert translation_bound(params, 1.0 / 64.0) < translation_bound(params, 1.0 / 16.0)


def test_suite_skip_routing_low_alpha():
    params = FracParams(alpha=0.3, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    reports = run_suite([params], grid, seed=0, samples=10)
    by_prop = {r.property: r for r in reports}
    assert by_prop[PropertyId.SUP_EMBED].status == "skipped"
    assert "alpha" in by_prop[PropertyId.SUP_EMBED].reason
    assert by_prop[PropertyId.POINCARE].status == "passed"
    assert by_prop[PropertyId.EMBED_LQ].status == "passed"


def test_suite_all_run_high_alpha():
    params = FracParams(alpha=0.75, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    reports = run_suite([params], grid, seed=0, samples=10)
    assert len(reports) == 13
    assert all(r.status != "skipped" for r in reports)


def test_suite_empty_params():
    assert run_suite([], make_grid(1.0, 16), seed=0) == []


def test_suite_order_and_determinism():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    r1 = run_suite([params], grid, seed=42, samples=10)
    r2 = run_suite([params], grid, seed=42, samples=10)
    assert [r.property for r in r1] == list(PropertyId)
    for a, b in zip(r1, r2):
        assert a == b  # dataclass equality covers every reported number


def test_report_invariant_passed_iff_margin():
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    for r in run_suite([params], grid, seed=3, samples=10):
        if r.status == "skipped":
            continue
        if r.refinement_ratio is None:
            assert r.passed == (r.worst_margin >= -r.tolerance_used)
        elif r.passed:
            assert r.worst_margin >= -r.tolerance_used


def test_bound_constants_closed_forms():
    import mpmath

    mpmath.mp.dps = 30
    grid = make_grid(1.0, 128)
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    young = verify(PropertyId.YOUNG_BOUND, params, grid, samples=10, seed=0)
    ref = float(1.0**0.6 / mpmath.gamma(1.6))
    assert young.bound_constant == pytest.approx(ref, rel=1e-12)
    sup = verify(PropertyId.SUP_EMBED, params, grid, samples=10, seed=0)
    a, p, q = 0.6, 2.0, 2.0
    ref = float(1.0 ** (a - 1 / p) / (mpmath.gamma(a) * ((a - 1) * q + 1) ** (1 / q)))
    assert sup.bound_constant == pytest.approx(ref, rel=1e-12)


def test_run_suite_builds_operators_once_per_parameter_set(monkeypatch):
    # one set per parameter set, plus the 2n set of IBP_INTEGRAL, the one
    # refinement check; the package attribute fracplap.verify is the
    # function, so fetch the module itself
    verify_mod = importlib.import_module("fracplap.verify")

    calls = []
    build = verify_mod.build_operators

    def counting(params, grid):
        calls.append(grid.n)
        return build(params, grid)

    monkeypatch.setattr(verify_mod, "build_operators", counting)
    grid = make_grid(1.0, 64)
    params = [FracParams(alpha=0.6, p=2.0, T=1.0), FracParams(alpha=0.3, p=2.0, T=1.0)]
    reports = run_suite(params, grid, seed=0, samples=4)
    assert len(reports) == 26
    assert sorted(calls) == [64, 64, 128, 128]


@pytest.mark.parametrize(
    "T, n, alpha, p, props",
    [
        (1.0, 1024, 1.0, 2.0, ("LEFT_INVERSE",)),
        (10.0, 1024, 0.9, 3.0, ("SEMIGROUP", "LEFT_INVERSE")),
        (100.0, 256, 0.9, 1.5, ("SEMIGROUP",)),
    ],
)
def test_exact_identities_pass_at_any_scale(T, n, alpha, p, props):
    # errors here sit at the rounding level, where a refinement ratio
    # would compare two rounding errors
    params = FracParams(alpha=alpha, p=p, T=T)
    for prop in props:
        rep = verify(PropertyId(prop), params, make_grid(T, n), samples=100, seed=0)
        assert rep.passed, (prop, rep.worst_margin)
        assert rep.refinement_ratio is None and rep.tolerance_used == 1e-12


def test_identity_margins_independent_of_T():
    # errors are relative to the exact side, so the T^(2 alpha) scale of
    # I^(2 alpha) drops out
    margins = {
        T: [
            verify(prop, FracParams(alpha=0.6, p=2.0, T=T), make_grid(T, 1024), seed=0).worst_margin
            for prop in (PropertyId.SEMIGROUP, PropertyId.LEFT_INVERSE)
        ]
        for T in (0.01, 1.0, 100.0)
    }
    for T in (0.01, 100.0):
        for m, ref in zip(margins[T], margins[1.0]):
            assert 0.5 * ref >= m >= 2.0 * ref, (T, m, ref)


@pytest.mark.parametrize("alpha, p, n", [(0.6, 2.0, 256), (0.3, 3.0, 64), (0.9, 1.5, 128)])
def test_single_property_reproduces_suite_record(alpha, p, n):
    params = FracParams(alpha=alpha, p=p, T=1.0)
    grid = make_grid(1.0, n)
    suite = run_suite([params], grid, seed=1, samples=20)
    ran = [r for r in suite if r.status != "skipped"]
    assert ran
    for rec in ran:
        assert verify(rec.property, params, grid, samples=20, seed=1) == rec


_BATCHED = [
    PropertyId.SEMIGROUP,
    PropertyId.LEFT_INVERSE,
    PropertyId.IBP_EXACT,
    PropertyId.IBP_INTEGRAL,
    PropertyId.RL_CAPUTO,
    PropertyId.YOUNG_BOUND,
    PropertyId.POINCARE,
    PropertyId.SUP_EMBED,
    PropertyId.EMBED_LQ,
    PropertyId.TRANSLATION_COMPACT,
    PropertyId.MONOTONE_GAP,
    PropertyId.GRAD_FD,
    PropertyId.EVEN_ENERGY,
]


@pytest.mark.parametrize("samples", [11, 17])
def test_reports_independent_of_block_size(samples, monkeypatch):
    # blocks of 1, 2, 3, 4 and 6 rows against the default (one block
    # here); checks holding two rows per sample then take 1, 1, 1, 2 and
    # 3 samples per block, and odd counts put the smooth/rough
    # alternation across block boundaries
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.8, p=1.5, T=1.0)
    grid = make_grid(1.0, 64)
    assert fracops._BLOCK_DOUBLES // (2 * (grid.n + 1)) >= samples
    ref = {prop: verify(prop, params, grid, samples=samples, seed=7) for prop in _BATCHED}
    for rows in (1, 2, 3, 4, 6):
        monkeypatch.setattr(fracops, "_BLOCK_DOUBLES", rows * (grid.n + 1))
        for prop in _BATCHED:
            assert verify(prop, params, grid, samples=samples, seed=7) == ref[prop], (prop, rows)


def test_grad_fd_redraw_independent_of_block_size(monkeypatch):
    # a config whose clearance test rejects candidates, so a u redraws,
    # possibly across a block boundary, while v draws never do
    verify_mod = importlib.import_module("fracplap.verify")
    fracops = importlib.import_module("fracplap.fracops")
    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 64)
    samples = 11
    draw = verify_mod._draw
    drawn = []

    def counting(grid, rng, smooth, dirichlet):
        drawn.append(len(smooth))
        return draw(grid, rng, smooth, dirichlet)

    monkeypatch.setattr(verify_mod, "_draw", counting)
    ref = verify(PropertyId.GRAD_FD, params, grid, samples=samples, seed=9)
    assert ref.passed
    assert sum(drawn) > 2 * samples
    for rows in (1, 2, 3):
        monkeypatch.setattr(fracops, "_BLOCK_DOUBLES", rows * (grid.n + 1))
        drawn.clear()
        assert verify(PropertyId.GRAD_FD, params, grid, samples=samples, seed=9) == ref, rows
        assert max(drawn) == rows and sum(drawn) > 2 * samples


def test_verify_memory_stays_in_blocks():
    # whole ensembles held as arrays would exceed this at n = 1024; a small
    # run of every property first keeps first-use allocations (FFT plans,
    # sine tables at n and 2n) out of the measured peaks, so the result
    # does not depend on which tests ran before
    import tracemalloc

    params = FracParams(alpha=0.6, p=2.0, T=1.0)
    grid = make_grid(1.0, 1024)
    for prop in PropertyId:
        verify(prop, params, grid, samples=2, seed=1)
    for prop in PropertyId:
        tracemalloc.start()
        try:
            verify(prop, params, grid, samples=100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, (prop.value, peak)
