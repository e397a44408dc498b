import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mfgcoef.carleman import (
    HOLDS_REL_SLACK,
    QUAD_AGREE_RTOL,
    START_LEVEL,
    CarlemanParams,
    _level_forms,
    bound_constant,
    certify,
    conventional_vs_new_ratio,
    ratio_log_slope,
    run_certification,
    validate_exponent,
)
from mfgcoef import carleman
from mfgcoef.grid import SpaceTimeGrid


def direct_sums(knots, values, lam, alpha, level):
    """Both level sums node by node: (lhs_L, rhs_int_L)."""
    d = knots[-1]
    n = 2**level
    t = np.linspace(-d, d, n + 1)
    f = np.interp(t, knots, values)
    w = np.exp(-2.0 * lam * np.abs(t) ** (1.0 + alpha))
    h = 2.0 * d / n
    cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))))
    inner = cum - cum[n // 2]
    return np.trapezoid(w * inner * inner, dx=h), np.trapezoid(w * f * f, dx=h)


def direct_levels(knots, values, lam, alpha, start_level=6):
    """The level at which the node-by-node sums first settle."""
    prev = direct_sums(knots, values, lam, alpha, start_level)
    for level in range(start_level + 1, 25):
        cur = direct_sums(knots, values, lam, alpha, level)
        scale = max(abs(cur[0]), abs(cur[1]))
        if all(abs(c - p) <= QUAD_AGREE_RTOL * scale for c, p in zip(cur, prev)):
            return level
        prev = cur
    return None


def symmetric_unaligned_knots():
    # no interior knot lies on a grid node at any level, t = 0 included
    half = np.array([0.0173, 0.061, 0.1337, 0.2011, 0.29, 0.3583, 0.4419, 0.5])
    return np.concatenate((-half[::-1], half))


def whole_level_forms(knots, alpha, level, lams):
    """(G_L, K_L) built from arrays that span the whole level.

    The construction the streamed ``_level_forms`` replaced: it forms the
    node array, every interval's slopes and all lam's weights at once.
    """
    m = knots.size
    d = knots[-1]
    n = 2**level
    h = 2.0 * d / n
    t = np.linspace(-d, d, n + 1)
    bounds = np.searchsorted(t, knots)
    bounds[0], bounds[-1] = 0, n + 1
    spans = [slice(bounds[i], bounds[i + 1]) for i in range(m - 1)]
    slopes = [
        np.clip((t[span] - knots[i]) / (knots[i + 1] - knots[i]), 0.0, 1.0)
        for i, span in enumerate(spans)
    ]
    rise, fall = np.zeros(m), np.zeros(m)
    rise[1:] = [s.sum() for s in slopes]
    fall[:-1] = np.diff(bounds) - rise[1:]
    c = n // 2
    ic = int(np.searchsorted(bounds, c, side="right")) - 1
    s = slopes[ic][: c - bounds[ic] + 1]
    at_mid = np.zeros(m)
    at_mid[:ic] = h * (rise + fall)[:ic]
    at_mid[ic] = h * (rise[ic] + s.size - s.sum() - 0.5 * (1.0 - s[-1]))
    at_mid[ic + 1] = h * (s.sum() - 0.5 * s[-1])
    right = h * (rise + fall) - at_mid
    left = -at_mid
    gram = np.zeros((lams.size, m, m))
    kern = np.zeros((lams.size, m, m))
    for i, (span, s) in enumerate(zip(spans, slopes)):
        if s.size == 0:
            continue
        rows = np.empty((4, s.size))
        rows[0] = 1.0 - s
        rows[1] = s
        rows[2] = h * (rise[i] + np.cumsum(rows[0]) - 0.5 * rows[0]) - at_mid[i]
        rows[3] = h * (np.cumsum(s) - 0.5 * s) - at_mid[i + 1]
        weight = np.exp(np.multiply.outer(-2.0 * lams, np.abs(t[span]) ** (1.0 + alpha)))
        if span.start == 0:
            weight[:, 0] *= 0.5
        if span.stop == n + 1:
            weight[:, -1] *= 0.5
        sums = h * ((rows * weight[:, None, :]) @ rows.T)
        gram[:, i : i + 2, i : i + 2] += sums[:, :2, :2]
        coef = np.zeros((4, m))
        coef[:2, :i], coef[:2, i + 2 :] = right[:i], left[i + 2 :]
        coef[2, i] = coef[3, i + 1] = 1.0
        kern += coef.T @ sums @ coef
    return gram, kern


def test_exponent_validation():
    assert validate_exponent(0.2).denominator == 5
    assert validate_exponent(1.0 / 7.0).numerator == 1
    for bad in (0.25, 0.4, 1.0 / 3.0, 0.35, -0.2, 2.0 / 5.0):
        with pytest.raises(ValueError):
            validate_exponent(bad)


def weight_grid(n1, nt):
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=n1, n2=3, nt=nt)


def test_weight_peak_location_and_value():
    g = weight_grid(41, 41)
    p = CarlemanParams(lam=3.0, alpha=0.2)
    w = np.exp(p.balanced_log_weight(g))
    assert w.shape == (g.n1, g.nt)
    peak = np.unravel_index(np.argmax(w), w.shape)
    assert g.x1[peak[0]] == 2.0
    assert g.t[peak[1]] == 0.5
    # the weight over its peak exp(2 lam b^2) at (b, T/2), checked at a node
    x1, t = g.x1[30], g.t[7]
    weight = np.exp(2.0 * p.lam * (x1 * x1 - abs(t - 0.5) ** 1.2))
    assert w[30, 7] == pytest.approx(weight / np.exp(2.0 * p.lam * g.b * g.b), rel=1e-12)
    assert w.max() == 1.0


def test_weight_monotone_in_each_direction():
    g = weight_grid(21, 21)
    w = np.exp(CarlemanParams(lam=2.0, alpha=0.2).balanced_log_weight(g))
    assert np.all(np.diff(w[:, g.mid_index]) > 0)
    # at x1 = 1.5, past the temporal midpoint
    assert np.all(np.diff(w[10, g.mid_index:]) < 0)
    # symmetric about the temporal midpoint
    assert w[10, 4] == pytest.approx(w[10, 16], rel=1e-13)


def test_balanced_log_weight_never_positive():
    g = weight_grid(31, 31)
    lw = CarlemanParams(lam=100.0, alpha=0.2).balanced_log_weight(g)
    assert lw.max() <= 0.0
    assert lw.max() == pytest.approx(0.0, abs=1e-12)
    # no overflow at large lam: the balanced weight is a plain probability-like factor
    assert np.all(np.isfinite(np.exp(lw)))


def test_weight_needs_positive_b():
    g = SpaceTimeGrid(a=-1.0, b=0.0, half_width=0.5, horizon=1.0, n1=5, n2=3, nt=5)
    with pytest.raises(ValueError, match="b must be positive"):
        CarlemanParams(lam=1.0, alpha=0.2).balanced_log_weight(g)


def test_weight_needs_a_at_least_minus_b():
    # with a < -b the weight peaks at x1 = a, so the balanced log weight
    # is positive there and overflows for a large lam
    g = SpaceTimeGrid(a=-3.0, b=1.0, half_width=0.5, horizon=1.0, n1=5, n2=3, nt=5)
    with pytest.raises(ValueError, match="a must be at least -b"):
        CarlemanParams(lam=3.0, alpha=0.2).balanced_log_weight(g)
    # a = -b still peaks at x1 = b (and at x1 = a, equally)
    g = SpaceTimeGrid(a=-1.0, b=1.0, half_width=0.5, horizon=1.0, n1=5, n2=3, nt=5)
    lw = CarlemanParams(lam=100.0, alpha=0.2).balanced_log_weight(g)
    assert lw.max() == 0.0
    assert np.all(np.isfinite(np.exp(lw)))


def test_bound_constant_closed_form():
    # d^((1-3a)/2) / (sqrt(2) (1+a)^(3/2)) at d = 0.5, a = 1/5
    expect = 0.5 ** (0.2) / (np.sqrt(2.0) * 1.2**1.5)
    assert bound_constant(0.5, 0.2) == pytest.approx(expect, rel=1e-14)


def test_check_against_quad_oracle_constant_profile():
    # independent route: adaptive quad on the two integrands for f = 1
    lam, alpha, d = 1.0, 0.2, 0.5
    knots = np.linspace(-d, d, 17)
    r = certify(knots, np.ones((1, 17)), [lam], alpha)
    w = lambda t: np.exp(-2.0 * lam * abs(t) ** (1.0 + alpha))
    lhs_oracle = 2.0 * quad(lambda t: w(t) * t * t, 0.0, d, epsabs=1e-13)[0]
    rhs_int_oracle = 2.0 * quad(w, 0.0, d, epsabs=1e-13)[0]
    assert r.lhs[0, 0] == pytest.approx(lhs_oracle, rel=1e-7)
    expect = lam**-1.5 * bound_constant(d, alpha) * rhs_int_oracle
    assert r.rhs[0, 0] == pytest.approx(expect, rel=1e-7)
    assert r.status[0, 0] == "holds" and r.converged[0, 0]


def test_check_against_quad_oracle_linear_profile():
    lam, alpha, d = 4.0, 0.2, 0.5
    knots = np.linspace(-d, d, 17)
    r = certify(knots, knots[None, :], [lam], alpha)
    w = lambda t: np.exp(-2.0 * lam * abs(t) ** (1.0 + alpha))
    # inner integral of f(t) = t from 0 is t^2/2
    lhs_oracle = 2.0 * quad(lambda t: w(t) * (t * t / 2.0) ** 2, 0.0, d, epsabs=1e-14)[0]
    assert r.lhs[0, 0] == pytest.approx(lhs_oracle, rel=1e-7)
    assert r.status[0, 0] == "holds"


def test_inequality_holds_across_lambda_range():
    knots = np.linspace(-0.5, 0.5, 17)
    rng = np.random.default_rng(42)
    values = rng.uniform(-1.0, 1.0, 17)
    lams = (0.5, 1.0, 3.0, 10.0, 30.0, 100.0)
    r = certify(knots, values[None, :], lams, 0.2)
    assert r.converged.all()
    for j, lam in enumerate(lams):
        assert r.status[0, j] == "holds", (
            f"violated at lam={lam}: lhs={r.lhs[0, j]}, rhs={r.rhs[0, j]}"
        )


def test_margin_never_reverses_as_lambda_grows():
    knots = np.linspace(-0.5, 0.5, 17)
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, 17)
    r = certify(knots, values[None, :], (1, 2, 4, 8, 16), 0.2)
    assert (r.lhs <= r.rhs * (1.0 + HOLDS_REL_SLACK)).all()


def test_certification_suite_seeded():
    r = run_certification(seed=123, n_trials=10, lambdas=(1.0, 8.0), d=0.5, alpha=0.2)
    assert r.status.shape == (10, 2)
    assert (r.status == "holds").all()
    again = run_certification(seed=123, n_trials=10, lambdas=(1.0, 8.0), d=0.5, alpha=0.2)
    assert np.array_equal(r.lhs, again.lhs) and np.array_equal(r.rhs, again.rhs)


def test_ratio_closed_form_and_slope():
    c = bound_constant(0.5, 0.2)
    assert conventional_vs_new_ratio(1.0, 0.5, 0.2) == pytest.approx(c, rel=1e-14)
    assert conventional_vs_new_ratio(100.0, 0.5, 0.2) == pytest.approx(c / 10.0, rel=1e-14)
    assert ratio_log_slope((1.0, 2.0, 4.0, 8.0), 0.5, 0.2) == pytest.approx(-0.5, abs=1e-12)


def test_ratio_slope_fits_distinct_lambdas_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ratio_log_slope((2.0, 2.0), 0.5, 0.2) is None
        assert ratio_log_slope((4.0,), 0.5, 0.2) is None
        slope = ratio_log_slope((1.0, 1.0, 2.0, 8.0, 8.0), 0.5, 0.2)
        assert slope == pytest.approx(-0.5, abs=1e-12)


def test_ratio_dips_below_one_for_large_lambda():
    c = bound_constant(0.5, 0.2)
    lam_star = c * c
    assert conventional_vs_new_ratio(lam_star * 1.01, 0.5, 0.2) < 1.0
    assert conventional_vs_new_ratio(lam_star * 0.99, 0.5, 0.2) > 1.0


def test_profile_input_validation():
    knots = np.linspace(-0.5, 0.5, 17)
    profiles = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1, 17))
    with pytest.raises(ValueError):
        certify(np.array([0.0, 0.5]), np.ones((1, 2)), [1.0], 0.2)
    with pytest.raises(ValueError):
        certify(np.linspace(-0.5, 0.5, 5), np.ones((1, 5)), [0.0], 0.2)
    with pytest.raises(ValueError, match="finite"):
        certify(knots, profiles, [1.0, 1e-300], 0.2)
    with pytest.raises(ValueError):
        certify(knots, profiles, [1.0], 0.25)
    with pytest.raises(ValueError):
        certify(knots[::-1], profiles, [1.0], 0.2)
    with pytest.raises(ValueError, match="finite"):
        certify(np.array([-0.5, np.nan, 0.5]), np.ones((1, 3)), [1.0], 0.2)
    with pytest.raises(ValueError, match="one column per knot"):
        certify(knots, np.ones((1, 16)), [1.0], 0.2)
    with pytest.raises(ValueError, match="one column per knot"):
        certify(knots, np.ones(17), [1.0], 0.2)


@pytest.mark.parametrize("knots", [np.linspace(-0.5, 0.5, 17), symmetric_unaligned_knots()])
def test_forms_match_direct_trapezoid_sums(knots):
    rng = np.random.default_rng(11)
    lams = (1.0, 8.0, 100.0)
    for level in range(6, 13):
        gram, kern = _level_forms(knots, 0.2, level, np.array(lams))
        for i, lam in enumerate(lams):
            for values in (rng.uniform(-1.0, 1.0, knots.size), knots.copy(), np.ones(knots.size)):
                lhs, rhs_int = direct_sums(knots, values, lam, 0.2, level)
                assert values @ kern[i] @ values == pytest.approx(lhs, rel=1e-12, abs=0.0)
                assert values @ gram[i] @ values == pytest.approx(rhs_int, rel=1e-12, abs=0.0)


def test_certification_stops_where_the_direct_sums_settle():
    lams = (1.0, 8.0)
    r = run_certification(seed=0, n_trials=10, lambdas=lams, d=0.5, alpha=0.2)
    knots = np.linspace(-0.5, 0.5, 17)
    profiles = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10, 17))
    expected = [[direct_levels(knots, v, lam, 0.2) for lam in lams] for v in profiles]
    assert r.levels.tolist() == expected

    knots = symmetric_unaligned_knots()
    profiles = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, knots.size))
    r = certify(knots, profiles, lams, 0.2)
    expected = [[direct_levels(knots, v, lam, 0.2) for lam in lams] for v in profiles]
    assert r.levels.tolist() == expected
    assert (r.status == "holds").all()


def test_one_profile_certifies_alike_alone_and_in_a_batch():
    lams = (1.0, 8.0)
    profiles = np.random.default_rng(9).uniform(-1.0, 1.0, size=(10, 17))
    knots = np.linspace(-0.5, 0.5, 17)
    batch = certify(knots, profiles, lams, 0.2)
    for i in range(profiles.shape[0]):
        alone = certify(knots, profiles[i : i + 1], lams, 0.2)
        assert np.array_equal(alone.levels[0], batch.levels[i])
        np.testing.assert_allclose(alone.lhs[0], batch.lhs[i], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(alone.rhs[0], batch.rhs[i], rtol=1e-13, atol=0.0)


# an empty interval: at level 6 no node lies in [0.002, 0.004)
EMPTY_INTERVAL_KNOTS = np.array([-0.5, 0.002, 0.004, 0.5])


@pytest.mark.parametrize("knots", [
    np.linspace(-0.5, 0.5, 17),
    symmetric_unaligned_knots(),
    EMPTY_INTERVAL_KNOTS,
    np.concatenate(([-0.5 + 1e-12], np.linspace(-0.5, 0.5, 17)[1:])),
], ids=["equispaced", "unaligned", "empty-interval", "first-knot-inside"])
def test_streamed_forms_equal_the_whole_level_forms_bit_for_bit(knots):
    lams = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
    for level in range(6, 15):
        gram, kern = _level_forms(knots, 0.2, level, lams)
        ref_gram, ref_kern = whole_level_forms(knots, 0.2, level, lams)
        assert np.array_equal(gram, ref_gram), level
        assert np.array_equal(kern, ref_kern), level


def test_empty_interval_layout_has_an_empty_interval_at_level_6():
    t = np.linspace(-0.5, 0.5, 2**6 + 1)
    bounds = np.searchsorted(t, EMPTY_INTERVAL_KNOTS)
    assert bounds[1] == bounds[2]


def test_level_forms_hold_no_level_wide_array():
    # the bar is one level's float64 node array; the whole-level
    # construction peaks at about 3.5 times that
    knots = np.linspace(-0.5, 0.5, 17)
    level = 20
    tracemalloc.start()
    try:
        _level_forms(knots, 0.2, level, np.array([1.0, 2.0, 4.0, 8.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2**level + 1)


def test_quadrature_work_counts_the_form_builds(monkeypatch):
    builds = []

    def counted(knots, alpha, level, lams):
        builds.extend((level, lam) for lam in lams)
        return _level_forms(knots, alpha, level, lams)

    monkeypatch.setattr(carleman, "_level_forms", counted)
    # lam = 1000 settles far sooner than lam = 1
    r = run_certification(seed=4, n_trials=3, lambdas=(1.0, 1000.0), d=0.5, alpha=0.2)
    work = r.quadrature_work()
    deepest = r.levels.max(axis=0)
    assert work["deepest_level"] == deepest.tolist()
    assert deepest[0] != deepest[1]
    assert work["form_builds"] == len(builds)
    assert work["form_nodes"] == sum(2**level + 1 for level, _ in builds)
    for lam, top in zip((1.0, 1000.0), deepest):
        assert sorted(level for level, l in builds if l == lam) == list(range(START_LEVEL, top + 1))


def test_a_pair_that_never_settles_is_inconclusive(monkeypatch):
    # lam = 1e5 never settles, even by level 24; two levels reach the
    # inconclusive path without the deep quadrature
    monkeypatch.setattr(carleman, "MAX_LEVEL", START_LEVEL + 1)
    r = run_certification(seed=7, n_trials=3, lambdas=(1e5,), d=0.5, alpha=0.2)
    assert np.all(r.status == "inconclusive")
    assert np.all(r.levels == carleman.MAX_LEVEL)
    assert not r.converged.any()
