import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mfgcoef.carleman import (
    HOLDS_REL_SLACK,
    QUAD_AGREE_RTOL,
    CarlemanParams,
    _forms,
    _gauss_legendre,
    bound_constant,
    certify,
    conventional_vs_new_ratio,
    ratio_log_slope,
    run_certification,
    validate_exponent,
)
from mfgcoef import carleman
from mfgcoef.grid import SpaceTimeGrid


def running_integral(knots, values, t):
    """The profile's integral from 0 to t: exact trapezoid sums on its pieces."""
    inside = knots[(knots > min(t, 0.0)) & (knots < max(t, 0.0))]
    s = np.sort(np.concatenate(([0.0, t], inside)))
    f = np.interp(s, knots, values)
    return np.sign(t) * np.sum(0.5 * np.diff(s) * (f[1:] + f[:-1]))


def quad_sides(knots, values, lam, alpha):
    """(lhs, rhs_int) by adaptive quad between the knots, 0 and the weight's scales."""
    width = (2.0 * lam) ** (-1.0 / (1.0 + alpha))
    scales = width * np.array([0.1, 1.0, 3.0, 10.0, 30.0])
    cuts = np.concatenate((knots, [0.0], scales, -scales))
    cuts = np.unique(cuts[(cuts >= knots[0]) & (cuts <= knots[-1])])
    w = lambda t: np.exp(-2.0 * lam * abs(t) ** (1.0 + alpha))
    f = lambda t: np.interp(t, knots, values)
    psi = lambda t: running_integral(knots, values, t)

    def integral(g):
        return sum(
            quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )

    return integral(lambda t: w(t) * psi(t) ** 2), integral(lambda t: w(t) * f(t) ** 2)


def symmetric_unaligned_knots():
    # no interior knot is a dyadic cut d / 2^j, and t = 0 is no knot
    half = np.array([0.0173, 0.061, 0.1337, 0.2011, 0.29, 0.3583, 0.4419, 0.5])
    return np.concatenate((-half[::-1], half))


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
    lhs_oracle = 2.0 * quad(lambda t: w(t) * t * t, 0.0, d, epsabs=0.0, epsrel=1e-13)[0]
    rhs_int_oracle = 2.0 * quad(w, 0.0, d, epsabs=0.0, epsrel=1e-13)[0]
    assert r.lhs[0, 0] == pytest.approx(lhs_oracle, rel=1e-12)
    expect = lam**-1.5 * bound_constant(d, alpha) * rhs_int_oracle
    assert r.rhs[0, 0] == pytest.approx(expect, rel=1e-12)
    assert r.status[0, 0] == "holds" and r.converged[0, 0]


def test_check_against_quad_oracle_linear_profile():
    lam, alpha, d = 4.0, 0.2, 0.5
    knots = np.linspace(-d, d, 17)
    r = certify(knots, knots[None, :], [lam], alpha)
    w = lambda t: np.exp(-2.0 * lam * abs(t) ** (1.0 + alpha))
    # inner integral of f(t) = t from 0 is t^2/2
    lhs_oracle = quad(lambda t: w(t) * (t * t / 2.0) ** 2, 0.0, d, epsabs=0.0, epsrel=1e-13)[0]
    assert r.lhs[0, 0] == pytest.approx(2.0 * lhs_oracle, rel=1e-12)
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


KNOT_SETS = {
    "equispaced": np.linspace(-0.5, 0.5, 17),
    "unaligned": symmetric_unaligned_knots(),
    # one knot interval some 250 times narrower than its neighbours
    "narrow-interval": np.array([-0.5, 0.002, 0.004, 0.5]),
    "first-knot-inside": np.concatenate(([-0.5 + 1e-12], np.linspace(-0.5, 0.5, 17)[1:])),
}


def test_gauss_rule_integrates_polynomials_exactly():
    for points in (1, 2, 16, 32):
        nodes, weights = _gauss_legendre(points)
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], rtol=0.0, atol=1e-15)
        for power in range(2 * points):
            exact = 2.0 / (power + 1) if power % 2 == 0 else 0.0
            assert weights @ nodes**power == pytest.approx(exact, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("name", list(KNOT_SETS))
def test_forms_match_quad_oracles(name):
    knots = KNOT_SETS[name]
    rng = np.random.default_rng(11)
    rule = _gauss_legendre(2 * carleman.GAUSS_POINTS)
    for lam in (1.0, 8.0, 100.0, 1e5):
        gram, kern, _ = _forms(knots, lam, 0.2, rule)
        for values in (rng.uniform(-1.0, 1.0, knots.size), np.ones(knots.size)):
            lhs, rhs_int = quad_sides(knots, values, lam, 0.2)
            assert values @ kern @ values == pytest.approx(lhs, rel=1e-12, abs=0.0), lam
            assert values @ gram @ values == pytest.approx(rhs_int, rel=1e-12, abs=0.0), lam


@pytest.mark.parametrize("knots", [np.linspace(-0.5, 0.5, 17), symmetric_unaligned_knots()])
def test_forms_match_direct_trapezoid_sums(knots):
    # the same Gauss nodes, with the profile interpolated there and its
    # running integral taken as exact trapezoid sums from t = 0
    alpha = 0.2
    rng = np.random.default_rng(11)
    x, wq = rule = _gauss_legendre(2 * carleman.GAUSS_POINTS)
    for lam in (1.0, 8.0, 100.0):
        gram, kern, _ = _forms(knots, lam, alpha, rule)
        scale = lam ** (1.0 / (1.0 + alpha))
        for values in (rng.uniform(-1.0, 1.0, knots.size), knots.copy(), np.ones(knots.size)):
            lhs = rhs_int = 0.0
            for sign in (1.0, -1.0):
                radii = carleman._radii(sign * knots[sign * knots > 0], knots[-1], scale, alpha)
                half = 0.5 * np.diff(radii)[:, None]
                t = sign * (radii[:-1, None] + half * (1.0 + x))
                w = np.exp(-2.0 * lam * np.abs(t) ** (1.0 + alpha)) * half * wq
                psi = np.array([[running_integral(knots, values, s) for s in row] for row in t])
                lhs += np.sum(w * psi**2)
                rhs_int += np.sum(w * np.interp(t, knots, values) ** 2)
            assert values @ kern @ values == pytest.approx(lhs, rel=1e-12, abs=0.0), lam
            assert values @ gram @ values == pytest.approx(rhs_int, rel=1e-12, abs=0.0), lam


def test_certification_decides_by_the_finer_rule():
    lams = (1.0, 8.0)
    knots = symmetric_unaligned_knots()
    profiles = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, knots.size))
    r = certify(knots, profiles, lams, 0.2)
    assert r.converged.all() and (r.status == "holds").all()
    rule = _gauss_legendre(2 * carleman.GAUSS_POINTS)
    const = bound_constant(0.5, 0.2)
    for j, lam in enumerate(lams):
        gram, kern, nodes = _forms(knots, lam, 0.2, rule)
        assert r.nodes[j] == nodes
        for i, values in enumerate(profiles):
            assert r.lhs[i, j] == pytest.approx(values @ kern @ values, rel=1e-13)
            rhs = lam**-1.5 * const * (values @ gram @ values)
            assert r.rhs[i, j] == pytest.approx(rhs, rel=1e-13)


def test_the_grading_deepens_as_the_weight_narrows(monkeypatch):
    built = []

    def counted(knots, lam, alpha, rule):
        forms = _forms(knots, lam, alpha, rule)
        built.append((lam, rule[0].size, forms[2]))
        return forms

    monkeypatch.setattr(carleman, "_forms", counted)
    lams = (1.0, 8.0, 1000.0)
    r = run_certification(seed=4, n_trials=3, lambdas=lams, d=0.5, alpha=0.2)
    points = carleman.GAUSS_POINTS
    assert sorted(built) == sorted(
        [(lam, points, n // 2) for lam, n in zip(lams, r.nodes)]
        + [(lam, 2 * points, n) for lam, n in zip(lams, r.nodes)]
    )
    for lam, nodes in zip(lams, r.nodes):
        # 8 knot pieces a side, d/2..d/8 among the knots, then one piece
        # per further halving: the innermost cut is the first with
        # 2 lam r^(1+alpha) < 1e-4
        depth = nodes // (2 * 2 * points) - 8 + 3
        assert 2.0 * lam * (0.5 / 2**depth) ** 1.2 < 1e-4
        assert 2.0 * lam * (0.5 / 2 ** (depth - 1)) ** 1.2 >= 1e-4


def test_one_profile_certifies_alike_alone_and_in_a_batch():
    lams = (1.0, 8.0)
    profiles = np.random.default_rng(9).uniform(-1.0, 1.0, size=(10, 17))
    knots = np.linspace(-0.5, 0.5, 17)
    batch = certify(knots, profiles, lams, 0.2)
    for i in range(profiles.shape[0]):
        alone = certify(knots, profiles[i : i + 1], lams, 0.2)
        assert np.array_equal(alone.status[0], batch.status[i])
        np.testing.assert_allclose(alone.lhs[0], batch.lhs[i], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(alone.rhs[0], batch.rhs[i], rtol=1e-13, atol=0.0)


def test_a_pair_that_never_settles_is_inconclusive(monkeypatch):
    # a one-point rule against a two-point rule cannot agree to QUAD_AGREE_RTOL
    monkeypatch.setattr(carleman, "GAUSS_POINTS", 1)
    r = run_certification(seed=7, n_trials=3, lambdas=(8.0,), d=0.5, alpha=0.2)
    assert np.all(r.status == "inconclusive")
    assert not r.converged.any()


def test_large_lambdas_are_decided_until_the_bound_underflows():
    # the grading follows the weight's width, so lam = 1e100 is decided;
    # at lam = 1e150 the bound is below the smallest normal float
    r = run_certification(seed=7, n_trials=3, lambdas=(1e5, 1e100, 1e150), d=0.5, alpha=0.2)
    assert (r.status[:, :2] == "holds").all()
    assert (r.status[:, 2] == "inconclusive").all()
    assert (r.rhs[:, 1] >= np.finfo(float).tiny).all()
