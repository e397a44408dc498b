import numpy as np
import pytest

from mfgcoef.grid import (
    DenominatorError,
    InteractionOperator,
    SpaceTimeGrid,
    trapezoid_weights,
)


def make_grid(n1=21, n2=21, nt=5):
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=n1, n2=n2, nt=nt)


def refined_line_integral(x2_eval, f_of_y2, sigma, half_width, n=20001):
    # quadrature oracle: very fine trapezoid of the continuum integrand
    y = np.linspace(-half_width, half_width, n)
    w = np.exp(-((x2_eval - y) ** 2) / sigma**2) * f_of_y2(y)
    return np.trapezoid(w, y)


def test_flat_weight_reduces_to_plain_integral():
    g = make_grid()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.spatial_shape())
    out = InteractionOperator(g, np.inf).apply(f)
    plain = f @ trapezoid_weights(g.n2, g.h2)
    assert np.allclose(out, plain[:, None], atol=1e-13)


def test_line_gaussian_matches_refined_quadrature():
    g = make_grid()
    x1, x2 = g.meshgrid()
    out = InteractionOperator(g, 0.2).apply(x1 * x2 + 2.0)
    for i1 in (0, 10, 20):
        for i2 in (0, 7, 14, 20):
            oracle = refined_line_integral(
                g.x2[i2], lambda y: g.x1[i1] * y + 2.0, 0.2, g.half_width
            )
            assert out[i1, i2] == pytest.approx(oracle, rel=2e-2, abs=2e-3)


def test_line_gaussian_converges_second_order():
    sigma = 0.2
    errs = []
    for n2 in (21, 41):
        g = make_grid(n2=n2)
        _, x2 = g.meshgrid()
        out = InteractionOperator(g, sigma).apply(np.sin(np.pi * x2))
        oracle = np.array(
            [
                refined_line_integral(v, lambda y: np.sin(np.pi * y), sigma, g.half_width)
                for v in g.x2
            ]
        )
        errs.append(np.max(np.abs(out[0] - oracle)))
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_linearity_and_positivity():
    g = make_grid(n1=9, n2=9)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(g.spatial_shape())
    b = rng.standard_normal(g.spatial_shape())
    op = InteractionOperator(g, 0.2)
    lhs = op.apply(2.0 * a - 3.0 * b)
    rhs = 2.0 * op.apply(a) - 3.0 * op.apply(b)
    assert np.allclose(lhs, rhs, atol=1e-12)
    nonneg = op.apply(np.abs(a))
    assert nonneg.min() >= -1e-14


def test_operators_transpose_is_adjoint():
    g = make_grid(n1=8, n2=9, nt=5)
    rng = np.random.default_rng(9)
    op = InteractionOperator(g, 0.2)
    f = rng.standard_normal(g.spacetime_shape())
    w = rng.standard_normal(g.spacetime_shape())
    lhs = np.sum(op.apply(f) * w)
    rhs = np.sum(f * op.apply_transpose(w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spacetime_fields_processed_per_slice():
    g = make_grid(n1=8, n2=9, nt=5)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(g.spacetime_shape())
    op = InteractionOperator(g, 0.2)
    full = op.apply(vals)
    for k in range(g.nt):
        single = op.apply(vals[:, :, k])
        assert np.allclose(full[:, :, k], single, atol=1e-14)


def test_denominator_guard():
    g = make_grid(n1=7, n2=7)
    x1, x2 = g.meshgrid()
    op = InteractionOperator(g, 0.2)
    ok = op.denominator(x1 * x2 + 2.0)
    assert ok.min() > 0.1
    with pytest.raises(DenominatorError, match="floor"):
        op.denominator(x1 * x2)


def test_sigma_validation():
    g = make_grid()
    for sigma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            InteractionOperator(g, sigma)
