import numpy as np
import pytest

from mfgcoef.carleman import CarlemanParams
from mfgcoef.forward import ForwardSpec, extract_observations, make_s, solve_density
from mfgcoef.grid import H2Form, SpaceTimeGrid, apply_along_axis, first_diff_matrix
from mfgcoef.inverse import DataConstraints
from mfgcoef.objective import (
    ObjectiveContext,
    convexity_gap,
    curvature_diagonal,
    recover_coefficient,
    residuals,
    value_and_gradient,
)
from test_forward import sampled_solution

SIGMA = 0.2


def grid(n1, n2, nt):
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=n1, n2=n2, nt=nt)


def value_fn(x1, x2, t):
    return 0.1 * np.cos(np.pi * x1) * np.sin(np.pi * x2) * (t * t + 1.0)


def density_fn(x1, x2, t):
    return (t + 1.0) * (x1 * x2 + 2.0)


def make_context(g, lam=3.0, beta=1e-3, residual_scale=1.0):
    """Context from analytic fields sampled directly on the inversion grid."""
    spec = ForwardSpec(
        grid=g,
        value_fn=value_fn,
        density_fn=density_fn,
        coefficient=np.ones(g.spatial_shape()),
        sigma=SIGMA,
    )
    solution = sampled_solution(spec, density_fn)
    obs = extract_observations(spec, solution, g)
    s, st = make_s(spec, solution, g)
    params = CarlemanParams(lam=lam, alpha=0.2)
    return ObjectiveContext(
        observations=obs,
        sigma=SIGMA,
        params=params,
        beta=beta,
        cost=s,
        cost_rate=st,
        residual_scale=residual_scale,
    )


def objective_value(ctx, z):
    """The objective at z, read from the one pass that forms it."""
    return value_and_gradient(ctx, z)[0].total


def random_iterate(g, rng, amplitude=0.1):
    shape = g.spacetime_shape()
    return np.stack((amplitude * rng.standard_normal(shape), amplitude * rng.standard_normal(shape)))


def test_gradient_matches_central_differences():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    rng = np.random.default_rng(3)
    it = random_iterate(g, rng)
    grad = value_and_gradient(ctx, it)[1]
    for _ in range(5):
        d = random_iterate(g, rng, amplitude=1.0)
        d = d / np.max(np.abs(d))
        eps = 1e-5
        fd = (objective_value(ctx, it + eps * d) - objective_value(ctx, it - eps * d)) / (2.0 * eps)
        assert fd == pytest.approx(np.vdot(grad, d), rel=1e-6)


def test_beta_only_mode_is_the_smoothness_quadratic():
    g = grid(7, 7, 5)
    ctx = make_context(g, beta=0.5, residual_scale=0.0)
    rng = np.random.default_rng(5)
    it = random_iterate(g, rng)
    h2 = H2Form(g)
    expected = 0.5 * (h2.norm_sq(it[0]) + h2.norm_sq(it[1]))
    assert objective_value(ctx, it) == pytest.approx(expected, rel=1e-12)
    # Euler identity of the pure quadratic
    parts, grad = value_and_gradient(ctx, it)
    assert np.vdot(grad, it) == pytest.approx(2.0 * expected, rel=1e-12)
    assert parts.first == 0.0 and parts.second == 0.0


def test_curvature_diagonal_is_the_hessian_diagonal_of_the_penalty():
    # with both residuals off, the objective is the quadratic beta * z . H z, so a
    # second difference along a unit vector reads a Hessian diagonal entry
    # exactly, whatever the step
    g = grid(7, 6, 5)
    ctx = make_context(g, beta=0.5, residual_scale=0.0)
    rng = np.random.default_rng(8)
    it = random_iterate(g, rng)
    curv = curvature_diagonal(ctx, it)
    base = objective_value(ctx, it)
    nodes = ((0, 0, 0), (3, 2, 1), (6, 5, 4), (1, 4, 2), (5, 1, 3), (2, 3, 4))
    for node in nodes:
        for slot in (0, 1):
            e = np.zeros_like(it)
            e[(slot,) + node] = 1.0
            second = objective_value(ctx, it + e) - 2.0 * base + objective_value(ctx, it - e)
            assert curv[(slot,) + node] == pytest.approx(second, rel=1e-10)


def test_curvature_diagonal_tracks_the_gauss_newton_diagonal():
    # the residuals are quadratic in (u, m), so a central difference with a
    # unit step reads the exact Jacobian column of each node; the exact
    # Gauss-Newton diagonal plus the penalty's must stay within a small
    # factor of the estimate for both fields, and in particular the density
    # flux -div(p~ grad u) must not be missing from u's part
    g = grid(9, 8, 5)
    ctx = make_context(g)
    it = random_iterate(g, np.random.default_rng(4))
    curv = curvature_diagonal(ctx, it)
    shape = g.spacetime_shape()
    for slot in (0, 1):
        exact = np.zeros(shape)
        for node in np.ndindex(shape):
            e = np.zeros_like(it)
            e[(slot,) + node] = 1.0
            (p1, p2), (m1, m2) = residuals(ctx, it + e), residuals(ctx, it - e)
            j1, j2 = 0.5 * (p1 - m1), 0.5 * (p2 - m2)
            exact[node] = 2.0 * (
                np.sum(ctx.weight_first * j1**2) + np.sum(ctx.weight_second * j2**2)
            ) + 2.0 * ctx.beta * ctx.h2.apply(e)[(slot,) + node]
        ratio = exact / curv[slot]
        assert 1.0 / 8.0 <= ratio.min() and ratio.max() <= 4.0, (slot, ratio.min(), ratio.max())


def test_weight_structure():
    g = grid(9, 7, 5)
    ctx = make_context(g, lam=3.0)
    w1, w2 = ctx.weight_first, ctx.weight_second
    assert w1.shape == (g.n1, 1, g.nt) and w2.shape == (g.n1, 1, g.nt)
    assert np.allclose(w1, 3.0**1.5 * w2, rtol=1e-14)
    # peak sits at the observation corner (x1 = b, t = T/2), balanced to 1
    assert w2[-1, 0, g.mid_index] == pytest.approx(g.cell_volume, rel=1e-14)
    assert np.max(w2) == pytest.approx(g.cell_volume, rel=1e-14)
    assert np.all(w2 > 0)
    flat = make_context(g, lam=0.0)
    assert np.all(flat.weight_first == 0.0)
    assert np.allclose(flat.weight_second, g.cell_volume, rtol=1e-14)


def test_coefficient_identity_on_consistent_data():
    # data from an actual density solve; the midpoint identity must return
    # the coefficient that generated it, up to stencil truncation
    fine = grid(41, 41, 41)
    coarse = grid(21, 21, 11)
    x1c, x2c = coarse.meshgrid()
    k_true = 1.0 + 0.5 * np.exp(-((x1c - 1.5) ** 2 + x2c**2) / 0.05)
    x1f, x2f = fine.meshgrid()
    k_fine = 1.0 + 0.5 * np.exp(-((x1f - 1.5) ** 2 + x2f**2) / 0.05)
    spec = ForwardSpec(
        grid=fine,
        value_fn=value_fn,
        density_fn=density_fn,
        coefficient=k_fine,
        sigma=SIGMA,
    )
    # every fine level is kept, for the truth's time difference below
    solution = solve_density(spec, fine)
    density = solution.density
    obs = extract_observations(spec, solution, coarse)
    s, st = make_s(spec, solution, coarse)
    s1, s2, st_stride = 2, 2, 4
    params = CarlemanParams(lam=3.0, alpha=0.2)
    ctx = ObjectiveContext(
        observations=obs,
        sigma=SIGMA,
        params=params,
        beta=1e-3,
        cost=s,
        cost_rate=st,
    )

    # truth iterate: u analytic, m by fine stencil then restriction
    u_true = np.stack([0.2 * t * np.cos(np.pi * x1c) * np.sin(np.pi * x2c) for t in coarse.t], axis=2)
    m_fine = apply_along_axis(first_diff_matrix(fine.nt, fine.ht), density, 2)
    truth = np.stack((u_true, m_fine[::s1, ::s2, ::st_stride]))

    k_rec = recover_coefficient(ctx, truth)
    err = np.abs(k_rec - k_true)
    # the one-sided Laplacian closure is first order on the boundary rows
    assert np.max(err[1:-1, 1:-1]) < 0.02
    assert np.max(err) < 0.12
    assert np.sqrt(np.mean(err**2) / np.mean(k_true**2)) < 0.02

    # the truth nearly zeroes the residuals; a generic bump does not
    rng = np.random.default_rng(7)
    bump = random_iterate(coarse, rng, amplitude=0.3)
    bumped = truth + bump
    parts_truth = value_and_gradient(ctx, truth)[0]
    parts_bumped = value_and_gradient(ctx, bumped)[0]
    res_truth = parts_truth.first + parts_truth.second
    res_bumped = parts_bumped.first + parts_bumped.second
    assert res_truth < 0.02 * res_bumped


def admissible_difference(ctx, rng, amplitude):
    """A difference of two iterates that carry the data, embed(x) - embed(0).

    It vanishes on the pinned lateral faces and its tied outflow layer is
    a quarter of the layer below it, so adding it to an iterate that
    carries the data stays inside the constraint set.
    """
    constraints = DataConstraints(ctx.observations)
    x = amplitude * rng.standard_normal(2 * constraints.nfree)
    moved, origin = constraints.embed(x), constraints.embed(np.zeros_like(x))
    return moved - origin


def test_convexity_gap_dominates_h2():
    g = grid(9, 9, 5)
    ctx = make_context(g, lam=3.0, beta=1e-3)
    rng = np.random.default_rng(21)
    scale = float(np.max(np.abs(ctx.v0_x[0])))
    for _ in range(10):
        base = random_iterate(g, rng, amplitude=0.25 * scale)
        d = admissible_difference(ctx, rng, amplitude=0.25 * scale)
        other = base + d
        gap, h2 = convexity_gap(ctx, base, other)
        assert gap >= 0.5 * ctx.beta * h2


def test_residual_shapes_and_validation():
    g = grid(7, 6, 5)
    ctx = make_context(g)
    rng = np.random.default_rng(2)
    it = random_iterate(g, rng)
    l1, l2 = residuals(ctx, it)
    assert l1.shape == g.spacetime_shape()
    assert l2.shape == g.spacetime_shape()
    bad = np.zeros((2, 3, 3, 3))
    with pytest.raises(ValueError, match="iterate shape"):
        value_and_gradient(ctx, bad)
    with pytest.raises(ValueError, match="beta"):
        make_context(g, beta=-1.0)
