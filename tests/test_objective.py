import numpy as np
import pytest

from mfgcoef.carleman import CarlemanParams
from mfgcoef.forward import ForwardSpec, extract_observations, make_s, solve_density, stencil_bundle
from mfgcoef.grid import H2Form, SpaceTimeGrid, apply_along_axis, first_diff_matrix
from mfgcoef.kernels import LineGaussianKernel
from mfgcoef.objective import (
    Iterate,
    ObjectiveContext,
    breakdown,
    convexity_gap,
    curvature_diagonal,
    dot,
    evaluate,
    gradient,
    recover_coefficient,
    residuals,
    value_and_gradient,
)

KERNEL = LineGaussianKernel(sigma=0.2)


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
        density_init_fn=lambda a1, a2: density_fn(a1, a2, 0.0),
        density_boundary_fn=density_fn,
        coefficient=np.ones(g.spatial_shape()),
        kernel=KERNEL,
    )
    x1, x2 = g.meshgrid()
    density = np.stack([density_fn(x1, x2, t) for t in g.t], axis=2)
    obs = extract_observations(spec, density, g)
    s, st = make_s(spec, density)
    params = CarlemanParams(lam=lam, alpha=0.2, b=g.b, horizon=g.horizon)
    return ObjectiveContext(
        grid=g,
        kernel=KERNEL,
        params=params,
        beta=beta,
        bundle=stencil_bundle(obs),
        cost=s,
        cost_rate=st,
        residual_scale=residual_scale,
    )


def random_iterate(g, rng, amplitude=0.1):
    shape = g.spacetime_shape()
    return Iterate(amplitude * rng.standard_normal(shape), amplitude * rng.standard_normal(shape))


def test_gradient_matches_central_differences():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    rng = np.random.default_rng(3)
    it = random_iterate(g, rng)
    grad = gradient(ctx, it)
    for _ in range(5):
        d = random_iterate(g, rng, amplitude=1.0)
        scale = max(np.max(np.abs(d.u)), np.max(np.abs(d.m)))
        d = Iterate(d.u / scale, d.m / scale)
        eps = 1e-5
        plus = Iterate(it.u + eps * d.u, it.m + eps * d.m)
        minus = Iterate(it.u - eps * d.u, it.m - eps * d.m)
        fd = (evaluate(ctx, plus) - evaluate(ctx, minus)) / (2.0 * eps)
        assert fd == pytest.approx(dot(grad, d), rel=1e-6)


def test_fused_pass_value_is_evaluate_bit_for_bit():
    # the descent's objective history comes from the fused pass
    g = grid(9, 8, 5)
    ctx = make_context(g)
    it = random_iterate(g, np.random.default_rng(8))
    value, _ = value_and_gradient(ctx, it)
    assert value == evaluate(ctx, it)


def test_beta_only_mode_is_the_smoothness_quadratic():
    g = grid(7, 7, 5)
    ctx = make_context(g, beta=0.5, residual_scale=0.0)
    rng = np.random.default_rng(5)
    it = random_iterate(g, rng)
    h2 = H2Form(g)
    expected = 0.5 * (h2.norm_sq(it.u) + h2.norm_sq(it.m))
    assert evaluate(ctx, it) == pytest.approx(expected, rel=1e-12)
    # Euler identity of the pure quadratic
    assert dot(gradient(ctx, it), it) == pytest.approx(2.0 * expected, rel=1e-12)
    parts = breakdown(ctx, it)
    assert parts.first == 0.0 and parts.second == 0.0


def test_curvature_diagonal_is_the_hessian_diagonal_of_the_penalty():
    # with both residuals off, evaluate is the quadratic beta * z . H z, so a
    # second difference along a unit vector reads a Hessian diagonal entry
    # exactly, whatever the step
    g = grid(7, 6, 5)
    ctx = make_context(g, beta=0.5, residual_scale=0.0)
    rng = np.random.default_rng(8)
    it = random_iterate(g, rng)
    curv = curvature_diagonal(ctx)
    base = evaluate(ctx, it)
    nodes = ((0, 0, 0), (3, 2, 1), (6, 5, 4), (1, 4, 2), (5, 1, 3), (2, 3, 4))
    for node in nodes:
        e = np.zeros(g.spacetime_shape())
        e[node] = 1.0
        for slot, plus, minus in (
            ("u", Iterate(it.u + e, it.m), Iterate(it.u - e, it.m)),
            ("m", Iterate(it.u, it.m + e), Iterate(it.u, it.m - e)),
        ):
            second = evaluate(ctx, plus) - 2.0 * base + evaluate(ctx, minus)
            assert getattr(curv, slot)[node] == pytest.approx(second, rel=1e-10)


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
        density_init_fn=lambda a1, a2: density_fn(a1, a2, 0.0),
        density_boundary_fn=density_fn,
        coefficient=k_fine,
        kernel=KERNEL,
    )
    density = solve_density(spec).density
    obs = extract_observations(spec, density, coarse)
    s, st = make_s(spec, density)
    s1, s2, st_stride = 2, 2, 4
    params = CarlemanParams(lam=3.0, alpha=0.2, b=coarse.b, horizon=coarse.horizon)
    ctx = ObjectiveContext(
        grid=coarse,
        kernel=KERNEL,
        params=params,
        beta=1e-3,
        bundle=stencil_bundle(obs),
        cost=s[::s1, ::s2, ::st_stride],
        cost_rate=st[::s1, ::s2, ::st_stride],
    )

    # truth iterate: u analytic, m by fine stencil then restriction
    u_true = np.stack([0.2 * t * np.cos(np.pi * x1c) * np.sin(np.pi * x2c) for t in coarse.t], axis=2)
    m_fine = apply_along_axis(first_diff_matrix(fine.nt, fine.ht), density, 2)
    truth = Iterate(u_true, m_fine[::s1, ::s2, ::st_stride])

    k_rec = recover_coefficient(ctx, truth)
    err = np.abs(k_rec - k_true)
    # the one-sided Laplacian closure is first order on the boundary rows
    assert np.max(err[1:-1, 1:-1]) < 0.02
    assert np.max(err) < 0.12
    assert np.sqrt(np.mean(err**2) / np.mean(k_true**2)) < 0.02

    # the truth nearly zeroes the residuals; a generic bump does not
    rng = np.random.default_rng(7)
    bump = random_iterate(coarse, rng, amplitude=0.3)
    bumped = Iterate(truth.u + bump.u, truth.m + bump.m)
    parts_truth = breakdown(ctx, truth)
    parts_bumped = breakdown(ctx, bumped)
    res_truth = parts_truth.first + parts_truth.second
    res_bumped = parts_bumped.first + parts_bumped.second
    assert res_truth < 0.02 * res_bumped


def admissible_difference(g, rng, amplitude):
    """A direction vanishing on the lateral data nodes, outflow layer tied."""
    d = random_iterate(g, rng, amplitude)
    for arr in (d.u, d.m):
        arr[:, 0, :] = 0.0
        arr[:, -1, :] = 0.0
        arr[0, :, :] = 0.0
        arr[-1, :, :] = 0.25 * arr[-2, :, :]
    return d


def test_convexity_gap_dominates_h2():
    g = grid(9, 9, 5)
    ctx = make_context(g, lam=3.0, beta=1e-3)
    rng = np.random.default_rng(21)
    scale = float(np.max(np.abs(ctx.v0_x1)))
    for _ in range(10):
        base = random_iterate(g, rng, amplitude=0.25 * scale)
        d = admissible_difference(g, rng, amplitude=0.25 * scale)
        other = Iterate(base.u + d.u, base.m + d.m)
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
    bad = Iterate(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ValueError, match="iterate shape"):
        evaluate(ctx, bad)
    with pytest.raises(ValueError, match="beta"):
        make_context(g, beta=-1.0)
    params = CarlemanParams(lam=1.0, alpha=0.2, b=3.0, horizon=g.horizon)
    with pytest.raises(ValueError, match="geometry"):
        ObjectiveContext(
            grid=g,
            kernel=KERNEL,
            params=params,
            beta=1e-3,
            bundle=ctx.bundle,
            cost=ctx.cost,
            cost_rate=ctx.cost_rate,
        )
