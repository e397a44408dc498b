import numpy as np
import pytest

from mfgcoef.forward import ObservationData
from mfgcoef.grid import FACES, GAMMA_TRACE, SPATIAL, Field, apply_along_axis, first_diff_matrix
from mfgcoef.inverse import (
    FREE,
    DataConstraints,
    ReconstructionResult,
    SolverConfig,
    StallError,
    descend,
    initial_guess,
)
from mfgcoef.objective import evaluate, value_and_gradient

from test_objective import grid, make_context, random_iterate


def hand_observations(g, x1b_u=0.0, neumann_u=0.0):
    """Minimal observations whose t-differences are constant rates.

    The u traces are the rates times t, which the time difference
    reproduces exactly when ht is a power of two (nt = 5 on [0, 1]).
    """
    t = g.t[None, :]
    zeros_x1 = np.zeros((g.n2, g.nt))
    zeros_x2 = np.zeros((g.n1, g.nt))
    trace_u = Field.from_faces(g, zeros_x1, np.full((g.n2, 1), x1b_u) * t, zeros_x2, zeros_x2)
    trace_zero = Field.from_faces(g, zeros_x1, zeros_x1, zeros_x2, zeros_x2)
    return ObservationData(
        grid=g,
        v0=Field(g, SPATIAL, np.zeros(g.spatial_shape())),
        p0=Field(g, SPATIAL, np.ones(g.spatial_shape())),
        g01=trace_u,
        g02=trace_zero,
        g11=Field(g, GAMMA_TRACE, np.full((g.n2, 1), neumann_u) * t),
        g12=Field(g, GAMMA_TRACE, np.zeros((g.n2, g.nt))),
    )


def test_projection_scatters_data_and_is_idempotent():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    rng = np.random.default_rng(0)
    z = random_iterate(g, rng)
    c = DataConstraints(ctx.observations)
    proj = c.embed(c.free(z))
    rates = c.rates
    # the tied layer owns its whole row, so the x2 faces hold data elsewhere
    keep = np.arange(g.n1) != g.n1 - 2
    assert np.array_equal(proj[0, keep, 0, :], rates["x2lo"][0, keep])
    assert np.array_equal(proj[0, 0, 1:-1, :], rates["x1a"][0, 1:-1])
    assert np.array_equal(proj[0, -1, :, :], rates["x1b"][0])
    assert np.array_equal(proj[1, -1, :, :], rates["x1b"][1])
    # corners belong to the x1 faces
    assert proj[0, 0, 0, 2] == rates["x1a"][0, 0, 2]
    # tied layer follows the default closure from the layer below
    neumann_u = apply_along_axis(first_diff_matrix(g.nt, g.ht), ctx.observations.g11.values, 1)
    expected = 0.25 * (3.0 * rates["x1b"][0] + proj[0, -3, :, :] - 2.0 * g.h1 * neumann_u)
    assert np.allclose(proj[0, -2, :, :], expected, atol=1e-14)
    again = c.embed(c.free(proj))
    assert np.array_equal(again, proj)
    # interior nodes pass through untouched
    assert np.array_equal(proj[:, 1:-3, 1:-1, :], z[:, 1:-3, 1:-1, :])


def test_outflow_closure_worked_values():
    # h = 1/20, Dirichlet rate 1, Neumann rate 0, layer below at 0
    g = grid(21, 6, 5)
    c = DataConstraints(hand_observations(g, x1b_u=1.0, neumann_u=0.0))
    proj = c.embed(np.zeros(2 * c.nfree))
    assert np.allclose(proj[0, -1, :, :], 1.0, atol=1e-15)
    assert np.allclose(proj[0, -2, :, :], 0.75, atol=1e-15)


def test_embed_inverts_free_and_pullback_is_its_transpose():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    c = DataConstraints(ctx.observations)
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.standard_normal(2 * c.nfree)
        y = random_iterate(g, rng, amplitude=1.0)
        assert np.array_equal(c.free(c.embed(x)), x)
        moved, base = c.embed(x), c.embed(np.zeros_like(x))
        assert c.pullback(y) @ x == pytest.approx(np.vdot(y, moved - base), rel=1e-12)


def test_reduced_gradient_is_the_constrained_derivative():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    c = DataConstraints(ctx.observations)
    rng = np.random.default_rng(4)
    z = c.embed(c.free(random_iterate(g, rng)))
    red = c.pullback(value_and_gradient(ctx, z)[1])
    # laid out on the nodes, zero where pinned; the probes read its u half
    red_z = np.zeros_like(z)
    red_z[FREE] = red.reshape(red_z[FREE].shape)
    red_u = red_z[0]
    eps = 1e-5

    def nudged(node, amount):
        e = np.zeros_like(z)
        e[(0,) + node] = amount
        return z + e

    def constrained_diff(node):
        plus = c.embed(c.free(nudged(node, eps)))
        minus = c.embed(c.free(nudged(node, -eps)))
        return (evaluate(ctx, plus) - evaluate(ctx, minus)) / (2.0 * eps)

    interior = (3, 4, 2)
    assert constrained_diff(interior) == pytest.approx(red_u[interior], rel=1e-4)
    # the layer feeding the closure carries the extra 1/4 chain term
    below = (g.n1 - 3, 4, 2)
    assert constrained_diff(below) == pytest.approx(red_u[below], rel=1e-4)
    for node in ((g.n1 - 2, 4, 2), (0, 4, 2), (3, 0, 2), (g.n1 - 1, 4, 2)):
        assert constrained_diff(node) == pytest.approx(0.0, abs=1e-9)
        assert red_u[node] == 0.0
        # a pinned node has no slot in the free vector
        assert np.array_equal(c.free(nudged(node, 1.0)), c.free(z))


def quadratic_setup(nt=5):
    g = grid(5, 5, nt)
    ctx = make_context(g, beta=1.0, residual_scale=0.0)
    c = DataConstraints(ctx.observations)

    def reduced(w):
        return c.pullback(value_and_gradient(ctx, c.embed(w))[1])

    return ctx, c, reduced


def quadratic_hessian(reduced, dim):
    """Reduced gradient at zero and the (constant) reduced Hessian."""
    r0 = reduced(np.zeros(dim))
    hess = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        hess[:, i] = reduced(e) - r0
    return r0, hess


def test_quadratic_mode_minimizer_is_the_linear_solve():
    ctx, c, reduced = quadratic_setup()
    dim = 2 * c.nfree
    r0, hess = quadratic_hessian(reduced, dim)
    assert np.allclose(hess, hess.T, atol=1e-10 * np.abs(hess).max())
    assert np.linalg.eigvalsh(hess).min() > 0
    w_star = np.linalg.solve(hess, -r0)
    assert np.max(np.abs(reduced(w_star))) < 1e-10 * np.max(np.abs(r0))
    # a true minimum: every probe raises the objective
    j_star = evaluate(ctx, c.embed(w_star))
    rng = np.random.default_rng(9)
    for _ in range(3):
        probe = w_star + 0.1 * rng.standard_normal(dim)
        assert evaluate(ctx, c.embed(probe)) > j_star


def test_quadratic_mode_second_lbfgs_step_lands_on_the_minimizer():
    # smoothness-only objective: a start displaced along a Hessian
    # eigenvector first contracts with |1 - step0 * eig|, then the one
    # stored pair inverts the Hessian on that eigenvector exactly
    ctx, c, reduced = quadratic_setup(nt=3)
    dim = 2 * c.nfree
    r0, hess = quadratic_hessian(reduced, dim)
    eigvals, eigvecs = np.linalg.eigh(hess)
    w_star = np.linalg.solve(hess, -r0)
    sigma = eigvals[-1]
    mu = 0.5 / sigma
    start = c.embed(w_star + eigvecs[:, -1])
    tol = 1e-8 * np.max(np.abs(r0))
    config = SolverConfig(step0=mu, grad_tol=1.01 * tol, max_iter=8, precondition=False)
    result = descend(ctx, start, config)
    hist = result.gradient_history
    assert hist[1] / hist[0] == pytest.approx(abs(1.0 - mu * sigma), rel=1e-8)
    assert hist[2] < tol
    assert result.converged and result.stop_reason == "grad_tol"
    assert result.iterations == 2


def test_descend_reaches_the_linear_solve_in_fewer_than_dim_iterations():
    ctx, c, reduced = quadratic_setup()
    dim = 2 * c.nfree
    r0, hess = quadratic_hessian(reduced, dim)
    w_star = np.linalg.solve(hess, -r0)
    config = SolverConfig(grad_tol=1e-8 * np.max(np.abs(r0)), max_iter=dim - 1)
    result = descend(ctx, c.embed(np.zeros(dim)), config)
    assert result.converged
    w = c.free(result.iterate)
    assert np.max(np.abs(w - w_star)) < 1e-6
    # one fused pass for the start, then one per trial point
    assert result.objective_passes >= result.iterations + 1


def test_descend_decreases_monotonically_and_stops():
    ctx, c, reduced = quadratic_setup()
    r0 = reduced(np.zeros(2 * c.nfree))
    tol = 0.2 * np.max(np.abs(r0))
    start = c.embed(np.zeros(2 * c.nfree))
    result = descend(ctx, start, SolverConfig(grad_tol=tol, max_iter=2000))
    assert result.converged
    assert result.stop_reason == "grad_tol"
    assert result.gradient_history[-1] < tol
    assert np.all(np.diff(result.objective_history) < 0)
    # re-running from the result is an immediate stop after one pass
    again = descend(ctx, result.iterate, SolverConfig(grad_tol=tol, max_iter=10))
    assert again.iterations == 0 and again.converged
    assert again.objective_passes == 1


def test_descend_stalls_when_no_descent_exists():
    ctx, c, reduced = quadratic_setup()
    dim = 2 * c.nfree
    r0, hess = quadratic_hessian(reduced, dim)
    w_star = np.linalg.solve(hess, -r0)
    with pytest.raises(StallError, match="stalled"):
        descend(ctx, c.embed(w_star), SolverConfig(grad_tol=0.0, max_iter=5))
    # from afar the memory is full when rounding stops the decrease: the
    # reset retries along the preconditioned gradient, then stalls too
    with pytest.raises(StallError, match="stalled"):
        descend(ctx, c.embed(np.zeros(dim)), SolverConfig(grad_tol=0.0, max_iter=10000))


def test_descend_respects_iteration_budget():
    g = grid(7, 7, 5)
    ctx = make_context(g)
    rng = np.random.default_rng(12)
    result = descend(ctx, random_iterate(g, rng), SolverConfig(grad_tol=1e-12, max_iter=3))
    assert result.iterations == 3
    assert not result.converged
    assert result.stop_reason == "max_iter"
    assert len(result.objective_history) == 4
    assert result.objective_passes >= 4


def test_initial_guess_blends_faces():
    g = grid(9, 8, 5)
    ctx = make_context(g)
    start = initial_guess(ctx.observations)
    # the rates of the u traces, one time difference per stored face
    dt = first_diff_matrix(g.nt, g.ht)
    rate = {name: apply_along_axis(dt, ctx.observations.g01.face(name), 1) for name in FACES}
    keep = np.arange(g.n1) != g.n1 - 2
    assert np.array_equal(start[0, keep, 0, :], rate["x2lo"][keep])
    assert np.array_equal(start[0, -1, :, :], rate["x1b"])
    # untied interior node carries the mean of the two face interpolations
    i1, i2, n = 2, 3, 1
    w1 = i1 / (g.n1 - 1)
    w2 = i2 / (g.n2 - 1)
    expected = 0.5 * (
        (1 - w1) * rate["x1a"][i2, n]
        + w1 * rate["x1b"][i2, n]
        + (1 - w2) * rate["x2lo"][i1, n]
        + w2 * rate["x2hi"][i1, n]
    )
    assert start[0, i1, i2, n] == pytest.approx(expected, rel=1e-14)


def test_invert_runs_end_to_end():
    g = grid(7, 7, 5)
    ctx = make_context(g)
    config = SolverConfig(grad_tol=1e-12, max_iter=40)
    result = descend(ctx, initial_guess(ctx.observations), config)
    assert isinstance(result, ReconstructionResult)
    assert result.coefficient.shape == g.spatial_shape()
    assert result.objective_history[-1] < result.objective_history[0]


def test_solver_config_validation():
    with pytest.raises(ValueError, match="step0"):
        SolverConfig(grad_tol=1e-2, max_iter=20000, step0=0.0)
    with pytest.raises(ValueError, match="grad_tol"):
        SolverConfig(grad_tol=-1.0, max_iter=20000)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(grad_tol=1e-2, max_iter=0)
