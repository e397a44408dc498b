import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from scipy.sparse.linalg import spsolve

from mfgcoef import forward
from mfgcoef.forward import (
    ForwardSpec,
    extract_observations,
    generate,
    make_s,
    solve_density,
    stencil_bundle,
)
from mfgcoef.grid import (
    SPACE_TIME,
    Field,
    SpaceTimeGrid,
    apply_along_axis,
    ddt,
    ddx1,
    ddx2,
    first_diff_matrix,
    laplacian,
)
from mfgcoef.kernels import InteractionOperator, LineGaussianKernel


def grid(n1, n2, nt):
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=n1, n2=n2, nt=nt)


def manufactured(p_expr_str, v_expr_str):
    """Lambdified exact density, value function and matching source term."""
    x1, x2, t = sympy.symbols("x1 x2 t")
    loc = {"x1": x1, "x2": x2, "t": t, "pi": sympy.pi, "sin": sympy.sin,
           "cos": sympy.cos, "exp": sympy.exp}
    p = sympy.sympify(p_expr_str, locals=loc)
    v = sympy.sympify(v_expr_str, locals=loc)
    div = sympy.diff(p * sympy.diff(v, x1), x1) + sympy.diff(p * sympy.diff(v, x2), x2)
    src = sympy.diff(p, t) - sympy.diff(p, x1, 2) - sympy.diff(p, x2, 2) - div
    fp = sympy.lambdify((x1, x2, t), p, "numpy")
    fv = sympy.lambdify((x1, x2, t), v, "numpy")
    fsrc = sympy.lambdify((x1, x2, t), src, "numpy")

    def wrap(fn):
        def call(a1, a2, tt):
            return np.broadcast_to(fn(a1, a2, tt), np.broadcast_shapes(
                np.shape(a1), np.shape(a2), np.shape(tt))).astype(float)

        return call

    return wrap(fp), wrap(fv), wrap(fsrc)


def spec_for(g, fv, fp, k=None):
    return ForwardSpec(
        grid=g,
        value_fn=fv,
        density_init_fn=lambda a1, a2: fp(a1, a2, 0.0),
        density_boundary_fn=fp,
        coefficient=k if k is not None else np.ones(g.spatial_shape()),
        kernel=LineGaussianKernel(sigma=0.2),
    )


def solve_error(p_str, v_str, g):
    fp, fv, fsrc = manufactured(p_str, v_str)
    spec = spec_for(g, fv, fp)
    density = solve_density(spec, spec.value_on_grid(), source=fsrc).density
    x1, x2 = g.meshgrid()
    exact = fp(x1, x2, g.horizon)
    return float(np.max(np.abs(density[:, :, -1] - exact)))


def convergence_orders():
    """(temporal, spatial) observed orders of the implicit density scheme."""
    p_curved = "exp(-t) * sin(pi*x1) * x2"
    v_str = "cos(pi*x1) * sin(pi*x2) / 10"
    # temporal: fine space so the O(ht) error dominates
    et = [solve_error(p_curved, v_str, grid(81, 81, nt)) for nt in (5, 9)]
    temporal = float(np.log2(et[0] / et[1]))
    # spatial: an in-time-linear solution makes the stepping exact, leaving O(h^2)
    p_linear = "(1 + t) * sin(pi*x1) * x2"
    es = [solve_error(p_linear, v_str, grid(n, n, 5)) for n in (11, 21)]
    spatial = float(np.log2(es[0] / es[1]))
    return temporal, spatial


def reference_density(spec, source=None):
    """The step as a full-node COO operator, sliced down to the interior.

    Every step is a fresh direct solve.
    """
    g = spec.grid
    n1, n2 = g.n1, g.n2
    x1, x2 = g.meshgrid()
    idx = np.arange(n1 * n2).reshape(n1, n2)
    interior = idx[1:-1, 1:-1].ravel()
    boundary = np.ones((n1, n2), dtype=bool)
    boundary[1:-1, 1:-1] = False
    p = np.empty(g.spacetime_shape())
    p[:, :, 0] = spec.density_init_fn(x1, x2)
    for n in range(1, g.nt):
        t = g.t[n]
        v = spec.value_fn(x1, x2, t)
        a_e = (v[2:, 1:-1] - v[1:-1, 1:-1]) / g.h1
        a_w = (v[1:-1, 1:-1] - v[:-2, 1:-1]) / g.h1
        a_n = (v[1:-1, 2:] - v[1:-1, 1:-1]) / g.h2
        a_s = (v[1:-1, 1:-1] - v[1:-1, :-2]) / g.h2
        i1, i2 = 1.0 / (g.h1 * g.h1), 1.0 / (g.h2 * g.h2)
        center = (
            1.0 / g.ht + 2.0 * (i1 + i2) - 0.5 * (a_e - a_w) / g.h1 - 0.5 * (a_n - a_s) / g.h2
        )
        entries = (
            (center, idx[1:-1, 1:-1]),
            (-i1 - 0.5 * a_e / g.h1, idx[2:, 1:-1]),
            (-i1 + 0.5 * a_w / g.h1, idx[:-2, 1:-1]),
            (-i2 - 0.5 * a_n / g.h2, idx[1:-1, 2:]),
            (-i2 + 0.5 * a_s / g.h2, idx[1:-1, :-2]),
        )
        vals = np.concatenate([c.ravel() for c, _ in entries])
        rows = np.concatenate([interior for _ in entries])
        cols = np.concatenate([target.ravel() for _, target in entries])
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n1 * n2, n1 * n2)).tocsr()
        bvals = np.where(boundary, spec.density_boundary_fn(x1, x2, t), 0.0)
        rhs = p[:, :, n - 1] / g.ht
        if source is not None:
            rhs = rhs + source(x1, x2, t)
        rhs = rhs.ravel()[interior] - (mat @ bvals.ravel())[interior]
        slab = bvals.copy()
        slab.ravel()[interior] = spsolve(mat[interior][:, interior].tocsc(), rhs)
        p[:, :, n] = slab
    return p


def max_rel_diff(density, expected):
    return float(np.max(np.abs(density - expected)) / np.max(np.abs(expected)))


def test_interior_step_matches_full_node_operator():
    # non-square grid and a drift without x1/x2 symmetry, so swapped
    # neighbours or a transposed interior numbering change the answer;
    # preconditioned sweeps round differently from a direct solve, so
    # agreement is to a few ulps, not bit for bit
    g = grid(13, 9, 5)
    fp, fv, fsrc = manufactured(
        "(1 + t) * (2 + sin(pi*x1) * x2)", "cos(pi*x1) * (x2 + x2**2) * (1 + t) / 3"
    )
    spec = spec_for(g, fv, fp)
    solution = solve_density(spec, spec.value_on_grid(), source=fsrc)
    expected = reference_density(spec, fsrc)
    assert max_rel_diff(solution.density, expected) <= 1e-13
    assert solution.min_density == float(np.min(np.abs(solution.density)))
    assert solution.min_density == pytest.approx(float(np.min(np.abs(expected))), rel=1e-13)


def drift_jump_spec(factor):
    """A steady drift that grows ``factor``-fold past mid-horizon."""
    g = grid(13, 9, 9)
    fp, fv, _ = manufactured("2 + sin(pi*x1) * x2", "cos(pi*x1) * (x2 + x2**2) / 3")

    def jumping(a1, a2, t):
        return fv(a1, a2, t) * (factor if t > 0.5 * g.horizon else 1.0)

    return spec_for(g, jumping, fp)


def test_drift_free_of_jumps_needs_no_krylov_step():
    spec = drift_jump_spec(1.0)
    solution = solve_density(spec, spec.value_on_grid())
    assert solution.krylov_steps == 0
    assert 0 < solution.preconditioned_sweeps <= forward.SWEEP_CAP * (spec.grid.nt - 1)
    assert max_rel_diff(solution.density, reference_density(spec)) <= 1e-13


@pytest.mark.parametrize("factor", [50.0, 200.0])
def test_drift_jump_falls_back_to_gmres(factor):
    # the sweeps diverge after the jump, so those steps are solved by GMRES
    # with the same preconditioner, to the same residual bound
    spec = drift_jump_spec(factor)
    solution = solve_density(spec, spec.value_on_grid())
    assert solution.krylov_steps >= 1
    assert max_rel_diff(solution.density, reference_density(spec)) <= 1e-13


def test_step_that_converges_under_neither_method_raises(monkeypatch):
    monkeypatch.setattr(forward, "SWEEP_CAP", 1)
    monkeypatch.setattr(forward, "GMRES_MATVECS", 1)
    spec = drift_jump_spec(50.0)
    with pytest.raises(RuntimeError, match=r"density step \d+ \(t=[0-9.]+\) did not converge"):
        solve_density(spec, spec.value_on_grid())


def test_constant_density_is_preserved():
    g = grid(13, 11, 7)
    spec = spec_for(g, lambda a1, a2, t: np.zeros_like(a1 * a2), lambda a1, a2, t: np.ones_like(a1 * a2 + t))
    solution = solve_density(spec, spec.value_on_grid())
    assert np.allclose(solution.density, 1.0, atol=1e-11)
    assert solution.min_density == pytest.approx(1.0, abs=1e-11)


def test_pure_diffusion_respects_bounds():
    # no drift: discrete maximum principle keeps p inside the data range
    g = grid(17, 17, 9)

    def init(a1, a2):
        return 2.0 + np.sin(np.pi * a1) * np.cos(np.pi * a2)

    spec = spec_for(g, lambda a1, a2, t: np.zeros_like(a1 * a2), lambda a1, a2, t: init(a1, a2))
    density = solve_density(spec, spec.value_on_grid()).density
    assert density.min() >= 1.0 - 1e-10
    assert density.max() <= 3.0 + 1e-10


def test_scheme_orders():
    temporal, spatial = convergence_orders()
    assert temporal == pytest.approx(1.0, abs=0.2)
    assert spatial == pytest.approx(2.0, abs=0.3)


def full_grid_cost(spec, density, value):
    """s and s_t at every node of the generation grid, by the Field operators."""
    g = spec.grid
    v = Field(g, SPACE_TIME, value)
    vx1, vx2 = ddx1(v).values, ddx2(v).values
    inter = InteractionOperator(g, spec.kernel).apply(density)
    num = (
        ddt(v).values
        + laplacian(v).values
        - 0.5 * (vx1 * vx1 + vx2 * vx2)
        - spec.coefficient[:, :, None] * inter
    )
    s = num / density
    return s, apply_along_axis(first_diff_matrix(g.nt, g.ht), s, 2)


def cost_case(g):
    """A spec with a non-constant coefficient, its analytic density and value."""
    fp, fv, _ = manufactured(
        "(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10 + x2**3 * t"
    )
    x1, x2 = g.meshgrid()
    k = 1.0 + 0.5 * np.exp(-((x1 - 1.5) ** 2 + (x2 - 0.1) ** 2) / 0.05)
    spec = spec_for(g, fv, fp, k)
    density = np.stack([fp(x1, x2, t) for t in g.t], axis=2)
    return spec, density, spec.value_on_grid()


def test_make_s_on_its_own_grid_is_the_full_grid_formula():
    g = grid(15, 13, 9)
    spec, density, value = cost_case(g)
    s, st = make_s(spec, density, value, g)
    s_full, st_full = full_grid_cost(spec, density, value)
    assert np.array_equal(s, s_full)
    assert np.array_equal(st, st_full)


def test_make_s_on_coarse_nodes_restricts_the_full_grid_cost():
    # only the stencil and quadrature rows at coarse nodes are formed; the
    # products then round in another order than the full-grid ones
    fine = grid(41, 41, 41)
    coarse = grid(11, 11, 11)  # strides (4, 4, 4)
    spec, density, value = cost_case(fine)
    s, st = make_s(spec, density, value, coarse)
    s_full, st_full = full_grid_cost(spec, density, value)
    assert s.shape == st.shape == coarse.spacetime_shape()
    s_ref, st_ref = s_full[::4, ::4, ::4], st_full[::4, ::4, ::4]
    assert np.max(np.abs(s - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
    assert np.max(np.abs(st - st_ref)) <= 1e-10 * np.max(np.abs(st_ref))


def test_make_s_satisfies_value_equation_identity():
    # s is constructed by division, so num - s*p vanishes to rounding
    g = grid(15, 15, 7)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10")
    spec = spec_for(g, fv, fp)
    x1, x2 = g.meshgrid()
    density = np.stack([fp(x1, x2, t) for t in g.t], axis=2)
    s, st = make_s(spec, density, spec.value_on_grid(), g)
    assert np.all(np.isfinite(s))
    assert st.shape == g.spacetime_shape()

    v = Field(g, SPACE_TIME, spec.value_on_grid())
    op = InteractionOperator(g, spec.kernel)
    num = (
        ddt(v).values
        + laplacian(v).values
        - 0.5 * (ddx1(v).values ** 2 + ddx2(v).values ** 2)
        - spec.coefficient[:, :, None] * op.apply(density)
    )
    assert np.allclose(num - s * density, 0.0, atol=1e-12 * np.max(np.abs(num)))


def test_make_s_matches_symbolic_construction():
    # independent route: all derivatives symbolic, kernel integral by fine quadrature
    g = grid(21, 21, 5)
    x1s, x2s, ts = sympy.symbols("x1 x2 t")
    v_expr = sympy.cos(sympy.pi * x1s) * sympy.sin(sympy.pi * x2s) * (ts**2 + 1) / 10
    p_expr = (ts + 1) * (x1s * x2s + 2)
    num_sym = (
        sympy.diff(v_expr, ts)
        + sympy.diff(v_expr, x1s, 2)
        + sympy.diff(v_expr, x2s, 2)
        - (sympy.diff(v_expr, x1s) ** 2 + sympy.diff(v_expr, x2s) ** 2) / 2
    )
    f_num = sympy.lambdify((x1s, x2s, ts), num_sym, "numpy")
    f_p = sympy.lambdify((x1s, x2s, ts), p_expr, "numpy")

    fp, fv, _ = manufactured(str(p_expr), str(v_expr))
    spec = spec_for(g, fv, fp)
    x1, x2 = g.meshgrid()
    density = np.stack([fp(x1, x2, t) for t in g.t], axis=2)
    s, _ = make_s(spec, density, spec.value_on_grid(), g)

    sigma = 0.2
    yfine = np.linspace(-g.half_width, g.half_width, 4001)
    i1, i2, it = 10, 7, 2
    tval = g.t[it]
    kern = np.exp(-((g.x2[i2] - yfine) ** 2) / sigma**2)
    inter = np.trapezoid(kern * f_p(g.x1[i1], yfine, tval), yfine)
    s_oracle = (f_num(g.x1[i1], g.x2[i2], tval) - 1.0 * inter) / f_p(g.x1[i1], g.x2[i2], tval)
    # stencil truncation in lap(v) dominates the difference
    assert s[i1, i2, it] == pytest.approx(s_oracle, rel=5e-3)


def test_make_s_rejects_vanishing_density():
    g = grid(9, 9, 5)
    fp, fv, _ = manufactured("(t + 1) * x1 * x2", "cos(pi*x1) * sin(pi*x2) / 10")
    spec = spec_for(g, fv, fp)
    x1, x2 = g.meshgrid()
    density = np.stack([fp(x1, x2, t) for t in g.t], axis=2)
    with pytest.raises(ValueError, match="floor"):
        make_s(spec, density, spec.value_on_grid(), g)


def test_extract_observations_values_and_shapes():
    fine = grid(41, 41, 21)
    coarse = grid(21, 21, 11)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10")
    spec = spec_for(fine, fv, fp)
    x1f, x2f = fine.meshgrid()
    density = np.stack([fp(x1f, x2f, t) for t in fine.t], axis=2)
    obs = extract_observations(spec, density, coarse, spec.value_on_grid())

    x1c, x2c = coarse.meshgrid()
    # midpoint value slice: 0.1 * 1.25 * cos(pi x1) sin(pi x2)
    assert np.allclose(obs.v0.values, 0.125 * np.cos(np.pi * x1c) * np.sin(np.pi * x2c), atol=1e-13)
    assert np.allclose(obs.p0.values, 1.5 * (x1c * x2c + 2.0), atol=1e-13)
    assert np.allclose(
        obs.g02.face("x1b"), (coarse.t[None, :] + 1.0) * (2.0 * coarse.x2[:, None] + 2.0), atol=1e-13
    )
    # one-sided Neumann at the outflow face, formed on the fine grid
    dv_exact = -0.1 * np.pi * np.sin(np.pi * 2.0) * np.sin(np.pi * coarse.x2[:, None]) * (
        coarse.t[None, :] ** 2 + 1.0
    )
    assert np.allclose(obs.g11.values, dv_exact, atol=5e-4)
    dp_exact = (coarse.t[None, :] + 1.0) * coarse.x2[:, None]
    assert np.allclose(obs.g12.values, dp_exact, atol=1e-10)


def test_generate_end_to_end_records_minimum():
    fine = grid(21, 21, 11)
    coarse = grid(11, 11, 11)  # strides (2, 2, 1)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10")
    spec = spec_for(fine, fv, fp)
    data = generate(spec, coarse)
    assert data.min_density > 0.5
    assert data.cost_coarse.shape == coarse.spacetime_shape()
    assert data.observations.grid == coarse
    b = stencil_bundle(data.observations)
    assert b.v0_lap.shape == coarse.spatial_shape()


def test_forward_spec_validation():
    g = grid(9, 9, 5)
    with pytest.raises(ValueError, match="coefficient"):
        ForwardSpec(
            grid=g,
            value_fn=lambda a1, a2, t: a1,
            density_init_fn=lambda a1, a2: a1,
            density_boundary_fn=lambda a1, a2, t: a1,
            coefficient=np.ones((3, 3)),
            kernel=LineGaussianKernel(),
        )
