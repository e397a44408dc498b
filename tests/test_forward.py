import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from scipy.sparse.linalg import spsolve

from mfgcoef import forward
from mfgcoef.config import ExperimentConfig
from mfgcoef.forward import (
    DensitySolution,
    ForwardSpec,
    extract_observations,
    generate,
    kept_slabs,
    make_s,
    solve_density,
)
from mfgcoef.grid import (
    InteractionOperator,
    SpaceTimeGrid,
    apply_along_axis,
    first_diff_matrix,
    restriction_strides,
    second_diff_matrix,
)
from mfgcoef.pipeline import forward_spec


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
        density_fn=fp,
        coefficient=k if k is not None else np.ones(g.spatial_shape()),
        sigma=0.2,
    )


def sampled(fn, g):
    """``fn`` at every node of g, as an (x1, x2, t) view of a time-major stack.

    That is the layout a solve holds its density in, and the one the
    full-grid formulas below are compared at bit for bit.
    """
    x1, x2 = g.meshgrid()
    return np.stack([fn(x1, x2, t) for t in g.t]).transpose(1, 2, 0)


def sampled_solution(spec, density_fn):
    """``density_fn`` at every node, held as a solve holds its density."""
    g = spec.grid
    density = sampled(density_fn, g)
    node = np.unravel_index(int(np.argmin(density)), density.shape)
    return DensitySolution(kept_slabs(g, g)[0], density, float(density[node]), node, 0, 0)


def solve_error(p_str, v_str, g):
    fp, fv, fsrc = manufactured(p_str, v_str)
    spec = spec_for(g, fv, fp)
    density = solve_density(spec, g, source=fsrc).density
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
    p[:, :, 0] = spec.density_fn(x1, x2, g.t[0])
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
        bvals = np.where(boundary, spec.density_fn(x1, x2, t), 0.0)
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
    solution = solve_density(spec, g, source=fsrc)
    expected = reference_density(spec, fsrc)
    assert max_rel_diff(solution.density, expected) <= 1e-13
    assert solution.min_density == float(np.min(solution.density))
    assert solution.min_density == pytest.approx(float(np.min(expected)), rel=1e-13)


def test_contiguous_step_operator_is_the_framed_stencil_bit_for_bit():
    # the 11 x 7 interior of a 13 x 9 grid, so a swapped shift reads the
    # wrong neighbour; coefficients of both signs that jump 200-fold
    # across the middle row, as the drift of the jump tests does; every
    # bit is compared, so a term summed in another order fails
    rng = np.random.default_rng(29)
    m1, m2 = 11, 7
    jump = np.where(np.arange(m1)[:, None] < m1 // 2, 1.0, 200.0)
    center = (4.0 + rng.standard_normal((m1, m2))) * jump
    off = [rng.standard_normal((m1, m2)) * jump for _ in range(4)]
    x = rng.standard_normal((m1, m2))

    def framed_form(center, off, x):
        framed = np.zeros((m1 + 2, m2 + 2))
        framed[1:-1, 1:-1] = x
        return center * x + forward._five_point(off, forward._framed(framed))

    expected = framed_form(center, off, x)
    expected_abs = framed_form(np.abs(center), [np.abs(c) for c in off], np.abs(x))
    padded = forward._padded(m1, m2)
    masked = [c.copy() for c in off]
    apply = forward._step_operator(center, masked, padded)
    magnitude = forward._step_operator(np.abs(center), [np.abs(c) for c in masked], padded)
    # both share one buffer, so each call must fill it afresh
    for _ in range(2):
        assert np.array_equal(apply(x).view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(magnitude(np.abs(x)).view(np.uint64), expected_abs.view(np.uint64))


def drift_jump_spec(factor):
    """A steady drift that grows ``factor``-fold past mid-horizon."""
    g = grid(13, 9, 9)
    fp, fv, _ = manufactured("2 + sin(pi*x1) * x2", "cos(pi*x1) * (x2 + x2**2) / 3")

    def jumping(a1, a2, t):
        return fv(a1, a2, t) * (factor if t > 0.5 * g.horizon else 1.0)

    return spec_for(g, jumping, fp)


def test_drift_free_of_jumps_needs_no_krylov_step():
    spec = drift_jump_spec(1.0)
    solution = solve_density(spec, spec.grid)
    assert solution.krylov_steps == 0
    assert 0 < solution.preconditioned_sweeps <= forward.SWEEP_CAP * (spec.grid.nt - 1)
    assert max_rel_diff(solution.density, reference_density(spec)) <= 1e-13


@pytest.mark.parametrize("factor", [50.0, 200.0])
def test_drift_jump_falls_back_to_gmres(factor):
    # the sweeps diverge after the jump, so those steps are solved by GMRES
    # with the same preconditioner, to the same residual bound
    spec = drift_jump_spec(factor)
    solution = solve_density(spec, spec.grid)
    assert solution.krylov_steps >= 1
    assert max_rel_diff(solution.density, reference_density(spec)) <= 1e-13


def test_boundary_coupling_is_the_framed_stencil_on_a_zeroed_slab_bit_for_bit(monkeypatch):
    # at every step of the 200-fold drift-jump solve, sweeps and GMRES
    # alike: the ring's terms have the full stencil's bits, the rest of
    # both is zero, and subtracted from a density over ht (the form of the
    # right-hand side) the two leave the same bits at every node
    calls = []
    ring = forward._boundary_coupling

    def checked(coeffs, q):
        zeroed = q.copy()
        zeroed[1:-1, 1:-1] = 0.0
        full = forward._five_point(coeffs, forward._framed(zeroed))
        out = ring(coeffs, q)
        calls.append((full, out.copy(), q[1:-1, 1:-1] / spec.grid.ht))
        return out

    monkeypatch.setattr(forward, "_boundary_coupling", checked)
    spec = drift_jump_spec(200.0)
    assert solve_density(spec, spec.grid).krylov_steps >= 1
    assert len(calls) == spec.grid.nt - 1
    for full, out, rhs in calls:
        ring_nodes = np.ones(full.shape, dtype=bool)
        ring_nodes[1:-1, 1:-1] = False
        assert np.array_equal(out[ring_nodes].view(np.uint64), full[ring_nodes].view(np.uint64))
        assert not np.any(out[1:-1, 1:-1]) and not np.any(full[1:-1, 1:-1])
        assert np.array_equal((rhs - out).view(np.uint64), (rhs - full).view(np.uint64))


def test_step_that_meets_a_nan_raises():
    # v is NaN at one node from t = 0.5 on, so the steps there have NaN
    # coefficients; a NaN residual must fail the sweeps' stop test and the
    # GMRES acceptance test, not pass the extrapolated start as solved
    g = grid(9, 9, 5)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) / 10")

    def holed(a1, a2, t):
        v = fv(a1, a2, t)
        if t > 0.4:
            v[4, 4] = np.nan
        return v

    with pytest.raises(RuntimeError, match=r"density step 2 \(t=0.5\) did not converge: residual nan"):
        solve_density(spec_for(g, holed, fp), g)


def test_step_that_converges_under_neither_method_raises(monkeypatch):
    monkeypatch.setattr(forward, "SWEEP_CAP", 1)
    monkeypatch.setattr(forward, "GMRES_MATVECS", 1)
    spec = drift_jump_spec(50.0)
    with pytest.raises(RuntimeError, match=r"density step \d+ \(t=[0-9.]+\) did not converge"):
        solve_density(spec, spec.grid)


def test_gmres_stops_at_the_rounding_floor_within_its_budget(monkeypatch):
    # over horizon 40 on 41 x 41 x 41, 39 of the 40 steps need GMRES, and
    # the last reaches the rounding floor with its residual still above the
    # bound; the floor is tested after every cycle, so no step spends the
    # whole budget (counting the products that form true residuals too)
    products = []
    gmres = forward._gmres

    def counting(apply, *rest):
        count = [0]

        def counted(x):
            count[0] += 1
            return apply(x)

        products.append(count)
        return gmres(counted, *rest)

    monkeypatch.setattr(forward, "_gmres", counting)
    spec = forward_spec(ExperimentConfig(horizon=40.0, fine=(41, 41, 41)))
    solution = solve_density(spec, spec.grid)
    assert solution.krylov_steps == len(products) == 39
    assert max(count for count, in products) < forward.GMRES_MATVECS


def test_constant_density_is_preserved():
    g = grid(13, 11, 7)
    spec = spec_for(g, lambda a1, a2, t: np.zeros_like(a1 * a2), lambda a1, a2, t: np.ones_like(a1 * a2 + t))
    solution = solve_density(spec, spec.grid)
    assert np.allclose(solution.density, 1.0, atol=1e-11)
    assert solution.min_density == pytest.approx(1.0, abs=1e-11)


def test_pure_diffusion_respects_bounds():
    # no drift: discrete maximum principle keeps p inside the data range
    g = grid(17, 17, 9)

    def init(a1, a2):
        return 2.0 + np.sin(np.pi * a1) * np.cos(np.pi * a2)

    spec = spec_for(g, lambda a1, a2, t: np.zeros_like(a1 * a2), lambda a1, a2, t: init(a1, a2))
    density = solve_density(spec, spec.grid).density
    assert density.min() >= 1.0 - 1e-10
    assert density.max() <= 3.0 + 1e-10


def test_scheme_orders():
    temporal, spatial = convergence_orders()
    assert temporal == pytest.approx(1.0, abs=0.2)
    assert spatial == pytest.approx(2.0, abs=0.3)


def value_terms(g, value):
    """v_t + lap(v) - |grad v|^2 / 2 on every node, by the difference matrices."""
    vx1 = apply_along_axis(first_diff_matrix(g.n1, g.h1), value, 0)
    vx2 = apply_along_axis(first_diff_matrix(g.n2, g.h2), value, 1)
    vt = apply_along_axis(first_diff_matrix(g.nt, g.ht), value, 2)
    vlap = apply_along_axis(second_diff_matrix(g.n1, g.h1), value, 0) + apply_along_axis(
        second_diff_matrix(g.n2, g.h2), value, 1
    )
    return vt + vlap - 0.5 * (vx1 * vx1 + vx2 * vx2)


def full_grid_cost(spec, density):
    """s and s_t at every node of the generation grid, by the difference matrices.

    v is sampled from the spec at every node.
    """
    g = spec.grid
    inter = InteractionOperator(g, spec.sigma).apply(density)
    num = value_terms(g, sampled(spec.value_fn, g)) - spec.coefficient[:, :, None] * inter
    s = num / density
    return s, apply_along_axis(first_diff_matrix(g.nt, g.ht), s, 2)


def coarse_cost_on_every_level(spec, density, coarse):
    """s and s_t at the coarse nodes from every fine level.

    The stencil and quadrature rows at the coarse (x1, x2) nodes, applied
    at every fine time to v sampled from the spec at every node: each
    product has the shape that ``make_s``'s products keep.
    """
    g = spec.grid
    value = sampled(spec.value_fn, g)
    s1, s2, st = restriction_strides(g, coarse)
    lines1, lines2 = value[:, ::s2], value[::s1]
    d_t = first_diff_matrix(g.nt, g.ht)
    vt = apply_along_axis(d_t, value[::s1, ::s2], 2)
    vlap = apply_along_axis(second_diff_matrix(g.n1, g.h1)[::s1], lines1, 0) + apply_along_axis(
        second_diff_matrix(g.n2, g.h2)[::s2], lines2, 1
    )
    vx1 = apply_along_axis(first_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)
    vx2 = apply_along_axis(first_diff_matrix(g.n2, g.h2)[::s2], lines2, 1)
    inter = InteractionOperator(g, spec.sigma).apply(density[::s1], rows=np.s_[::s2])
    num = vt + vlap - 0.5 * (vx1 * vx1 + vx2 * vx2) - spec.coefficient[::s1, ::s2, None] * inter
    s = num / density[::s1, ::s2]
    return s[:, :, ::st], apply_along_axis(d_t[::st], s, 2)


def cost_case(g):
    """A spec with a non-constant coefficient, its analytic density and value."""
    fp, fv, _ = manufactured(
        "(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10 + x2**3 * t"
    )
    x1, x2 = g.meshgrid()
    k = 1.0 + 0.5 * np.exp(-((x1 - 1.5) ** 2 + (x2 - 0.1) ** 2) / 0.05)
    spec = spec_for(g, fv, fp, k)
    return spec, sampled_solution(spec, fp)


def test_make_s_on_its_own_grid_is_the_full_grid_formula():
    g = grid(15, 13, 9)
    spec, solution = cost_case(g)
    s, st = make_s(spec, solution, g)
    s_full, st_full = full_grid_cost(spec, solution.density)
    assert np.array_equal(s, s_full)
    assert np.array_equal(st, st_full)


def test_make_s_on_coarse_nodes_restricts_the_full_grid_cost():
    # only the stencil and quadrature rows at coarse nodes are formed; the
    # products then round in another order than the full-grid ones
    fine = grid(41, 41, 41)
    coarse = grid(11, 11, 11)  # strides (4, 4, 4)
    spec, solution = cost_case(fine)
    s, st = make_s(spec, solution, coarse)
    s_full, st_full = full_grid_cost(spec, solution.density)
    assert s.shape == st.shape == coarse.spacetime_shape()
    s_ref, st_ref = s_full[::4, ::4, ::4], st_full[::4, ::4, ::4]
    assert np.max(np.abs(s - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
    assert np.max(np.abs(st - st_ref)) <= 1e-10 * np.max(np.abs(st_ref))


def test_make_s_satisfies_value_equation_identity():
    # s is constructed by division, so num - s*p vanishes to rounding
    g = grid(15, 15, 7)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10")
    spec = spec_for(g, fv, fp)
    solution = sampled_solution(spec, fp)
    density = solution.density
    s, st = make_s(spec, solution, g)
    assert np.all(np.isfinite(s))
    assert st.shape == g.spacetime_shape()

    op = InteractionOperator(g, spec.sigma)
    num = value_terms(g, sampled(spec.value_fn, g)) - spec.coefficient[:, :, None] * op.apply(density)
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
    s, _ = make_s(spec, sampled_solution(spec, fp), g)

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
    with pytest.raises(ValueError, match="floor"):
        make_s(spec, sampled_solution(spec, fp), g)


def test_make_s_rejects_a_negative_density():
    # p changes sign between nodes, and no node comes within 0.03 of zero,
    # so a floor on |p| would let it through
    g = grid(9, 9, 5)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 0.97)", "cos(pi*x1) * sin(pi*x2) / 10")
    spec = spec_for(g, fv, fp)
    solution = sampled_solution(spec, fp)
    assert np.min(np.abs(solution.density)) > 0.02
    with pytest.raises(ValueError, match="density is -6.000e-02 .* floor"):
        make_s(spec, solution, g)


def test_extract_observations_values_and_shapes():
    fine = grid(41, 41, 21)
    coarse = grid(21, 21, 11)
    fp, fv, _ = manufactured("(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10")
    spec = spec_for(fine, fv, fp)
    obs = extract_observations(spec, sampled_solution(spec, fp), coarse)

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
    assert data.cost_rate_coarse.shape == coarse.spacetime_shape()


def test_kept_slabs_on_the_default_grids():
    # s at the 11 coarse times and the 22 levels their time difference
    # reads; v_t at those 33 reads 20 more; a grid on itself keeps all
    cfg = ExperimentConfig()
    fine, coarse = cfg.fine_grid(), cfg.coarse_grid()
    cost, kept = kept_slabs(fine, coarse)
    assert (cost.size, kept.size) == (33, 53)
    assert set(range(0, fine.nt, 32)) <= set(cost) and set(cost) <= set(kept)
    assert np.array_equal(kept_slabs(fine, fine)[1], np.arange(fine.nt))


@pytest.mark.parametrize("grids", ["default", "small"])
def test_positions_finds_the_kept_levels_and_refuses_the_others(grids):
    # a solve keeps p at the cost levels (33 of 321 on the default grids);
    # make_s reads all of them and extract_observations the coarse times.
    # A level outside the kept set, or past the last level, raises rather
    # than returning a neighbour or indexing past the end
    if grids == "default":
        cfg = ExperimentConfig()
        fine, coarse = cfg.fine_grid(), cfg.coarse_grid()
    else:
        fine, coarse = grid(9, 9, 33), grid(3, 3, 5)
    cost = kept_slabs(fine, coarse)[0]
    times = np.arange(0, fine.nt, restriction_strides(fine, coarse)[2])
    if grids == "default":
        assert (fine.nt, cost.size, times.size) == (321, 33, 11)
    for slabs in (cost, times):
        solution = DensitySolution(slabs, np.ones((1, 1, slabs.size)), 1.0, (0, 0, 0), 0, 0)
        for levels in (slabs, times):
            expected = [slabs.tolist().index(n) for n in levels]
            assert solution.positions(levels).tolist() == expected
        missing = min(set(range(fine.nt)) - set(slabs.tolist()))
        for level in (missing, fine.nt):
            with pytest.raises(ValueError, match="does not keep"):
                solution.positions(np.append(times, level))
    assert missing == 1  # the coarse times do not keep level 1


@pytest.mark.parametrize("coarse_nt", [11, 5])
def test_streamed_solve_equals_every_slab_solve_bit_for_bit(coarse_nt):
    # strides (4, 4, 8) or (4, 4, 20), so most fine levels are never kept
    # by the stream; at nt = 5, products cut down to the kept levels would
    # put other levels in their last partial tile than the full-grid ones
    fine = grid(41, 41, 81)
    coarse = grid(11, 11, coarse_nt)
    fp, fv, _ = manufactured(
        "(t + 1) * (x1*x2 + 2)", "cos(pi*x1) * sin(pi*x2) * (t*t + 1) / 10 + x2**3 * t"
    )
    x1, x2 = fine.meshgrid()
    spec = spec_for(fine, fv, fp, 1.0 + 0.5 * np.exp(-((x1 - 1.5) ** 2 + x2**2) / 0.05))
    streamed = solve_density(spec, coarse)
    every = solve_density(spec, fine)
    assert streamed.density.shape[2] < fine.nt
    at = every.positions(streamed.slabs)
    assert np.array_equal(streamed.density, every.density[:, :, at])
    assert (streamed.min_density, streamed.min_node) == (every.min_density, every.min_node)
    reference = coarse_cost_on_every_level(spec, every.density, coarse)
    for a, b, c in zip(make_s(spec, streamed, coarse), make_s(spec, every, coarse), reference):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    obs = extract_observations(spec, streamed, coarse).fields()
    ref = extract_observations(spec, every, coarse).fields()
    for name in obs:
        assert np.array_equal(obs[name].values, ref[name].values)


def test_generate_forms_no_fine_grid_field():
    # one (n1, n2, nt) float64 field on the default fine grid is 16.8 MB;
    # keeping p at the 33 cost levels and no v peaks at 8.6 MB, and a solve
    # that kept v and p at all 53 levels of kept_slabs would peak at 12.4 MB
    cfg = ExperimentConfig()
    spec = forward_spec(cfg)
    tracemalloc.start()
    try:
        generate(spec, cfg.coarse_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_forward_spec_validation():
    g = grid(9, 9, 5)
    with pytest.raises(ValueError, match="coefficient"):
        ForwardSpec(
            grid=g,
            value_fn=lambda a1, a2, t: a1,
            density_fn=lambda a1, a2, t: a1,
            coefficient=np.ones((3, 3)),
            sigma=0.2,
        )
