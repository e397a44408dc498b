import numpy as np
import pytest

from mfgcoef.grid import (
    BOUNDARY_TRACE,
    SPACE_TIME,
    SPATIAL,
    Field,
    H2Form,
    SpaceTimeGrid,
    apply_along_axis,
    first_diff_matrix,
    restriction_strides,
    second_diff_matrix,
    trapezoid_weights,
    volterra_matrix,
)


def base_grid(n1=21, n2=21, nt=11):
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=n1, n2=n2, nt=nt)


def test_spacings_and_midpoint():
    g = base_grid()
    assert g.h1 == pytest.approx(0.05)
    assert g.h2 == pytest.approx(0.05)
    assert g.ht == pytest.approx(0.1)
    assert g.t[g.mid_index] == pytest.approx(0.5)


def test_rejects_even_interval_time_axis():
    with pytest.raises(ValueError):
        SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=5, n2=5, nt=6)


def test_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        SpaceTimeGrid(a=2.0, b=1.0, half_width=0.5, horizon=1.0, n1=5, n2=5, nt=5)
    with pytest.raises(ValueError):
        SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=2, n2=5, nt=5)


@pytest.mark.parametrize("name, value", [
    ("a", float("-inf")), ("b", float("inf")), ("half_width", float("nan")),
    ("horizon", float("inf")),
])
def test_rejects_a_non_finite_extent(name, value):
    # each passes the ordered checks (b > a, positive widths), and gives
    # infinite or NaN steps
    extents = dict(a=1.0, b=2.0, half_width=0.5, horizon=1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SpaceTimeGrid(**{**extents, name: value}, n1=5, n2=5, nt=5)


def test_field_shape_validation():
    g = base_grid()
    with pytest.raises(ValueError):
        Field(g, SPATIAL, np.zeros((g.n1, g.n2 + 1)))
    with pytest.raises(ValueError):
        Field(g, "volumetric", np.zeros(g.spatial_shape()))


def ddx1(values, g):
    return apply_along_axis(first_diff_matrix(g.n1, g.h1), values, 0)


def test_ddx1_exact_on_quadratic():
    # x1^2 on [1, 2] with 21 nodes: derivative 2*x1, exact at interior nodes
    g = base_grid()
    x1, _ = g.meshgrid()
    out = ddx1(x1**2, g)
    assert np.allclose(out[1:-1], 2.0 * x1[1:-1], rtol=0, atol=1e-12)
    # the one-sided closure is second order, so quadratics are exact there too
    assert np.allclose(out, 2.0 * x1, rtol=0, atol=1e-12)


def test_ddx2_and_ddt_exact_on_linears():
    g = base_grid(n1=7, n2=9, nt=5)
    _, x2 = g.meshgrid()
    f = np.broadcast_to(x2[:, :, None], g.spacetime_shape())
    assert np.allclose(apply_along_axis(first_diff_matrix(g.n2, g.h2), f, 1), 1.0, atol=1e-13)
    tf = np.broadcast_to(g.t, g.spacetime_shape())
    assert np.allclose(apply_along_axis(first_diff_matrix(g.nt, g.ht), tf, 2), 1.0, atol=1e-13)


def test_laplacian_of_separable_quadratic():
    g = base_grid()
    x1, x2 = g.meshgrid()
    vals = x1**2 + x2**2
    out = apply_along_axis(second_diff_matrix(g.n1, g.h1), vals, 0) + apply_along_axis(
        second_diff_matrix(g.n2, g.h2), vals, 1
    )
    # symmetric second difference is exact on quadratics even at the one-sided rows
    assert np.allclose(out, 4.0, atol=1e-10)


def test_refinement_halves_error_by_about_four():
    # smooth non-polynomial target: truncation error should drop ~4x per halving
    def check(op, exact, make_vals):
        errs = []
        for n in (21, 41):
            g = base_grid(n1=n, n2=5, nt=5)
            x1, x2 = g.meshgrid()
            out = op(make_vals(x1, x2), g)
            errs.append(np.max(np.abs(out[1:-1, :] - exact(x1, x2)[1:-1, :])))
        return errs[0] / errs[1]

    ratio = check(ddx1, lambda x1, x2: np.pi * np.cos(np.pi * x1), lambda x1, x2: np.sin(np.pi * x1))
    assert 3.5 <= ratio <= 4.5


def running_integral(f):
    """Signed trapezoid integral in time from the midpoint slice."""
    g = f.grid
    return apply_along_axis(volterra_matrix(g.nt, g.ht, g.mid_index), f.values, 2)


def test_volterra_of_constant():
    g = base_grid(n1=5, n2=5, nt=11)
    f = Field(g, SPACE_TIME, np.ones(g.spacetime_shape()))
    out = running_integral(f)
    expect = g.t - 0.5 * g.horizon
    assert np.allclose(out[2, 3], expect, atol=1e-14)
    assert out[0, 0, g.mid_index] == 0.0


def test_volterra_additivity():
    g = base_grid(n1=4, n2=3, nt=9)
    rng = np.random.default_rng(7)
    f = Field(g, SPACE_TIME, rng.standard_normal(g.spacetime_shape()))
    out = running_integral(f)
    w = f.values
    # difference of running integrals equals the direct trapezoid over [t_i, t_j]
    for i, j in ((0, 8), (2, 5), (4, 7), (1, 3)):
        direct = np.trapezoid(w[..., i : j + 1], dx=g.ht, axis=-1)
        assert np.allclose(out[..., j] - out[..., i], direct, atol=1e-13)


def test_volterra_matrix_midpoint_row_is_zero():
    v = volterra_matrix(9, 0.125, 4)
    assert np.all(v[4] == 0.0)


def test_integrate_y2_constant():
    g = base_grid()
    f = Field(g, SPATIAL, np.ones(g.spatial_shape()))
    out = f.values @ trapezoid_weights(g.n2, g.h2)
    assert out.shape == (g.n1,)
    assert np.allclose(out, 2.0 * g.half_width, atol=1e-14)


def test_trapezoid_weights_sum():
    w = trapezoid_weights(21, 0.05)
    assert np.isclose(w.sum(), 1.0)


def test_h2_norm_of_constant():
    g = base_grid(n1=9, n2=7, nt=5)
    c = 3.25
    vals = np.full(g.spacetime_shape(), c)
    assert H2Form(g).norm_sq(vals) == pytest.approx(c * c * g.volume, rel=1e-13)


def test_h2_norm_of_linear_closed_form():
    g = base_grid()
    x1, _ = g.meshgrid()
    vals = np.broadcast_to(x1[:, :, None], g.spacetime_shape()).copy()
    expect = g.volume * np.mean(g.x1**2) + g.volume
    assert H2Form(g).norm_sq(vals) == pytest.approx(expect, rel=1e-12)


def test_h2_norm_homogeneity():
    g = base_grid(n1=6, n2=5, nt=5)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.spacetime_shape())
    h2 = H2Form(g)
    base = h2.norm_sq(vals)
    for c in (0.5, 2.0, -3.0):
        scaled = h2.norm_sq(c * vals)
        assert scaled == pytest.approx(c * c * base, rel=1e-12)


def test_difference_matrices_transpose_is_adjoint():
    # the objective gradient relies on matrix transposes being exact adjoints
    rng = np.random.default_rng(11)
    for mat in (first_diff_matrix(9, 0.2), second_diff_matrix(9, 0.2), volterra_matrix(9, 0.1, 4)):
        f = rng.standard_normal((9, 4, 5))
        gvals = rng.standard_normal((9, 4, 5))
        lhs = np.sum(apply_along_axis(mat, f, 0) * gvals)
        rhs = np.sum(f * apply_along_axis(mat.T, gvals, 0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _moveaxis_apply(mat, values, axis):
    # the np.moveaxis form apply_along_axis replaced; kept as its oracle
    moved = np.moveaxis(values, axis, 0)
    out = mat @ moved.reshape(mat.shape[1], -1)
    return np.moveaxis(out.reshape((mat.shape[0],) + moved.shape[1:]), 0, axis)


def test_apply_along_axis_matches_moveaxis_form_bit_for_bit():
    rng = np.random.default_rng(5)
    shapes = ((7, 6), (7, 6, 5))
    for shape in shapes:
        base = rng.standard_normal(shape)
        inputs = {
            "contiguous": base,
            "transposed view": base.T,
            "earlier output": _moveaxis_apply(rng.standard_normal((shape[1], shape[1])), base, 1),
        }
        for name, values in inputs.items():
            for axis in range(values.ndim):
                n = values.shape[axis]
                for mat in (rng.standard_normal((n, n)), rng.standard_normal((n + 3, n))):
                    got = apply_along_axis(mat, values, axis)
                    want = _moveaxis_apply(mat, values, axis)
                    assert np.array_equal(got, want), (shape, name, axis, mat.shape)
                    assert got.strides == want.strides, (shape, name, axis, mat.shape)


def test_boundary_trace_faces_round_trip():
    g = base_grid(n1=6, n2=5, nt=5)
    rng = np.random.default_rng(2)
    faces = {
        "x1a": rng.standard_normal((g.n2, g.nt)),
        "x1b": rng.standard_normal((g.n2, g.nt)),
        "x2lo": rng.standard_normal((g.n1, g.nt)),
        "x2hi": rng.standard_normal((g.n1, g.nt)),
    }
    f = Field.from_faces(g, faces["x1a"], faces["x1b"], faces["x2lo"], faces["x2hi"])
    for name, arr in faces.items():
        assert np.array_equal(f.face(name), arr)


def test_ddt_on_traces():
    # the time difference acts along the last axis of every stored face
    g = base_grid(n1=6, n2=5, nt=5)
    dt = first_diff_matrix(g.nt, g.ht)
    ramp = np.broadcast_to(g.t, (g.n2, g.nt)).copy()
    gamma = Field(g, "gamma-trace", 2.0 * ramp)
    assert np.allclose(apply_along_axis(dt, gamma.values, 1), 2.0, atol=1e-13)
    tr = Field.from_faces(
        g,
        ramp,
        3.0 * ramp,
        np.broadcast_to(g.t, (g.n1, g.nt)).copy(),
        np.zeros((g.n1, g.nt)),
    )
    assert tr.rank == BOUNDARY_TRACE
    assert np.allclose(apply_along_axis(dt, tr.face("x1b"), 1), 3.0, atol=1e-13)
    assert np.allclose(apply_along_axis(dt, tr.face("x2lo"), 1), 1.0, atol=1e-13)
    assert np.allclose(apply_along_axis(dt, tr.face("x2hi"), 1), 0.0, atol=1e-13)


def test_restriction_strides():
    fine = base_grid(n1=81, n2=81, nt=321)
    coarse = base_grid(n1=21, n2=21, nt=11)
    assert restriction_strides(fine, coarse) == (4, 4, 32)
    with pytest.raises(ValueError):
        restriction_strides(base_grid(n1=22, n2=21, nt=11), coarse)


def test_h2_gradient_is_the_derivative_of_the_norm():
    g = base_grid(n1=7, n2=6, nt=5)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(g.spacetime_shape())
    w = rng.standard_normal(g.spacetime_shape())
    h2 = H2Form(g)
    grad = 2.0 * h2.apply(z)
    # Euler identity for the quadratic form
    assert np.sum(grad * z) == pytest.approx(2.0 * h2.norm_sq(z), rel=1e-12)
    # symmetry of the underlying bilinear form
    assert np.sum(grad * w) == pytest.approx(np.sum(2.0 * h2.apply(w) * z), rel=1e-12)
    eps = 1e-6
    fd = (h2.norm_sq(z + eps * w) - h2.norm_sq(z - eps * w)) / (2.0 * eps)
    assert fd == pytest.approx(np.sum(grad * w), rel=1e-7)


def per_term_h2(grid):
    """Reference H2 form term by term: value, H z and diag(H) of one field.

    Each of the ten terms |Op z|^2 is applied on its own, the value term
    as the empty product, and H z sums the products of each term's 1-D
    Gram matrices; the stacked ``H2Form`` must agree with it.
    """
    axes = ((grid.n1, grid.h1), (grid.n2, grid.h2), (grid.nt, grid.ht))
    first = [(ax, d, d.T @ d) for ax, d in enumerate(first_diff_matrix(*a) for a in axes)]
    second = [(ax, d, d.T @ d) for ax, d in enumerate(second_diff_matrix(*a) for a in axes)]
    terms = (
        ((),)
        + tuple((f,) for f in first)
        + tuple((f,) for f in second)
        + tuple((first[a], first[b]) for a, b in ((0, 1), (0, 2), (1, 2)))
    )

    def norm_sq(values):
        total = 0.0
        for term in terms:
            arr = values
            for ax, op, _ in term:
                arr = apply_along_axis(op, arr, ax)
            total += np.sum(arr * arr)
        return grid.node_weight * total

    def apply(values):
        out = np.zeros_like(values)
        for term in terms:
            arr = values
            for ax, _, gram in term:
                arr = apply_along_axis(gram, arr, ax)
            out += arr
        return grid.node_weight * out

    def diagonal():
        out = np.zeros(grid.spacetime_shape())
        for term in terms:
            prod = np.ones(1)
            for ax, _, gram in term:
                shape = [1, 1, 1]
                shape[ax] = -1
                prod = prod * np.diag(gram).reshape(shape)
            out += prod
        return grid.node_weight * out

    return norm_sq, apply, diagonal


@pytest.mark.parametrize("nodes", [(9, 8, 5), (21, 21, 11)])
@pytest.mark.parametrize("kind", ["random", "smooth"])
def test_stacked_h2_matches_the_per_term_form(nodes, kind):
    g = base_grid(*nodes)
    if kind == "random":
        rng = np.random.default_rng(sum(nodes))
        pair = rng.standard_normal((2,) + g.spacetime_shape())
    else:
        x1, x2, t = np.meshgrid(g.x1, g.x2, g.t, indexing="ij")
        pair = np.stack((
            np.sin(2.0 * x1) * np.cos(3.0 * x2) * (1.0 + t * t),
            np.exp(-x1) * (x2 + 0.3) ** 2 * np.cos(t),
        ))
    norm_sq, apply, diagonal = per_term_h2(g)
    h2 = H2Form(g)
    ref_value = norm_sq(pair[0]) + norm_sq(pair[1])
    assert h2.norm_sq(pair) == pytest.approx(ref_value, rel=1e-13)
    ref_hz = np.stack((apply(pair[0]), apply(pair[1])))
    scale = np.max(np.abs(ref_hz))
    assert np.max(np.abs(h2.apply(pair) - ref_hz)) <= 1e-13 * scale
    # one field alone goes through the same code
    assert h2.norm_sq(pair[1]) == pytest.approx(norm_sq(pair[1]), rel=1e-13)
    assert np.max(np.abs(h2.apply(pair[1]) - ref_hz[1])) <= 1e-13 * np.max(np.abs(ref_hz[1]))
    assert np.allclose(h2.diagonal(), diagonal(), rtol=1e-14, atol=0.0)
