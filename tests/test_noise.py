import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mfgcoef.carleman import CarlemanParams
from mfgcoef.grid import (
    FACES,
    GAMMA_TRACE,
    OBSERVATION_FIELDS,
    SPATIAL,
    Field,
    ObservationData,
    SpaceTimeGrid,
    apply_along_axis,
    first_diff_matrix,
    second_diff_matrix,
)
from mfgcoef.inverse import DataConstraints
from mfgcoef.noise import (
    SLICE_ORDER,
    TRACE_ORDER,
    _BISECTIONS,
    _LOG_ALPHA_RANGE,
    _PARITIES,
    _block_nullity,
    _gram,
    _parity_basis,
    _parity_slices,
    _penalty_spectrum,
    inject,
    regularized_fit,
    smooth_observations,
)
from mfgcoef.objective import ObjectiveContext


def coarse_grid():
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=21, n2=21, nt=11)


def analytic_obs(g=None):
    g = g or coarse_grid()
    x1, x2 = g.meshgrid()

    def v(x1v, x2v, t):
        return 0.1 * np.cos(np.pi * x1v) * np.sin(np.pi * x2v) * (t * t + 1.0)

    def p(x1v, x2v, t):
        return (t + 1.0) * (x1v * x2v + 2.0)

    tmid = 0.5 * g.horizon

    def faces(fn):
        return {
            "x1a": fn(g.a, g.x2[:, None], g.t[None, :]),
            "x1b": fn(g.b, g.x2[:, None], g.t[None, :]),
            "x2lo": fn(g.x1[:, None], -g.half_width, g.t[None, :]),
            "x2hi": fn(g.x1[:, None], g.half_width, g.t[None, :]),
        }

    def v_x1(x1v, x2v, t):
        return -0.1 * np.pi * np.sin(np.pi * x1v) * np.sin(np.pi * x2v) * (t * t + 1.0)

    def p_x1(x1v, x2v, t):
        return (t + 1.0) * x2v * np.ones_like(np.asarray(x1v, dtype=float))

    return ObservationData(
        grid=g,
        v0=Field(g, SPATIAL, v(x1, x2, tmid)),
        p0=Field(g, SPATIAL, p(x1, x2, tmid)),
        g01=Field.from_faces(g, faces(v)),
        g02=Field.from_faces(g, faces(p)),
        g11=Field(g, GAMMA_TRACE, v_x1(g.b, g.x2[:, None], g.t[None, :])),
        g12=Field(g, GAMMA_TRACE, p_x1(g.b, g.x2[:, None], g.t[None, :])),
    )


def slice_laplacian(values, g):
    return apply_along_axis(second_diff_matrix(g.n1, g.h1), values, 0) + apply_along_axis(
        second_diff_matrix(g.n2, g.h2), values, 1
    )


def test_inject_zero_level_is_identity():
    obs = analytic_obs()
    noisy = inject(obs, 0.0, 5)
    for name, f in obs.fields().items():
        assert np.array_equal(noisy.fields()[name].values, f.values)


def test_inject_seeded_and_bounded():
    obs = analytic_obs()
    a = inject(obs, 0.05, 11)
    b = inject(obs, 0.05, 11)
    c = inject(obs, 0.05, 12)
    ratios = []
    for name, f in obs.fields().items():
        assert np.array_equal(a.fields()[name].values, b.fields()[name].values)
        assert not np.array_equal(a.fields()[name].values, c.fields()[name].values)
        live = np.abs(f.values) > 1e-12  # zero samples stay zero under scaling
        if not live.any():
            continue
        ratio = a.fields()[name].values[live] / f.values[live] - 1.0
        assert ratio.min() >= 0.0
        assert ratio.max() < 0.05
        ratios.append(ratio.ravel() / 0.05)
    # multiplicative factors are uniform on [0, 1): pooled mean near 1/2
    pooled = np.concatenate(ratios)
    assert pooled.mean() == pytest.approx(0.5, abs=0.02)


def test_inject_streams_are_per_field():
    # drawing one field's noise must not depend on the other fields: field
    # i draws from numpy's Philox stream of child i of SeedSequence(seed)
    obs = analytic_obs()
    noisy = inject(obs, 0.03, 77)
    for i, name in enumerate(OBSERVATION_FIELDS):
        child = np.random.SeedSequence(77).spawn(len(OBSERVATION_FIELDS))[i]
        f = obs.fields()[name]
        zeta = np.random.Generator(np.random.Philox(child)).random(size=f.values.shape)
        expect = f.values * (1.0 + 0.03 * zeta)
        assert np.array_equal(noisy.fields()[name].values, expect), name


def test_smooth_at_level_zero_returns_every_field_bit_for_bit():
    obs = analytic_obs()
    smooth = smooth_observations(obs, 0.0)
    assert smooth.grid == obs.grid
    for name, f in obs.fields().items():
        fitted = smooth.fields()[name]
        assert fitted.rank == f.rank, name
        assert np.array_equal(fitted.values.view(np.uint64), f.values.view(np.uint64)), name
        # a copy: the inversion may not alias the caller's data
        assert not np.shares_memory(fitted.values, f.values), name


def test_smooth_matches_stencils_on_clean_data():
    # at level 0 the fit returns the data, so every node, edges included,
    # carries exactly the clean-path stencil values
    obs = analytic_obs()
    g = obs.grid
    smooth = smooth_observations(obs, 0.0)
    zeros = np.zeros(g.spacetime_shape())
    params = CarlemanParams(lam=3.0, alpha=0.2)
    ctx = ObjectiveContext(smooth, 0.2, params, 1e-3, zeros, zeros)
    v0 = obs.v0.values
    v0_x1 = apply_along_axis(first_diff_matrix(g.n1, g.h1), v0, 0)
    v0_x2 = apply_along_axis(first_diff_matrix(g.n2, g.h2), v0, 1)
    assert np.array_equal(ctx.v0_x, np.stack((v0_x1, v0_x2)))
    assert np.array_equal(ctx.p0, obs.p0.values)
    # with zero cost F is f times the Laplacian less half the squared gradient
    lap_part = slice_laplacian(v0, g) - 0.5 * np.sum(ctx.v0_x**2, axis=0)
    assert np.array_equal(ctx.F, ctx.f * lap_part)
    dt = first_diff_matrix(g.nt, g.ht)
    rates = DataConstraints(smooth).rates
    for name in FACES:
        direct = [apply_along_axis(dt, trace.face(name), 1) for trace in (obs.g01, obs.g02)]
        assert np.array_equal(rates[name], np.stack(direct)), name


def test_zero_noise_pipeline_equals_clean_spline_path():
    obs = analytic_obs()
    clean = smooth_observations(obs, 0.0)
    piped = smooth_observations(inject(obs, 0.0, 3), 0.0)
    for name, f in clean.fields().items():
        assert np.array_equal(piped.fields()[name].values, f.values), name


@pytest.mark.parametrize("seed", range(5))
def test_regularized_laplacian_beats_interpolating_splines(seed):
    level = 0.05
    obs = analytic_obs()
    g = obs.grid
    x1, x2 = g.meshgrid()
    exact = -0.2 * np.pi**2 * np.cos(np.pi * x1) * np.sin(np.pi * x2) * 1.25
    noisy_obs = inject(obs, level, seed)
    noisy = noisy_obs.v0.values

    # the fit meets its discrepancy target: residual = (level^2 / 12) |y|^2
    fitted = regularized_fit(noisy, level, SLICE_ORDER)
    target = level**2 / 12.0 * np.sum(noisy**2)
    assert np.sum((fitted - noisy) ** 2) == pytest.approx(target, rel=1e-6)

    fit_lap = slice_laplacian(smooth_observations(noisy_obs, level).v0.values, g)
    spline_lap = (
        CubicSpline(g.x1, noisy, axis=0, bc_type="natural")(g.x1, 2)
        + CubicSpline(g.x2, noisy, axis=1, bc_type="natural")(g.x2, 2)
    )
    fit_err = np.linalg.norm(fit_lap - exact)
    spline_err = np.linalg.norm(spline_lap - exact)
    assert spline_err >= 10.0 * fit_err


def monomials(shape, order):
    """Columns x1^i x2^j, i + j < order, on the flattened surface."""
    x1 = np.linspace(0.0, 1.0, shape[0])[:, None]
    x2 = np.linspace(0.0, 1.0, shape[1])[None, :]
    return np.stack(
        [(x1**i * x2**j).ravel() for i in range(shape[0]) for j in range(shape[1]) if i + j < order],
        axis=1,
    )


def full_spectrum(shape, order):
    """The blocks' eigenpairs as eigenpairs of the whole penalty on the flattened surface.

    A block's coefficient array U stands for the surface Q1[rows]^T U Q2[cols],
    whose row-major flattening is kron(Q1[rows]^T, Q2[cols]^T) vec(U).
    """
    q1, q2 = _parity_basis(shape[0]), _parity_basis(shape[1])
    rows, cols = _parity_slices(shape[0]), _parity_slices(shape[1])
    spectrum = _penalty_spectrum(shape, order)
    eigenvalues = np.concatenate([e for e, _ in spectrum])
    eigenvectors = np.hstack([
        np.kron(q1[rows[p1]].T, q2[cols[p2]].T) @ v
        for (p1, p2), (_, v) in zip(_PARITIES, spectrum)
    ])
    return eigenvalues, eigenvectors


# an odd square, the trace faces and the (41, 41) refinement, then an
# even side and the transposed face
SPECTRUM_CASES = [
    ((21, 21), SLICE_ORDER),
    ((21, 11), TRACE_ORDER),
    ((41, 41), SLICE_ORDER),
    ((11, 21), TRACE_ORDER),
    ((20, 20), SLICE_ORDER),
]


@pytest.mark.parametrize("n", (2, 11, 20, 21))
def test_parity_basis_splits_every_gram_into_even_and_odd_blocks(n):
    q = _parity_basis(n)
    assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-15
    even, odd = _parity_slices(n)
    # rows of the even half are unchanged by reversal, odd ones change sign
    assert np.array_equal(q[even, ::-1], q[even])
    assert np.array_equal(q[odd, ::-1], -q[odd])
    for k in range(min(n, 5)):
        g = q @ _gram(n, k) @ q.T
        assert np.max(np.abs(g[even, odd])) <= 1e-14 * np.max(np.abs(g))


@pytest.mark.parametrize("shape, order", SPECTRUM_CASES)
def test_penalty_null_space_is_the_low_degree_monomials(shape, order):
    eigenvalues, eigenvectors = full_spectrum(shape, order)
    basis = monomials(shape, order)
    nullity = basis.shape[1]
    null = eigenvalues == 0.0
    assert np.count_nonzero(null) == nullity
    assert np.all(eigenvalues[~null] > 0.0)
    # eigh resolves the subspace only to about eps * max(e) / min(e > 0)
    # (Davis-Kahan); measured 6e-10 on (21, 21) and 1.4e-7 on (41, 41)
    null = eigenvectors[:, null]
    assert np.linalg.norm(basis - null @ (null.T @ basis)) <= 1e-6 * np.linalg.norm(basis)


@pytest.mark.parametrize("shape, order", SPECTRUM_CASES)
def test_each_block_zeroes_its_parity_count_of_monomials(shape, order):
    n1, n2 = shape
    for parity, (eigenvalues, eigenvectors) in zip(_PARITIES, _penalty_spectrum(shape, order)):
        p1, p2 = parity
        count = sum(
            1 for i in range(n1) for j in range(n2)
            if i + j < order and i % 2 == p1 and j % 2 == p2
        )
        assert _block_nullity(shape, order, parity) == count
        assert np.count_nonzero(eigenvalues == 0.0) == count, parity
        assert np.all(eigenvalues[count:] > 0.0), parity
        # the block sizes: even and odd halves of each axis
        size = (n1 + 1 - p1) // 2 * ((n2 + 1 - p2) // 2)
        assert eigenvectors.shape == (size, size)


@pytest.mark.parametrize("shape, order", [case for case in SPECTRUM_CASES if case[0] != (41, 41)])
def test_penalty_spectrum_rebuilds_the_difference_penalty(shape, order):
    # reference: sum_a C(order, a) D_a^T D_a, D_a the mixed difference
    # D1^a D2^(order-a) applied to every unit vector of the surface
    n = shape[0] * shape[1]
    units = np.eye(n).reshape(n, *shape)
    penalty = np.zeros((n, n))
    for a in range(order + 1):
        d = np.diff(np.diff(units, a, axis=1), order - a, axis=2).reshape(n, -1)
        penalty += comb(order, a) * d @ d.T
    eigenvalues, eigenvectors = full_spectrum(shape, order)
    rebuilt = (eigenvectors * eigenvalues) @ eigenvectors.T
    assert np.max(np.abs(rebuilt - penalty)) <= 1e-12 * np.max(np.abs(penalty))


def test_penalty_spectrum_holds_no_dense_surface_matrix():
    # the blocks are a quarter of the (441 x 441) dense penalty each; the
    # whole construction must stay below one such matrix of float64
    _penalty_spectrum.cache_clear()
    _parity_basis.cache_clear()
    tracemalloc.start()
    try:
        _penalty_spectrum((21, 21), SLICE_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 441 * 441 * 8


@lru_cache(maxsize=None)
def dense_spectrum(shape, order):
    """The whole penalty diagonalized as one dense matrix, its null space zeroed."""
    n1, n2 = shape
    penalty = sum(
        comb(order, a) * np.kron(_gram(n1, a), _gram(n2, order - a)) for a in range(order + 1)
    )
    eigenvalues, eigenvectors = np.linalg.eigh(penalty)
    nullity = sum(min(order - i, n2) for i in range(min(order, n1)))
    eigenvalues[:nullity] = 0.0
    return eigenvalues, eigenvectors


def dense_fit(values, level, order):
    """The discrepancy-rule fit in the dense eigenbasis, bisection as in regularized_fit."""
    eigenvalues, eigenvectors = dense_spectrum(values.shape, order)
    y = values.ravel()
    target = level * level / 12.0 * float(y @ y)
    c = eigenvectors.T @ y
    lo, hi = _LOG_ALPHA_RANGE
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        damped = 10.0**mid * eigenvalues
        r = damped / (1.0 + damped) * c
        if r @ r < target:
            lo = mid
        else:
            hi = mid
    fit = eigenvectors @ (c / (1.0 + 10.0 ** (0.5 * (lo + hi)) * eigenvalues))
    return fit.reshape(values.shape)


@pytest.mark.parametrize("level", (0.01, 0.03, 0.05))
@pytest.mark.parametrize(
    "shape, order",
    [((21, 21), SLICE_ORDER), ((21, 11), TRACE_ORDER), ((20, 20), SLICE_ORDER),
     ((41, 41), SLICE_ORDER)],
)
def test_blocked_fit_equals_the_dense_fit(shape, order, level):
    x1 = np.linspace(1.0, 2.0, shape[0])[:, None]
    x2 = np.linspace(-0.5, 0.5, shape[1])[None, :]
    clean = np.cos(np.pi * x1) * np.sin(np.pi * x2) + 2.0
    zeta = np.random.default_rng(3).random(shape)
    noisy = clean * (1.0 + level * zeta)
    fitted = regularized_fit(noisy, level, order)
    reference = dense_fit(noisy, level, order)
    assert np.max(np.abs(fitted - reference)) <= 1e-6 * np.max(np.abs(reference))


@pytest.mark.parametrize("level", (0.01, 0.03, 0.05))
@pytest.mark.parametrize(
    "shape, order",
    [((21, 21), SLICE_ORDER), ((21, 11), TRACE_ORDER), ((20, 20), SLICE_ORDER),
     ((11, 21), TRACE_ORDER)],
)
def test_fit_returns_polynomials_the_penalty_does_not_see(shape, order, level):
    # zero penalty and zero residual at every alpha: the discrepancy rule
    # ends at the largest alpha, where the fit must still be the data
    basis = monomials(shape, order)
    poly = (basis @ np.linspace(2.0, -1.0, basis.shape[1])).reshape(shape)
    fitted = regularized_fit(poly, level, order)
    assert np.max(np.abs(fitted - poly)) <= 1e-6 * np.max(np.abs(poly))
