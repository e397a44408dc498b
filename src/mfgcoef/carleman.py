"""Carleman weight and the certified Volterra smoothing inequality.

The weight exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))] anchors the convexified
objective.  Its key quantitative property, proved for every lam > 0, is
that the weighted running integral from the temporal midpoint is bounded
by lam^(-3/2) times the weighted integrand, with the explicit constant

    d^((1-3*alpha)/2) / (sqrt(2) * (1 + alpha)^(3/2)).

That lam^(-3/2) decay (against the lam^(-1) of the conventional weight) is
what the certification suite checks numerically, for every random profile
and every lam.

Both sides are evaluated by trapezoid quadrature on 2^L intervals,
doubling L until two levels agree.  A profile f is piecewise linear in its
knot values v, and so is its running integral, so at each level the two
trapezoid sums are exact quadratic forms v^T K_L v and v^T G_L v whose
(m, m) matrices depend only on the knots, alpha, lam and L.  The profiles
of a run share their knots, so ``certify`` builds (G_L, K_L) once per level
for every lam that still has an unsettled profile, in O(2^L) work each,
and evaluates both forms for all profiles at once.

A level is built one knot interval at a time, so no array spans its 2^L + 1
nodes: the working set is about ten arrays of the longest interval's node
count.  Measured on a 2-core x86-64 host, the default certification (17
knots, 100 profiles, lam = 1, 2, 4, 8, settling by level 19) peaks at
about 40 MiB resident, of which the imports take about 34, and a run that
reaches level 24 at about 125 MiB, against 55 and 381 MiB with
whole-level arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .grid import SpaceTimeGrid

QUAD_AGREE_RTOL = 1e-8
HOLDS_REL_SLACK = 1e-10
# the quadrature doubles from 2^START_LEVEL intervals up to 2^MAX_LEVEL
START_LEVEL = 6
MAX_LEVEL = 24
# equispaced knots of each random profile of ``run_certification``
N_KNOTS = 17


def validate_exponent(alpha: float) -> Fraction:
    """Check alpha is a ratio of odd integers in (0, 1/3); return the fraction.

    The sign-safe power |t - T/2|^(1+alpha) only realizes the intended odd
    extension when alpha = n1/n2 with both parts odd.
    """
    frac = Fraction(alpha).limit_denominator(999)
    if abs(float(frac) - alpha) > 1e-12:
        raise ValueError(f"alpha={alpha!r} is not an odd/odd rational within 1e-12")
    if frac.numerator % 2 == 0 or frac.denominator % 2 == 0:
        raise ValueError(
            f"alpha={alpha!r} reduces to {frac}, which is not a ratio of odd integers"
        )
    if not (0 < 3 * frac.numerator < frac.denominator):
        raise ValueError(f"alpha={alpha!r} is outside the open interval (0, 1/3)")
    return frac


@dataclass(frozen=True)
class CarlemanParams:
    """Weight parameters: strength lam and temporal exponent alpha.

    The geometry, b and the midpoint T/2, comes from the grid the weight
    is sampled on.
    """

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        # the objective scales its first residual by lam^(3/2)
        try:
            scale = self.lam**1.5
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"lam={self.lam:g} is too large: lam^(3/2) is not a finite float")
        validate_exponent(self.alpha)

    def balanced_log_weight(self, grid: SpaceTimeGrid) -> np.ndarray:
        """log of weight/max at the grid's (x1, t) nodes, shape (n1, nt).

        The weight is exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))]; its log
        less its peak 2*lam*b^2 at (b, T/2) is always <= 0.  Folding the
        balance factor into the exponent keeps the combined weight in
        (0, 1] for any lam, so no overflow is possible.
        """
        if grid.b <= 0:
            raise ValueError(
                f"b must be positive, since the weight peaks at x1 = b; got b={grid.b}"
            )
        x1 = grid.x1[:, None]
        shift = np.abs(grid.t[None, :] - 0.5 * grid.horizon) ** (1.0 + self.alpha)
        return 2.0 * self.lam * (x1 * x1 - shift) - 2.0 * self.lam * grid.b * grid.b


def bound_constant(d: float, alpha: float) -> float:
    """The explicit constant d^((1-3a)/2) / (sqrt(2) (1+a)^(3/2))."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    validate_exponent(alpha)
    return d ** (0.5 * (1.0 - 3.0 * alpha)) / (np.sqrt(2.0) * (1.0 + alpha) ** 1.5)


def conventional_vs_new_ratio(lam: float, d: float, alpha: float) -> float:
    """Ratio of the lam^(-3/2) bound to the conventional lam^(-1) analogue.

    The weighted-integral factor is common to both bounds and cancels, so
    the ratio is the closed form C(d, alpha) / sqrt(lam), independent of
    the profile being tested.  Log-log slope in lam is exactly -1/2.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return bound_constant(d, alpha) / np.sqrt(lam)


def _level_forms(knots: np.ndarray, alpha: float, level: int, lams: np.ndarray):
    """G_L and K_L, shape (len(lams), m, m), in O(2^level) work per lam.

    The level's nodes are t_j = np.linspace(-d, d, n + 1)[j], n = 2^level.
    Node t_j belongs to the knot interval i with knots[i] <= t_j < knots[i+1]
    (the last interval also takes t_n = d).  There only phi_i = 1 - s and
    phi_{i+1} = s are nonzero, and psi_k is constant outside hat k's two
    intervals: right[k] past them, left[k] before them.  So on interval i

        f     = v_i (1 - s) + v_{i+1} s
        inner = (a_i . v) (1 - s + s) + v_i psi_i + v_{i+1} psi_{i+1}

    with a_i holding right[k] for k < i and left[k] for k > i + 1, and the
    interval adds the weighted products of its four rows (1 - s, s, psi_i,
    psi_{i+1}) to both forms.

    No array spans the level.  A first pass over the intervals sums the hat
    samples that right, left and psi need; a second forms each interval's
    nodes and rows again and weights them one lam at a time.  So the
    working set is a few arrays of the longest interval's node count, and
    every sum is taken over the same nodes in the same order as on the
    whole-level array, bit for bit.
    """
    m = knots.size
    d = knots[-1]
    n = 2**level
    h = 2.0 * d / n

    def node(j: int) -> float:
        return d if j == n else j * h - d

    def nodes(lo: int, hi: int) -> np.ndarray:
        # the linspace nodes lo..hi-1: j * step + start, the last set to stop
        t = np.arange(lo, hi, dtype=float) * h - d
        if hi == n + 1:
            t[-1] = d
        return t

    def first_node_from(x: float) -> int:
        # searchsorted(nodes, x): the estimate corrected against node()
        j = min(max(math.ceil((x + d) / h), 0), n + 1)
        while j > 0 and node(j - 1) >= x:
            j -= 1
        while j <= n and node(j) < x:
            j += 1
        return j

    bounds = np.array([0] + [first_node_from(x) for x in knots[1:-1]] + [n + 1])

    def slopes(i: int) -> np.ndarray:
        # the clip matches np.interp's end values when knots[0] is a hair off -d
        t = nodes(bounds[i], bounds[i + 1])
        return np.clip((t - knots[i]) / (knots[i + 1] - knots[i]), 0.0, 1.0)

    # psi_k(j) = F_k(j) - F_k(c) at the midpoint node c, where F_k(j) = h *
    # (sum of hat k's samples up to node j) - h/2 * phi_k(t_j) is the
    # trapezoid sum from node 0 less its first half-step, which cancels
    c = n // 2
    ic = int(np.searchsorted(bounds, c, side="right")) - 1
    # sums of hat k's samples over its rising interval k - 1 and its falling
    # interval k
    rise, fall = np.zeros(m), np.zeros(m)
    for i in range(m - 1):
        s = slopes(i)
        rise[i + 1] = s.sum()
        if i == ic:
            head = s[: c - bounds[ic] + 1]
            size, total, last = head.size, head.sum(), head[-1]
    # the form pass below holds no array of this pass
    del s, head
    fall[:-1] = np.diff(bounds) - rise[1:]
    at_mid = np.zeros(m)
    at_mid[:ic] = h * (rise + fall)[:ic]
    at_mid[ic] = h * (rise[ic] + size - total - 0.5 * (1.0 - last))
    at_mid[ic + 1] = h * (total - 0.5 * last)
    right = h * (rise + fall) - at_mid
    left = -at_mid

    # the rows and their weighted copy reuse one buffer each across the
    # intervals: made and freed per interval, glibc's default thresholds hand
    # their pages back to the system and fault them in again: about 10^4
    # page faults per level-19 build, slower than the whole-level build
    width = 4 * int(np.diff(bounds).max())
    rows_buf, weighted_buf = np.empty(width), np.empty(width)

    def weighted_sums(i: int) -> np.ndarray:
        # h * sum over interval i's nodes of w_lam rows rows^T, (len(lams), 4, 4);
        # its other arrays are freed on return, before the next interval's
        lo, hi = bounds[i], bounds[i + 1]
        rows = rows_buf[: 4 * (hi - lo)].reshape(4, hi - lo)
        weighted = weighted_buf[: rows.size].reshape(rows.shape)
        rows[1] = slopes(i)
        s = rows[1]
        rows[0] = 1.0 - s
        rows[2] = h * (rise[i] + np.cumsum(rows[0]) - 0.5 * rows[0]) - at_mid[i]
        rows[3] = h * (np.cumsum(s) - 0.5 * s) - at_mid[i + 1]
        power = np.abs(nodes(lo, hi)) ** (1.0 + alpha)
        sums = np.empty((lams.size, 4, 4))
        for k, rate in enumerate(-2.0 * lams):
            weight = rate * power
            np.exp(weight, out=weight)
            if lo == 0:
                weight[0] *= 0.5
            if hi == n + 1:
                weight[-1] *= 0.5
            np.multiply(rows, weight, out=weighted)
            sums[k] = h * (weighted @ rows.T)
        return sums

    gram = np.zeros((lams.size, m, m))
    kern = np.zeros((lams.size, m, m))
    for i in range(m - 1):
        if bounds[i] == bounds[i + 1]:
            continue
        sums = weighted_sums(i)
        gram[:, i : i + 2, i : i + 2] += sums[:, :2, :2]
        coef = np.zeros((4, m))
        coef[:2, :i], coef[:2, i + 2 :] = right[:i], left[i + 2 :]
        coef[2, i] = coef[3, i + 1] = 1.0
        kern += coef.T @ sums @ coef
    return gram, kern


def validate_lambdas(lambdas: Sequence[float]) -> np.ndarray:
    """The weight strengths of a certification as a 1-d float array.

    Each must be finite and positive, and so must lam^(-3/2), the factor
    the bound carries; below about 3e-206 that factor overflows and every
    bound would hold vacuously.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1:
        raise ValueError(f"lambdas must be a 1-d sequence, got shape {lams.shape}")
    with np.errstate(all="ignore"):
        ok = np.isfinite(lams) & (lams > 0) & np.isfinite(lams ** (-1.5))
    if not ok.all():
        raise ValueError(
            f"certification needs a finite lam > 0 with a finite lam^(-3/2), "
            f"got {lams[~ok][0]:g}"
        )
    return lams


@dataclass(frozen=True)
class Certification:
    """Outcome of a certification, one row per profile, one column per lam.

    ``levels`` is the level at which each pair's two sides settled, or
    ``MAX_LEVEL`` for a pair that never did; ``status`` is "holds",
    "violated" or, for a pair that never settled, "inconclusive".
    """

    lhs: np.ndarray
    rhs: np.ndarray
    levels: np.ndarray
    converged: np.ndarray
    status: np.ndarray

    def quadrature_work(self) -> dict:
        """The quadrature work of the run, counted from ``levels``.

        A lam's forms are built at every level from ``START_LEVEL`` to the
        deepest level of its pairs, and a build at level L weights the
        level's 2^L + 1 nodes.  Returns the deepest level per lam, the
        number of (lam, level) builds and the nodes they weight.
        """
        deepest = self.levels.max(axis=0, initial=START_LEVEL - 1)
        built = [level for top in deepest for level in range(START_LEVEL, int(top) + 1)]
        return {
            "deepest_level": [int(top) for top in deepest],
            "form_builds": len(built),
            "form_nodes": sum(2**level + 1 for level in built),
        }


def _quadratic_forms(profiles: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """v^T F v for every profile v and every form F, shape (profiles, forms)."""
    return np.einsum("li,kij,lj->lk", profiles, forms, profiles)


def certify(
    knots: np.ndarray,
    profiles: np.ndarray,
    lambdas: Sequence[float],
    alpha: float,
) -> Certification:
    """Certify the weighted Volterra inequality for piecewise-linear profiles.

    Both sides are evaluated by trapezoid quadrature on 2^L intervals, L
    doubling from ``START_LEVEL``; each (profile, lam) pair is frozen at the
    first level whose two sides agree with the previous level's to
    ``QUAD_AGREE_RTOL`` relative.  A pair that never settles by
    ``MAX_LEVEL`` is reported as inconclusive rather than as a pass or
    fail.

    Parameters
    ----------
    knots : array
        Knots shared by every profile, on a symmetric interval [-d, d]:
        increasing, with knots[0] = -knots[-1] < 0.
    profiles : array, shape (profiles, knots)
        Each row is one profile's values at the knots.
    lambdas : sequence of float
        Weight strengths; any value ``validate_lambdas`` accepts is
        admissible to the inequality, which carries no large-lam
        threshold, but not every one is decidable by this quadrature.
        The weight narrows around t = 0 as lam grows, and uniform
        doubling needs ever more levels to settle: pairs settle at
        levels 18-20 for lam = 100 and 23-24 for lam = 1e4, and at
        lam = 1e5 every pair stays inconclusive at ``MAX_LEVEL`` (24).
        That is the quadrature's limit, not the inequality's.
    alpha : float
        Temporal exponent, odd/odd in (0, 1/3).
    """
    knots = np.asarray(knots, dtype=float)
    profiles = np.asarray(profiles, dtype=float)
    lams = validate_lambdas(lambdas)
    if knots.ndim != 1 or knots.size < 2:
        raise ValueError("knots must be a 1-d array of at least two values")
    if profiles.ndim != 2 or profiles.shape[1] != knots.size:
        raise ValueError(
            f"profiles must be a 2-d array with one column per knot ({knots.size}), "
            f"got shape {profiles.shape}"
        )
    if not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be finite and strictly increasing")
    d = float(knots[-1])
    if not np.isclose(knots[0], -d) or d <= 0:
        raise ValueError("profile must live on a symmetric interval [-d, d]")
    const = bound_constant(d, alpha)

    shape = (profiles.shape[0], lams.size)
    lhs = np.full(shape, np.nan)
    rhs_int = np.full(shape, np.nan)
    levels = np.full(shape, START_LEVEL)
    converged = np.zeros(shape, dtype=bool)
    for level in range(START_LEVEL, MAX_LEVEL + 1):
        # forms only for the lam with a pair still open
        cols = np.flatnonzero(~converged.all(axis=0))
        if cols.size == 0:
            break
        gram, kern = _level_forms(knots, alpha, level, lams[cols])
        cur_lhs = _quadratic_forms(profiles, kern)
        cur_rhs = _quadratic_forms(profiles, gram)
        open_ = ~converged[:, cols]
        if level > START_LEVEL:
            scale = np.maximum(np.maximum(np.abs(cur_lhs), np.abs(cur_rhs)), 1e-300)
            converged[:, cols] |= (
                np.abs(cur_lhs - lhs[:, cols]) <= QUAD_AGREE_RTOL * scale
            ) & (np.abs(cur_rhs - rhs_int[:, cols]) <= QUAD_AGREE_RTOL * scale)
        lhs[:, cols] = np.where(open_, cur_lhs, lhs[:, cols])
        rhs_int[:, cols] = np.where(open_, cur_rhs, rhs_int[:, cols])
        levels[:, cols] = np.where(open_, level, levels[:, cols])

    rhs = lams ** (-1.5) * const * rhs_int
    holds = lhs <= rhs * (1.0 + HOLDS_REL_SLACK)
    status = np.where(converged, np.where(holds, "holds", "violated"), "inconclusive")
    return Certification(lhs=lhs, rhs=rhs, levels=levels, converged=converged, status=status)


def run_certification(
    seed: int,
    n_trials: int,
    lambdas: Sequence[float],
    d: float = 0.5,
    alpha: float = 0.2,
) -> Certification:
    """Certify the inequality over a seeded ensemble of random profiles.

    Each profile is piecewise linear on N_KNOTS equispaced knots in [-d, d]
    with values drawn uniformly from [-1, 1], one row per trial.
    """
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(-1.0, 1.0, size=(n_trials, N_KNOTS))
    return certify(np.linspace(-d, d, N_KNOTS), profiles, lambdas, alpha)


def ratio_log_slope(
    lambdas: Iterable[float], d: float = 0.5, alpha: float = 0.2
) -> Optional[float]:
    """Fitted log-log slope of the new-vs-conventional bound ratio in lam.

    The fit runs over the distinct lam; with fewer than two there is no
    slope and the result is None.
    """
    lams = np.unique(np.asarray(list(lambdas), dtype=float))
    if lams.size < 2:
        return None
    ratios = np.array([conventional_vs_new_ratio(l, d, alpha) for l in lams])
    slope, _ = np.polyfit(np.log(lams), np.log(ratios), 1)
    return float(slope)
