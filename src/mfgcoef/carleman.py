"""Carleman weight and the certified Volterra smoothing inequality.

The weight exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))] anchors the convexified
objective.  Its key quantitative property, proved for every lam > 0, is
that the weighted running integral from the temporal midpoint is bounded
by lam^(-3/2) times the weighted integrand, with the explicit constant

    d^((1-3*alpha)/2) / (sqrt(2) * (1 + alpha)^(3/2)).

That lam^(-3/2) decay (against the lam^(-1) of the conventional weight) is
what the certification suite checks numerically, for every random profile
and every lam.

Both sides are integrals of the weight times a square.  A profile f is
piecewise linear in its knot values v, so its running integral from the
midpoint is exactly piecewise quadratic, and the two sides are quadratic
forms v^T K v and v^T G v whose (m, m) matrices depend only on the knots,
alpha and lam.  Only the outer weighted integrals need quadrature: a
Gauss-Legendre rule on pieces graded toward the weight's kink at t = 0
computes them to rounding.  The profiles of a run share their knots, so
``certify`` builds (G, K) once per lam, by two rules, and evaluates both
forms for all profiles at once.
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
# points of the coarser of the two Gauss rules; the finer has twice as many
GAUSS_POINTS = 16
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

        The weight is exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))].  It peaks
        at (b, T/2) when b > 0 and a >= -b, so x1^2 <= b^2 on [a, b], and
        both are checked here; its log less that peak 2*lam*b^2 is then
        always <= 0.  Folding the balance factor into the exponent keeps
        the combined weight in (0, 1] for any lam, so no overflow is
        possible.
        """
        if grid.b <= 0:
            raise ValueError(
                f"b must be positive, since the weight peaks at x1 = b; got b={grid.b}"
            )
        if grid.a < -grid.b:
            raise ValueError(
                f"a must be at least -b, since the weight peaks at x1 = b; "
                f"got a={grid.a}, b={grid.b}"
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


def _gauss_legendre(points: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Golub & Welsch.

    The nodes are the eigenvalues of the Legendre recurrence's Jacobi
    matrix and each weight is twice the squared first component of its
    eigenvector (Math. Comp. 23, 1969).
    """
    k = np.arange(1.0, points)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _radii(side: np.ndarray, d: float, scale: float, alpha: float) -> np.ndarray:
    """The cuts of one side's pieces, |t| increasing from 0.

    ``side`` holds the side's knots as distances from 0, and scale is
    lam^(1/(1+alpha)).  The cuts are 0, the knots and d / 2^j for
    j = 1..depth, where the innermost r = d / 2^depth is the first with
    2 lam r^(1+alpha) < 1e-4.
    """
    depth = max(0, math.floor(math.log2(d * scale / 5e-5 ** (1.0 / (1.0 + alpha)))) + 1)
    dyadic = d * 0.5 ** np.arange(1, depth + 1)
    return np.unique(np.concatenate(([0.0], side, dyadic[dyadic < side.max()])))


def _forms(knots: np.ndarray, lam: float, alpha: float, rule):
    """G and K, shape (m, m), for one lam by the Gauss rule on graded pieces.

    The pieces run outward from t = 0 on each side, cut by ``_radii`` at
    the knots and at d / 2^j, so every piece off 0 spans at most a factor 2
    in |t| and the weight is smooth on it.  The halving toward the weight's
    kink at t = 0 stops where the weight is 1 to within 1e-4.

    On a piece with inner end e at distance u from a node t, the hats are
    linear, so their running integrals from 0 are exactly

        psi(t) = psi(e) + sign * u * (phi(e) + phi(t)) / 2

    and psi(e) is summed piece by piece outward from psi(0) = 0.  Returns
    the forms and the number of nodes they weight.
    """
    x, wq = rule
    m = knots.size
    # lam r^(1+alpha) = (scale r)^(1+alpha): no overflow or subnormal for any lam
    scale = lam ** (1.0 / (1.0 + alpha))
    eye = np.eye(m)
    gram = np.zeros((m, m))
    kern = np.zeros((m, m))
    nodes = 0
    for sign in (1.0, -1.0):
        radii = _radii(sign * knots[sign * knots > 0], knots[-1], scale, alpha)
        half = 0.5 * np.diff(radii)[:, None]
        u = half * (1.0 + x)
        rho = radii[:-1, None] + u
        # the hats at the cuts, (pieces + 1, m), and at the nodes, (pieces, m, points)
        ends = np.stack([np.interp(sign * radii, knots, row) for row in eye], axis=1)
        phi = np.stack([np.interp(sign * rho, knots, row) for row in eye], axis=1)
        steps = sign * half * (ends[:-1] + ends[1:])
        inner = np.concatenate((np.zeros((1, m)), np.cumsum(steps[:-1], axis=0)))
        psi = inner[:, :, None] + (sign * 0.5 * u)[:, None, :] * (ends[:-1, :, None] + phi)
        weight = (np.exp(-2.0 * (scale * rho) ** (1.0 + alpha)) * half * wq)[:, None, :]
        # one small product per piece: a single product over every node
        # spins at two OpenBLAS threads
        gram += ((phi * weight) @ phi.transpose(0, 2, 1)).sum(axis=0)
        kern += ((psi * weight) @ psi.transpose(0, 2, 1)).sum(axis=0)
        nodes += rho.size
    return gram, kern, nodes


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

    ``converged`` marks the pairs that were decided: their two rules
    agreed and their bound is a normal float.  ``status`` is "holds",
    "violated" or, for a pair not decided, "inconclusive".  ``nodes``
    counts, per lam, the nodes the finer rule weights.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    converged: np.ndarray
    status: np.ndarray
    nodes: tuple


def _sides(knots, profiles, lams, alpha, points):
    """lhs and the rhs integral of every pair by the points-point rule.

    Returns both as (profiles, lams) arrays, and each lam's node count.
    """
    rule = _gauss_legendre(points)
    gram, kern, nodes = zip(*(_forms(knots, lam, alpha, rule) for lam in lams))

    def quadratic(forms):
        return np.einsum("li,kij,lj->lk", profiles, np.array(forms), profiles)

    return quadratic(kern), quadratic(gram), nodes


def certify(
    knots: np.ndarray,
    profiles: np.ndarray,
    lambdas: Sequence[float],
    alpha: float,
) -> Certification:
    """Certify the weighted Volterra inequality for piecewise-linear profiles.

    Both sides are evaluated by a ``GAUSS_POINTS``-point and a twice as
    fine Gauss rule on the same graded pieces; a pair whose two rules
    agree to ``QUAD_AGREE_RTOL`` relative is decided by the finer one,
    and a pair whose rules disagree is reported as inconclusive rather
    than as a pass or fail.

    Parameters
    ----------
    knots : array
        Knots shared by every profile, on a symmetric interval [-d, d]:
        increasing, with knots[0] = -knots[-1] < 0.
    profiles : array, shape (profiles, knots)
        Each row is one profile's values at the knots.
    lambdas : sequence of float
        Weight strengths; any value ``validate_lambdas`` accepts is
        admissible, since the inequality carries no large-lam threshold.
        The grading follows the weight's width, so the rules agree to
        about 1e-11 at any lam.  Past about lam = 1e130 the bound falls
        below the normal floats, and such a pair is inconclusive too.
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

    coarse_lhs, coarse_rhs, _ = _sides(knots, profiles, lams, alpha, GAUSS_POINTS)
    lhs, rhs_int, nodes = _sides(knots, profiles, lams, alpha, 2 * GAUSS_POINTS)
    scale = np.maximum(np.abs(lhs), np.abs(rhs_int))
    converged = (np.abs(lhs - coarse_lhs) <= QUAD_AGREE_RTOL * scale) & (
        np.abs(rhs_int - coarse_rhs) <= QUAD_AGREE_RTOL * scale
    )
    rhs = lams ** (-1.5) * const * rhs_int
    # a bound below the normal floats has lost its digits to underflow
    converged &= rhs >= np.finfo(float).tiny
    holds = lhs <= rhs * (1.0 + HOLDS_REL_SLACK)
    status = np.where(converged, np.where(holds, "holds", "violated"), "inconclusive")
    return Certification(lhs=lhs, rhs=rhs, converged=converged, status=status, nodes=nodes)


def run_certification(
    seed: int,
    n_trials: int,
    lambdas: Sequence[float],
    d: float,
    alpha: float,
) -> Certification:
    """Certify the inequality over a seeded ensemble of random profiles.

    Each profile is piecewise linear on N_KNOTS equispaced knots in [-d, d]
    with values drawn uniformly from [-1, 1], one row per trial.
    """
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(-1.0, 1.0, size=(n_trials, N_KNOTS))
    return certify(np.linspace(-d, d, N_KNOTS), profiles, lambdas, alpha)


def ratio_log_slope(lambdas: Iterable[float], d: float, alpha: float) -> Optional[float]:
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
