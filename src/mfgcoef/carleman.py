"""Carleman weight and the certified Volterra smoothing inequality.

The weight exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))] anchors the convexified
objective.  Its key quantitative property, proved for every lam > 0, is
that the weighted running integral from the temporal midpoint is bounded
by lam^(-3/2) times the weighted integrand, with the explicit constant

    d^((1-3*alpha)/2) / (sqrt(2) * (1 + alpha)^(3/2)).

That lam^(-3/2) decay (against the lam^(-1) of the conventional weight) is
what the certification suite checks numerically, trial by trial.

Each trial evaluates both sides by trapezoid quadrature on 2^L intervals,
doubling L until two levels agree.  The profile f is piecewise linear in
its knot values v, and so is its running integral, so at each level the
two trapezoid sums are exact quadratic forms v^T K_L v and v^T G_L v whose
(m, m) matrices depend only on the knots, alpha, lam and L.
``VolterraForms`` builds them lazily, one level at a time, in O(2^L) work;
a certification run shares one set across all its profiles and lam, so a
trial costs two m-by-m quadratic forms per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

QUAD_AGREE_RTOL = 1e-8
HOLDS_REL_SLACK = 1e-10


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
    """Weight parameters: strength lam, temporal exponent alpha, geometry."""

    lam: float
    alpha: float
    b: float
    horizon: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        validate_exponent(self.alpha)
        if self.b <= 0 or self.horizon <= 0:
            raise ValueError("b and horizon must be positive")

    def weight(self, x1, t) -> np.ndarray:
        """exp[2*lam*(x1^2 - |t - T/2|^(1+alpha))]."""
        return np.exp(self.log_weight(x1, t))

    def log_weight(self, x1, t) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        t = np.asarray(t, dtype=float)
        shift = np.abs(t - 0.5 * self.horizon) ** (1.0 + self.alpha)
        return 2.0 * self.lam * (x1 * x1 - shift)

    def max_over_slab(self) -> float:
        """Maximum of the weight on the closed slab: exp(2*lam*b^2), at (b, T/2)."""
        return float(np.exp(2.0 * self.lam * self.b * self.b))

    def balanced_log_weight(self, x1, t) -> np.ndarray:
        """log of weight/max: 2*lam*(x1^2 - b^2 - |t - T/2|^(1+alpha)), always <= 0.

        Folding the balance factor into the exponent keeps the combined
        weight in (0, 1] for any lam, so no overflow is possible.
        """
        return self.log_weight(x1, t) - 2.0 * self.lam * self.b * self.b


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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certified inequality evaluation."""

    lhs: float
    rhs: float
    holds: bool
    converged: bool
    levels: int
    lam: float
    d: float
    alpha: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def status(self) -> str:
        if not self.converged:
            return "inconclusive"
        return "holds" if self.holds else "violated"


class VolterraForms:
    """The two trapezoid sums of the check at each level, as quadratic forms.

    f = interp(t, knots, v) is sum_k v_k phi_k(t) with phi_k the hat of knot
    k, and its running trapezoid integral from the midpoint node is
    sum_k v_k psi_k, so the level-L sums are exactly

        rhs_int_L = v^T G_L v,    lhs_L = v^T K_L v,

    with (m, m) matrices that depend on (knots, alpha, lam, level) only.
    Forms are built the first time a (lam, level) pair is asked for, each
    level once for the requested lam together with every lam the object
    was created for, and kept for the object's lifetime.
    """

    def __init__(self, knots: np.ndarray, alpha: float, lambdas: Iterable[float] = ()):
        self.knots = np.asarray(knots, dtype=float)
        self.alpha = float(alpha)
        self._lambdas = tuple(dict.fromkeys(float(lam) for lam in lambdas))
        self._forms: Dict[Tuple[float, int], Tuple[np.ndarray, np.ndarray]] = {}

    def fits(self, knots: np.ndarray, alpha: float) -> bool:
        return self.alpha == alpha and np.array_equal(self.knots, knots)

    def at(self, lam: float, level: int) -> Tuple[np.ndarray, np.ndarray]:
        """(G_L, K_L) for weight strength lam on the 2^level-interval grid."""
        lam = float(lam)
        if (lam, level) not in self._forms:
            lams = [lam] + [
                other for other in self._lambdas
                if other != lam and (other, level) not in self._forms
            ]
            gram, kern = _level_forms(self.knots, self.alpha, level, np.array(lams))
            for i, other in enumerate(lams):
                self._forms[(other, level)] = (gram[i], kern[i])
        return self._forms[(lam, level)]


def _level_forms(knots: np.ndarray, alpha: float, level: int, lams: np.ndarray):
    """G_L and K_L, shape (len(lams), m, m), in O(2^level) work per lam.

    Node t_j belongs to the knot interval i with knots[i] <= t_j < knots[i+1]
    (the last interval also takes t_n = d).  There only phi_i = 1 - s and
    phi_{i+1} = s are nonzero, and psi_k is constant outside hat k's two
    intervals: right[k] past them, left[k] before them.  So on interval i

        f     = v_i (1 - s) + v_{i+1} s
        inner = (a_i . v) (1 - s + s) + v_i psi_i + v_{i+1} psi_{i+1}

    with a_i holding right[k] for k < i and left[k] for k > i + 1, and the
    interval adds the weighted products of its four rows (1 - s, s, psi_i,
    psi_{i+1}) to both forms.
    """
    m = knots.size
    d = knots[-1]
    n = 2**level
    h = 2.0 * d / n
    t = np.linspace(-d, d, n + 1)
    bounds = np.searchsorted(t, knots)
    bounds[0], bounds[-1] = 0, n + 1
    spans = [slice(bounds[i], bounds[i + 1]) for i in range(m - 1)]
    # the clip matches np.interp's end values when knots[0] is a hair off -d
    slopes = [
        np.clip((t[span] - knots[i]) / (knots[i + 1] - knots[i]), 0.0, 1.0)
        for i, span in enumerate(spans)
    ]
    # sums of hat k's samples over its rising interval k - 1 and its falling
    # interval k
    rise, fall = np.zeros(m), np.zeros(m)
    rise[1:] = [s.sum() for s in slopes]
    fall[:-1] = np.diff(bounds) - rise[1:]

    # psi_k(j) = F_k(j) - F_k(c) at the midpoint node c, where F_k(j) = h *
    # (sum of hat k's samples up to node j) - h/2 * phi_k(t_j) is the
    # trapezoid sum from node 0 less its first half-step, which cancels
    c = n // 2
    ic = int(np.searchsorted(bounds, c, side="right")) - 1
    s = slopes[ic][: c - bounds[ic] + 1]
    at_mid = np.zeros(m)
    at_mid[:ic] = h * (rise + fall)[:ic]
    at_mid[ic] = h * (rise[ic] + s.size - s.sum() - 0.5 * (1.0 - s[-1]))
    at_mid[ic + 1] = h * (s.sum() - 0.5 * s[-1])
    right = h * (rise + fall) - at_mid
    left = -at_mid

    gram = np.zeros((lams.size, m, m))
    kern = np.zeros((lams.size, m, m))
    for i, (span, s) in enumerate(zip(spans, slopes)):
        if s.size == 0:
            continue
        rows = np.empty((4, s.size))
        rows[0] = 1.0 - s
        rows[1] = s
        rows[2] = h * (rise[i] + np.cumsum(rows[0]) - 0.5 * rows[0]) - at_mid[i]
        rows[3] = h * (np.cumsum(s) - 0.5 * s) - at_mid[i + 1]
        weight = np.exp(np.multiply.outer(-2.0 * lams, np.abs(t[span]) ** (1.0 + alpha)))
        if span.start == 0:
            weight[:, 0] *= 0.5
        if span.stop == n + 1:
            weight[:, -1] *= 0.5
        sums = h * ((rows * weight[:, None, :]) @ rows.T)
        gram[:, i : i + 2, i : i + 2] += sums[:, :2, :2]
        coef = np.zeros((4, m))
        coef[:2, :i], coef[:2, i + 2 :] = right[:i], left[i + 2 :]
        coef[2, i] = coef[3, i + 1] = 1.0
        kern += coef.T @ sums @ coef
    return gram, kern


def volterra_carleman_check(
    knots: np.ndarray,
    values: np.ndarray,
    lam: float,
    alpha: float,
    start_level: int = 6,
    max_level: int = 24,
    *,
    forms: Optional[VolterraForms] = None,
) -> CheckResult:
    """Certify the weighted Volterra inequality for one piecewise-linear profile.

    Both sides are evaluated by trapezoid quadrature with interval doubling
    until two successive levels agree to 1e-8 relative; a trial that never
    settles is reported as inconclusive rather than as a pass or fail.

    Parameters
    ----------
    knots, values : arrays
        Piecewise-linear profile f on a symmetric interval [-d, d]; the
        knot array must be increasing with knots[0] = -knots[-1] < 0.
    lam : float
        Weight strength; any positive value is admissible (the inequality
        carries no large-lam threshold).
    alpha : float
        Temporal exponent, odd/odd in (0, 1/3).
    forms : VolterraForms, optional
        Level forms for these knots and alpha, shared between checks;
        built for this check alone when omitted.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
        raise ValueError("knots and values must be matching 1-d arrays")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    d = float(knots[-1])
    if not np.isclose(knots[0], -d) or d <= 0:
        raise ValueError("profile must live on a symmetric interval [-d, d]")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    const = bound_constant(d, alpha)
    if forms is None:
        forms = VolterraForms(knots, alpha)
    elif not forms.fits(knots, alpha):
        raise ValueError("forms were built for other knots or another alpha")

    prev = None
    lhs = rhs_int = np.nan
    converged = False
    level = start_level
    for level in range(start_level, max_level + 1):
        gram, kern = forms.at(lam, level)
        lhs = float(values @ kern @ values)
        rhs_int = float(values @ gram @ values)
        if prev is not None:
            scale = max(abs(lhs), abs(rhs_int), 1e-300)
            if (
                abs(lhs - prev[0]) <= QUAD_AGREE_RTOL * scale
                and abs(rhs_int - prev[1]) <= QUAD_AGREE_RTOL * scale
            ):
                converged = True
                break
        prev = (lhs, rhs_int)

    rhs = lam ** (-1.5) * const * rhs_int
    holds = bool(lhs <= rhs * (1.0 + HOLDS_REL_SLACK))
    return CheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        converged=converged,
        levels=level,
        lam=lam,
        d=d,
        alpha=alpha,
    )


def random_profile(rng: np.random.Generator, d: float, n_knots: int = 17):
    """Random piecewise-linear profile on [-d, d] with values in [-1, 1]."""
    knots = np.linspace(-d, d, n_knots)
    return knots, rng.uniform(-1.0, 1.0, size=n_knots)


def run_certification(
    seed: int,
    n_trials: int,
    lambdas: Sequence[float],
    d: float = 0.5,
    alpha: float = 0.2,
    n_knots: int = 17,
) -> List[CheckResult]:
    """Certify the inequality over a seeded ensemble of random profiles."""
    rng = np.random.default_rng(seed)
    forms: Optional[VolterraForms] = None
    out: List[CheckResult] = []
    for _ in range(n_trials):
        knots, values = random_profile(rng, d, n_knots)
        if forms is None:
            # every profile shares the knots, so one set of forms serves all
            forms = VolterraForms(knots, alpha, lambdas)
        for lam in lambdas:
            out.append(volterra_carleman_check(knots, values, lam, alpha, forms=forms))
    return out


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
