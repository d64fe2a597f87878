"""Tail fitting: maximum likelihood, x_min selection, and model comparison.

x_min is chosen by minimizing the Kolmogorov-Smirnov distance between the
tail empirical CDF and the fitted model over candidate x_min values, ties
going to the smaller candidate. Families are compared on identical tails via
the normalized log-likelihood ratio with the variance estimated from the
per-point differences, and a family is eliminated only when a competitor
beats it decisively (R < 0 with p below the significance level).

Each family's numeric fit is one record in `_TAIL_FITS` (a `_TailFit`):
its start points, its warm-start encoding, its closed form where one exists
(power law, exponential), and a builder of its objective. The objective is
one closure on the optimizer's vector that decodes it, checks the parameter
box and evaluates the log-likelihood on local floats, with no dict and no
dispatch on the family name.

The numeric fits use Nelder-Mead implemented in this module (`minimize`),
which reproduces scipy's non-adaptive Nelder-Mead iterate for iterate and
bit for bit, unrolled for the 1- and 2-parameter simplices the families
need. An x_min scan makes hundreds of thousands of objective calls, where
scipy's per-iteration numpy work, or a per-call parameter dict, costs as
much as the likelihood itself; without that overhead the fits, and every
report built from them, stay the same.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erfc, log_ndtr
from scipy.stats import qmc

from ..errors import (InvalidParams, NoValidCandidate, OptimizerFailure,
                      TooFewPoints)
from .families import (FAMILIES, FAMILY_ORDER, TailDistribution,
                       log_upper_gamma, make_distribution)

DEFAULT_RESTARTS = 8
SIGNIFICANCE = 0.01

# optimizer box constraints; lambda's box is data-dependent (see _Boxes)
ALPHA_LO, ALPHA_HI = 1.0, 4.0
BETA_LO, BETA_HI = 0.0, 3.0
MU_LO, MU_HI = -30.0, 30.0
SIGMA_LO, SIGMA_HI = 0.0, 10.0


@dataclass
class FitResult:
    family: str
    params: dict[str, float]
    x_min: float
    D: float
    loglik: float
    n_tail: int

    def distribution(self) -> TailDistribution:
        return make_distribution(self.family, self.params, self.x_min)


@dataclass
class ComparisonResult:
    r: float
    p: float
    favored: str           # "f" | "g" | "indeterminate"
    family_f: str
    family_g: str
    fit_g: FitResult | None = None


@dataclass
class CandidateSet:
    fits: dict[str, FitResult | None]
    eliminated_by: dict[str, list[str]]
    candidates: list[str]
    selection: str | None
    selection_flag: str | None       # "unique" | "judged" | None
    comparisons: list[ComparisonResult] = field(default_factory=list)

    @property
    def all_eliminated(self) -> bool:
        return not self.candidates

    def selected_fit(self) -> FitResult | None:
        return self.fits[self.selection] if self.selection else None


class _TailStats:
    """Sufficient statistics of one tail; keeps objective evaluations O(1)
    for every family except the stretched exponential."""

    def __init__(self, tail: np.ndarray, x_min: float):
        self.x_min = float(x_min)
        self.n = len(tail)
        self.log_x = np.log(tail)
        self.sum_log = float(self.log_x.sum())
        self.sum_x = float(tail.sum())
        self.sum_log_sq = float((self.log_x ** 2).sum())
        self.mean = self.sum_x / self.n
        self.log_xmin = math.log(x_min)


@functools.lru_cache(maxsize=None)
def _halton(dim: int, count: int) -> np.ndarray:
    """The first count points of the unscrambled Halton sequence; shared
    between calls, so the array is read-only."""
    table = qmc.Halton(d=dim, scramble=False).random(count)
    table.setflags(write=False)
    return table


# scipy's non-adaptive Nelder-Mead coefficients and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# the affine weights of xbar and of the worst vertex in each trial point
_XR, _WR = 1 + _RHO, _RHO                  # reflection
_XE, _WE = 1 + _RHO * _CHI, _RHO * _CHI    # expansion
_XC, _WC = 1 + _PSI * _RHO, _PSI * _RHO    # outside contraction
_XCC, _WCC = 1 - _PSI, _PSI                # inside contraction: _XCC*xbar + _WCC*worst


Objective = Callable[[list[float]], float]


class NelderMeadResult(NamedTuple):
    x: list[float]
    fun: float
    nfev: int
    nit: int


def minimize(fun: Objective, x0, *, xatol: float = 1e-8,
             fatol: float = 1e-6, maxiter: int = 2000,
             maxfev: int = 4000) -> NelderMeadResult:
    """Nelder-Mead (1965) on 1 or 2 plain floats, iterate for iterate scipy's.

    A port of scipy.optimize.minimize(method="Nelder-Mead") without bounds
    or adaptive coefficients: the same initial simplex, the same arithmetic
    in the same order, the same stable sort of the vertices, the same
    xatol/fatol test and the same maxiter/maxfev cut-off, where the call
    that would exceed maxfev is not made. x and fun therefore match scipy's
    bit for bit, and so do nfev and nit. The defaults are the tail fits'
    options. The tail families have at most two free parameters, so the
    simplex is unrolled into local floats for each of the two sizes.

    fun receives a vertex as a list, which it must not modify, and returns
    a float that is never NaN (inf marks an infeasible point).
    """
    if len(x0) == 1:
        return _nelder_mead_1d(fun, float(x0[0]), xatol, fatol, maxiter, maxfev)
    if len(x0) == 2:
        return _nelder_mead_2d(fun, float(x0[0]), float(x0[1]), xatol, fatol,
                               maxiter, maxfev)
    raise InvalidParams(f"minimize takes 1 or 2 parameters, not {len(x0)}")


def _nelder_mead_1d(fun: Objective, a: float, xatol: float, fatol: float,
                    maxiter: int, maxfev: int) -> NelderMeadResult:
    # vertices a (best) and b (worst), fa <= fb after every sort
    b = (1 + _NONZDELT) * a if a != 0 else _ZDELT
    fa = fb = math.inf
    nfev = min(maxfev, 2)
    if nfev > 0:
        fa = fun([a])
    if nfev > 1:
        fb = fun([b])
    if fb < fa:  # the stable sort of two vertices
        a, b, fa, fb = b, a, fb, fa
    nit = 1
    while nfev < maxfev and nit < maxiter:
        # not (|d| <= tol): |inf - inf| is NaN, which must not converge
        if abs(b - a) <= xatol and abs(fa - fb) <= fatol:
            break
        xbar = 0.0 + a  # numpy's add.reduce starts from +0.0; / 1 is exact
        xr = _XR * xbar - _WR * b
        fxr = fun([xr])
        nfev += 1
        shrink = False
        # scipy's "fxr < fsim[-2]" branch is fxr < fa here, taken above
        if fxr < fa:
            if nfev == maxfev:
                break
            xe = _XE * xbar - _WE * b
            fxe = fun([xe])
            nfev += 1
            xn, fn = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fb:
            if nfev == maxfev:
                break
            xn = _XC * xbar - _WC * b
            fn = fun([xn])
            nfev += 1
            shrink = not fn <= fxr
        else:
            if nfev == maxfev:
                break
            xn = _XCC * xbar + _WCC * b
            fn = fun([xn])
            nfev += 1
            shrink = not fn < fb
        if shrink:
            b = a + _SIGMA * (b - a)
            if nfev == maxfev:  # the vertex moves, its value is not updated
                break
            fb = fun([b])
            nfev += 1
        else:
            b, fb = xn, fn
        nit += 1
        if fb < fa:
            a, b, fa, fb = b, a, fb, fa
    if fb < fa:
        a, b, fa, fb = b, a, fb, fa
    return NelderMeadResult([a], fa, nfev, nit)


_VALUE = operator.itemgetter(-1)  # a (x, y, f) vertex's sort key


def _nelder_mead_2d(fun: Objective, x0: float, y0: float, xatol: float,
                    fatol: float, maxiter: int, maxfev: int) -> NelderMeadResult:
    # vertices (x0, y0) best, (x1, y1), (x2, y2) worst; f0 <= f1 <= f2
    # after every sort
    x1, y1 = (1 + _NONZDELT) * x0 if x0 != 0 else _ZDELT, y0
    x2, y2 = x0, (1 + _NONZDELT) * y0 if y0 != 0 else _ZDELT
    f0 = f1 = f2 = math.inf
    nfev = min(maxfev, 3)
    if nfev > 0:
        f0 = fun([x0, y0])
    if nfev > 1:
        f1 = fun([x1, y1])
    if nfev > 2:
        f2 = fun([x2, y2])
    (x0, y0, f0), (x1, y1, f1), (x2, y2, f2) = sorted(
        ((x0, y0, f0), (x1, y1, f1), (x2, y2, f2)), key=_VALUE)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        if (abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol
                and abs(x2 - x0) <= xatol and abs(y2 - y0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        xbar = (0.0 + x0 + x1) / 2
        ybar = (0.0 + y0 + y1) / 2
        xr, yr = _XR * xbar - _WR * x2, _XR * ybar - _WR * y2
        fxr = fun([xr, yr])
        nfev += 1
        shrink = False
        if fxr < f0:
            if nfev == maxfev:
                break
            xe, ye = _XE * xbar - _WE * x2, _XE * ybar - _WE * y2
            fxe = fun([xe, ye])
            nfev += 1
            xn, yn, fn = (xe, ye, fxe) if fxe < fxr else (xr, yr, fxr)
        elif fxr < f1:
            xn, yn, fn = xr, yr, fxr
        elif fxr < f2:
            if nfev == maxfev:
                break
            xn, yn = _XC * xbar - _WC * x2, _XC * ybar - _WC * y2
            fn = fun([xn, yn])
            nfev += 1
            shrink = not fn <= fxr
        else:
            if nfev == maxfev:
                break
            xn, yn = _XCC * xbar + _WCC * x2, _XCC * ybar + _WCC * y2
            fn = fun([xn, yn])
            nfev += 1
            shrink = not fn < f2
        if shrink:
            x1, y1 = x0 + _SIGMA * (x1 - x0), y0 + _SIGMA * (y1 - y0)
            if nfev == maxfev:  # the vertex moves, its value is not updated
                break
            f1 = fun([x1, y1])
            nfev += 1
            x2, y2 = x0 + _SIGMA * (x2 - x0), y0 + _SIGMA * (y2 - y0)
            if nfev == maxfev:
                break
            f2 = fun([x2, y2])
            nfev += 1
            nit += 1
            (x0, y0, f0), (x1, y1, f1), (x2, y2, f2) = sorted(
                ((x0, y0, f0), (x1, y1, f1), (x2, y2, f2)), key=_VALUE)
            continue
        nit += 1
        # the new vertex replaces the worst; the stable sort puts it after
        # any vertex with an equal value
        if fn < f1:
            x2, y2, f2 = x1, y1, f1
            if fn < f0:
                x1, y1, f1 = x0, y0, f0
                x0, y0, f0 = xn, yn, fn
            else:
                x1, y1, f1 = xn, yn, fn
        else:
            x2, y2, f2 = xn, yn, fn
    (x0, y0, f0), (x1, y1, f1), (x2, y2, f2) = sorted(
        ((x0, y0, f0), (x1, y1, f1), (x2, y2, f2)), key=_VALUE)
    return NelderMeadResult([x0, y0], f0, nfev, nit)


class _Boxes:
    def __init__(self, stats: _TailStats):
        excess = max(stats.mean - stats.x_min, 1e-12 * max(stats.x_min, 1.0))
        self.lam_hi = 10.0 / stats.mean
        # low enough that the cutoff term is negligible across the tail
        self.lam_lo = min(1e-8 / max(stats.sum_x, 1.0), 0.1 * self.lam_hi)
        self.exp_lam = 1.0 / excess


# what makes a point infeasible: its decoding overflows, or its likelihood
# has no value there (log_upper_gamma raises InvalidParams)
_INFEASIBLE = (InvalidParams, OverflowError, ValueError)


class _TailFit:
    """How one tail family is fitted numerically, on the optimizer's vector t.

    Parameters run through a transform (logs for scale parameters) so the
    simplex explores decades evenly. decode maps t to the parameters;
    objective(stats, boxes) returns one closure on t that decodes, checks
    the parameter box and evaluates -loglik on local floats, inf outside
    the box or where the likelihood is not finite. An x_min scan calls it
    hundreds of thousands of times, so it builds no dict and dispatches on
    no family name.

    The starts are first_start (moments or a closed form) followed by
    `restarts` Halton points in start_box, both in t coordinates; encode
    turns a neighbouring candidate's parameters into a warm start.
    closed_form, on the families that have one, returns (params, loglik)
    without any search.
    """

    closed_form: Callable[[_TailStats], tuple[dict[str, float], float]] | None = None

    def first_start(self, stats: _TailStats, boxes: _Boxes) -> list[float]:
        raise NotImplementedError

    def start_box(self, boxes: _Boxes) -> list[tuple[float, float]]:
        raise NotImplementedError

    def encode(self, params: dict[str, float]) -> list[float]:
        raise NotImplementedError

    def decode(self, stats: _TailStats, boxes: _Boxes, t) -> dict[str, float]:
        raise NotImplementedError

    def objective(self, stats: _TailStats, boxes: _Boxes) -> Objective:
        raise NotImplementedError

    def starts(self, stats: _TailStats, boxes: _Boxes, restarts: int) -> list[list[float]]:
        first = self.first_start(stats, boxes)
        box = self.start_box(boxes)
        return [first] + [[lo + u * (hi - lo) for u, (lo, hi) in zip(row, box)]
                          for row in _halton(len(box), restarts).tolist()]


def _power_law_alpha(stats: _TailStats) -> float:
    denom = stats.sum_log - stats.n * stats.log_xmin
    if denom <= 0:
        raise OptimizerFailure("degenerate tail: all points at x_min")
    return 1.0 + stats.n / denom


def _power_law_loglik(stats: _TailStats, a: float) -> float:
    n = stats.n
    return n * math.log(a - 1) - n * stats.log_xmin - a * (stats.sum_log - n * stats.log_xmin)


class _PowerLawFit(_TailFit):
    def closed_form(self, stats):
        a = _power_law_alpha(stats)
        return {"alpha": a}, _power_law_loglik(stats, a)

    def first_start(self, stats, boxes):
        return [math.log(max(_power_law_alpha(stats) - 1.0, 1e-6))]

    def start_box(self, boxes):
        return [(math.log(1e-3), math.log(3.0))]

    def encode(self, params):
        return [math.log(params["alpha"] - 1.0)]

    def decode(self, stats, boxes, t):
        return {"alpha": 1.0 + math.exp(t[0])}

    def objective(self, stats, boxes):
        def objective(t):
            try:
                a = 1.0 + math.exp(t[0])
                if not ALPHA_LO < a <= ALPHA_HI:
                    return math.inf
                ll = _power_law_loglik(stats, a)
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


def _exponential_loglik(stats: _TailStats, lam: float) -> float:
    n = stats.n
    return n * math.log(lam) - lam * (stats.sum_x - n * stats.x_min)


class _ExponentialFit(_TailFit):
    def closed_form(self, stats):
        excess = stats.mean - stats.x_min
        if excess <= 0:
            raise OptimizerFailure("degenerate tail: all points at x_min")
        lam = 1.0 / excess
        return {"lambda": lam}, _exponential_loglik(stats, lam)

    def first_start(self, stats, boxes):
        return [math.log(boxes.exp_lam)]

    def start_box(self, boxes):
        return [(math.log(boxes.lam_lo), math.log(boxes.lam_hi))]

    def encode(self, params):
        return [math.log(params["lambda"])]

    def decode(self, stats, boxes, t):
        return {"lambda": math.exp(t[0])}

    def objective(self, stats, boxes):
        lam_hi = boxes.lam_hi

        def objective(t):
            try:
                lam = math.exp(t[0])
                if not 0 < lam <= lam_hi:
                    return math.inf
                ll = _exponential_loglik(stats, lam)
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


class _TruncPowerLawFit(_TailFit):
    def first_start(self, stats, boxes):
        a0 = min(max(_power_law_alpha(stats), 1.05), ALPHA_HI)
        return [math.log(a0 - 1.0), math.log(boxes.exp_lam)]

    def start_box(self, boxes):
        return [(math.log(1e-2), math.log(3.0)),
                (math.log(boxes.lam_lo), math.log(boxes.lam_hi))]

    def encode(self, params):
        return [math.log(params["alpha"] - 1.0), math.log(params["lambda"])]

    def decode(self, stats, boxes, t):
        return {"alpha": 1.0 + math.exp(t[0]), "lambda": math.exp(t[1])}

    def objective(self, stats, boxes):
        n, xm, sum_log, sum_x = stats.n, stats.x_min, stats.sum_log, stats.sum_x
        lam_lo, lam_hi = boxes.lam_lo, boxes.lam_hi

        def objective(t):
            try:
                a = 1.0 + math.exp(t[0])
                lam = math.exp(t[1])
                if not (ALPHA_LO < a <= ALPHA_HI and lam_lo <= lam <= lam_hi):
                    return math.inf
                # log C = (1-a) log l - log Gamma(1-a, l x_min)
                log_c = (1 - a) * math.log(lam) - log_upper_gamma(1 - a, lam * xm)
                ll = n * log_c - a * sum_log - lam * sum_x
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


def _stretched_profile(stats: _TailStats, boxes: _Boxes,
                       b: float) -> tuple[float, float, float]:
    """(lambda, sum of x^b, x_min^b) at fixed beta b: the profile likelihood
    has a closed-form lambda, clamped to a positive finite range."""
    s_b = float(np.exp(b * stats.log_x).sum())
    xm_b = stats.x_min ** b
    denom = s_b - stats.n * xm_b
    lam = stats.n / denom if denom > 0 else boxes.lam_hi
    lam = min(max(lam, 1e-300), 10.0 / max(stats.mean ** b, 1e-300))
    return lam, s_b, xm_b


class _StretchedExponentialFit(_TailFit):
    """One free parameter, log beta; lambda is profiled out."""

    def first_start(self, stats, boxes):
        return [0.0]  # beta = 1

    def start_box(self, boxes):
        return [(math.log(0.05), math.log(BETA_HI))]

    def encode(self, params):
        return [math.log(params["beta"])]

    def decode(self, stats, boxes, t):
        b = math.exp(t[0])
        return {"beta": b, "lambda": _stretched_profile(stats, boxes, b)[0]}

    def objective(self, stats, boxes):
        n, sum_log = stats.n, stats.sum_log

        def objective(t):
            try:
                b = math.exp(t[0])
                # lambda > 0 always holds: the profile clamps it
                if not 0 < b <= BETA_HI:
                    return math.inf
                lam, s_b, xm_b = _stretched_profile(stats, boxes, b)
                ll = (n * (math.log(b) + math.log(lam)) + (b - 1) * sum_log
                      - lam * (s_b - n * xm_b))
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


class _LognormalFit(_TailFit):
    """lognormal, and lognormal_positive, whose mu box starts just above 0."""

    def __init__(self, positive: bool):
        self.positive = positive
        self.mu_lo = 1e-12 if positive else MU_LO

    def first_start(self, stats, boxes):
        m0 = stats.sum_log / stats.n
        s0 = math.sqrt(max(stats.sum_log_sq / stats.n - m0 * m0, 1e-4))
        return [max(m0, self.mu_lo + s0) if self.positive else m0, math.log(s0)]

    def start_box(self, boxes):
        return [(self.mu_lo, MU_HI), (math.log(0.05), math.log(SIGMA_HI))]

    def encode(self, params):
        return [params["mu"], math.log(params["sigma"])]

    def decode(self, stats, boxes, t):
        return {"mu": t[0], "sigma": math.exp(t[1])}

    def objective(self, stats, boxes):
        n, sum_log, sum_log_sq = stats.n, stats.sum_log, stats.sum_log_sq
        log_xmin, mu_lo = stats.log_xmin, self.mu_lo
        neg_sum_log = -sum_log
        norm = 0.5 * n * math.log(2 * math.pi)

        def objective(t):
            try:
                mu = t[0]
                sigma = math.exp(t[1])
                if not (mu_lo <= mu <= MU_HI and SIGMA_LO < sigma <= SIGMA_HI):
                    return math.inf
                z0 = (log_xmin - mu) / sigma
                quad = sum_log_sq - 2 * mu * sum_log + n * mu * mu
                ll = (neg_sum_log - n * math.log(sigma) - norm
                      - quad / (2 * sigma * sigma) - n * float(log_ndtr(-z0)))
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


# one record per family in FAMILIES
_TAIL_FITS: dict[str, _TailFit] = {
    "power_law": _PowerLawFit(),
    "trunc_power_law": _TruncPowerLawFit(),
    "exponential": _ExponentialFit(),
    "stretched_exponential": _StretchedExponentialFit(),
    "lognormal": _LognormalFit(positive=False),
    "lognormal_positive": _LognormalFit(positive=True),
}


def _numeric_mle(stats: _TailStats, family: str, restarts: int,
                 warm: dict[str, float] | None = None) -> tuple[dict[str, float], float]:
    """Derivative-free maximization of the tail log-likelihood: one
    Nelder-Mead run from each feasible start, the warm start first."""
    fit = _TAIL_FITS[family]
    boxes = _Boxes(stats)
    starts = fit.starts(stats, boxes, restarts)
    if warm is not None:
        try:
            starts.insert(0, fit.encode(warm))
        except (ValueError, KeyError):
            pass
    objective = fit.objective(stats, boxes)
    best_t, best_ll = None, -math.inf
    for t0 in starts[: restarts + 2]:
        if not math.isfinite(objective(t0)):
            continue
        res = minimize(objective, t0)
        if not math.isfinite(res.fun):
            continue
        if -res.fun > best_ll:
            best_t, best_ll = res.x, -res.fun
    if best_t is None:
        raise OptimizerFailure(f"no start converged for {family}")
    return fit.decode(stats, boxes, best_t), best_ll


def mle_fit(data, family: str, x_min: float, *, restarts: int = DEFAULT_RESTARTS,
            min_tail: int = 10, method: str = "auto",
            warm: dict[str, float] | None = None) -> tuple[dict[str, float], float]:
    """Fit one family to the tail of data at a fixed x_min.

    Power law and exponential have closed-form estimators (used when method
    is "auto"); everything else is maximized numerically. method="numeric"
    forces the numerical path for any family. Returns (params, loglik).
    """
    if family not in FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    if not (x_min > 0):
        raise InvalidParams("x_min must be positive")
    x = np.asarray(data, dtype=float)
    if np.any(~np.isfinite(x)):
        raise InvalidParams("data must be finite")
    tail = x[x >= x_min]
    if len(tail) < min_tail:
        raise TooFewPoints(f"{len(tail)} tail points < floor {min_tail}")
    stats = _TailStats(np.sort(tail), x_min)
    closed_form = _TAIL_FITS[family].closed_form
    if method == "auto" and closed_form is not None:
        return closed_form(stats)
    if method not in ("auto", "numeric"):
        raise InvalidParams(f"unknown method {method!r}")
    return _numeric_mle(stats, family, restarts, warm=warm)


def ks_distance(tail, dist: TailDistribution) -> float:
    """Two-sided KS distance between the tail empirical CDF and a model."""
    x = np.sort(np.asarray(tail, dtype=float))
    n = len(x)
    if n == 0:
        raise TooFewPoints("empty tail")
    u = np.unique(x)
    model = np.asarray(dist.cdf(u), dtype=float)
    hi = np.searchsorted(x, u, side="right") / n
    lo = np.searchsorted(x, u, side="left") / n
    return float(max(np.abs(hi - model).max(), np.abs(lo - model).max()))


def _candidate_xmins(values: np.ndarray, max_candidates: int) -> np.ndarray:
    uniq = np.unique(values)
    if len(uniq) <= max_candidates:
        return uniq
    idx = np.unique(np.round(np.linspace(0, len(uniq) - 1, max_candidates)).astype(int))
    return uniq[idx]


def estimate_xmin(data, family: str, *, min_points: int = 50, min_tail: int = 10,
                  max_candidates: int = 200, restarts: int = DEFAULT_RESTARTS,
                  scan_restarts: int = 2) -> FitResult:
    """Joint x_min and parameter estimate minimizing the tail KS distance.

    Candidates are the unique data values (subsampled evenly to at most
    max_candidates); each candidate is fit with a cheaper multi-start budget
    plus a warm start carried along the scan, and the winning x_min gets a
    final full-budget refit. Ties in D go to the smaller x_min.
    """
    x = np.sort(np.asarray(data, dtype=float))
    if len(x) < min_points:
        raise TooFewPoints(f"{len(x)} points < floor {min_points}")
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise InvalidParams("data must be positive and finite")
    candidates = _candidate_xmins(x, max_candidates)
    best: tuple[float, float] | None = None  # (D, x_min)
    warm: dict[str, float] | None = None
    for xm in candidates:
        i0 = np.searchsorted(x, xm, side="left")
        tail = x[i0:]
        if len(tail) < min_tail:
            break  # tails only shrink from here
        try:
            params, _ = mle_fit(tail, family, float(xm), restarts=scan_restarts,
                                min_tail=min_tail, warm=warm)
            dist = make_distribution(family, params, float(xm))
            d = ks_distance(tail, dist)
        except (OptimizerFailure, InvalidParams):
            continue
        warm = params
        if best is None or d < best[0]:
            best = (d, float(xm))
    if best is None:
        raise NoValidCandidate(f"no usable x_min candidate for {family}")
    x_min = best[1]
    tail = x[np.searchsorted(x, x_min, side="left"):]
    params, loglik = mle_fit(tail, family, x_min, restarts=restarts, min_tail=min_tail)
    dist = make_distribution(family, params, x_min)
    return FitResult(family, params, x_min, ks_distance(tail, dist), loglik, len(tail))


def compare(data, fit_f: FitResult, family_g: str, *, restarts: int = DEFAULT_RESTARTS,
            significance: float = SIGNIFICANCE) -> ComparisonResult:
    """Log-likelihood ratio test of fit_f against family_g on the same tail.

    g is refit on data >= fit_f.x_min with the identical x_min. R > 0 favors
    f, R < 0 favors g; the verdict is indeterminate when p >= significance.
    """
    x = np.asarray(data, dtype=float)
    tail = np.sort(x[x >= fit_f.x_min])
    n = len(tail)
    if n < 2:
        raise TooFewPoints("tail too small to compare")
    params_g, loglik_g = mle_fit(tail, family_g, fit_f.x_min, restarts=restarts)
    dist_f = fit_f.distribution()
    dist_g = make_distribution(family_g, params_g, fit_f.x_min)
    ll_f = np.asarray(dist_f.logpdf(tail), dtype=float)
    ll_g = np.asarray(dist_g.logpdf(tail), dtype=float)
    diff = ll_f - ll_g
    r = float(diff.sum())
    sigma_sq = float(np.mean((diff - diff.mean()) ** 2))
    if sigma_sq <= 0:
        p = 1.0
    else:
        p = float(erfc(abs(r) / math.sqrt(2.0 * n * sigma_sq)))
    if p >= significance:
        favored = "indeterminate"
    else:
        favored = "f" if r > 0 else "g"
    fit_g = FitResult(family_g, params_g, fit_f.x_min,
                      ks_distance(tail, dist_g), loglik_g, n)
    return ComparisonResult(r, p, favored, fit_f.family, family_g, fit_g)


_N_PARAMS = {tag: len(spec.param_names) for tag, spec in FAMILIES.items()}


def select_candidates(data, *, families: tuple[str, ...] = FAMILY_ORDER,
                      min_points: int = 50, min_tail: int = 10,
                      max_candidates: int = 200, restarts: int = DEFAULT_RESTARTS,
                      scan_restarts: int = 2, significance: float = SIGNIFICANCE,
                      superset_selection: str | None = None) -> CandidateSet:
    """Fit every family, eliminate pairwise, and pick a surviving family.

    A family survives unless some comparison beats it decisively, whether it
    lost on its own fitted tail or as the refit competitor on another
    family's tail (the ratio seen from the loser's side is R < 0 either
    way). A unique survivor is flagged "unique". Among multiple survivors
    the tie-break prefers (a) the family selected on a declared superset
    population when given, then (b) the family with fewer parameters, then
    (c) drops lognormal survivors with non-positive location; an unresolved
    tie reports all survivors and selects none ("judged" marks any
    tie-broken selection).
    """
    fits: dict[str, FitResult | None] = {}
    eliminated_by: dict[str, list[str]] = {tag: [] for tag in families}
    comparisons: list[ComparisonResult] = []
    for tag in families:
        try:
            fits[tag] = estimate_xmin(data, tag, min_points=min_points,
                                      min_tail=min_tail, max_candidates=max_candidates,
                                      restarts=restarts, scan_restarts=scan_restarts)
        except (NoValidCandidate, OptimizerFailure, TooFewPoints):
            fits[tag] = None
            eliminated_by[tag].append("unfit")
    for tag in families:
        fit_f = fits[tag]
        if fit_f is None:
            continue
        for other in families:
            if other == tag:
                continue
            try:
                cmp_res = compare(data, fit_f, other, restarts=restarts,
                                  significance=significance)
            except (OptimizerFailure, TooFewPoints):
                continue
            comparisons.append(cmp_res)
            if cmp_res.favored == "g":
                if other not in eliminated_by[tag]:
                    eliminated_by[tag].append(other)
            elif cmp_res.favored == "f":
                # the competitor lost decisively too: from its side R < 0
                if tag not in eliminated_by[other]:
                    eliminated_by[other].append(tag)
    candidates = [tag for tag in families if fits[tag] is not None and not eliminated_by[tag]]
    selection: str | None = None
    flag: str | None = None
    if len(candidates) == 1:
        selection, flag = candidates[0], "unique"
    elif len(candidates) > 1:
        if superset_selection in candidates:
            selection, flag = superset_selection, "judged"
        else:
            fewest = min(_N_PARAMS[t] for t in candidates)
            small = [t for t in candidates if _N_PARAMS[t] == fewest]
            if len(small) == 1:
                selection, flag = small[0], "judged"
            else:
                positive = [t for t in candidates
                            if not (t == "lognormal" and fits[t].params["mu"] <= 0)]
                if len(positive) == 1:
                    selection, flag = positive[0], "judged"
    return CandidateSet(fits, eliminated_by, candidates, selection, flag, comparisons)
