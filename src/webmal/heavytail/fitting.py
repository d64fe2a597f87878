"""Tail fitting: maximum likelihood, x_min selection, and model comparison.

x_min is chosen by minimizing the Kolmogorov-Smirnov distance between the
tail empirical CDF and the fitted model over candidate x_min values, ties
going to the smaller candidate. Families are compared on identical tails via
the normalized log-likelihood ratio with the variance estimated from the
per-point differences, and a family is eliminated only when a competitor
beats it decisively (R < 0 with p below SIGNIFICANCE). A comparison keeps
only R, p and its verdict; the competitor's refit is not reported.

Everything about one family, its numeric fit included, is its class in
`families.FAMILIES`; this module holds only what every family shares: the
optimizer, the start points, the x_min scan and the comparisons.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from ..errors import (InvalidParams, NoValidCandidate, OptimizerFailure,
                      TooFewPoints)
from .families import (FAMILIES, FAMILY_ORDER, Objective, TailDistribution,
                       _TailStats, make_distribution)

DEFAULT_RESTARTS = 8
MIN_TAIL = 10        # fewest tail points a fit accepts
MIN_POINTS = 50      # fewest data points an x_min scan accepts
SIGNIFICANCE = 0.01


@dataclass
class FitResult:
    family: str
    params: dict[str, float]
    x_min: float
    D: float
    loglik: float
    n_tail: int


@dataclass
class ComparisonResult:
    r: float
    p: float
    favored: str           # "f" | "g" | "indeterminate"


@dataclass
class CandidateSet:
    fits: dict[str, FitResult | None]
    eliminated_by: dict[str, list[str]]
    candidates: list[str]
    selection: str | None
    selection_flag: str | None       # "unique" | "judged" | None

    def selected_fit(self) -> FitResult | None:
        return self.fits[self.selection] if self.selection else None


_HALTON_BASES = (2, 3)   # one per parameter; no family has more than two


@functools.lru_cache(maxsize=None)
def _halton(dim: int, count: int) -> np.ndarray:
    """The first count points of the unscrambled Halton sequence: coordinate
    j of row i is the radical inverse of i in base 2 (j = 0) or 3 (j = 1).
    These are the bits of scipy's `qmc.Halton(d=dim, scramble=False)
    .random(count)`, computed here so that no process loads `scipy.stats`
    for them. Shared between calls, so the array is read-only."""
    if not 1 <= dim <= len(_HALTON_BASES):
        raise InvalidParams(f"Halton points need 1 or 2 dimensions, got {dim}")
    table = np.empty((count, dim))
    for j, base in enumerate(_HALTON_BASES[:dim]):
        for i in range(count):
            x, f, k = 0.0, 1.0 / base, i
            while k:
                k, r = divmod(k, base)
                x += r * f
                f /= base
            table[i, j] = x
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


def starts(family: type[TailDistribution], stats: _TailStats,
           restarts: int) -> list[list[float]]:
    """The family's first start, then `restarts` Halton points in its start
    box, all in the optimizer's coordinates."""
    box = family.start_box(stats)
    return [family.first_start(stats)] + [
        [lo + u * (hi - lo) for u, (lo, hi) in zip(row, box)]
        for row in _halton(len(box), restarts).tolist()]


def _numeric_mle(stats: _TailStats, family: str, restarts: int,
                 warm: dict[str, float] | None = None) -> tuple[dict[str, float], float]:
    """Derivative-free maximization of the tail log-likelihood: one
    Nelder-Mead run from each feasible start, the warm start first."""
    fam = FAMILIES[family]
    points = starts(fam, stats, restarts)
    if warm is not None:
        try:
            points.insert(0, fam.encode(warm))
        except (ValueError, KeyError):
            pass
    objective = fam.objective(stats)
    best_t, best_ll = None, -math.inf
    for t0 in points:
        if not math.isfinite(objective(t0)):
            continue
        res = minimize(objective, t0)
        if not math.isfinite(res.fun):
            continue
        if -res.fun > best_ll:
            best_t, best_ll = res.x, -res.fun
    if best_t is None:
        raise OptimizerFailure(f"no start converged for {family}")
    return fam.decode(stats, best_t), best_ll


def mle_fit(data, family: str, x_min: float, *, restarts: int = DEFAULT_RESTARTS,
            method: str = "auto", warm: dict[str, float] | None = None
            ) -> tuple[dict[str, float], float]:
    """Fit one family to the tail of data at a fixed x_min.

    Power law and exponential have closed-form estimators (used when method
    is "auto"); everything else is maximized numerically. method="numeric"
    forces the numerical path for any family. Returns (params, loglik).
    A tail whose points all equal x_min raises OptimizerFailure.
    """
    if family not in FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    if not (x_min > 0):
        raise InvalidParams("x_min must be positive")
    x = np.asarray(data, dtype=float)
    if np.any(~np.isfinite(x)):
        raise InvalidParams("data must be finite")
    tail = x[x >= x_min]
    if len(tail) < MIN_TAIL:
        raise TooFewPoints(f"{len(tail)} tail points < floor {MIN_TAIL}")
    stats = _TailStats(np.sort(tail), x_min)
    # no spread in log x: every point at x_min, up to rounding
    if stats.sum_log - stats.n * stats.log_xmin <= 0:
        raise OptimizerFailure("degenerate tail: all points at x_min")
    closed_form = FAMILIES[family].closed_form
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


def estimate_xmin(data, family: str, *, max_candidates: int = 200,
                  restarts: int = DEFAULT_RESTARTS) -> FitResult:
    """Joint x_min and parameter estimate minimizing the tail KS distance.

    Candidates are the unique data values (subsampled evenly to at most
    max_candidates). The scan is warm-started: each candidate is fit only
    from the previous candidate's parameters and the family's first start.
    The winning x_min then gets a full-budget refit. Ties in D go to the
    smaller x_min.
    """
    x = np.sort(np.asarray(data, dtype=float))
    if len(x) < MIN_POINTS:
        raise TooFewPoints(f"{len(x)} points < floor {MIN_POINTS}")
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise InvalidParams("data must be positive and finite")
    candidates = _candidate_xmins(x, max_candidates)
    best: tuple[float, float] | None = None  # (D, x_min)
    warm: dict[str, float] | None = None
    for xm in candidates:
        i0 = np.searchsorted(x, xm, side="left")
        tail = x[i0:]
        if len(tail) < MIN_TAIL:
            break  # tails only shrink from here
        try:
            params, _ = mle_fit(tail, family, float(xm), restarts=0, warm=warm)
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
    params, loglik = mle_fit(tail, family, x_min, restarts=restarts)
    dist = make_distribution(family, params, x_min)
    return FitResult(family, params, x_min, ks_distance(tail, dist), loglik, len(tail))


def compare(data, fit_f: FitResult, family_g: str, *,
            restarts: int = DEFAULT_RESTARTS,
            memo: dict[tuple[str, float], dict[str, float]] | None = None
            ) -> ComparisonResult:
    """Log-likelihood ratio test of fit_f against family_g on the same tail.

    g is refit on data >= fit_f.x_min with the identical x_min. R > 0 favors
    f, R < 0 favors g; the verdict is indeterminate when p >= SIGNIFICANCE.
    memo maps (family, x_min) to the params of a full-budget fit on this
    data's tail at x_min; the refit is taken from it when there, and added
    to it when made.
    """
    x = np.asarray(data, dtype=float)
    tail = np.sort(x[x >= fit_f.x_min])
    n = len(tail)
    if n < 2:
        raise TooFewPoints("tail too small to compare")
    key = (family_g, fit_f.x_min)
    params_g = memo.get(key) if memo is not None else None
    if params_g is None:
        params_g, _ = mle_fit(tail, family_g, fit_f.x_min, restarts=restarts)
        if memo is not None:
            memo[key] = params_g
    dist_f = make_distribution(fit_f.family, fit_f.params, fit_f.x_min)
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
    if p >= SIGNIFICANCE:
        favored = "indeterminate"
    else:
        favored = "f" if r > 0 else "g"
    return ComparisonResult(r, p, favored)


def select_candidates(data, *, families: tuple[str, ...] = FAMILY_ORDER,
                      max_candidates: int = 200,
                      restarts: int = DEFAULT_RESTARTS) -> CandidateSet:
    """Fit every family, eliminate pairwise, and pick a surviving family.

    A family survives unless some comparison beats it decisively, whether it
    lost on its own fitted tail or as the refit competitor on another
    family's tail (the ratio seen from the loser's side is R < 0 either
    way). A unique survivor is flagged "unique". Among multiple survivors
    the tie-break prefers (a) the family with fewer parameters, then (b)
    drops lognormal survivors with non-positive location; an unresolved
    tie reports all survivors and selects none ("judged" marks any
    tie-broken selection).
    """
    fits: dict[str, FitResult | None] = {}
    eliminated_by: dict[str, list[str]] = {tag: [] for tag in families}
    # one full-budget refit per (family, x_min): a family's own final fit is
    # the refit compare would make of it at its x_min
    refits: dict[tuple[str, float], dict[str, float]] = {}
    for tag in families:
        try:
            fit = estimate_xmin(data, tag, max_candidates=max_candidates,
                                restarts=restarts)
        except (NoValidCandidate, OptimizerFailure, TooFewPoints):
            fits[tag] = None
            eliminated_by[tag].append("unfit")
            continue
        fits[tag] = fit
        refits[(tag, fit.x_min)] = fit.params
    for tag in families:
        fit_f = fits[tag]
        if fit_f is None:
            continue
        for other in families:
            if other == tag:
                continue
            try:
                cmp_res = compare(data, fit_f, other, restarts=restarts, memo=refits)
            except (OptimizerFailure, TooFewPoints):
                continue
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
        n_params = {t: len(FAMILIES[t].param_names) for t in candidates}
        fewest = min(n_params.values())
        small = [t for t in candidates if n_params[t] == fewest]
        if len(small) == 1:
            selection, flag = small[0], "judged"
        else:
            positive = [t for t in candidates
                        if not (t == "lognormal" and fits[t].params["mu"] <= 0)]
            if len(positive) == 1:
                selection, flag = positive[0], "judged"
    return CandidateSet(fits, eliminated_by, candidates, selection, flag)
