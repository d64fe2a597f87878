"""Tail fitting: maximum likelihood, x_min selection, and model comparison.

x_min is chosen by minimizing the Kolmogorov-Smirnov distance between the
tail empirical CDF and the fitted model over candidate x_min values, ties
going to the smaller candidate. Families are compared on identical tails via
the normalized log-likelihood ratio with the variance estimated from the
per-point differences, and a family is eliminated only when a competitor
beats it decisively (R < 0 with p below the significance level).

The numeric fits use Nelder-Mead implemented in this module (`minimize`),
which reproduces scipy's non-adaptive Nelder-Mead iterate for iterate and
bit for bit. An x_min scan makes hundreds of thousands of objective calls
on 1- and 2-parameter simplices, where scipy's per-iteration numpy work
costs as much as the objective; on plain floats that overhead is gone and
the fits, and every report built from them, stay the same.
"""

from __future__ import annotations

import functools
import math
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
        self.x = tail
        self.x_min = float(x_min)
        self.n = len(tail)
        self.log_x = np.log(tail)
        self.sum_log = float(self.log_x.sum())
        self.sum_x = float(tail.sum())
        self.sum_log_sq = float((self.log_x ** 2).sum())
        self.mean = self.sum_x / self.n
        self.log_xmin = math.log(x_min)

    def loglik(self, family: str, params: dict[str, float]) -> float:
        n, xm = self.n, self.x_min
        if family == "power_law":
            a = params["alpha"]
            return n * math.log(a - 1) - n * self.log_xmin - a * (self.sum_log - n * self.log_xmin)
        if family == "trunc_power_law":
            a, lam = params["alpha"], params["lambda"]
            log_c = (1 - a) * math.log(lam) - log_upper_gamma(1 - a, lam * xm)
            return n * log_c - a * self.sum_log - lam * self.sum_x
        if family == "exponential":
            lam = params["lambda"]
            return n * math.log(lam) - lam * (self.sum_x - n * xm)
        if family == "stretched_exponential":
            b, lam = params["beta"], params["lambda"]
            s_b = float(np.exp(b * self.log_x).sum())
            return (n * (math.log(b) + math.log(lam)) + (b - 1) * self.sum_log
                    - lam * (s_b - n * xm ** b))
        if family in ("lognormal", "lognormal_positive"):
            mu, sigma = params["mu"], params["sigma"]
            z0 = (self.log_xmin - mu) / sigma
            quad = self.sum_log_sq - 2 * mu * self.sum_log + n * mu * mu
            return (-self.sum_log - n * math.log(sigma) - 0.5 * n * math.log(2 * math.pi)
                    - quad / (2 * sigma * sigma) - n * float(log_ndtr(-z0)))
        raise InvalidParams(f"unknown family {family!r}")


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


class NelderMeadResult(NamedTuple):
    x: list[float]
    fun: float
    nfev: int
    nit: int


class _MaxFev(Exception):
    pass


def minimize(fun: Callable[[list[float]], float], x0, *, xatol: float = 1e-8,
             fatol: float = 1e-6, maxiter: int = 2000,
             maxfev: int = 4000) -> NelderMeadResult:
    """Nelder-Mead (1965) on plain float lists, iterate for iterate scipy's.

    A port of scipy.optimize.minimize(method="Nelder-Mead") without bounds
    or adaptive coefficients: the same initial simplex, the same arithmetic
    in the same order, the same stable sort of the vertices, the same
    xatol/fatol test and the same maxiter/maxfev cut-off, where the call
    that would exceed maxfev is not made. x and fun therefore match scipy's
    bit for bit, and so do nfev and nit. The defaults are the tail fits'
    options.

    fun receives a vertex as a list, which it must not modify, and returns
    a float that is never NaN (inf marks an infeasible point).
    """
    n = len(x0)
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(x)

    def sort() -> None:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    sort()
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, fbest = sim[0], fsim[0]
            if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(fbest - fv) <= fatol for fv in fsim[1:])):
                break
            xbar = []
            for k in range(n):
                acc = 0.0  # numpy's add.reduce starts from +0.0 too
                for x in sim[:-1]:
                    acc = acc + x[k]
                xbar.append(acc / n)
            worst = sim[-1]
            xr = [(1 + _RHO) * b - _RHO * w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = [(1 + _RHO * _CHI) * b - _RHO * _CHI * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = [(1 + _PSI * _RHO) * b - _PSI * _RHO * w for b, w in zip(xbar, worst)]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = [(1 - _PSI) * b + _PSI * w for b, w in zip(xbar, worst)]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = [b + _SIGMA * (v - b) for b, v in zip(sim[0], sim[j])]
                    fsim[j] = f(sim[j])
            nit += 1
        except _MaxFev:
            pass
        sort()
    return NelderMeadResult(sim[0], fsim[0], nfev, nit)


class _Boxes:
    def __init__(self, stats: _TailStats):
        excess = max(stats.mean - stats.x_min, 1e-12 * max(stats.x_min, 1.0))
        self.lam_hi = 10.0 / stats.mean
        # low enough that the cutoff term is negligible across the tail
        self.lam_lo = min(1e-8 / max(stats.sum_x, 1.0), 0.1 * self.lam_hi)
        self.exp_lam = 1.0 / excess


def _numeric_mle(stats: _TailStats, family: str, restarts: int,
                 warm: dict[str, float] | None = None) -> tuple[dict[str, float], float]:
    """Derivative-free maximization of the tail log-likelihood.

    Parameters run through a transform (logs for scale parameters) so the
    simplex explores decades evenly; restarts come from a fixed Halton
    sequence plus moment-based and warm starts.
    """
    boxes = _Boxes(stats)

    if family == "power_law":
        def decode(t):
            return {"alpha": 1.0 + math.exp(t[0])}
        closed = _closed_form_power_law(stats)
        starts = [[math.log(max(closed["alpha"] - 1.0, 1e-6))]]
        unit = _halton(1, restarts)
        for row in unit:
            starts.append([math.log(1e-3) + row[0] * (math.log(3.0) - math.log(1e-3))])
        bounds_ok = lambda p: ALPHA_LO < p["alpha"] <= ALPHA_HI
    elif family == "exponential":
        def decode(t):
            return {"lambda": math.exp(t[0])}
        starts = [[math.log(boxes.exp_lam)]]
        unit = _halton(1, restarts)
        lo, hi = math.log(boxes.lam_lo), math.log(boxes.lam_hi)
        for row in unit:
            starts.append([lo + row[0] * (hi - lo)])
        bounds_ok = lambda p: 0 < p["lambda"] <= boxes.lam_hi
    elif family == "trunc_power_law":
        def decode(t):
            return {"alpha": 1.0 + math.exp(t[0]), "lambda": math.exp(t[1])}
        closed = _closed_form_power_law(stats)
        a0 = min(max(closed["alpha"], 1.05), ALPHA_HI)
        starts = [[math.log(a0 - 1.0), math.log(boxes.exp_lam)]]
        unit = _halton(2, restarts)
        lo, hi = math.log(boxes.lam_lo), math.log(boxes.lam_hi)
        for row in unit:
            starts.append([math.log(1e-2) + row[0] * (math.log(3.0) - math.log(1e-2)),
                           lo + row[1] * (hi - lo)])
        bounds_ok = lambda p: (ALPHA_LO < p["alpha"] <= ALPHA_HI
                               and boxes.lam_lo <= p["lambda"] <= boxes.lam_hi)
    elif family == "stretched_exponential":
        # profile likelihood: lambda has a closed form at fixed beta
        def decode(t):
            b = math.exp(t[0])
            s_b = float(np.exp(b * stats.log_x).sum())
            denom = s_b - stats.n * stats.x_min ** b
            lam = stats.n / denom if denom > 0 else boxes.lam_hi
            lam = min(max(lam, 1e-300), 10.0 / max(stats.mean ** b, 1e-300))
            return {"beta": b, "lambda": lam}
        starts = [[0.0]]  # beta = 1
        unit = _halton(1, restarts)
        for row in unit:
            starts.append([math.log(0.05) + row[0] * (math.log(BETA_HI) - math.log(0.05))])
        bounds_ok = lambda p: 0 < p["beta"] <= BETA_HI and p["lambda"] > 0
    elif family in ("lognormal", "lognormal_positive"):
        mu_lo = 1e-12 if family == "lognormal_positive" else MU_LO

        def decode(t):
            return {"mu": t[0], "sigma": math.exp(t[1])}
        m0 = stats.sum_log / stats.n
        s0 = math.sqrt(max(stats.sum_log_sq / stats.n - m0 * m0, 1e-4))
        starts = [[max(m0, mu_lo + s0) if family == "lognormal_positive" else m0,
                   math.log(s0)]]
        unit = _halton(2, restarts)
        for row in unit:
            mu_start = mu_lo + row[0] * (MU_HI - mu_lo)
            starts.append([mu_start, math.log(0.05) + row[1] * (math.log(SIGMA_HI) - math.log(0.05))])
        bounds_ok = lambda p: (mu_lo <= p["mu"] <= MU_HI and SIGMA_LO < p["sigma"] <= SIGMA_HI)
    else:
        raise InvalidParams(f"unknown family {family!r}")

    if warm is not None:
        try:
            starts.insert(0, _encode_warm(family, warm))
        except (ValueError, KeyError):
            pass

    def objective(t):
        try:
            p = decode(t)
        except (OverflowError, ValueError):
            return np.inf
        if not bounds_ok(p):
            return np.inf
        try:
            ll = stats.loglik(family, p)
        except (InvalidParams, OverflowError, ValueError):
            return np.inf
        return -ll if math.isfinite(ll) else np.inf

    best_params, best_ll = None, -np.inf
    for t0 in starts[: restarts + 2]:
        if not math.isfinite(objective(t0)):
            continue
        res = minimize(objective, t0)
        if not math.isfinite(res.fun):
            continue
        if -res.fun > best_ll:
            best_ll = -res.fun
            best_params = decode(res.x)
    if best_params is None:
        raise OptimizerFailure(f"no start converged for {family}")
    return best_params, best_ll


def _encode_warm(family: str, params: dict[str, float]) -> list[float]:
    if family == "power_law":
        return [math.log(params["alpha"] - 1.0)]
    if family == "exponential":
        return [math.log(params["lambda"])]
    if family == "trunc_power_law":
        return [math.log(params["alpha"] - 1.0), math.log(params["lambda"])]
    if family == "stretched_exponential":
        return [math.log(params["beta"])]
    return [params["mu"], math.log(params["sigma"])]


def _closed_form_power_law(stats: _TailStats) -> dict[str, float]:
    denom = stats.sum_log - stats.n * stats.log_xmin
    if denom <= 0:
        raise OptimizerFailure("degenerate tail: all points at x_min")
    return {"alpha": 1.0 + stats.n / denom}


def _closed_form_exponential(stats: _TailStats) -> dict[str, float]:
    excess = stats.mean - stats.x_min
    if excess <= 0:
        raise OptimizerFailure("degenerate tail: all points at x_min")
    return {"lambda": 1.0 / excess}


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
    if method == "auto" and family == "power_law":
        params = _closed_form_power_law(stats)
        return params, stats.loglik(family, params)
    if method == "auto" and family == "exponential":
        params = _closed_form_exponential(stats)
        return params, stats.loglik(family, params)
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
