"""Tail distribution families on [x_min, inf).

Six families, each normalized on the tail: power law x^-a, power law with
exponential cutoff x^-a e^(-lx), exponential, stretched exponential
x^(b-1) e^(-lx^b), lognormal, and lognormal restricted to positive location.

Each family is one class holding everything about it: parameter names and
validation, logpdf, cdf, ppf, a sampler and its numeric fit (see
TailDistribution). `FAMILIES` is the one registry of the families.

The cutoff family needs the upper incomplete gamma Gamma(1-a, l*x_min) with a
possibly negative first argument, outside scipy's gammaincc domain, so it is
evaluated here by one scalar routine on Python floats: a continued fraction
for large second argument and an upward recurrence onto gammaincc/exp1
otherwise (relative accuracy ~1e-12, checked against arbitrary-precision
references in the tests). An array is evaluated element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
from scipy.special import exp1, gammaincc, log_ndtr, ndtr, ndtri

from ..errors import InvalidParams, OptimizerFailure

_LOG_2PI = math.log(2.0 * math.pi)
_CF_SWITCH = 4.0  # continued fraction above, recurrence below

# optimizer box constraints; lambda's box is data-dependent (see _TailStats)
ALPHA_LO, ALPHA_HI = 1.0, 4.0
BETA_HI = 3.0
MU_LO, MU_HI = -30.0, 30.0
SIGMA_LO, SIGMA_HI = 0.0, 10.0

# what makes a point infeasible: its decoding overflows, or its likelihood
# has no value there (log_upper_gamma raises InvalidParams)
_INFEASIBLE = (InvalidParams, OverflowError, ValueError)

Objective = Callable[[list[float]], float]


class _TailStats:
    """Sufficient statistics of one tail, which keep objective evaluations
    O(1) for every family except the stretched exponential, and what the
    fits derive from them alone: the lambda box [lam_lo, lam_hi] and the
    exponential's closed-form rate exp_lam, a start point."""

    def __init__(self, tail: np.ndarray, x_min: float):
        self.x_min = float(x_min)
        self.n = len(tail)
        self.log_x = np.log(tail)
        self.sum_log = float(self.log_x.sum())
        self.sum_x = float(tail.sum())
        self.sum_log_sq = float((self.log_x ** 2).sum())
        self.mean = self.sum_x / self.n
        self.log_xmin = math.log(x_min)
        excess = max(self.mean - self.x_min, 1e-12 * max(self.x_min, 1.0))
        self.lam_hi = 10.0 / self.mean
        # low enough that the cutoff term is negligible across the tail
        self.lam_lo = min(1e-8 / max(self.sum_x, 1.0), 0.1 * self.lam_hi)
        self.exp_lam = 1.0 / excess


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) for one float x > 0.

    At or above _CF_SWITCH: the modified Lentz continued fraction. Below
    it: lift s above 0, then recurse back down with
    Gamma(t-1, x) = (Gamma(t, x) - x^(t-1) e^(-x)) / (t-1), where the power
    term dominates for small x so nothing cancels.
    """
    if x <= 0:
        raise InvalidParams("upper_gamma needs x > 0")
    if x >= _CF_SWITCH:
        tiny = 1e-300
        b = x + 1.0 - s
        c = 1e300
        d = 1.0 / (tiny if abs(b) < tiny else b)
        h = d
        for i in range(1, 300):
            an = -i * (i - s)
            b = b + 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-15:
                break
        return math.exp(-x + s * math.log(x)) * h
    if s > 1e-12:
        return math.gamma(s) * float(gammaincc(s, x))
    m = int(math.floor(-s)) + 1
    t = s + m
    if t < 1e-12:  # s is a non-positive integer: top out at Gamma(0,x) = E1(x)
        g = float(exp1(x))
        t = 0.0
    else:
        g = math.gamma(t) * float(gammaincc(t, x))
    ex = math.exp(-x)
    while t > s + 1e-12:
        t -= 1.0
        if abs(t) < 1e-12:
            g = float(exp1(x))
            t = 0.0
            continue
        g = (g - x ** t * ex) / t
    return g


def upper_gamma(s: float, x) -> np.ndarray | float:
    """Upper incomplete gamma Gamma(s, x) for real s and x > 0.

    Each value is computed on its own, so Gamma(s, x) has the same bits
    alone as inside any array.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return _upper_gamma(s, float(arr))
    out = [_upper_gamma(s, v) for v in arr.ravel().tolist()]
    return np.array(out, dtype=float).reshape(arr.shape)


def log_upper_gamma(s: float, x: float) -> float:
    g = _upper_gamma(s, float(x))
    if g <= 0 or not math.isfinite(g):
        raise InvalidParams(f"Gamma({s}, {x}) not representable")
    return math.log(g)


@dataclass
class TailDistribution:
    """One tail family: logpdf, cdf and sample on the tail [x_min, inf), and
    its numeric fit. Every family but the truncated power law also has a
    closed-form ppf, and sample draws through it.

    The fit is a set of class-level functions of one tail's _TailStats, on
    the optimizer's vector t, where parameters run through a transform (logs
    for scale parameters) so the simplex explores decades evenly. decode
    maps t to the parameters; objective(stats) returns one closure on t that
    decodes, checks the parameter box and evaluates -loglik on local floats,
    inf outside the box or where the likelihood is not finite. An x_min scan
    calls it hundreds of thousands of times, so it builds no dict and
    dispatches on no family name. The starts are first_start (moments or a
    closed form) and Halton points in start_box; encode turns a neighbouring
    candidate's parameters into a warm start. closed_form, where the family
    has one, returns (params, loglik) without any search.
    """

    params: dict[str, float]
    x_min: float

    # set by each family's class
    family: ClassVar[str]
    param_names: ClassVar[tuple[str, ...]]
    closed_form: ClassVar[Callable[[_TailStats], tuple[dict[str, float], float]] | None] = None

    def __post_init__(self):
        if not (self.x_min > 0):
            raise InvalidParams("x_min must be positive")
        self._validate()

    def _validate(self) -> None:
        raise NotImplementedError

    def logpdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws, the inverse CDF of n uniforms."""
        return np.asarray(self.ppf(rng.random(n)), dtype=float)

    @staticmethod
    def first_start(stats: _TailStats) -> list[float]:
        raise NotImplementedError

    @staticmethod
    def start_box(stats: _TailStats) -> list[tuple[float, float]]:
        raise NotImplementedError

    @staticmethod
    def encode(params: dict[str, float]) -> list[float]:
        raise NotImplementedError

    @staticmethod
    def decode(stats: _TailStats, t) -> dict[str, float]:
        raise NotImplementedError

    @staticmethod
    def objective(stats: _TailStats) -> Objective:
        raise NotImplementedError


def _power_law_alpha(stats: _TailStats) -> float:
    return 1.0 + stats.n / (stats.sum_log - stats.n * stats.log_xmin)


def _power_law_loglik(stats: _TailStats, a: float) -> float:
    n = stats.n
    return n * math.log(a - 1) - n * stats.log_xmin - a * (stats.sum_log - n * stats.log_xmin)


class PowerLaw(TailDistribution):
    family = "power_law"
    param_names = ("alpha",)

    def _validate(self):
        if not (self.params.get("alpha", 0) > 1):
            raise InvalidParams("power_law needs alpha > 1")

    def logpdf(self, x):
        a = self.params["alpha"]
        x = np.asarray(x, dtype=float)
        return math.log(a - 1) - math.log(self.x_min) - a * np.log(x / self.x_min)

    def cdf(self, x):
        a = self.params["alpha"]
        x = np.asarray(x, dtype=float)
        return 1.0 - (x / self.x_min) ** (1.0 - a)

    def ppf(self, q):
        a = self.params["alpha"]
        q = np.asarray(q, dtype=float)
        return self.x_min * (1.0 - q) ** (-1.0 / (a - 1.0))

    @staticmethod
    def closed_form(stats):
        a = _power_law_alpha(stats)
        return {"alpha": a}, _power_law_loglik(stats, a)

    @staticmethod
    def first_start(stats):
        return [math.log(max(_power_law_alpha(stats) - 1.0, 1e-6))]

    @staticmethod
    def start_box(stats):
        return [(math.log(1e-3), math.log(3.0))]

    @staticmethod
    def encode(params):
        return [math.log(params["alpha"] - 1.0)]

    @staticmethod
    def decode(stats, t):
        return {"alpha": 1.0 + math.exp(t[0])}

    @staticmethod
    def objective(stats):
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


class TruncPowerLaw(TailDistribution):
    """Power law with exponential cutoff: C x^-a e^(-lx)."""

    family = "trunc_power_law"
    param_names = ("alpha", "lambda")

    def __post_init__(self):
        super().__post_init__()
        s = 1.0 - self.params["alpha"]
        lam = self.params["lambda"]
        self._log_norm_gamma = log_upper_gamma(s, lam * self.x_min)
        # log C = (1-a) log l - log Gamma(1-a, l x_min)
        self._log_C = s * math.log(lam) - self._log_norm_gamma

    def _validate(self):
        if not (self.params.get("alpha", 0) > 0):
            raise InvalidParams("trunc_power_law needs alpha > 0")
        if not (self.params.get("lambda", 0) > 0):
            raise InvalidParams("trunc_power_law needs lambda > 0")

    def logpdf(self, x):
        a = self.params["alpha"]
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        return self._log_C - a * np.log(x) - lam * x

    def cdf(self, x):
        a = self.params["alpha"]
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        g = upper_gamma(1.0 - a, lam * x)
        return 1.0 - g / math.exp(self._log_norm_gamma)

    def sample(self, n, rng):
        """n draws by rejection from a pure power-law envelope (acceptance
        exp(-lambda (x - x_min))), or from an exponential envelope when the
        exponent is at or below 1 and the power-law proposal does not exist."""
        alpha = self.params["alpha"]
        lam = self.params["lambda"]
        x_min = self.x_min
        out = np.empty(0)
        # batch rejection; envelope acceptance is evaluated vectorized
        while len(out) < n:
            want = max(n - len(out), 1)
            batch = int(want * 1.5) + 16
            u = rng.random(batch)
            if alpha > 1.0:
                y = x_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))
                accept = rng.random(batch) < np.exp(-lam * (y - x_min))
            else:
                # exponential proposal; accept with (y/x_min)^-alpha <= 1
                y = x_min - np.log1p(-u) / lam
                accept = rng.random(batch) < (y / x_min) ** (-alpha)
            out = np.concatenate([out, y[accept]])
        return out[:n]

    @staticmethod
    def first_start(stats):
        a0 = min(max(_power_law_alpha(stats), 1.05), ALPHA_HI)
        return [math.log(a0 - 1.0), math.log(stats.exp_lam)]

    @staticmethod
    def start_box(stats):
        return [(math.log(1e-2), math.log(3.0)),
                (math.log(stats.lam_lo), math.log(stats.lam_hi))]

    @staticmethod
    def encode(params):
        return [math.log(params["alpha"] - 1.0), math.log(params["lambda"])]

    @staticmethod
    def decode(stats, t):
        return {"alpha": 1.0 + math.exp(t[0]), "lambda": math.exp(t[1])}

    @staticmethod
    def objective(stats):
        n, xm, sum_log, sum_x = stats.n, stats.x_min, stats.sum_log, stats.sum_x
        lam_lo, lam_hi = stats.lam_lo, stats.lam_hi

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


def _exponential_loglik(stats: _TailStats, lam: float) -> float:
    n = stats.n
    return n * math.log(lam) - lam * (stats.sum_x - n * stats.x_min)


class Exponential(TailDistribution):
    family = "exponential"
    param_names = ("lambda",)

    def _validate(self):
        if not (self.params.get("lambda", 0) > 0):
            raise InvalidParams("exponential needs lambda > 0")

    def logpdf(self, x):
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        return math.log(lam) - lam * (x - self.x_min)

    def cdf(self, x):
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        return -np.expm1(-lam * (x - self.x_min))

    def ppf(self, q):
        lam = self.params["lambda"]
        q = np.asarray(q, dtype=float)
        return self.x_min - np.log1p(-q) / lam

    @staticmethod
    def closed_form(stats):
        excess = stats.mean - stats.x_min
        if excess <= 0:
            raise OptimizerFailure("degenerate tail: all points at x_min")
        lam = 1.0 / excess
        return {"lambda": lam}, _exponential_loglik(stats, lam)

    @staticmethod
    def first_start(stats):
        return [math.log(stats.exp_lam)]

    @staticmethod
    def start_box(stats):
        return [(math.log(stats.lam_lo), math.log(stats.lam_hi))]

    @staticmethod
    def encode(params):
        return [math.log(params["lambda"])]

    @staticmethod
    def decode(stats, t):
        return {"lambda": math.exp(t[0])}

    @staticmethod
    def objective(stats):
        lam_hi = stats.lam_hi

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


def _stretched_profile(stats: _TailStats, b: float) -> tuple[float, float, float]:
    """(lambda, sum of x^b, x_min^b) at fixed beta b: the profile likelihood
    has a closed-form lambda, clamped to a positive finite range."""
    s_b = float(np.exp(b * stats.log_x).sum())
    xm_b = stats.x_min ** b
    denom = s_b - stats.n * xm_b
    lam = stats.n / denom if denom > 0 else stats.lam_hi
    lam = min(max(lam, 1e-300), 10.0 / max(stats.mean ** b, 1e-300))
    return lam, s_b, xm_b


class StretchedExponential(TailDistribution):
    """The fit has one free parameter, log beta; lambda is profiled out."""

    family = "stretched_exponential"
    param_names = ("beta", "lambda")

    def _validate(self):
        if not (self.params.get("beta", 0) > 0):
            raise InvalidParams("stretched_exponential needs beta > 0")
        if not (self.params.get("lambda", 0) > 0):
            raise InvalidParams("stretched_exponential needs lambda > 0")

    def logpdf(self, x):
        b = self.params["beta"]
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        return (math.log(b) + math.log(lam) + (b - 1.0) * np.log(x)
                - lam * (x ** b - self.x_min ** b))

    def cdf(self, x):
        b = self.params["beta"]
        lam = self.params["lambda"]
        x = np.asarray(x, dtype=float)
        return -np.expm1(-lam * (x ** b - self.x_min ** b))

    def ppf(self, q):
        b = self.params["beta"]
        lam = self.params["lambda"]
        q = np.asarray(q, dtype=float)
        return (self.x_min ** b - np.log1p(-q) / lam) ** (1.0 / b)

    @staticmethod
    def first_start(stats):
        return [0.0]  # beta = 1

    @staticmethod
    def start_box(stats):
        return [(math.log(0.05), math.log(BETA_HI))]

    @staticmethod
    def encode(params):
        return [math.log(params["beta"])]

    @staticmethod
    def decode(stats, t):
        b = math.exp(t[0])
        return {"beta": b, "lambda": _stretched_profile(stats, b)[0]}

    @staticmethod
    def objective(stats):
        n, sum_log = stats.n, stats.sum_log

        def objective(t):
            try:
                b = math.exp(t[0])
                # lambda > 0 always holds: the profile clamps it
                if not 0 < b <= BETA_HI:
                    return math.inf
                lam, s_b, xm_b = _stretched_profile(stats, b)
                ll = (n * (math.log(b) + math.log(lam)) + (b - 1) * sum_log
                      - lam * (s_b - n * xm_b))
            except _INFEASIBLE:
                return math.inf
            return -ll if math.isfinite(ll) else math.inf
        return objective


class Lognormal(TailDistribution):
    family = "lognormal"
    param_names = ("mu", "sigma")
    # the fit's lower bound on mu, and whether the first start is lifted to it
    positive = False
    mu_lo = MU_LO

    def __post_init__(self):
        super().__post_init__()
        mu, sigma = self.params["mu"], self.params["sigma"]
        self._z0 = (math.log(self.x_min) - mu) / sigma
        self._log_sf0 = float(log_ndtr(-self._z0))

    def _validate(self):
        if not (self.params.get("sigma", 0) > 0):
            raise InvalidParams("lognormal needs sigma > 0")
        if "mu" not in self.params:
            raise InvalidParams("lognormal needs mu")

    def _z(self, x):
        return (np.log(x) - self.params["mu"]) / self.params["sigma"]

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        z = self._z(x)
        return (-np.log(x) - math.log(self.params["sigma"]) - 0.5 * _LOG_2PI
                - 0.5 * z * z - self._log_sf0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = self._z(x)
        # survival ratio is stable far into the tail
        return 1.0 - np.exp(log_ndtr(-z) - self._log_sf0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        mu, sigma = self.params["mu"], self.params["sigma"]
        p0 = ndtr(self._z0)
        u = p0 + q * math.exp(self._log_sf0)
        return np.exp(mu + sigma * ndtri(u))

    @classmethod
    def first_start(cls, stats):
        m0 = stats.sum_log / stats.n
        s0 = math.sqrt(max(stats.sum_log_sq / stats.n - m0 * m0, 1e-4))
        return [max(m0, cls.mu_lo + s0) if cls.positive else m0, math.log(s0)]

    @classmethod
    def start_box(cls, stats):
        return [(cls.mu_lo, MU_HI), (math.log(0.05), math.log(SIGMA_HI))]

    @staticmethod
    def encode(params):
        return [params["mu"], math.log(params["sigma"])]

    @staticmethod
    def decode(stats, t):
        return {"mu": t[0], "sigma": math.exp(t[1])}

    @classmethod
    def objective(cls, stats):
        n, sum_log, sum_log_sq = stats.n, stats.sum_log, stats.sum_log_sq
        log_xmin, mu_lo = stats.log_xmin, cls.mu_lo
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


class LognormalPositive(Lognormal):
    family = "lognormal_positive"
    positive = True
    mu_lo = 1e-12

    def _validate(self):
        super()._validate()
        if not (self.params["mu"] > 0):
            raise InvalidParams("lognormal_positive needs mu > 0")


FAMILIES: dict[str, type[TailDistribution]] = {cls.family: cls for cls in (
    PowerLaw, TruncPowerLaw, Exponential, StretchedExponential, Lognormal,
    LognormalPositive)}

FAMILY_ORDER = tuple(FAMILIES)


def make_distribution(family: str, params: dict[str, float], x_min: float) -> TailDistribution:
    """Evaluable tail distribution for a named family."""
    if family not in FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    cls = FAMILIES[family]
    missing = set(cls.param_names) - set(params)
    if missing:
        raise InvalidParams(f"{family} missing parameters {sorted(missing)}")
    return cls(params={k: float(params[k]) for k in cls.param_names}, x_min=float(x_min))
