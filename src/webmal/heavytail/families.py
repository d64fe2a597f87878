"""Tail distribution families on [x_min, inf).

Six families, each normalized on the tail: power law x^-a, power law with
exponential cutoff x^-a e^(-lx), exponential, stretched exponential
x^(b-1) e^(-lx^b), lognormal, and lognormal restricted to positive location.

The cutoff family needs the upper incomplete gamma Gamma(1-a, l*x_min) with a
possibly negative first argument, outside scipy's gammaincc domain, so it is
evaluated here by a continued fraction for large second argument and an
upward recurrence onto gammaincc/exp1 otherwise (relative accuracy ~1e-12,
checked against arbitrary-precision references in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1, gammaincc, log_ndtr, ndtr, ndtri

from ..errors import InvalidParams

_LOG_2PI = math.log(2.0 * math.pi)
_CF_SWITCH = 4.0  # continued fraction above, recurrence below


def _upper_gamma_cf(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) for x >= _CF_SWITCH via the modified Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = np.full_like(x, 1e300)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    for i in range(1, 300):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        c = b + an / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    return np.exp(-x + s * np.log(x)) * h


def _upper_gamma_cf_scalar(s: float, x: float) -> float:
    """_upper_gamma_cf on one float, operation for operation."""
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
    return float(np.exp(-x + s * np.log(x)) * h)


def _upper_gamma_small(s: float, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) for x < _CF_SWITCH: lift s above 0, then recurse back down.

    Gamma(t-1, x) = (Gamma(t, x) - x^(t-1) e^(-x)) / (t-1); no cancellation
    trouble for small x since the power term dominates.
    """
    if s > 1e-12:
        return math.gamma(s) * gammaincc(s, x)
    m = int(math.floor(-s)) + 1
    t = s + m
    if t < 1e-12:  # s is a non-positive integer: top out at Gamma(0,x) = E1(x)
        g = exp1(x)
        t = 0.0
    else:
        g = math.gamma(t) * gammaincc(t, x)
    ex = np.exp(-x)
    while t > s + 1e-12:
        t -= 1.0
        if abs(t) < 1e-12:
            g = exp1(x)
            t = 0.0
            continue
        g = (g - x ** t * ex) / t
    return g


def upper_gamma(s: float, x) -> np.ndarray | float:
    """Upper incomplete gamma Gamma(s, x) for real s and x > 0.

    A scalar x takes a float path that performs the array path's
    operations in the same order, so both give the same bits; the tail
    likelihood calls it once per evaluation, where numpy's per-call cost on
    a 1-element array would dominate.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return _upper_gamma_float(s, float(arr))
    if np.any(arr <= 0):
        raise InvalidParams("upper_gamma needs x > 0")
    out = np.empty_like(arr)
    hi = arr >= _CF_SWITCH
    if hi.any():
        out[hi] = _upper_gamma_cf(s, arr[hi])
    if (~hi).any():
        out[~hi] = _upper_gamma_small(s, arr[~hi])
    return out


def _upper_gamma_float(s: float, x: float) -> float:
    if x <= 0:
        raise InvalidParams("upper_gamma needs x > 0")
    if x >= _CF_SWITCH:
        return _upper_gamma_cf_scalar(s, x)
    # a 0-d array: ** then takes the same numpy path as on arrays
    return float(_upper_gamma_small(s, np.asarray(x)))


def log_upper_gamma(s: float, x: float) -> float:
    g = _upper_gamma_float(s, float(x))
    if g <= 0 or not math.isfinite(g):
        raise InvalidParams(f"Gamma({s}, {x}) not representable")
    return math.log(g)


@dataclass
class TailDistribution:
    """Common interface: pdf/cdf/sf/ppf on the tail [x_min, inf)."""

    params: dict[str, float]
    x_min: float

    family: str = field(init=False, default="")

    def __post_init__(self):
        if not (self.x_min > 0):
            raise InvalidParams("x_min must be positive")
        self._validate()

    def _validate(self) -> None:
        raise NotImplementedError

    def logpdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def cdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def sf(self, x) -> np.ndarray:
        return 1.0 - self.cdf(x)

    def ppf(self, q) -> np.ndarray:
        """Numerical inverse by bracketed root finding; overridden when closed-form."""
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((qs < 0) | (qs >= 1)):
            raise InvalidParams("quantiles must lie in [0, 1)")
        out = np.empty_like(qs)
        for i, qi in enumerate(qs):
            if qi <= 0:
                out[i] = self.x_min
                continue
            hi = self.x_min * 2.0
            while self.cdf(hi) < qi:
                hi *= 2.0
                if hi > 1e300:
                    raise InvalidParams("quantile bracket exceeded float range")
            out[i] = brentq(lambda t: float(self.cdf(t)) - qi, self.x_min, hi,
                            xtol=1e-12 * self.x_min, rtol=1e-14)
        return out if np.asarray(q).ndim else float(out[0])


class PowerLaw(TailDistribution):
    def __post_init__(self):
        self.family = "power_law"
        super().__post_init__()

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


class TruncPowerLaw(TailDistribution):
    """Power law with exponential cutoff: C x^-a e^(-lx)."""

    def __post_init__(self):
        self.family = "trunc_power_law"
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


class Exponential(TailDistribution):
    def __post_init__(self):
        self.family = "exponential"
        super().__post_init__()

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


class StretchedExponential(TailDistribution):
    def __post_init__(self):
        self.family = "stretched_exponential"
        super().__post_init__()

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


class Lognormal(TailDistribution):
    def __post_init__(self):
        self.family = "lognormal"
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


class LognormalPositive(Lognormal):
    def __post_init__(self):
        Lognormal.__post_init__(self)
        self.family = "lognormal_positive"

    def _validate(self):
        super()._validate()
        if not (self.params["mu"] > 0):
            raise InvalidParams("lognormal_positive needs mu > 0")


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    param_names: tuple[str, ...]
    cls: type


FAMILIES: dict[str, FamilySpec] = {
    "power_law": FamilySpec("power_law", ("alpha",), PowerLaw),
    "trunc_power_law": FamilySpec("trunc_power_law", ("alpha", "lambda"), TruncPowerLaw),
    "exponential": FamilySpec("exponential", ("lambda",), Exponential),
    "stretched_exponential": FamilySpec("stretched_exponential", ("beta", "lambda"),
                                        StretchedExponential),
    "lognormal": FamilySpec("lognormal", ("mu", "sigma"), Lognormal),
    "lognormal_positive": FamilySpec("lognormal_positive", ("mu", "sigma"),
                                     LognormalPositive),
}

FAMILY_ORDER = tuple(FAMILIES)


def make_distribution(family: str, params: dict[str, float], x_min: float) -> TailDistribution:
    """Evaluable tail distribution for a named family."""
    if family not in FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    spec = FAMILIES[family]
    missing = set(spec.param_names) - set(params)
    if missing:
        raise InvalidParams(f"{family} missing parameters {sorted(missing)}")
    return spec.cls(params={k: float(params[k]) for k in spec.param_names}, x_min=float(x_min))
