"""Tail distribution families on [x_min, inf).

Six families, each normalized on the tail: power law x^-a, power law with
exponential cutoff x^-a e^(-lx), exponential, stretched exponential
x^(b-1) e^(-lx^b), lognormal, and lognormal restricted to positive location.

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
from typing import ClassVar

import numpy as np
from scipy.special import exp1, gammaincc, log_ndtr, ndtr, ndtri

from ..errors import InvalidParams

_LOG_2PI = math.log(2.0 * math.pi)
_CF_SWITCH = 4.0  # continued fraction above, recurrence below


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
    """Common interface: logpdf and cdf on the tail [x_min, inf). Every
    family but the truncated power law also has a closed-form ppf."""

    params: dict[str, float]
    x_min: float

    # set by each family's class
    family: ClassVar[str]
    param_names: ClassVar[tuple[str, ...]]

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


class StretchedExponential(TailDistribution):
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


class Lognormal(TailDistribution):
    family = "lognormal"
    param_names = ("mu", "sigma")

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


class LognormalPositive(Lognormal):
    family = "lognormal_positive"

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
