import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize as scipy_minimize

from webmal.errors import InvalidParams, OptimizerFailure, TooFewPoints
from webmal.heavytail import (FAMILY_ORDER, CandidateSet, compare, estimate_xmin,
                              ks_distance, make_distribution, mle_fit,
                              select_candidates, upper_gamma)
from webmal.heavytail import fitting
from webmal.heavytail.families import _CF_SWITCH
from webmal.heavytail.fitting import (ALPHA_HI, ALPHA_LO, BETA_HI, MU_HI, MU_LO,
                                      SIGMA_HI, SIGMA_LO, _TAIL_FITS, _Boxes,
                                      _TailStats, minimize)
from webmal.oracles import oracle_tail_loglik
from webmal.synthlab import sample

# reference values computed with 30-digit arbitrary-precision arithmetic
GAMMA_REFERENCE = [
    (-2.71, 1e-08, 1.7661626743074937e+21),
    (-2.71, 0.37, 3.1649326338789543),
    (-2.0, 0.5, 0.88641745710071383),
    (-1.5, 3.0, 0.0018702598486750917),
    (-0.66, 0.0001, 657.54000505294667),
    (-0.71, 2.64e-05, 2504.2307974972356),
    (-0.71, 26.4, 1.1948389258887499e-14),
    (-0.3, 4.0, 0.0023660072939319665),
    (-0.01, 2.0, 0.048421418390956981),
    (-1.0, 1.0, 0.14849550677592205),
    (0.34, 0.02, 1.8502818473269821),
    (0.9, 150.0, 4.3444125327977487e-66),
    (0.5, 7.3, 0.00023558489526580423),
    # x + 1 - s = 0: the continued fraction's first denominator vanishes
    (5.0, 4.0, 15.092086444316964562),     # 824 e^-4
    (6.0, 5.0, 73.915278579967574050),     # 10970 e^-5
]

SIX = {
    "power_law": {"alpha": 2.3},
    "trunc_power_law": {"alpha": 1.71, "lambda": 0.002},
    "exponential": {"lambda": 0.4},
    "stretched_exponential": {"beta": 0.55, "lambda": 0.8},
    "lognormal": {"mu": -0.5, "sigma": 1.4},
    "lognormal_positive": {"mu": 1.1, "sigma": 0.7},
}


@pytest.mark.parametrize("s,x,ref", GAMMA_REFERENCE)
def test_upper_gamma_reference(s, x, ref):
    for got in (upper_gamma(s, x), upper_gamma(s, np.array([x]))[0]):
        assert abs(got - ref) <= 1e-10 * abs(ref)


def test_upper_gamma_vectorized_matches_scalar():
    # the scalar path repeats the array path's operations, so it must give
    # the bits of a 1-element array; a longer array keeps iterating its
    # continued fraction until every element converges, hence approx there
    xs = np.array([1e-6, 0.01, 0.5, 3.9, _CF_SWITCH, 12.0, 80.0])
    for s in (-3.5, -2.0, -1.0, -0.71, -0.5, 0.0, 1e-13, 0.5, 2.5):
        vec = upper_gamma(s, xs)
        for x, v in zip(xs, vec):
            scalar = upper_gamma(s, float(x))
            assert scalar == upper_gamma(s, np.array([x]))[0]
            assert v == pytest.approx(scalar, rel=1e-12)


def test_upper_gamma_rejects_nonpositive_x():
    with pytest.raises(InvalidParams):
        upper_gamma(-0.5, 0.0)


@pytest.mark.parametrize("family", FAMILY_ORDER)
def test_pdf_integrates_to_one(family):
    dist = make_distribution(family, SIX[family], x_min=2.0)
    total, _ = quad(lambda t: float(dist.pdf(t)), 2.0, np.inf, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("family", FAMILY_ORDER)
def test_cdf_matches_pdf_quadrature(family):
    dist = make_distribution(family, SIX[family], x_min=2.0)
    for x in (2.5, 4.0, 9.0, 40.0):
        area, _ = quad(lambda t: float(dist.pdf(t)), 2.0, x, limit=400)
        assert float(dist.cdf(x)) == pytest.approx(area, abs=1e-8)


@pytest.mark.parametrize("family", FAMILY_ORDER)
def test_ppf_roundtrip(family):
    dist = make_distribution(family, SIX[family], x_min=2.0)
    q = np.array([0.0, 0.1, 0.5, 0.9, 0.999])
    x = np.asarray(dist.ppf(q), dtype=float)
    assert np.all(x >= 2.0 - 1e-12)
    back = np.asarray(dist.cdf(x), dtype=float)
    assert np.allclose(back, q, atol=1e-9)


def test_exponential_median():
    dist = make_distribution("exponential", {"lambda": 0.5}, x_min=2.0)
    median = 2.0 + math.log(2.0) / 0.5
    assert float(dist.cdf(median)) == pytest.approx(0.5, abs=1e-12)


def test_power_law_cdf_value():
    dist = make_distribution("power_law", {"alpha": 2.0}, x_min=1.0)
    assert float(dist.cdf(2.0)) == pytest.approx(0.5, abs=1e-12)


def test_lognormal_tail_normalization():
    # mu=0, sigma=1, x_min=1: exactly half the untruncated mass is kept
    dist = make_distribution("lognormal", {"mu": 0.0, "sigma": 1.0}, x_min=1.0)
    assert float(dist.pdf(1.0)) == pytest.approx(2.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert float(dist.cdf(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        make_distribution("power_law", {"alpha": 1.0}, x_min=1.0)
    with pytest.raises(InvalidParams):
        make_distribution("exponential", {"lambda": -1.0}, x_min=1.0)
    with pytest.raises(InvalidParams):
        make_distribution("lognormal_positive", {"mu": -0.2, "sigma": 1.0}, x_min=1.0)
    with pytest.raises(InvalidParams):
        make_distribution("trunc_power_law", {"alpha": 1.5, "lambda": 0.1}, x_min=0.0)
    with pytest.raises(InvalidParams):
        make_distribution("trunc_power_law", {"alpha": 1.5}, x_min=1.0)


# maximum likelihood


def _smooth_1d(t):
    return math.cosh(t[0] - 0.4) + 0.1 * t[0] ** 4


def _rosenbrock(t):
    return 100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2


def _walled(t):
    return math.inf if t[0] > 0.7 else _rosenbrock(t)


def _infeasible(t):
    return math.inf


def _stepped(t):
    # plateaus: vertices tie, so the order of the stable sort shows
    return float(math.floor(_rosenbrock(t) if len(t) == 2 else 4 * _smooth_1d(t)))


NM_OPTIONS = {"xatol": 1e-8, "fatol": 1e-6, "maxiter": 2000, "maxfev": 4000}

# Runs cut after each maxfev in 1..40, so that some cut falls inside every
# kind of step. The first evaluation of each kind: reflection 4 and
# expansion 5 in both 2-d runs; _rosenbrock from (-2, 0.06): inside
# contraction 16, outside contraction 18, shrink 22-23; _walled from
# (-1.5, 0.1): outside contraction 18, shrink 19-20, inside contraction 24;
# _smooth_1d: reflection 3, expansion 4, outside contraction 10, inside
# contraction 12. An infeasible simplex shrinks at every step.
MAXFEV_SWEEP = [(fun, x0, dict(NM_OPTIONS, maxfev=k))
                for fun, x0 in ((_rosenbrock, [-2.0, 0.06]), (_walled, [-1.5, 0.1]),
                                (_smooth_1d, [2.5]), (_infeasible, [0.3, -0.2]),
                                (_infeasible, [0.3]))
                for k in range(1, 41)]


@pytest.mark.parametrize("fun,x0,options", [
    (_smooth_1d, [2.5], NM_OPTIONS),
    (_rosenbrock, [-1.2, 1.0], NM_OPTIONS),
    (_rosenbrock, [0.0, 0.5], NM_OPTIONS),          # zero coordinate: step 0.00025
    (_walled, [-0.8, 0.3], NM_OPTIONS),             # inf beyond t[0] = 0.7
    (_infeasible, [0.3, -0.2], NM_OPTIONS),         # |inf - inf| is NaN: no convergence
    (_infeasible, [0.3], NM_OPTIONS),
    (_stepped, [-2.0, 0.06], NM_OPTIONS),
    (_stepped, [0.0, 0.5], NM_OPTIONS),
    (_stepped, [2.5], NM_OPTIONS),
    (_rosenbrock, [-1.2, 1.0], dict(NM_OPTIONS, maxfev=18)),  # cut mid-iteration
    (_rosenbrock, [-1.2, 1.0], dict(NM_OPTIONS, maxiter=9)),
] + MAXFEV_SWEEP, ids=["smooth-1d", "smooth-2d", "zero-start", "inf-region",
                       "all-inf-2d", "all-inf-1d", "ties-2d", "ties-2d-zero-start",
                       "ties-1d", "maxfev", "maxiter"]
   + [f"{fun.__name__}-{len(x0)}d-maxfev{o['maxfev']}" for fun, x0, o in MAXFEV_SWEEP])
# scipy's convergence test subtracts inf - inf on an infeasible simplex
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_nelder_mead_reproduces_scipy(fun, x0, options):
    ref = scipy_minimize(fun, np.asarray(x0, dtype=float), method="Nelder-Mead",
                         options=options)
    got = minimize(fun, x0, **options)
    assert np.asarray(got.x, dtype=float).tobytes() == ref.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (got.nfev, got.nit) == (ref.nfev, ref.nit)
    if "maxfev" in options and options["maxfev"] < 4000:
        assert got.nfev == options["maxfev"]
    if options["maxiter"] < 2000:
        assert got.nit == options["maxiter"]


def test_nelder_mead_takes_one_or_two_parameters():
    # every tail family has one or two free parameters
    for x0 in ([], [0.1, 0.2, 0.3]):
        with pytest.raises(InvalidParams):
            minimize(_infeasible, x0)


# each family's parameter box, as a predicate on the decoded parameters
IN_BOX = {
    "power_law": lambda p, bx: ALPHA_LO < p["alpha"] <= ALPHA_HI,
    "trunc_power_law": lambda p, bx: (ALPHA_LO < p["alpha"] <= ALPHA_HI
                                      and bx.lam_lo <= p["lambda"] <= bx.lam_hi),
    "exponential": lambda p, bx: 0 < p["lambda"] <= bx.lam_hi,
    "stretched_exponential": lambda p, bx: 0 < p["beta"] <= BETA_HI and p["lambda"] > 0,
    "lognormal": lambda p, bx: MU_LO <= p["mu"] <= MU_HI and SIGMA_LO < p["sigma"] <= SIGMA_HI,
    "lognormal_positive": lambda p, bx: (1e-12 <= p["mu"] <= MU_HI
                                         and SIGMA_LO < p["sigma"] <= SIGMA_HI),
}


def _reference_objective(family, stats, boxes, t):
    """-loglik of decode(t) through the dict-based oracle; inf off the box."""
    try:
        params = _TAIL_FITS[family].decode(stats, boxes, t)
    except (OverflowError, ValueError):
        return math.inf
    if not IN_BOX[family](params, boxes):
        return math.inf
    try:
        ll = oracle_tail_loglik(stats, family, params)
    except (InvalidParams, OverflowError, ValueError):
        return math.inf
    return -ll if math.isfinite(ll) else math.inf


def _t_grid(family, boxes):
    """Points inside and outside the box, and some whose decoding overflows."""
    if family in ("lognormal", "lognormal_positive"):
        mus = [-40.0, -30.0, -3.0, -1e-13, 0.0, 1e-12, 0.4, 1.7, 29.0, 30.0, 31.0]
        return [[mu, ls] for mu in mus for ls in np.linspace(-8.0, 3.0, 12)]
    # the log of the first parameter, covering its box and 1e3 beyond
    first = list(np.linspace(-9.0, 2.0, 89)) + [math.log(3.0), 700.0, 800.0]
    if family == "trunc_power_law":
        lams = np.linspace(math.log(boxes.lam_lo) - 2.0, math.log(boxes.lam_hi) + 2.0, 15)
        return [[t0, t1] for t0 in first for t1 in lams] + [[0.0, 800.0]]
    if family == "exponential":
        return [[v] for v in np.linspace(math.log(boxes.lam_lo) - 2.0,
                                         math.log(boxes.lam_hi) + 2.0, 40)] + [[800.0]]
    return [[v] for v in first]


@pytest.mark.parametrize("family", FAMILY_ORDER)
@pytest.mark.parametrize("tail, x_min", [
    (sample("lognormal", {"mu": 0.5, "sigma": 1.2}, 1.0, 300, seed=15), 1.0),
    (np.rint(sample("power_law", {"alpha": 2.1}, 3.0, 400, seed=16)), 3.0),
], ids=["continuous", "integer"])
def test_family_objective_is_the_oracle_loglik_bit_for_bit(family, tail, x_min):
    stats = _TailStats(np.sort(tail[tail >= x_min]), x_min)
    boxes = _Boxes(stats)
    objective = _TAIL_FITS[family].objective(stats, boxes)
    finite = 0
    with np.errstate(over="ignore"):
        for t in _t_grid(family, boxes):
            got, want = objective(t), _reference_objective(family, stats, boxes, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (t, got, want)
            finite += math.isfinite(got)
    assert finite >= 10


def test_select_candidates_runs_every_numeric_fit_through_minimize(monkeypatch):
    data = sample("lognormal", {"mu": 0.8, "sigma": 1.0}, 1.0, 150, seed=17)
    options = dict(max_candidates=8, restarts=2, scan_restarts=1)
    plain = select_candidates(data, **options)
    real = fitting.minimize
    runs = []

    def counted(fun, x0, **kwargs):
        runs.append(len(x0))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(fitting, "minimize", counted)
    assert select_candidates(data, **options) == plain
    assert set(runs) == {1, 2}

    def infeasible(fun, x0, **kwargs):
        return fitting.NelderMeadResult(list(x0), math.inf, 0, 0)

    # with every run infeasible, only the closed-form families still fit
    monkeypatch.setattr(fitting, "minimize", infeasible)
    blind = select_candidates(data, **options)
    assert {f for f, fit in blind.fits.items() if fit is not None} == {"power_law",
                                                                      "exponential"}
    with pytest.raises(OptimizerFailure):
        mle_fit(data, "power_law", 1.0, method="numeric")


def test_power_law_closed_form():
    data = np.full(4, math.e)
    params, _ = mle_fit(data, "power_law", 1.0, min_tail=4)
    assert params["alpha"] == pytest.approx(2.0, abs=1e-12)


def test_exponential_closed_form():
    data = np.array([1.0] * 6 + [5.0] * 6)  # mean 3, x_min 1
    params, _ = mle_fit(data, "exponential", 1.0, min_tail=5)
    assert params["lambda"] == pytest.approx(0.5, abs=1e-12)


def test_mle_too_few_points():
    with pytest.raises(TooFewPoints):
        mle_fit(np.ones(5) * 3.0, "power_law", 1.0)


def test_numeric_matches_closed_form_power_law():
    data = sample("power_law", {"alpha": 2.4}, 1.0, 4000, seed=11)
    closed, _ = mle_fit(data, "power_law", 1.0)
    numeric, _ = mle_fit(data, "power_law", 1.0, method="numeric")
    assert numeric["alpha"] == pytest.approx(closed["alpha"], abs=1e-3)


def test_numeric_matches_closed_form_exponential():
    data = sample("exponential", {"lambda": 0.7}, 2.0, 4000, seed=12)
    closed, _ = mle_fit(data, "exponential", 2.0)
    numeric, _ = mle_fit(data, "exponential", 2.0, method="numeric")
    assert numeric["lambda"] == pytest.approx(closed["lambda"], rel=1e-3)


def test_trunc_power_law_recovery():
    data = sample("trunc_power_law", {"alpha": 1.66, "lambda": 2.43e-4}, 1.0,
                  100_000, seed=7)
    params, _ = mle_fit(data, "trunc_power_law", 1.0)
    assert params["alpha"] == pytest.approx(1.66, abs=0.05)
    assert params["lambda"] == pytest.approx(2.43e-4, rel=0.30)


def test_stretched_exponential_recovery():
    data = sample("stretched_exponential", {"beta": 0.6, "lambda": 0.5}, 1.0,
                  30_000, seed=8)
    params, _ = mle_fit(data, "stretched_exponential", 1.0)
    assert params["beta"] == pytest.approx(0.6, abs=0.05)
    assert params["lambda"] == pytest.approx(0.5, rel=0.2)


def test_lognormal_recovery():
    data = sample("lognormal", {"mu": 1.2, "sigma": 0.8}, 1.0, 30_000, seed=9)
    params, _ = mle_fit(data, "lognormal", 1.0)
    assert params["mu"] == pytest.approx(1.2, abs=0.1)
    assert params["sigma"] == pytest.approx(0.8, abs=0.1)


def test_nested_cutoff_never_beats_pure_power_law_by_much():
    data = sample("power_law", {"alpha": 2.1}, 1.0, 5000, seed=13)
    _, ll_pl = mle_fit(data, "power_law", 1.0)
    _, ll_tpl = mle_fit(data, "trunc_power_law", 1.0)
    assert ll_tpl >= ll_pl - 1e-6


def test_loglik_matches_pointwise_logpdf():
    data = sample("lognormal", {"mu": 0.5, "sigma": 1.0}, 1.0, 2000, seed=14)
    for family in FAMILY_ORDER:
        try:
            params, ll = mle_fit(data, family, 1.0)
        except Exception:
            continue
        dist = make_distribution(family, params, 1.0)
        assert ll == pytest.approx(float(np.sum(dist.logpdf(data))), rel=1e-9, abs=1e-6)


# KS distance and x_min estimation


def test_ks_distance_plugin_quantiles():
    # data placed at the model's own (i-0.5)/n quantiles: D is exactly 0.5/n
    dist = make_distribution("power_law", {"alpha": 2.5}, 1.0)
    n = 40
    q = (np.arange(n) + 0.5) / n
    data = np.asarray(dist.ppf(q))
    assert ks_distance(data, dist) == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_distance_handles_duplicates():
    dist = make_distribution("exponential", {"lambda": 1.0}, 1.0)
    data = np.array([1.0, 1.0, 1.0, 2.0])
    # empirical jumps to 0.75 at x=1 where the model cdf is 0
    assert ks_distance(data, dist) == pytest.approx(0.75, abs=1e-12)


def test_estimate_xmin_finds_planted_changepoint():
    rng = np.random.default_rng(21)
    noise = rng.uniform(1.0, 4.0, size=2500)
    tail = sample("power_law", {"alpha": 2.3}, 4.0, 7500, seed=22)
    data = np.concatenate([noise, tail])
    fit = estimate_xmin(data, "power_law")
    # the KS argmin lands at or somewhat above the true changepoint, never
    # down in the noise body
    assert 3.0 <= fit.x_min <= 9.0
    assert fit.params["alpha"] == pytest.approx(2.3, abs=0.1)
    assert fit.n_tail >= 2500


def test_estimate_xmin_is_the_ks_argmin_with_tie_to_smaller():
    rng = np.random.default_rng(5)
    data = np.round(sample("power_law", {"alpha": 2.0}, 1.0, 800, seed=5) + rng.random(800), 1)
    data = data[data > 0]
    fit = estimate_xmin(data, "power_law", min_tail=10)
    xs = np.sort(data)
    best_d, best_xm = None, None
    for xm in np.unique(xs):
        tail = xs[xs >= xm]
        if len(tail) < 10:
            break
        params, _ = mle_fit(tail, "power_law", float(xm), min_tail=10)
        d = ks_distance(tail, make_distribution("power_law", params, float(xm)))
        if best_d is None or d < best_d:
            best_d, best_xm = d, float(xm)
    assert fit.x_min == pytest.approx(best_xm)
    assert fit.D == pytest.approx(best_d, abs=1e-12)


def test_estimate_xmin_scale_invariance():
    data = sample("power_law", {"alpha": 2.2}, 1.0, 3000, seed=23)
    fit1 = estimate_xmin(data, "power_law")
    c = 3.7
    fit2 = estimate_xmin(c * data, "power_law")
    assert fit2.params["alpha"] == pytest.approx(fit1.params["alpha"], abs=1e-9)
    assert fit2.x_min == pytest.approx(c * fit1.x_min, rel=1e-12)


def test_estimate_xmin_deterministic():
    data = sample("lognormal", {"mu": 0.8, "sigma": 1.1}, 1.0, 1500, seed=24)
    f1 = estimate_xmin(data, "lognormal")
    f2 = estimate_xmin(data, "lognormal")
    assert f1.params == f2.params
    assert f1.x_min == f2.x_min and f1.D == f2.D


def test_estimate_xmin_minimum_points():
    with pytest.raises(TooFewPoints):
        estimate_xmin(np.arange(1.0, 30.0), "power_law")


def test_ks_median_shrinks_with_n():
    small, large = [], []
    for seed in range(15):
        for n, sink in ((150, small), (2400, large)):
            data = sample("exponential", {"lambda": 0.3}, 1.0, n, seed=100 + seed)
            params, _ = mle_fit(data, "exponential", 1.0)
            sink.append(ks_distance(data, make_distribution("exponential", params, 1.0)))
    assert np.median(large) < np.median(small)


# model comparison


def test_compare_power_law_beats_exponential():
    data = sample("power_law", {"alpha": 2.5}, 1.0, 10_000, seed=31)
    fit = estimate_xmin(data, "power_law")
    res = compare(data, fit, "exponential")
    assert res.r > 0
    assert res.p < 0.01
    assert res.favored == "f"


def test_compare_nested_is_indeterminate_not_wrong():
    data = sample("power_law", {"alpha": 2.5}, 1.0, 8000, seed=32)
    params, _ = mle_fit(data, "power_law", 1.0)
    from webmal.heavytail import FitResult
    fit = FitResult("power_law", params, 1.0, 0.0, 0.0, len(data))
    res = compare(data, fit, "trunc_power_law")
    assert not (res.r < 0 and res.p < 0.01)


def test_compare_antisymmetry():
    data = sample("lognormal", {"mu": 0.4, "sigma": 1.0}, 1.0, 3000, seed=33)
    from webmal.heavytail import FitResult
    pf, lf = mle_fit(data, "power_law", 1.0)
    pg, lg = mle_fit(data, "stretched_exponential", 1.0)
    fit_f = FitResult("power_law", pf, 1.0, 0.0, lf, len(data))
    fit_g = FitResult("stretched_exponential", pg, 1.0, 0.0, lg, len(data))
    ab = compare(data, fit_f, "stretched_exponential")
    ba = compare(data, fit_g, "power_law")
    assert ab.r == pytest.approx(-ba.r, rel=1e-9, abs=1e-9)
    assert ab.p == pytest.approx(ba.p, rel=1e-9, abs=1e-12)


def test_compare_identical_family_p_is_one():
    data = sample("exponential", {"lambda": 0.5}, 1.0, 500, seed=34)
    from webmal.heavytail import FitResult
    params, ll = mle_fit(data, "exponential", 1.0)
    fit = FitResult("exponential", params, 1.0, 0.0, ll, len(data))
    res = compare(data, fit, "exponential")
    assert res.r == pytest.approx(0.0, abs=1e-9)
    assert res.p == 1.0
    assert res.favored == "indeterminate"


# candidate selection


def test_select_exponential_data():
    data = sample("exponential", {"lambda": 0.1}, 1.0, 10_000, seed=41)
    result = select_candidates(data)
    assert "exponential" in result.candidates
    assert result.selection == "exponential"
    assert result.selection_flag in ("unique", "judged")


def test_select_trunc_power_law_data():
    data = sample("trunc_power_law", {"alpha": 1.8, "lambda": 0.003}, 5.0,
                  30_000, seed=42)
    result = select_candidates(data)
    assert "trunc_power_law" in result.candidates
    assert result.selection == "trunc_power_law"
    assert "power_law" not in result.candidates


def test_select_small_subsample_keeps_family_in_candidates():
    data = sample("trunc_power_law", {"alpha": 1.8, "lambda": 0.003}, 5.0,
                  30_000, seed=42)
    rng = np.random.default_rng(43)
    sub = rng.choice(data, size=60, replace=False)
    result = select_candidates(sub, min_points=50, min_tail=10)
    assert "trunc_power_law" in result.candidates
    assert len(result.candidates) >= 1


def test_superset_tie_break():
    data = sample("power_law", {"alpha": 2.5}, 1.0, 5000, seed=44)
    result = select_candidates(data, superset_selection="trunc_power_law")
    if "trunc_power_law" in result.candidates and len(result.candidates) > 1:
        assert result.selection == "trunc_power_law"
        assert result.selection_flag == "judged"


def test_all_eliminated_flag():
    cs = CandidateSet(fits={}, eliminated_by={}, candidates=[], selection=None,
                      selection_flag=None)
    assert cs.all_eliminated
    assert cs.selected_fit() is None
