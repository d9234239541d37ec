"""Statistical engine: CCDFs, power-law tail fits, correlation, chi-square.

Conventions. A quantity follows a power law with exponent gamma when its
density is proportional to x^(-gamma) beyond a threshold x_min; the CCDF
P(X >= x) then falls as x^(-(gamma-1)). ``gamma`` always names the density
exponent here.

Fitting is maximum likelihood. Continuous mode uses the closed form
gamma = 1 + n / sum(ln(x_i / x_min)). Discrete mode maximizes the
Hurwitz-zeta likelihood exactly (the common (x_min - 1/2) shortcut is badly
biased for x_min near 1, where most of our count data lives). When x_min is
not given, every distinct sample value is a candidate and the one minimizing
the Kolmogorov-Smirnov distance between the empirical tail CCDF and the
fitted CCDF wins; ties go to the smaller x_min (larger tail).

One scan serves both modes. The tail at a candidate is a suffix of the
sorted samples, and a candidate whose tail is constant, or spans more than
the double range above it, is dropped before any fit. The scan fits each
finalist once, smallest x_min first, and keeps the smallest KS distance. In
discrete mode every candidate is a finalist.

In continuous mode a screen picks the finalists and fits nothing. Sorting
once gives every candidate's tail count, and a reversed cumulative sum of
log gaps gives every candidate's gamma in O(1). A screened KS distance,
computed from those over the global array of distinct values, agrees with
the exact one to well under 1e-11, and its maximum over any evenly spaced
probe points of the tail bounds it from below. Candidates are visited in
increasing order of a 64-point bound until that bound passes the best
screened distance plus a tolerance; a visited candidate is screened in full
unless its 1024-point bound passes that mark too. The finalists are the
candidates within the tolerance of the best, so the result is the one a fit
at every candidate gives. Candidates too steep for the screen to track the
exact distance (gamma - 1 above 1e5) are always finalists. Of the ~10^4
candidates of 10^4 Pareto draws, a few dozen to a few hundred need a full
screen and one is a finalist. Where the bounds prune nothing the screen
still costs a vectorised O(C * U) for C candidates and U distinct values, in
chunks of fixed size.

scipy.special supplies the Hurwitz zeta function of the discrete fit and
sampler and the regularized upper incomplete gamma function behind the
chi-square p-value. It is imported by the functions that evaluate them, on
first use, so a command that fits only continuous data loads numpy and no
scipy. The discrete fit's root search is ``_brentq``, a port of scipy's
Brent method that the tests hold to ``scipy.optimize.brentq`` bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DegenerateTable,
    DomainError,
    EmptyInput,
    InsufficientTail,
)

DISCRETE = "discrete"
CONTINUOUS = "continuous"
FIT_MODES = (DISCRETE, CONTINUOUS)


# --------------------------------------------------------------------------
# Empirical CCDF
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CCDFCurve:
    points: tuple[tuple[float, float], ...]  # (x, P(X >= x)), x strictly increasing

    def __post_init__(self):
        xs = [x for x, _ in self.points]
        ps = [p for _, p in self.points]
        assert all(a < b for a, b in zip(xs, xs[1:])), "x values must be strictly increasing"
        assert all(a >= b for a, b in zip(ps, ps[1:])), "probabilities must be non-increasing"
        assert ps and ps[0] == 1.0, "first CCDF value must be 1"


def _at_least(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted, non-empty ``arr`` and the count of
    samples at or above each: the empirical CCDF, unnormalised. numpy's
    unique would import numpy.ma on its first call."""
    values = arr[np.append(True, arr[1:] != arr[:-1])]
    return values, arr.size - np.searchsorted(arr, values, side="left")


def ccdf(samples) -> CCDFCurve:
    """Empirical complementary CDF: for each distinct x, P(X >= x)."""
    arr = np.sort(np.asarray(list(samples), dtype=float))
    if arr.size == 0:
        raise EmptyInput("ccdf of an empty sample set")
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise DomainError("samples must be finite and non-negative")
    values, at_least = _at_least(arr)
    ps = at_least / arr.size
    return CCDFCurve(points=tuple((float(x), float(p)) for x, p in zip(values, ps)))


def loglog_slope(curve: CCDFCurve, x_lo: float | None = None, x_hi: float | None = None) -> float:
    """Least-squares slope of log p against log x over points in [x_lo, x_hi].

    Plain diagnostic for straight-line behavior on a log-log plot; the tail
    estimator itself is the MLE in fit_power_law_tail.
    """
    pts = [
        (x, p)
        for x, p in curve.points
        if x > 0 and p > 0 and (x_lo is None or x >= x_lo) and (x_hi is None or x <= x_hi)
    ]
    if len(pts) < 2:
        raise DegenerateInput("need at least two positive points for a slope")
    lx = np.log([x for x, _ in pts])
    lp = np.log([p for _, p in pts])
    lx -= lx.mean()
    denom = float(np.dot(lx, lx))
    if denom == 0.0:
        raise DegenerateInput("x values collapse to one point on the log axis")
    return float(np.dot(lx, lp - lp.mean()) / denom)


# --------------------------------------------------------------------------
# Power-law tail fit
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TailFit:
    gamma: float  # density exponent, > 1
    x_min: float
    ks: float  # Kolmogorov-Smirnov distance of the accepted fit
    n_tail: int

    def __post_init__(self):
        assert self.gamma > 1.0
        assert self.n_tail >= 2
        assert 0.0 <= self.ks <= 1.0


def _continuous_gamma(tail: np.ndarray, x_min: float) -> float:
    with np.errstate(over="ignore"):  # an overflow is reported below
        log_sum = float(np.sum(np.log(tail / x_min)))
    if log_sum <= 0.0:
        raise InsufficientTail("tail has no spread above x_min")
    if not math.isfinite(log_sum):
        raise InsufficientTail("tail spans more than the double range above x_min")
    return 1.0 + tail.size / log_sum


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in [a, b] by Brent's method, given that f(a) and f(b)
    are zero or differ in sign: scipy's ``brentq`` step for step, so the
    same root bits, and like it a RuntimeError after 100 iterations."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:  # minimum step
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def _discrete_gamma(tail: np.ndarray, x_min: int) -> float:
    """Exact discrete MLE: solve d/dgamma [log zeta(gamma, x_min)] = -mean(log x)."""
    from scipy.special import zeta as hurwitz_zeta

    mean_log = float(np.mean(np.log(tail)))
    if mean_log <= math.log(x_min) + 1e-12:
        raise InsufficientTail("tail has no spread above x_min")

    h = 1e-6

    def g(gamma: float) -> float:
        upper = hurwitz_zeta(gamma + h, x_min)
        if upper == 0.0:
            # zeta(gamma, x_min) ~ x_min^-gamma underflows before the bracket
            # closes: the tail sits almost wholly at x_min
            raise InsufficientTail("tail too concentrated at x_min for a discrete fit")
        dlog = (math.log(upper) - math.log(hurwitz_zeta(gamma - h, x_min))) / (2 * h)
        return dlog + mean_log

    lo = 1.0 + 1e-4
    if g(lo) >= 0.0:
        # the model's mean log diverges as gamma -> 1, so this needs a mean
        # log beyond anything a finite double sample can produce
        raise InsufficientTail("tail too heavy for a power-law exponent above 1")
    hi = 2.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 2.0**20:
            raise InsufficientTail("tail too concentrated at x_min for a discrete fit")
    return _brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16)


def _fitted_ccdf(values: np.ndarray, gamma: float, x_min: float, mode: str) -> np.ndarray:
    if mode == CONTINUOUS:
        return (values / x_min) ** (-(gamma - 1.0))
    from scipy.special import zeta as hurwitz_zeta

    return hurwitz_zeta(gamma, values) / hurwitz_zeta(gamma, x_min)


def _ks_distance(tail: np.ndarray, gamma: float, x_min: float, mode: str) -> float:
    """KS distance of the fit to the sorted ``tail``."""
    values, at_least = _at_least(tail)
    emp = at_least / tail.size  # P(X >= v) at observed values
    fit = _fitted_ccdf(values, gamma, x_min, mode)
    d_at = float(np.max(np.abs(emp - fit)))
    if mode == DISCRETE:
        # both curves are step functions jumping at integers; the observed
        # support points carry the supremum
        return d_at
    # continuous fit: just above each observed value the empirical CCDF has
    # already dropped to the next level while the fitted curve moves smoothly
    emp_after = np.concatenate([emp[1:], [0.0]])
    d_between = float(np.max(np.abs(emp_after - fit)))
    return max(d_at, d_between)


def _fit_at(tail: np.ndarray, x_min: float, mode: str) -> TailFit:
    if tail.min() == tail.max():
        raise InsufficientTail("constant tail has no usable spread")
    if mode == CONTINUOUS:
        gamma = _continuous_gamma(tail, x_min)
    else:
        gamma = _discrete_gamma(tail, int(x_min))
    return TailFit(
        gamma=gamma,
        x_min=float(x_min),
        ks=_ks_distance(tail, gamma, x_min, mode),
        n_tail=int(tail.size),
    )


def fit_power_law_tail(
    samples,
    mode: str = DISCRETE,
    x_min: float | None = None,
    min_tail: int = 50,
) -> TailFit:
    """Fit the right tail of ``samples`` with a power law.

    With ``x_min`` given, fits the tail of samples >= x_min directly; raises
    InsufficientTail when fewer than ``min_tail`` samples qualify or the tail
    is constant. Without ``x_min``, scans distinct sample values as
    candidates and keeps the fit with the smallest KS distance (ties toward
    the smaller x_min).
    """
    if mode not in FIT_MODES:
        raise DomainError(f"mode must be one of {FIT_MODES}")
    min_tail = max(int(min_tail), 2)
    arr = np.sort(np.asarray(list(samples), dtype=float))
    if arr.size == 0:
        raise EmptyInput("cannot fit an empty sample set")
    if np.any(arr <= 0) or np.any(~np.isfinite(arr)):
        raise DomainError("samples must be finite and positive")
    if x_min is not None and not (math.isfinite(x_min) and x_min > 0):
        raise DomainError("x_min must be finite and positive")
    if mode == DISCRETE:
        if np.any(arr != np.floor(arr)):
            raise DomainError("discrete mode requires integer-valued samples")
        if x_min is not None and (x_min != int(x_min) or x_min < 1):
            raise DomainError("discrete x_min must be an integer >= 1")

    if x_min is not None:
        tail = arr[arr >= x_min]
        if tail.size < min_tail:
            raise InsufficientTail(
                f"only {tail.size} samples at or above x_min={x_min}, need {min_tail}"
            )
        return _fit_at(tail, float(x_min), mode)

    values, above = _at_least(arr)
    # a candidate needs min_tail samples at or above it
    best = _scan(arr, values, above, np.flatnonzero(above >= min_tail), mode)
    if best is None:
        raise InsufficientTail(f"no candidate x_min keeps {min_tail} usable tail samples")
    return best


# Continuous scan tuning. Where gamma - 1 <= _SCAN_MAX_SLOPE a screened KS
# distance is within well under 1e-11 of the one _fit_at computes (the
# tests hold it to _SCAN_TOL / 100); _SCAN_TOL is the margin that keeps the
# exact winner among the finalists.
_SCAN_TOL = 1e-9
_SCAN_CHUNK = 1 << 17  # elements per temporary array
_SCAN_PROBES = (64, 1024)  # probe points per tail: every candidate, then those not yet pruned
# The rounding of x / x_min inside _fit_at moves its gamma, and so the gap
# between screened and exact distances grows with gamma - 1: about 1e-15 at
# 10 and 1e-13 at 1e5 on clustered test data. Steeper candidates, whose tail
# sits within a relative 1e-5 of x_min on average, are always finalists.
_SCAN_MAX_SLOPE = 1e5


class _Screen:
    """Screened continuous KS distances over the distinct sample values.

    Candidate k is the x_min ``values[k]``; its tail holds the ``above[k]``
    samples >= it, whose empirical CCDF is ``above[j] / above[k]`` at
    ``values[j]`` and ``above[j + 1] / above[k]`` just past it. Its MLE slope
    gamma - 1 is ``above[k] / S[k]`` with S[k] = sum over the tail of
    log(x / values[k]), which summation by parts turns into the reversed
    cumulative sum of ``above[j] * log(values[j] / values[j - 1])`` over j > k:
    non-negative terms, so no cancellation.
    """

    def __init__(self, values: np.ndarray, above: np.ndarray):
        self.values = values
        self.above = above
        self.after = np.append(above[1:], 0)
        with np.errstate(over="ignore"):  # only below a candidate _scan drops
            gaps = above[1:] * np.log1p(np.diff(values) / values[:-1])
        self.slope = above[:-1] / np.cumsum(gaps[::-1])[::-1]  # defined for k < values.size - 1

    def terms(self, k: np.ndarray, j: np.ndarray) -> np.ndarray:
        """KS term of candidate k[i] at values[j[i]]. Every caller goes through
        this one expression, so a term has the same bits wherever it is taken."""
        m = self.above[k]
        fit = np.exp(-self.slope[k] * np.log(self.values[j] / self.values[k]))
        return np.maximum(self.above[j] / m - fit, fit - self.after[j] / m)

    def bounds(self, ks: np.ndarray, probes: int) -> np.ndarray:
        """Lower bound on each candidate's screened distance: its terms at
        ``probes`` evenly spaced points of its tail."""
        out = np.empty(ks.size)
        probe = np.arange(probes)
        step = max(1, _SCAN_CHUNK // probes)
        for lo in range(0, ks.size, step):
            k = ks[lo : lo + step, None]
            j = k + probe * (self.values.size - 1 - k) // (probes - 1)
            k = np.broadcast_to(k, j.shape)
            out[lo : lo + step] = self.terms(k.ravel(), j.ravel()).reshape(j.shape).max(axis=1)
        return out

    def distances(self, ks: np.ndarray) -> np.ndarray:
        """Screened distance of each candidate: the largest of its terms."""
        size = self.values.size
        out = np.empty(ks.size)
        lengths = size - ks
        ends = np.cumsum(lengths)
        lo = 0
        while lo < ks.size:
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - lengths[lo] + _SCAN_CHUNK, side="right")))
            if lengths[lo] > _SCAN_CHUNK:  # one long tail, in pieces
                k = ks[lo]
                pieces = (np.arange(j, min(j + _SCAN_CHUNK, size)) for j in range(k, size, _SCAN_CHUNK))
                out[lo] = max(self.terms(np.full(j.size, k), j).max() for j in pieces)
            else:
                k, n = ks[lo:hi], lengths[lo:hi]
                starts = np.cumsum(n) - n
                j = np.arange(n.sum()) + np.repeat(k - starts, n)
                out[lo:hi] = np.maximum.reduceat(self.terms(np.repeat(k, n), j), starts)
            lo = hi
        return out


def _scan(arr: np.ndarray, values: np.ndarray, above: np.ndarray, cand: np.ndarray, mode: str) -> TailFit | None:
    """The smallest-KS fit over x_min in ``values[cand]``, with ties to the
    smaller x_min, or None when no candidate can be fitted. The tail of
    candidate k is the suffix of the sorted ``arr`` holding its ``above[k]``
    samples. Continuous candidates are screened first and only the
    finalists fitted, so the result is the one a fit at every candidate
    gives."""
    # _fit_at raises InsufficientTail on a tail whose every sample divided
    # by x_min rounds to 1, and on one where that ratio overflows
    with np.errstate(over="ignore"):
        ratio = values[-1] / values[cand]
    cand = cand[(ratio > 1.0) & (ratio < np.inf)]
    if mode == CONTINUOUS:
        cand = _scan_continuous(values, above, cand)
    best = None
    for k in cand.tolist():
        try:
            fit = _fit_at(arr[arr.size - above[k] :], float(values[k]), mode)
        except InsufficientTail:
            continue
        if best is None or fit.ks < best.ks:
            best = fit
    return best


def _scan_continuous(values: np.ndarray, above: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The continuous finalists among ``cand``, in increasing order: every
    candidate too steep to screen, and every other whose screened distance
    is within _SCAN_TOL of the smallest screened distance. The exact winner
    is among them: a steep one always is, and a screened one's screened
    distance is within well under _SCAN_TOL of its exact distance."""
    screen = _Screen(values, above)
    steep = screen.slope[cand] > _SCAN_MAX_SLOPE
    screened = np.where(steep, -np.inf, np.inf)
    best = np.inf  # smallest screened distance so far

    todo = np.flatnonzero(~steep)
    coarse, fine = _SCAN_PROBES
    bound = screen.bounds(cand[todo], coarse)
    by_bound = np.argsort(bound, kind="stable")
    order, bound = todo[by_bound], bound[by_bound]
    step = max(1, _SCAN_CHUNK // values.size)
    pos = 0
    while pos < order.size and bound[pos] <= best + _SCAN_TOL:
        block = order[pos : pos + step]
        block = block[screen.bounds(cand[block], fine) <= best + _SCAN_TOL]
        if block.size:
            screened[block] = screen.distances(cand[block])
            best = min(best, float(screened[block].min()))
        pos += step
    return cand[screened <= best + _SCAN_TOL]


def expected_max(n: int, gamma: float) -> float:
    """Characteristic largest value among n power-law draws: n^(1/(gamma-1)),
    in units of x_min."""
    if not (math.isfinite(gamma) and gamma > 1.0):
        raise DomainError(f"expected_max requires a finite gamma > 1, got {gamma}")
    if not (math.isfinite(n) and n >= 1 and int(n) == n):
        raise DomainError(f"n must be a positive integer, got {n}")
    return float(n) ** (1.0 / (gamma - 1.0))


# --------------------------------------------------------------------------
# Synthetic samplers (inverse transform), used by tests and `fit --synthetic`
# --------------------------------------------------------------------------


def pareto_samples(n: int, gamma: float, x_min: float = 1.0, rng=None) -> np.ndarray:
    """Continuous power-law (Pareto) samples with density exponent gamma."""
    if not (math.isfinite(gamma) and gamma > 1.0):
        raise DomainError(f"pareto_samples requires a finite gamma > 1, got {gamma}")
    if not (math.isfinite(x_min) and x_min > 0):
        raise DomainError(f"x_min must be finite and positive, got {x_min}")
    rng = np.random.default_rng() if rng is None else rng
    u = rng.random(n)
    return x_min * (1.0 - u) ** (-1.0 / (gamma - 1.0))


def zeta_samples(n: int, gamma: float, x_min: int = 1, rng=None, support_cap: int = 10**6) -> np.ndarray:
    """Discrete power-law samples drawn from the exact zeta weights.

    Inverse transform over P(X >= k) = zeta(gamma, k) / zeta(gamma, x_min)
    for integer k, truncated at support_cap (the truncated mass is far below
    1/n for the exponents used here). The CCDF is evaluated in doubling
    blocks from x_min until it falls to the smallest draw, so the cost
    follows the largest sample rather than the cap.
    """
    if not (math.isfinite(gamma) and gamma > 1.0):
        raise DomainError(f"zeta_samples requires a finite gamma > 1, got {gamma}")
    if not (math.isfinite(x_min) and x_min >= 1 and int(x_min) == x_min):
        raise DomainError(f"x_min must be an integer >= 1, got {x_min}")
    if x_min > support_cap:
        raise DomainError(f"x_min={x_min} is above the support cap {support_cap}")
    from scipy.special import zeta as hurwitz_zeta

    rng = np.random.default_rng() if rng is None else rng
    u = rng.random(n)
    lowest = u.min(initial=1.0)
    norm = hurwitz_zeta(gamma, float(x_min))
    blocks = []
    start, width = x_min, 64
    while start <= support_cap:
        stop = min(start + width, support_cap + 1)
        blocks.append(hurwitz_zeta(gamma, np.arange(start, stop, dtype=float)) / norm)
        if blocks[-1][-1] <= lowest:
            break
        start, width = stop, 2 * width
    tail_p = np.concatenate(blocks)
    # X = largest k with P(X >= k) > u; tail_p is decreasing, and every u
    # finds its answer in the evaluated prefix or is capped at its end
    counts = np.searchsorted(-tail_p, -u, side="left")
    counts = np.clip(counts, 1, tail_p.size)
    return (x_min + counts - 1).astype(float)


# --------------------------------------------------------------------------
# Correlation
# --------------------------------------------------------------------------


def pearson(xs, ys) -> float:
    """Sample Pearson product-moment correlation coefficient."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    if len(xs) != len(ys):
        raise DegenerateInput(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise DegenerateInput("need at least 3 paired observations")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInput("zero variance input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


# --------------------------------------------------------------------------
# Chi-square independence test
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareResult:
    chi2: float
    dof: int
    p_value: float

    def __post_init__(self):
        assert self.chi2 >= 0.0
        assert self.dof >= 1
        assert 0.0 <= self.p_value <= 1.0


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if not (math.isfinite(a) and math.isfinite(x) and a > 0.0 and x >= 0.0):
        raise DomainError(f"regularized_gamma_q needs finite a > 0 and x >= 0, got a={a}, x={x}")
    from scipy.special import gammaincc

    return float(gammaincc(a, x))


def chi_square_independence(table) -> ChiSquareResult:
    """Pearson chi-square test of independence on an R x C count table."""
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise DegenerateTable("need a table with at least 2 rows and 2 columns")
    if np.any(obs < 0) or np.any(~np.isfinite(obs)):
        raise DegenerateTable("counts must be finite and non-negative")
    row_sums = obs.sum(axis=1)
    col_sums = obs.sum(axis=0)
    if np.any(row_sums <= 0) or np.any(col_sums <= 0):
        raise DegenerateTable("every row and column sum must be positive")
    total = obs.sum()
    expected = np.outer(row_sums, col_sums) / total
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return ChiSquareResult(chi2=chi2, dof=dof, p_value=regularized_gamma_q(dof / 2.0, chi2 / 2.0))
