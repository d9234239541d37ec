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
the exact one to well under 1e-11. It is the largest of the candidate's
terms, one per distinct value of its tail, and the screen evaluates few of
them. Along a tail the empirical and fitted CCDFs never rise, so the terms
at two points bound every term between them from above, and any term found
bounds the distance from below. A grid pass evaluates each candidate at 17
evenly spaced points of its tail. Candidates are then taken in increasing
order of that bound, in batches that double up to 256, until it passes the
best screened distance plus a tolerance. Each round cuts every segment of
the batch once, at an index where a recently screened candidate had its
largest term if one lies inside, else at its midpoint, and drops a segment
once its upper bound cannot raise the candidate's lower bound, or once
that lower bound passes the mark. The finalists are the candidates within
the tolerance of the best, which no order of search changes, so the result
is the one a fit at every candidate gives. Candidates too steep for the
screen to track the exact distance (gamma - 1 above 1e5) are always
finalists. No point is evaluated twice, and the grid pass keeps 17 fitted
values per candidate. On 10^4 to 2 x 10^5 Pareto draws the screen
evaluates 19 to 23 terms per candidate, grid included, where a full screen
evaluates 5,000 on average at 10^4.

In discrete mode the KS distance is the largest gap between the two CCDFs
at the tail's distinct values, and it is found the way the screen bounds a
segment: both CCDFs never rise along the tail, so the gaps at two values
bound every gap between them. The fitted CCDF is evaluated at both ends of
the tail, then segments are bisected, largest bound first, until no bound
passes the largest gap found. The result is the full maximum. In a scan a
candidate's bisection ends as soon as a gap reaches the best distance so
far: that candidate cannot win, since ties go to the smaller x_min, so the
winner's distance is still the full maximum. The fitted CCDF is
``_zeta_ccdf``, the one the sampler ``zeta_samples`` inverts: where
zeta(gamma, x_min) lies below the double range, it takes both zetas in
units of x_min.

The discrete gamma is the root of the likelihood equation, found by
safeguarded Newton steps (``_newton_root``). Each step takes the zeta and
its first two derivatives in one pass (``_zeta_moments``), always in units
of x_min, so none underflows, and the root is within about 1e-15 relative
of the exact MLE. From the approximate MLE of Clauset, Shalizi and Newman (2009, eq.
3.7) a root search takes 3 to 5 passes on the benchmark's count columns
and 1 to 4 on 3,000 draws of floor(U^-20); a pass costs about two zetas.

The math is ported, so that every command needs numpy alone: the Hurwitz
zeta is ``_hurwitz_zeta``, Cephes' ``zeta(x, q)``, which the tests hold to
scipy bit for bit, and ``_zeta_moments`` follows its steps. The chi-square
p-value is a closed form over ``math``.
"""

import bisect
import heapq
import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    DegenerateTable,
    DomainError,
    EmptyInput,
    InsufficientTail,
    checked,
)

DISCRETE = "discrete"
CONTINUOUS = "continuous"
FIT_MODES = (DISCRETE, CONTINUOUS)


# --------------------------------------------------------------------------
# Empirical CCDF
# --------------------------------------------------------------------------


@checked
class CCDFCurve(NamedTuple):
    """An empirical CCDF, checked when made."""

    points: tuple[tuple[float, float], ...]  # (x, P(X >= x)), x strictly increasing

    def _check(self):
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
    """Empirical complementary CDF of finite, non-negative samples: for
    each distinct x, P(X >= x)."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise EmptyInput("ccdf of an empty sample set")
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


@checked
class TailFit(NamedTuple):
    """A power-law tail fit, checked when made."""

    gamma: float  # density exponent, > 1
    x_min: float
    ks: float  # Kolmogorov-Smirnov distance of the accepted fit
    n_tail: int

    def _check(self):
        assert self.gamma > 1.0
        assert self.n_tail >= 2
        assert 0.0 <= self.ks <= 1.0


def _continuous_gamma(tail: np.ndarray, x_min: float) -> float:
    with np.errstate(over="ignore"):  # an overflow is reported below
        log_sum = float(np.sum(np.log(tail / x_min)))
    if not math.isfinite(log_sum):
        raise InsufficientTail("tail spans more than the double range above x_min")
    return 1.0 + tail.size / log_sum


# Cephes' Euler-Maclaurin coefficients (2k)! / B_2k, and the relative size
# of a term at which its sums stop
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16

# The discrete MLE's root lies in (_ROOT_LO, _ROOT_HI]: at _ROOT_LO the
# model's mean of log(x / x_min) is above 9,999 at every x_min, and a double
# sample's is at most log(DBL_MAX), about 709.8. A Newton step shorter than
# _ROOT_TOL relative is the last: the error left after it is about its
# square.
_ROOT_LO = 1.0 + 1e-4
_ROOT_HI = 2.0**20
_ROOT_TOL = 1e-10
_ROOT_STEPS = 100


def _hurwitz_zeta(x: float, q: float, unit: float = 1.0) -> float:
    """The Hurwitz zeta in units of ``unit``, the sum of ((q + k) / unit)^-x
    over k >= 0, for x > 1 and q >= 1: Cephes' ``zeta(x, q)`` (Moshier,
    Methods and Programs for Mathematical Functions, 1989) step for step,
    each power by libm's pow, so at ``unit`` 1 the bits of
    ``scipy.special.zeta``. At ``unit`` q the first term is 1, so a zeta far
    below the double range is still taken."""
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q / unit, 1 - x) * unit
    # direct sum of at least 9 terms, until q + i passes 9
    s = math.pow(q / unit, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a / unit, -x)
        s += b
        # once the sum underflows to 0, C compares a NaN here: false
        if s and abs(b / s) < _MACHEP:
            return s
    # Euler-Maclaurin for the rest
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s = s + t
        if s and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _zeta_moments(x: float, q: float) -> tuple[float, float, float]:
    """The Hurwitz zeta and its first two derivatives in x, in one pass, as
    the sums over k >= 0 of t_k, l_k t_k and l_k^2 t_k, where t_k is
    ((q + k) / q)^-x and l_k is log((q + k) / q). So the first is
    zeta(x, q) q^x, the second -d/dx and the third d2/dx2 of it, and none
    underflows: t_0 is 1. Each l_k is log1p(k / q), exact to rounding
    however large q is, and t_k is exp(-x l_k): a power of the rounded
    (q + k) / q would be x ulps off. The steps are those of
    ``_hurwitz_zeta`` in units of q, with each stopping test watching all
    three sums; the Euler-Maclaurin terms are differentiated in closed
    form."""
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43, and its derivatives
        return q / (x - 1) + 0.5, q / (x - 1) ** 2, 2 * q / (x - 1) ** 3
    s0, s1, s2 = 1.0, 0.0, 0.0  # l_0 is 0
    a = q
    i = 0
    b = l = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        l = math.log1p((a - q) / q)
        b = math.exp(-x * l)
        bl = b * l
        s0 += b
        s1 += bl
        s2 += bl * l
        # every term is non-negative, and once one underflows so do the rest
        if b <= _MACHEP * s0 and bl <= _MACHEP * s1 and bl * l <= _MACHEP * s2:
            return s0, s1, s2
    # Euler-Maclaurin for the rest. The integral b w / (x - 1) has the log
    # derivative -(l + 1 / (x - 1)). A coefficient term b x (x + 1) ...
    # (x + m - 1) / (w^m A) has h1 - l, where h1 sums 1 / (x + j) over its
    # factors, and h1 has the derivative -h2, the sum of their squares.
    w = a
    c = 1.0 / (x - 1.0)
    t = b * w * c
    s0 += t - 0.5 * b
    s1 += t * (l + c) - 0.5 * b * l
    s2 += t * ((l + c) ** 2 + c * c) - 0.5 * b * l * l
    a = 1.0
    k = 0.0
    h1 = h2 = 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        h1 += 1.0 / (x + k)
        h2 += 1.0 / (x + k) ** 2
        b /= w
        t = a * b / coefficient
        d1 = l - h1  # minus the log derivative
        t1, t2 = t * d1, t * (d1 * d1 - h2)
        s0 += t
        s1 += t1
        s2 += t2
        if abs(t) < _MACHEP * abs(s0) and abs(t1) < _MACHEP * abs(s1) and abs(t2) < _MACHEP * abs(s2):
            break
        k += 1.0
        a *= x + k
        h1 += 1.0 / (x + k)
        h2 += 1.0 / (x + k) ** 2
        b /= w
        k += 1.0
    return s0, s1, s2


def _newton_root(f, lo: float, hi: float, x: float, xtol: float, rtol: float) -> float:
    """A root in [lo, hi] of f, which rises through it, by safeguarded
    Newton steps from ``x``; f(x) gives its value and slope. The bracket is
    narrowed by the signs seen, and an end of it is evaluated only when a
    step would pass it. A step that would leave a bracket whose ends are
    seen, or a slope that is not positive, bisects instead. A Newton step no
    longer than xtol + rtol |x| is the last: near a simple root the error
    left after it is about its square. A bisection of a bracket twice that
    long is the last too."""
    lo_seen = hi_seen = False  # whether f has been taken at that end
    x = min(max(x, lo), hi)
    for _ in range(_ROOT_STEPS):
        value, slope = f(x)
        if value == 0.0:
            return x
        if value < 0.0:
            lo, lo_seen = x, True
        else:
            hi, hi_seen = x, True
        tol = xtol + rtol * abs(x)
        nxt = x - value / slope if slope > 0.0 else math.nan
        if nxt <= lo and not lo_seen:
            nxt = lo
        elif nxt >= hi and not hi_seen:
            nxt = hi
        elif lo <= nxt <= hi:
            if abs(nxt - x) <= tol:
                return nxt
        else:  # a step out of the bracket, or none
            nxt = 0.5 * (lo + hi)
            if hi - lo <= 2 * tol:
                return nxt
        x = nxt
    raise RuntimeError(f"root search failed to converge after {_ROOT_STEPS} steps, value is {x}")


def _discrete_gamma(tail: np.ndarray, x_min: int) -> float:
    """Exact discrete MLE: the root of g(gamma) = mean(log(x / x_min)) minus
    the model's mean of it, S1 / S0 from ``_zeta_moments``. g rises, with
    slope the model's variance of log x, S2 / S0 - (S1 / S0)^2. Its Newton
    steps (``_newton_root``) start at the approximate MLE
    1 + n / sum(log(x / (x_min - 1/2))) (Clauset, Shalizi and Newman 2009,
    eq. 3.7). The root must lie in (1 + 1e-4, 2^20]: an end of that range
    is evaluated only when a step would pass it."""
    mean_log = float(np.mean(np.log(tail)))
    if mean_log <= math.log(x_min) + 1e-12:
        raise InsufficientTail("tail has no spread above x_min")
    q = float(x_min)
    target = float(np.mean(np.log1p((tail - q) / q)))

    def g(gamma: float) -> tuple[float, float]:
        s0, s1, s2 = _zeta_moments(gamma, q)
        mean = s1 / s0
        value = target - mean
        if gamma == _ROOT_HI and value < 0.0:
            raise InsufficientTail("tail too concentrated at x_min for a discrete fit")
        return value, s2 / s0 - mean * mean

    with np.errstate(over="ignore"):  # a sum that overflows is taken again below
        log_sum = float(np.sum(np.log(tail / (q - 0.5))))
    if math.isinf(log_sum):  # a value above about DBL_MAX * (x_min - 1/2)
        log_sum = tail.size * (mean_log - math.log(q - 0.5))
    start = 1.0 + tail.size / log_sum
    return _newton_root(g, _ROOT_LO, _ROOT_HI, start, 0.0, _ROOT_TOL)


def _ks_distance(tail: np.ndarray, gamma: float, x_min: float, mode: str, stop: float = math.inf) -> float:
    """KS distance of the fit to the sorted ``tail``. A discrete distance
    that reaches ``stop`` may be returned as any gap at or above ``stop``."""
    values, at_least = _at_least(tail)
    emp = at_least / tail.size  # P(X >= v) at observed values
    if mode == DISCRETE:
        # both curves are step functions jumping at integers; the observed
        # support points carry the supremum
        return _discrete_ks(values.tolist(), emp.tolist(), gamma, x_min, stop)
    fit = (values / x_min) ** (-(gamma - 1.0))
    d_at = float(np.max(np.abs(emp - fit)))
    # continuous fit: just above each observed value the empirical CCDF has
    # already dropped to the next level while the fitted curve moves smoothly
    emp_after = np.concatenate([emp[1:], [0.0]])
    d_between = float(np.max(np.abs(emp_after - fit)))
    return max(d_at, d_between)


def _zeta_ccdf(gamma: float, x_min: float):
    """The zeta CCDF P(X >= v) = zeta(gamma, v) / zeta(gamma, x_min), as a
    function of v >= x_min that takes each value once. Where
    zeta(gamma, x_min) lies below the double range, both zetas are taken
    in units of x_min. At x_min it is norm / norm, exactly 1.0, and no
    zeta is taken again."""
    unit = 1.0
    norm = _hurwitz_zeta(gamma, x_min)
    if not norm:
        unit = x_min
        norm = _hurwitz_zeta(gamma, x_min, unit)

    @cache
    def at(v: float) -> float:
        return 1.0 if v == x_min else _hurwitz_zeta(gamma, v, unit) / norm

    return at


def _discrete_ks(values: list[float], emp: list[float], gamma: float, x_min: float, stop: float = math.inf) -> float:
    """The largest of |emp[i] - fit(values[i])| over the distinct tail
    ``values``, where fit is the zeta CCDF (``_zeta_ccdf``). Neither curve
    rises along the tail, so at p < i < q the gap is at most the larger of
    emp[p + 1] - fit(values[q]) and fit(values[p]) - emp[q - 1], as in
    _Screen.upper. The fit is taken at both ends of the tail, then segments
    are bisected, largest bound first, until no bound plus _SCAN_SLACK
    passes the largest gap found: that gap is the maximum over every value,
    bit for bit. Once the largest gap found reaches ``stop`` the bisection
    ends early, and that gap, at least ``stop``, is returned instead."""
    fit = _zeta_ccdf(gamma, x_min)

    def gap(i: int) -> float:
        return abs(emp[i] - fit(values[i]))

    def push(p: int, q: int) -> None:
        if q - p > 1:
            bound = max(emp[p + 1] - fit(values[q]), fit(values[p]) - emp[q - 1]) + _SCAN_SLACK
            if bound > best:
                heapq.heappush(segments, (-bound, p, q))

    last = len(values) - 1
    best = max(gap(0), gap(last))
    segments = []  # (-bound, p, q): the largest bound first
    push(0, last)
    while segments and -segments[0][0] > best and best < stop:
        _, p, q = heapq.heappop(segments)
        m = (p + q) // 2
        best = max(best, gap(m))
        push(p, m)
        push(m, q)
    return best


def _fit_at(tail: np.ndarray, x_min: float, mode: str, stop: float = math.inf) -> TailFit:
    """The fit at ``x_min`` to the sorted ``tail``. A discrete fit whose KS
    distance reaches ``stop`` may carry any gap at or above ``stop`` as its
    ``ks``: a scan passes the best distance so far, which it cannot beat."""
    if tail.min() == tail.max():
        raise InsufficientTail("constant tail has no usable spread")
    if mode == CONTINUOUS:
        gamma = _continuous_gamma(tail, x_min)
    else:
        gamma = _discrete_gamma(tail, int(x_min))
    return TailFit(
        gamma=gamma,
        x_min=float(x_min),
        ks=_ks_distance(tail, gamma, x_min, mode, stop),
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
    arr = np.sort(np.asarray(samples, dtype=float))
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
_SCAN_CHUNK = 1 << 16  # elements per temporary array
_SCAN_GRID = 16  # segments of each tail in the grid pass
_SCAN_BATCH = 256  # most candidates refined at once; the segments held grow with it
_SCAN_HOT = 16  # indices of recent largest terms, where segments are cut first
# A segment bound assumes the fitted CCDF never rises along the tail; np.log
# and np.exp, and the rounding of a zeta ratio in _discrete_ks, can break
# that by an ulp or so.
_SCAN_SLACK = 1e-12
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
    non-negative terms, so no cancellation. Its screened distance is the
    largest of its terms at j = k .. values.size - 1.
    """

    def __init__(self, values: np.ndarray, above: np.ndarray):
        self.values = values
        self.above = above
        self.after = np.append(above[1:], 0)
        with np.errstate(over="ignore"):  # only below a candidate _scan drops
            gaps = above[1:] * np.log1p(np.diff(values) / values[:-1])
        self.slope = above[:-1] / np.cumsum(gaps[::-1])[::-1]  # defined for k < values.size - 1

    def terms(self, k: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """KS term of candidate k[i] at values[j[i]], and its fitted CCDF
        there. Every caller goes through this one expression, so a term has
        the same bits wherever it is taken."""
        m = self.above[k]
        fit = np.exp(-self.slope[k] * np.log(self.values[j] / self.values[k]))
        return np.maximum(self.above[j] / m - fit, fit - self.after[j] / m), fit

    def upper(self, k, p, q, fit_p, fit_q) -> np.ndarray:
        """Upper bound on candidate k's terms strictly between values[p] and
        values[q], from its fitted CCDF at both. Along a tail the empirical
        CCDF, the one just past a value and the fitted one never rise, so
        at p < j < q the term is at most the larger of ``after[p] / m -
        fit_q`` and ``fit_p - above[q] / m``."""
        m = self.above[k]
        return np.maximum(self.after[p] / m - fit_q, fit_p - self.above[q] / m) + _SCAN_SLACK

    def grid_points(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A row per candidate: _SCAN_GRID + 1 evenly spaced indices into its
        tail, both ends included, or the whole tail where that is shorter;
        and which entries of the row are points."""
        n = self.values.size - ks[:, None]
        width = np.minimum(n, _SCAN_GRID + 1)
        r = np.arange(_SCAN_GRID + 1)
        return np.minimum(ks[:, None] + r * (n - 1) // (width - 1), self.values.size - 1), r < width

    def grid(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grid pass. Returns each candidate's fitted CCDF at its
        grid points (NaN past a short tail's end), the largest of its terms
        there, a lower bound on its screened distance, and where it lies."""
        fits = np.full((ks.size, _SCAN_GRID + 1), np.nan)
        lower = np.empty(ks.size)
        where = np.empty(ks.size, dtype=np.intp)
        step = max(1, _SCAN_CHUNK // (_SCAN_GRID + 1))
        for lo in range(0, ks.size, step):
            k = ks[lo : lo + step]
            j, valid = self.grid_points(k)
            row = np.full(j.shape, -np.inf)
            row[valid], fits[lo : lo + step][valid] = self.terms(np.broadcast_to(k[:, None], j.shape)[valid], j[valid])
            top = row.argmax(axis=1)[:, None]
            lower[lo : lo + step] = np.take_along_axis(row, top, 1)[:, 0]
            where[lo : lo + step] = np.take_along_axis(j, top, 1)[:, 0]
        return fits, lower, where

    def segments(self, ks: np.ndarray, rows: np.ndarray, fits: np.ndarray) -> list[np.ndarray]:
        """The open segments between consecutive grid points of candidates
        ``ks[rows]`` that hold a point, given their grid ``fits``: row in
        ks, ends p < q, and fitted CCDF at both."""
        j, valid = self.grid_points(ks[rows])
        pair = valid[:, 1:] & (j[:, 1:] - j[:, :-1] > 1)
        slot = rows[np.nonzero(pair)[0]]
        ends = j[:, :-1][pair], j[:, 1:][pair], fits[:, :-1][pair], fits[:, 1:][pair]
        return [slot, *ends]

    def evaluate(self, ks, lower, where, at, j) -> np.ndarray:
        """Evaluate candidate ks[at[i]] at values[j[i]], raising its lower
        bound to the largest term found and ``where`` to that term's index.
        Returns the fitted CCDF at each point."""
        term, fit = self.terms(ks[at], j)
        np.maximum.at(lower, at, term)
        top = term == lower[at]
        where[at[top]] = j[top]
        return fit


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
            # a candidate whose distance reaches the best so far loses, as
            # ties go to the smaller x_min, so its distance is not finished
            fit = _fit_at(arr[arr.size - above[k] :], float(values[k]), mode, math.inf if best is None else best.ks)
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
    distance is within well under _SCAN_TOL of its exact distance.

    Candidates are taken in increasing order of their grid bound, in
    batches as large as the number already taken, up to _SCAN_BATCH, until
    that bound passes the best screened distance plus _SCAN_TOL. Each round
    drops every segment that cannot raise its candidate's lower bound, and
    every segment of a candidate whose lower bound has passed that mark,
    then cuts each segment left once: at the middle hot index inside it if
    there is one, else at its midpoint. Once a batch has no segment left,
    each of its candidates has its screened distance as its lower bound,
    or a lower bound past the mark. So the finalists do not depend on the
    batches or the cuts, only on never dropping a segment that could hold
    a candidate's largest term."""
    screen = _Screen(values, above)
    steep = screen.slope[cand] > _SCAN_MAX_SLOPE
    ks = cand[~steep]
    fits, lower, where = screen.grid(ks)  # lower and where follow the terms found
    order = np.argsort(lower, kind="stable")
    best = np.inf  # smallest screened distance so far
    # Neighbouring candidates mostly have their largest terms at the same
    # few indices, so a segment is cut first at an index where one of the
    # candidates screened last had its largest term.
    recent = []
    pos = 0  # the candidates not yet taken still have their grid bounds as lower
    while pos < ks.size and lower[order[pos]] <= best + _SCAN_TOL:
        rows = order[pos : pos + min(max(pos, 1), _SCAN_BATCH)]
        pos += rows.size
        hot = np.append(np.sort(np.array(recent, dtype=np.intp)), values.size)  # the end never lies inside a segment
        mark = best + _SCAN_TOL
        # segments: row in ks, ends p < q, and fitted CCDF at both
        segs = screen.segments(ks, rows, fits[rows])
        while True:
            slot, p, q, fit_p, fit_q = segs
            keep = (screen.upper(ks[slot], p, q, fit_p, fit_q) > lower[slot]) & (lower[slot] <= mark)
            if not keep.any():
                break
            slot, p, q, fit_p, fit_q = segs = [s[keep] for s in segs]
            lo, hi = np.searchsorted(hot, p, side="right"), np.searchsorted(hot, q, side="left")
            cut = np.where(hi > lo, hot[(lo + hi) // 2], (p + q) // 2)
            fit = screen.evaluate(ks, lower, where, slot, cut)
            # the halves that hold a point; unpacking them at the next round
            # frees this round's arrays before the new bounds are taken
            left, right = cut - p > 1, q - cut > 1
            halves = zip((slot, p, cut, fit_p, fit), (slot, cut, q, fit, fit_q))
            segs = [np.concatenate((a[left], b[right])) for a, b in halves]
        best = min(best, float(lower[rows].min()))
        recent = list(dict.fromkeys(where[rows].tolist() + recent))[:_SCAN_HOT]
    # a candidate not taken has its grid bound past the mark, and one
    # dropped in its batch a lower bound past it
    finalist = steep.copy()
    finalist[~steep] = lower <= best + _SCAN_TOL
    return cand[finalist]


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


# the most CCDF points zeta_samples takes one by one from x_min
_ZETA_DENSE = 4096


def zeta_samples(n: int, gamma: float, x_min: int = 1, rng=None, support_cap: int = 10**6) -> np.ndarray:
    """Discrete power-law samples drawn from the exact zeta weights.

    Inverse transform over P(X >= k) = zeta(gamma, k) / zeta(gamma, x_min)
    for integer k, truncated at support_cap (the truncated mass is far below
    1/n for the exponents used here): a draw u gives the largest k <=
    support_cap with P(X >= k) > u (Clauset, Shalizi and Newman 2009,
    appendix D). The CCDF (``_zeta_ccdf``) is taken at every k from x_min
    until it falls to the smallest draw, for at most _ZETA_DENSE points.
    A draw below the CCDF at the cap is the cap, and any other draw past
    those points is found by bisection. So the cost follows the draws
    rather than the cap, and as the CCDF never rises, every draw is the one
    a CCDF over the whole support gives.
    """
    if not (math.isfinite(gamma) and gamma > 1.0):
        raise DomainError(f"zeta_samples requires a finite gamma > 1, got {gamma}")
    if not (math.isfinite(x_min) and x_min >= 1 and int(x_min) == x_min):
        raise DomainError(f"x_min must be an integer >= 1, got {x_min}")
    if x_min > support_cap:
        raise DomainError(f"x_min={x_min} is above the support cap {support_cap}")
    x_min = int(x_min)
    rng = np.random.default_rng() if rng is None else rng
    u = rng.random(n)
    lowest = u.min(initial=1.0)
    tail_p = _zeta_ccdf(gamma, x_min)
    dense = []
    for k in range(x_min, min(x_min + _ZETA_DENSE, support_cap + 1)):
        dense.append(tail_p(k))
        if dense[-1] <= lowest:
            break
    # every u is below P(X >= x_min) = 1, so each count is at least 1
    counts = np.searchsorted(-np.array(dense), -u, side="left")
    draws = (x_min + counts - 1).astype(float)
    last = x_min + len(dense) - 1
    past = np.flatnonzero(counts == len(dense))  # draws below the CCDF at every dense point
    if last < support_cap and past.size:
        capped = u[past] < tail_p(support_cap)
        draws[past[capped]] = support_cap
        past = past[~capped]
        support = range(last + 1, support_cap + 1)

        def minus_p(k: int) -> float:
            return -tail_p(k)

        for i, minus_u in zip(past.tolist(), (-u[past]).tolist()):
            # the first k past the dense points with P(X >= k) <= u
            draws[i] = support[bisect.bisect_left(support, minus_u, key=minus_p)] - 1
    return draws


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


@checked
class ChiSquareResult(NamedTuple):
    """A chi-square independence test's result, checked when made."""

    chi2: float
    dof: int
    p_value: float

    def _check(self):
        assert self.chi2 >= 0.0
        assert self.dof >= 1
        assert 0.0 <= self.p_value <= 1.0


def chi_square_independence(table) -> ChiSquareResult:
    """Pearson chi-square test of independence on an R x C count table."""
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise DegenerateTable("need a table with at least 2 rows and 2 columns")
    row_sums = obs.sum(axis=1)
    col_sums = obs.sum(axis=0)
    if np.any(row_sums <= 0) or np.any(col_sums <= 0):
        raise DegenerateTable("every row and column sum must be positive")
    total = obs.sum()
    expected = np.outer(row_sums, col_sums) / total
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return ChiSquareResult(chi2=chi2, dof=dof, p_value=_chi2_sf(chi2, dof))


def _chi2_sf(chi2: float, dof: int) -> float:
    """P(X >= chi2) for X chi-square with ``dof`` degrees of freedom: the
    regularized upper incomplete gamma Q(dof / 2, y) at y = chi2 / 2, in
    closed form. Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1), from
    Q(1, y) = e^-y for even dof and Q(1/2, y) = erfc(sqrt(y)) for odd dof:
    a sum of positive terms, each taken as the exp of its log so that a
    large dof neither overflows nor underflows. At dof 2 it is exactly
    exp(-y)."""
    y = chi2 / 2.0
    if y == 0.0:
        return 1.0
    half = (dof % 2) / 2.0
    log_y = math.log(y)
    terms = [math.exp((j + half) * log_y - y - math.lgamma(j + half + 1.0)) for j in range(dof // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))
