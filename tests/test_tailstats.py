import contextlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from typing import NamedTuple
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultgraph import tailstats
from faultgraph.errors import (
    DegenerateInput,
    DegenerateTable,
    DomainError,
    EmptyInput,
    InputError,
    InsufficientTail,
)
from faultgraph.tailstats import (
    DISCRETE,
    CCDFCurve,
    ChiSquareResult,
    TailFit,
    _SCAN_MAX_SLOPE,
    _SCAN_TOL,
    _at_least,
    _continuous_gamma,
    _fit_at,
    _ks_distance,
    _scan,
    _Screen,
    ccdf,
    chi_square_independence,
    expected_max,
    fit_power_law_tail,
    loglog_slope,
    pareto_samples,
    pearson,
    zeta_samples,
)

# -- the records -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: TailFit(1.0, 1.0, 0.1, 10),
        lambda: TailFit(2.0, 1.0, 0.1, 1),
        lambda: TailFit(gamma=2.0, x_min=1.0, ks=1.5, n_tail=10),
        lambda: CCDFCurve(((1.0, 1.0), (1.0, 0.5))),
        lambda: CCDFCurve(((1.0, 1.0), (2.0, 0.5), (3.0, 0.75))),
        lambda: CCDFCurve(points=((1.0, 0.5), (2.0, 0.25))),
        lambda: CCDFCurve(()),
        lambda: ChiSquareResult(-1.0, 1, 0.5),
        lambda: ChiSquareResult(1.0, 0, 0.5),
        lambda: ChiSquareResult(chi2=1.0, dof=1, p_value=1.5),
    ],
)
def test_a_statistics_record_rejects_a_bad_field(make):
    with pytest.raises(AssertionError):
        make()


@pytest.mark.parametrize(
    "record",
    [TailFit(2.0, 1.0, 0.1, 10), CCDFCurve(((1.0, 1.0), (2.0, 0.5))), ChiSquareResult(1.0, 1, 0.5)],
    ids=lambda r: type(r).__name__,
)
def test_a_statistics_record_is_immutable_and_hashable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.note = "no such field"
    assert hash(record) == hash(type(record)(*record))


# -- ccdf ----------------------------------------------------------------------


def test_ccdf_direct_count():
    curve = ccdf([1, 1, 2, 4])
    assert curve.points == ((1.0, 1.0), (2.0, 0.5), (4.0, 0.25))


def test_ccdf_constant_samples():
    curve = ccdf([3.5, 3.5, 3.5])
    assert curve.points == ((3.5, 1.0),)


def test_ccdf_empty_input():
    with pytest.raises(EmptyInput):
        ccdf([])


tied_floats = st.lists(
    st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 3.7, 1e300]) | st.floats(0.0, 1e6), min_size=1, max_size=200
)


@given(tied_floats)
def test_at_least_matches_unique_counts(samples):
    arr = np.sort(np.asarray(samples))
    values, at_least = _at_least(arr)
    ref_values, counts = np.unique(arr, return_counts=True)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(at_least, np.cumsum(counts[::-1])[::-1])


@given(tied_floats)
def test_ccdf_matches_unique_counts_bit_for_bit(samples):
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    ps = np.cumsum(counts[::-1])[::-1] / len(samples)
    assert ccdf(samples).points == tuple((float(x), float(p)) for x, p in zip(values, ps))


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
def test_ccdf_invariants(samples):
    curve = ccdf(samples)
    ps = [p for _, p in curve.points]
    xs = [x for x, _ in curve.points]
    assert ps[0] == 1.0
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_ccdf_synthetic_slope_matches_ccdf_exponent():
    # log-log slope of the empirical CCDF of Pareto samples approximates
    # -(gamma - 1)
    rng = np.random.default_rng(0)
    xs = pareto_samples(1000, 2.5, 1.0, rng)
    slope = loglog_slope(ccdf(xs))
    assert abs(slope - (-1.5)) <= 0.15


def test_loglog_slope_window():
    curve = ccdf([1, 2, 4, 8, 16])
    full = loglog_slope(curve)
    windowed = loglog_slope(curve, x_lo=2, x_hi=8)
    assert full != windowed  # window actually restricts the regression
    with pytest.raises(DegenerateInput):
        loglog_slope(curve, x_lo=15)


def test_loglog_slope_of_two_x_values_with_one_log_is_degenerate():
    # adjacent doubles near 1e300 differ by 1e-16 relative, far below an
    # ulp of their log, about 690.8
    x = 1e300
    with pytest.raises(DegenerateInput, match="collapse to one point"):
        loglog_slope(ccdf([x, math.nextafter(x, math.inf)]))


# -- power-law fitting ---------------------------------------------------------


def test_continuous_mle_recovers_exponent():
    rng = np.random.default_rng(2)
    xs = pareto_samples(20_000, 2.5, 1.0, rng)
    fit = fit_power_law_tail(xs, mode="continuous", x_min=1.0)
    assert 2.45 <= fit.gamma <= 2.55
    assert fit.n_tail == 20_000
    assert fit.ks < 0.02


def test_discrete_mle_recovers_exponent():
    rng = np.random.default_rng(2)
    xs = zeta_samples(20_000, 3.0, 1, rng)
    fit = fit_power_law_tail(xs, mode="discrete", x_min=1)
    assert 2.9 <= fit.gamma <= 3.1
    assert fit.ks < 0.02


def test_constant_samples_flagged_unusable():
    with pytest.raises(InsufficientTail):
        fit_power_law_tail([2.0] * 100, mode="continuous", x_min=2.0)
    with pytest.raises(InsufficientTail):
        fit_power_law_tail([3] * 100, mode="discrete", x_min=3)


def test_insufficient_tail_with_fixed_x_min():
    with pytest.raises(InsufficientTail):
        fit_power_law_tail([1, 2, 3] * 10, mode="discrete", x_min=1)


def test_insufficient_tail_when_no_candidate_qualifies():
    with pytest.raises(InsufficientTail):
        fit_power_law_tail([1, 2] * 10, mode="discrete")


def test_domain_errors():
    with pytest.raises(DomainError):
        fit_power_law_tail([0.0, 1.0] * 50, mode="continuous", x_min=1.0)
    with pytest.raises(DomainError):
        fit_power_law_tail([1.5] * 100, mode="discrete", x_min=1)
    with pytest.raises(DomainError):
        fit_power_law_tail([1.0] * 100, mode="pareto")
    with pytest.raises(EmptyInput):
        fit_power_law_tail([], mode="discrete")
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            fit_power_law_tail([1.0, 2.0] * 50, mode="continuous", x_min=bad)


def test_scan_recovers_planted_x_min():
    rng = np.random.default_rng(42)
    body = rng.uniform(1.0, 5.0, 4000)
    tail = pareto_samples(2000, 2.5, 5.0, rng)
    fit = fit_power_law_tail(np.concatenate([body, tail]), mode="continuous")
    assert 4.0 <= fit.x_min <= 6.0
    assert 2.3 <= fit.gamma <= 2.8


def test_scan_minimizes_ks_with_ties_toward_smaller_x_min():
    rng = np.random.default_rng(9)
    xs = zeta_samples(800, 2.4, 1, rng)
    best = fit_power_law_tail(xs, mode="discrete", min_tail=50)
    for v in np.unique(xs):
        arr = xs[xs >= v]
        if arr.size < 50 or np.unique(arr).size < 2:
            continue
        other = fit_power_law_tail(xs, mode="discrete", x_min=int(v), min_tail=50)
        assert best.ks <= other.ks + 1e-15
        if other.ks == best.ks:
            assert best.x_min <= other.x_min


def test_fit_invariance_under_rescaling():
    rng = np.random.default_rng(3)
    xs = pareto_samples(1000, 2.5, 1.0, rng)
    base = fit_power_law_tail(xs, mode="continuous", x_min=1.0)
    for k in (0.25, 7.5, 1000.0):
        scaled = fit_power_law_tail(xs * k, mode="continuous", x_min=k)
        assert abs(scaled.gamma - base.gamma) < 1e-12


def test_estimator_consistency_bias_shrinks_with_n():
    errs = []
    for n in (10**3, 10**4, 10**5):
        rng = np.random.default_rng(1)
        xs = pareto_samples(n, 2.5, 1.0, rng)
        fit = fit_power_law_tail(xs, mode="continuous", x_min=1.0)
        errs.append(abs(fit.gamma - 2.5))
    assert errs[0] > errs[1] > errs[2]


def test_zeta_sampler_matches_exact_weights():
    rng = np.random.default_rng(5)
    xs = zeta_samples(200_000, 3.0, 1, rng)
    values, counts = np.unique(xs, return_counts=True)
    emp = dict(zip(values.astype(int), counts / xs.size))
    z = scipy.special.zeta(3.0, 1.0)
    for k in (1, 2, 3, 5):
        assert abs(emp[k] - (k**-3.0) / z) < 5e-3


def scan_every_candidate(xs, min_tail=50, max_candidates=None, mode="continuous"):
    """Brute-force oracle: fit at every candidate x_min, keep the smallest
    KS distance, ties to the smaller x_min."""
    arr = np.sort(np.asarray(xs, dtype=float))
    candidates = np.unique(arr)
    viable = [float(v) for v in candidates if arr.size - np.searchsorted(arr, v, side="left") >= min_tail]
    if max_candidates is not None and len(viable) > max_candidates:
        idx = np.linspace(0, len(viable) - 1, max_candidates).round().astype(int)
        viable = [viable[i] for i in sorted(set(idx.tolist()))]
    best = None
    for v in viable:
        try:
            fit = _fit_at(arr[arr >= v], v, mode)
        except InsufficientTail:
            continue
        if best is None or fit.ks < best.ks:
            best = fit
    return best


def planted_body_and_tail(seed=42):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(1.0, 5.0, 4000), pareto_samples(2000, 2.5, 5.0, rng)])


def two_digit_ties(seed=6):
    xs = pareto_samples(3000, 2.2, 1.0, np.random.default_rng(seed))
    return np.array([float(f"{v:.2g}") for v in xs])


def clustered(seed=13):
    # within a relative 1e-6 of 1e6: the steepest candidates are fitted
    # outright, the rest screened
    return 1e6 * (1.0 + 1e-6 * pareto_samples(1500, 2.5, 1.0, np.random.default_rng(seed)))


def wide_range(seed=12):
    # 1e5 draws spanning twelve decades
    return np.minimum(pareto_samples(100_000, 1.4, 1.0, np.random.default_rng(seed)), 1e12)


def comb(teeth, seed=0):
    # ``teeth`` log-spaced values over twenty e-folds, each repeated 50 times
    # with 1e-9 relative jitter: a shape the screen once took superlinear work on
    rng = np.random.default_rng(seed)
    return np.repeat(np.exp(np.linspace(0.0, 20.0, teeth)), 50) * (1.0 + 1e-9 * rng.random(50 * teeth))


@pytest.mark.parametrize("gamma", [1.5, 2.5, 3.5])
def test_continuous_scan_matches_oracle_on_pure_pareto(gamma):
    xs = pareto_samples(2000, gamma, 1.0, np.random.default_rng(21))
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)


@pytest.mark.parametrize(
    "xs",
    [
        planted_body_and_tail(),
        two_digit_ties(),
        pareto_samples(53, 2.5, 1.0, np.random.default_rng(8)),
        clustered(),
        comb(50),
    ],
    ids=["planted", "ties", "just-above-min-tail", "clustered", "comb"],
)
def test_continuous_scan_matches_oracle(xs):
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)


@pytest.mark.parametrize("scale", [1e-3, 7.5, 1e6])
def test_continuous_scan_matches_oracle_on_rescaled_input(scale):
    xs = pareto_samples(2000, 2.5, 1.0, np.random.default_rng(3)) * scale
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)


def test_continuous_scan_matches_oracle_on_wide_range():
    # the oracle fits 100 evenly spaced candidates, and the scan gets the same
    xs = wide_range()
    arr = np.sort(xs)
    values, above = _at_least(arr)
    cand = np.flatnonzero(above >= 50)
    cand = cand[np.unique(np.linspace(0, cand.size - 1, 100).round().astype(int))]
    assert _scan(arr, values, above, cand, "continuous") == scan_every_candidate(xs, max_candidates=100)


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=150), st.integers(2, 30))
def test_continuous_scan_matches_oracle_on_small_samples(exponents, min_tail):
    xs = [1.3 ** (e / 3) for e in exponents]  # ties and uneven gaps
    expected = scan_every_candidate(xs, min_tail=min_tail)
    if expected is None:
        with pytest.raises(InsufficientTail):
            fit_power_law_tail(xs, mode="continuous", min_tail=min_tail)
    else:
        assert fit_power_law_tail(xs, mode="continuous", min_tail=min_tail) == expected


def test_continuous_scan_ties_go_to_smaller_x_min():
    # x_min = 1 and x_min = 2 both put half their tail at x_min, and that
    # step is each one's KS distance: exactly 0.5
    xs = [1.0] * 100 + [2.0] * 50 + [3.0] * 50
    fit = fit_power_law_tail(xs, mode="continuous")
    assert fit.ks == fit_power_law_tail(xs, mode="continuous", x_min=2.0).ks == 0.5
    assert fit.x_min == 1.0
    assert fit == scan_every_candidate(xs)


def top_cluster(seed=0):
    # 1000 draws capped at 500 below 60 within a relative 1e-10 of 1e3
    rng = np.random.default_rng(seed)
    body = np.minimum(pareto_samples(1000, 2.5, 1.0, rng), 500.0)
    return np.concatenate([body, 1e3 * (1.0 + 1e-10 * pareto_samples(60, 2.5, 1.0, rng))])


def screen_of(xs):
    """Sorted samples, distinct values, every candidate but the last, and
    their screen."""
    arr = np.sort(xs)
    values = np.unique(arr)
    above = arr.size - np.searchsorted(arr, values, side="left")
    return arr, values, np.flatnonzero(above >= 50)[:-1], _Screen(values, above)


def tail_terms(screen, k):
    """Every term of candidate k, at j = k .. values.size - 1, and its fitted
    CCDF there."""
    j = np.arange(k, screen.values.size)
    return screen.terms(np.full(j.size, k), j)


def screened_distances(screen, cand):
    """Reference screened distances: the largest of each candidate's terms,
    all of them evaluated."""
    return np.array([tail_terms(screen, k)[0].max() for k in cand.tolist()])


def exact_distances(arr, values, cand):
    out = []
    for k in cand.tolist():
        tail, x_min = arr[arr >= values[k]], float(values[k])
        out.append(_ks_distance(tail, _continuous_gamma(tail, x_min), x_min, "continuous"))
    return np.array(out)


def ulp_runs(seed=4):
    # 300 Pareto draws, each followed by its next seven doubles
    v = pareto_samples(300, 2.5, 1.0, np.random.default_rng(seed))
    runs = [v]
    for _ in range(7):
        v = np.nextafter(v, np.inf)
        runs.append(v)
    return np.concatenate(runs)


def assert_segment_bounds_hold(screen, k, term, fit):
    """Every segment of candidate k's tail whose ends are adjacent grid
    points, the halves of a segment between them, or two apart: its upper
    bound is at least its largest term."""
    j, valid = screen.grid_points(np.array([k]))
    grid = j[valid]
    mid = (grid[:-1] + grid[1:]) // 2
    p = np.concatenate([grid[:-1], grid[:-1], mid])
    q = np.concatenate([grid[1:], mid, grid[1:]])
    p, q = p[q - p > 1], q[q - p > 1]
    largest = [term[a - k + 1 : b - k].max() for a, b in zip(p.tolist(), q.tolist())]
    # every single point between its neighbours
    p = np.concatenate([p, np.arange(k, screen.values.size - 2)])
    q = np.concatenate([q, np.arange(k + 2, screen.values.size)])
    largest = np.concatenate([largest, term[1:-1]])
    assert np.all(largest <= screen.upper(np.full(p.size, k), p, q, fit[p - k], fit[q - k]))


@pytest.mark.parametrize(
    "xs, max_candidates",
    [
        (pareto_samples(2000, 2.5, 1.0, np.random.default_rng(21)), None),
        (two_digit_ties(), None),
        (ulp_runs(), None),
        (wide_range(), 100),
    ],
    ids=["pareto", "ties", "ulp-runs", "wide-range"],
)
def test_screened_distance_tracks_exact_distance(xs, max_candidates):
    # and the screen's bounds hold: each grid bound is a term at most the
    # screened distance, and each segment bound at least the segment's terms
    arr, values, cand, screen = screen_of(xs)
    if max_candidates is not None:
        cand = cand[np.linspace(0, cand.size - 1, max_candidates).round().astype(int)]
    screened = screened_distances(screen, cand)
    fits, lower, where = screen.grid(cand)
    assert np.all(lower <= screened)
    for i in range(0, cand.size, max(1, cand.size // 40)):
        k = int(cand[i])
        term, fit = tail_terms(screen, k)
        assert_segment_bounds_hold(screen, k, term, fit)
        j, valid = screen.grid_points(cand[i : i + 1])
        assert np.array_equal(fits[i][valid[0]], fit[j[valid] - k])
        assert lower[i] == term[j[valid] - k].max() == term[where[i] - k]
    assert np.all(np.abs(screened - exact_distances(arr, values, cand)) <= _SCAN_TOL / 100)


def test_the_segment_slack_covers_a_fitted_ccdf_that_rises_by_an_ulp(monkeypatch):
    # np.log and np.exp need not be monotone to the last ulp; emulate one
    # that is not by moving each fitted value of a tail whose values lie one
    # ulp apart up or down by two ulps, and take each term from it
    _, values, cand, screen = screen_of(ulp_runs())
    rng = np.random.default_rng(0)
    k = int(cand[cand.size // 3])
    _, fit = tail_terms(screen, k)
    fit = fit + rng.choice([-2, 0, 2], fit.size) * np.spacing(fit)
    j = np.arange(k, values.size)
    m = screen.above[k]
    term = np.maximum(screen.above[j] / m - fit, fit - screen.after[j] / m)
    assert np.any(np.diff(fit) > 0)
    assert_segment_bounds_hold(screen, k, term, fit)
    monkeypatch.setattr(tailstats, "_SCAN_SLACK", 0.0)
    with pytest.raises(AssertionError):
        assert_segment_bounds_hold(screen, k, term, fit)


def test_continuous_scan_matches_oracle_on_ulp_runs():
    xs = ulp_runs()
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)


def test_candidates_too_steep_to_screen_are_fitted_outright(monkeypatch):
    # inside the top cluster the screen misses the exact distance by more
    # than the tolerance, below it by far less
    xs = top_cluster()
    arr, values, cand, screen = screen_of(xs)
    error = np.abs(screened_distances(screen, cand) - exact_distances(arr, values, cand))
    steep = screen.slope[cand] > _SCAN_MAX_SLOPE
    assert error[steep].max() > _SCAN_TOL
    assert error[~steep].max() <= _SCAN_TOL / 100

    fitted = []

    def recording_fit_at(tail, x_min, mode, stop):
        fitted.append(x_min)
        return _fit_at(tail, x_min, mode, stop)

    monkeypatch.setattr(tailstats, "_fit_at", recording_fit_at)
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)
    assert set(values[cand[steep]].tolist()) <= set(fitted)


@pytest.mark.parametrize(
    "xs",
    [two_digit_ties(), pareto_samples(2000, 2.5, 1.0, np.random.default_rng(21))],
    ids=["ties", "pareto"],
)
def test_screen_chunk_size_changes_no_bits(monkeypatch, xs):
    _, values, cand, screen = screen_of(xs)
    whole = screen.grid(cand)
    monkeypatch.setattr(tailstats, "_SCAN_CHUNK", 64)  # three candidates at a time
    for a, b in zip(whole, screen.grid(cand)):
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


@pytest.mark.parametrize(
    "xs",
    [two_digit_ties(), pareto_samples(2000, 2.5, 1.0, np.random.default_rng(21)), comb(50)],
    ids=["ties", "pareto", "comb"],
)
def test_the_screen_batch_cap_changes_no_finalist(monkeypatch, xs):
    # the finalists are every candidate within _SCAN_TOL of the smallest
    # screened distance, however the candidates are batched
    _, values, cand, screen = screen_of(xs)
    batched = tailstats._scan_continuous(values, screen.above, cand)
    monkeypatch.setattr(tailstats, "_SCAN_BATCH", 1)
    assert np.array_equal(tailstats._scan_continuous(values, screen.above, cand), batched)
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)


def near_tie():
    # the runner-up's screened distance is 1.13e-6 above the best: a screen
    # that dropped a segment whose bound is within 1e-4 of its candidate's
    # lower bound would keep the runner-up as a finalist
    return pareto_samples(5000, 2.5, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "xs",
    [
        two_digit_ties(),
        pareto_samples(2000, 2.5, 1.0, np.random.default_rng(21)),
        comb(50),
        clustered(),
        ulp_runs(),
        near_tie(),
    ],
    ids=["ties", "pareto", "comb", "clustered", "ulp-runs", "near-tie"],
)
def test_the_screen_finalists_are_every_candidate_within_the_tolerance(monkeypatch, xs):
    # every candidate too steep to screen, and every other whose screened
    # distance, with all its terms evaluated, is within _SCAN_TOL of the
    # smallest; and the screen ends with that distance, bit for bit, as
    # each screened finalist's lower bound
    _, values, cand, screen = screen_of(xs)
    steep = screen.slope[cand] > _SCAN_MAX_SLOPE
    screened = screened_distances(screen, cand[~steep])
    within = screened <= screened.min() + _SCAN_TOL
    grid, lowers = _Screen.grid, []

    def recording_grid(self, ks):
        fits, lower, where = grid(self, ks)
        lowers.append(lower)  # evaluate raises it in place
        return fits, lower, where

    monkeypatch.setattr(_Screen, "grid", recording_grid)
    finalists = tailstats._scan_continuous(values, screen.above, cand)
    assert np.array_equal(finalists, np.sort(np.concatenate([cand[steep], cand[~steep][within]])))
    assert np.array_equal(lowers[0][within], screened[within])


def screen_points(monkeypatch, xs):
    """The points a continuous fit of ``xs`` evaluates, as k * values.size
    + j for candidate k's term at values[j], and its candidate count."""
    points = []
    terms = _Screen.terms

    def recording_terms(self, k, j):
        points.append(k * self.values.size + j)
        return terms(self, k, j)

    monkeypatch.setattr(_Screen, "terms", recording_terms)
    fit_power_law_tail(xs, mode="continuous")
    _, above = _at_least(np.sort(xs))
    return np.concatenate(points), int(np.count_nonzero(above >= 50))


def test_the_screen_evaluates_each_point_once_and_far_fewer_than_every_term(monkeypatch):
    evaluated, candidates = screen_points(monkeypatch, pareto_samples(30_000, 2.5, 1.0, np.random.default_rng(7)))
    # the 17 grid points of each candidate and a few more: 21.06 per
    # candidate (the screen before the batched one took 21.99); every
    # candidate's whole tail is 450 million points
    assert evaluated.size <= 22 * candidates
    assert np.unique(evaluated).size == evaluated.size


def test_the_screen_work_on_a_comb_is_bounded(monkeypatch):
    # 500 teeth of 50 samples: 32.2 points per candidate, where the screen
    # that refined each segment eight ways took 68.3; at 50k and 100k
    # samples the comb takes 42.7 and 55.6, about n^0.4 per candidate
    evaluated, candidates = screen_points(monkeypatch, comb(500))
    assert evaluated.size <= 40 * candidates
    assert np.unique(evaluated).size == evaluated.size


def test_the_screen_memory_follows_the_tail():
    # 139 distinct values: the probe screen before it held 5.4 MB at its peak
    xs = np.floor(pareto_samples(900, 2.5, 20.0, np.random.default_rng(5)))
    assert np.unique(xs).size == 139
    fit_power_law_tail(xs[:100], mode="continuous", min_tail=10)  # first-call allocations
    tracemalloc.start()
    try:
        fit_power_law_tail(xs, mode="continuous")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_the_screen_fits_nothing_and_the_scan_fits_each_finalist_once(monkeypatch):
    xs = clustered()
    _, values, cand, screen = screen_of(xs)
    steep = cand[screen.slope[cand] > _SCAN_MAX_SLOPE]
    assert steep.size
    screen_finalists = tailstats._scan_continuous
    fitted, finalists = [], []

    def recording_fit_at(tail, x_min, mode, stop):
        fitted.append(x_min)
        return _fit_at(tail, x_min, mode, stop)

    def recording_screen(*args):
        before = len(fitted)
        finalists.append(screen_finalists(*args))
        assert len(fitted) == before  # the screen makes no exact fit
        return finalists[-1]

    monkeypatch.setattr(tailstats, "_fit_at", recording_fit_at)
    monkeypatch.setattr(tailstats, "_scan_continuous", recording_screen)
    assert fit_power_law_tail(xs, mode="continuous") == scan_every_candidate(xs)
    (picked,) = finalists
    assert fitted == values[picked].tolist()  # each finalist once, smallest x_min first
    assert set(steep.tolist()) <= set(picked.tolist())


def test_the_discrete_scan_passes_over_a_candidate_it_cannot_fit(monkeypatch):
    # the tail at x_min = 1e9 holds 60 of its 61 samples at 1e9, too
    # concentrated for a discrete fit: its MLE lies past gamma 2^20
    rng = np.random.default_rng(5)
    xs = np.concatenate([zeta_samples(300, 2.5, 1, rng, support_cap=500), [1e9] * 60, [1e9 + 1]])
    failed = []

    def recording_fit_at(tail, x_min, mode, stop):
        try:
            return _fit_at(tail, x_min, mode, stop)
        except InsufficientTail:
            failed.append(x_min)
            raise

    monkeypatch.setattr(tailstats, "_fit_at", recording_fit_at)
    assert fit_power_law_tail(xs, mode="discrete") == scan_every_candidate(xs, mode="discrete")
    assert failed == [1e9]


def test_continuous_scan_fits_only_the_finalists(monkeypatch):
    calls = []

    def counting_fit_at(*args):
        calls.append(args[1])
        return _fit_at(*args)

    monkeypatch.setattr(tailstats, "_fit_at", counting_fit_at)
    xs = pareto_samples(10_000, 2.5, 1.0, np.random.default_rng(30))
    fit_power_law_tail(xs, mode="continuous")
    assert len(calls) <= 3  # a fit at every candidate makes 9951


# -- start-up imports -------------------------------------------------------------

SRC = pathlib.Path(tailstats.__file__).parents[1]
GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
TRACING = GEN.with_name("tracing.py")
CONFIG = pathlib.Path(__file__).parent / "fixtures" / "pipeline_config.json"


# one entry per OS thread of the reading process, where Linux provides it
TASKS = pathlib.Path("/proc/self/task")


class StartUp(NamedTuple):
    modules: list[str]  # the loaded modules of the package asked about
    threads: int | None  # OS threads, or None where TASKS does not exist
    blas_threads: str | None  # OPENBLAS_NUM_THREADS as the process reads it
    stderr: str  # all the process wrote there


def loaded_by(*argv, package="scipy", blas_threads=None) -> StartUp:
    """What a fresh interpreter holds after importing faultgraph.cli and,
    given ``argv``, running ``main`` on it to exit 0: the modules of
    ``package``, its OS thread count and its ``OPENBLAS_NUM_THREADS``, and
    its stderr. The interpreter starts with that variable set to
    ``blas_threads``, or unset; the probe prints the first three on the last
    line of its output."""
    probe = (
        "import json, os, sys, faultgraph.cli\n"
        "if sys.argv[1:]:\n"
        "    assert faultgraph.cli.main(sys.argv[1:]) == 0\n"
        f"modules = [m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})]\n"
        f"threads = len(os.listdir({str(TASKS)!r})) if os.path.isdir({str(TASKS)!r}) else None\n"
        "print(json.dumps([modules, threads, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    return StartUp(*json.loads(out.stdout.splitlines()[-1]), out.stderr)


@pytest.fixture
def samples_file(tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("\n".join(map(str, pareto_samples(2000, 2.5, 1.0, np.random.default_rng(3)))))
    return samples


def test_cli_import_loads_no_scipy():
    assert loaded_by().modules == []


def test_continuous_fits_load_no_scipy(samples_file):
    assert loaded_by("fit", "--samples", str(samples_file), "--mode", "continuous").modules == []
    assert loaded_by("fit", "--synthetic", "continuous:2.5:2000").modules == []


def test_fit_of_a_samples_file_loads_no_masked_arrays(samples_file):
    assert loaded_by("fit", "--samples", str(samples_file), "--mode", "continuous", package="numpy.ma").modules == []


@pytest.fixture(scope="module")
def fitted_pair(tmp_path_factory):
    """The seed-11 release pair of tests/test_generated_bundle.py, whose
    discrete and continuous tail fits all read ``ok``."""
    spec = importlib.util.spec_from_file_location("faultgraph_bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    pair = tmp_path_factory.mktemp("fitted") / "pair"
    gen.report_inputs(pair, 11, 2, 200, 800, 0.10, 0.30, 0.02, "corpus")
    return pair / "config.json"


def test_report_fit_and_evolve_load_no_scipy(tmp_path, fitted_pair):
    # the fixture's chi-square tests, the discrete fits of the seed-11 pair
    # with their Hurwitz zeta, and the zeta sampler run on numpy alone
    for argv in (
        ("report", "--config", str(CONFIG), "--out", str(tmp_path / "report")),
        ("evolve", "--config", str(CONFIG), "--out", str(tmp_path / "evolve")),
        ("report", "--config", str(fitted_pair), "--out", str(tmp_path / "fitted-report")),
        ("fit", "--config", str(fitted_pair), "--out", str(tmp_path / "fitted-fit")),
        ("fit", "--synthetic", "discrete:2.5:2000"),
    ):
        assert loaded_by(*argv).modules == [], argv
    tailfits = (tmp_path / "fitted-fit" / "tailfit-r1.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[1:3] for row in tailfits].count(["discrete", "ok"]) == 8


@pytest.mark.skipif(not TASKS.is_dir(), reason="no per-process thread listing to count")
def test_commands_start_no_blas_thread_pool(tmp_path, samples_file):
    # numpy's OpenBLAS would start a pool of idle workers on a host with
    # two or more CPUs; no command calls BLAS
    for argv in (
        ("report", "--config", str(CONFIG), "--out", str(tmp_path / "report")),  # numpy only
        ("fit", "--samples", str(samples_file), "--mode", "continuous"),  # numpy only
        ("fit", "--synthetic", "discrete:2.5:2000"),  # the zeta sampler
        ("extract", "--config", str(CONFIG), "--out", str(tmp_path / "facts")),
    ):
        assert loaded_by(*argv).threads == 1, argv


def test_a_blas_thread_count_the_environment_sets_is_kept():
    assert loaded_by("fit", "--synthetic", "discrete:2.5:2000", blas_threads="2").blas_threads == "2"


def test_logging_is_loaded_only_to_give_a_warning(tmp_path, samples_file):
    for argv in (
        ("fit", "--samples", str(samples_file), "--mode", "continuous"),
        ("fit", "--synthetic", "continuous:2.5:2000"),
        ("report", "--config", str(CONFIG), "--out", str(tmp_path / "report")),  # warns of nothing
    ):
        quiet = loaded_by(*argv, package="logging")
        assert (quiet.modules, quiet.stderr) == ([], ""), argv


def test_a_warning_reaches_stderr_in_its_format(tmp_path):
    # a resolver warning: Alpha is declared twice in Main's own package
    corpus = tmp_path / "corpus" / "p"
    corpus.mkdir(parents=True)
    (corpus / "Main.java").write_text("package p;\nclass Main {\n    Alpha a;\n}\n")
    for name in ("One", "Two"):
        (corpus / f"{name}.java").write_text(f"package p;\nclass {name} {{\n}}\nclass Alpha {{\n}}\n")
    # a pipeline warning: the fixture log's four links in the window name
    # files of another corpus
    for name in ("commits.tsv", "issues.tsv"):
        (tmp_path / name).write_text((CONFIG.parent / name).read_text())
    window = ["2007-01-01T00:00:00Z", "2007-06-30T23:59:59Z"]
    config = {
        "releases": [{"tag": "r1", "corpus": "corpus", "window": window}],
        "commit_log": "commits.tsv",
        "issue_registry": "issues.tsv",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    warned = loaded_by("bugs", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o"), package="logging")
    assert "logging" in warned.modules
    assert warned.stderr == (
        "WARNING faultgraph.resolve: ambiguous class p.Alpha (2 definitions) referenced from p/Main.java;"
        " using p/One.java::Alpha\n"
        "WARNING faultgraph.pipeline: release r1: dropped 4 issue links to files outside the corpus\n"
    )


def test_exit_collects_over_a_frozen_heap(tmp_path):
    # atexit runs its handlers last in, first out: one registered before
    # faultgraph.cli is imported runs after cli's, one registered after it before
    probe = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('last', gc.get_freeze_count() > 0))\n"
        "import faultgraph.cli\n"
        "atexit.register(lambda: print('first', gc.get_freeze_count() > 0))\n"
        "sys.exit(faultgraph.cli.main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, code in (
        (["fit", "--synthetic", "continuous:2.5:200"], 0),
        (["fit", "--samples", str(tmp_path / "missing.txt")], 1),
    ):
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
        assert done.stdout.splitlines()[-2:] == ["first False", "last True"]


def test_the_cli_import_loads_every_layer_the_tracer_wraps():
    probe = "import json, sys, faultgraph.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    spec = importlib.util.spec_from_file_location("faultgraph_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [layer for layer in tracing.WRAPPED if f"faultgraph.{layer}" not in loaded] == []


# -- the discrete MLE's root search ------------------------------------------------


def mpmath_zeta_ratios(s, q):
    """zeta'/zeta and zeta''/zeta at (s, q) from mpmath. Its Euler-Maclaurin
    sum stops at an absolute tolerance, so it runs at 30 digits more than
    zeta(s, q), about q^-s, lies below 1: at a flat 40 digits zeta(27, 1000)
    comes out 1e-10 off."""
    with mpmath.workdps(30 + int(float(s) * math.log10(q))):
        z = [mpmath.zeta(s, int(q), d) for d in (0, 1, 2)]
        return z[1] / z[0], z[2] / z[0]


def mpmath_discrete_gamma(tail, x_min, near, ratios=mpmath_zeta_ratios):
    """The discrete MLE at ``x_min``: Newton steps from ``near`` on g(s) =
    mean(log x) + zeta'(s, x_min) / zeta(s, x_min), at 40 digits and with
    ``ratios`` giving zeta'/zeta and zeta''/zeta, up to one below 1e-12
    relative: the error left after a step is about its square."""
    with mpmath.workdps(40):
        mean_log = mpmath.fsum(mpmath.log(int(v)) for v in tail) / len(tail)
        s = mpmath.mpf(near)
        for _ in range(8):
            r1, r2 = ratios(s, x_min)
            step = (r1 + mean_log) / (r2 - r1 * r1)
            s -= step
            if abs(step) < mpmath.mpf(10) ** -12 * s:
                return s
    raise AssertionError(f"no convergence from {near} at x_min {x_min}")


def candidate_tails(xs, min_tail=10):
    """(tail, x_min) of each candidate x_min of ``xs`` with ``min_tail``
    samples at or above it and two distinct values."""
    arr = np.sort(np.asarray(xs, dtype=float))
    values, above = _at_least(arr)
    return [(arr[arr.size - above[k] :], float(values[k])) for k in np.flatnonzero(above >= min_tail)[:-1].tolist()]


def discrete_scan_with_mpmath(xs, min_tail, memo):
    """Oracle: the discrete scan as a fit at every candidate x_min, each
    gamma refined by mpmath_discrete_gamma from the fitted one and each KS
    distance from discrete_ks_with_scipy, keeping the smallest KS distance
    with ties to the smaller x_min. ``memo`` keeps each candidate's fit."""
    best = None
    for tail, x_min in candidate_tails(xs, min_tail):
        if x_min not in memo:
            # each tail here spreads above its x_min and has its MLE in the
            # root search's range, so no candidate is passed over
            gamma = float(mpmath_discrete_gamma(tail, x_min, tailstats._discrete_gamma(tail, int(x_min))))
            memo[x_min] = TailFit(gamma, x_min, discrete_ks_with_scipy(tail, gamma, x_min), int(tail.size))
        if best is None or memo[x_min].ks < best.ks:
            best = memo[x_min]
    return best


def summed_zeta(s, q, terms=30):
    """zeta(s, q) to 40 digits: the sum of (q + k)^-s over its first
    N = max(0, ceil(2 s) + 60 - q) terms, and Euler-Maclaurin (DLMF 2.10.1)
    with ``terms`` Bernoulli terms for the rest. From w = q + N >= 2 s + 60
    on, each Bernoulli term is at most 1/(2 pi)^2 of the one before, so the
    last lies below every digit kept; and mpmath's numbers keep 40 digits
    relative at any size. mpmath's own zeta stops its sum at an absolute
    tolerance, so it needs 30 digits more than s log10(q): a call then
    takes about 0.2 s at s 52, q 1e9 and 12 to 15 s at s 130, q 9e15."""
    with mpmath.workdps(40):
        s, q = mpmath.mpf(s), mpmath.mpf(q)
        n = max(0, math.ceil(2 * s) + 60 - int(q))
        w = q + n
        rest = w / (s - 1) + mpmath.mpf(1) / 2
        rising = s  # s (s + 1) ... (s + 2 j - 2)
        for j in range(1, terms + 1):
            rest += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * w ** (1 - 2 * j)
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        return mpmath.fsum((q + k) ** -s for k in range(n)) + w**-s * rest


def mpmath_discrete_ks(tail, gamma, x_min):
    """The discrete KS distance, the fitted CCDF from summed_zeta."""
    values, counts = np.unique(tail, return_counts=True)
    emp = np.cumsum(counts[::-1])[::-1] / len(tail)
    with mpmath.workdps(40):
        norm = summed_zeta(gamma, x_min)
        return float(max(abs(e - summed_zeta(gamma, v) / norm) for v, e in zip(values.tolist(), emp.tolist())))


@pytest.mark.parametrize("s, q", [(27.03, 1000), (19.6, 100), (40.5, 30), (1.0001, 1), (2.5, 3), (52.0, 10**9), (3.5, 2.0**53)])
def test_the_summed_zeta_matches_mpmath_with_digits_to_spare(s, q):
    with mpmath.workdps(40 + int(s * math.log10(q))):
        want = mpmath.zeta(s, q)
    assert abs(summed_zeta(s, q) / want - 1) < mpmath.mpf(10) ** -35


def discrete_ks_with_scipy(tail, gamma, x_min):
    """The discrete KS distance as the largest gap at every distinct value
    of the sorted ``tail``, with the fitted CCDF from ``scipy.special.zeta``."""
    values = np.unique(tail)
    emp = (tail.size - np.searchsorted(tail, values, side="left")) / tail.size
    return float(np.max(np.abs(emp - scipy.special.zeta(gamma, values) / scipy.special.zeta(gamma, x_min))))


def assert_close_fits(got, want):
    # the same x_min and tail, and the gamma and KS distance of the exact MLE
    assert (got.x_min, got.n_tail) == (want.x_min, want.n_tail)
    assert relative_error(got.gamma, want.gamma) <= 1e-13
    assert abs(got.ks - want.ks) <= 1e-13


@pytest.mark.parametrize("gamma,x_min", [(1.6, 1), (2.4, 1), (3.0, 2), (4.2, 5)])
def test_discrete_scan_matches_the_mpmath_root_oracle(gamma, x_min):
    xs = zeta_samples(3000, gamma, x_min, np.random.default_rng(int(gamma * 10) + x_min))
    memo = {}
    for min_tail in (10, 50):
        fit = fit_power_law_tail(xs, mode="discrete", min_tail=min_tail)
        assert_close_fits(fit, discrete_scan_with_mpmath(xs, min_tail, memo))
        assert fit == scan_every_candidate(xs, min_tail, mode="discrete")


@pytest.mark.parametrize("x", [1.0001, 1.05, 1.3, 2.0, 3.5, 7.0, 12.0, 19.6, 30.0])
def test_the_zeta_moments_match_mpmath(x):
    # zeta'/zeta and zeta''/zeta from the one pass, at q from 1 to 10^6
    # where it sums directly, uses Euler-Maclaurin or stops early; at
    # x = 30 a stop that watches the zeta alone leaves them 3.4e-12 off
    for q in (1, 2, 3, 8, 9, 10, 31, 100, 1000, 12_345, 10**5, 10**6):
        s0, s1, s2 = tailstats._zeta_moments(x, float(q))
        mean, log_q = s1 / s0, math.log(q)
        r1, r2 = mpmath_zeta_ratios(mpmath.mpf(x), q)
        assert relative_error(-mean - log_q, r1) <= 1e-14, q
        assert relative_error(s2 / s0 + 2 * log_q * mean + log_q * log_q, r2) <= 1e-14, q


def test_the_zeta_moments_of_the_asymptotic_branch_match_mpmath():
    # q above 1e8, in units of q: the expansion and its two derivatives
    for q in (10**8 + 1, 3 * 10**9, 10**12):
        for x in (1.001, 1.5, 2.5, 52.0):
            s0, s1, s2 = tailstats._zeta_moments(x, float(q))
            mean, log_q = s1 / s0, math.log(q)
            r1, r2 = mpmath_zeta_ratios(mpmath.mpf(x), q)
            assert relative_error(-mean - log_q, r1) <= 1e-14, (q, x)
            assert relative_error(s2 / s0 + 2 * log_q * mean + log_q * log_q, r2) <= 1e-14, (q, x)


def fixture_tail(name):
    return [v for v in (float(s) for s in (TAILS / f"{name}-r1.txt").read_text().split()) if v > 0]


@pytest.mark.parametrize("name", ["bugs_per_cu", "in_links", "cu_loc"])
def test_every_discrete_gamma_of_a_pinned_tail_is_the_exact_mle(name):
    checked = 0
    for tail, x_min in candidate_tails(fixture_tail(name)):
        gamma = tailstats._discrete_gamma(tail, int(x_min))
        assert relative_error(gamma, mpmath_discrete_gamma(tail, x_min, gamma)) <= 1e-13, x_min
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("seed", range(12))
def test_every_discrete_gamma_of_a_seeded_zeta_draw_is_the_exact_mle(seed):
    rng = np.random.default_rng(seed)
    xs = zeta_samples(300, 1.3 + 3.2 * rng.random(), int(rng.integers(1, 6)), rng, support_cap=10**4)
    for tail, x_min in candidate_tails(xs):
        try:
            gamma = tailstats._discrete_gamma(tail, int(x_min))
        except InsufficientTail:
            continue
        assert relative_error(gamma, mpmath_discrete_gamma(tail, x_min, gamma)) <= 1e-13, x_min


@pytest.mark.parametrize("name", ["bugs_per_cu", "in_links", "cu_loc", "wide"])
def test_the_discrete_root_search_takes_few_passes_per_candidate(monkeypatch, name):
    # Brent's method on a central difference took about 21 steps of two
    # zetas each; a pass costs about two
    xs = wide_discrete_tail(7, 1000) if name == "wide" else fixture_tail(name)
    counts = {"passes": 0, "solves": 0}
    moments, solve = tailstats._zeta_moments, tailstats._discrete_gamma

    def counted_moments(x, q):
        counts["passes"] += 1
        return moments(x, q)

    def counted_solve(tail, x_min):
        counts["solves"] += 1
        return solve(tail, x_min)

    monkeypatch.setattr(tailstats, "_zeta_moments", counted_moments)
    monkeypatch.setattr(tailstats, "_discrete_gamma", counted_solve)
    fit_power_law_tail(xs, mode=DISCRETE)
    assert counts["solves"] >= 8
    assert counts["passes"] <= 8 * counts["solves"]


def test_the_root_search_falls_back_to_the_range_end_and_bisection(monkeypatch):
    # a step out of the bracket is replaced: by the range's end while g
    # there is unseen, else by bisection. With the first Newton step made a
    # billion times too long, the second pass is at 2^20, where at x_min 1
    # every term past the first underflows and there is no slope; the third
    # bisects. The fit still reaches the exact root.
    tail, x_min = candidate_tails(fixture_tail("in_links"))[0]
    assert x_min == 1.0
    want = tailstats._discrete_gamma(tail, 1)
    moments = tailstats._zeta_moments
    seen = []

    def overshooting(x, q):
        seen.append(x)
        s0, s1, s2 = moments(x, q)
        if len(seen) > 1:
            return s0, s1, s2
        mean = s1 / s0
        return s0, s1, s0 * (mean * mean + (s2 / s0 - mean * mean) * 1e-9)

    monkeypatch.setattr(tailstats, "_zeta_moments", overshooting)
    got = tailstats._discrete_gamma(tail, 1)
    assert relative_error(got, mpmath_discrete_gamma(tail, x_min, want)) <= 1e-13
    assert seen[1] == tailstats._ROOT_HI
    assert seen[2] == (seen[0] + seen[1]) / 2
    assert len(seen) < tailstats._ROOT_STEPS


DBL_MAX = sys.float_info.max


def test_no_double_sample_puts_the_discrete_root_below_the_range():
    # at the range's low end the model's mean of log(x / x_min) is above
    # 9,999, least at x_min 1, where it is about 1e4 - Euler's gamma; a
    # sample of doubles has a mean log at most log(DBL_MAX), so g is
    # negative there and the root lies above it
    for q in [*range(1, 1000), *np.geomspace(1e3, 2.0**53, 200).round().tolist(), 1e20, 1e300]:
        s0, s1, _ = tailstats._zeta_moments(tailstats._ROOT_LO, float(q))
        assert s1 / s0 > 9999 > math.log(DBL_MAX), q


@st.composite
def extreme_discrete_tails(draw):
    """x_min from 1 to 10^300, and up to three values above it, from one
    unit above to the top of the double range, each repeated up to 10^5
    times."""
    x_min = float(draw(st.integers(1, 1000) | st.integers(1, 2**53) | st.sampled_from([10**20, 10**100, 10**300])))
    near = st.integers(1, 10**6).map(lambda d: x_min + d)
    # log-uniform from x_min to DBL_MAX
    far = st.floats(0.0, 1.0).map(
        lambda f: math.floor(min(DBL_MAX, math.exp((1 - f) * math.log(x_min) + f * math.log(DBL_MAX))))
    )
    above = sorted({float(v) for v in draw(st.lists(near | far, min_size=1, max_size=3)) if v > x_min})
    values = [x_min, *above]
    counts = draw(st.lists(st.integers(1, 10**5), min_size=len(values), max_size=len(values)))
    return np.repeat(np.array(values), counts), x_min


@settings(max_examples=200)
@given(extreme_discrete_tails())
@example((np.repeat([1.0, 1e308], [10**5, 1]), 1.0))
def test_the_discrete_root_search_ends_far_inside_its_step_cap(tail_and_x_min):
    # _newton_root raises RuntimeError, an internal fault, after
    # _ROOT_STEPS steps. No bound on its steps is proven; the longest search
    # found takes 24 steps at 10^5 ones and one 1e308, and about two more
    # for each tenfold count of ones
    tail, x_min = tail_and_x_min
    steps = 0
    moments = tailstats._zeta_moments

    def counted(x, q):
        nonlocal steps
        steps += 1
        return moments(x, q)

    with mock.patch.object(tailstats, "_zeta_moments", counted), np.errstate(over="ignore"):
        try:
            tailstats._discrete_gamma(tail, int(x_min))
        except InsufficientTail:
            pass
    assert steps <= tailstats._ROOT_STEPS // 3


# Generic functions for the root search, each with its slope and a bracket,
# rising through a simple root as g does: smooth, steep, flat far from the
# root, infinitely steep at it, stepped, and with a root at a bracket end or
# hit at once. A root of multiplicity m is outside the search's reach: there
# a Newton step falls short of the root by m - 1 times its length, so a
# step within the tolerance does not put the root within it.
GENERIC = [
    (lambda x: x**3 - 2 * x - 5, lambda x: 3 * x * x - 2, 2.0, 3.0),
    (lambda x: x - math.cos(x), lambda x: 1 + math.sin(x), 0.0, 1.0),
    (lambda x: math.exp(x) - 1e6, math.exp, 0.0, 30.0),
    (lambda x: (x - 1.0) ** 3 + (x - 1.0), lambda x: 3 * (x - 1.0) ** 2 + 1, 0.0, 3.0),
    # each Newton step overshoots the root twice over, so bisection finds it
    (lambda x: math.copysign(abs(x - 0.3) ** (1 / 3), x - 0.3), lambda x: abs(x - 0.3) ** (-2 / 3) / 3, -4.0, 7.0),
    # the slope underflows away from the root, so bisection finds it
    (lambda x: math.tanh(50 * (x - 0.3)), lambda x: 50 * (1 - math.tanh(50 * (x - 0.3)) ** 2), -1.0, 10.0),
    (lambda x: math.copysign(1.0, x - math.pi), lambda x: 0.0, 0.0, 10.0),
    (lambda x: math.atan(x - 1e-3) + 1e-9 * x, lambda x: 1 / (1 + (x - 1e-3) ** 2) + 1e-9, -1e3, 1e5),
    (lambda x: x - 0.5, lambda x: 1.0, 0.0, 1.0),  # the start is the root
    (lambda x: x * x - 4.0, lambda x: 2 * x, 0.0, 2.0),  # f(b) == 0
    (lambda x: 4.0 - x * x, lambda x: -2 * x, -2.0, 0.0),  # f(a) == 0
]
TOLERANCES = [
    {"xtol": 1e-12, "rtol": 8.9e-16},
    {"xtol": 2e-12, "rtol": 4 * np.finfo(float).eps},
    {"xtol": 1e-6, "rtol": 1e-10},
    {"xtol": 1e-3, "rtol": 1e-3},
    {"xtol": 0.25, "rtol": 8.9e-16},
]


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"{t['xtol']:g}-{t['rtol']:g}")
@pytest.mark.parametrize("case", range(len(GENERIC)))
def test_newton_root_matches_scipy_brentq_on_generic_functions(case, tol):
    # the root search, started at the bracket's midpoint, and scipy's brentq
    # at the same tolerances each land within xtol + rtol |root| of the root
    f, slope, a, b = GENERIC[case]
    ours = tailstats._newton_root(lambda x: (f(x), slope(x)), a, b, 0.5 * (a + b), **tol)
    theirs = scipy.optimize.brentq(f, a, b, **tol)
    root = scipy.optimize.brentq(f, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000)
    within = tol["xtol"] + tol["rtol"] * abs(root)
    assert abs(ours - root) <= within
    assert abs(ours - theirs) <= 2 * within
    if f(theirs) == 0.0:  # a root hit exactly is returned as it is
        assert ours == theirs


# -- the Hurwitz zeta and the discrete KS distance --------------------------------


def test_hurwitz_zeta_matches_scipy_bit_for_bit():
    # the arguments the discrete fit's root search and KS distance can
    # reach: x from the bracket's low end less the difference step to its
    # high end plus it, q a positive integer up to 2^53, and some non-integer q
    rng = np.random.default_rng(2009)
    x = np.concatenate(
        [
            1.0 + np.exp(rng.uniform(math.log(1e-4 - 1e-6), math.log(2.0**20 - 1 + 1e-6), 20_000)),
            rng.uniform(1.0, 6.0, 10_000),
            [1.0 + 1e-4 - 1e-6, 2.0**20 + 1e-6, 2.0**20 + 1e-6, 3.0, 3.0, 1.5],
        ]
    )
    q = np.concatenate(
        [
            np.floor(np.exp(rng.uniform(0.0, math.log(2.0**53), 20_000))),
            np.exp(rng.uniform(0.0, 20.0, 10_000)),
            [1.0, 1.0, 2.0, 1e8, 1e8 + 1, 2.0**53],
        ]
    )
    got = np.array([tailstats._hurwitz_zeta(a, b) for a, b in zip(x.tolist(), q.tolist())])
    want = scipy.special.zeta(x, q)
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(q > 1e8) > 1000  # the asymptotic branch
    assert np.count_nonzero((got == 0.0) & (q <= 1e8)) > 100  # a sum that underflows to 0
    assert np.count_nonzero((got > 0.0) & (q <= 9.0) & (x < 6.0)) > 1000  # Euler-Maclaurin


def wide_discrete_tail(seed=3, n=3000):
    # n draws of floor(U^-20) held at 2^53, gamma near 1.05: at seed 3, 1,919
    # distinct values spanning the whole range of integers a double holds exactly
    u = np.random.default_rng(seed).random(n)
    with np.errstate(over="ignore", divide="ignore"):
        return np.minimum(np.floor(u**-20.0), 2.0**53)


@pytest.mark.parametrize(
    "xs, every",
    [
        (zeta_samples(3000, 1.6, 1, np.random.default_rng(16), support_cap=10**6), 1),
        (zeta_samples(2000, 3.5, 4, np.random.default_rng(35), support_cap=10**4), 1),
        (np.floor(pareto_samples(1500, 1.3, 1e9, np.random.default_rng(13))), 3),
        (wide_discrete_tail(), 9),
    ],
    ids=["gamma-1.6", "gamma-3.5", "x_min-1e9", "wide"],
)
def test_the_discrete_ks_distance_is_the_full_maximum_bit_for_bit(xs, every):
    # at every candidate (or every few), at its fitted gamma and off it
    arr = np.sort(xs)
    values, above = _at_least(arr)
    checked = 0
    for k in np.flatnonzero(above >= 10)[:-1:every].tolist():
        tail, x_min = arr[arr.size - above[k] :], float(values[k])
        try:
            gamma = tailstats._discrete_gamma(tail, int(x_min))
        except InsufficientTail:
            continue
        for g in (gamma, gamma * 1.01, 1.0 + (gamma - 1.0) / 3):
            if scipy.special.zeta(g, x_min):
                assert _ks_distance(tail, g, x_min, DISCRETE) == discrete_ks_with_scipy(tail, g, x_min)
            else:  # the zeta's ratio is out of scipy's reach
                assert abs(_ks_distance(tail, g, x_min, DISCRETE) - mpmath_discrete_ks(tail, g, x_min)) <= 1e-13
        checked += 1
    assert checked >= 20


def test_the_discrete_ks_slack_covers_a_fitted_ccdf_that_rises_by_an_ulp(monkeypatch):
    # the tail 2, 3, 4 at x_min = 1 with a fitted CCDF that rises by two
    # ulps from 3 to 4: the largest gap, at 3, is two ulps above the bound
    # on the segment between 2 and 4, which ties the gap at 2
    fit = {1.0: 1.0, 2.0: 1.0 - (2 / 3 - 0.25), 3.0: 0.25 - 2.0**-54, 4.0: 0.25}
    monkeypatch.setattr(tailstats, "_hurwitz_zeta", lambda gamma, q, unit=1.0: fit[q])
    tail = np.array([2.0, 3.0, 4.0])
    gaps = [abs(e - fit[v]) for e, v in zip([1.0, 2 / 3, 1 / 3], [2.0, 3.0, 4.0])]
    assert max(gaps) == gaps[1] == gaps[0] + 2.0**-54
    assert _ks_distance(tail, 2.0, 1.0, DISCRETE) == gaps[1]
    monkeypatch.setattr(tailstats, "_SCAN_SLACK", 0.0)
    assert _ks_distance(tail, 2.0, 1.0, DISCRETE) == gaps[0]


def test_the_discrete_ks_distance_holds_on_a_fitted_ccdf_off_by_ulps(monkeypatch):
    # as the port could round: each zeta value moved up or down by two ulps,
    # the same way wherever it is taken, on a tail of neighbouring integers
    # near 2^50, whose fitted CCDF then rises here and there
    rng = np.random.default_rng(50)
    arr = np.sort(2.0**50 + np.floor(pareto_samples(2000, 1.5, 1.0, rng)))
    values, above = _at_least(arr)
    zeta = tailstats._hurwitz_zeta
    memo = {}

    def off_by_ulps(gamma, q, unit=1.0):
        if (gamma, q, unit) not in memo:
            memo[gamma, q, unit] = zeta(gamma, q, unit) * (1.0 + float(rng.choice([-2, 0, 2])) * 2.0**-52)
        return memo[gamma, q, unit]

    monkeypatch.setattr(tailstats, "_hurwitz_zeta", off_by_ulps)
    rises = 0
    for k in np.flatnonzero(above >= 50)[:-1:5].tolist():
        tail, x_min = arr[arr.size - above[k] :], float(values[k])
        for gamma in (1.5, 3.0):
            tail_values, at_least = _at_least(tail)
            fit = np.array([off_by_ulps(gamma, v) for v in tail_values.tolist()]) / off_by_ulps(gamma, x_min)
            rises += np.count_nonzero(np.diff(fit) > 0)
            assert _ks_distance(tail, gamma, x_min, DISCRETE) == float(np.max(np.abs(at_least / tail.size - fit)))
    assert rises > 100


def test_the_discrete_scan_evaluates_a_fraction_of_the_ks_points(monkeypatch):
    # on the wide tail a KS distance at every distinct value of every
    # candidate's tail takes the zeta 1,844,157 times, 18 of them for the
    # four candidates above 8.5e15, whose zeta is below the double range;
    # the bisection takes it 114,660 times, 5,971 when a candidate stops
    # once a gap reaches the best distance so far, and 4,053 when the
    # fitted CCDF at x_min is 1.0 without a second zeta(gamma, x_min)
    xs = wide_discrete_tail()
    counts = {"ks": 0, "full": 0}
    in_ks = []
    zeta, discrete_ks = tailstats._hurwitz_zeta, tailstats._discrete_ks

    def counted_zeta(x, q, unit=1.0):
        counts["ks"] += bool(in_ks)
        return zeta(x, q, unit)

    def counted_ks(values, emp, gamma, x_min, stop):
        counts["full"] += len(values) + 1  # and the norm
        in_ks.append(True)
        try:
            return discrete_ks(values, emp, gamma, x_min, stop)
        finally:
            in_ks.pop()

    monkeypatch.setattr(tailstats, "_hurwitz_zeta", counted_zeta)
    monkeypatch.setattr(tailstats, "_discrete_ks", counted_ks)
    fit = fit_power_law_tail(xs, mode=DISCRETE)
    assert fit.n_tail == 3000
    assert counts["full"] == 1_844_157
    assert counts["ks"] <= 4_053


def test_the_discrete_scan_stops_only_candidates_that_cannot_win(monkeypatch):
    # 600 wide draws whose best x_min, 4232, lies past many candidates, so
    # the winner is fitted with a finite stop; every distance that stays
    # below its stop is the full one, and the fit is the full scan's
    xs = wide_discrete_tail(8, 600)
    want = scan_every_candidate(xs, mode=DISCRETE)
    discrete_ks = tailstats._discrete_ks
    calls = []

    def recording_ks(values, emp, gamma, x_min, stop):
        ks = discrete_ks(values, emp, gamma, x_min, stop)
        calls.append((values, emp, gamma, x_min, stop, ks))
        return ks

    monkeypatch.setattr(tailstats, "_discrete_ks", recording_ks)
    fit = fit_power_law_tail(xs, mode=DISCRETE)
    assert fit == want and fit.x_min == 4232
    assert sum(ks >= stop for *_, stop, ks in calls) > 400
    whole = [call for call in calls if call[-1] < call[-2]]
    assert all(ks == discrete_ks(*args) for *args, _, ks in whole)
    (winner,) = [call for call in whole if call[3] == fit.x_min]
    assert winner[-1] == fit.ks and winner[-2] < math.inf


# -- expected_max ---------------------------------------------------------------


def test_expected_max_examples():
    assert expected_max(100, 3.0) == pytest.approx(10.0, abs=1e-12)
    assert expected_max(1, 2.7) == 1.0
    assert expected_max(10**4, 2.0) == pytest.approx(10**4, abs=1e-6)


def test_expected_max_domain():
    with pytest.raises(DomainError):
        expected_max(100, 1.0)
    with pytest.raises(DomainError):
        expected_max(0, 2.5)


NAN, INF = float("nan"), float("inf")


def test_non_finite_arguments_are_domain_errors():
    for gamma in (NAN, INF, -INF):
        with pytest.raises(DomainError, match="gamma"):
            expected_max(100, gamma)
        with pytest.raises(DomainError, match="gamma"):
            pareto_samples(3, gamma)
        with pytest.raises(DomainError, match="gamma"):
            zeta_samples(3, gamma)
    for bad in (NAN, INF):
        with pytest.raises(DomainError):
            expected_max(bad, 2.5)
        with pytest.raises(DomainError, match="x_min"):
            pareto_samples(3, 2.5, x_min=bad)
        with pytest.raises(DomainError, match="x_min"):
            zeta_samples(3, 2.5, x_min=bad)


def test_zeta_sampler_x_min_above_the_support_cap_is_a_domain_error():
    with pytest.raises(DomainError, match="support cap"):
        zeta_samples(5, 2.5, x_min=2_000_000)
    with pytest.raises(DomainError, match="support cap"):
        zeta_samples(5, 2.5, x_min=11, support_cap=10)
    # at the cap the support is the one point x_min
    assert zeta_samples(5, 2.5, x_min=10, support_cap=10).tolist() == [10.0] * 5


def zeta_samples_over_full_support(n, gamma, x_min=1, rng=None, support_cap=10**6):
    """``zeta_samples`` as it once was: the CCDF over every k in
    x_min..support_cap, from scipy's Hurwitz zeta."""
    support = np.arange(x_min, support_cap + 1, dtype=float)
    tail_p = scipy.special.zeta(gamma, support) / scipy.special.zeta(gamma, float(x_min))
    u = rng.random(n)
    counts = np.clip(np.searchsorted(-tail_p, -u, side="left"), 1, support.size)
    return (x_min + counts - 1).astype(float)


def record_ccdf_points(monkeypatch) -> list[dict]:
    """Make each CCDF that ``_zeta_ccdf`` returns record the points it is
    taken at, with its values there: one dict per CCDF, in this list."""
    made = []
    zeta_ccdf = tailstats._zeta_ccdf

    def recording(gamma, x_min):
        at, seen = zeta_ccdf(gamma, x_min), {}
        made.append(seen)

        def record(k):
            seen[k] = at(k)
            return seen[k]

        return record

    monkeypatch.setattr(tailstats, "_zeta_ccdf", recording)
    return made


def assert_never_rises(points: dict) -> None:
    ps = [points[k] for k in sorted(points)]
    assert ps[0] == 1.0 and all(a >= b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("gamma", [1.00001, 1.3, 2.0, 2.5, 4.5])
@pytest.mark.parametrize("x_min", [1, 3, 17])
def test_zeta_sampler_gives_the_full_support_draws_bit_for_bit(monkeypatch, gamma, x_min):
    # the draws of the dense CCDF prefix, the cap and the bisection are
    # those of a CCDF over every support point; the CCDF never rises over
    # the points the sampler takes
    made = record_ccdf_points(monkeypatch)
    cases = ((1000, 10**4),) if gamma < 1.3 else ((0, 10**4), (1, 500), (300, 10**4), (2000, 10**5))
    capped = 0
    for seed in range(4):
        for n, cap in cases:
            got = zeta_samples(n, gamma, x_min, np.random.default_rng(seed), support_cap=cap)
            want = zeta_samples_over_full_support(n, gamma, x_min, np.random.default_rng(seed), support_cap=cap)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            capped += np.count_nonzero(got == cap)
    assert capped > 0 or gamma > 1.3  # the heaviest tails have draws held at the cap
    assert len(made) == 4 * len(cases)
    for points in made:
        assert_never_rises(points)


def zeta_calls(draw):
    """How many times ``draw()`` takes the ported Hurwitz zeta, and what it
    returns."""
    calls = 0
    zeta = tailstats._hurwitz_zeta

    def counted(*args):
        nonlocal calls
        calls += 1
        return zeta(*args)

    with mock.patch.object(tailstats, "_hurwitz_zeta", counted):
        drawn = draw()
    return calls, drawn


def test_zeta_sampler_cost_follows_the_draws_not_the_cap(monkeypatch):
    # the default support cap is 10**6
    assert zeta_calls(lambda: zeta_samples(10, 3.0, 1, np.random.default_rng(0)))[0] < 100
    # at gamma 1.3, 1,404 draws lie past the 4,096 dense points: the 271
    # held at the cap take one zeta between them, and 1,133 bisect
    made = record_ccdf_points(monkeypatch)
    calls, xs = zeta_calls(lambda: zeta_samples(20_000, 1.3, 1, np.random.default_rng(0)))
    assert calls <= 16_000
    assert np.count_nonzero(xs > 4096) > 1000 and np.count_nonzero(xs == 10**6) > 200
    assert_never_rises(made[0])


def test_zeta_sampler_draws_where_the_zeta_at_x_min_underflows():
    # zeta(200, 100) is about 1e-400: the CCDF takes its zetas in units of
    # x_min, and P(X >= 101) is about 0.137
    assert tailstats._hurwitz_zeta(200.0, 100.0) == 0.0
    xs = zeta_samples(20_000, 200.0, 100, np.random.default_rng(5))
    p = float(summed_zeta(200, 101) / summed_zeta(200, 100))
    share = np.count_nonzero(xs >= 101) / xs.size
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / xs.size)


def geometric_span():
    # 200 values from 1e-300 to 1e300: a tail above x_min = 1e-300 spans
    # more than the double range
    return np.geomspace(1e-300, 1e300, 200).tolist()


def test_a_continuous_tail_beyond_the_double_range_is_skipped_or_refused():
    xs = geometric_span()
    fit = fit_power_law_tail(xs, mode="continuous")
    assert (fit.x_min, fit.n_tail) == (xs[-103], 103)
    assert fit == scan_every_candidate(xs)
    with pytest.raises(InsufficientTail, match="double range"):
        fit_power_law_tail(xs, mode="continuous", x_min=1e-305)


EDGE_FLOATS = [0.0, -1.0, 1.0, 2.0, 3.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]
any_sample = st.one_of(
    st.floats(),  # NaN, infinities, subnormals and negatives included
    st.integers(1, 60).map(float),  # ties, and integers for discrete mode
    st.sampled_from(EDGE_FLOATS),
    st.floats(1e290, 1e308),
    st.floats(5e-324, 1e-300),
)


@settings(deadline=None)
@given(
    st.lists(any_sample, max_size=120),
    st.sampled_from(["discrete", "continuous"]),
    st.none() | st.floats() | st.integers(1, 60).map(float),
    st.integers(2, 60),
)
@example(geometric_span(), "continuous", None, 50)
@example(geometric_span(), "continuous", 1e-305, 50)
def test_any_sample_list_fits_or_raises_an_input_error(xs, mode, x_min, min_tail):
    with contextlib.suppress(InputError):
        fit_power_law_tail(xs, mode=mode, x_min=x_min, min_tail=min_tail)


def test_a_tail_piled_at_x_min_is_insufficient_not_a_crash():
    # the discrete gamma's bracket grows past 2^20 before it closes
    with pytest.raises(InsufficientTail, match="concentrated"):
        _fit_at(np.array([1e9] * 20 + [1e9 + 1]), 1e9, DISCRETE)
    # a scan whose top candidate, 9,966 with its tail held at the cap of
    # 10^4, once underflowed: it fits now, and the winner is the same
    xs = zeta_samples(95, 1.3125, 2, np.random.default_rng(71), support_cap=10**4)
    assert fit_power_law_tail(xs, mode=DISCRETE, min_tail=10).gamma > 1.0


def summed_zeta_ratios(s, q, terms=200):
    """zeta'/zeta and zeta''/zeta at (s, q) from the first ``terms`` terms
    of each sum, in units of q, at 40 digits: where s / q is large the rest
    lie below every digit kept, and mpmath's zeta would need s log10(q)
    digits more."""
    with mpmath.workdps(40):
        t = [((q + k) / mpmath.mpf(q)) ** -s for k in range(terms)]
        logs = [mpmath.log(q + k) for k in range(terms)]
        z0 = mpmath.fsum(t)
        return -mpmath.fsum(a * b for a, b in zip(t, logs)) / z0, mpmath.fsum(a * b * b for a, b in zip(t, logs)) / z0


def test_a_discrete_tail_whose_zeta_underflows_fits_to_the_exact_mle():
    # Near these MLEs, about gamma 52 at x_min 1e9 (the zeta's asymptotic
    # branch) and 55 at 3e7 (Euler-Maclaurin), zeta(gamma, x_min) is below
    # the double range; the root search takes its sums in units of x_min,
    # where they are within a few ulps
    rng = np.random.default_rng(3)
    for x_min in (10**9, 3 * 10**7):
        xs = np.floor(x_min * (1 - rng.random(400)) ** (-1 / 50))
        assert tailstats._hurwitz_zeta(52.0, float(x_min)) == 0.0
        fit = fit_power_law_tail(xs, mode=DISCRETE, x_min=x_min)
        assert relative_error(fit.gamma, mpmath_discrete_gamma(xs, x_min, fit.gamma)) <= 4e-15
        assert abs(fit.ks - mpmath_discrete_ks(xs, fit.gamma, x_min)) <= 1e-13
    # the pile that once read as underflow: 20 samples at 1,000 and one at
    # 1,001 fit near gamma 3,093, where the likelihood is so flat that a
    # sum term x ulps off moves the root 1e-13 relative
    xs = np.array([1000.0] * 20 + [1001.0])
    fit = _fit_at(xs, 1000.0, DISCRETE)
    assert relative_error(fit.gamma, mpmath_discrete_gamma(xs, 1000, fit.gamma, summed_zeta_ratios)) <= 4e-15
    assert abs(fit.ks - mpmath_discrete_ks(xs, fit.gamma, 1000)) <= 1e-13


def test_expected_max_monotonicity():
    for n1, n2 in [(2, 5), (10, 100), (500, 501)]:
        assert expected_max(n2, 2.5) > expected_max(n1, 2.5)
    for g1, g2 in [(1.5, 2.0), (2.0, 3.0), (3.0, 3.01)]:
        assert expected_max(100, g2) < expected_max(100, g1)


# -- pearson --------------------------------------------------------------------


def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_computed_four_fifths():
    # cov = 4, var = 5 for each side: r = 4/5
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12


def test_pearson_matches_reference_implementation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        xs = rng.normal(size=25)
        ys = 0.4 * xs + rng.normal(size=25)
        ref = scipy.stats.pearsonr(xs, ys).statistic
        assert abs(pearson(xs, ys) - ref) < 1e-12


def test_pearson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pearson([1, 2], [1, 2])
    with pytest.raises(DegenerateInput):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(DegenerateInput):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        pearson([1, 2, 3], [4, 4, 4])


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=30),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=-20, max_value=20),
)
def test_pearson_affine_invariance_and_antisymmetry(ys, a, b):
    xs = list(range(len(ys)))
    try:
        base = pearson(xs, ys)
    except DegenerateInput:
        return
    scaled = pearson(xs, [a * y + b for y in ys])
    assert abs(scaled - base) < 1e-9
    negated = pearson(xs, [-y for y in ys])
    assert abs(negated + base) < 1e-9


# -- chi-square ------------------------------------------------------------------


def test_chi2_uniform_table_is_zero():
    res = chi_square_independence([[10, 10], [10, 10]])
    assert res.chi2 == 0.0
    assert res.dof == 1
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_chi2_two_by_two_closed_form():
    # N (ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d)) = 80 * 800^2 / 40^4 = 20
    res = chi_square_independence([[30, 10], [10, 30]])
    assert abs(res.chi2 - 20.0) < 1e-9
    assert res.dof == 1
    assert abs(res.p_value - float(scipy.special.gammaincc(0.5, 10.0))) < 1e-12


def test_chi2_three_by_two_matches_reference():
    table = [[12, 30], [44, 14], [9, 21]]
    res = chi_square_independence(table)
    ref_chi2, ref_p, ref_dof, _ = scipy.stats.chi2_contingency(table, correction=False)
    assert abs(res.chi2 - ref_chi2) < 1e-9
    assert res.dof == ref_dof
    assert abs(res.p_value - ref_p) < 1e-9


def test_chi2_random_tables_match_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        table = rng.integers(1, 60, size=shape)
        res = chi_square_independence(table)
        ref_chi2, ref_p, ref_dof, _ = scipy.stats.chi2_contingency(table, correction=False)
        assert abs(res.chi2 - ref_chi2) < 1e-6
        assert res.dof == ref_dof
        assert abs(res.p_value - ref_p) < 1e-6


def relative_error(got: float, exact) -> float:
    return float(abs((mpmath.mpf(got) - exact) / exact))


def test_chi2_p_value_matches_mpmath():
    # Q(dof / 2, chi2 / 2) at 40 digits; at dof 400 and chi2 near 1,000 the
    # plain sum e^-y * y^j / j! overflows at y^j
    with mpmath.workdps(40):
        for dof in range(1, 10):
            for chi2 in np.geomspace(1e-9, 200.0, 57).tolist():
                exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(chi2) / 2, regularized=True)
                assert relative_error(tailstats._chi2_sf(chi2, dof), exact) < 1e-13, (dof, chi2)
        for chi2 in (900.0, 1000.0, 1100.0):
            exact = mpmath.gammainc(200, mpmath.mpf(chi2) / 2, regularized=True)
            assert 0.0 < tailstats._chi2_sf(chi2, 400) < 1.0
            assert relative_error(tailstats._chi2_sf(chi2, 400), exact) < 1e-12, chi2


def test_chi2_p_value_at_dof_2_is_exp():
    # every table the program builds is 3 x 2; there Q(1, y) = e^-y, which
    # math.exp gives to within an ulp of its 40-digit value
    rng = np.random.default_rng(2)
    chi2s = np.concatenate([rng.uniform(0.0, 100.0, 2000), np.exp(rng.uniform(-60.0, 7.0, 2000))])
    with mpmath.workdps(40):
        for chi2 in chi2s.tolist():
            p = tailstats._chi2_sf(chi2, 2)
            assert p == math.exp(-chi2 / 2)
            assert relative_error(p, mpmath.exp(-mpmath.mpf(chi2) / 2)) <= 2.0**-52
    res = chi_square_independence([[12, 30], [44, 14], [9, 21]])
    assert res.dof == 2 and res.p_value == math.exp(-res.chi2 / 2)


def test_chi2_zero_iff_observed_equals_expected():
    assert chi_square_independence([[5, 10], [10, 20]]).chi2 == 0.0  # proportional rows
    assert chi_square_independence([[5, 10], [11, 20]]).chi2 > 0.0


def test_chi2_degenerate_tables():
    with pytest.raises(DegenerateTable):
        chi_square_independence([[0, 0], [1, 2]])
    with pytest.raises(DegenerateTable):
        chi_square_independence([[1, 0], [2, 0]])
    with pytest.raises(DegenerateTable):
        chi_square_independence([[1, 2, 3]])


# -- pinned fits of seeded distributions -------------------------------------------

TAILS = pathlib.Path(__file__).parent / "fixtures" / "tails"

# (gamma, x_min, ks) as float.hex, then n_tail, of fit_power_law_tail on the
# positive values of each file: the in_links, cu_loc and bugs_per_cu
# distributions of release r1 of the release-pair benchmark corpus, seed 7.
# Each discrete gamma is within 2e-16 relative of mpmath's MLE at its x_min.
PINNED_FITS = {
    ("bugs_per_cu", "discrete"): ("0x1.537bc308a3c33p+1", "0x1.0000000000000p+2", "0x1.337d85c3f6180p-5", 302),
    ("bugs_per_cu", "continuous"): ("0x1.61692b8d52c1dp+1", "0x1.c000000000000p+2", "0x1.8618618618618p-3", 105),
    ("in_links", "discrete"): ("0x1.20a62eb0e9050p+1", "0x1.8000000000000p+2", "0x1.ebda5651b6440p-5", 90),
    ("in_links", "continuous"): ("0x1.1dcf3e27cde88p+1", "0x1.0000000000000p+3", "0x1.0000000000000p-3", 56),
    ("cu_loc", "discrete"): ("0x1.1c18cf784fab6p+2", "0x1.1400000000000p+6", "0x1.4bec640f57cd0p-5", 75),
    ("cu_loc", "continuous"): ("0x1.21aff493ca3b8p+2", "0x1.1400000000000p+6", "0x1.838625436a3e0p-5", 75),
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_FITS))
def test_fit_of_a_seeded_distribution_is_pinned_bit_for_bit(name, mode):
    values = [float(v) for v in (TAILS / f"{name}-r1.txt").read_text().split()]
    assert len(values) == 900
    positive = [v for v in values if v > 0]
    fit = fit_power_law_tail(positive, mode=mode)
    gamma, x_min, ks, n_tail = PINNED_FITS[name, mode]
    assert (fit.gamma.hex(), fit.x_min.hex(), fit.ks.hex(), fit.n_tail) == (gamma, x_min, ks, n_tail)
    assert fit == scan_every_candidate(positive, mode=mode)
