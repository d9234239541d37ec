"""Acceptance battery. Each test prints one PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest
import scipy.stats

from faultgraph.bugs import FilterConfig, build_bug_ledger, parse_commit_log_text, parse_timestamp
from faultgraph.config import load_config
from faultgraph.evolution import FamilyPartition, family_significance, family_stats
from faultgraph.graphs import build_class_graph, build_cu_graph
from faultgraph.javaparse import parse_corpus_dir
from faultgraph.metrics import compute_metrics
from faultgraph.pipeline import cmd_analyze
from faultgraph.resolve import resolve_type_references
from faultgraph.tailstats import (
    ccdf,
    chi_square_independence,
    expected_max,
    fit_power_law_tail,
    loglog_slope,
    pareto_samples,
    pearson,
    zeta_samples,
)

from test_bugs import synthetic_log
from test_metrics import FIXTURE_CLASS_METRICS, FIXTURE_CU_METRICS


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def criterion1_data():
    rng = np.random.default_rng(1)
    return pareto_samples(100_000, 2.5, 1.0, rng)


def test_criterion_1_power_law_recovery(criterion1_data):
    start = time.monotonic()
    cont = fit_power_law_tail(criterion1_data, mode="continuous", x_min=1.0)
    rng = np.random.default_rng(1)
    discrete_samples = zeta_samples(100_000, 3.0, 1, rng)
    disc = fit_power_law_tail(discrete_samples, mode="discrete", x_min=1)
    elapsed = time.monotonic() - start
    ok = (
        abs(cont.gamma - 2.5) <= 0.05
        and abs(disc.gamma - 3.0) <= 0.1
        and elapsed < 5.0
    )
    assert report(
        1,
        "power-law recovery",
        ok,
        f"continuous gamma={cont.gamma:.4f}, discrete gamma={disc.gamma:.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_expected_max_monte_carlo():
    """Monte Carlo check of the characteristic-largest-value formula.

    Known-red: the mean of the maximum of n Pareto draws converges to
    Gamma(1 - 1/(gamma-1)) * n^(1/(gamma-1)), and for gamma = 3 the constant
    is sqrt(pi) ~ 1.77, so the empirical mean sits ~77% above n^(1/(gamma-1))
    and can never land inside a 10% band around it. The formula's n-scaling
    itself is verified (and passes) in the companion test below. Kept as
    stated for the record rather than loosened.
    """
    start = time.monotonic()
    rng = np.random.default_rng(2)
    draws = pareto_samples(1000 * 2000, 3.0, 1.0, rng).reshape(2000, 1000)
    empirical_mean_max = float(draws.max(axis=1).mean())
    predicted = expected_max(1000, 3.0)
    elapsed = time.monotonic() - start
    ok = abs(empirical_mean_max - predicted) <= 0.10 * predicted and elapsed < 10.0
    assert report(
        2,
        "expected-max Monte Carlo",
        ok,
        f"mean max={empirical_mean_max:.2f}, predicted={predicted:.2f}, {elapsed:.2f}s",
    )


def test_criterion_2s_expected_max_scaling_supplement():
    """Supplementary (not a stated criterion): the n-scaling of the sample
    maximum follows n^(1/(gamma-1)). The median of the maxima is used because
    the maximum itself has infinite variance at gamma = 3, which makes the
    mean too noisy for a tight slope check."""
    rng = np.random.default_rng(2)
    ns = (250, 1000, 4000)
    medians = []
    for n in ns:
        draws = pareto_samples(n * 2000, 3.0, 1.0, rng).reshape(2000, n)
        medians.append(float(np.median(draws.max(axis=1))))
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    ok = abs(slope - 0.5) <= 0.025
    assert report(2, "expected-max n-scaling (supplement)", ok, f"slope={slope:.4f} vs 0.5")


def test_criterion_3_ccdf_slope_consistency(criterion1_data):
    fit = fit_power_law_tail(criterion1_data, mode="continuous", x_min=1.0)
    slope = loglog_slope(ccdf(criterion1_data), x_lo=fit.x_min)
    ok = abs(abs(slope) - (fit.gamma - 1.0)) <= 0.15
    assert report(
        3,
        "CCDF slope consistency",
        ok,
        f"|slope|={abs(slope):.4f} vs gamma-1={fit.gamma - 1.0:.4f}",
    )


def test_criterion_4_statistical_oracles():
    pearson_ok = abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    closed = chi_square_independence([[30, 10], [10, 30]])
    closed_ok = abs(closed.chi2 - 20.0) < 1e-9 and closed.dof == 1
    rng = np.random.default_rng(17)
    reference_ok = True
    for _ in range(20):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        table = rng.integers(1, 60, size=shape)
        res = chi_square_independence(table)
        ref_chi2, ref_p, ref_dof, _ = scipy.stats.chi2_contingency(table, correction=False)
        reference_ok &= abs(res.chi2 - ref_chi2) < 1e-6 and abs(res.p_value - ref_p) < 1e-6
        reference_ok &= res.dof == ref_dof
    ok = pearson_ok and closed_ok and reference_ok
    assert report(
        4,
        "statistical oracles",
        ok,
        f"pearson={pearson_ok}, chi2 closed form={closed_ok}, 20 random tables={reference_ok}",
    )


def test_criterion_5_metric_oracle(corpus_r1_dir):
    facts, failures = parse_corpus_dir(corpus_r1_dir)
    corpus = resolve_type_references(facts)
    cg = build_class_graph(corpus)
    cug = build_cu_graph(cg, corpus)
    per_class, per_cu = compute_metrics(corpus, cg, cug)
    got_class = {cid: (m.wmc, m.cbo, m.rfc, m.lcom, m.loc) for cid, m in per_class.items()}
    class_ok = not failures and got_class == FIXTURE_CLASS_METRICS
    cu_ok = per_cu == FIXTURE_CU_METRICS
    handshake = sum(v.in_links for v in per_cu.values()) == sum(v.out_links for v in per_cu.values())
    bound_ok = all(v.cu_cbo <= v.out_links for v in per_cu.values())
    ok = class_ok and cu_ok and handshake and bound_ok
    assert report(
        5,
        "metric oracle",
        ok,
        f"class table={class_ok}, cu table={cu_ok}, handshake={handshake}, cbo<=out={bound_ok}",
    )


def test_criterion_6_ledger_identity():
    window = (parse_timestamp("2007-01-01T00:00:00Z"), parse_timestamp("2007-12-31T23:59:59Z"))
    ok = True
    for seed in range(100):
        text, registry = synthetic_log(seed, n_commits=1000)
        commits = sorted(parse_commit_log_text(text), key=lambda c: c.timestamp)  # build_bug_ledger bisects
        ledger = build_bug_ledger(commits, registry, FilterConfig(min_id=100), window, "r")
        ok &= sum(ledger.bugs_per_cu.values()) == sum(ledger.cus_per_bug.values()) == len(ledger.links)
    assert report(6, "ledger double-count identity", ok, "100 seeds x 1000 commits")


def test_criterion_7_family_pipeline():
    updated = frozenset(f"u{i}" for i in range(100))
    unchanged = frozenset(f"x{i}" for i in range(100))
    added = frozenset(f"a{i}" for i in range(100))
    partition = FamilyPartition(
        metric="cu_loc", updated=updated, unchanged=unchanged, added=added, deleted=frozenset()
    )
    from faultgraph.bugs import BugLedger

    links = {(i, f"u{i}") for i in range(70)}
    links |= {(1000 + i, f"x{i}") for i in range(20)}
    links |= {(2000 + i, f"a{i}") for i in range(50)}
    ledger = BugLedger(release="r2", links=frozenset(links))
    stats = {
        "updated": family_stats(updated, ledger),
        "unchanged": family_stats(unchanged, ledger),
        "added": family_stats(added, ledger),
    }
    rates_ok = (
        stats["updated"].infection_probability == 0.7
        and stats["unchanged"].infection_probability == 0.2
        and stats["added"].infection_probability == 0.5
    )
    res = family_significance(partition, ledger)
    significance_ok = res.p_value < 0.001
    ok = rates_ok and significance_ok
    assert report(
        7,
        "family pipeline",
        ok,
        f"rates={rates_ok}, chi2={res.chi2:.3f}, p={res.p_value:.3e}",
    )


def test_criterion_8_end_to_end_determinism(tmp_path, fixtures_dir):
    cfg = load_config(fixtures_dir / "pipeline_config.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_analyze(cfg, out_a)
    cmd_analyze(cfg, out_b)
    names_a = sorted(p.name for p in out_a.iterdir())
    identical = names_a == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    golden = fixtures_dir / "golden_out"
    golden_names = sorted(p.name for p in golden.iterdir())
    matches_golden = names_a == golden_names and all(
        (out_a / n).read_bytes() == (golden / n).read_bytes() for n in golden_names
    )
    ok = identical and matches_golden
    assert report(
        8,
        "end-to-end determinism",
        ok,
        f"reruns identical={identical}, matches golden bundle={matches_golden}",
    )
