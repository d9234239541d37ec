import pytest

from faultgraph.bugs import BugLedger
from faultgraph.errors import EmptyFamily, UnknownMetric
from faultgraph.evolution import (
    FamilyPartition,
    ReleaseSnapshot,
    classify_cus,
    family_significance,
    family_stats,
    fractional_changes,
)
from faultgraph.metrics import METRIC_NAMES, MetricVector
from faultgraph.pipeline import write_evolution


def vector(**overrides) -> MetricVector:
    values = dict.fromkeys(METRIC_NAMES, 0)
    values.update(overrides)
    return MetricVector(**values)


def ledger_of(release, counts: dict[str, int]) -> BugLedger:
    links = {(1000 + k, path) for path, n in counts.items() for k in range(n)}
    return BugLedger(release=release, links=frozenset(links))


def snapshot(release, metrics, counts=None) -> ReleaseSnapshot:
    return ReleaseSnapshot(release=release, metrics=metrics, ledger=ledger_of(release, counts or {}))


def test_unchanged_metric_lands_in_cu_x():
    prev = snapshot("r1", {"a": vector(cu_loc=10)})
    nxt = snapshot("r2", {"a": vector(cu_loc=10)})
    part = classify_cus(prev, nxt, "cu_loc")
    assert part.unchanged == {"a"} and part.updated == frozenset()


def test_changed_metric_lands_in_cu_u():
    prev = snapshot("r1", {"a": vector(cu_loc=10)})
    nxt = snapshot("r2", {"a": vector(cu_loc=12)})
    part = classify_cus(prev, nxt, "cu_loc")
    assert part.updated == {"a"} and part.unchanged == frozenset()


def test_membership_is_per_metric():
    # LOC changes but CBO does not: updated for one metric, unchanged for the other
    prev = snapshot("r1", {"a": vector(cu_loc=10, cu_cbo=3)})
    nxt = snapshot("r2", {"a": vector(cu_loc=14, cu_cbo=3)})
    assert classify_cus(prev, nxt, "cu_loc").updated == {"a"}
    assert classify_cus(prev, nxt, "cu_cbo").unchanged == {"a"}


def test_added_and_deleted():
    prev = snapshot("r1", {"a": vector(), "gone": vector()})
    nxt = snapshot("r2", {"a": vector(), "new": vector()})
    part = classify_cus(prev, nxt, "cu_loc")
    assert part.added == {"new"}
    assert part.deleted == {"gone"}


def test_unknown_metric():
    prev = snapshot("r1", {"a": vector()})
    with pytest.raises(UnknownMetric):
        classify_cus(prev, prev, "dit")


def test_partition_completeness_and_disjointness():
    prev = snapshot("r1", {p: vector(cu_loc=i) for i, p in enumerate(["a", "b", "c", "d"])})
    nxt = snapshot(
        "r2",
        {"a": vector(cu_loc=0), "b": vector(cu_loc=9), "c": vector(cu_loc=2), "e": vector()},
    )
    part = classify_cus(prev, nxt, "cu_loc")
    families = [part.updated, part.unchanged, part.added, part.deleted]
    union = set().union(*families)
    assert union == set(prev.metrics) | set(nxt.metrics)
    assert sum(len(f) for f in families) == len(union)


def test_swap_symmetry():
    prev = snapshot("r1", {"a": vector(cu_loc=1), "gone": vector()})
    nxt = snapshot("r2", {"a": vector(cu_loc=2), "new": vector()})
    fwd = classify_cus(prev, nxt, "cu_loc")
    back = classify_cus(nxt, prev, "cu_loc")
    assert fwd.added == back.deleted and fwd.deleted == back.added
    assert fwd.updated == back.updated and fwd.unchanged == back.unchanged


def test_snapshot_rejects_ledger_with_unknown_infected_cu():
    with pytest.raises(ValueError):
        snapshot("r1", {"a": vector()}, {"ghost": 2})


def test_snapshot_rejects_mismatched_release():
    with pytest.raises(ValueError):
        ReleaseSnapshot("r1", {"a": vector()}, ledger_of("r2", {}))


@pytest.mark.parametrize("twice", ["unchanged", "added", "deleted"])
def test_a_partition_rejects_a_cu_in_two_families(twice):
    families = dict.fromkeys(("updated", "unchanged", "added", "deleted"), frozenset())
    families["updated"] = families[twice] = frozenset({"a"})
    with pytest.raises(AssertionError):
        FamilyPartition("cu_loc", **families)


def test_a_partition_is_immutable_and_hashable():
    part = FamilyPartition("cu_loc", frozenset({"a"}), frozenset({"b"}), frozenset(), frozenset({"c"}))
    with pytest.raises(AttributeError):
        part.added = frozenset({"d"})
    assert hash(part) == hash(FamilyPartition(*part))


# -- family stats ----------------------------------------------------------------


def test_family_stats_hand_example():
    counts = {"c1": 1, "c2": 2, "c3": 3, "c4": 1, "c5": 1, "c6": 4}
    family = {f"c{i}" for i in range(1, 11)}
    ledger = ledger_of("r2", counts)
    stats = family_stats(family, ledger)
    assert stats.n == 10
    assert stats.infected == 6
    assert stats.infection_probability == pytest.approx(0.6)
    assert stats.mean_bugs_infected == pytest.approx(2.0)


def test_family_stats_no_infected_members():
    stats = family_stats({"a", "b"}, ledger_of("r2", {}))
    assert stats.infected == 0
    assert stats.infection_probability == 0.0
    assert stats.mean_bugs_infected is None


def test_family_stats_bounds():
    stats = family_stats({"a", "b", "c"}, ledger_of("r2", {"a": 5}))
    assert 0.0 <= stats.infection_probability <= 1.0
    assert stats.mean_bugs_infected >= 1.0


def test_family_stats_empty_family():
    with pytest.raises(EmptyFamily):
        family_stats(set(), ledger_of("r2", {}))


# -- delta metric correlation ------------------------------------------------------
# The delta row's status is decided by the pair writer, so these tests read the
# cu_loc row of the delta-correlation table that ``write_evolution`` writes.


def two_release_fixture(bug_counts, locs_prev, locs_next):
    paths = sorted(locs_prev)
    prev = snapshot("r1", {p: vector(cu_loc=locs_prev[p]) for p in paths})
    nxt = ReleaseSnapshot(
        "r2",
        {p: vector(cu_loc=locs_next[p]) for p in paths},
        ledger_of("r2", bug_counts),
    )
    part = classify_cus(prev, nxt, "cu_loc")
    return part, prev, nxt


def delta_row(prev, nxt, out) -> dict[str, str]:
    """The cu_loc row of the pair's delta-correlation table."""
    write_evolution(prev, nxt, out)
    header, *rows = [line.split("\t") for line in (out / "delta-correlation-r1-r2.tsv").read_text().splitlines()]
    (row,) = [dict(zip(header, cells)) for cells in rows if cells[0] == "cu_loc"]
    return row


def test_delta_correlation_proportional_is_one(tmp_path):
    locs_prev = {"a": 10, "b": 10, "c": 10, "d": 10, "e": 10}
    locs_next = {"a": 11, "b": 12, "c": 13, "d": 14, "e": 15}
    bugs = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}  # proportional to the change
    _, prev, nxt = two_release_fixture(bugs, locs_prev, locs_next)
    row = delta_row(prev, nxt, tmp_path)
    assert float(row["r"]) == pytest.approx(1.0, abs=1e-12)
    assert (row["n_used"], row["n_excluded"], row["status"]) == ("5", "0", "ok")


def test_delta_correlation_hand_computed(tmp_path):
    # fractional changes 1,2,3,4 against bugs 1,3,2,4: the 0.8 case
    locs_prev = {"a": 10, "b": 10, "c": 10, "d": 10}
    locs_next = {"a": 20, "b": 30, "c": 40, "d": 50}
    bugs = {"a": 1, "b": 3, "c": 2, "d": 4}
    _, prev, nxt = two_release_fixture(bugs, locs_prev, locs_next)
    assert abs(float(delta_row(prev, nxt, tmp_path)["r"]) - 0.8) < 1e-12


def test_delta_correlation_constant_bugs_degenerate(tmp_path):
    locs_prev = {"a": 10, "b": 10, "c": 10}
    locs_next = {"a": 11, "b": 12, "c": 13}
    bugs = {"a": 2, "b": 2, "c": 2}
    _, prev, nxt = two_release_fixture(bugs, locs_prev, locs_next)
    row = delta_row(prev, nxt, tmp_path)
    assert (row["n_used"], row["n_excluded"], row["r"], row["status"]) == ("3", "0", "", "degenerate")


def test_delta_correlation_too_few_updated(tmp_path):
    locs_prev = {"a": 10, "b": 10, "c": 0, "d": 10}
    locs_next = {"a": 11, "b": 12, "c": 13, "d": 10}  # d unchanged, c has no ratio
    _, prev, nxt = two_release_fixture({"a": 1, "b": 2}, locs_prev, locs_next)
    row = delta_row(prev, nxt, tmp_path)
    assert (row["n_used"], row["n_excluded"], row["r"], row["status"]) == ("2", "1", "", "too-few-updated")


def test_zero_previous_value_members_are_excluded(tmp_path):
    locs_prev = {"a": 0, "b": 10, "c": 10, "d": 10, "e": 10}
    locs_next = {"a": 5, "b": 12, "c": 14, "d": 16, "e": 18}
    bugs = {"b": 1, "c": 2, "d": 3, "e": 4}
    part, prev, nxt = two_release_fixture(bugs, locs_prev, locs_next)
    changes, counts = fractional_changes(part, prev, nxt)
    assert len(part.updated) - len(changes) == 1  # the zero-prev member
    row = delta_row(prev, nxt, tmp_path)
    assert (row["n_used"], row["n_excluded"]) == ("4", "1")
    assert float(row["r"]) == pytest.approx(1.0, abs=1e-12)


def test_delta_correlation_invariant_under_bug_rescaling(tmp_path):
    locs_prev = {"a": 10, "b": 10, "c": 10, "d": 10}
    locs_next = {"a": 20, "b": 30, "c": 40, "d": 50}
    bugs = {"a": 1, "b": 3, "c": 2, "d": 4}
    _, prev, nxt = two_release_fixture(bugs, locs_prev, locs_next)
    r1 = float(delta_row(prev, nxt, tmp_path)["r"])
    scaled = ReleaseSnapshot(
        "r2", nxt.metrics, ledger_of("r2", {p: 3 * n for p, n in bugs.items()})
    )
    r2 = float(delta_row(prev, scaled, tmp_path)["r"])
    assert abs(r1 - r2) < 1e-12


# -- family significance ------------------------------------------------------------


def engineered_partition(n_per_family=100):
    updated = frozenset(f"u{i}" for i in range(n_per_family))
    unchanged = frozenset(f"x{i}" for i in range(n_per_family))
    added = frozenset(f"a{i}" for i in range(n_per_family))
    return FamilyPartition(
        metric="cu_loc", updated=updated, unchanged=unchanged, added=added, deleted=frozenset()
    )


def infect(prefix, count):
    return {f"{prefix}{i}": 1 for i in range(count)}


def test_identical_infection_rates_give_zero_chi2():
    part = engineered_partition(10)
    ledger = ledger_of("r2", {**infect("u", 5), **infect("x", 5), **infect("a", 5)})
    res = family_significance(part, ledger)
    assert res.chi2 == pytest.approx(0.0, abs=1e-12)


def test_engineered_rates_hand_computed_chi2():
    # rates 0.7 / 0.2 / 0.5 over three families of 100: chi2 = 1425/28
    part = engineered_partition(100)
    ledger = ledger_of("r2", {**infect("u", 70), **infect("x", 20), **infect("a", 50)})
    res = family_significance(part, ledger)
    assert res.chi2 == pytest.approx(1425 / 28, abs=1e-9)
    assert res.dof == 2
    assert res.p_value < 0.001


def test_empty_family_raises():
    part = FamilyPartition(
        metric="cu_loc",
        updated=frozenset({"u"}),
        unchanged=frozenset(),
        added=frozenset(),
        deleted=frozenset(),
    )
    with pytest.raises(EmptyFamily):
        family_significance(part, ledger_of("r2", {"u": 1}))
