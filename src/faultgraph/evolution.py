"""Cross-release analysis: CU families, infection statistics, significance.

Between consecutive releases and for a chosen metric, every CU present in
both snapshots is *updated* (metric changed) or *unchanged*; CUs only in the
later release are *added*; CUs only in the earlier one are *deleted* and
excluded from the statistics. CU identity across releases is the file path,
so renames count as delete plus add.

This module computes numbers only. Which status a pair's row carries (an
empty family, too few updated CUs, a degenerate table) is decided by
``pipeline.write_evolution``.
"""

from typing import NamedTuple

from .bugs import BugLedger
from .errors import EmptyFamily
from .metrics import MetricVector, metric_value
from .tailstats import ChiSquareResult, chi_square_independence

FAMILY_NAMES = ("updated", "unchanged", "added")


class _ReleaseSnapshot(NamedTuple):
    release: str
    metrics: dict[str, MetricVector]  # CU path -> metric vector
    ledger: BugLedger


class ReleaseSnapshot(_ReleaseSnapshot):
    """One release as its pairs see it, checked when made: the ledger is
    this release's and cites no CU outside it."""

    __slots__ = ()

    def __new__(cls, release: str, metrics: dict[str, MetricVector], ledger: BugLedger):
        self = super().__new__(cls, release, metrics, ledger)
        if self.ledger.release != self.release:
            raise ValueError(
                f"ledger is for release {self.ledger.release!r}, snapshot is {self.release!r}"
            )
        stray = [p for p, n in self.ledger.bugs_per_cu.items() if n > 0 and p not in self.metrics]
        if stray:
            raise ValueError(
                f"ledger references CUs missing from the snapshot: {sorted(stray)[:5]}"
            )
        return self


class _FamilyPartition(NamedTuple):
    metric: str
    updated: frozenset[str]
    unchanged: frozenset[str]
    added: frozenset[str]
    deleted: frozenset[str]


class FamilyPartition(_FamilyPartition):
    """The families of one release pair for one metric, disjoint when made."""

    __slots__ = ()

    def __new__(
        cls,
        metric: str,
        updated: frozenset[str],
        unchanged: frozenset[str],
        added: frozenset[str],
        deleted: frozenset[str],
    ):
        self = super().__new__(cls, metric, updated, unchanged, added, deleted)
        assert not (self.updated & self.unchanged)
        assert not ((self.updated | self.unchanged) & self.added)
        assert not ((self.updated | self.unchanged | self.added) & self.deleted)
        return self


class FamilyStats(NamedTuple):
    infection_probability: float
    mean_bugs_infected: float | None  # undefined when nothing is infected
    n: int
    infected: int  # members with at least one bug


def classify_cus(prev: ReleaseSnapshot, next_: ReleaseSnapshot, metric: str) -> FamilyPartition:
    """Partition CUs into updated/unchanged/added/deleted for one metric."""
    prev_paths = set(prev.metrics)
    next_paths = set(next_.metrics)
    common = prev_paths & next_paths
    updated = {
        p for p in common
        if metric_value(prev.metrics[p], metric) != metric_value(next_.metrics[p], metric)
    }
    return FamilyPartition(
        metric=metric,
        updated=frozenset(updated),
        unchanged=frozenset(common - updated),
        added=frozenset(next_paths - prev_paths),
        deleted=frozenset(prev_paths - next_paths),
    )


def family_stats(family, ledger: BugLedger) -> FamilyStats:
    if not family:
        raise EmptyFamily("family has no members")
    infected = [p for p in family if ledger.count(p) >= 1]
    probability = len(infected) / len(family)
    mean = sum(ledger.count(p) for p in infected) / len(infected) if infected else None
    return FamilyStats(probability, mean, n=len(family), infected=len(infected))


def fractional_changes(
    partition: FamilyPartition,
    prev: ReleaseSnapshot,
    next_: ReleaseSnapshot,
) -> tuple[list[float], list[int]]:
    """(fractional changes, later-release bug counts) over usable updated CUs,
    sorted by path; the metric is the partition's. An updated CU whose
    previous value is zero has no ratio and is left out."""
    metric = partition.metric
    changes: list[float] = []
    bug_counts: list[int] = []
    for path in sorted(partition.updated):
        before = metric_value(prev.metrics[path], metric)
        if before == 0:
            continue
        after = metric_value(next_.metrics[path], metric)
        changes.append((after - before) / before)
        bug_counts.append(next_.ledger.count(path))
    return changes, bug_counts


def stats_significance(stats: list[FamilyStats]) -> ChiSquareResult:
    """Chi-square independence test on the (family x infected) table of the
    families' stats, in ``FAMILY_NAMES`` order."""
    return chi_square_independence([[s.infected, s.n - s.infected] for s in stats])


def family_significance(partition: FamilyPartition, ledger: BugLedger) -> ChiSquareResult:
    """Chi-square independence test on the 3x2 (family x infected) table."""
    return stats_significance([family_stats(getattr(partition, name), ledger) for name in FAMILY_NAMES])
