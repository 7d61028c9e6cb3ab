"""Percentiles, failure shares and digests of the benchmark."""

import pytest

import figures
from repro.core.events import JobOutcome, JobRecord


def test_nearest_rank_picks_observed_values():
    values = [50, 15, 40, 20, 35]
    assert figures.nearest_rank(values, 30) == 20  # ceil(1.5) = 2nd smallest
    assert figures.nearest_rank(values, 40) == 20
    assert figures.nearest_rank(values, 50) == 35
    assert figures.nearest_rank(values, 100) == 50
    assert figures.nearest_rank([7.5], 99) == 7.5


def test_nearest_rank_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        figures.nearest_rank([], 50)
    with pytest.raises(ValueError):
        figures.nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        figures.nearest_rank([1.0], 101)


def test_latency_summary_reports_sample_count_beyond_p99():
    s = figures.latency_summary([float(v) for v in range(1, 1001)])
    assert s["n"] == 1000
    assert s["p50"] == 500.0
    assert s["p99"] == 990.0
    assert s["beyond_p99"] == 10


def test_latency_summary_ties_at_p99_are_not_beyond():
    s = figures.latency_summary([0.0] * 90 + [5.0] * 10)
    assert s["p50"] == 0.0
    assert s["p99"] == 5.0
    assert s["beyond_p99"] == 0


def _record(job, outcome, n_tasks=2, completions=None, deadline=10.0, decided=True):
    rec = JobRecord(job=job, origin=0, arrival=0.0, deadline=deadline, n_tasks=n_tasks, total_work=2.0)
    if decided:
        rec.outcome = outcome
        rec.decided_at = 1.0
    rec.completions = dict(completions or {})
    return rec


def _failed_frac(records):
    arrived, missed, unfinished, undecided = figures.failure_counts(records)
    return (missed + unfinished + undecided) / arrived


def test_failed_frac_counts_late_unfinished_and_undecided_but_not_rejected():
    records = [
        _record(0, JobOutcome.ACCEPTED_LOCAL, completions={"a": 4.0, "b": 9.0}),  # on time
        _record(1, JobOutcome.ACCEPTED_DISTRIBUTED, completions={"a": 4.0, "b": 12.0}),  # late
        _record(2, JobOutcome.ACCEPTED_LOCAL, completions={"a": 4.0}),  # never finished
        _record(3, JobOutcome.REJECTED_VALIDATION),  # rejected: not a failure
        _record(4, JobOutcome.REJECTED_NO_SPHERE),
        _record(5, JobOutcome.LOST_SITE_DOWN),  # a named loss counts as a rejection
        _record(6, None, decided=False),  # never decided
        _record(7, JobOutcome.ACCEPTED_DISTRIBUTED, completions={"a": 1.0, "b": 10.0}),  # at the deadline
    ]
    assert figures.failure_counts(records) == (8, 1, 1, 1)
    assert _failed_frac(records) == pytest.approx(3 / 8)


def test_failed_frac_is_zero_when_every_failure_is_a_rejection():
    records = [_record(i, JobOutcome.REJECTED_MAPPER) for i in range(4)]
    assert figures.failure_counts(records) == (4, 0, 0, 0)
    assert _failed_frac(records) == 0.0


def test_digest_sees_every_digit():
    a = figures.digest({"gr": 0.1 + 0.2, "n": 3})
    assert a == figures.digest({"n": 3, "gr": 0.30000000000000004})
    assert a != figures.digest({"n": 3, "gr": 0.3})

