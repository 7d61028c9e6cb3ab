"""Pure arithmetic of the benchmark: percentiles, failure shares, digests.

Nothing here imports the program, so the tests in ``perfbench/tests`` pin
these rules without building a network.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value.

    Always one of the observed values, never an interpolation. Raises on an
    empty sequence: a benchmark figure with no samples behind it is a bug.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """p50 and p99 with the sample count behind them.

    ``beyond_p99`` counts samples strictly above the reported p99; a p99
    is only worth reporting when that is at least ten.
    """
    ordered = sorted(values)
    p50 = nearest_rank(ordered, 50.0)
    p99 = nearest_rank(ordered, 99.0)
    return {
        "p50": p50,
        "p99": p99,
        "n": len(ordered),
        "beyond_p99": sum(1 for v in ordered if v > p99),
    }


def failure_counts(records: Iterable) -> Tuple[int, int, int, int]:
    """``(arrived, missed, unfinished, undecided)`` over job records.

    A record needs ``outcome.accepted``, ``decided_at``, ``completed`` and
    ``met_deadline`` (the program's ``JobRecord`` has them). *Missed*:
    accepted, finished, but after its deadline. *Unfinished*: accepted and
    never finished. *Undecided*: never accepted nor rejected. A rejected
    job is none of these: the guarantee ratio counts rejections.
    ``failed_frac`` is ``(missed + unfinished + undecided) / arrived``.
    """
    arrived = missed = unfinished = undecided = 0
    for rec in records:
        arrived += 1
        if rec.decided_at is None:
            undecided += 1
        elif rec.outcome.accepted:
            if not rec.completed:
                unfinished += 1
            elif rec.met_deadline is False:
                missed += 1
    return arrived, missed, unfinished, undecided


def digest(stats: Mapping[str, float]) -> str:
    """Short stable hash of a flat name -> number mapping.

    ``json`` writes floats with ``repr``, i.e. every digit, so two digests
    agree only when every simulated statistic agrees bit for bit.
    """
    blob = json.dumps(dict(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

