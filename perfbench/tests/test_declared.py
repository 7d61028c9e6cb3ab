"""The traced run reports exactly the per-layer metrics BENCHMARK.json declares."""

import json
import pathlib

import layers
from ledger import Ledger

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_layer_metrics_are_the_declared_per_layer_metrics():
    idle = layers.RunCounters(
        wall_ns=0, events=0, msg_count={}, msg_total=0, setup_messages=0,
        lost_by_type={}, msgs_lost=0, fault_transmissions=0, decided=0,
        cache_stats={}, retransmissions=0, folded=0, rows_repaired=0,
        backpressure_waits=0, executed_records=None,
    )
    # run.py adds the overhead, which needs a plain rep beside the traced one
    reported = set(layers.layer_metrics(Ledger(), idle)) | {"trace_overhead_frac"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}
