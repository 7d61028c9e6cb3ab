"""The layer-ledger benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady48 --seed 1 --seconds 38 --trace 0

``--trace 0`` runs instances of the workload back to back for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` alternates
plain and wrapped instances and prints the per-layer metrics. Either way
the correctness checks run outside the timed region, a human-readable
table goes to stdout, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
from time import perf_counter

import figures
import layers
import speed
from ledger import Ledger

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: machine-speed samples (speed.py) after each rep last this share of
#: the rep, and at least SAMPLE_MIN_S seconds
SAMPLE_SHARE = 0.15
SAMPLE_MIN_S = 0.2


def declared_units(trace: int) -> dict:
    """Name → unit of every metric ``BENCHMARK.json`` declares for the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result(metrics: dict, units: dict, problems: list, **counts) -> dict:
    """The last stdout line: ``metrics`` must be exactly the declared ones."""
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for p in sorted(set(problems)):
        print(f"  CHECK FAILED: {p}")
    return {
        "correct": not problems,
        **counts,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }


def _reps(cell, seconds: float, min_reps: int, step) -> list:
    """Call ``step(index)`` for rep 0, 1, ... until ``seconds`` have passed.

    Rep ``i`` runs instance ``i % cell.instances``; ``min_reps`` of at
    least ``cell.instances`` makes every instance run.
    """
    out = []
    t0 = perf_counter()
    while len(out) < min_reps or perf_counter() - t0 < seconds:
        gc.collect()  # the previous instance's garbage, outside any timing
        out.append(step(len(out) % cell.instances))
    return out


def pooled(reps) -> dict:
    """Simulated figures over one rep of each instance, pooled job by job."""
    arrived = sum(r.arrived for r in reps)
    return {
        "guarantee_ratio": sum(r.accepted for r in reps) / arrived,
        "latency": figures.latency_summary([x for r in reps for x in r.latencies]),
        "messages_per_job": sum(r.protocol_messages for r in reps) / arrived,
        "failed_frac": sum(r.broken for r in reps) / arrived,
    }


def end_to_end(cell, seed: int, seconds: float, units: dict) -> dict:
    from workloads import instance_seed

    first, rows, problems = {}, [], []
    # kernel passes after every rep, a share of the rep long, so the
    # machine's speed is sampled across the whole run; the first sample
    # also warms the interpreter up
    passes = speed.sample(1.0)

    def step(index):
        rep = cell.rep(seed, index)
        passes.extend(speed.sample(max(SAMPLE_MIN_S, SAMPLE_SHARE * rep.wall_ns / 1e9)))
        if index in first:
            if rep.digest != first[index].digest:
                problems.append(f"instance {index}: simulated statistics differ between reps")
        else:
            problems.extend(f"instance {index}: {p}" for p in rep.check())
            first[index] = rep
        rep.check = None  # drop the network; only the figures stay
        rows.append(rep)

    # one more than the instances, so at least one instance runs twice
    _reps(cell, seconds, cell.instances + 1, step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim = pooled(first.values())
    lat = sim["latency"]
    if lat["beyond_p99"] < 10:
        problems.append(f"only {lat['beyond_p99']} samples beyond p99")

    def per_instance(times) -> float:
        # each instance's mean over its reps, summed over the instances:
        # instances differ in cost, and how many reps each gets varies. A
        # mean, like the slowdown it is divided by, averages the machine's
        # jitter over the run; a median or minimum of a few reps does not.
        by_instance: dict = {}
        for j, t in enumerate(times):
            by_instance.setdefault(j % cell.instances, []).append(t)
        return sum(statistics.fmean(v) for v in by_instance.values())

    setup_s = [r.setup_s for r in rows]
    exec_s = [r.exec_s for r in rows]
    decided = sum(r.decided for r in first.values())
    slowdown = speed.slowdown(passes)
    metrics = {
        "setup_s": per_instance(setup_s) / len(first) / slowdown,
        "jobs_per_s": decided / per_instance(exec_s) * slowdown,
        "peak_rss_mb": rss_mb,
        "guarantee_ratio": sim["guarantee_ratio"],
        "decision_latency_p50": lat["p50"],
        "decision_latency_p99": lat["p99"],
        "messages_per_job": sim["messages_per_job"],
        "promise_kept_frac": 1.0 - sim["failed_frac"],
    }
    print(f"workload {cell.name}  seed {seed}  reps {len(rows)}")
    for i, rep in sorted(first.items()):
        extra = "  ".join(f"{k} {v:.6g}" for k, v in rep.extra.items())
        print(f"  instance {i} (stream seed {instance_seed(seed, i)}): "
              f"{rep.arrived} jobs, digest {rep.digest}  {extra}")
    print(f"  {'metric':<24}{'value':>14}  unit")
    for name, value in metrics.items():
        print(f"  {name:<24}{value:>14.6g}  {units.get(name, '?')}")
    print(f"  {'failed_frac':<24}{sim['failed_frac']:>14.6g}  {units['promise_kept_frac']}")
    print(f"  latency samples {lat['n']} ({lat['beyond_p99']} beyond p99)")
    print(f"  machine slowdown {slowdown:.4f} over {len(passes)} kernel passes; "
          f"unscaled host time: setup_s {per_instance(setup_s) / len(first):.6g}, "
          f"jobs_per_s {decided / per_instance(exec_s):.6g}")
    print("  jobs/s per rep: " + " ".join(f"{r.jobs_per_s:.1f}" for r in rows))
    return result(
        metrics, units, problems,
        attempted=sum(r.arrived for r in rows), failed=sum(r.failed for r in rows),
    )


def traced(cell, seed: int, seconds: float, units: dict) -> dict:
    plain_walls, traced_walls, per_rep, problems = [], [], [], []
    digests: dict = {}
    totals = {"attempted": 0, "failed": 0}

    def step(index):
        # alternate which side of the pair runs first, so drift hits both
        for wrapped in (False, True) if len(plain_walls) % 2 == 0 else (True, False):
            if wrapped:
                ledger = Ledger()
                patcher = layers.install(ledger)
                try:
                    rep = cell.rep(seed, index)
                finally:
                    patcher.restore()
                traced_walls.append(rep.wall_ns)
                per_rep.append(layers.layer_metrics(ledger, rep.counters))
                problems.extend(layers.self_check(ledger, rep.counters))
                totals["attempted"] += rep.arrived
                totals["failed"] += rep.failed
            else:
                rep = cell.rep(seed, index)
                plain_walls.append(rep.wall_ns)
            digests.setdefault(index, set()).add(rep.digest)

    _reps(cell, seconds, cell.instances, step)
    for index, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append(f"instance {index}: traced and plain simulated statistics differ")
    metrics = {name: statistics.median([m[name] for m in per_rep]) for name in per_rep[0]}
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    print(f"workload {cell.name}  seed {seed}  traced reps {len(per_rep)}")
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>16.6g}  {units.get(name, '?')}")
    return result(metrics, units, problems, **totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cell = workloads.CELLS.get(args.workload)
    if cell is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.CELLS)}",
              file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    print(json.dumps(run(cell, args.seed, args.seconds, declared_units(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
