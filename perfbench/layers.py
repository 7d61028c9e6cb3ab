"""The per-layer wrappers of the traced run, their metrics and self-checks.

:func:`install` wraps the public entry points of every layer named in
``perfbench/README.md``; :func:`layer_metrics` turns one traced instance's
:class:`~ledger.Ledger` into the per-layer figures; :func:`self_check`
reconciles the wrapper counts with counters the program keeps on its own,
so a wrapper that something bypasses fails the run instead of
under-reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ledger import Ledger, Patcher

#: message types whose handlers the table reports (paper §4–§11)
RTDS_TYPES: Tuple[str, ...] = (
    "SPHERE", "ENROLL", "ENROLL_ACK", "ENROLL_REFUSE", "VALIDATE",
    "VALIDATE_ACK", "EXECUTE", "EXECUTE_ACK", "UNLOCK", "RESULT",
)

#: RTDSSite methods that only ever run as expiring timers
RTDS_TIMERS: Tuple[str, ...] = (
    "_enroll_timeout", "_enroll_ack_timeout", "_validate_ack_timeout",
    "_execute_ack_timeout", "_lease_expired_call",
)


@dataclass
class RunCounters:
    """What the program counted itself during one traced instance."""

    wall_ns: int
    events: int
    msg_count: Dict[str, int]
    msg_total: int
    setup_messages: int
    lost_by_type: Dict[str, int]
    msgs_lost: int
    #: transmissions the fault injector saw (0 without one)
    fault_transmissions: int
    #: jobs with an accept/reject decision
    decided: int
    cache_stats: Dict[str, int]
    retransmissions: int
    folded: int
    rows_repaired: int
    backpressure_waits: int
    #: finished executor records; None where hygiene pruned them
    executed_records: Optional[int]
    #: span names that must have fired on this workload
    expect: Tuple[str, ...] = field(default=())


def _count_forward(ledger: Ledger, args: tuple, _result) -> None:
    ledger.counts["forward." + args[1].mtype] += 1


def _count_local_test(ledger: Ledger, _args: tuple, result) -> None:
    ledger.counts["local_test.accepted"] += result is not None


def _count_adjust(ledger: Ledger, _args: tuple, result) -> None:
    ledger.counts["adjust.accepted"] += bool(result.accepted)


def _count_endorse(ledger: Ledger, args: tuple, result) -> None:
    ledger.counts["endorse.asked"] += len(args[2])
    ledger.counts["endorse.endorsed"] += len(result[0])


def install(ledger: Ledger) -> Patcher:
    """Wrap every layer; call before the network is built, restore after."""
    # Load every module that binds a wrapped function by name first: one
    # imported while the patch is active would keep the wrapper for good.
    import repro.api  # noqa: F401
    from repro.core.admission_cache import AdmissionCache
    from repro.core.rtds import RTDSSite
    from repro.faults.injector import FaultInjector
    from repro.metrics.collector import MetricsCollector
    from repro.sched.executor import PlanExecutor
    from repro.sched.plan import SchedulingPlan
    from repro.service.resident import ResidentSimulation
    from repro.simnet.engine import Simulator
    from repro.simnet.network import Network
    from repro.simnet.site import SiteBase

    p = Patcher()
    span = ledger.wrap
    in_setup = [False]

    def mark_setup(orig):
        def build_resident(*args, **kwargs):
            in_setup[0] = True
            try:
                return orig(*args, **kwargs)
            finally:
                in_setup[0] = False

        return build_resident

    def engine(orig):
        setup_run = span("engine.setup", orig)
        run = span("engine", orig)

        def run_(self, *args, **kwargs):
            return (setup_run if in_setup[0] else run)(self, *args, **kwargs)

        return run_

    def on(orig):
        counts = ledger.counts

        def on_(self, mtype, handler):
            timed = span("handler." + mtype, handler)
            inner = "inner." + mtype

            def handle(msg):
                if ledger.current == "handler.SPHERE":
                    counts[inner] += 1  # unwrapped from a sphere envelope
                return timed(msg)

            return orig(self, mtype, handle)

        return on_

    p.function("repro.experiments.runner", "build_resident", mark_setup)
    p.method(Simulator, "run", engine)
    p.method(Network, "transmit", lambda f: span("network.transmit", f))
    p.method(SiteBase, "receive", lambda f: span("site.receive", f))
    p.method(SiteBase, "_forward", lambda f: span("site.forward", f, _count_forward))
    p.method(SiteBase, "on", on)
    p.method(RTDSSite, "submit_job", lambda f: span("rtds.submit_job", f))
    for name in RTDS_TIMERS:
        p.method(RTDSSite, name, lambda f: span("rtds.timer", f))
    p.function(
        "repro.core.local_test", "local_guarantee_test",
        lambda f: span("local_test", f, _count_local_test),
    )
    p.function("repro.core.mapper", "build_trial_mapping", lambda f: span("mapper", f))
    p.function(
        "repro.core.adjustment", "adjust_trial_mapping",
        lambda f: span("adjust", f, _count_adjust),
    )
    p.function(
        "repro.core.validation", "endorse_mapping",
        lambda f: span("endorse", f, _count_endorse),
    )
    p.function("repro.core.validation", "compute_permutation", lambda f: span("permutation", f))
    p.method(AdmissionCache, "endorse", lambda f: span("cache.endorse", f))
    p.function("repro.spheres.pcs", "build_pcs", lambda f: span("pcs.build", f))
    p.function("repro.spheres.pcs", "sphere_broadcast", lambda f: span("sphere.broadcast", f))
    p.method(SchedulingPlan, "commit", lambda f: span("plan.commit", f))
    p.method(SchedulingPlan, "surplus", lambda f: span("plan.surplus", f))
    p.method(PlanExecutor, "_finish_call", lambda f: span("executor.finish", f))
    p.method(PlanExecutor, "notify_committed", lambda f: span("executor.notify_committed", f))
    p.method(PlanExecutor, "deliver_token", lambda f: span("executor.deliver_token", f))
    p.function("repro.simnet.topology", "topology_factory", lambda f: span("topology.generate", f))
    p.function("repro.simnet.topology", "build_network", lambda f: span("topology.build_network", f))
    p.function("repro.routing.vectorized", "phased_tables", lambda f: span("routing.phased_tables", f))
    p.function("repro.workloads.scenarios", "generate_workload", lambda f: span("workload.generate", f))
    p.function("repro.workloads.openloop", "open_loop_rate", lambda f: span("workload.generate", f))
    p.function(
        "repro.workloads.openloop", "open_loop_jobs",
        lambda f: ledger.wrap_iter("workload.open_loop", f),
    )
    p.method(MetricsCollector, "decide", lambda f: span("collector.decide", f))
    p.method(MetricsCollector, "fold_before", lambda f: span("collector.fold", f))
    p.method(ResidentSimulation, "feed", lambda f: span("service.feed", f))
    p.method(ResidentSimulation, "hygiene", lambda f: span("service.hygiene", f))
    p.method(FaultInjector, "on_transmit", lambda f: span("faults.on_transmit", f))
    p.function("repro.membership.repair", "repair_after_join", lambda f: span("membership.repair", f))
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, run: RunCounters) -> Dict[str, float]:
    """Every per-layer figure of one traced instance (see README.md)."""
    L = ledger
    c = L.counts
    out: Dict[str, float] = {}
    engine_self = L.spans["engine"].self_ns + L.spans["engine.setup"].self_ns
    out["engine.events"] = run.events
    out["engine.self_ns_per_event"] = _ratio(engine_self, run.events)
    out["network.transmits"] = L.calls("network.transmit")
    out["network.transmit_self_ns"] = L.per_call("network.transmit", "self_ns", 1.0)
    receives = L.calls("site.receive")
    out["site.receives"] = receives
    out["site.forwards"] = L.calls("site.forward")
    site_self = L.spans["site.receive"].self_ns + L.spans["site.forward"].self_ns
    out["site.receive_self_ns"] = _ratio(site_self, receives)
    for t in RTDS_TYPES:
        out[f"rtds.{t}.calls"] = L.calls("handler." + t)
        out[f"rtds.{t}.self_us"] = L.per_call("handler." + t, "self_ns")
    out["rtds.submit_job.calls"] = L.calls("rtds.submit_job")
    out["rtds.submit_job.self_us"] = L.per_call("rtds.submit_job", "self_ns")
    out["rtds.timer.calls"] = L.calls("rtds.timer")
    out["rtds.timer.self_us"] = L.per_call("rtds.timer", "self_ns")
    out["rtds.retransmissions"] = run.retransmissions
    out["local_test.calls"] = L.calls("local_test")
    out["local_test.us"] = L.per_call("local_test")
    out["local_test.accept_ratio"] = _ratio(c["local_test.accepted"], L.calls("local_test"))
    out["mapper.calls"] = L.calls("mapper")
    out["mapper.us"] = L.per_call("mapper")
    out["mapper.success_ratio"] = _ratio(c["adjust.accepted"], L.calls("mapper"))
    out["adjust.calls"] = L.calls("adjust")
    out["adjust.us"] = L.per_call("adjust")
    out["endorse.calls"] = L.calls("endorse")
    out["endorse.us"] = L.per_call("endorse")
    out["endorse.accept_ratio"] = _ratio(c["endorse.endorsed"], c["endorse.asked"])
    out["permutation.calls"] = L.calls("permutation")
    out["permutation.us"] = L.per_call("permutation")
    cs = run.cache_stats
    out["cache.lookups"] = L.calls("cache.endorse")
    out["cache.hit_rate"] = _ratio(cs.get("hits", 0), cs.get("hits", 0) + cs.get("misses", 0))
    out["cache.invalidations"] = cs.get("invalidations", 0)
    out["cache.endorse_self_us"] = L.per_call("cache.endorse", "self_ns")
    out["pcs.builds"] = L.calls("pcs.build")
    out["pcs.build_us"] = L.per_call("pcs.build")
    out["sphere.broadcasts"] = L.calls("sphere.broadcast")
    out["sphere.broadcast_self_us"] = L.per_call("sphere.broadcast", "self_ns")
    out["plan.commits"] = L.calls("plan.commit")
    out["plan.commit_us"] = L.per_call("plan.commit")
    out["plan.surplus_calls"] = L.calls("plan.surplus")
    out["plan.surplus_us"] = L.per_call("plan.surplus")
    out["executor.task_finishes"] = L.calls("executor.finish")
    out["executor.callback_self_us_per_finish"] = L.per_call("executor.finish", "self_ns")
    out["executor.notify_committed_us"] = L.per_call("executor.notify_committed")
    out["executor.deliver_token_us"] = L.per_call("executor.deliver_token")
    out["topology.generate_s"] = L.total_s("topology.generate")
    out["topology.build_network_s"] = L.total_s("topology.build_network")
    out["routing.phased_tables_s"] = L.total_s("routing.phased_tables")
    out["routing.protocol_setup_s"] = L.total_s("engine.setup")
    out["routing.setup_messages"] = run.setup_messages
    out["workload.generate_s"] = L.total_s("workload.generate")
    out["workload.open_loop_us_per_job"] = L.per_call("workload.open_loop")
    out["collector.decides"] = L.calls("collector.decide")
    out["collector.fold_s"] = L.total_s("collector.fold")
    out["collector.folded"] = run.folded
    out["service.feed_s"] = L.total_s("service.feed")
    out["service.hygiene_s"] = L.total_s("service.hygiene")
    out["service.backpressure_waits"] = run.backpressure_waits
    out["faults.on_transmit_calls"] = L.calls("faults.on_transmit")
    out["faults.on_transmit_ns"] = L.per_call("faults.on_transmit", "total_ns", 1.0)
    out["faults.msgs_lost"] = run.msgs_lost
    out["membership.repairs"] = L.calls("membership.repair")
    out["membership.repair_ms"] = L.per_call("membership.repair", "total_ns", 1e-6)
    out["membership.rows_repaired"] = run.rows_repaired
    out["residual_s"] = (run.wall_ns - L.covered_ns) / 1e9
    return {k: float(v) for k, v in out.items()}


def self_check(ledger: Ledger, run: RunCounters) -> List[str]:
    """Wrapper counts against the program's own counters; [] when all agree."""
    L = ledger
    problems: List[str] = []

    def agree(what: str, wrapped: int, independent: int) -> None:
        if wrapped != independent:
            problems.append(f"{what}: wrappers saw {wrapped}, program counted {independent}")

    agree("network.transmits vs MessageStats.total", L.calls("network.transmit"), run.msg_total)
    types = set(run.msg_count) | {
        name.split(".", 1)[1] for name in L.spans if name.startswith("handler.")
    }
    for t in sorted(types):
        direct = L.calls("handler." + t) - L.counts["inner." + t]
        expected = (
            run.msg_count.get(t, 0) - L.counts["forward." + t] - run.lost_by_type.get(t, 0)
        )
        agree(f"{t} handler calls vs sent - forwarded - lost", direct, expected)
    cs = run.cache_stats
    if cs:
        agree(
            "cache.lookups vs hits + misses + uncacheable",
            L.calls("cache.endorse"),
            cs["hits"] + cs["misses"] + cs["uncacheable"],
        )
    agree("collector.decides vs decided jobs", L.calls("collector.decide"), run.decided)
    agree(
        "faults.on_transmit_calls vs FaultStats.transmissions",
        L.calls("faults.on_transmit"), run.fault_transmissions,
    )
    if run.executed_records is not None:
        agree(
            "executor.task_finishes vs executed records",
            L.calls("executor.finish"), run.executed_records,
        )
    for name in run.expect:
        if L.calls(name) == 0:
            problems.append(f"wrapper {name!r} never fired (bypassed?)")
    return problems
