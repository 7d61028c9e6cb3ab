"""The three benchmark workloads and one instance ("rep") of each.

A rep runs one workload instance from configuration to drained network
and returns its host times, its simulated results and the program's own
counters. An instance is a pure function of ``(seed, index)``, so every
rep of one instance simulates the same thing and must produce the same
digest.

Each workload keeps its network and fault schedule fixed (``NETWORK_SEED``,
the E9 macro cell's) and draws its job stream from the instance seed. The
arrival rate is the one the program calibrates for the network seed: its
generators estimate mean job work from 64 pilot DAGs of the stream's own
seed, and that estimate alone moves the offered load by up to 10% from
seed to seed, which would swamp every figure the benchmark compares.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, replace
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import figures
from layers import RunCounters
from ledger import Patcher

import repro.api as api
from repro.core.events import JobOutcome
from repro.experiments.runner import ExperimentConfig
from repro.experiments.soak import SoakConfig
from repro.obs.telemetry import ReservoirTimer
from repro.service.admission import AdmissionService
from repro.workloads import scenarios
from repro.workloads.traces import parse_workload, trace_dag_factory

#: seed of every workload's network, fault schedule and arrival rate
NETWORK_SEED = 0

#: the E9 macro cell's 48-site wide-area graph
E9_TOPOLOGY = {"n": 48, "p": 4.0 / 47, "delay_range": (0.2, 1.0)}

#: the program's load-calibration pilot: mean work of this many DAGs
#: drawn from ``default_rng(seed + 1)`` (repro.workloads.scenarios)
PILOT_DAGS = 64

#: spans that fire on every workload (RTDS admission, execution, setup)
COMMON_SPANS: Tuple[str, ...] = (
    "engine", "network.transmit", "site.receive", "site.forward",
    "handler.SPHERE", "handler.ENROLL", "handler.ENROLL_ACK", "handler.VALIDATE",
    "handler.VALIDATE_ACK", "handler.EXECUTE", "handler.RESULT",
    "rtds.submit_job", "local_test", "mapper", "adjust", "endorse", "permutation",
    "cache.endorse", "pcs.build", "sphere.broadcast", "plan.commit", "plan.surplus",
    "executor.finish", "executor.notify_committed", "executor.deliver_token",
    "topology.generate", "topology.build_network", "collector.decide",
    "workload.generate",
)


def instance_seed(seed: int, index: int) -> int:
    """Job-stream seed of instance ``index`` of benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Rep:
    """One workload instance: host times, simulated results, counters."""

    setup_s: float
    exec_s: float
    wall_ns: int
    arrived: int
    decided: int
    accepted: int
    #: accepted jobs that finished late or never, plus undecided jobs
    broken: int
    latencies: List[float]
    protocol_messages: int
    digest: str
    counters: RunCounters
    #: correctness checks still to run on this instance (outside timing)
    check: Callable[[], List[str]]
    extra: Dict[str, float]

    @property
    def jobs_per_s(self) -> float:
        return self.decided / self.exec_s

    @property
    def failed(self) -> int:
        """Admission requests that never got a decision."""
        return self.arrived - self.decided


@contextlib.contextmanager
def _on_return(module: str, name: str, hook: Callable[[], None]):
    """Call ``hook()`` each time ``module.name`` returns."""
    with Patcher() as p:

        def make(orig):
            def hooked(*args, **kwargs):
                result = orig(*args, **kwargs)
                hook()
                return result

            return hooked

        p.function(module, name, make)
        yield


def _counters(net, setup_messages: int, injector, collector, **kw) -> RunCounters:
    stats = net.stats
    cache = net.admission_cache
    return RunCounters(
        events=net.sim.events_processed,
        msg_count=dict(stats.count),
        msg_total=stats.total,
        setup_messages=setup_messages,
        lost_by_type=dict(injector.stats.lost_by_type) if injector is not None else {},
        msgs_lost=injector.stats.lost_total if injector is not None else 0,
        fault_transmissions=injector.stats.transmissions if injector is not None else 0,
        decided=collector.n_arrived() - collector.count(JobOutcome.PENDING),
        cache_stats=cache.stats() if cache is not None else {},
        retransmissions=sum(
            n for k, n in collector.protocol_events.items() if k.endswith("_retransmit")
        ),
        folded=collector.n_folded,
        **kw,
    )


def _pilot_mean(factory, seed: int) -> float:
    rng = np.random.default_rng(seed + 1)
    return float(np.mean([factory(rng).total_complexity() for _ in range(PILOT_DAGS)]))


class BatchCell:
    """A fixed network fed seeded batch job streams through ``repro.api.run``."""

    def __init__(
        self, name: str, config: ExperimentConfig, instances: int, expect: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.config = config
        #: distinct job streams one run pools its simulated figures over
        self.instances = instances
        self.expect = COMMON_SPANS + expect
        if config.workload == "synthetic":
            self.factory = scenarios.mixed_dag_factory(config.dag_size)
        else:
            self.factory = trace_dag_factory(parse_workload(config.workload)[1])
        self._network_pilot = _pilot_mean(self.factory, NETWORK_SEED)

    def spec(self, stream_seed: int) -> scenarios.WorkloadSpec:
        """The job stream of ``stream_seed`` at the network seed's arrival rate."""
        cfg = self.config
        # generate_workload divides rho by its own pilot mean; scaling rho
        # by pilot(stream) / pilot(network) cancels that to one fixed rate
        rho = cfg.rho * _pilot_mean(self.factory, stream_seed) / self._network_pilot
        return scenarios.WorkloadSpec(
            n_sites=cfg.topology_kwargs["n"],
            rho=rho,
            duration=cfg.duration,
            laxity_factor=cfg.laxity_factor,
            dag_factory=self.factory,
            deadline_jitter=cfg.deadline_jitter,
            seed=stream_seed,
        )

    def rep(self, seed: int, index: int) -> Rep:
        built: List[float] = []
        # the rate calibration is the benchmark's own work, not the program's
        spec = self.spec(instance_seed(seed, index))
        # run_experiment pauses the cyclic GC over set-up and the run when it
        # generates the workload itself; pausing it here makes its own pause a
        # no-op and puts generation under the same policy
        gc.disable()
        try:
            t0 = perf_counter()
            t0_ns = perf_counter_ns()
            wl = scenarios.generate_workload(spec)
            with _on_return(
                "repro.experiments.runner", "build_resident",
                lambda: built.append(perf_counter()),
            ):
                result = api.run(self.config, workload=wl)
            t_end = perf_counter()
            wall_ns = perf_counter_ns() - t0_ns
        finally:
            gc.enable()
        collector = result.collector
        records = collector.records()
        arrived, missed, unfinished, undecided = figures.failure_counts(records)
        net = result.network
        executed = sum(
            1 for site in net.sites.values() for r in site.executor.records().values() if r.done
        )
        counters = _counters(
            net, result.setup_messages, result.faults, collector,
            wall_ns=wall_ns, rows_repaired=0, backpressure_waits=0,
            executed_records=executed, expect=self.expect,
        )

        def check() -> List[str]:
            from repro.experiments.verify import verify_execution

            problems = [f"verify_execution: {v}" for v in verify_execution(result)]
            if missed or unfinished or undecided:
                # fault-free: every accepted job must finish by its deadline
                problems.append(
                    f"guarantee broken: {missed} late, {unfinished} unfinished, "
                    f"{undecided} undecided jobs"
                )
            agg = (
                collector.n_missed(), collector.n_unfinished(),
                collector.count(JobOutcome.PENDING),
            )
            if agg != (missed, unfinished, undecided):
                problems.append(
                    f"failure counts {agg} (collector) != {(missed, unfinished, undecided)}"
                )
            return problems

        return Rep(
            setup_s=built[0] - t0,
            exec_s=t_end - built[0],
            wall_ns=wall_ns,
            arrived=arrived,
            decided=arrived - undecided,
            accepted=collector.n_accepted(),
            broken=missed + unfinished + undecided,
            latencies=[r.decision_latency for r in records if r.decided_at is not None],
            protocol_messages=net.stats.total - result.setup_messages,
            digest=figures.digest(result.scalar_metrics()),
            counters=counters,
            check=check,
            extra={"local_share": collector.count(JobOutcome.ACCEPTED_LOCAL) / arrived},
        )


@dataclass
class _FixedNetworkSoak(SoakConfig):
    """A soak whose network, fault schedule and arrival rate ignore ``seed``.

    ``seed`` only draws the job stream; everything else comes from
    ``NETWORK_SEED``, exactly as a plain soak with that seed builds it.
    """

    def experiment_config(self) -> ExperimentConfig:
        return replace(super().experiment_config(), seed=NETWORK_SEED)

    def open_loop_spec(self, capacities):
        calibrated = SoakConfig.open_loop_spec(replace(self, seed=NETWORK_SEED), capacities)
        return replace(calibrated, seed=self.seed + 7)


class _KeepAll(ReservoirTimer):
    """The service's latency timer, also keeping every sample it is fed."""

    def __init__(self) -> None:
        super().__init__()
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)
        super().observe(value)


class ChurnSoak:
    """``repro.api.soak`` under site churn and mid-run joins (oracle routing)."""

    name = "churn_soak"
    instances = 6
    target_jobs = 3000
    #: at rho 0.6 over 40% of decisions are instantaneous and the median
    #: sits on the edge of that mass, swinging 15% between job streams
    rho = 0.7
    faults = "sites=6,downtime=40,joins=2,join_links=3"
    #: simulated span the churn and join times are drawn over (3000
    #: arrivals at rho 0.7 cover about 2300 time units)
    fault_horizon = 1800.0
    expect = COMMON_SPANS + (
        "handler.EXECUTE_ACK", "workload.open_loop", "routing.phased_tables",
        "collector.fold", "service.feed", "service.hygiene", "faults.on_transmit",
        "membership.repair",
    )

    def config(self, stream_seed: int) -> SoakConfig:
        return _FixedNetworkSoak(
            rho=self.rho,
            target_jobs=self.target_jobs,
            sample_every=1000,
            routing_mode="oracle",
            faults=self.faults,
            fault_horizon=self.fault_horizon,
            seed=stream_seed,
        )

    def rep(self, seed: int, index: int) -> Rep:
        cfg = self.config(instance_seed(seed, index))
        seen: Dict[str, Any] = {}

        def capture(orig):
            def init(svc, res, *args, **kwargs):
                orig(svc, res, *args, **kwargs)
                svc.latency = _KeepAll()
                seen.update(svc=svc, res=res, t=perf_counter())

            return init

        t0 = perf_counter()
        t0_ns = perf_counter_ns()
        with Patcher() as p:
            p.method(AdmissionService, "__init__", capture)
            report = api.soak(cfg)
        t_end = perf_counter()
        wall_ns = perf_counter_ns() - t0_ns
        svc, res = seen["svc"], seen["res"]
        resident = res.resident
        c = resident.metrics
        arrived = c.n_arrived()
        undecided = c.count(JobOutcome.PENDING)
        net = resident.network
        membership = resident.membership
        counters = _counters(
            net, resident.setup_messages, resident.injector, c,
            wall_ns=wall_ns, rows_repaired=membership.stats.repaired_rows,
            backpressure_waits=svc.stats.backpressure_waits,
            executed_records=None, expect=self.expect,
        )

        def check() -> List[str]:
            problems = []
            if report.leaked_unfinished:
                problems.append(f"{report.leaked_unfinished} executor records leaked")
            if svc.stats.decided != cfg.target_jobs:
                problems.append(f"decided {svc.stats.decided} of {cfg.target_jobs} jobs")
            if not membership.verify_converged():
                problems.append("membership tables did not converge to a full rebuild")
            return problems

        return Rep(
            setup_s=seen["t"] - t0,
            exec_s=t_end - seen["t"],
            wall_ns=wall_ns,
            arrived=arrived,
            decided=arrived - undecided,
            accepted=c.n_accepted(),
            broken=c.n_missed() + c.n_unfinished() + undecided,
            latencies=svc.latency.values,
            protocol_messages=net.stats.total - resident.setup_messages,
            digest=figures.digest(res.scalar_metrics()),
            counters=counters,
            check=check,
            extra={
                "backpressure_waits": svc.stats.backpressure_waits,
                "msgs_lost": counters.msgs_lost,
                "joins": membership.stats.joins_applied,
            },
        )


CELLS: Dict[str, Any] = {
    "steady48": BatchCell(
        "steady48",
        ExperimentConfig(
            topology_kwargs=dict(E9_TOPOLOGY), duration=2000.0, rho=0.7, seed=NETWORK_SEED,
        ),
        8, ("engine.setup",),
    ),
    "montage48": BatchCell(
        "montage48",
        ExperimentConfig(
            topology_kwargs=dict(E9_TOPOLOGY), duration=1500.0, rho=0.7, seed=NETWORK_SEED,
            workload="trace:montage",
        ),
        6, ("engine.setup",),
    ),
    "churn_soak": ChurnSoak(),
}
