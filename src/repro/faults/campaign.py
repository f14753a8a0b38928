"""Fault-injection campaigns with online monitors and JSON reports.

A campaign sweeps (fault site x fault kind x injection cycle) over a
target, runs every injection against a seeded, protocol-legal random
environment, and classifies each fault:

* ``detected`` -- an online monitor fired (the report records the
  monitor's name and the first detection cycle);
* ``latent`` -- no monitor fired but the run diverged from the golden
  (fault-free) reference -- internal state corruption that never
  reached an observable rule;
* ``undetected`` -- the run is indistinguishable from the golden run
  (the fault was logically masked).

Reports are deterministic: the same seed reproduces the same stimulus,
the same sweep order and byte-for-byte the same JSON.

Two campaign flavours:

* :func:`run_campaign` -- RTL stuck-at/flip faults on the gate-level
  controller targets of :mod:`repro.faults.targets`;
* :func:`run_processor_campaign` -- behavioural channel glitches and
  buffer state upsets on the Sect. 7 elastic processor.

RTL campaigns scale two ways, composable and both bit-identical to the
sequential sweep: ``lanes > 1`` classifies up to 64 injections per
simulation on the bit-parallel kernel
(:class:`~repro.faults.batch.BatchCampaignHarness`), and ``jobs > 1``
shards the injection chunks over the crash-tolerant
:class:`~repro.resilience.ShardSupervisor` (dead/hung workers are
detected and their chunks requeued), merging results back into sweep
order.  A ``checkpoint`` directory makes either flavour resumable: each
classified chunk is persisted atomically, and a rerun pointed at the
same directory skips completed chunks and still emits byte-for-byte the
same JSON report as an uninterrupted run.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.casestudy.processor import ProcessorConfig, build_processor
from repro.elastic.behavioral import ElasticBuffer
from repro.elastic.protocol import ProtocolViolation
from repro.faults.models import (
    BUFFER_FAULT_KINDS,
    CHANNEL_FAULT_KINDS,
    BufferFault,
    ChannelFault,
    Injection,
    RtlFaultInjector,
    StateSaboteur,
    WireSaboteur,
)
from repro.faults.monitors import (
    GoldenMonitor,
    Monitor,
    Violation,
    buffer_monitors,
    channel_monitors,
)
from repro.faults.targets import TARGETS, RtlTarget
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.supervisor import ShardSupervisor, SupervisorConfig
from repro.rtl.logic import Value
from repro.rtl.simulator import Override, State, TwoPhaseSimulator
from repro.verif.traces import TraceStep

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep parameters for an RTL campaign."""

    cycles: int = 400
    seed: int = 2007
    kinds: Tuple[str, ...] = ("stuck0", "stuck1")
    injection_cycles: Tuple[int, ...] = (0,)
    flip_duration: int = 1
    #: Try to prove faults the sweep missed equivalent to the fault-free
    #: circuit (exhaustive (state, input) equivalence over the DUT cone).
    untestable_analysis: bool = True


@dataclass(frozen=True)
class FaultOutcome:
    """The verdict for one injected fault."""

    fault: str
    status: str  # "detected" | "latent" | "undetected"
    monitor: Optional[str] = None
    detection_cycle: Optional[int] = None
    detail: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault,
            "status": self.status,
            "monitor": self.monitor,
            "detection_cycle": self.detection_cycle,
            "detail": self.detail,
        }


@dataclass
class CampaignReport:
    """All outcomes of one campaign, with deterministic serialisation."""

    target: str
    seed: int
    cycles: int
    outcomes: List[FaultOutcome] = field(default_factory=list)
    #: optional run metadata (wall time, cycles/sec, ...), absent from
    #: the serialised report unless set -- the default report stays
    #: byte-identical to the goldens.
    metrics: Optional[Dict[str, object]] = None
    #: optional lane-quarantine summary of the graceful-degradation
    #: harness (opt in via ``run_campaign(..., degradation=True)``);
    #: absent from the serialised report unless set.
    degradation: Optional[Dict[str, object]] = None
    #: optional fault-free performance baseline of the target (opt in
    #: via ``run_campaign(..., profile=True)``): the full
    #: :mod:`repro.obs.analyze` report dict; absent from the
    #: serialised report unless set.
    profile: Optional[Dict[str, object]] = None

    def counts(self) -> Dict[str, int]:
        counts = {"detected": 0, "latent": 0, "undetected": 0, "untestable": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def coverage(self) -> float:
        """Detected fraction of the *testable* faults (ATPG convention:
        faults proven equivalent to the fault-free circuit leave the
        denominator)."""
        counts = self.counts()
        testable = len(self.outcomes) - counts["untestable"]
        if testable <= 0:
            return 1.0
        return counts["detected"] / testable

    def detected(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.status == "detected"]

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "target": self.target,
            "seed": self.seed,
            "cycles": self.cycles,
            "counts": self.counts(),
            "coverage": round(self.coverage, 6),
            "faults": [o.to_dict() for o in self.outcomes],
        }
        if self.metrics is not None:
            d["metrics"] = self.metrics
        if self.degradation is not None:
            d["degradation"] = self.degradation
        if self.profile is not None:
            d["profile"] = self.profile
        return d

    def to_json(self) -> str:
        """Deterministic JSON (same seed => identical bytes)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        """The coverage table: monitor + first-detection cycle per fault."""
        width = max((len(o.fault) for o in self.outcomes), default=10)
        lines = [
            f"fault campaign [{self.target}] seed={self.seed} "
            f"cycles={self.cycles}",
            f"{'fault':{width}}  {'status':10}  {'detected by':28}  cycle",
        ]
        for o in self.outcomes:
            monitor = o.monitor or "-"
            cycle = "-" if o.detection_cycle is None else str(o.detection_cycle)
            lines.append(
                f"{o.fault:{width}}  {o.status:10}  {monitor:28}  {cycle}"
            )
        c = self.counts()
        testable = len(self.outcomes) - c["untestable"]
        lines.append(
            f"coverage: {c['detected']}/{testable} testable faults detected "
            f"({100.0 * self.coverage:.1f}%), {c['latent']} latent, "
            f"{c['undetected']} undetected, {c['untestable']} untestable"
        )
        return "\n".join(lines)


def make_stimulus(
    free_inputs: Sequence[str], cycles: int, seed: int
) -> List[Dict[str, int]]:
    """Seeded free-input bits, identical for golden and faulty runs."""
    rng = random.Random(seed)
    return [
        {name: rng.getrandbits(1) for name in free_inputs}
        for _ in range(cycles)
    ]


class CampaignHarness:
    """One target + one stimulus: golden reference and per-fault runs."""

    def __init__(self, target: RtlTarget, config: CampaignConfig) -> None:
        self.target = target
        self.config = config
        self.stimulus = make_stimulus(
            target.free_inputs, config.cycles, config.seed
        )
        self.sim = TwoPhaseSimulator(target.netlist)
        self.injector = RtlFaultInjector(self.sim)
        self.golden: List[Dict[str, Value]] = []
        self.golden_final: Dict[str, Value] = {}
        self._record_golden()

    def _record_golden(self) -> None:
        observe = self.target.observe
        self.injector.reset([])
        for inputs in self.stimulus:
            values = self.injector.cycle(inputs)
            self.golden.append({w: values.get(w) for w in observe})
        self.golden_final = dict(self.sim.state)

    def monitors(self) -> List[Monitor]:
        """A fresh monitor bank (protocol + EB state + golden lockstep)."""
        bank = channel_monitors(self.target.channels)
        bank.extend(buffer_monitors(self.target.ebs))
        bank.append(GoldenMonitor(self.target.observe, self.golden))
        return bank

    def run_schedule(
        self, schedule: Sequence[Injection], record: bool = False
    ) -> Tuple[Optional[Violation], Optional[List[TraceStep]], Dict[str, Value]]:
        """Run one injection schedule to first detection (or the horizon).

        Returns ``(violation, steps, final_state)`` where ``steps`` is
        the rendered trace up to and including the detection cycle when
        ``record`` is set.
        """
        self.injector.reset(schedule)
        bank = self.monitors()
        steps: Optional[List[TraceStep]] = [] if record else None
        for t, inputs in enumerate(self.stimulus):
            values = self.injector.cycle(inputs)
            if steps is not None:
                signals = {
                    w: (1 if values.get(w) == 1 else 0)
                    for w in self.target.observe
                }
                steps.append(TraceStep(state=t, inputs=dict(inputs),
                                       signals=signals))
            for monitor in bank:
                violation = monitor.observe(t, values)
                if violation is not None:
                    return violation, steps, dict(self.sim.state)
        return None, steps, dict(self.sim.state)

    def outcome(self, injection: Injection) -> FaultOutcome:
        """Run one fault and classify it."""
        violation, _, final_state = self.run_schedule([injection])
        if violation is not None:
            return FaultOutcome(
                fault=injection.label(),
                status="detected",
                monitor=violation.monitor,
                detection_cycle=violation.cycle,
                detail=violation.detail,
            )
        if final_state != self.golden_final:
            diverged = sorted(
                s for s, v in final_state.items()
                if self.golden_final.get(s) != v
            )
            return FaultOutcome(
                fault=injection.label(),
                status="latent",
                detail=f"state diverged: {', '.join(diverged[:4])}",
            )
        return FaultOutcome(fault=injection.label(), status="undetected")

    def run_chunk(
        self, injections: Sequence[Injection]
    ) -> List[FaultOutcome]:
        """Classify a chunk of injections one at a time (sweep order)."""
        return [self.outcome(injection) for injection in injections]


def enumerate_injections(
    target: RtlTarget, config: CampaignConfig
) -> List[Injection]:
    """The full (site x kind x cycle) sweep, in deterministic order."""
    injections: List[Injection] = []
    for net in target.fault_sites:
        for kind in config.kinds:
            for cycle in config.injection_cycles:
                duration = config.flip_duration if kind == "flip" else None
                injections.append(Injection(net, kind, cycle, duration))
    return injections


def prove_untestable(target: RtlTarget, injection: Injection) -> bool:
    """Exhaustively prove a fault equivalent to the fault-free circuit.

    Enumerates every (DUT state, boundary input) pair -- boundary inputs
    are the channel wires the environment drives, forced via the
    override hook -- and compares the faulty against the fault-free
    next state and DUT-driven channel outputs.  If no pair differs the
    fault is untestable by *any* environment, so (ATPG convention) it
    leaves the coverage denominator.

    Conservative: returns False (i.e. "maybe testable") when the DUT
    state lives in latches or the enumeration would be too large.
    """
    return _UntestableProver(target)(injection)


class _UntestableProver:
    """:func:`prove_untestable` for many injections into one target.

    The simulator is built once.  The fault-free step of each (state
    bits, boundary bits) pair is computed once and shared by every
    injection, and so is each verdict: the proof reads only the faulty
    net and the fault kind, never the injection cycle.
    """

    def __init__(self, target: RtlTarget) -> None:
        nl = target.netlist
        sites = set(target.fault_sites)
        self.state_bits = [q for q in target.fault_sites if q in nl.flops]
        self.boundary = [
            w for ch in target.channels for w in ch.wires() if w not in sites
        ]
        self.outputs = [
            w for ch in target.channels for w in ch.wires() if w in sites
        ]
        latched = any(q in nl.latches for q in sites)
        small = len(self.state_bits) + len(self.boundary) <= 16
        self.sim = TwoPhaseSimulator(nl) if small and not latched else None
        self._good: Dict[tuple, tuple] = {}
        self._verdicts: Dict[Tuple[str, str], bool] = {}

    def __call__(self, injection: Injection) -> bool:
        key = (injection.net, injection.kind)
        if key not in self._verdicts:
            self._verdicts[key] = self.sim is not None and self._prove(
                injection.net, injection.override())
        return self._verdicts[key]

    def _observe(self, state: State, overrides: Dict[str, Override]) -> tuple:
        """The DUT outputs and next state bits of one step."""
        self.sim.overrides = overrides
        vals, nxt = self.sim.step_function(state, {})
        return (tuple(map(vals.get, self.outputs)),
                tuple(map(nxt.get, self.state_bits)))

    def _prove(self, net: str, fault: Override) -> bool:
        base_state = self.sim.initial_state()
        for bits in itertools.product((0, 1), repeat=len(self.state_bits)):
            state = dict(base_state)
            state.update(zip(self.state_bits, bits))
            for env_bits in itertools.product((0, 1), repeat=len(self.boundary)):
                env = dict(zip(self.boundary, env_bits))
                good = self._good.get((bits, env_bits))
                if good is None:
                    good = self._good[bits, env_bits] = self._observe(state, env)
                if self._observe(state, {**env, net: fault}) != good:
                    return False
        return True


def resolve_target(target: Union[str, RtlTarget]) -> RtlTarget:
    if isinstance(target, RtlTarget):
        return target
    try:
        return TARGETS[target]()
    except KeyError:
        raise ValueError(
            f"unknown target {target!r}; pick one of {sorted(TARGETS)}"
        ) from None


def _chunked(
    items: Sequence[Injection], size: int
) -> List[List[Injection]]:
    """Sweep-order chunks of at most ``size`` injections."""
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _make_harness(
    tgt: RtlTarget,
    config: CampaignConfig,
    lanes: int,
    degrade: bool,
    metrics: Optional["MetricsRegistry"],
    backend: str = "batch",
    cache: Optional[str] = None,
):
    """The chunk-classifying harness for one (target, lanes, backend).

    ``backend="compiled"`` swaps the lane-parallel engine for the
    codegen backend (:class:`repro.codegen.harness.CompiledCampaignHarness`,
    used even at ``lanes=1``); ``cache`` is its build-cache directory
    (``None`` for the default).  The scalar engine stays the semantic
    reference for the degradation ladder either way.
    """
    if backend not in ("batch", "compiled"):
        raise ValueError(
            f"unknown backend {backend!r}; pick 'batch' or 'compiled'"
        )
    if lanes > 1 or backend == "compiled":
        if backend == "compiled":
            from repro.codegen.harness import CompiledCampaignHarness

            def factory():
                return CompiledCampaignHarness(
                    tgt, config, lanes, metrics=metrics, cache=cache
                )
        else:
            from repro.faults.batch import BatchCampaignHarness

            def factory():
                return BatchCampaignHarness(
                    tgt, config, lanes, metrics=metrics
                )

        if degrade:
            from repro.resilience.degrade import DegradingCampaignHarness

            return DegradingCampaignHarness(
                tgt, config, lanes, metrics=metrics, batch_factory=factory
            )
        return factory()
    return CampaignHarness(tgt, config)


def _chunk_worker(
    spec: Union[str, RtlTarget],
    config: CampaignConfig,
    lanes: int,
    degrade: bool,
    backend: str = "batch",
    cache: Optional[str] = None,
) -> Callable[[List[Injection]], List[FaultOutcome]]:
    """Worker-process initialiser for the shard supervisor.

    Top-level so :mod:`multiprocessing` can pickle it; each worker
    builds its harness (and golden run) once and serves chunks with it.
    ``cache`` travels as a plain directory string for the same reason;
    workers sharing a warm cache directory all hit the same artifact.
    """
    tgt = resolve_target(spec)
    harness = _make_harness(tgt, config, lanes, degrade, None, backend, cache)
    return harness.run_chunk


def _campaign_fingerprint(
    tgt: RtlTarget, config: CampaignConfig, lanes: int, total: int
) -> Dict[str, object]:
    """What a checkpoint directory is committed to: the sweep geometry."""
    return {
        "kind": "campaign",
        "target": tgt.name,
        "seed": config.seed,
        "cycles": config.cycles,
        "kinds": list(config.kinds),
        "injection_cycles": list(config.injection_cycles),
        "flip_duration": config.flip_duration,
        "untestable_analysis": config.untestable_analysis,
        "lanes": lanes,
        "total": total,
    }


def _apply_untestable_analysis(
    tgt: RtlTarget,
    cfg: CampaignConfig,
    injections: Sequence[Injection],
    outcomes: Sequence[FaultOutcome],
) -> List[FaultOutcome]:
    """Upgrade undetected faults the prover shows to be untestable.

    A shared post-pass over (injection, outcome) pairs so sequential,
    lane-sharded and process-sharded campaigns run the identical
    analysis on the identical inputs.  One prover serves the whole
    sweep, so the fault-free steps are shared across injections.
    """
    if not cfg.untestable_analysis:
        return list(outcomes)
    prover = _UntestableProver(tgt)
    final: List[FaultOutcome] = []
    for injection, outcome in zip(injections, outcomes):
        if outcome.status == "undetected" and prover(injection):
            outcome = FaultOutcome(
                fault=outcome.fault,
                status="untestable",
                detail=(
                    "proven equivalent to the fault-free circuit on every "
                    "(state, boundary input) pair"
                ),
            )
        final.append(outcome)
    return final


def run_campaign(
    target: Union[str, RtlTarget],
    config: Optional[CampaignConfig] = None,
    lanes: int = 1,
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    checkpoint: Optional[str] = None,
    shard_timeout: Optional[float] = None,
    max_retries: int = 2,
    degrade: bool = True,
    degradation: bool = False,
    profile: bool = False,
    backend: str = "batch",
    cache: Optional[str] = None,
    workers: Optional[Sequence[str]] = None,
    fabric: Optional[object] = None,
) -> CampaignReport:
    """Sweep every enumerated fault over ``target``.

    ``lanes > 1`` batches that many injections per simulation on the
    bit-parallel kernel; ``jobs > 1`` additionally spreads the chunks
    over supervised worker processes -- a worker that dies or blows the
    per-chunk ``shard_timeout`` has its chunk requeued (up to
    ``max_retries`` times, with capped exponential backoff) instead of
    sinking the campaign.  Every combination yields a byte-identical
    report for the same seed.

    ``checkpoint`` names a directory that receives one atomic JSON file
    per classified chunk; rerunning with the same directory (after a
    crash, a SIGKILL, Ctrl-C) validates the sweep fingerprint, skips
    the completed chunks and produces the byte-identical report of an
    uninterrupted run.

    ``degrade`` (default on, only meaningful with ``lanes > 1``) wraps
    the batch kernel in the graceful-degradation harness: a corrupt or
    faulted lane is quarantined and replayed on the scalar simulator
    rather than poisoning its whole chunk.

    ``progress`` is an optional ``fn(done_injections, total)`` hook
    (called per classified chunk).  ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry`: verdicts are tallied
    into ``campaign_faults_total{status,target}`` counters, shard
    requeues into ``campaign_shard_retries_total{reason}``, quarantined
    lanes into ``campaign_lane_quarantine_total{reason,target}``.
    Neither affects the outcomes or the serialised report.

    ``degradation`` (opt in) attaches a lane-quarantine summary to
    ``report.degradation`` -- total lanes replayed on the scalar engine
    and the per-reason breakdown -- serialised as a ``degradation`` key
    next to ``metrics``.  Off by default so the report stays
    byte-identical to the goldens.  Per-lane attribution lives in the
    coordinating process, so with ``jobs > 1`` the summary covers shard
    retries only.

    ``profile`` (opt in) attaches the fault-free performance baseline
    of the target -- the :mod:`repro.obs.analyze` cycle-accounting /
    attribution report, run on the scalar engine for the campaign's
    ``cycles`` and ``seed`` -- as a ``profile`` key.  Off by default
    so the report stays byte-identical to the goldens.  Requires the
    target to be one of the named stock targets.

    ``backend`` selects the lane-parallel engine: ``"batch"`` (the
    default) runs :class:`~repro.faults.batch.BatchCampaignHarness`,
    ``"compiled"`` the codegen backend with its on-disk build cache
    (``cache`` names the cache directory, shipped to workers as a plain
    string; ``None`` uses the default directory).  Reports are
    byte-identical across backends, and the checkpoint fingerprint
    deliberately excludes the backend so a campaign interrupted on one
    can resume on the other.

    ``workers`` names socket-fabric workers (``["host:port", ...]``,
    each one a running ``repro worker --listen``) and replaces the
    in-process sharding: chunks are leased over the
    :class:`~repro.fabric.FabricCoordinator` with work stealing,
    health-tracked reconnects and requeues.  Requires a *named*
    target (the worker rebuilds it from the name and the handshake
    rejects any worker whose netlist fingerprints differently).
    ``fabric`` optionally carries a :class:`~repro.fabric.FabricConfig`
    with the scheduling knobs.  The merged report stays byte-identical
    to ``jobs=1`` for any worker pool and any crash/steal schedule, and
    ``checkpoint`` composes: the coordinator (never a worker) persists
    each chunk, so a killed coordinator resumes against surviving
    workers.
    """
    cfg = config or CampaignConfig()
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if degradation and metrics is None:
        # The quarantine tallies ride on the metrics registry; conjure a
        # private one when the caller did not supply any.
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    tgt = resolve_target(target)
    injections = enumerate_injections(tgt, cfg)
    chunks = _chunked(injections, lanes)
    # Ship the target by name when we can: cheaper to pickle, and the
    # worker rebuilds it deterministically.
    spec: Union[str, RtlTarget] = target if isinstance(target, str) else tgt
    total = len(injections)

    store: Optional[CheckpointStore] = None
    by_index: Dict[int, List[FaultOutcome]] = {}
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        store.ensure_manifest(_campaign_fingerprint(tgt, cfg, lanes, total))
        for index, payload in store.chunks().items():
            if 0 <= index < len(chunks) and isinstance(payload, list):
                by_index[index] = [FaultOutcome(**d) for d in payload]
    done = sum(len(outs) for outs in by_index.values())

    def record(index: int, outs: List[FaultOutcome]) -> None:
        nonlocal done
        by_index[index] = outs
        done += len(outs)
        if store is not None:
            store.save_chunk(index, [o.to_dict() for o in outs])
        if progress is not None:
            progress(done, total)

    pending = [
        (index, chunk)
        for index, chunk in enumerate(chunks)
        if index not in by_index
    ]
    if progress is not None and done:
        progress(done, total)  # announce the resumed head start

    if workers:
        if not isinstance(target, str):
            raise ValueError(
                "the socket fabric needs a named target so workers can "
                "rebuild (and fingerprint) it independently"
            )
        from repro.fabric import (
            FabricConfig,
            FabricCoordinator,
            parse_workers,
        )
        from repro.fabric.jobs import (
            encode_campaign_config,
            encode_injection,
        )

        fabric_config = fabric or FabricConfig(
            unit_timeout=shard_timeout, max_retries=max_retries,
        )
        coordinator = FabricCoordinator(
            "campaign",
            {
                "target": target,
                "config": encode_campaign_config(cfg),
                "lanes": lanes,
                "degrade": degrade,
                "backend": backend,
                "cache": cache,
            },
            [
                (index, [encode_injection(i) for i in chunk])
                for index, chunk in pending
            ],
            parse_workers(",".join(workers)),
            config=fabric_config,
            metrics=metrics,
            on_result=lambda index, payload: record(
                index, [FaultOutcome(**d) for d in payload]
            ),
            injections_per_unit=lanes,
        )
        coordinator.run()
    elif jobs > 1 and len(pending) > 1:
        supervisor = ShardSupervisor(
            _chunk_worker,
            (spec, cfg, lanes, degrade, backend, cache),
            pending,
            config=SupervisorConfig(
                jobs=jobs, shard_timeout=shard_timeout,
                max_retries=max_retries,
            ),
            metrics=metrics,
            on_result=record,
        )
        supervisor.run()
    elif pending:
        harness = _make_harness(
            tgt, cfg, lanes, degrade, metrics, backend, cache
        )
        for index, chunk in pending:
            record(index, harness.run_chunk(chunk))

    outcomes = [o for index in sorted(by_index) for o in by_index[index]]
    report = CampaignReport(target=tgt.name, seed=cfg.seed, cycles=cfg.cycles)
    report.outcomes = _apply_untestable_analysis(tgt, cfg, injections, outcomes)
    if metrics is not None:
        for outcome in report.outcomes:
            metrics.counter(
                "campaign_faults_total", status=outcome.status, target=tgt.name
            ).inc()
    if degradation:
        report.degradation = _degradation_summary(
            metrics, tgt.name, lanes=lanes, degrade=degrade
        )
    if profile:
        from repro.obs.analyze import run_profile

        # The fault-free baseline always runs on the scalar engine so
        # the key is byte-identical whatever lane/backend combination
        # executed the sweep itself.
        report.profile = run_profile(
            tgt.name, cycles=cfg.cycles, seed=cfg.seed, backend="scalar"
        ).to_dict()
    return report


def _degradation_summary(
    metrics: "MetricsRegistry",
    target: str,
    lanes: int,
    degrade: bool,
) -> Dict[str, object]:
    """The ``degradation`` report key: lane-quarantine totals by reason.

    Reads the ``campaign_lane_quarantine_total{reason,target}`` series
    the harness tallied (filtered to ``target``) plus any shard retries;
    deterministic because the counters are summed, never timestamped.
    """
    by_reason: Dict[str, int] = {}
    for metric in metrics.series("campaign_lane_quarantine_total"):
        labels = dict(metric.labels)
        if labels.get("target") != target:
            continue
        reason = labels.get("reason", "unknown")
        by_reason[reason] = by_reason.get(reason, 0) + metric.value
    shard_retries = sum(
        m.value for m in metrics.series("campaign_shard_retries_total")
    )
    summary: Dict[str, object] = {
        "enabled": bool(degrade and lanes > 1),
        "lanes": lanes,
        "quarantined": sum(by_reason.values()),
        "by_reason": by_reason,
    }
    if shard_retries:
        summary["shard_retries"] = shard_retries
    return summary


# ----------------------------------------------------------------------
# Behavioural campaign: the elastic processor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorCampaignConfig:
    """Sweep parameters for the behavioural processor campaign."""

    cycles: int = 300
    seed: int = 2007
    kinds: Tuple[str, ...] = (
        "token_drop", "spurious_anti", "glitch_sp", "glitch_sn",
    )
    channels: Tuple[str, ...] = ("if_id", "disp", "alu_q", "wb_q")
    buffers: Tuple[str, ...] = ("EB_IF", "EB_ALU", "EB_WB")
    buffer_kinds: Tuple[str, ...] = BUFFER_FAULT_KINDS
    injection_cycles: Tuple[int, ...] = (60,)
    duration: int = 1


def _golden_commits(config: ProcessorCampaignConfig) -> List[int]:
    net, _, commit = build_processor(ProcessorConfig(seed=config.seed))
    net.run(config.cycles)
    return [instr.seq for instr in commit.committed]


def _processor_outcome(
    config: ProcessorCampaignConfig,
    fault: Union[ChannelFault, BufferFault],
    golden: List[int],
) -> FaultOutcome:
    net, _, commit = build_processor(ProcessorConfig(seed=config.seed))
    if isinstance(fault, ChannelFault):
        saboteur: Union[WireSaboteur, StateSaboteur] = WireSaboteur([fault])
    else:
        buffers = {
            c.name: c for c in net.controllers if isinstance(c, ElasticBuffer)
        }
        saboteur = StateSaboteur([fault], buffers)
    net.add_saboteur(saboteur)
    try:
        net.run(config.cycles)
    except ProtocolViolation as exc:
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="protocol",
            detection_cycle=net.cycle,
            detail=str(exc),
        )
    except AssertionError as exc:
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="commit-assert",
            detection_cycle=net.cycle,
            detail=str(exc),
        )
    committed = [instr.seq for instr in commit.committed]
    if committed != golden:
        divergence = next(
            (i for i, (a, b) in enumerate(zip(committed, golden)) if a != b),
            min(len(committed), len(golden)),
        )
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="golden-data",
            detail=(
                f"committed sequence diverges at index {divergence} "
                f"({len(committed)} vs {len(golden)} commits)"
            ),
        )
    if saboteur.applied:
        return FaultOutcome(
            fault=fault.label(),
            status="latent",
            detail="fault applied but the committed stream is unchanged",
        )
    return FaultOutcome(
        fault=fault.label(),
        status="undetected",
        detail="fault window never armed (nothing to corrupt)",
    )


def enumerate_processor_faults(
    config: ProcessorCampaignConfig,
) -> List[Union[ChannelFault, BufferFault]]:
    faults: List[Union[ChannelFault, BufferFault]] = []
    for channel in config.channels:
        for kind in config.kinds:
            if kind not in CHANNEL_FAULT_KINDS:
                raise ValueError(f"unknown channel fault kind {kind!r}")
            for cycle in config.injection_cycles:
                faults.append(ChannelFault(channel, kind, cycle, config.duration))
    for buffer in config.buffers:
        for kind in config.buffer_kinds:
            for cycle in config.injection_cycles:
                faults.append(BufferFault(buffer, kind, cycle))
    return faults


def run_processor_campaign(
    config: Optional[ProcessorCampaignConfig] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> CampaignReport:
    """Sweep behavioural faults over the Sect. 7 elastic processor."""
    cfg = config or ProcessorCampaignConfig()
    golden = _golden_commits(cfg)
    report = CampaignReport(target="processor", seed=cfg.seed, cycles=cfg.cycles)
    faults = enumerate_processor_faults(cfg)
    for fault in faults:
        report.outcomes.append(_processor_outcome(cfg, fault, golden))
        if progress is not None:
            progress(len(report.outcomes), len(faults))
    if metrics is not None:
        for outcome in report.outcomes:
            metrics.counter(
                "campaign_faults_total", status=outcome.status,
                target="processor",
            ).inc()
    return report
