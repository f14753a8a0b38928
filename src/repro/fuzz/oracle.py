"""The full-pipeline differential oracle: one spec, every backend.

:func:`run_oracle` pushes a generated :class:`~repro.fuzz.model.
SpecModel` through the complete toolchain and reports the *first*
discrepancy as a :class:`FuzzFinding`:

1. **build** -- the model must materialise (typed
   :class:`~repro.fuzz.model.InvalidSpecModel` otherwise);
2. **lint** -- the spec-level rules must report no ERROR (the
   generator's clean-by-construction contract);
3. **behavioral** -- the cycle-accurate network runs under its raising
   SELF protocol monitors (invariant (2), Retry persistence, payload
   checks, fixed-point convergence), after an optional ``mutate`` hook
   -- the seeded-bug demo patches a controller here;
4. **differential** -- the gate-level netlist (with ND environment
   stubs, whose free inputs are protocol-legal for *any* 0/1 stream)
   runs lock-step on the scalar two-phase simulator, the bit-parallel
   batch kernel and the compiled backend under randomized per-lane
   schedules; every channel wire must agree on every lane every cycle,
   and the non-raising SELF monitors of :mod:`repro.faults.monitors`
   watch the scalar trace (**protocol** stage);
5. **ctl** -- below an input/state budget, the Kripke structure is
   built and the paper's safety properties (invariant, Retry+/Retry−)
   are model checked; a :class:`~repro.verif.kripke.
   StateSpaceLimitError` is a skip, not a finding.

Stages 4-5 are skipped when a register capacity is not 2 (the one
configuration the gate backend cannot emit).  All randomness derives
from ``random.Random(f"fuzz:{seed}:...")`` streams, so a finding is
replayable from ``(model, seed)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.fuzz.model import InvalidSpecModel, SpecModel

__all__ = ["FuzzFinding", "OracleConfig", "run_oracle"]

#: A behavioural-network mutation hook (the seeded-bug demo).
Mutation = Callable[[object], object]


@dataclass(frozen=True)
class FuzzFinding:
    """One oracle discrepancy: which stage broke, and how."""

    spec: str
    seed: int
    stage: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"spec": self.spec, "seed": self.seed, "stage": self.stage,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.spec} [{self.stage}] {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Budgets for one oracle run."""

    cycles: int = 96
    lanes: int = 8
    #: run the gate-level scalar/batch/compiled differential stage
    check_gates: bool = True
    #: include the compiled backend in the differential comparison
    check_compiled: bool = True
    #: run the bounded Kripke/CTL spot check
    check_verify: bool = True
    #: skip CTL when the netlist has more free inputs than this (the
    #: exploration enumerates 2^k input combinations per state)
    verify_max_inputs: int = 6
    verify_max_states: int = 20_000
    #: optional BuildCache for compiled modules and Kripke structures
    cache: object = None


def _finding(model: SpecModel, seed: int, stage: str,
             detail: str) -> FuzzFinding:
    return FuzzFinding(spec=model.name, seed=seed, stage=stage,
                       detail=detail)


def run_oracle(
    model: SpecModel,
    seed: int = 0,
    config: OracleConfig = OracleConfig(),
    mutate: Optional[Mutation] = None,
) -> Optional[FuzzFinding]:
    """Run the whole pipeline on ``model``; None means all stages agree."""
    from repro.elastic.protocol import ProtocolViolation
    from repro.lint.elastic_rules import lint_network, lint_spec

    # Stage 1: build.
    try:
        spec = model.build()
    except InvalidSpecModel as exc:
        return _finding(model, seed, "build", str(exc))

    # Stage 2: the clean-by-construction lint contract.
    errors = [f for f in lint_spec(spec) if f.severity.name == "ERROR"]
    if errors:
        return _finding(model, seed, "lint",
                        "; ".join(str(f) for f in errors))

    # Stage 3: behavioural run under raising protocol monitors.
    from repro.synthesis.elaborate import to_behavioral

    net = to_behavioral(spec, seed=seed, monitor=True, check_data=True)
    if mutate is not None:
        mutate(net)
    net_errors = [f for f in lint_network(net)
                  if f.severity.name == "ERROR"]
    if net_errors:
        return _finding(model, seed, "network-lint",
                        "; ".join(str(f) for f in net_errors))
    try:
        for _ in range(config.cycles):
            net.step()
    except ProtocolViolation as exc:
        return _finding(model, seed, "behavioral", str(exc))

    if not config.check_gates or any(
        r.capacity != 2 for r in spec.registers.values()
    ):
        return None

    # Stage 4: scalar vs batch vs compiled on the gate netlist.
    finding = _gate_differential(model, spec, seed, config)
    if finding is not None:
        return finding

    # Stage 5: bounded Kripke/CTL spot check.
    if config.check_verify:
        return _ctl_spot_check(model, spec, seed, config)
    return None


def _gate_differential(
    model: SpecModel, spec, seed: int, config: OracleConfig
) -> Optional[FuzzFinding]:
    from repro.faults.monitors import channel_monitors
    from repro.lint.netlist_rules import lint_netlist
    from repro.rtl.batchsim import BatchSimulator, pack_stimulus
    from repro.rtl.simulator import TwoPhaseSimulator
    from repro.synthesis.elaborate import to_gates

    elab = to_gates(spec, include_env=True, as_latches=False)
    nl = elab.netlist
    nl_errors = [f for f in lint_netlist(nl) if f.severity.name == "ERROR"]
    if nl_errors:
        return _finding(model, seed, "netlist-lint",
                        "; ".join(str(f) for f in nl_errors))

    channels = [elab.channels[k] for k in sorted(elab.channels)]
    wires = [w for ch in channels for w in ch.wires()]
    inputs = sorted(nl.inputs)
    lanes = config.lanes
    stimuli = []
    for lane in range(lanes):
        rng = random.Random(f"fuzz:{seed}:{model.name}:env:{lane}")
        stimuli.append([
            {name: rng.getrandbits(1) for name in inputs}
            for _ in range(config.cycles)
        ])

    scalar = TwoPhaseSimulator(nl)
    batch = BatchSimulator(nl, lanes=lanes)
    compiled = None
    if config.check_compiled:
        from repro.codegen.sim import CompiledSimulator

        compiled = CompiledSimulator(
            nl, lanes, hooks=frozenset(), observe=frozenset(wires),
            cache=config.cache,
        )
    monitors = channel_monitors(channels)

    for t, packed in enumerate(pack_stimulus(stimuli)):
        batch.cycle(packed)
        if compiled is not None:
            compiled.cycle(packed)
        values = scalar.cycle(stimuli[0][t])
        for wire in wires:
            want = values.get(wire)
            got = batch.lane_value(wire, 0)
            if got != want:
                return _finding(
                    model, seed, "differential",
                    f"cycle {t} wire {wire}: scalar={want!r} "
                    f"batch[0]={got!r}",
                )
            # One word compare per wire; the per-lane loop below alone
            # decides a finding, so stray plane bits cannot forge one.
            if compiled is not None and (
                compiled.planes(wire) != batch.planes(wire)
            ):
                for lane in range(lanes):
                    c = compiled.lane_value(wire, lane)
                    if c != batch.lane_value(wire, lane):
                        return _finding(
                            model, seed, "differential",
                            f"cycle {t} wire {wire} lane {lane}: "
                            f"batch={batch.lane_value(wire, lane)!r} "
                            f"compiled={c!r}",
                        )
        for monitor in monitors:
            violation = monitor.observe(t, values)
            if violation is not None:
                return _finding(model, seed, "protocol", str(violation))
    return None


def _ctl_spot_check(
    model: SpecModel, spec, seed: int, config: OracleConfig
) -> Optional[FuzzFinding]:
    from repro.synthesis.elaborate import to_gates
    from repro.verif.kripke import StateSpaceLimitError
    from repro.verif.properties import verify_netlist

    elab = to_gates(spec, include_env=True, as_latches=False)
    if len(elab.netlist.inputs) > config.verify_max_inputs:
        return None
    channels = [elab.channels[k] for k in sorted(elab.channels)]
    try:
        result = verify_netlist(
            elab.netlist, channels, include_liveness=False,
            max_states=config.verify_max_states, cache=config.cache,
        )
    except StateSpaceLimitError:
        return None  # over budget: a skip, not a finding
    if not result.ok:
        return _finding(
            model, seed, "ctl",
            "failed CTL properties: "
            + ", ".join(f"{ch}.{prop}" for ch, prop in result.failures()),
        )
    return None
