"""Differential testing: CompiledSimulator vs the scalar simulator.

Hypothesis reuses the shared random-circuit strategies of
``tests/strategies.py`` (the same distribution the lane-parallel
differential suite drives) and checks the compiled engine with its
restriction knobs -- override hooks only at the injected nets -- and
past the 64-lane word boundary.  The contract under test is exact:
every lane of a compiled module must equal its own scalar
:class:`~repro.rtl.simulator.TwoPhaseSimulator` replay, for every
signal, every cycle, with X stimulus and per-lane faults live.
"""

import random

import pytest
from hypothesis import given, settings

from repro.codegen.sim import CompiledSimulator
from repro.rtl.planes import pack_stimulus
from repro.rtl.simulator import TwoPhaseSimulator
from tests.strategies import (
    LANES,
    _batch_overrides,
    _scalar_overrides,
    differential_cases,
)


def _widen(per_lane, lanes):
    """Extend 64 per-lane sequences to ``lanes`` by cyclic repetition."""
    return [per_lane[i % len(per_lane)] for i in range(lanes)]


def _run_against_scalar(nl, sims, stimuli, injections, ctx):
    """Drive ``sims`` lock-step with one scalar replay per lane."""
    lanes = len(stimuli)
    scalars = [TwoPhaseSimulator(nl) for _ in range(lanes)]
    signals = sorted(nl.signals())
    for t, packed in enumerate(pack_stimulus(stimuli)):
        overrides = _batch_overrides(injections, t)
        for sim in sims:
            sim.set_overrides(overrides)
            sim.cycle(packed)
            assert sim.check_lane_integrity() == 0
        for lane, scalar in enumerate(scalars):
            scalar.overrides = _scalar_overrides(injections[lane], t)
            values = scalar.cycle(stimuli[lane][t])
            for sim in sims:
                for sig in signals:
                    assert sim.lane_value(sig, lane) == values[sig], (
                        f"{ctx} t={t} lane={lane} sig={sig} "
                        f"inj={injections[lane]}"
                    )
    for lane, scalar in enumerate(scalars):
        for sim in sims:
            assert sim.lane_state(lane) == scalar.state, (ctx, lane)


@settings(max_examples=60, deadline=None)
@given(differential_cases())
def test_compiled_matches_scalar(case):
    """64 lanes: general and hook-restricted modules == scalar."""
    seed, nl, stimuli, injections = case
    injected = frozenset(i[0] for i in injections if i is not None)
    sims = [
        CompiledSimulator(nl, LANES),
        CompiledSimulator(nl, LANES, hooks=injected),
    ]
    _run_against_scalar(nl, sims, stimuli, injections, f"seed={seed}")


@settings(max_examples=25, deadline=None)
@given(differential_cases())
def test_wide_lanes_match_scalar(case):
    """96 lanes (past one machine word): every lane == its scalar run."""
    lanes = 96
    seed, nl, stimuli, injections = case
    stimuli = _widen(stimuli, lanes)
    injections = _widen(injections, lanes)
    sim = CompiledSimulator(nl, lanes)
    _run_against_scalar(nl, [sim], stimuli, injections, f"seed={seed}")


def _all_known_stimulus(target, lanes, cycles):
    rngs = [random.Random(f"lane:{lane}") for lane in range(lanes)]
    return [
        [
            {name: rng.getrandbits(1) for name in target.free_inputs}
            for _ in range(cycles)
        ]
        for rng in rngs
    ]


def test_known_dialect_runs_and_matches():
    """All-known stimulus keeps the value-plane-only kernel active."""
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb"]()
    nl = target.netlist
    stimuli = _all_known_stimulus(target, LANES, 60)
    sim = CompiledSimulator(nl, LANES)
    assert sim.module.KNOWN_OK
    _run_against_scalar(nl, [sim], stimuli, [None] * LANES, "known")
    assert sim._known_active, "known dialect should have stayed active"


def test_known_dialect_falls_back_on_x():
    """One X input permanently drops to the two-plane kernel."""
    from repro.faults.targets import TARGETS
    from repro.rtl.logic import X

    target = TARGETS["dual_ehb"]()
    nl = target.netlist
    stimuli = _all_known_stimulus(target, LANES, 30)
    first = next(iter(target.free_inputs))
    stimuli[7][10] = dict(stimuli[7][10], **{first: X})
    sim = CompiledSimulator(nl, LANES)
    _run_against_scalar(nl, [sim], stimuli, [None] * LANES, "fallback")
    assert not sim._known_active
    sim.reset()
    assert sim._known_active, "reset() must re-arm the known dialect"


def test_non_hook_override_rejected():
    from repro.faults.targets import TARGETS
    from repro.rtl.planes import LaneOverride

    target = TARGETS["dual_ehb"]()
    sim = CompiledSimulator(
        target.netlist, 8,
        hooks=frozenset(), observe=frozenset(target.observe),
    )
    wire = target.fault_sites[0]
    with pytest.raises(ValueError, match="not a hook"):
        sim.set_overrides({wire: LaneOverride(set1=1)})
    with pytest.raises(ValueError, match="unknown net"):
        sim.set_overrides({"no.such.net": LaneOverride(set1=1)})


def test_unobserved_signal_rejected():
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb"]()
    observed = sorted(target.observe)[:2]
    sim = CompiledSimulator(
        target.netlist, 8,
        hooks=frozenset(), observe=frozenset(observed),
    )
    sim.cycle({})
    assert sim.planes(observed[0]) is not None
    hidden = next(
        s for s in sorted(target.observe) if s not in observed
    )
    with pytest.raises(ValueError, match="not observed"):
        sim.planes(hidden)
