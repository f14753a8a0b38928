"""The levelized scalar engine against a whole-netlist ternary sweep.

``reference_step`` below is the simulator's former evaluation strategy,
kept here only as an oracle: every phase re-sweeps all gates (then the
transparent latches) until nothing changes.  Because the ternary gates
and the overrides used here are monotone, both strategies reach the
same least fixed point, so ``TwoPhaseSimulator.step_function`` must
return exactly the same ``(values, next_state)`` -- including the raw
representation of values that ``BUF`` and latches pass through.
"""

import functools
import itertools
import random
import subprocess
import sys

import pytest

from repro.faults.targets import TARGETS
from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.rtl.logic import X, land, lmux, lnot, lor, lxor
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.simulator import CombinationalCycleError, TwoPhaseSimulator
from repro.rtl.toposort import find_combinational_cycle
from repro.synthesis.elaborate import to_gates

_REF_OPS = {
    "AND": land,
    "OR": lor,
    "NOT": lnot,
    "NAND": lambda *vs: lnot(land(*vs)),
    "NOR": lambda *vs: lnot(lor(*vs)),
    "XOR": lxor,
    "MUX": lmux,
    "BUF": lambda v: v,
    "CONST0": lambda: 0,
    "CONST1": lambda: 1,
}


def _force(ov, sig, v):
    if sig not in ov:
        return v
    o = ov[sig]
    return o(v) if callable(o) else o


def _ref_phase(nl, ov, inputs, state, phase):
    vals = {s: _force(ov, s, inputs.get(s, X)) for s in nl.inputs}
    vals.update((q, _force(ov, q, state[q])) for q in nl.flops)
    transparent = [lt for lt in nl.latches.values() if lt.phase == phase]
    for q, latch in nl.latches.items():
        vals[q] = X if latch.phase == phase else _force(ov, q, state[q])
    vals.update((out, X) for out in nl.gates)
    for _ in range(len(nl.gates) + len(transparent) + 2):
        changed = False
        for out, gate in nl.gates.items():
            new = _REF_OPS[gate.op](*[vals.get(i, X) for i in gate.ins])
            new = _force(ov, out, new)
            if new is not vals[out] and new != vals[out]:
                vals[out] = new
                changed = True
        for latch in transparent:
            new = _force(ov, latch.q, vals.get(latch.d, X))
            if new is not vals[latch.q] and new != vals[latch.q]:
                vals[latch.q] = new
                changed = True
        if not changed:
            break
    return vals


def reference_step(nl, overrides, state, inputs):
    """One cycle by whole-netlist fixed-point sweeps (the oracle)."""
    high = _ref_phase(nl, overrides, inputs, state, Phase.HIGH)
    mid = dict(state)
    mid.update((q, high[q]) for q, lt in nl.latches.items()
               if lt.phase == Phase.HIGH)
    low = _ref_phase(nl, overrides, inputs, mid, Phase.LOW)
    nxt = dict(mid)
    nxt.update((q, low[q]) for q, lt in nl.latches.items()
               if lt.phase == Phase.LOW)
    nxt.update((q, low.get(f.d, X)) for q, f in nl.flops.items())
    return low, nxt


def _typed(d):
    """Compare values with their type: ``True``, ``1`` and ``2`` differ."""
    return {k: (type(v).__name__, v) for k, v in d.items()}


def assert_same_step(nl, sim, state, inputs):
    got_vals, got_next = sim.step_function(state, inputs)
    want_vals, want_next = reference_step(nl, sim.overrides, state, inputs)
    assert _typed(got_vals) == _typed(want_vals)
    assert _typed(got_next) == _typed(want_next)
    return got_next


def _random_state(rng, nl, values=(0, 1, X)):
    return {q: rng.choice(values)
            for q in list(nl.latches) + list(nl.flops)}


def _random_inputs(rng, nl, values=(0, 1, X)):
    return {s: rng.choice(values) for s in nl.inputs}


def _random_overrides(rng, nl, count):
    sigs = (list(nl.inputs) + list(nl.gates) + list(nl.flops)
            + list(nl.latches))
    return {s: rng.choice((0, 1, lnot))
            for s in rng.sample(sigs, min(count, len(sigs)))}


@pytest.fixture(scope="module", params=sorted(TARGETS))
def target(request):
    return TARGETS[request.param]()


class TestCampaignTargets:
    def test_random_states_with_x(self, target):
        nl = target.netlist
        sim = TwoPhaseSimulator(nl)
        rng = random.Random(f"lev:{nl.name}:state")
        for _ in range(40):
            assert_same_step(nl, sim, _random_state(rng, nl),
                             _random_inputs(rng, nl))

    def test_truthy_inputs(self, target):
        nl = target.netlist
        sim = TwoPhaseSimulator(nl)
        rng = random.Random(f"lev:{nl.name}:truthy")
        values = (0, 1, X, True, False, 2)
        for _ in range(40):
            assert_same_step(nl, sim, _random_state(rng, nl, values),
                             _random_inputs(rng, nl, values))

    def test_random_overrides(self, target):
        nl = target.netlist
        sim = TwoPhaseSimulator(nl)
        rng = random.Random(f"lev:{nl.name}:ov")
        for _ in range(40):
            sim.overrides = _random_overrides(rng, nl, rng.randint(1, 6))
            assert_same_step(nl, sim, _random_state(rng, nl),
                             _random_inputs(rng, nl))

    def test_transparent_latch_overrides(self):
        nl = TARGETS["dual_ehb_latches"]().netlist
        assert nl.latches
        sim = TwoPhaseSimulator(nl)
        rng = random.Random("lev:latches")
        for q in nl.latches:
            for forced in (0, 1, lnot):
                sim.overrides = {q: forced}
                assert_same_step(nl, sim, _random_state(rng, nl),
                                 _random_inputs(rng, nl))

    def test_shipped_phases_need_no_fixed_point(self, target):
        # The paper's claim (Sect. 4): no combinational cycle arises, so
        # every phase is one ordered pass.
        sim = TwoPhaseSimulator(target.netlist)
        for prog in sim._programs.values():
            assert all(passes == 1 for _, passes in prog.blocks)


@functools.lru_cache(maxsize=None)
def _fuzz_netlists(count):
    found = []
    for i in itertools.count():
        model = generate_model(random.Random(f"lev:fuzz:{i}"),
                               GeneratorConfig(max_blocks=10), name=f"f{i}")
        spec = model.build()
        if any(r.capacity != 2 for r in spec.registers.values()):
            continue
        found.append(to_gates(spec, include_env=True,
                              as_latches=i % 2 == 1).netlist)
        if len(found) == count:
            return found


@pytest.mark.parametrize("index", range(20))
def test_fuzz_generated_netlists(index):
    nl = _fuzz_netlists(20)[index]
    sim = TwoPhaseSimulator(nl)
    rng = random.Random(f"lev:fuzzrun:{index}")
    state = sim.initial_state()
    for t in range(12):
        if t % 4 == 3:
            sim.overrides = _random_overrides(rng, nl, 3)
        state = assert_same_step(nl, sim, state, _random_inputs(rng, nl))


def _loop_netlist():
    """``g = OR(a, h)``, ``h = AND(b, g)``: a two-gate combinational loop."""
    nl = Netlist("loop")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("OR", ["a", "h"], "g")
    nl.add_gate("AND", ["b", "g"], "h")
    return nl


class TestCombinationalLoops:
    @pytest.mark.parametrize("a,b,want", [
        (1, 1, 1), (1, 0, 1), (0, 0, 0), (0, 1, X), (X, 0, X),
    ])
    def test_loop_resolves_through_controlling_input(self, a, b, want):
        nl = _loop_netlist()
        sim = TwoPhaseSimulator(nl)
        values, _ = sim.step_function({}, {"a": a, "b": b})
        assert values["g"] is want if want is X else values["g"] == want
        assert_same_step(nl, sim, {}, {"a": a, "b": b})

    def test_loop_is_iterated_not_levelized(self):
        sim = TwoPhaseSimulator(_loop_netlist())
        blocks = sim._programs[Phase.LOW].blocks
        assert [len(steps) for steps, passes in blocks if passes > 1] == [2]

    def test_self_loop_is_iterated(self):
        nl = Netlist("self")
        nl.add_input("a")
        nl.add_gate("OR", ["a", "g"], "g")
        sim = TwoPhaseSimulator(nl)
        assert sim.cycle({"a": 1})["g"] == 1
        assert sim.cycle({"a": 0})["g"] is X
        assert_same_step(nl, sim, {}, {"a": 0})

    def test_unresolved_loop_raises_the_cycle_path(self):
        nl = _loop_netlist()
        assert_same_step(nl, TwoPhaseSimulator(nl), {}, {"a": 0, "b": 1})
        sim = TwoPhaseSimulator(nl, strict_x=True)
        with pytest.raises(CombinationalCycleError) as exc:
            sim.step_function({}, {"a": 0, "b": 1})
        assert str(exc.value) == "combinational cycle: g -> h -> g"
        assert exc.value.cycle == find_combinational_cycle(nl, Phase.LOW)

    def test_latch_loop_through_transparent_phase(self):
        nl = Netlist("latchloop")
        nl.add_input("a")
        nl.add_gate("AND", ["a", "q"], "g")
        nl.add_latch("g", Phase.HIGH, q="q", init=1)
        sim = TwoPhaseSimulator(nl)
        rng = random.Random("lev:latchloop")
        state = sim.initial_state()
        for _ in range(10):
            state = assert_same_step(nl, sim, state,
                                     {"a": rng.choice((0, 1, X))})


_ARITY = {"AND": (1, 2, 3), "OR": (1, 2, 3), "NAND": (1, 2, 3),
          "NOR": (1, 2, 3), "NOT": (1,), "BUF": (1,), "XOR": (2,),
          "MUX": (3,), "CONST0": (0,), "CONST1": (0,)}


@pytest.mark.parametrize("op", sorted(_ARITY))
def test_op_truth_tables(op):
    for n in _ARITY[op]:
        nl = Netlist(op)
        names = [nl.add_input(f"i{k}") for k in range(n)]
        out = nl.add_gate(op, names, "out")
        sim = TwoPhaseSimulator(nl)
        for combo in itertools.product((0, 1, X, True, 2), repeat=n):
            got = sim.step_function({}, dict(zip(names, combo)))[0][out]
            want = _REF_OPS[op](*combo)
            assert (type(got), got) == (type(want), want), (op, combo)


def test_import_is_independent_of_the_lane_engines():
    code = (
        "import sys, repro.rtl.simulator\n"
        "bad = [m for m in sys.modules if m == 'repro.rtl.batchsim'"
        " or m.startswith('repro.codegen')]\n"
        "assert not bad, bad\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
