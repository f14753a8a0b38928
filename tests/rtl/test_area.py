"""Tests for the area pipeline: constants, pruning, literal counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.faults.targets import TARGETS
from repro.rtl.area import (
    _simplify_gate,
    constant_propagate,
    count_area,
    prune_dead,
    sequential_constants,
    synthesize_area,
)
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.simulator import TwoPhaseSimulator
from repro.synthesis.elaborate import control_layer_area
from tests.strategies import random_netlists


def _build_sample():
    nl = Netlist("sample")
    a, b = nl.add_input("a"), nl.add_input("b")
    q = nl.AND(a, nl.NOT(b), out="q")
    nl.add_output(q)
    return nl


class TestCountArea:
    def test_literals_by_fanin(self):
        nl = Netlist()
        a, b, c = (nl.add_input(n) for n in "abc")
        nl.AND(a, b, c)
        nl.OR(a, b)
        assert count_area(nl).literals == 5

    def test_inverters_and_buffers_free(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.NOT(a)
        nl.BUF(a)
        assert count_area(nl).literals == 0

    def test_xor_mux_cost(self):
        nl = Netlist()
        a, b, s = (nl.add_input(n) for n in "abs")
        nl.XOR(a, b)
        nl.MUX(s, a, b)
        assert count_area(nl).literals == 8

    def test_state_counts(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_latch(a, Phase.HIGH)
        nl.add_flop(a)
        report = count_area(nl)
        assert (report.latches, report.flops) == (1, 1)

    def test_str(self):
        assert "lit" in str(count_area(Netlist()))


class TestConstantPropagate:
    def test_and_with_zero_collapses(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        nl.AND(a, b, out="q")
        nl.add_output("q")
        out = constant_propagate(nl, {"a": 0})
        assert count_area(out).literals == 0

    def test_and_with_one_drops_literal(self):
        nl = Netlist()
        a, b, c = (nl.add_input(n) for n in "abc")
        nl.AND(a, b, c, out="q")
        nl.add_output("q")
        out = constant_propagate(nl, {"a": 1})
        assert count_area(out).literals == 2

    def test_nand_nor_xor_mux_rules(self):
        nl = Netlist()
        a, b, s = (nl.add_input(n) for n in "abs")
        nl.NAND(a, b, out="n1")
        nl.NOR(a, b, out="n2")
        nl.XOR(a, b, out="x")
        nl.MUX(s, a, b, out="m")
        for sig in ("n1", "n2", "x", "m"):
            nl.add_output(sig)
        out = constant_propagate(nl, {"a": 0, "s": 1})
        sim = TwoPhaseSimulator(out)
        vals = sim.cycle({"b": 1})
        # NAND(0,1)=1, NOR(0,1)=0, XOR(0,1)=1, MUX(1,a=0,b)=0
        assert vals[out.outputs[0]] == 1
        assert vals[out.outputs[1]] == 0
        assert vals[out.outputs[2]] == 1
        assert vals[out.outputs[3]] == 0

    def test_semantics_preserved_on_free_inputs(self):
        nl = _build_sample()
        out = constant_propagate(nl, {})
        sim_in = TwoPhaseSimulator(nl)
        sim_out = TwoPhaseSimulator(out)
        for a in (0, 1):
            for b in (0, 1):
                inputs = {"a": a, "b": b}
                assert sim_in.cycle(inputs)["q"] == sim_out.cycle(inputs)["q"]

    def test_stuck_flop_removed(self):
        nl = Netlist()
        zero = nl.const0()
        q = nl.add_flop(zero, init=0)
        a = nl.add_input("a")
        nl.OR(a, q, out="out")
        nl.add_output("out")
        out = constant_propagate(nl)
        assert not out.flops

    def test_flop_with_const_but_different_init_kept(self):
        nl = Netlist()
        one = nl.const1()
        q = nl.add_flop(one, init=0)  # becomes 1 after first cycle
        nl.add_output(q)
        out = constant_propagate(nl)
        assert len(out.flops) == 1


class TestSequentialConstants:
    def test_cyclic_stuck_at_zero_pair(self):
        """Two flops feeding each other through OR logic stay 0."""
        nl = Netlist()
        a = nl.add_input("a")
        q1 = nl.add_flop("d1", q="q1", init=0)
        q2 = nl.add_flop("d2", q="q2", init=0)
        zero = nl.const0()
        nl.OR(nl.AND(q2, a), zero, out="d1")
        nl.BUF(q1, out="d2")
        known = sequential_constants(nl)
        assert known.get("q1") == 0 and known.get("q2") == 0

    def test_escaping_flop_not_constant(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_flop("d", q="q", init=0)
        nl.OR("q", a, out="d")
        known = sequential_constants(nl)
        assert "q" not in known

    def test_constant_propagate_uses_sequential_analysis(self):
        nl = Netlist()
        a = nl.add_input("a")
        q1 = nl.add_flop("d1", q="q1", init=0)
        q2 = nl.add_flop("d2", q="q2", init=0)
        nl.AND(q2, a, out="d1")
        nl.BUF(q1, out="d2")
        nl.OR(a, q1, out="out")
        nl.add_output("out")
        out = constant_propagate(nl)
        assert not out.flops


class TestPruneDead:
    def test_unreferenced_logic_removed(self):
        nl = _build_sample()
        nl.OR("a", "b")  # dangling gate
        out = prune_dead(nl)
        assert len(out.gates) == 2  # NOT + AND only

    def test_keeps_transitive_state(self):
        nl = Netlist()
        a = nl.add_input("a")
        q = nl.add_flop(a, init=0)
        nl.NOT(q, out="out")
        nl.add_output("out")
        out = prune_dead(nl)
        assert len(out.flops) == 1

    def test_explicit_keep_roots(self):
        nl = _build_sample()
        extra = nl.OR("a", "b")
        out = prune_dead(nl, keep=[extra])
        assert extra in out.gates and "q" not in out.gates


class TestSynthesizeArea:
    def test_pipeline_composition(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        zero = nl.const0()
        dead = nl.AND(a, zero)
        nl.OR(dead, b, out="q")
        nl.add_output("q")
        report = synthesize_area(nl)
        assert report.literals == 0  # q == b, a buffer


class TestPinnedAreas:
    """Exact reports: the Table 1 area columns and every shipped target."""

    @pytest.mark.parametrize("config,report", [
        (Config.ACTIVE, (620, 64, 13, 460)),
        (Config.NO_BUFFER, (598, 60, 13, 443)),
        (Config.PASSIVE_F3W, (524, 52, 13, 399)),
        (Config.PASSIVE_M2W, (562, 60, 13, 423)),
        (Config.LAZY, (340, 40, 10, 271)),
    ])
    def test_table1_control_layer(self, config, report):
        area = control_layer_area(build_fig9_spec(config))
        assert (area.literals, area.latches, area.flops, area.gates) == report

    @pytest.mark.parametrize("target,report", [
        ("dual_ehb", (68, 0, 6, 49)),
        ("dual_ehb_latches", (68, 8, 2, 49)),
        ("join", (52, 0, 5, 40)),
        ("early_join", (62, 0, 5, 46)),
        ("fork", (63, 0, 5, 48)),
        ("passive", (13, 0, 2, 11)),
        ("vl", (45, 0, 4, 34)),
    ])
    def test_shipped_rtl_target(self, target, report):
        assert set(TARGETS) == {
            "dual_ehb", "dual_ehb_latches", "join", "early_join", "fork",
            "passive", "vl",
        }
        area = synthesize_area(TARGETS[target]().netlist)
        assert (area.literals, area.latches, area.flops, area.gates) == report


# Reference: the plain whole-netlist sweeps the worklist analysis
# replaced.  Every gate is re-simplified on every pass until a pass
# changes nothing, and every withdrawn state assumption restarts the
# combinational analysis from scratch.
def _sweep_constants(netlist, const):
    result = dict(const)
    changed = True
    while changed:
        changed = False
        for out, gate in netlist.gates.items():
            if out in result:
                continue
            _, _, cval, alias_to = _simplify_gate(gate.op, gate.ins, result)
            if cval is None and alias_to is not None and alias_to in result:
                cval = result[alias_to]
            if cval is not None:
                result[out] = cval
                changed = True
    return result


def reference_sequential_constants(netlist, bindings=None):
    candidates = {}
    for cells in (netlist.latches, netlist.flops):
        for q, cell in cells.items():
            if cell.init is not X:
                candidates[q] = cell.init
    while True:
        assumed = dict(bindings or {})
        assumed.update(candidates)
        known = _sweep_constants(netlist, assumed)
        drop = []
        for q in candidates:
            cell = netlist.latches.get(q) or netlist.flops[q]
            if known.get(cell.d) != candidates[q]:
                drop.append(q)
        if not drop:
            return known
        for q in drop:
            del candidates[q]


def reference_constant_propagate(netlist, bindings=None):
    const = dict(bindings or {})
    const.update(reference_sequential_constants(netlist, bindings))
    alias = {}

    def resolve(sig):
        while sig in alias:
            sig = alias[sig]
        return sig

    gate_defs = {out: (g.op, g.ins) for out, g in netlist.gates.items()}
    changed = True
    while changed:
        changed = False
        for out in list(gate_defs):
            if out in const:
                del gate_defs[out]
                changed = True
                continue
            op, ins = gate_defs[out]
            new_ins = tuple(resolve(i) for i in ins)
            new_op, new_ins, cval, alias_to = _simplify_gate(op, new_ins, const)
            if cval is not None:
                const[out] = cval
                del gate_defs[out]
                changed = True
            elif alias_to is not None:
                alias[out] = resolve(alias_to)
                del gate_defs[out]
                changed = True
            elif (new_op, new_ins) != (op, ins):
                gate_defs[out] = (new_op, new_ins)
                changed = True
        for cells in (netlist.latches, netlist.flops):
            for q, cell in cells.items():
                if q not in const and const.get(resolve(cell.d)) == cell.init:
                    const[q] = cell.init
                    changed = True

    out_nl = Netlist(netlist.name + "+cp")
    for sig in netlist.inputs:
        if sig not in const:
            out_nl.add_input(sig)
    const_cache = {}

    def materialise(sig):
        sig = resolve(sig)
        if sig in const:
            v = const[sig]
            if v not in const_cache:
                name = out_nl.fresh(f"const{v}")
                out_nl.add_gate("CONST1" if v else "CONST0", (), name)
                const_cache[v] = name
            return const_cache[v]
        return sig

    for out, (op, ins) in gate_defs.items():
        out_nl.add_gate(op, tuple(materialise(i) for i in ins), out)
    for q, latch in netlist.latches.items():
        if resolve(q) == q and q not in const:
            out_nl.add_latch(materialise(latch.d), latch.phase, q, latch.init)
    for q, flop in netlist.flops.items():
        if resolve(q) == q and q not in const:
            out_nl.add_flop(materialise(flop.d), q, flop.init)
    for sig in netlist.outputs:
        out_nl.add_output(materialise(sig))
    return out_nl


def _layout(nl):
    """Every cell of a netlist, in declaration order."""
    return (
        list(nl.inputs),
        [(out, g.op, g.ins) for out, g in nl.gates.items()],
        [(q, c.d, c.phase, c.init) for q, c in nl.latches.items()],
        [(q, c.d, c.init) for q, c in nl.flops.items()],
        list(nl.outputs),
    )


@st.composite
def _bound_netlists(draw):
    """A random netlist plus 0/1 bindings on some of its signals.

    Bindings may name inputs, gate outputs or state bits: a bound state
    bit falls back to its binding once its init assumption is withdrawn.
    """
    nl = draw(random_netlists())
    for sig in sorted(nl.signals()):
        if draw(st.integers(0, 9)) == 0:
            nl.add_output(sig)
    names = sorted(nl.signals())
    bound = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    return nl, {sig: draw(st.integers(0, 1)) for sig in bound}


class TestWorklistMatchesSweep:
    @settings(max_examples=300, deadline=None)
    @given(_bound_netlists())
    def test_random_netlists(self, case):
        nl, bindings = case
        assert sequential_constants(nl, bindings) == (
            reference_sequential_constants(nl, bindings))
        assert _layout(constant_propagate(nl, bindings)) == _layout(
            reference_constant_propagate(nl, bindings))

    def test_late_alias_reaches_rewritten_readers(self):
        # y only becomes an alias of b once both MUX arms resolve to b,
        # after g was already rewritten to read y instead of x; g must
        # then collapse too (MUX with equal arms).
        nl = Netlist("late")
        b, s, s2 = (nl.add_input(n) for n in ("b", "s", "s2"))
        one = nl.const1(out="one")
        nl.AND(b, one, out="a1")
        nl.AND(b, one, out="a2")
        nl.MUX(s, "a1", "a2", out="y")
        nl.AND("y", one, out="x")
        nl.MUX(s2, "x", b, out="g")
        nl.add_output("g")
        out = constant_propagate(nl)
        assert _layout(out) == _layout(reference_constant_propagate(nl))
        assert "g" not in out.gates and out.outputs[0] == "b"

    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_shipped_rtl_targets(self, target):
        nl = TARGETS[target]().netlist
        assert sequential_constants(nl) == reference_sequential_constants(nl)
        assert _layout(constant_propagate(nl)) == _layout(
            reference_constant_propagate(nl))
