"""Two-phase cycle simulation of netlists with X-propagation.

The paper's controllers are latch-based (Fig. 3): ``H`` latches are
transparent while the clock is high, ``L`` latches while it is low.  A
clock cycle is therefore simulated as two phases:

1. **HIGH** phase -- ``H`` latches are transparent (their output follows
   their input combinationally), ``L`` latches hold; at the end of the
   phase the ``H`` latches capture.
2. **LOW** phase -- symmetric; at the end of the phase the ``L`` latches
   capture and flip-flops capture their ``d`` (a flip-flop triggers on
   the next rising edge, i.e. the upcoming cycle boundary).

Within a phase, combinational values are the least fixed point of the
ternary (0/1/X) gate functions starting from all-X -- the classical
ternary simulation.  The simulator computes it with a *levelized*
program built once per netlist.  A phase's nodes are its gates plus
the latches transparent in it (inlined as buffers); their strongly
connected components are evaluated inputs-first.  A singleton
component is evaluated exactly once, which is exact for acyclic logic.
Only a real combinational cycle is iterated, to its fixed point, which
conservatively leaves ``X`` on a truly unresolvable loop.  The ternary
gates (and the shipped ``0``/``1``/``lnot`` overrides) are monotone, so
that fixed point does not depend on the evaluation order.

The paper takes care to place the token-cancellation gates at EHB
boundaries precisely so that no such cycles arise; the simulator
verifies this claim (``strict_x=True`` raises on unresolved signals).

This engine is the reference the lane-parallel engines are checked
against, so it shares no code with them: it imports neither
:mod:`repro.codegen` nor :mod:`repro.rtl.batchsim`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.rtl.logic import Value, X, is_known
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.toposort import (
    CombinationalCycleError,
    find_combinational_cycle,
    phase_nodes,
    strong_components,
)

__all__ = [
    "CombinationalCycleError",
    "Override",
    "State",
    "TwoPhaseSimulator",
    "Values",
]

State = Dict[str, Value]
Values = Dict[str, Value]

#: A net override: either a constant forced value, or a function of the
#: fault-free value (e.g. ``lnot`` for a bit-flip).
Override = Union[int, Callable[[Value], Value]]

# Node opcodes.  A transparent latch is a ``_BUF``: like ``BUF`` it
# passes its raw input value through.
_AND, _OR, _NOT, _BUF, _MUX, _NAND, _NOR, _XOR, _C0, _C1 = range(10)
_OPCODES = {
    "AND": _AND, "OR": _OR, "NOT": _NOT, "BUF": _BUF, "MUX": _MUX,
    "NAND": _NAND, "NOR": _NOR, "XOR": _XOR, "CONST0": _C0, "CONST1": _C1,
}

#: One node: ``(opcode, output slot, input slots)``.
_Step = Tuple[int, int, Tuple[int, ...]]


class _PhaseProgram:
    """The levelized evaluation of one clock phase.

    ``blocks`` are ``(steps, passes)`` in dependency order: a run of
    singleton components is one block evaluated once (``passes == 1``);
    a combinational cycle is a block swept until nothing changes, at
    most ``passes`` times.  ``held`` are the ``(name, slot)`` pairs read
    from the state (flops and opaque latches), ``captures`` those of the
    transparent latches, stored at the end of the phase; ``nodes`` the
    slots the blocks drive.
    """

    __slots__ = ("blocks", "captures", "held", "nodes")

    def __init__(self, netlist: Netlist, phase: Phase, slot: Dict[str, int],
                 undriven: int) -> None:
        graph = phase_nodes(netlist, phase)
        self.nodes = frozenset(slot[n] for n in graph)
        self.held: Tuple[Tuple[str, int], ...] = tuple(
            (q, slot[q]) for q in list(netlist.flops) + list(netlist.latches)
            if q not in graph
        )
        self.captures: Tuple[Tuple[str, int], ...] = tuple(
            (q, slot[q]) for q in netlist.latches if q in graph
        )

        def step(name: str) -> _Step:
            gate = netlist.gates.get(name)
            code = _BUF if gate is None else _OPCODES[gate.op]
            ins = graph[name]
            return code, slot[name], tuple(slot.get(i, undriven) for i in ins)

        self.blocks: List[Tuple[List[_Step], int]] = []
        run: List[_Step] = []
        for comp in strong_components(graph):
            if len(comp) == 1 and comp[0] not in graph[comp[0]]:
                run.append(step(comp[0]))
                continue
            if run:
                self.blocks.append((run, 1))
                run = []
            # Monotone gates change each node at most once (X -> 0/1),
            # so len(comp) + 1 sweeps always reach the fixed point.
            self.blocks.append(([step(n) for n in comp], len(comp) + 2))
        if run:
            self.blocks.append((run, 1))


def _sweep(steps: List[_Step], vals: List[Value],
           node_ov: Optional[Dict[int, Override]]) -> bool:
    """Evaluate ``steps`` once, in order; True when any node changed.

    The ternary semantics of :mod:`repro.rtl.logic`: truthy ints count
    as 1, and ``BUF`` (so also a transparent latch) passes its raw
    input value through.
    """
    changed = False
    for code, out, ins in steps:
        if code <= _BUF:
            if code == _AND:
                r = 1
                for i in ins:
                    v = vals[i]
                    if v is X:
                        r = X
                    elif not v:
                        r = 0
                        break
            elif code == _OR:
                r = 0
                for i in ins:
                    v = vals[i]
                    if v is X:
                        r = X
                    elif v:
                        r = 1
                        break
            elif code == _NOT:
                v = vals[ins[0]]
                r = X if v is X else (0 if v else 1)
            else:
                r = vals[ins[0]]
        elif code == _MUX:
            s, a, b = vals[ins[0]], vals[ins[1]], vals[ins[2]]
            if a is not X:
                a = 1 if a else 0
            if b is not X:
                b = 1 if b else 0
            if s is X:
                r = a if a is not X and a == b else X
            else:
                r = a if s else b
        elif code == _NAND:
            r = 0
            for i in ins:
                v = vals[i]
                if v is X:
                    r = X
                elif not v:
                    r = 1
                    break
        elif code == _NOR:
            r = 1
            for i in ins:
                v = vals[i]
                if v is X:
                    r = X
                elif v:
                    r = 0
                    break
        elif code == _XOR:
            a, b = vals[ins[0]], vals[ins[1]]
            r = X if a is X or b is X else (1 if a else 0) ^ (1 if b else 0)
        else:
            r = 0 if code == _C0 else 1
        if node_ov and out in node_ov:
            o = node_ov[out]
            r = o(r) if callable(o) else o
        old = vals[out]
        if r is not old and (old is X or r != old):
            vals[out] = r
            changed = True
    return changed


class TwoPhaseSimulator:
    """Cycle simulator for a :class:`Netlist` with H/L latch phases.

    The simulator keeps the latch/flop state between calls to
    :meth:`cycle`; :meth:`step_function` exposes the same semantics as a
    pure function of (state, inputs), which the model checker in
    :mod:`repro.verif` uses to build Kripke structures.
    """

    def __init__(
        self,
        netlist: Netlist,
        strict_x: bool = False,
        overrides: Optional[Mapping[str, Override]] = None,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        self.strict_x = strict_x
        #: Net override hooks (fault injection): while a signal name is
        #: present here its *visible* value is forced everywhere it is
        #: read -- gate evaluation, latch transparency and state loads.
        #: A transparent latch stores its (forced) output node, so an
        #: override on a latch corrupts the stored bit as well; a
        #: flip-flop keeps sampling its true ``d`` and recovers once the
        #: override is removed.  The mapping may be mutated between
        #: cycles; :mod:`repro.faults` drives it per injection schedule.
        self.overrides: Dict[str, Override] = dict(overrides or {})
        self._compile()
        self.state: State = self.initial_state()
        self.values: Values = {}
        self.time = 0
        #: end-of-cycle observers ``fn(time, values)`` called by
        #: :meth:`cycle` with the index of the cycle just simulated and
        #: its settled values.  Empty by default (one truthiness check
        #: per cycle); :mod:`repro.obs` attaches trace recorders here.
        self.observers: List[Callable[[int, Values], None]] = []

    def _compile(self) -> None:
        """Assign every driven signal an integer slot, and levelize.

        Slots follow the netlist's declaration order (inputs, flops,
        latches, gates); one extra trailing slot holds a constant ``X``
        for reads of undriven signals.
        """
        nl = self.netlist
        names = list(nl.inputs) + list(nl.flops) + list(nl.latches) + list(nl.gates)
        self._names = tuple(names)
        self._slot = {name: i for i, name in enumerate(names)}
        undriven = len(names)
        self._size = undriven + 1
        self._input_slots = tuple((n, self._slot[n]) for n in nl.inputs)
        self._programs = {
            phase: _PhaseProgram(nl, phase, self._slot, undriven)
            for phase in (Phase.HIGH, Phase.LOW)
        }
        self._flop_d = tuple(
            (q, self._slot.get(flop.d, undriven)) for q, flop in nl.flops.items()
        )

    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        """Reset state: every latch/flop at its declared init value."""
        state: State = {}
        for q, latch in self.netlist.latches.items():
            state[q] = latch.init
        for q, flop in self.netlist.flops.items():
            state[q] = flop.init
        return state

    def reset(self) -> None:
        """Restore the reset state and clear the clock counter."""
        self.state = self.initial_state()
        self.values = {}
        self.time = 0

    # ------------------------------------------------------------------
    def _phase_values(
        self,
        inputs: Mapping[str, Value],
        state: Mapping[str, Value],
        phase: Phase,
    ) -> List[Value]:
        """Least ternary fixed point of one clock phase, by slot."""
        prog = self._programs[phase]
        vals: List[Value] = [X] * self._size
        get = inputs.get
        for sig, i in self._input_slots:
            vals[i] = get(sig, X)
        for q, i in prog.held:
            vals[i] = state[q]
        node_ov: Optional[Dict[int, Override]] = None
        ov = self.overrides
        if ov:
            # Sources are forced once here; node outputs as they are
            # evaluated.  Overrides on undriven names are never read.
            node_ov = {}
            slot_of = self._slot
            for sig, o in ov.items():
                i = slot_of.get(sig)
                if i is None:
                    continue
                if i in prog.nodes:
                    node_ov[i] = o
                else:
                    vals[i] = o(vals[i]) if callable(o) else o
        for steps, passes in prog.blocks:
            for _ in range(passes):
                if not _sweep(steps, vals, node_ov):
                    break
        return vals

    def step_function(
        self, state: Mapping[str, Value], inputs: Mapping[str, Value]
    ) -> Tuple[Values, State]:
        """One full clock cycle as a pure function.

        Args:
            state: latch/flop values at the cycle start.
            inputs: primary input values, stable for the whole cycle.

        Returns:
            ``(values, next_state)`` where ``values`` are the signal
            values observed at the end of the LOW phase (the cycle
            boundary) and ``next_state`` the captured latch/flop values.
        """
        high = self._phase_values(inputs, state, Phase.HIGH)
        mid_state: State = dict(state)
        for q, i in self._programs[Phase.HIGH].captures:
            mid_state[q] = high[i]
        low = self._phase_values(inputs, mid_state, Phase.LOW)
        next_state: State = dict(mid_state)
        for q, i in self._programs[Phase.LOW].captures:
            next_state[q] = low[i]
        for q, i in self._flop_d:
            next_state[q] = low[i]
        low_vals: Values = dict(zip(self._names, low))
        if self.strict_x:
            nl = self.netlist
            unresolved = [
                s
                for s, v in low_vals.items()
                if v is X and all(is_known(inputs.get(i, X)) for i in nl.inputs)
                and all(is_known(v2) for v2 in state.values())
            ]
            if unresolved:
                for phase in (Phase.LOW, Phase.HIGH):
                    cycle = find_combinational_cycle(nl, phase)
                    if cycle is not None:
                        raise CombinationalCycleError.from_cycle(cycle)
                raise CombinationalCycleError(
                    f"unresolved signals after LOW phase: {sorted(unresolved)[:8]}"
                )
        return low_vals, next_state

    def cycle(self, inputs: Optional[Mapping[str, Value]] = None) -> Values:
        """Advance the stateful simulation by one clock cycle."""
        values, next_state = self.step_function(self.state, inputs or {})
        self.state = next_state
        self.values = values
        if self.observers:
            for observer in self.observers:
                observer(self.time, values)
        self.time += 1
        return values

    def value(self, sig: str) -> Value:
        """Value of ``sig`` at the end of the last simulated cycle."""
        return self.values[sig]
