"""Bit-parallel two-phase simulation: 64 lanes per Python int.

:class:`BatchSimulator` simulates ``lanes`` independent copies of one
:class:`~repro.rtl.netlist.Netlist` at once.  Lane ``i`` of every signal
lives in bit ``i`` of a pair of machine words, the **two-plane
encoding**:

* plane ``v`` -- the value bit, and
* plane ``k`` -- the *known* bit: lane ``i`` carries a definite 0/1 iff
  bit ``i`` of ``k`` is set; a clear ``k`` bit means the lane is ``X``.

The canonical invariant ``v & ~k == 0`` holds everywhere (an unknown
lane's value bit is 0), which keeps the word-wide gate formulas below
exactly equivalent to the ternary operators in :mod:`repro.rtl.logic`:

=====  =============================================================
gate   two-plane formula (per 64 lanes in one pass)
=====  =============================================================
AND    ``rv = va & vb``; known iff some known-0 input or both known-1:
       ``rk = rv | (ka & ~va) | (kb & ~vb)``
OR     ``rv = va | vb``; ``rk = rv | (ka & ~va) & (kb & ~vb)``
NOT    ``rk = ka``; ``rv = ka & ~va``
XOR    ``rk = ka & kb``; ``rv = (va ^ vb) & rk``
MUX    known select steers; an X select still resolves lanes where
       both data inputs agree on a known value (X-reduction, matching
       :func:`repro.rtl.logic.lmux`)
=====  =============================================================

Unlike :class:`~repro.rtl.simulator.TwoPhaseSimulator`, which
interprets a levelized program and iterates a ternary fixed point on
any combinational cycle, the batch kernel is compiled: each clock phase
becomes a flat topologically-sorted instruction list (variadic gates
decomposed into binary chains through temporaries), so every gate is
evaluated exactly once per phase for all lanes.  Compilation therefore
requires each phase's combinational graph to be acyclic and raises the
same :class:`~repro.rtl.toposort.CombinationalCycleError` (with the
full cycle path) that the scalar simulator's strict mode reports.

Fault injection is lane-granular: a :class:`LaneOverride` carries three
masks (``set0``/``set1``/``flip``) and is applied at exactly the points
the scalar simulator applies its net overrides -- primary inputs, state
loads, every gate output and transparent-latch outputs -- so a batch of
64 single-fault lanes reproduces 64 scalar fault runs bit-for-bit.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.codegen import kernel as _kernel
from repro.rtl.logic import Value, X, is_known
from repro.rtl.netlist import Netlist, Phase

__all__ = [
    "BatchSimulator",
    "LaneOverride",
    "Planes",
    "broadcast",
    "pack_values",
    "pack_stimulus",
    "strict_planes",
    "unpack_lane",
]

#: The two-plane word pair ``(v, k)`` for one signal across all lanes.
Planes = Tuple[int, int]

# Instruction opcodes, shared with the on-disk code generator: the
# decomposition, phase ordering and per-gate statement strings all live
# in repro.codegen.kernel, so the batch kernel and the compiled backend
# lower a netlist through literally the same pipeline.
_AND, _OR, _NOT, _XOR, _MUX, _BUF, _C0, _C1 = (
    _kernel.AND, _kernel.OR, _kernel.NOT, _kernel.XOR,
    _kernel.MUX, _kernel.BUF, _kernel.C0, _kernel.C1,
)

_DECOMPOSED = _kernel.DECOMPOSED


def broadcast(value: Value, lanes: int = 64) -> Planes:
    """The same ternary value in every lane."""
    mask = (1 << lanes) - 1
    if not is_known(value):
        return (0, 0)
    return (mask if value else 0, mask)


def pack_values(values: Sequence[Value]) -> Planes:
    """Pack one ternary value per lane, lane ``i`` from ``values[i]``."""
    v = k = 0
    for lane, value in enumerate(values):
        if is_known(value):
            k |= 1 << lane
            if value:
                v |= 1 << lane
    return (v, k)


def unpack_lane(planes: Planes, lane: int) -> Value:
    """The ternary value of one lane of a two-plane word pair."""
    bit = 1 << lane
    if not planes[1] & bit:
        return X
    return 1 if planes[0] & bit else 0


def strict_planes(sim, sig: str) -> Planes:
    """``(ones, zeros)`` lane masks of a signal, strict-bit style.

    Bit ``i`` of ``ones`` is set iff lane ``i`` is *known* 1, of
    ``zeros`` iff it is known 0; an ``X`` lane appears in neither --
    the word-wide analogue of the strict comparisons ``sig == 1`` /
    ``sig == 0`` the protocol classifiers use.  ``sim`` is any
    simulator with the two-plane ``planes()`` accessor
    (:class:`BatchSimulator` or the compiled backend), which is where
    the per-lane watchdogs and the channel profiler read from.
    """
    v, k = sim.planes(sig)
    return (v & k, k & ~v)


def pack_stimulus(
    stimuli: Sequence[Sequence[Mapping[str, Value]]],
) -> List[Dict[str, Planes]]:
    """Pack per-lane stimulus traces into per-cycle plane words.

    ``stimuli[lane][cycle]`` maps input names to ternary values; inputs
    a lane leaves unmentioned are ``X`` for that lane.  All lanes must
    supply the same number of cycles.  Returns one ``{input: planes}``
    dict per cycle, ready for :meth:`BatchSimulator.cycle`.
    """
    lengths = {len(trace) for trace in stimuli}
    if len(lengths) > 1:
        raise ValueError(f"stimulus traces differ in length: {sorted(lengths)}")
    cycles = lengths.pop() if lengths else 0
    packed: List[Dict[str, Planes]] = []
    for t in range(cycles):
        planes: Dict[str, List[int]] = {}
        for lane, trace in enumerate(stimuli):
            bit = 1 << lane
            for name, value in trace[t].items():
                vk = planes.setdefault(name, [0, 0])
                if is_known(value):
                    vk[1] |= bit
                    if value:
                        vk[0] |= bit
        packed.append({name: (vk[0], vk[1]) for name, vk in planes.items()})
    return packed


class LaneOverride:
    """Per-lane net override masks for the batch kernel.

    Lane ``i`` is forced to 0 (1) when bit ``i`` of ``set0`` (``set1``)
    is set, and inverted when bit ``i`` of ``flip`` is set.  A flip on
    an unknown lane leaves it ``X``, matching the scalar ``lnot``
    override.  Masks for different lanes are independent, so one object
    carries a whole batch of injections on the same net.
    """

    __slots__ = ("set0", "set1", "flip")

    def __init__(self, set0: int = 0, set1: int = 0, flip: int = 0) -> None:
        if set0 & set1:
            raise ValueError("a lane cannot be stuck at both 0 and 1")
        self.set0 = set0
        self.set1 = set1
        self.flip = flip

    def apply(self, v: int, k: int) -> Planes:
        """The forced planes given fault-free planes ``(v, k)``."""
        if self.set0 or self.set1:
            v = (v & ~self.set0) | self.set1
            k = k | self.set0 | self.set1
        if self.flip:
            v ^= self.flip & k
        return v, k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LaneOverride(set0={self.set0:#x}, set1={self.set1:#x}, "
            f"flip={self.flip:#x})"
        )


class BatchSimulator:
    """Lane-parallel counterpart of :class:`TwoPhaseSimulator`.

    The public cadence mirrors the scalar simulator -- :meth:`reset`,
    then :meth:`cycle` once per clock with packed inputs -- but every
    call advances all ``lanes`` copies at once.  After :meth:`cycle` the
    plane words hold the end-of-LOW-phase values, the batch analogue of
    the scalar ``values`` dict.
    """

    def __init__(self, netlist: Netlist, lanes: int = 64) -> None:
        if lanes < 1:
            raise ValueError("need at least one lane")
        netlist.validate()
        self.netlist = netlist
        self.lanes = lanes
        self.mask = (1 << lanes) - 1

        nl = netlist
        self._slot: Dict[str, int] = {}
        for sig in (*nl.inputs, *nl.gates, *nl.latches, *nl.flops):
            self._slot[sig] = len(self._slot)
        self._inputs = [(name, self._slot[name]) for name in nl.inputs]
        self._flops = [
            (self._slot[q], self._slot[flop.d]) for q, flop in nl.flops.items()
        ]
        self._state_slots = [
            (q, self._slot[q]) for q in nl.latches
        ] + [(q, self._slot[q]) for q in nl.flops]
        self._init = {
            self._slot[q]: latch.init for q, latch in nl.latches.items()
        }
        self._init.update(
            {self._slot[q]: flop.init for q, flop in nl.flops.items()}
        )
        high_latches = [
            q for q, latch in nl.latches.items() if latch.phase == Phase.HIGH
        ]
        low_latches = [
            q for q, latch in nl.latches.items() if latch.phase == Phase.LOW
        ]
        # Before the HIGH phase, flops and (still opaque) L latches load
        # from state; before the LOW phase, flops reload and the H
        # latches -- captured at the phase boundary -- load what they
        # just latched.  Mirrors the scalar ``_phase_values`` prologue.
        self._load_high = [
            self._slot[q] for q in list(nl.flops) + low_latches
        ]
        self._load_low = [
            self._slot[q] for q in list(nl.flops) + high_latches
        ]
        self._capture_high = [self._slot[q] for q in high_latches]
        self._capture_low = [self._slot[q] for q in low_latches]

        self._n_named = len(self._slot)
        self._templates = self._decompose_gates()
        self._prog_high = self._compile(Phase.HIGH)
        self._prog_low = self._compile(Phase.LOW)
        self._nslots = self._ntemp
        self._run_high = self._codegen(self._prog_high, "_run_high")
        self._run_low = self._codegen(self._prog_low, "_run_low")

        self._v: List[int] = [0] * self._nslots
        self._k: List[int] = [0] * self._nslots
        self._ov: List[Optional[LaneOverride]] = [None] * self._nslots
        self.state: Dict[int, Planes] = {}
        self.time = 0
        #: end-of-cycle observers ``fn(time, sim)`` called by
        #: :meth:`cycle` with the index of the cycle just simulated.
        #: Empty by default (one truthiness check per cycle).
        self.observers: List[Callable[[int, "BatchSimulator"], None]] = []
        #: optional :class:`~repro.obs.profile.PhaseProfiler`: when set,
        #: the two compiled phase programs are timed individually under
        #: the phase names ``"high"`` and ``"low"``.
        self.profile = None
        self.reset()

    # -- compilation ---------------------------------------------------
    def _decompose_gates(self) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
        """Binary instruction templates via the shared codegen kernel."""
        templates, self._ntemp = _kernel.decompose_gates(
            self.netlist, self._slot, self._n_named
        )
        return templates

    def _compile(self, phase: Phase) -> Tuple[Tuple[int, ...], ...]:
        """One phase as a flat topologically-sorted instruction list."""
        return _kernel.phase_program(
            self.netlist, self._slot, self._templates, phase
        )

    # -- state ---------------------------------------------------------
    def reset(self) -> None:
        """All lanes back to the declared latch/flop init values."""
        self.state = {
            slot: broadcast(init, self.lanes)
            for slot, init in self._init.items()
        }
        # In-place so observers holding the plane arrays stay attached.
        self._v[:] = [0] * self._nslots
        self._k[:] = [0] * self._nslots
        self.time = 0

    def set_overrides(self, overrides: Mapping[str, LaneOverride]) -> None:
        """Install per-lane net overrides (replacing any previous set)."""
        ov: List[Optional[LaneOverride]] = [None] * self._nslots
        for name, override in overrides.items():
            slot = self._slot.get(name)
            if slot is None:
                raise ValueError(f"unknown net {name!r}")
            ov[slot] = override
        self._ov = ov

    def _load_state(self, slots: Iterable[int]) -> None:
        v, k, ov, state = self._v, self._k, self._ov, self.state
        for slot in slots:
            sv, sk = state[slot]
            o = ov[slot]
            if o is not None:
                sv, sk = o.apply(sv, sk)
            v[slot] = sv
            k[slot] = sk

    # -- execution -----------------------------------------------------
    def _codegen(self, program: Tuple[Tuple[int, ...], ...], name: str):
        """Specialize one phase program into straight-line Python.

        Each instruction becomes direct expressions over local variables
        (``v12``/``k12`` for slot 12) -- no dispatch loop, no list
        indexing in the body.  Sources (slots read before written:
        inputs, state, opaque latches) are loaded from the plane arrays
        on entry; computed *named* slots are stored back on exit (temps
        stay local) after the per-slot override guard, mirroring the
        scalar simulator's override application at gate outputs.
        """
        body: List[str] = []
        written: set = set()
        sources: List[int] = []

        for op, out, a, b, c in program:
            for slot in _kernel.instr_reads(op, a, b, c):
                if slot not in written and slot not in sources:
                    sources.append(slot)
            body.extend(_kernel.two_plane_lines(op, out, a, b, c))
            if out < self._n_named:
                body.append(f"_o=ov[{out}]")
                body.append(
                    f"if _o is not None: v{out},k{out}=_o.apply(v{out},k{out})"
                )
            written.add(out)

        lines = [f"def {name}(v, k, ov, mask):"]
        for slot in sources:
            lines.append(f"    v{slot}=v[{slot}]; k{slot}=k[{slot}]")
        lines.extend(f"    {stmt}" for stmt in body)
        for slot in sorted(s for s in written if s < self._n_named):
            lines.append(f"    v[{slot}]=v{slot}; k[{slot}]=k{slot}")
        if len(lines) == 1:
            lines.append("    pass")
        namespace: Dict[str, object] = {}
        code = compile(
            "\n".join(lines),
            f"<batchsim:{self.netlist.name}:{name}>",
            "exec",
        )
        exec(code, namespace)
        return namespace[name]

    def cycle(self, inputs: Optional[Mapping[str, Planes]] = None) -> None:
        """Advance every lane by one clock cycle.

        ``inputs`` maps input names to canonical plane pairs (missing
        inputs are all-X, as in the scalar simulator).  Afterwards the
        plane words expose the end-of-LOW-phase values via
        :meth:`planes` / :meth:`lane_value`.
        """
        inputs = inputs or {}
        v, k, ov, mask = self._v, self._k, self._ov, self.mask
        for name, slot in self._inputs:
            iv, ik = inputs.get(name, (0, 0))
            o = ov[slot]
            if o is not None:
                iv, ik = o.apply(iv & mask, ik & mask)
            v[slot] = iv & mask
            k[slot] = ik & mask
        profile = self.profile
        self._load_state(self._load_high)
        if profile is None:
            self._run_high(v, k, ov, mask)
        else:
            t0 = perf_counter()
            self._run_high(v, k, ov, mask)
            profile.add("high", perf_counter() - t0)
        state = self.state
        for slot in self._capture_high:
            state[slot] = (v[slot], k[slot])
        self._load_state(self._load_low)
        if profile is None:
            self._run_low(v, k, ov, mask)
        else:
            t0 = perf_counter()
            self._run_low(v, k, ov, mask)
            profile.add("low", perf_counter() - t0)
        for slot in self._capture_low:
            state[slot] = (v[slot], k[slot])
        for qslot, dslot in self._flops:
            state[qslot] = (v[dslot], k[dslot])
        if self.observers:
            t = self.time
            for observer in self.observers:
                observer(t, self)
        self.time += 1

    # -- observation ---------------------------------------------------
    def slot(self, sig: str) -> int:
        """The plane-array index of ``sig`` (for hot-loop observers)."""
        return self._slot[sig]

    @property
    def value_planes(self) -> List[int]:
        """The live value-plane array, indexed by :meth:`slot`."""
        return self._v

    @property
    def known_planes(self) -> List[int]:
        """The live known-plane array, indexed by :meth:`slot`."""
        return self._k

    def planes(self, sig: str) -> Planes:
        """The end-of-cycle plane pair of one signal across all lanes."""
        slot = self._slot[sig]
        return self._v[slot], self._k[slot]

    def lane_value(self, sig: str, lane: int) -> Value:
        """One lane's ternary value of ``sig`` after the last cycle."""
        slot = self._slot[sig]
        return unpack_lane((self._v[slot], self._k[slot]), lane)

    def lane_values(
        self, lane: int, sigs: Optional[Iterable[str]] = None
    ) -> Dict[str, Value]:
        """One lane's view of the last cycle, as a scalar values dict."""
        names = list(sigs) if sigs is not None else list(self._slot)
        return {name: self.lane_value(name, lane) for name in names}

    def lane_state(self, lane: int) -> Dict[str, Value]:
        """One lane's latch/flop state, matching ``TwoPhaseSimulator.state``."""
        return {
            name: unpack_lane(self.state[slot], lane)
            for name, slot in self._state_slots
        }

    def check_lane_integrity(self) -> int:
        """Bitmask of lanes whose plane encoding is corrupt.

        The two-plane encoding has one representation invariant: a
        value bit may only be set where the known bit is (``v & ~k ==
        0``), and no bit may live above the lane mask.  The compiled
        kernels preserve both by construction, so a violation after a
        cycle means the planes were corrupted from outside (a buggy
        observer poking the live arrays, a bad override mask, cosmic
        unluck) -- exactly the condition the graceful-degradation layer
        quarantines.  Returns 0 when every lane is healthy; a plane
        bit *above* the mask cannot be attributed to one lane, so it
        taints all of them (returns the full mask).
        """
        bad = 0
        mask = self.mask
        v, k = self._v, self._k
        for slot in range(self._n_named):
            if (v[slot] | k[slot]) & ~mask:
                return mask
            bad |= v[slot] & ~k[slot] & mask
        for vp, kp in self.state.values():
            if (vp | kp) & ~mask:
                return mask
            bad |= vp & ~kp & mask
        return bad
