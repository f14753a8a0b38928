"""Cycle-accurate behavioural elastic controllers and network simulator.

Each controller owns ports on dual channels (:class:`~repro.elastic.
channel.Channel`) and implements two methods:

* ``evaluate()`` -- combinational: read the current (possibly unknown)
  wire values and drive output wires using ternary logic.  All
  equations are monotone (X can only resolve to 0/1), so each cycle has
  a unique least fixed point.
* ``commit()`` -- sequential: called once per cycle after the network
  settled, to update internal state (buffer occupancy, pending-token
  flip-flops, variable-latency countdowns).

Each controller class also declares its combinational *port model*
(:attr:`Controller.PORTS`): which wires it drives and which wires each
of them reads.  :class:`ElasticNetwork` turns the declarations into a
static per-cycle schedule of ``evaluate()`` calls, so a wire is
computed once its inputs are known; only genuine combinational loops
are iterated.

The controller equations transcribe Figs. 3--7 of the paper at the
cycle level:

* :class:`ElasticBuffer` -- a dual EB (two EHBs): capacity 2 for tokens
  and anti-tokens, forward and backward latency 1, cancellation at its
  boundaries (Fig. 5).
* :class:`Join` -- lazy join for tokens + eager fork for anti-tokens
  with one pending flip-flop per input and the B gate preventing new
  transfers while anti-tokens drain (Fig. 6(a)).
* :class:`EagerFork` -- eager fork for tokens (pending FF per output)
  + lazy join for anti-tokens; the half-turn symmetric image of the
  join (Fig. 6(b)).
* :class:`EarlyJoin` -- join with an early-evaluation function and the
  G gates ``not V+in and V+out and not S+out`` generating anti-tokens
  at the inputs that were not valid when the output fired (Fig. 6(c)).
* :class:`PassiveAntiToken` -- the Fig. 7(a) interface: stops
  anti-token propagation with ``S− = not V+`` and converts kills into
  plain transfers for the anti-token-free upstream region.
* :class:`VariableLatency` -- the Fig. 7(b) go/done/ack controller.
* :class:`Source` / :class:`Sink` -- environment producers and
  consumers, including the non-deterministic killing consumers used in
  the Fig. 8(b) verification set-up.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.elastic.channel import Channel
from repro.elastic.ee import AndEE, EarlyEvalFunction
from repro.elastic.protocol import ProtocolViolation
from repro.rtl.logic import Value, X
from repro.rtl.toposort import strong_components

#: The four control wires of a channel (its attribute names).
WIRES = ("vp", "sp", "vn", "sn")
#: A wire of one channel: ``(channel, "vp" | "sp" | "vn" | "sn")``.
Wire = Tuple[Channel, str]
#: One step of the evaluation pass: controllers, and the wires of the
#: combinational loop they are iterated on (``None``: evaluate once).
_Step = Tuple[Tuple["Controller", ...], Optional[List[Wire]]]

# Ternary logic on canonical wire values (0, 1, X) as table lookups.
# Bools index the tables too (``True == 1``); any other value must be
# canonicalised first (see :func:`_canon`).
_NOT = {0: 1, 1: 0, X: X}
_AND = {0: {0: 0, 1: 0, X: 0}, 1: {0: 0, 1: 1, X: X}, X: {0: 0, 1: X, X: X}}
_OR = {0: {0: 0, 1: 1, X: X}, 1: {0: 1, 1: 1, X: 1}, X: {0: X, 1: 1, X: X}}


def _all(values: Sequence[Value]) -> Value:
    """Ternary AND of a sequence: 0 dominates, else X, else 1."""
    return 0 if 0 in values else X if X in values else 1


def _canon(value: object) -> Value:
    """Any truthy/falsy value or X -> canonical wire value."""
    return X if value is X else 1 if value else 0


#: Sentinel for "no payload latched" (None is legitimate channel data).
_NO_HELD_DATA = object()


class Controller:
    """Base class: a named controller with evaluate/commit phases.

    :attr:`PORTS` is the class's combinational port model: it maps each
    driven wire, written ``"attr.wire"`` (``attr`` names an attribute
    holding a channel or a list of channels), to the wires it reads.
    Outputs mapped to ``()`` depend on state only.  Subclasses inherit
    their base's declaration.  Without one (``PORTS = None``) the model
    is conservative: every driven wire reads every wire of every
    channel, and the driven wires follow the attribute shape
    (``left``/``right``, ``input(s)``/``output(s)``), or are every wire
    when that finds nothing.  A wrong declaration cannot produce a
    wrong value: a missed dependency leaves a wire at X, which the
    network reports.
    """

    PORTS: Optional[Dict[str, Tuple[str, ...]]] = None

    def __init__(self, name: str):
        self.name = name

    def channels(self) -> Sequence[Channel]:
        """Channels this controller is connected to (for registration)."""
        return ()

    def evaluate(self) -> bool:
        """Drive output wires; return True if any wire changed."""
        raise NotImplementedError

    def commit(self) -> None:
        """Update sequential state from the settled wires."""

    def _port(self, attr: str) -> List[Channel]:
        value = getattr(self, attr)
        return [value] if isinstance(value, Channel) else list(value)

    def _wires(self, spec: str) -> List[Wire]:
        attr, wire = spec.split(".")
        return [(ch, wire) for ch in self._port(attr)]

    def roles(self) -> Tuple[List[Channel], List[Channel]]:
        """``(consumed, produced)`` channels.

        Consumed channels are those the controller reads tokens from (it
        drives their ``{S+, V-}`` wires); produced channels are those it
        emits tokens into (it drives ``{V+, S-}``).
        """
        ports = self.PORTS
        if ports is None:
            if hasattr(self, "left") and hasattr(self, "right"):
                return [self.left], [self.right]
            consumed, produced = [], []
            if hasattr(self, "inputs"):
                consumed += list(self.inputs)
            elif hasattr(self, "input"):
                consumed.append(self.input)
            if hasattr(self, "outputs"):
                produced += list(self.outputs)
            elif hasattr(self, "output"):
                produced.append(self.output)
            return consumed, produced
        consumed, produced = [], []
        seen = set()
        for spec in ports:
            attr, wire = spec.split(".")
            backward = wire in ("sp", "vn")
            if (attr, backward) not in seen:
                seen.add((attr, backward))
                (consumed if backward else produced).extend(self._port(attr))
        return consumed, produced

    def port_model(self) -> List[Tuple[List[Wire], List[Wire]]]:
        """``(driven, reads)`` pairs resolved from :attr:`PORTS`."""
        if self.PORTS is None:
            every = [(ch, w) for ch in self.channels() for w in WIRES]
            consumed, produced = self.roles()
            driven = [(ch, w) for ch in consumed for w in ("sp", "vn")]
            driven += [(ch, w) for ch in produced for w in ("vp", "sn")]
            return [(driven or every, every)]
        return [
            (self._wires(spec), [w for r in reads for w in self._wires(r)])
            for spec, reads in self.PORTS.items()
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Elastic buffer (dual EB = two EHBs, Fig. 5)
# ----------------------------------------------------------------------
class ElasticBuffer(Controller):
    """A dual elastic buffer of capacity 2 (one EB = two EHBs).

    State is the signed occupancy ``count``: positive values are stored
    tokens (with payloads, FIFO), negative values stored anti-tokens.
    All four output wires are pure functions of the state, so an EB cuts
    every combinational path -- exactly why the paper places the
    cancellation gates at EHB boundaries.

    Wire equations (left = input channel, right = output channel)::

        right.V+ = count > 0          right.S− = count <= -capacity
        left.S+  = count >= capacity  left.V−  = count < 0

    which preserve the invariants of equation (2) by construction.
    """

    PORTS = {"right.vp": (), "right.sn": (), "left.sp": (), "left.vn": ()}

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        capacity: int = 2,
        initial_tokens: int = 0,
        initial_data: Optional[Sequence[object]] = None,
    ):
        super().__init__(name)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 <= initial_tokens <= capacity:
            raise ValueError("initial tokens must fit the capacity")
        self.left = left
        self.right = right
        self.capacity = capacity
        self.count = initial_tokens
        if initial_data is not None:
            if len(initial_data) != initial_tokens:
                raise ValueError("initial_data length must equal initial_tokens")
            self.data: List[object] = list(initial_data)
        else:
            self.data = [None] * initial_tokens
        self._initial = (initial_tokens, list(self.data))

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def reset(self) -> None:
        self.count, data = self._initial
        self.data = list(data)

    @property
    def tokens(self) -> int:
        """Stored tokens (0 when holding anti-tokens)."""
        return max(self.count, 0)

    @property
    def anti_tokens(self) -> int:
        """Stored anti-tokens (0 when holding tokens)."""
        return max(-self.count, 0)

    def evaluate(self) -> bool:
        count, right, left = self.count, self.right, self.left
        changed = right.drive_vp(count > 0)
        if count > 0:
            right.put_data(self.data[0])
        changed |= right.drive_sn(count <= -self.capacity)
        changed |= left.drive_sp(count >= self.capacity)
        changed |= left.drive_vn(count < 0)
        return changed

    def commit(self) -> None:
        # Each wire is read once; the tests are Channel.pos_transfer,
        # kill and neg_transfer written out on the locals.
        left, right = self.left, self.right
        lvp, lvn = left.vp == 1, left.vn == 1
        rvp, rvn = right.vp == 1, right.vn == 1
        in_pos = lvp and not lvn and left.sp == 0
        in_neg = rvn and not rvp and right.sn == 0
        count = self.count

        if rvp and (rvn or right.sp == 0):
            # Head token leaves (transfer) or is annihilated by an
            # incoming anti-token at the output boundary.
            self.data.pop(0)
            count -= 1
        if lvn and (lvp or left.sn == 0):
            # A stored anti-token annihilates an arriving token, or
            # moves backwards onto the input channel.
            count += 1
        if in_pos:
            if not in_neg:
                count += 1
                self.data.append(left.data)
            # else: token and anti-token entered opposite ends of an
            # empty buffer in the same cycle and annihilate inside.
        elif in_neg:
            count -= 1
        self.count = count
        if not -self.capacity <= count <= self.capacity:
            raise ProtocolViolation(f"{self.name}: occupancy {count} out of range")
        if len(self.data) != max(count, 0):
            raise ProtocolViolation(f"{self.name}: data/occupancy mismatch")


# ----------------------------------------------------------------------
# Join (lazy for tokens, eager fork for anti-tokens, Fig. 6(a))
# ----------------------------------------------------------------------
class Join(Controller):
    """Dual join controller.

    Positive flow (lazy): ``V+out = AND(V+in_i) and not pending`` where
    *pending* is the B gate -- any anti-token still stored in the
    per-input flip-flops blocks new transfers.  ``S+in_i`` stops an
    input when no output transfer happens, with an I gate keeping the
    invariant ``not (V− and S+)``.

    Negative flow (eager fork): an anti-token arriving on the output
    channel is broadcast backwards to every input the same cycle;
    inputs that cannot take it (no token to kill, and anti-token
    back-pressure) latch it in their flip-flop.
    """

    PORTS = {
        "output.vp": ("inputs.vp",),
        "output.sn": (),
        "inputs.vn": ("inputs.vp", "output.vn"),
        "inputs.sp": ("inputs.vp", "output.sp", "output.vn"),
    }

    def __init__(
        self,
        name: str,
        inputs: Sequence[Channel],
        output: Channel,
        combine: Optional[Callable[[Sequence[object]], object]] = None,
    ):
        super().__init__(name)
        if not inputs:
            raise ValueError("a join needs at least one input")
        self.inputs = list(inputs)
        self.output = output
        self.combine = combine if combine is not None else tuple
        self.apend = [0] * len(self.inputs)

    def channels(self) -> Sequence[Channel]:
        return (*self.inputs, self.output)

    def evaluate(self) -> bool:
        out = self.output
        pending = any(self.apend)

        vp_out = 0 if pending else _all([ch.vp for ch in self.inputs])
        changed = out.drive_vp(vp_out)
        if vp_out == 1:
            out.put_data(self.combine([ch.data for ch in self.inputs]))
        # B gate also back-pressures further anti-tokens while draining.
        changed |= out.drive_sn(pending)

        # Eager anti-token fork: broadcast an accepted anti-token, plus
        # any anti-tokens still pending in the flip-flops.
        forked = 0 if pending else _AND[out.vn][_NOT[vp_out]]
        fire = _AND[vp_out][_NOT[out.sp]]
        for i, ch in enumerate(self.inputs):
            vn_i = 1 if self.apend[i] else forked
            changed |= ch.drive_vn(vn_i)
            # I gate: never stop a token we are about to kill.
            changed |= ch.drive_sp(_AND[_NOT[fire]][_NOT[vn_i]])
        return changed

    def commit(self) -> None:
        out = self.output
        # anti-token taken from the output channel (out.neg_transfer)
        accepted = out.vn == 1 and out.sn == 0 and out.vp == 0
        for i, ch in enumerate(self.inputs):
            offered = ch.vn == 1
            delivered = offered and (ch.vp == 1 or ch.sn == 0)
            incoming = accepted
            self.apend[i] = 1 if (self.apend[i] or incoming) and not delivered else 0


# ----------------------------------------------------------------------
# Early-evaluation join (Fig. 6(c))
# ----------------------------------------------------------------------
class EarlyJoin(Controller):
    """Join with early evaluation and anti-token generation.

    The EE block replaces the conjunction of input valids; the G gates
    implement ``V−in_i = not V+in_i and V+out and not S+out`` feeding
    the per-input anti-token flip-flops (shared with the eager
    anti-token fork for anti-tokens arriving from the output channel).

    ``anti_capacity`` implements the Sect. 7 extension: each input may
    store up to that many pending anti-tokens (the paper uses 1 and
    reports "little experimental motivation" for more -- which the
    ablation benches reproduce).  With pending anti-tokens on an input,
    that input's valid is masked (an arriving token annihilates before
    it can be consumed), and the B gate only blocks new firings when a
    counter is full.
    """

    PORTS = {
        "output.vp": ("inputs.vp",),
        "output.sn": (),
        "inputs.vn": ("inputs.vp", "output.sp", "output.vn"),
        "inputs.sp": ("inputs.vp", "output.sp", "output.vn"),
    }

    def __init__(
        self,
        name: str,
        inputs: Sequence[Channel],
        output: Channel,
        ee: EarlyEvalFunction,
        anti_capacity: int = 1,
    ):
        super().__init__(name)
        if ee.arity != len(inputs):
            raise ValueError("EE arity must match the number of inputs")
        if anti_capacity < 1:
            raise ValueError("anti_capacity must be >= 1")
        self.inputs = list(inputs)
        self.output = output
        self.ee = ee
        self.anti_capacity = anti_capacity
        self.apend = [0] * len(self.inputs)
        self._held_data: object = _NO_HELD_DATA

    def channels(self) -> Sequence[Channel]:
        return (*self.inputs, self.output)

    def _ee_inputs(self) -> Tuple[List[Value], List[object]]:
        # Inputs with pending anti-tokens are masked: their next token
        # is already doomed and cannot be consumed by a firing.
        valids = [
            ch.vp if self.apend[i] == 0 else 0
            for i, ch in enumerate(self.inputs)
        ]
        datas = [
            ch.data if (ch.vp == 1 and self.apend[i] == 0) else None
            for i, ch in enumerate(self.inputs)
        ]
        return valids, datas

    def evaluate(self) -> bool:
        out = self.output
        full = any(c >= self.anti_capacity for c in self.apend)

        valids, datas = self._ee_inputs()
        vp_out = 0 if full else _canon(self.ee.evaluate(valids, datas))
        changed = out.drive_vp(vp_out)
        if vp_out == 1:
            # SELF persistence: a token stalled in Retry+ must keep the
            # payload it was first offered with, even if a late input
            # arrives mid-retry and EE would now see more operands
            # (positive unateness keeps V+ itself asserted).
            if self._held_data is not _NO_HELD_DATA:
                out.put_data(self._held_data)
            else:
                out.put_data(self.ee.output_data(valids, datas))
        changed |= out.drive_sn(full)

        fire = _AND[vp_out][_NOT[out.sp]]
        forked = 0 if full else _AND[out.vn][_NOT[vp_out]]
        for i, ch in enumerate(self.inputs):
            # G gate: early firing leaves an anti-token on inputs whose
            # (unmasked) token was absent.
            generated = _AND[fire][_NOT[valids[i]]]
            vn_i = 1 if self.apend[i] > 0 else _OR[generated][forked]
            changed |= ch.drive_vn(vn_i)
            changed |= ch.drive_sp(_AND[_NOT[fire]][_NOT[vn_i]])
        return changed

    def commit(self) -> None:
        out = self.output
        out_vp, out_sp = out.vp, out.sp
        fire = out_vp == 1 and out_sp == 0
        accepted = out.vn == 1 and out.sn == 0 and out_vp == 0
        for i, ch in enumerate(self.inputs):
            masked_valid = ch.vp == 1 and self.apend[i] == 0
            generated = fire and not masked_valid
            offered = ch.vn == 1
            delivered = offered and (ch.vp == 1 or ch.sn == 0)
            incoming = 1 if (accepted or generated) else 0
            self.apend[i] = self.apend[i] + incoming - (1 if delivered else 0)
            if not 0 <= self.apend[i] <= self.anti_capacity:
                raise ProtocolViolation(
                    f"{self.name}: anti-token counter {i} out of range"
                )
        # Latch the offered payload across a Retry+ stall; any other
        # outcome (transfer, idle, kill) starts a fresh transaction.
        if out_vp == 1 and out_sp == 1:
            self._held_data = out.data
        else:
            self._held_data = _NO_HELD_DATA


# ----------------------------------------------------------------------
# Eager fork (Fig. 6(b); positive part also Fig. 4(b))
# ----------------------------------------------------------------------
class EagerFork(Controller):
    """Dual eager fork controller.

    Positive flow (eager): every output channel receives its copy of
    the input token as soon as it can, independently of its siblings;
    a flip-flop per output remembers which copies are still owed
    (``pend``).  The input token is consumed once every copy has either
    transferred or been annihilated by a branch anti-token.

    Negative flow (lazy join): anti-tokens propagate backwards through
    the fork only when present on *all* output channels and no token is
    in flight -- the exact dual of the lazy token join.
    """

    PORTS = {
        "input.vn": ("outputs.vn",),
        "outputs.vp": ("input.vp",),
        "outputs.sn": ("input.vp", "input.sn", "outputs.vn"),
        "input.sp": ("input.vp", "outputs.sp", "outputs.vn"),
    }

    def __init__(
        self,
        name: str,
        input: Channel,
        outputs: Sequence[Channel],
        branch_data: Optional[Callable[[int, object], object]] = None,
    ):
        super().__init__(name)
        if not outputs:
            raise ValueError("a fork needs at least one output")
        self.input = input
        self.outputs = list(outputs)
        self.branch_data = branch_data
        self.pend = [1] * len(self.outputs)

    def channels(self) -> Sequence[Channel]:
        return (self.input, *self.outputs)

    def evaluate(self) -> bool:
        inp = self.input
        done: List[Value] = []
        anti_all = _all([ch.vn for ch in self.outputs])
        # The anti-token wave crosses the fork only at a fresh token
        # boundary (every pending flag set): a half-delivered token
        # must finish first, or branch anti-tokens targeting different
        # tokens would be merged.  Gating on *state* (never on the
        # upstream S-/V+ wires) keeps V-in free of combinational cycles
        # when forks abut -- the hazard Sect. 4 warns about -- and
        # Retry- persistence holds because a colliding token is
        # annihilated (kill) instead of forcing a withdrawal.
        vn_in = anti_all if all(self.pend) else 0
        changed = inp.drive_vn(vn_in)
        # The wave is consumed when the input channel moves it: a
        # negative transfer backwards, or a kill against an arriving
        # token (which annihilates every branch copy at once).
        moved = _AND[vn_in][_OR[inp.vp][_NOT[inp.sn]]]
        for i, ch in enumerate(self.outputs):
            vp_i = inp.vp if self.pend[i] else 0
            changed |= ch.drive_vp(vp_i)
            if vp_i == 1:
                payload = inp.data
                if self.branch_data is not None:
                    payload = self.branch_data(i, payload)
                ch.put_data(payload)
            completed = _AND[vp_i][_OR[_NOT[ch.sp]][ch.vn]]
            done.append(completed if self.pend[i] else 1)
            # I gate: never stop an anti-token that annihilates our copy.
            changed |= ch.drive_sn(_AND[_NOT[moved]][_NOT[vp_i]])
        changed |= inp.drive_sp(_AND[_NOT[_all(done)]][_NOT[vn_in]])
        return changed

    def commit(self) -> None:
        inp = self.input
        if inp.vp == 1:
            consumed = inp.sp == 0  # all copies completed this cycle
            if consumed:
                self.pend = [1] * len(self.outputs)
            else:
                for i, ch in enumerate(self.outputs):
                    completed = ch.vp == 1 and (ch.sp == 0 or ch.vn == 1)
                    if completed:
                        self.pend[i] = 0
        # With no token in flight every pend flag is (and stays) 1.


class LazyFork(Controller):
    """A non-eager fork: all branches must transfer in the same cycle.

    Provided for comparison experiments.  Beware: lazy forks create
    combinational dependencies between the stop signals of sibling
    branches and can produce genuine combinational cycles in netlists
    that eager forks handle fine; the network simulator will report an
    unresolved fixed point in that case.
    """

    PORTS = {
        "input.vn": ("outputs.vn",),
        "outputs.vp": ("input.vp", "outputs.sp", "outputs.vn"),
        "outputs.sn": ("input.vp", "input.sn", "outputs.sp", "outputs.vn"),
        "input.sp": ("input.vp", "outputs.sp", "outputs.vn"),
    }

    def __init__(self, name: str, input: Channel, outputs: Sequence[Channel]):
        super().__init__(name)
        self.input = input
        self.outputs = list(outputs)

    def channels(self) -> Sequence[Channel]:
        return (self.input, *self.outputs)

    def evaluate(self) -> bool:
        inp = self.input
        # A lazy fork is always at a fresh token boundary (no pending
        # state), so the wave gate reduces to anti_all; see EagerFork
        # for the state-gated variant.
        vn_in = _all([ch.vn for ch in self.outputs])
        changed = inp.drive_vn(vn_in)
        moved = _AND[vn_in][_OR[inp.vp][_NOT[inp.sn]]]
        stops = [ch.sp for ch in self.outputs]
        for i, ch in enumerate(self.outputs):
            others = [s for j, s in enumerate(stops) if j != i]
            kill_ok = ch.vn  # a branch anti-token always completes a copy
            vp_i = _AND[inp.vp][_OR[_all([_NOT[s] for s in others])][kill_ok]]
            changed |= ch.drive_vp(vp_i)
            if vp_i == 1:
                ch.put_data(inp.data)
            changed |= ch.drive_sn(_AND[_NOT[moved]][_NOT[vp_i]])
        no_stop = _all([_OR[_NOT[ch.sp]][ch.vn] for ch in self.outputs])
        changed |= inp.drive_sp(_AND[_NOT[_AND[inp.vp][no_stop]]][_NOT[vn_in]])
        return changed


# ----------------------------------------------------------------------
# Combinational function block (control-transparent)
# ----------------------------------------------------------------------
class Pipe(Controller):
    """A combinational functional block: control wires pass through.

    The elastic control layer of a single-input single-output block is
    just a wire (Sect. 6: join/fork components are omitted for blocks
    with one input or output); only the payload is transformed.
    """

    PORTS = {
        "right.vp": ("left.vp",),
        "right.sn": ("left.sn",),
        "left.sp": ("right.sp",),
        "left.vn": ("right.vn",),
    }

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        func: Optional[Callable[[object], object]] = None,
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.func = func if func is not None else (lambda value: value)

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def evaluate(self) -> bool:
        left, right = self.left, self.right
        changed = right.drive_vp(left.vp)
        if left.vp == 1:
            right.put_data(self.func(left.data))
        changed |= right.drive_sn(left.sn)
        changed |= left.drive_sp(right.sp)
        changed |= left.drive_vn(right.vn)
        return changed


# ----------------------------------------------------------------------
# Passive anti-token interface (Fig. 7(a))
# ----------------------------------------------------------------------
class PassiveAntiToken(Controller):
    """Boundary between an anti-token region and a token-only region.

    Upstream of this interface no ``{V−, S−}`` wires exist.  The
    interface stops anti-token propagation with ``S− = not V+`` (the
    inverter of Fig. 7(a)): when a token is present the anti-token
    annihilates it (the upstream region simply sees a transfer); when
    none is present the anti-token waits passively on the downstream
    channel.
    """

    PORTS = {
        "down.vp": ("up.vp",),
        "down.sn": ("up.vp",),
        "up.vn": (),
        "up.sp": ("down.sp", "down.vn"),
    }

    def __init__(self, name: str, up: Channel, down: Channel):
        super().__init__(name)
        self.up = up
        self.down = down

    def channels(self) -> Sequence[Channel]:
        return (self.up, self.down)

    def evaluate(self) -> bool:
        up, down = self.up, self.down
        changed = down.drive_vp(up.vp)
        if up.vp == 1:
            down.put_data(up.data)
        changed |= down.drive_sn(_NOT[up.vp])
        # Upstream never sees anti-tokens; a kill looks like a transfer.
        changed |= up.drive_vn(0)
        changed |= up.drive_sp(_AND[down.sp][_NOT[down.vn]])
        return changed


# ----------------------------------------------------------------------
# Variable-latency controller (Fig. 7(b))
# ----------------------------------------------------------------------
class VariableLatency(Controller):
    """Controller for a variable-latency functional unit.

    Implements the three-wire (go/done/ack) handshake of Fig. 7(b) at
    the cycle level: ``go`` corresponds to accepting an input token,
    ``done`` to the unit finishing after a sampled latency, and ``ack``
    to the output transfer (or kill).  While the unit is empty,
    anti-tokens pass backwards combinationally -- there is no latch in
    the controller, so (as the paper notes for the M1/M2 channels)
    anti-tokens are never killed *inside* it, only at buffer
    boundaries.
    """

    IDLE, BUSY, DONE = range(3)

    PORTS = {
        "right.vp": (),
        "right.sn": ("left.sn", "left.vp"),
        "left.vn": ("right.vn",),
        "left.sp": ("right.sp", "right.vn"),
    }

    def __init__(
        self,
        name: str,
        left: Channel,
        right: Channel,
        latency: Callable[[random.Random], int],
        func: Optional[Callable[[object], object]] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.latency = latency
        self.func = func if func is not None else (lambda value: value)
        self.rng = rng if rng is not None else random.Random(0)
        self.state = self.IDLE
        self.remaining = 0
        self.payload: object = None
        self.result: object = None
        self.go_count = 0
        self.done_count = 0
        self.aborted = 0

    def channels(self) -> Sequence[Channel]:
        return (self.left, self.right)

    def evaluate(self) -> bool:
        left, right = self.left, self.right
        idle = self.state == self.IDLE
        done = self.state == self.DONE
        busy = self.state == self.BUSY

        changed = right.drive_vp(done)
        if done:
            right.put_data(self.result)
        if busy:
            # An anti-token may preempt the computation in flight (the
            # counterflow pipelining of the paper's refs [1, 2]): the
            # anti-token is absorbed and the operation aborted.
            changed |= right.drive_sn(0)
        elif done:
            changed |= right.drive_sn(0)
        else:  # idle: pass the anti-token through combinationally
            changed |= right.drive_sn(_AND[left.sn][_NOT[left.vp]])
        changed |= left.drive_vn(right.vn if idle else 0)
        if idle:
            changed |= left.drive_sp(0)
        elif busy:
            changed |= left.drive_sp(1)
        else:
            # done: accept a new operand in the cycle the result departs
            # (ack = output transfer or kill), like back-to-back go/ack
            # handshakes on the Fig. 7(b) interface.
            released = _OR[_NOT[right.sp]][right.vn]
            changed |= left.drive_sp(_NOT[released])
        return changed

    def _start(self, payload: object) -> None:
        self.payload = payload
        lat = self.latency(self.rng)
        if lat < 1:
            raise ValueError("latency must be >= 1")
        self.go_count += 1
        if lat == 1:
            self.state = self.DONE
            self.result = self.func(self.payload)
            self.done_count += 1
        else:
            self.state = self.BUSY
            self.remaining = lat - 1

    def commit(self) -> None:
        left, right = self.left, self.right
        if self.state == self.IDLE:
            if left.vp == 1 and left.sp == 0 and left.vn == 0:  # transfer
                self._start(left.data)
            # left.kill: the token died on the input channel; stay idle.
        elif self.state == self.BUSY:
            if right.vn == 1 and right.sn == 0 and right.vp == 0:
                # Preempted: the anti-token annihilates the operand in
                # flight and the unit is flushed.
                self.state = self.IDLE
                self.payload = None
                self.aborted += 1
            else:
                self.remaining -= 1
                if self.remaining == 0:
                    self.state = self.DONE
                    self.result = self.func(self.payload)
                    self.done_count += 1
        elif self.state == self.DONE:
            if right.vp == 1 and (right.vn == 1 or right.sp == 0):
                # the result transferred or was killed
                self.state = self.IDLE
                self.result = None
                if left.vp == 1 and left.sp == 0 and left.vn == 0:
                    self._start(left.data)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
class Source(Controller):
    """Environment producer on a ``{V+, S+}`` interface.

    Offers a token with probability ``p_valid`` each cycle and honours
    SELF persistence: a retried token is re-offered with the same
    payload until it transfers (or is killed, if the channel carries
    anti-tokens -- the source itself behaves like a passive interface,
    ``S− = not V+``).
    """

    PORTS = {"output.vp": (), "output.sn": ()}

    def __init__(
        self,
        name: str,
        output: Channel,
        data_fn: Optional[Callable[[int], object]] = None,
        p_valid: float = 1.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        self.output = output
        self.data_fn = data_fn if data_fn is not None else (lambda n: n)
        self.p_valid = p_valid
        self.rng = rng if rng is not None else random.Random(0)
        self.seq = 0
        self.pending = False
        self.current: object = None
        self.offer = False
        self._decided = False
        self.sent = 0
        self.killed = 0

    def channels(self) -> Sequence[Channel]:
        return (self.output,)

    def evaluate(self) -> bool:
        out = self.output
        if not self.pending and not self._decided:
            # Decide once per cycle whether to offer a fresh token.
            self._decided = True
            if self.p_valid >= 1.0 or self.rng.random() < self.p_valid:
                self.current = self.data_fn(self.seq)
                self.offer = True
        valid = self.pending or self.offer
        changed = out.drive_vp(valid)
        if valid:
            out.put_data(self.current)
        changed |= out.drive_sn(not valid)
        return changed

    def commit(self) -> None:
        out = self.output
        if out.vp == 1:
            if out.vn == 1:  # kill
                self.killed += 1
                self.seq += 1
                self.pending = False
            elif out.sp == 0:  # positive transfer
                self.sent += 1
                self.seq += 1
                self.pending = False
            else:  # retry: persistence
                self.pending = True
        self.offer = False
        self._decided = False


class Sink(Controller):
    """Environment consumer, optionally stalling and/or killing.

    With ``p_stop == p_kill == 0`` this is the always-ready consumer of
    the Table 1 experiments.  With nonzero probabilities it becomes the
    non-deterministic consumer of the Fig. 8(b) verification set-up:
    each cycle it either accepts, stalls, or emits an anti-token to
    cancel data inside the netlist.  Anti-token persistence (Retry−) is
    honoured.
    """

    PORTS = {"input.sp": (), "input.vn": ()}

    def __init__(
        self,
        name: str,
        input: Channel,
        p_stop: float = 0.0,
        p_kill: float = 0.0,
        on_data: Optional[Callable[[object], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name)
        if p_stop + p_kill > 1.0 + 1e-12:
            raise ValueError("p_stop + p_kill must be <= 1")
        self.input = input
        self.p_stop = p_stop
        self.p_kill = p_kill
        self.on_data = on_data
        self.rng = rng if rng is not None else random.Random(0)
        self.pending_anti = False
        self._action: Optional[str] = None
        self.received: List[object] = []
        self.kills_sent = 0

    def channels(self) -> Sequence[Channel]:
        return (self.input,)

    def evaluate(self) -> bool:
        ch = self.input
        if self._action is None:
            if self.pending_anti:
                self._action = "kill"
            else:
                r = self.rng.random()
                if r < self.p_kill:
                    self._action = "kill"
                elif r < self.p_kill + self.p_stop:
                    self._action = "stall"
                else:
                    self._action = "accept"
        action = self._action
        changed = ch.drive_vn(action == "kill")
        changed |= ch.drive_sp(action == "stall")
        return changed

    def commit(self) -> None:
        ch = self.input
        vp, vn = ch.vp, ch.vn
        if vp == 1 and vn == 0 and ch.sp == 0:  # positive transfer
            self.received.append(ch.data)
            if self.on_data is not None:
                self.on_data(ch.data)
        if self._action == "kill":
            # kill, or a negative transfer
            if vn == 1 and (vp == 1 or ch.sn == 0):
                self.kills_sent += 1
                self.pending_anti = False
            else:  # Retry-: hold the anti-token
                self.pending_anti = True
        self._action = None


# ----------------------------------------------------------------------
# Network simulator
# ----------------------------------------------------------------------
class ElasticNetwork:
    """Statically scheduled simulator for a network of elastic controllers.

    Per cycle: reset all channel wires to X, run one ordered pass of
    ``evaluate`` calls, check that every wire settled, classify/record
    every channel, then ``commit`` all controllers (those that keep the
    base no-op ``commit`` are left out of the commit pass).

    The pass is built on the first :meth:`step` (and again after
    :meth:`add` or :meth:`add_channel`) from the controllers' port
    models (:meth:`Controller.port_model`).  Driven wires are nodes of a
    graph whose edges are the declared reads; its strongly connected
    components, in topological order, give the pass.  A wire outside
    any cycle is computed by one ``evaluate`` of the controller driving
    it once every wire it reads is known; a combinational cycle (for
    example through a :class:`LazyFork`) is iterated until no wire
    changes, at most ``4 * |channels| + 4`` times.  Controllers driving
    no wire (such as probes) are skipped but still commit.  A network of
    undeclared controllers is one component per connected group, which
    is the plain fixed-point sweep.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.controllers: List[Controller] = []
        self.channels: Dict[str, Channel] = {}
        self.cycle = 0
        self._saboteurs: List[Callable[[int, Dict[str, Channel]], None]] = []
        #: post-commit probes ``fn(net)`` run once per settled cycle
        #: (wires are still valid, ``net.cycle`` is the cycle just
        #: simulated).  Empty by default -- the common untraced path
        #: pays one truthiness check per cycle.  :mod:`repro.obs` uses
        #: this for occupancy sampling and metrics collection.
        self.probes: List[Callable[["ElasticNetwork"], None]] = []
        #: the evaluation pass, built lazily by :meth:`_schedule`
        self._pass: Optional[List[_Step]] = None
        #: the commit pass, built with it: bound ``commit`` methods of
        #: the controllers that override the base no-op, in order
        self._commits: List[Callable[[], None]] = []
        #: driven wire -> (component index, driving controllers)
        self._components: Dict[Wire, Tuple[int, List[Controller]]] = {}

    def add_saboteur(
        self, saboteur: Callable[[int, Dict[str, Channel]], None]
    ) -> Callable[[int, Dict[str, Channel]], None]:
        """Register a fault-injection hook ``fn(cycle, channels)``.

        Saboteurs run after the network settles but *before* channels
        are classified and controllers commit, so a corrupted wire is
        what every monitor and every controller's commit phase sees --
        the behavioural analogue of a glitch on the physical wire.  See
        :mod:`repro.faults.models` for the stock fault models.
        """
        self._saboteurs.append(saboteur)
        return saboteur

    def add_probe(
        self, probe: Callable[["ElasticNetwork"], None]
    ) -> Callable[["ElasticNetwork"], None]:
        """Register a post-commit probe ``fn(net)`` (see :attr:`probes`).

        Probes run once per settled cycle with the channel wires still
        valid and ``net.cycle`` naming the cycle just simulated -- the
        attachment point for occupancy sampling, metrics collection and
        the :class:`~repro.resilience.NetworkStallWatchdog`.
        """
        self.probes.append(probe)
        return probe

    def add_channel(self, name: str, monitor: bool = True, check_data: bool = True) -> Channel:
        """Create and register a channel."""
        if name in self.channels:
            raise ValueError(f"duplicate channel {name!r}")
        ch = Channel(name, monitor=monitor, check_data=check_data)
        self.channels[name] = ch
        self._pass = None
        return ch

    def add(self, controller: Controller) -> Controller:
        """Register a controller (its channels must already be added)."""
        for ch in controller.channels():
            if self.channels.get(ch.name) is not ch:
                raise ValueError(
                    f"{controller.name}: channel {ch.name!r} not registered"
                )
        self.controllers.append(controller)
        self._pass = None
        return controller

    def _schedule(self) -> List[_Step]:
        """Build the evaluation pass from the controllers' port models.

        Returns ``(controllers, loop)`` steps: ``loop`` is ``None`` for
        controllers evaluated once each, or the wires of a
        combinational cycle whose controllers are iterated to a fixed point.
        """
        order = {id(c): i for i, c in enumerate(self.controllers)}
        owners_of: Dict[Wire, List[Controller]] = {}
        reads: Dict[Wire, Dict[Wire, None]] = {}
        for ctrl in self.controllers:
            for driven, deps in ctrl.port_model():
                for wire in driven:
                    owners = owners_of.setdefault(wire, [])
                    if ctrl not in owners:
                        owners.append(ctrl)
                    reads.setdefault(wire, {}).update(dict.fromkeys(deps))
        graph = {w: [d for d in reads[w] if d in owners_of] for w in owners_of}
        components = strong_components(graph)

        # ASAP level of each component: one past its deepest input.
        comp_of = {w: i for i, comp in enumerate(components) for w in comp}
        level: List[int] = []
        for comp in components:
            inner = set(comp)
            level.append(1 + max(
                (level[comp_of[d]] for w in comp for d in graph[w]
                 if d not in inner), default=-1))
        last = max(level, default=0)
        # Latest level a wire may be computed at: before any reader.
        deadline = {w: last for w in graph}
        for w, deps in graph.items():
            for d in deps:
                deadline[d] = min(deadline[d], level[comp_of[w]] - 1)

        # A singleton wire may be computed anywhere between its level
        # and its deadline: pick, per controller, the fewest levels
        # covering all its windows (greedy on the window ends).
        windows: Dict[int, List[Tuple[int, int]]] = {}
        loops: Dict[int, List[_Step]] = {}
        self._components = {}
        for i, comp in enumerate(components):
            owners = sorted({id(c): c for w in comp for c in owners_of[w]}.values(),
                            key=lambda c: order[id(c)])
            for w in comp:
                self._components[w] = (i, owners)
            if len(comp) > 1 or comp[0] in graph[comp[0]]:
                loops.setdefault(level[i], []).append((tuple(owners), comp))
                continue
            for ctrl in owners:
                windows.setdefault(id(ctrl), []).append(
                    (deadline[comp[0]], level[i]))
        at: Dict[int, List[Controller]] = {}
        for ctrl in self.controllers:
            chosen = -1
            for end, begin in sorted(windows.get(id(ctrl), ())):
                if chosen < begin:
                    chosen = end
                    at.setdefault(end, []).append(ctrl)

        steps: List[_Step] = []
        for lvl in range(last + 1):
            once = tuple(at.get(lvl, ()))
            if once and steps and steps[-1][1] is None:
                steps[-1] = (steps[-1][0] + once, None)
            elif once:
                steps.append((once, None))
            steps.extend(loops.get(lvl, ()))
        return steps

    def _unsettled(self, wires: Sequence[Wire], why: str) -> ProtocolViolation:
        """A located non-convergence error naming wires and components."""
        groups: Dict[int, List[str]] = {}
        owners: Dict[int, str] = {}
        for wire in wires:
            index, ctrls = self._components.get(wire, (-1, []))
            groups.setdefault(index, []).append(f"{wire[0].name}.{wire[1]}")
            owners[index] = (
                "component of " + ", ".join(c.name for c in ctrls)
                if ctrls else "undriven"
            )
        parts = [f"{', '.join(names)} ({owners[i]})"
                 for i, names in groups.items()]
        return ProtocolViolation(
            f"{self.name}: fixed point not reached: {why}: " + "; ".join(parts)
        )

    def step(self) -> None:
        """Simulate one clock cycle."""
        channels = self.channels.values()
        for ch in channels:
            ch.begin_cycle()
        steps = self._pass
        if steps is None:
            steps = self._pass = self._schedule()
            self._commits = [
                c.commit for c in self.controllers
                if getattr(c.commit, "__func__", None) is not Controller.commit
            ]
        for ctrls, loop in steps:
            if loop is None:
                for ctrl in ctrls:
                    ctrl.evaluate()
                continue
            for _ in range(4 * len(self.channels) + 4):
                changed = False
                for ctrl in ctrls:
                    changed |= ctrl.evaluate()
                if not changed:
                    break
            else:
                raise self._unsettled(loop, "still changing")
        for saboteur in self._saboteurs:
            saboteur(self.cycle, self.channels)
        try:
            for ch in channels:
                ch.finish_cycle()
        except ProtocolViolation:
            if ch.settled():
                raise
            raise self._unsettled(
                [(c, w) for c in channels for w in WIRES
                 if getattr(c, w) is X], "still X") from None
        for commit in self._commits:
            commit()
        if self.probes:
            for probe in self.probes:
                probe(self)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Simulate ``cycles`` clock cycles."""
        for _ in range(cycles):
            self.step()

    def throughput(self, channel: str) -> float:
        """The Th of one channel (transfers + kills per cycle)."""
        return self.channels[channel].stats.throughput

    def report(self) -> str:
        """Human-readable per-channel summary."""
        lines = [f"network {self.name}: {self.cycle} cycles"]
        for name in sorted(self.channels):
            lines.append(f"  {name:24s} {self.channels[name].stats}")
        return "\n".join(lines)
