"""The SELF protocol and its dual (anti-token) extension.

Section 3 of the paper: a channel carries ``Valid`` (V) and ``Stop`` (S)
and is, each cycle, in one of three states:

* **Transfer (T)**: ``V and not S`` -- data moves.
* **Idle (I)**: ``not V`` -- no data offered.
* **Retry (R)**: ``V and S`` -- data offered but not accepted; the
  sender must hold it (persistence), so the observable language of a
  channel is ``(I* R* T)*``.

Section 4 adds the symmetric negative flow: a *dual* channel carries
``{V+, S+, V−, S−}``.  Events:

* **positive transfer**: ``V+ and not S+ and not V−``
* **negative transfer**: ``V− and not S− and not V+``
* **kill**: ``V+ and V−`` -- token and anti-token annihilate.

and the channel invariants of equation (2)::

    not (V− and S+)      -- cannot kill a token and stop it
    not (V+ and S−)      -- dual for anti-tokens

The throughput of a channel is the sum of the three event rates, which
by the repetitive behaviour of SCDMGs is identical on every channel of a
strongly connected system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class ChannelState(enum.Enum):
    """State of a (positive) SELF channel in one cycle."""

    TRANSFER = "T"
    IDLE = "I"
    RETRY = "R"


class DualChannelEvent(enum.Enum):
    """Event observed on a dual channel in one cycle."""

    POSITIVE_TRANSFER = "+"
    NEGATIVE_TRANSFER = "-"
    KILL = "±"
    RETRY_POS = "R+"
    RETRY_NEG = "R-"
    IDLE = "I"


def classify(valid: int, stop: int) -> ChannelState:
    """Classify a positive-only channel cycle (Fig. 2)."""
    if not valid:
        return ChannelState.IDLE
    return ChannelState.RETRY if stop else ChannelState.TRANSFER


def wire_code(vp: int, sp: int, vn: int, sn: int) -> int:
    """The settled wires ``(V+, S+, V−, S−)`` as a 4-bit index into :data:`SETTLE`.

    Wire values are 0/1 (or bools); ``X`` raises ``TypeError``.
    """
    return vp << 3 | sp << 2 | vn << 1 | sn


_P = DualChannelEvent.POSITIVE_TRANSFER
_N = DualChannelEvent.NEGATIVE_TRANSFER
_K = DualChannelEvent.KILL
_RP = DualChannelEvent.RETRY_POS
_RN = DualChannelEvent.RETRY_NEG
_I = DualChannelEvent.IDLE

#: The settled-cycle event table, indexed by :func:`wire_code`: the
#: event of each wire code and the :class:`~repro.elastic.channel.
#: ChannelStats` counter it bumps, or ``None`` where equation (2) is
#: broken (``V− and S+`` or ``V+ and S−``).  Kill wins over either
#: retry, a transfer needs the opposite valid low, and every code with
#: neither valid is idle.
SETTLE: Tuple[Optional[Tuple[DualChannelEvent, str]], ...] = (
    #              V+ S+ V- S-
    (_I, "idle"),          # 0  0  0  0
    (_I, "idle"),          # 0  0  0  1
    (_N, "negative"),      # 0  0  1  0
    (_RN, "retries_neg"),  # 0  0  1  1
    (_I, "idle"),          # 0  1  0  0
    (_I, "idle"),          # 0  1  0  1
    None,                  # 0  1  1  0
    None,                  # 0  1  1  1
    (_P, "positive"),      # 1  0  0  0
    None,                  # 1  0  0  1
    (_K, "kills"),         # 1  0  1  0
    None,                  # 1  0  1  1
    (_RP, "retries_pos"),  # 1  1  0  0
    None,                  # 1  1  0  1
    None,                  # 1  1  1  0
    None,                  # 1  1  1  1
)

#: ``RETRY_POS`` / ``RETRY_NEG`` codes: the cycles that start a
#: persistence obligation for the monitor.
_RETRY_POS_CODE = 0b1100
_RETRY_NEG_CODE = 0b0011


def invariant_holds(vp: int, sp: int, vn: int, sn: int) -> bool:
    """The equation (2) invariants of a dual channel."""
    return SETTLE[wire_code(vp, sp, vn, sn)] is not None


def invariant_violation(code: int) -> "ProtocolViolation":
    """The equation (2) error for a wire code :data:`SETTLE` rejects."""
    return ProtocolViolation(
        f"invariant (2) violated: V+={code >> 3} S+={code >> 2 & 1} "
        f"V-={code >> 1 & 1} S-={code & 1}"
    )


def classify_dual(vp: int, sp: int, vn: int, sn: int) -> DualChannelEvent:
    """Classify one cycle of a dual channel (a :data:`SETTLE` lookup).

    Raises ``ProtocolViolation`` if the invariants of equation (2) are
    broken: classification would be ambiguous otherwise.
    """
    code = wire_code(vp, sp, vn, sn)
    entry = SETTLE[code]
    if entry is None:
        raise invariant_violation(code)
    return entry[0]


class ProtocolViolation(AssertionError):
    """A SELF protocol rule was broken on a channel."""


@dataclass
class ProtocolMonitor:
    """Runtime monitor for one dual channel.

    Checks, cycle by cycle:

    * the invariants of equation (2);
    * **persistence** of the positive flow: after Retry+ the sender must
      keep ``V+`` asserted with the *same data* until transfer or kill
      (this is exactly the ``(I*R*T)*`` language of Fig. 2);
    * **persistence** of the negative flow (Retry− keeps ``V−``).

    Attach one monitor per channel and feed it each settled cycle.
    """

    name: str = "channel"
    check_data: bool = True
    _pending_pos: bool = field(default=False, repr=False)
    _pending_data: object = field(default=None, repr=False)
    _pending_neg: bool = field(default=False, repr=False)
    history: List[DualChannelEvent] = field(default_factory=list, repr=False)

    def observe(
        self, vp: int, sp: int, vn: int, sn: int, data: object = None
    ) -> DualChannelEvent:
        """Check one cycle; returns its classification."""
        return self.observe_code(wire_code(vp, sp, vn, sn), data)

    def observe_code(self, code: int, data: object = None) -> DualChannelEvent:
        """:meth:`observe` on the cycle's :func:`wire_code`."""
        entry = SETTLE[code]
        if entry is None:
            raise invariant_violation(code)
        if self._pending_pos:
            if not code & 0b1000:
                raise ProtocolViolation(
                    f"{self.name}: V+ dropped during Retry+ (persistence broken)"
                )
            if self.check_data and data != self._pending_data:
                raise ProtocolViolation(
                    f"{self.name}: data changed during Retry+ "
                    f"({self._pending_data!r} -> {data!r})"
                )
        if self._pending_neg and not code & 0b0010:
            raise ProtocolViolation(
                f"{self.name}: V- dropped during Retry- (persistence broken)"
            )

        pending_pos = self._pending_pos = code == _RETRY_POS_CODE
        self._pending_data = data if pending_pos else None
        self._pending_neg = code == _RETRY_NEG_CODE
        event = entry[0]
        self.history.append(event)
        return event

    def language_ok(self) -> bool:
        """Whether the observed positive trace is a prefix of (I*R*T)*.

        Equivalent to never having seen a Retry followed by Idle, which
        :meth:`observe` already raises on; provided for explicit checks
        over recorded histories.
        """
        pending = False
        for ev in self.history:
            pos_valid = ev in (
                DualChannelEvent.POSITIVE_TRANSFER,
                DualChannelEvent.RETRY_POS,
                DualChannelEvent.KILL,
            )
            if pending and not pos_valid:
                return False
            pending = ev is DualChannelEvent.RETRY_POS
        return True

    def throughput(self) -> float:
        """Transfers + kills per observed cycle (the paper's Th metric)."""
        if not self.history:
            return 0.0
        moving = sum(
            1
            for ev in self.history
            if ev
            in (
                DualChannelEvent.POSITIVE_TRANSFER,
                DualChannelEvent.NEGATIVE_TRANSFER,
                DualChannelEvent.KILL,
            )
        )
        return moving / len(self.history)
