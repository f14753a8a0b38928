"""Dual elastic channels for the behavioural simulator.

A :class:`Channel` carries the four control wires ``{V+, S+, V−, S−}``
plus a data payload.  Within a simulated cycle all wires start unknown
(``X``) and are *driven* monotonically by the controllers at the two
ends until every wire is known:

* the **producer** end drives ``V+`` (and the data payload) and ``S−``;
* the **consumer** end drives ``S+`` and ``V−``.

Driving a wire twice with conflicting known values raises -- that would
mean two controllers disagree about the same physical signal, i.e. a
bug in a controller's equations.

After the network settles, :meth:`Channel.finish_cycle` classifies the
cycle (positive/negative transfer, kill, retry, idle), updates the
channel statistics, and runs the protocol monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.elastic.protocol import (
    SETTLE,
    DualChannelEvent,
    ProtocolMonitor,
    ProtocolViolation,
    invariant_violation,
)
from repro.rtl.logic import Value, X


#: event -> the :class:`ChannelStats` counter it bumps (from :data:`SETTLE`)
_COUNTER: Dict[DualChannelEvent, str] = dict(e for e in SETTLE if e is not None)


@dataclass
class ChannelStats:
    """Per-channel event counters (the Table 1 columns)."""

    cycles: int = 0
    positive: int = 0
    negative: int = 0
    kills: int = 0
    retries_pos: int = 0
    retries_neg: int = 0
    idle: int = 0

    def record(self, event: DualChannelEvent) -> None:
        counter = _COUNTER[event]
        self.cycles += 1
        setattr(self, counter, getattr(self, counter) + 1)

    @property
    def throughput(self) -> float:
        """(positive + negative + kills) per cycle -- the paper's Th."""
        if self.cycles == 0:
            return 0.0
        return (self.positive + self.negative + self.kills) / self.cycles

    def accounting(self) -> Dict[str, int]:
        """Cycle accounting keyed by the strict-bit category names.

        The keys match the gate-level classifier used by
        :mod:`repro.obs.analyze`, so behavioural and RTL profiles share
        one report schema.
        """
        return {
            "transfer+": self.positive,
            "transfer-": self.negative,
            "kill": self.kills,
            "retry+": self.retries_pos,
            "retry-": self.retries_neg,
            "idle": self.idle,
        }

    def rates(self) -> Dict[str, float]:
        """Per-cycle rates of the three moving events."""
        c = self.cycles or 1
        return {
            "+": self.positive / c,
            "-": self.negative / c,
            "±": self.kills / c,
        }

    def __str__(self) -> str:
        r = self.rates()
        return f"Th={self.throughput:.3f} (+{r['+']:.3f} -{r['-']:.3f} ±{r['±']:.3f})"


class Channel:
    """One dual elastic channel between two controller ports."""

    def __init__(self, name: str, monitor: bool = True, check_data: bool = True):
        self.name = name
        self.stats = ChannelStats()
        self.monitor: Optional[ProtocolMonitor] = (
            ProtocolMonitor(name, check_data=check_data) if monitor else None
        )
        self.vp: Value = X
        self.sp: Value = X
        self.vn: Value = X
        self.sn: Value = X
        self.data: object = None
        self.last_event: Optional[DualChannelEvent] = None
        #: external per-cycle watchers ``fn(channel)`` called on every
        #: settled cycle *before* the raising protocol monitor -- the
        #: attachment point for the non-raising fault-campaign monitors
        #: of :mod:`repro.faults.monitors`.
        self.observers: List[Callable[["Channel"], None]] = []

    # ------------------------------------------------------------------
    # Driving (monotone: X -> known only; conflicting drives raise)
    # ------------------------------------------------------------------
    # Each wire has its own drive method: the engine calls these on
    # every evaluation, so they read and write the attribute directly.
    def _conflict(self, wire: str, current: Value, value: Value) -> ProtocolViolation:
        return ProtocolViolation(
            f"{self.name}.{wire}: conflicting drives {current} vs {value}"
        )

    def drive_vp(self, value: Value) -> bool:
        """Producer drives Valid+ (forward data valid).

        Returns True if the wire changed (X -> known).
        """
        if value is X:
            return False
        current = self.vp
        if current is X:
            self.vp = 1 if value else 0
            return True
        if (1 if value else 0) != current:
            raise self._conflict("vp", current, value)
        return False

    def drive_sp(self, value: Value) -> bool:
        """Consumer drives Stop+ (token back-pressure)."""
        if value is X:
            return False
        current = self.sp
        if current is X:
            self.sp = 1 if value else 0
            return True
        if (1 if value else 0) != current:
            raise self._conflict("sp", current, value)
        return False

    def drive_vn(self, value: Value) -> bool:
        """Consumer drives Valid− (anti-token travelling backwards)."""
        if value is X:
            return False
        current = self.vn
        if current is X:
            self.vn = 1 if value else 0
            return True
        if (1 if value else 0) != current:
            raise self._conflict("vn", current, value)
        return False

    def drive_sn(self, value: Value) -> bool:
        """Producer drives Stop− (anti-token back-pressure)."""
        if value is X:
            return False
        current = self.sn
        if current is X:
            self.sn = 1 if value else 0
            return True
        if (1 if value else 0) != current:
            raise self._conflict("sn", current, value)
        return False

    def put_data(self, payload: object) -> None:
        """Producer attaches the payload accompanying ``V+``."""
        self.data = payload

    def force(self, wire: str, value: Value) -> None:
        """Fault-injection hook: overwrite a wire after the network settled.

        Unlike the ``drive_*`` methods this bypasses the monotone-drive
        discipline -- it models a glitch corrupting the physical wire
        between the drivers' fixed point and the receivers' sampling
        edge.  Use only between :meth:`ElasticNetwork` settling and
        ``finish_cycle`` (see ``ElasticNetwork.add_saboteur``).
        """
        if wire not in ("vp", "sp", "vn", "sn"):
            raise ValueError(f"unknown wire {wire!r}")
        setattr(self, wire, value)

    # ------------------------------------------------------------------
    # Settled-cycle queries (used by controller commit phases)
    # ------------------------------------------------------------------
    def settled(self) -> bool:
        """True once all four wires are known."""
        return not (
            self.vp is X or self.sp is X or self.vn is X or self.sn is X
        )

    def require_settled(self) -> None:
        if not self.settled():
            raise ProtocolViolation(
                f"{self.name}: wires did not settle "
                f"(V+={self.vp} S+={self.sp} V-={self.vn} S-={self.sn})"
            )

    @property
    def pos_transfer(self) -> bool:
        """Token moves forward this cycle."""
        return self.vp == 1 and self.sp == 0 and self.vn == 0

    @property
    def neg_transfer(self) -> bool:
        """Anti-token moves backward this cycle."""
        return self.vn == 1 and self.sn == 0 and self.vp == 0

    @property
    def kill(self) -> bool:
        """Token and anti-token annihilate on the channel this cycle."""
        return self.vp == 1 and self.vn == 1

    # ------------------------------------------------------------------
    # Cycle lifecycle
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset all wires to unknown at the start of a cycle."""
        self.vp = X
        self.sp = X
        self.vn = X
        self.sn = X
        self.data = None

    def finish_cycle(self) -> DualChannelEvent:
        """Classify and record the settled cycle.

        One :data:`~repro.elastic.protocol.SETTLE` lookup on the wire
        code gives the event and the statistics counter; the monitor
        (if any) checks the same code.
        """
        vp, sp, vn, sn = self.vp, self.sp, self.vn, self.sn
        if vp is X or sp is X or vn is X or sn is X:
            self.require_settled()
        if self.observers:
            for observer in self.observers:
                observer(self)
        code = vp << 3 | sp << 2 | vn << 1 | sn  # protocol.wire_code
        entry = SETTLE[code]
        if entry is None:
            raise invariant_violation(code)
        if self.monitor is not None:
            self.monitor.observe_code(code, self.data)
        event, counter = entry
        stats = self.stats
        stats.cycles += 1
        setattr(stats, counter, getattr(stats, counter) + 1)
        self.last_event = event
        return event

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, {self.stats})"
