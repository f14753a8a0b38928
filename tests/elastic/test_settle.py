"""The table-driven settle path: classification, monitor and statistics.

``SETTLE`` replaced three if-chains (``classify_dual``, the monitor's
checks and ``ChannelStats.record``).  These tests pin it to the
if-chain it replaced (``reference_classify``, kept only here) on every
wire code, and check that every raising path still raises through
:meth:`Channel.finish_cycle`.
"""

import itertools
import random

import pytest

from repro.elastic.behavioral import ElasticBuffer, ElasticNetwork, Sink, Source
from repro.elastic.channel import Channel, ChannelStats
from repro.elastic.protocol import (
    SETTLE,
    DualChannelEvent,
    ProtocolMonitor,
    ProtocolViolation,
    classify_dual,
    wire_code,
)

CODES = list(itertools.product((0, 1), repeat=4))


def reference_classify(vp, sp, vn, sn):
    """The equation (2) check and event if-chain the table replaced."""
    if (vn and sp) or (vp and sn):
        return None
    if vp and vn:
        return DualChannelEvent.KILL
    if vp and not sp:
        return DualChannelEvent.POSITIVE_TRANSFER
    if vp and sp:
        return DualChannelEvent.RETRY_POS
    if vn and not sn:
        return DualChannelEvent.NEGATIVE_TRANSFER
    if vn and sn:
        return DualChannelEvent.RETRY_NEG
    return DualChannelEvent.IDLE


def _settle(ch, wires, data=None):
    ch.begin_cycle()
    ch.drive_vp(wires[0])
    ch.drive_sp(wires[1])
    ch.drive_vn(wires[2])
    ch.drive_sn(wires[3])
    if data is not None:
        ch.put_data(data)
    return ch.finish_cycle()


@pytest.mark.parametrize("wires", CODES)
def test_every_code_classifies_as_the_if_chain(wires):
    want = reference_classify(*wires)
    assert wire_code(*wires) == CODES.index(wires)
    if want is None:
        assert SETTLE[wire_code(*wires)] is None
        for call in (
            lambda: classify_dual(*wires),
            lambda: ProtocolMonitor("m").observe(*wires),
            lambda: _settle(Channel("c"), wires),
            lambda: _settle(Channel("c", monitor=False), wires),
        ):
            with pytest.raises(ProtocolViolation, match="invariant"):
                call()
        return
    assert classify_dual(*wires) is want
    assert classify_dual(*(bool(w) for w in wires)) is want
    assert ProtocolMonitor("m").observe(*wires) is want
    for monitor in (True, False):
        ch = Channel("c", monitor=monitor)
        assert _settle(ch, wires) is want
        assert ch.last_event is want
        expected = ChannelStats()
        expected.record(want)
        assert ch.stats == expected


def test_invariant_codes():
    broken = [w for w in CODES if reference_classify(*w) is None]
    assert len(broken) == 7
    assert all((w[2] and w[1]) or (w[0] and w[3]) for w in broken)


class TestPersistenceThroughFinishCycle:
    def _retry_pos(self):
        ch = Channel("m")
        assert _settle(ch, (1, 1, 0, 0), data="a") is DualChannelEvent.RETRY_POS
        return ch

    def test_valid_dropped_in_retry_pos(self):
        ch = self._retry_pos()
        with pytest.raises(ProtocolViolation, match="V\\+ dropped"):
            _settle(ch, (0, 0, 0, 0))

    def test_data_changed_in_retry_pos(self):
        ch = self._retry_pos()
        with pytest.raises(ProtocolViolation, match="data changed"):
            _settle(ch, (1, 0, 0, 0), data="b")

    def test_data_may_change_without_data_checks(self):
        ch = Channel("m", check_data=False)
        _settle(ch, (1, 1, 0, 0), data="a")
        assert _settle(ch, (1, 0, 0, 0), data="b") is (
            DualChannelEvent.POSITIVE_TRANSFER)

    def test_kill_discharges_retry_pos(self):
        ch = self._retry_pos()
        assert _settle(ch, (1, 0, 1, 0), data="a") is DualChannelEvent.KILL
        assert _settle(ch, (0, 0, 0, 0)) is DualChannelEvent.IDLE

    def test_anti_valid_dropped_in_retry_neg(self):
        ch = Channel("m")
        assert _settle(ch, (0, 0, 1, 1)) is DualChannelEvent.RETRY_NEG
        with pytest.raises(ProtocolViolation, match="V- dropped"):
            _settle(ch, (0, 0, 0, 0))

    def test_failed_cycle_is_not_counted(self):
        ch = self._retry_pos()
        with pytest.raises(ProtocolViolation):
            _settle(ch, (0, 0, 0, 0))
        assert ch.stats.cycles == 1 and ch.stats.retries_pos == 1


def test_forced_wire_is_classified_on_its_forced_value():
    net = ElasticNetwork("forced")
    c0, c1 = net.add_channel("c0"), net.add_channel("c1")
    net.add(Source("src", c0))
    net.add(ElasticBuffer("eb", c0, c1, initial_tokens=1))
    net.add(Sink("snk", c1))

    def spurious_anti(cycle, channels):
        if cycle == 0:
            channels["c1"].force("vn", 1)

    net.add_saboteur(spurious_anti)
    net.step()
    # The buffer offered its token; the forced anti-token kills it.
    assert c1.last_event is DualChannelEvent.KILL
    assert c1.stats.kills == 1 and c1.stats.positive == 0


def _random_net(monitor, seed):
    rng = random.Random(seed)
    net = ElasticNetwork("pipe")
    chans = [net.add_channel(f"c{i}", monitor=monitor) for i in range(4)]
    net.add(Source("src", chans[0], p_valid=0.7, rng=random.Random(rng.random())))
    for i in range(3):
        net.add(ElasticBuffer(f"eb{i}", chans[i], chans[i + 1]))
    net.add(Sink("snk", chans[-1], p_stop=0.3, p_kill=0.2,
                 rng=random.Random(rng.random())))
    return net


@pytest.mark.parametrize("seed", range(3))
def test_unmonitored_channels_count_identically(seed):
    nets = [_random_net(True, seed), _random_net(False, seed)]
    for net in nets:
        net.run(400)
    for name, ch in nets[0].channels.items():
        other = nets[1].channels[name]
        assert ch.stats == other.stats
        assert ch.monitor.history[-1] is ch.last_event is other.last_event
    moving = nets[0].channels["c3"].stats
    assert moving.positive and moving.kills and moving.retries_pos
