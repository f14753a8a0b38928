"""Tests for the dual-channel wire model."""

import pytest

from repro.elastic.channel import Channel, ChannelStats
from repro.elastic.protocol import DualChannelEvent, ProtocolViolation
from repro.rtl.logic import X


@pytest.fixture
def ch():
    c = Channel("c", monitor=False)
    c.begin_cycle()
    return c


class TestDriving:
    def test_wires_start_unknown(self, ch):
        assert ch.vp is X and ch.sp is X and ch.vn is X and ch.sn is X

    def test_drive_returns_change_flag(self, ch):
        assert ch.drive_vp(1) is True
        assert ch.drive_vp(1) is False  # same value, no change

    def test_driving_x_is_noop(self, ch):
        assert ch.drive_vp(X) is False
        assert ch.vp is X

    def test_conflicting_drive_raises(self, ch):
        ch.drive_sp(0)
        with pytest.raises(ProtocolViolation):
            ch.drive_sp(1)

    def test_truthy_normalisation(self, ch):
        ch.drive_vn(True)
        assert ch.vn == 1


class TestSettling:
    def test_settled_requires_all_four(self, ch):
        ch.drive_vp(1)
        ch.drive_sp(0)
        ch.drive_vn(0)
        assert not ch.settled()
        ch.drive_sn(0)
        assert ch.settled()

    def test_require_settled_raises(self, ch):
        with pytest.raises(ProtocolViolation):
            ch.require_settled()

    def test_event_predicates(self, ch):
        for wire, value in (("vp", 1), ("sp", 0), ("vn", 0), ("sn", 0)):
            getattr(ch, f"drive_{wire}")(value)
        assert ch.pos_transfer and not ch.neg_transfer and not ch.kill


class TestLifecycle:
    def test_finish_cycle_classifies_and_counts(self, ch):
        ch.drive_vp(1)
        ch.drive_sp(0)
        ch.drive_vn(0)
        ch.drive_sn(0)
        event = ch.finish_cycle()
        assert event is DualChannelEvent.POSITIVE_TRANSFER
        assert ch.stats.positive == 1

    def test_begin_cycle_clears_wires_and_data(self, ch):
        ch.drive_vp(1)
        ch.put_data("payload")
        ch.begin_cycle()
        assert ch.vp is X and ch.data is None

    def test_monitored_channel_enforces_persistence(self):
        c = Channel("m")
        c.begin_cycle()
        for wire, value in (("vp", 1), ("sp", 1), ("vn", 0), ("sn", 0)):
            getattr(c, f"drive_{wire}")(value)
        c.put_data("a")
        c.finish_cycle()
        c.begin_cycle()
        for wire, value in (("vp", 0), ("sp", 0), ("vn", 0), ("sn", 0)):
            getattr(c, f"drive_{wire}")(value)
        with pytest.raises(ProtocolViolation):
            c.finish_cycle()


class TestStats:
    def test_throughput_formula(self):
        s = ChannelStats()
        for ev in (
            DualChannelEvent.POSITIVE_TRANSFER,
            DualChannelEvent.NEGATIVE_TRANSFER,
            DualChannelEvent.KILL,
            DualChannelEvent.IDLE,
        ):
            s.record(ev)
        assert s.throughput == pytest.approx(0.75)

    def test_rates(self):
        s = ChannelStats()
        s.record(DualChannelEvent.POSITIVE_TRANSFER)
        s.record(DualChannelEvent.KILL)
        rates = s.rates()
        assert rates["+"] == 0.5 and rates["±"] == 0.5 and rates["-"] == 0.0

    def test_all_event_kinds_counted(self):
        s = ChannelStats()
        for ev in DualChannelEvent:
            s.record(ev)
        assert s.cycles == 6
        assert s.retries_pos == 1 and s.retries_neg == 1 and s.idle == 1

    def test_zero_cycles_throughput(self):
        assert ChannelStats().throughput == 0.0
