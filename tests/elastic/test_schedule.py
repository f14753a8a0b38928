"""The behavioural engine's static schedule.

:class:`~repro.elastic.behavioral.ElasticNetwork` evaluates controllers
in an order derived from their declared port models.  These tests pin
it to the plain whole-network fixed-point sweep (``reference_step``,
kept only here as the oracle): both engines must produce the same
wires, data and channel statistics on every cycle, and fail at the same
cycle with the same error.  They also check each shipped controller's
declaration against its ``evaluate`` and the schedule's lifecycle.
"""

import functools
import random

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.casestudy.processor import (
    CommitUnit,
    FetchUnit,
    ProcessorConfig,
    build_processor,
)
from repro.elastic import behavioral
from repro.elastic.behavioral import (
    WIRES,
    Controller,
    EagerFork,
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Join,
    LazyFork,
    PassiveAntiToken,
    Pipe,
    Sink,
    Source,
    VariableLatency,
)
from repro.elastic.channel import Channel
from repro.elastic.crosscheck import ControllerCrossCheck, ScriptedEnd
from repro.elastic.ee import AndEE, MuxEE, ThresholdEE
from repro.elastic.gates import GateChannel, build_fork, build_join
from repro.elastic.instrumentation import OccupancyProbe
from repro.elastic.protocol import ProtocolViolation
from repro.faults.campaign import (
    ChannelFault,
    ProcessorCampaignConfig,
    StateSaboteur,
    WireSaboteur,
    enumerate_processor_faults,
)
from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.model import BlockModel, ConnModel, SinkModel, SourceModel, SpecModel
from repro.fuzz.mutations import BrokenEarlyJoin, break_early_join
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist
from repro.synthesis.elaborate import to_behavioral


def reference_step(net: ElasticNetwork) -> None:
    """One cycle of the whole-network sweep: every controller, until no
    wire changes."""
    for ch in net.channels.values():
        ch.begin_cycle()
    for _ in range(4 * len(net.channels) + 4):
        changed = False
        for ctrl in net.controllers:
            changed |= ctrl.evaluate()
        if not changed:
            break
    else:
        raise ProtocolViolation(f"{net.name}: fixed point not reached")
    for saboteur in net._saboteurs:
        saboteur(net.cycle, net.channels)
    for ch in net.channels.values():
        ch.finish_cycle()
    for ctrl in net.controllers:
        ctrl.commit()
    for probe in net.probes:
        probe(net)
    net.cycle += 1


def _wires(net):
    return [(name, ch.vp, ch.sp, ch.vn, ch.sn, ch.data)
            for name, ch in net.channels.items()]


def lockstep(make, cycles, before=None):
    """Run a scheduled and a reference copy of ``make()`` side by side.

    Compares every channel's wires and data after each cycle, and the
    channel statistics at the end.  ``before(net)`` runs on both copies
    before every cycle.  Returns ``(cycles run, error or None)``.
    """
    nets = [make(), make()]
    steps = [nets[0].step, functools.partial(reference_step, nets[1])]
    errors = [None, None]
    for _ in range(cycles):
        for i, net in enumerate(nets):
            if before is not None:
                before(net)
            try:
                steps[i]()
            except (ProtocolViolation, AssertionError, IndexError) as exc:
                errors[i] = exc
        assert _wires(nets[0]) == _wires(nets[1]), f"cycle {nets[1].cycle}"
        if errors != [None, None]:
            break
    scheduled, reference = errors
    assert type(scheduled) is type(reference)
    assert nets[0].cycle == nets[1].cycle
    if reference is not None and "did not settle" in str(reference):
        # The schedule names every unsettled wire and its component.
        assert "fixed point not reached" in str(scheduled)
    else:
        assert str(scheduled) == str(reference)
    assert ({n: c.stats for n, c in nets[0].channels.items()}
            == {n: c.stats for n, c in nets[1].channels.items()})
    return nets[0].cycle, scheduled


# ----------------------------------------------------------------------
# Equivalence with the whole-network sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", list(Config), ids=lambda c: c.name)
def test_fig9_configurations(config):
    # Each copy gets its own spec: a spec's data functions hold state.
    cycles, error = lockstep(
        lambda: to_behavioral(build_fig9_spec(config), seed=3), 400)
    assert error is None and cycles == 400


def _processor_net(seed, fault):
    net, _, _ = build_processor(ProcessorConfig(seed=seed))
    if isinstance(fault, ChannelFault):
        net.add_saboteur(WireSaboteur([fault]))
    else:
        buffers = {c.name: c for c in net.controllers
                   if isinstance(c, ElasticBuffer)}
        net.add_saboteur(StateSaboteur([fault], buffers))
    return net


@pytest.mark.parametrize("seed", [0, 1])
def test_processor_fault_campaign(seed):
    cfg = ProcessorCampaignConfig(seed=seed)
    lockstep(lambda: build_processor(ProcessorConfig(seed=seed))[0],
             cfg.cycles)
    outcomes = {}
    for fault in enumerate_processor_faults(cfg):
        cycle, error = lockstep(
            functools.partial(_processor_net, seed, fault), cfg.cycles)
        outcomes[fault.label()] = (cycle, type(error).__name__)
    if seed == 1:
        # The known token-loss defect: the buffer pops a token it does
        # not hold, in the injection cycle, under both engines.
        assert outcomes["token_loss(EB_IF)@60"] == (60, "IndexError")


@pytest.mark.parametrize("index", range(20))
def test_fuzz_generated_specs(index):
    model = generate_model(random.Random(f"schedule:{index}"),
                           GeneratorConfig(max_blocks=16))
    lockstep(lambda: to_behavioral(model.build(), seed=index, monitor=True,
                                   check_data=True), 96)


def _lazy_fork_net(p_stop, direct):
    """Source -> EB -> LazyFork -> (EBs ->) Join -> Sink.

    With ``direct`` the fork feeds the join straight, a genuine
    combinational cycle between the fork's V+ and the join's S+.
    """
    net = ElasticNetwork("lazyfork")
    cin, c0, a, b, j = (net.add_channel(n) for n in ("cin", "c0", "a", "b", "j"))
    net.add(Source("src", cin, p_valid=0.7, rng=random.Random(1)))
    net.add(ElasticBuffer("eb", cin, c0))
    net.add(LazyFork("fork", c0, [a, b]))
    if direct:
        ins = [a, b]
    else:
        ins = [net.add_channel("a1"), net.add_channel("b1")]
        net.add(ElasticBuffer("eba", a, ins[0]))
        net.add(ElasticBuffer("ebb", b, ins[1]))
    net.add(Join("join", ins, j))
    net.add(Sink("sink", j, p_stop=p_stop, p_kill=0.2 if p_stop < 1 else 0.0,
                 rng=random.Random(2)))
    return net


def test_lazy_fork_network():
    _, error = lockstep(lambda: _lazy_fork_net(0.3, direct=False), 400)
    assert error is None


def test_lazy_fork_cycle_iterated_to_its_fixed_point():
    # A stalled join output resolves the fork/join cycle every cycle.
    net = _lazy_fork_net(1.0, direct=True)
    assert any(loop is not None for _, loop in net._schedule())
    _, error = lockstep(lambda: _lazy_fork_net(1.0, direct=True), 100)
    assert error is None


def test_lazy_fork_cycle_fails_at_the_same_cycle():
    cycles, error = lockstep(lambda: _lazy_fork_net(0.5, direct=True), 200)
    assert isinstance(error, ProtocolViolation) and cycles < 200


def _declare_env(nl, name, side):
    g = GateChannel.declare(nl, name)
    for wire in ((g.vp, g.sn) if side == "producer" else (g.sp, g.vn)):
        nl.add_input(wire)
    return g


def _join_harness(seed):
    nl = Netlist("join")
    gins = [_declare_env(nl, f"I{k}", "producer") for k in range(2)]
    gz = _declare_env(nl, "Z", "consumer")
    build_join(nl, gins, gz, prefix="j")
    ins = [Channel(f"I{k}", monitor=False) for k in range(2)]
    z = Channel("Z", monitor=False)
    triples = [(ch, g, "consumer") for ch, g in zip(ins, gins)]
    triples.append((z, gz, "producer"))
    return ControllerCrossCheck(Join("j", ins, z), triples, nl, seed=seed)


def _fork_harness(seed):
    nl = Netlist("fork")
    gi = _declare_env(nl, "I", "producer")
    gouts = [_declare_env(nl, f"O{k}", "consumer") for k in range(2)]
    build_fork(nl, gi, gouts, prefix="f")
    i = Channel("I", monitor=False)
    outs = [Channel(f"O{k}", monitor=False) for k in range(2)]
    triples = [(i, gi, "consumer")]
    triples.extend((ch, g, "producer") for ch, g in zip(outs, gouts))
    return ControllerCrossCheck(EagerFork("f", i, outs), triples, nl, seed=seed)


@pytest.mark.parametrize("build", [_join_harness, _fork_harness])
def test_scripted_end_harness(build):
    scheduled, reference = build(5), build(5)
    reference.net.step = functools.partial(reference_step, reference.net)
    for _ in range(200):
        scheduled.step()
        reference.step()
        assert _wires(scheduled.net) == _wires(reference.net)


def test_mutated_class_swap_after_the_schedule_is_built():
    model = SpecModel(
        "eeunit",
        sources=[SourceModel("src0", p_valid=0.5),
                 SourceModel("src1", p_valid=0.5)],
        sinks=[SinkModel("snk0")],
        blocks=[BlockModel("b0", n_inputs=2, ee="thr:1")],
        connections=[
            ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
            ConnModel(("source", "src1", "out"), ("block", "b0", "in1")),
            ConnModel(("block", "b0", "out0"), ("sink", "snk0", "in")),
        ],
    )

    def swap_at_cycle_3(net):
        if net.cycle == 3:
            assert break_early_join(net) == 1

    cycles, error = lockstep(lambda: to_behavioral(model.build(), seed=0), 64,
                             before=swap_at_cycle_3)
    # The broken arbiter ran (through its new class) and was caught.
    assert isinstance(error, ProtocolViolation) and cycles >= 3


# ----------------------------------------------------------------------
# Declaration soundness
# ----------------------------------------------------------------------
def _chans(*names):
    return [Channel(n, monitor=False) for n in names]


def _eb(rng):
    left, right = chans = _chans("l", "r")
    cap = rng.choice([1, 2, 3])
    eb = ElasticBuffer("eb", left, right, capacity=cap)
    eb.count = rng.randint(-cap, cap)
    eb.data = list(range(max(eb.count, 0)))
    return eb, chans


def _join(rng):
    *ins, out = chans = _chans("i0", "i1", "i2", "o")
    join = Join("j", ins, out)
    join.apend = [rng.randint(0, 1) for _ in ins]
    return join, chans


def _early_join(rng, cls=EarlyJoin):
    *ins, out = chans = _chans("i0", "i1", "i2", "o")
    ee = rng.choice([AndEE(3), ThresholdEE(rng.randint(1, 3), 3),
                     MuxEE(0, lambda d: 1 + d % 2, 3)])
    cap = rng.randint(1, 2)
    join = cls("ej", ins, out, ee, anti_capacity=cap)
    join.apend = [rng.randint(0, cap) for _ in ins]
    if rng.random() < 0.3:
        join._held_data = "held"
    return join, chans


def _eager_fork(rng):
    inp, *outs = chans = _chans("i", "o0", "o1", "o2")
    fork = EagerFork("f", inp, outs)
    fork.pend = [rng.randint(0, 1) for _ in outs]
    return fork, chans


def _lazy_fork(rng):
    inp, *outs = chans = _chans("i", "o0", "o1", "o2")
    return LazyFork("f", inp, outs), chans


def _pipe(rng):
    left, right = chans = _chans("l", "r")
    return Pipe("p", left, right), chans


def _passive(rng):
    up, down = chans = _chans("u", "d")
    return PassiveAntiToken("p", up, down), chans


def _vl(rng):
    left, right = chans = _chans("l", "r")
    vl = VariableLatency("vl", left, right, latency=lambda r: 2)
    vl.state = rng.choice([vl.IDLE, vl.BUSY, vl.DONE])
    return vl, chans


def _source(rng):
    chans = _chans("o")
    src = Source("s", chans[0], p_valid=rng.random(),
                 rng=random.Random(rng.random()))
    src.pending = rng.random() < 0.3
    return src, chans


def _sink(rng):
    chans = _chans("i")
    sink = Sink("k", chans[0], p_stop=0.4, p_kill=0.3,
                rng=random.Random(rng.random()))
    sink.pending_anti = rng.random() < 0.3
    return sink, chans


def _scripted(rng):
    chans = _chans("c")
    end = ScriptedEnd("e", chans[0], rng.choice(["producer", "consumer"]))
    end.set(rng.randint(0, 1), rng.randint(0, 1), "d")
    return end, chans


def _fetch(rng):
    chans = _chans("o")
    fetch = FetchUnit("fetch", chans[0], ProcessorConfig(seed=rng.randint(0, 9)))
    fetch.pending = rng.random() < 0.3
    return fetch, chans


def _commit(rng):
    chans = _chans("i", "o")
    fetch = FetchUnit("fetch", chans[1], ProcessorConfig())
    unit = CommitUnit("commit", chans[0], fetch)
    unit.anti_budget = rng.randint(0, 2)
    unit.pending_anti = rng.random() < 0.3
    return unit, chans[:1]


FACTORIES = {
    ElasticBuffer: _eb,
    Join: _join,
    EarlyJoin: _early_join,
    BrokenEarlyJoin: functools.partial(_early_join, cls=BrokenEarlyJoin),
    EagerFork: _eager_fork,
    LazyFork: _lazy_fork,
    Pipe: _pipe,
    PassiveAntiToken: _passive,
    VariableLatency: _vl,
    Source: _source,
    Sink: _sink,
    ScriptedEnd: _scripted,
    FetchUnit: _fetch,
    CommitUnit: _commit,
}


def _driven(ctrl):
    """``{(channel name, wire): declared reads}`` of one controller."""
    out = {}
    for driven, reads in ctrl.port_model():
        for ch, wire in driven:
            out.setdefault((ch.name, wire), set()).update(
                (r.name, w) for r, w in reads)
    return out


def _outputs(factory, seed, assignment):
    ctrl, chans = factory(random.Random(seed))
    by_name = {ch.name: ch for ch in chans}
    for ch in chans:
        ch.begin_cycle()
    for (name, wire), value in assignment.items():
        ch = by_name[name]
        getattr(ch, f"drive_{wire}")(value)
        if wire == "vp" and value == 1:
            ch.put_data(len(name))
    ctrl.evaluate()
    return {key: getattr(by_name[key[0]], key[1]) for key in _driven(ctrl)}


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)
def test_undeclared_reads_never_change_an_output(cls):
    factory = FACTORIES[cls]
    for seed in range(150):
        ctrl, chans = factory(random.Random(seed))
        assert type(ctrl) is cls
        driven = _driven(ctrl)
        inputs = [(ch.name, w) for ch in chans for w in WIRES
                  if (ch.name, w) not in driven]
        pick = random.Random(-seed)
        assignment = {key: pick.choice([0, 1, X]) for key in inputs}
        base = _outputs(factory, seed, assignment)
        for out, reads in driven.items():
            for key in inputs:
                if key in reads or assignment[key] is not X:
                    continue
                for value in (0, 1):
                    got = _outputs(factory, seed, {**assignment, key: value})
                    assert got[out] == base[out], (
                        f"{cls.__name__}: {out} changed when undeclared "
                        f"{key} went X -> {value} (seed {seed})")


def test_every_shipped_controller_class_is_checked():
    seen, pending = set(), [Controller]
    while pending:
        cls = pending.pop()
        seen.add(cls)
        pending.extend(cls.__subclasses__())
    shipped = {c for c in seen if c.__module__.startswith("repro.")
               and "evaluate" in c.__dict__ and c is not Controller}
    shipped.discard(OccupancyProbe)  # owns no channel, drives nothing
    assert shipped <= set(FACTORIES)


# ----------------------------------------------------------------------
# Located non-convergence errors
# ----------------------------------------------------------------------
def test_lazy_fork_cycle_names_its_wires_and_controllers():
    net = _lazy_fork_net(0.0, direct=True)
    with pytest.raises(ProtocolViolation) as excinfo:
        net.run(50)
    message = str(excinfo.value)
    assert "fixed point not reached" in message
    assert "a.vp" in message and "b.vp" in message
    assert "component of fork, join" in message


def test_undriven_channel_is_reported():
    net = ElasticNetwork("n")
    c, spare = net.add_channel("c"), net.add_channel("spare")
    net.add(Source("s", c))
    net.add(Sink("k", c))
    with pytest.raises(ProtocolViolation, match=r"spare\.vp.*undriven"):
        net.step()


def test_group_that_keeps_changing_is_reported():
    class Restless(Controller):
        """Drives its wires but always claims a change."""

        def __init__(self, ch):
            super().__init__("restless")
            self.ch = ch

        def channels(self):
            return (self.ch,)

        def evaluate(self):
            self.ch.drive_vp(1)
            self.ch.drive_sp(0)
            self.ch.drive_vn(0)
            self.ch.drive_sn(0)
            return True

    net = ElasticNetwork("n")
    net.add(Restless(net.add_channel("c")))
    with pytest.raises(ProtocolViolation, match=(
            r"still changing: c\.vp, c\.sp, c\.vn, c\.sn "
            r"\(component of restless\)")):
        net.step()


# ----------------------------------------------------------------------
# Schedule lifecycle
# ----------------------------------------------------------------------
def _pipeline():
    net = ElasticNetwork("pipe")
    c0, c1 = net.add_channel("c0"), net.add_channel("c1")
    net.add(Source("src", c0))
    eb = net.add(ElasticBuffer("eb", c0, c1))
    net.add(Sink("sink", c1))
    return net, eb


def test_schedule_is_built_lazily_and_invalidated():
    net, eb = _pipeline()
    assert net._pass is None
    net.step()
    assert net._pass is not None
    net.add(OccupancyProbe("probe", [eb]))
    assert net._pass is None
    net.step()
    assert net._pass is not None
    net.add_channel("c2")
    assert net._pass is None


def test_channel_less_controller_skipped_but_committed():
    net, eb = _pipeline()
    probe = net.add(OccupancyProbe("probe", [eb]))
    net.run(5)
    assert all(probe not in ctrls for ctrls, _ in net._pass)
    assert len(probe.token_samples) == 5


def test_evaluate_is_looked_up_through_the_class(monkeypatch):
    net, _ = _pipeline()
    net.step()  # schedule built with the original methods
    calls = []
    original = ElasticBuffer.evaluate

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(ElasticBuffer, "evaluate", counted)
    net.run(3)
    assert calls == ["eb"] * 3


def test_fig9_evaluates_each_controller_about_once():
    net = to_behavioral(build_fig9_spec(Config.ACTIVE))
    calls = []
    for ctrl in net.controllers:
        original = ctrl.evaluate
        ctrl.evaluate = functools.partial(
            lambda f, name: calls.append(name) or f(), original, ctrl.name)
    net.run(10)
    # The whole-network sweep made about 70 calls per cycle here.
    assert len(calls) / 10 <= 1.5 * len(net.controllers)


def test_engine_logic_tables_match_bool_inputs():
    assert behavioral._NOT[True] == 0 and behavioral._NOT[False] == 1
    assert behavioral._AND[True][X] is X and behavioral._OR[False][True] == 1
    assert behavioral._canon(5) == 1 and behavioral._canon(X) is X
