"""Batched gate-vs-behavioural cross-checking, one seed per lane.

``BatchedCrossCheck`` must be a pure accelerator of the scalar
``ControllerCrossCheck``: a clean controller passes every seed, every
compiled lane ends in the state its seed's scalar harness reaches, and
a planted divergence raises a mismatch that replays *verbatim* -- same
cycle, wire, values and seed -- on the scalar harness.
"""

import pytest

from repro.elastic.behavioral import EarlyJoin, ElasticBuffer
from repro.elastic.channel import Channel
from repro.elastic.crosscheck import (
    BatchedCrossCheck,
    ControllerCrossCheck,
    CrossCheckMismatch,
)
from repro.elastic.ee import ThresholdEE
from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_join,
)
from repro.rtl.netlist import Netlist

CYCLES = 300


def declare_env_channel(nl: Netlist, name: str, env_side: str) -> GateChannel:
    g = GateChannel.declare(nl, name)
    if env_side == "producer":
        nl.add_input(g.vp)
        nl.add_input(g.sn)
    else:
        nl.add_input(g.sp)
        nl.add_input(g.vn)
    return g


def buffer_factory(tokens_gate, tokens_behavioral):
    def factory(seed):
        nl = Netlist("eb")
        gl = declare_env_channel(nl, "L", "producer")
        gr = declare_env_channel(nl, "R", "consumer")
        build_elastic_buffer(nl, gl, gr, prefix="eb",
                             initial_tokens=tokens_gate)
        nl.validate()
        L, R = Channel("L", monitor=False), Channel("R", monitor=False)
        eb = ElasticBuffer("eb", L, R, initial_tokens=tokens_behavioral)
        return ControllerCrossCheck(
            eb, [(L, gl, "consumer"), (R, gr, "producer")], nl, seed=seed
        )

    return factory


@pytest.mark.parametrize("tokens", [0, 1, 2])
def test_elastic_buffer_64_seeds(tokens):
    BatchedCrossCheck(buffer_factory(tokens, tokens), range(64)).run(CYCLES)


def test_early_join_64_seeds():
    def factory(seed):
        nl = Netlist("ej")
        gins = [declare_env_channel(nl, f"I{k}", "producer") for k in range(2)]
        gz = declare_env_channel(nl, "Z", "consumer")
        build_join(nl, gins, gz, prefix="ej",
                   ee=lambda nl, vps, datas: nl.OR(*vps), datas=[(), ()])
        ins = [Channel(f"I{k}", monitor=False) for k in range(2)]
        z = Channel("Z", monitor=False)
        join = EarlyJoin("ej", ins, z, ThresholdEE(1, 2))
        triples = [(ch, g, "consumer") for ch, g in zip(ins, gins)]
        triples.append((z, gz, "producer"))
        return ControllerCrossCheck(join, triples, nl, seed=seed)

    BatchedCrossCheck(factory, range(64)).run(CYCLES)


def test_compiled_lanes_match_scalar_harnesses():
    factory = buffer_factory(1, 1)
    batched = BatchedCrossCheck(factory, range(64))
    batched.run(CYCLES)
    for lane in (0, 31, 63):
        scalar = factory(batched.seeds[lane])
        scalar.run(CYCLES)
        assert batched.sim.lane_state(lane) == scalar.sim.state, lane


def test_mismatch_replays_on_scalar_harness():
    # gate twin seeded with a token the behavioural model doesn't have
    factory = buffer_factory(0, 1)
    with pytest.raises(CrossCheckMismatch) as batched:
        BatchedCrossCheck(factory, range(64)).run(CYCLES)
    e = batched.value
    with pytest.raises(CrossCheckMismatch) as scalar:
        factory(e.seed).run(CYCLES)
    s = scalar.value
    assert (e.cycle, e.wire, e.behavioral, e.gate, e.seed) == (
        s.cycle, s.wire, s.behavioral, s.gate, s.seed
    )


def test_seed_count_bounds():
    factory = buffer_factory(1, 1)
    with pytest.raises(ValueError):
        BatchedCrossCheck(factory, [])
    with pytest.raises(ValueError):
        BatchedCrossCheck(factory, range(65))
