"""Compiled-engine gates: warm-cache campaigns and exact lanes.

Benches the :mod:`repro.codegen` engine on the Fig. 5-7 controller
netlists (dual-EHB, join, early join, fork, passive buffer, variable
latency) at 64 and 256 lanes, and gates its contract: spot lanes of
the kernel equal their scalar replays cycle for cycle, and with a
**warm build cache** (zero codegen during the timed region, asserted
via the cache hit/miss counters) the lane-parallel fault campaign
produces the byte-identical JSON report of the ``lanes=1`` scalar
campaign.  The scalar timings are reported, not gated.

The Sect. 7 processor campaign is included as reference timing only:
that pipeline is modelled behaviourally (controllers stepping Python
objects, no gate netlist exists to elaborate), so the compiled backend
structurally does not apply to it.
"""

import time

import pytest

from repro.codegen.cache import BuildCache, process_stats
from repro.codegen.sim import CompiledSimulator
from repro.faults.campaign import (
    CampaignConfig,
    ProcessorCampaignConfig,
    run_campaign,
    run_processor_campaign,
)
from repro.faults.targets import TARGETS
from repro.rtl.planes import pack_stimulus
from repro.rtl.simulator import TwoPhaseSimulator

# Fig. 5: dual_ehb; Fig. 6: join, early_join, fork; Fig. 7: passive, vl.
FIG_TARGETS = ["dual_ehb", "join", "early_join", "fork", "passive", "vl"]
KERNEL_CYCLES = 150
CONFIG = CampaignConfig(
    cycles=300, seed=2007, kinds=("stuck0", "stuck1", "flip"),
    untestable_analysis=False,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BuildCache(tmp_path_factory.mktemp("codegen-cache"))


def _stimulus(target, cycles, lanes):
    import random

    return [
        [
            {name: rng.getrandbits(1) for name in target.free_inputs}
            for _ in range(cycles)
        ]
        for rng in (random.Random(f"bench:{lane}") for lane in range(lanes))
    ]


def _best(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("lanes", [64, 256])
@pytest.mark.parametrize("name", FIG_TARGETS)
def test_bench_compiled_kernel(benchmark, cache, name, lanes):
    """Raw cycle throughput; spot lanes equal their scalar replays."""
    target = TARGETS[name]()
    stimuli = _stimulus(target, KERNEL_CYCLES, lanes)
    packed = pack_stimulus(stimuli)
    sim = CompiledSimulator(
        target.netlist, lanes,
        hooks=frozenset(target.fault_sites),
        observe=frozenset(target.observe),
        cache=cache,
    )

    def run_compiled():
        sim.reset()
        for inputs in packed:
            sim.cycle(inputs)

    benchmark(run_compiled)
    compiled_s = benchmark.stats.stats.mean

    # every observed wire of the spot lanes, every cycle, vs scalar
    spots = (0, lanes // 2, lanes - 1)
    scalars = [TwoPhaseSimulator(target.netlist) for _ in spots]
    sim.reset()
    for t, inputs in enumerate(packed):
        sim.cycle(inputs)
        for lane, scalar in zip(spots, scalars):
            values = scalar.cycle(stimuli[lane][t])
            for sig in sorted(target.observe):
                assert sim.lane_value(sig, lane) == values[sig], (
                    t, lane, sig)

    benchmark.extra_info["lanes"] = lanes
    print(f"\n{name}@{lanes}: compiled {compiled_s:.4f}s "
          f"for {KERNEL_CYCLES} cycles")


@pytest.mark.parametrize("lanes", [64, 256])
def test_bench_campaign_compiled(benchmark, cache, lanes):
    """The acceptance gate: warm cache, zero rebuilds while timed, and
    the byte-identical report of the ``lanes=1`` scalar campaign."""
    warm = run_campaign("dual_ehb", CONFIG, lanes=lanes, cache=cache)
    scalar_s = _best(lambda: run_campaign("dual_ehb", CONFIG, lanes=1), 1)
    scalar_report = run_campaign("dual_ehb", CONFIG, lanes=1)

    before = process_stats()
    compiled_report = benchmark(
        run_campaign, "dual_ehb", CONFIG, lanes=lanes, cache=cache,
    )
    after = process_stats()
    compiled_s = benchmark.stats.stats.mean
    speedup = scalar_s / compiled_s

    assert after["misses"] == before["misses"], (
        "the timed campaign rebuilt a module; the cache was not warm"
    )
    assert after["hits"] > before["hits"]
    assert compiled_report.to_json() == scalar_report.to_json()
    assert compiled_report.to_json() == warm.to_json()

    benchmark.extra_info["faults"] = len(compiled_report.outcomes)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    print(f"\ncampaign dual_ehb@{lanes}: scalar {scalar_s:.3f}s, "
          f"compiled {compiled_s:.3f}s, speedup {speedup:.1f}x")


def test_bench_warm_cache_skips_codegen(benchmark, tmp_path):
    """Second build of the same artifact is a pure cache hit."""
    target = TARGETS["dual_ehb"]()
    hooks = frozenset(target.fault_sites)
    observe = frozenset(target.observe)

    t0 = time.perf_counter()
    cold_cache = BuildCache(tmp_path / "cold")
    cold_cache.load_module(target.netlist, hooks, observe)
    cold_s = time.perf_counter() - t0

    warm_cache = BuildCache(tmp_path / "cold")  # same root, empty memory

    def warm_load():
        # a fresh instance per call: disk tier only, no memory hits
        return BuildCache(tmp_path / "cold").load_module(
            target.netlist, hooks, observe
        )

    before = process_stats()
    benchmark(warm_load)
    assert process_stats()["misses"] == before["misses"]
    warm_s = benchmark.stats.stats.mean
    benchmark.extra_info["cold_build_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_vs_cold"] = round(cold_s / warm_s, 1)
    print(f"\nbuild dual_ehb: cold {cold_s*1e3:.1f} ms, "
          f"warm {warm_s*1e3:.1f} ms ({cold_s/warm_s:.0f}x faster)")
    assert warm_s < cold_s
    assert warm_cache.stats()["entries"] == 1


def test_bench_processor_reference(benchmark):
    """Sect. 7 processor campaign: behavioural-only reference timing.

    No gate netlist exists for this pipeline (the case study steps
    behavioural controllers), so there is nothing for the compiled
    engine to elaborate; this row documents the scalar baseline the
    RTL targets are compared against.
    """
    config = ProcessorCampaignConfig(cycles=120)
    report = benchmark(run_processor_campaign, config)
    benchmark.extra_info["faults"] = len(report.outcomes)
    benchmark.extra_info["compiled_backend"] = "n/a (behavioural model)"
    print(f"\nprocessor campaign (reference): "
          f"{len(report.outcomes)} faults, "
          f"{benchmark.stats.stats.mean:.3f}s "
          f"(compiled backend n/a: behavioural model, no netlist)")
