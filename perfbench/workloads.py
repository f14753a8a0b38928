"""The benchmark workloads: inputs from a seed, one operation, its checks.

Each workload drives the program through its public API only.  An
*operation* is one user-level call whose output can be checked:

* ``table1``    -- one Table 1 pass: the five Fig. 9 configurations,
  each built, elaborated, simulated and costed (``run_table1``);
* ``processor`` -- one ``run_processor_campaign`` over the Sect. 7
  elastic processor at one processor seed;
* ``campaign``  -- one ``run_campaign`` sweep over all seven RTL
  controller targets, sharded over up to two processes;
* ``fuzz``      -- one ``run_fuzz`` call (one generated spec) against
  an empty build cache.

The workload seed picks the inputs; the program only ever sees those
inputs.  Seed 0 is the default seed: it maps onto the library defaults
where the library has them, and its outputs are pinned by digests in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 0


@dataclass
class Output:
    """What one operation produced: checked bytes plus work done."""

    data: bytes
    items: int
    sim_cycles: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


class CheckFailed(Exception):
    """An operation finished but its output failed the workload's check."""

    def __init__(self, message: str, output: Output) -> None:
        super().__init__(message)
        self.output = output


class Workload:
    """Base: subclasses set the class attributes and override the hooks."""

    name = ""
    #: modules imported (and timed) as part of set-up
    modules: Tuple[str, ...] = ()
    #: cache state the operations run against ("cold" or "warm")
    cache_state = "cold"
    #: CPU seconds one operation takes on the reference host (2-vCPU
    #: Xeon, Python 3.11); sizes a run to ``--seconds`` of work
    op_seconds = 1.0

    def __init__(self, seed: int, cache_metrics) -> None:
        self.seed = seed
        #: MetricsRegistry on the run's build cache (hits/misses per tier)
        self.cache_metrics = cache_metrics
        #: traced operations get a MetricsRegistry where the API takes one
        self.registry = None

    def setup(self) -> None:
        """Generate the inputs (and warm caches where users run warm)."""

    def input_key(self, index: int) -> str:
        """The input the ``index``-th operation runs."""
        raise NotImplementedError

    def run(self, key: str) -> Output:
        raise NotImplementedError

    def final_checks(
        self, outputs: Dict[str, str]
    ) -> List[Tuple[str, Optional[str]]]:
        """Checks after the measured operations, given the output digest per
        input key: (name, None if it passed else what went wrong)."""
        return []

    def known_defect(self, exc: BaseException) -> Optional[str]:
        """A name for a documented program defect ``exc`` is, else None."""
        return None


def _canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------
class Table1(Workload):
    """The paper's headline result; the behavioural engine dominates."""

    name = "table1"
    modules = ("repro.casestudy.table1",)
    op_seconds = 1.0
    cycles = 1000

    def input_key(self, index: int) -> str:
        return f"seed={self.seed} cycles={self.cycles}"

    def run(self, key: str) -> Output:
        table1 = importlib.import_module("repro.casestudy.table1")
        rows = table1.run_table1(cycles=self.cycles, seed=self.seed)
        doc = [
            {
                "config": row.config.value,
                "throughput": repr(row.throughput),
                "rates": {
                    ch: {k: repr(v) for k, v in rates.items()}
                    for ch, rates in row.channel_rates.items()
                },
                "area": [row.area.literals, row.area.latches,
                         row.area.flops, row.area.gates],
            }
            for row in rows
        ]
        return Output(_canonical(doc), items=len(rows),
                      sim_cycles=len(rows) * self.cycles)


# ----------------------------------------------------------------------
# processor
# ----------------------------------------------------------------------
class Processor(Workload):
    """Many short behavioural runs, each on a freshly built network."""

    name = "processor"
    modules = ("repro.faults.campaign", "repro.casestudy.processor")
    op_seconds = 0.6
    #: processor seeds per workload seed; operations cycle through them
    seeds_per_run = 16

    def setup(self) -> None:
        campaign = importlib.import_module("repro.faults.campaign")
        self.seeds = [
            self.seed * self.seeds_per_run + i
            for i in range(self.seeds_per_run)
        ]
        self.configs = {
            s: campaign.ProcessorCampaignConfig(seed=s) for s in self.seeds
        }

    def input_key(self, index: int) -> str:
        return f"processor_seed={self.seeds[index % len(self.seeds)]}"

    def run(self, key: str) -> Output:
        campaign = importlib.import_module("repro.faults.campaign")
        config = self.configs[int(key.split("=")[1])]
        report = campaign.run_processor_campaign(
            config, metrics=self.registry
        )
        return Output(report.to_json().encode(), items=len(report.outcomes),
                      sim_cycles=len(report.outcomes) * config.cycles)

    def known_defect(self, exc: BaseException) -> Optional[str]:
        """``ElasticBuffer.commit`` popping an empty buffer (see README)."""
        if not isinstance(exc, IndexError):
            return None
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        if tb is None or tb.tb_frame.f_code.co_name != "commit":
            return None
        behavioral = importlib.import_module("repro.elastic.behavioral")
        owner = tb.tb_frame.f_locals.get("self")
        if isinstance(owner, behavioral.ElasticBuffer):
            return "ElasticBuffer.commit: pop from empty list"
        return None


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class Campaign(Workload):
    """Gate-level fault campaign: lane sweep, shard supervisor, prover."""

    name = "campaign"
    modules = ("repro.faults.campaign", "repro.faults.targets",
               "repro.faults.batch")
    cache_state = "warm"
    op_seconds = 3.4
    cycles = 3000
    injection_cycles = (0, 1500)
    kinds = ("stuck0", "stuck1", "flip")
    lanes = 256

    def setup(self) -> None:
        campaign = importlib.import_module("repro.faults.campaign")
        targets = importlib.import_module("repro.faults.targets")
        self.jobs = min(2, os.cpu_count() or 1)
        self.targets = sorted(targets.TARGETS)
        self.config = campaign.CampaignConfig(
            cycles=self.cycles, seed=2007 + self.seed, kinds=self.kinds,
            injection_cycles=self.injection_cycles,
        )
        # Users run campaigns against a warm build cache: fill it with
        # one small sweep per target through the same call path.
        warm = campaign.CampaignConfig(
            cycles=16, seed=self.config.seed, kinds=self.kinds[:1],
            injection_cycles=(0,), untestable_analysis=False,
        )
        for target in self.targets:
            campaign.run_campaign(target, warm, lanes=self.lanes, jobs=1)

    def input_key(self, index: int) -> str:
        return f"campaign_seed={self.config.seed} jobs={self.jobs}"

    def sweep(self, jobs: int) -> Output:
        campaign = importlib.import_module("repro.faults.campaign")
        reports = {}
        injections = 0
        for target in self.targets:
            report = campaign.run_campaign(
                target, self.config, lanes=self.lanes, jobs=jobs,
                metrics=self.registry,
            )
            reports[target] = report.to_json()
            injections += len(report.outcomes)
        return Output(_canonical(reports), items=injections,
                      sim_cycles=injections * self.config.cycles)

    def run(self, key: str) -> Output:
        return self.sweep(self.jobs)

    def final_checks(self, outputs):
        """The report must not depend on the shard count."""
        sharded = outputs.get(self.input_key(0))
        if self.jobs == 1 or sharded is None:
            return []
        single = self.sweep(1).digest
        error = None
        if single != sharded:
            error = (f"report differs between jobs={self.jobs} "
                     f"({sharded[:12]}) and jobs=1 ({single[:12]})")
        return [("campaign jobs=1 sweep", error)]


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------
class Fuzz(Workload):
    """Full-pipeline differential oracle on new specs, cold cache."""

    name = "fuzz"
    modules = ("repro.fuzz", "repro.fuzz.runner", "repro.codegen")
    op_seconds = 0.8
    #: every generated spec has exactly this many blocks
    blocks = 24

    def setup(self) -> None:
        fuzz = importlib.import_module("repro.fuzz")
        generate = importlib.import_module("repro.fuzz.generate")
        self.generator = generate.GeneratorConfig(
            min_blocks=self.blocks, max_blocks=self.blocks
        )
        self.oracle_cycles = fuzz.FuzzConfig().cycles

    def input_key(self, index: int) -> str:
        return f"fuzz_seed={self.seed * 1000 + index}"

    def run(self, key: str) -> Output:
        fuzz = importlib.import_module("repro.fuzz")
        codegen = importlib.import_module("repro.codegen")
        # Each seed's specs are new to the user, so every operation starts
        # from an empty cache; clearing it also frees the previous spec's
        # modules, so memory does not grow with the number of operations.
        cache = codegen.build_cache()
        cache.clear()
        # check_verify=False is the CLI's --no-verify: the bounded CTL
        # stage explores up to 20,000 Kripke states on the rare spec with
        # few free inputs (fuzz seed 16011 takes minutes), longer than
        # one benchmark run may last.  See README.md.
        report = fuzz.run_fuzz(fuzz.FuzzConfig(
            seed=int(key.split("=")[1]), specs=1, generator=self.generator,
            check_verify=False, cache=cache,
        ))
        output = Output(report.to_json().encode(), items=report.examined,
                        sim_cycles=report.examined * self.oracle_cycles)
        if report.findings:
            raise CheckFailed(
                f"fuzz reported {len(report.findings)} finding(s): "
                + "; ".join(e.finding["detail"] for e in report.findings),
                output,
            )
        return output

    def final_checks(self, outputs):
        """A repeated run of the first spec gives the identical report."""
        key = self.input_key(0)
        if key not in outputs:
            return []
        error = None
        if self.run(key).digest != outputs[key]:
            error = "a repeated run gave a different report"
        return [(f"fuzz {key} rerun", error)]


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "table1": Table1,
    "processor": Processor,
    "campaign": Campaign,
    "fuzz": Fuzz,
}


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The benchmark times in CPU seconds, not wall-clock seconds: on a
    virtual machine the wall clock also counts the time the host runs
    other guests, which varies from run to run.  Shard workers are
    joined before ``run_campaign`` returns, so their time is included.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def fresh_import(modules: Tuple[str, ...], src: str) -> float:
    """CPU seconds a new interpreter takes to start and import ``modules``
    from ``src``; it is waited for before this returns."""
    code = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
            "[importlib.import_module(m) for m in sys.argv[2:]]")
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", code, src, *modules],
                   check=True, timeout=120)
    return cpu_seconds() - start
