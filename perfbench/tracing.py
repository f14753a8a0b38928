"""In-memory span tracing of the repro layers, installed from outside ``src/``.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces public functions and methods of the layer modules with
wrappers for the duration of one traced operation and restores the
originals afterwards, so untraced operations run the unmodified code.

Every wrapped call is a span: name, start, end and the span that
caused it.  Calls made millions of times per run (controller
``evaluate``, ``lane_value``, per-cycle engine steps) are aggregated
by name -- call count, inclusive time, self time -- instead of being
stored one by one; every other span is kept in memory and written out
when the benchmark ends.  Self time is a span's duration minus the
time covered by the wrapped calls it made.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, hot).  A hot span is aggregated,
#: not stored.  Functions a module imported by name are patched where
#: they are looked up, so one span name can have several sites.
#: Targets a later version of the program no longer has are skipped.
SITES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.elastic.behavioral", "ElasticNetwork.step", "elastic.step", True),
    ("repro.casestudy.fig9", "build_fig9_spec", "casestudy.build_fig9_spec", False),
    ("repro.casestudy.table1", "build_fig9_spec", "casestudy.build_fig9_spec", False),
    ("repro.casestudy.processor", "build_processor", "casestudy.build_processor", False),
    ("repro.faults.campaign", "build_processor", "casestudy.build_processor", False),
    ("repro.synthesis.elaborate", "to_behavioral", "synthesis.to_behavioral", False),
    ("repro.casestudy.table1", "to_behavioral", "synthesis.to_behavioral", False),
    ("repro.synthesis.elaborate", "control_layer_area", "synthesis.control_layer_area", False),
    ("repro.casestudy.table1", "control_layer_area", "synthesis.control_layer_area", False),
    ("repro.synthesis.elaborate", "to_gates", "synthesis.to_gates", False),
    ("repro.rtl.simulator", "TwoPhaseSimulator.cycle", "rtl.simulator.cycle", True),
    ("repro.rtl.simulator", "TwoPhaseSimulator.step_function", "rtl.simulator.step_function", True),
    ("repro.rtl.batchsim", "BatchSimulator.__init__", "rtl.batchsim.build", False),
    ("repro.rtl.batchsim", "BatchSimulator.cycle", "rtl.batchsim.cycle", True),
    ("repro.rtl.batchsim", "BatchSimulator.lane_value", "compare.lane_value", True),
    ("repro.codegen.sim", "CompiledSimulator.__init__", "codegen.build", False),
    ("repro.codegen.sim", "CompiledSimulator.cycle", "codegen.cycle", True),
    ("repro.codegen.sim", "CompiledSimulator.lane_value", "compare.lane_value", True),
    ("repro.faults.campaign", "run_campaign", "faults.run_campaign", False),
    ("repro.faults.campaign", "run_processor_campaign", "faults.run_processor_campaign", False),
    ("repro.faults.campaign", "prove_untestable", "faults.prove_untestable", False),
    ("repro.resilience.supervisor", "ShardSupervisor.run", "resilience.supervisor_run", False),
    ("repro.fuzz.runner", "generate_model", "fuzz.generate", False),
    ("repro.fuzz.runner", "run_oracle", "fuzz.oracle", False),
    ("repro.verif.properties", "verify_netlist", "verif.verify_netlist", False),
    ("repro.verif.properties", "build_kripke", "verif.build_kripke", False),
    ("repro.lint.elastic_rules", "lint_spec", "lint.spec", False),
    ("repro.lint.elastic_rules", "lint_network", "lint.network", False),
    ("repro.lint.netlist_rules", "lint_netlist", "lint.netlist", False),
)

#: Inside these spans a ``step_function`` call is the cycle's own work,
#: not a separate use of the pure step function (prover, Kripke).
_STEP_FUNCTION_OWNERS = frozenset({"rtl.simulator.cycle"})


class Tracer:
    """Spans and counts of the wrapped layer calls, kept in memory."""

    def __init__(self) -> None:
        #: stored spans: (id, parent id or -1, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: per span name: [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: plain event counts recorded at the same boundaries
        self.counts: Counter = Counter()
        # open frames: [name, child seconds, stored span id or -1]
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        stack = self._stack
        totals = self.totals
        spans = self.spans
        on_result = _RESULT_HOOKS.get(name)
        counts = self.counts
        skip_under = (
            _STEP_FUNCTION_OWNERS if name == "rtl.simulator.step_function"
            else frozenset()
        )

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in skip_under:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            span_id = -1
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id if not hot else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if not hot:
                    spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrap(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / remove ------------------------------------------------
    def install(self) -> None:
        """Wrap every site that exists in the imported program."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, hot in SITES:
            owner, attr = _resolve(module_name, path)
            if owner is not None:
                self._patch(owner, attr, lambda fn: self._wrap(fn, name, hot))
        for cls in _controller_classes():
            if "evaluate" in cls.__dict__:
                self._patch(cls, "evaluate", lambda fn: self._count_wrap(
                    fn, "elastic.evaluate"
                ))

    def _patch(self, owner: object, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations of the stored spans called ``name``, in call order."""
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": int(calls), "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self.totals.items())
        }

    def write(self, path: str) -> None:
        """All stored spans as gzipped JSON lines, then the aggregates."""
        with gzip.open(path, "wt") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
            handle.write(json.dumps({
                "aggregates": self.summary(), "counts": dict(self.counts),
            }, sort_keys=True) + "\n")


def _count_untestable(counts: Counter, proved: object) -> None:
    if proved:
        counts["faults.untestable_proved"] += 1


def _count_kripke_states(counts: Counter, structure: object) -> None:
    counts["verif.kripke_states"] += len(structure)


_RESULT_HOOKS: Dict[str, Callable[[Counter, object], None]] = {
    "faults.prove_untestable": _count_untestable,
    "verif.build_kripke": _count_kripke_states,
}


def _resolve(module_name: str, path: str) -> Tuple[Optional[object], str]:
    """(owner, attribute) of ``module:path``, or (None, '') if absent."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None, ""
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None, ""
    elif not hasattr(owner, attr):
        return None, ""
    return owner, attr


def _controller_classes() -> List[type]:
    """Every loaded subclass of the behavioural ``Controller``."""
    try:
        from repro.elastic.behavioral import Controller
    except ImportError:
        return []
    found: List[type] = []
    pending = [Controller]
    while pending:
        cls = pending.pop()
        if cls not in found:  # a class with two Controller bases
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found
