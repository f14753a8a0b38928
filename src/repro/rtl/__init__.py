"""Gate/latch/flip-flop netlist kernel.

This package is the substrate replacing the paper's Verilog + SIS + SMV
tool chain at the structural level:

* :mod:`repro.rtl.logic` -- three-valued (0/1/X) logic operations.
* :mod:`repro.rtl.netlist` -- netlists of gates, transparent latches
  (active-high ``H`` or active-low ``L`` phase) and flip-flops.
* :mod:`repro.rtl.simulator` -- two-phase cycle simulation with
  X-propagation: one levelized pass per phase, with ternary fixed
  points only on real combinational cycles.
* :mod:`repro.rtl.planes` -- the two-plane value/known encoding of
  lane-parallel signals (one bit per lane), its packing helpers and
  per-lane override masks.  The lane-parallel engine itself is
  :class:`repro.codegen.sim.CompiledSimulator`.  Import ``planes`` by
  its module path: the package does not load it, so importing the
  scalar reference simulator never pulls in the engine it checks.
* :mod:`repro.rtl.toposort` -- per-phase topological orders and
  combinational-cycle extraction shared by both simulators.
* :mod:`repro.rtl.area` -- constant propagation, dead-logic removal and
  literal/latch/flip-flop counting (the paper's Table 1 area columns).
"""

from repro.rtl.logic import AND, NOT, OR, X, lnot, land, lor, lxor, is_known
from repro.rtl.netlist import Gate, Latch, FlipFlop, Netlist, Phase
from repro.rtl.simulator import TwoPhaseSimulator, CombinationalCycleError
from repro.rtl.toposort import find_combinational_cycle, topo_order
from repro.rtl.area import AreaReport, constant_propagate, count_area, prune_dead
from repro.rtl.export import channel_specs_smv, to_blif, to_smv, to_verilog

__all__ = [
    "AND",
    "NOT",
    "OR",
    "X",
    "lnot",
    "land",
    "lor",
    "lxor",
    "is_known",
    "Gate",
    "Latch",
    "FlipFlop",
    "Netlist",
    "Phase",
    "TwoPhaseSimulator",
    "CombinationalCycleError",
    "find_combinational_cycle",
    "topo_order",
    "AreaReport",
    "constant_propagate",
    "count_area",
    "prune_dead",
    "channel_specs_smv",
    "to_blif",
    "to_smv",
    "to_verilog",
]
