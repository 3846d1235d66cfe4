"""Logic-synthesis substrate: cube algebra, two-level minimization,
Boolean networks, and K-LUT technology mapping.

This package stands in for the SIS + Synplify synthesis flow used by the
paper: it turns the combinational portion of an FSM (next-state and output
functions expressed as sums of ternary cubes) into a netlist of K-input
LUTs whose count, depth and fanout drive the area/power/timing models.
"""

from repro.logic.cube import Cube, Cover
from repro.logic.minimize import complement, espresso, is_tautology
from repro.logic.network import LogicNetwork, Node, NodeKind, sop_to_network
from repro.logic.truthtable import TruthTable
from repro.logic.lutmap import LutMapping, MappedLut, map_network

__all__ = [
    "Cube",
    "Cover",
    "complement",
    "espresso",
    "is_tautology",
    "LogicNetwork",
    "Node",
    "NodeKind",
    "sop_to_network",
    "TruthTable",
    "LutMapping",
    "MappedLut",
    "map_network",
]
