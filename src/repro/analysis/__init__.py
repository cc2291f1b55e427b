"""Trajectory analysis: displacement tracking, defect classifiers."""

from repro.analysis.displacement import DisplacementTracker
from repro.analysis.centrosymmetry import centrosymmetry
from repro.analysis.cna import common_neighbor_analysis, StructureType

__all__ = [
    "DisplacementTracker",
    "centrosymmetry",
    "common_neighbor_analysis",
    "StructureType",
]
