"""The paper's contribution: EAM MD mapped one-atom-per-core onto a WSE.

Composition (paper Sec. III):

* :mod:`repro.core.mapping` — locality-preserving atom-to-core mapping
  ``g`` with assignment cost ``C(g)`` (Sec. III-A).
* :mod:`repro.core.folding` — periodic-dimension folding so periodic
  neighbors stay two fabric hops apart (Sec. III-E, Fig. 5).
* :mod:`repro.core.neighborhood` — the neighborhood half-width ``b``
  from the widest interacting pair.
* :mod:`repro.core.exchange` — the functional neighborhood exchange as
  grid shifts (validated against the event-level fabric sim); the swap
  engine's shifts and the tests' oracle.  The lockstep machine's own
  exchange is the list build inside the ``wafer_step`` kernel.
* :mod:`repro.core.swap` — the greedy mutual atom-swap remapping
  (Sec. III-D).
* :mod:`repro.core.cycle_model` — per-tile cycle accounting with the
  paper's optimization levels (Tables II & V, Fig. 10).
* :mod:`repro.core.wse_md` — :class:`WseMd`, the lockstep full-machine
  simulator: every tile's worker executed simultaneously via NumPy,
  cycle-accounted per tile.
"""

from repro.core.mapping import Mapping, build_mapping, grid_for_atoms
from repro.core.folding import fold_coordinate, FabricProjection
from repro.core.neighborhood import choose_b
from repro.core.swap import SwapEngine
from repro.core.cycle_model import (
    CycleCostModel,
    OptimizationConfig,
    BASELINE,
    TABLE5_LEVELS,
    FIG10_STAGES,
)
from repro.core.optimize import optimize_mapping, OptimizeResult
from repro.core.wse_md import WseMd

__all__ = [
    "Mapping",
    "build_mapping",
    "grid_for_atoms",
    "fold_coordinate",
    "FabricProjection",
    "choose_b",
    "SwapEngine",
    "CycleCostModel",
    "OptimizationConfig",
    "BASELINE",
    "TABLE5_LEVELS",
    "FIG10_STAGES",
    "optimize_mapping",
    "OptimizeResult",
    "WseMd",
]
