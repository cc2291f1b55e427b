"""Wafer-Scale Engine substrate simulator.

Two fidelity levels (DESIGN.md):

* **Event/cycle level** — :mod:`repro.wse.fabric` simulates routers,
  per-virtual-channel links and the marching-multicast state machine
  (paper Fig. 3/4) wavelet by wavelet.  Used at small scale to validate
  the communication schedule: exactly-once delivery, zero link
  contention, and the analytic cycle count.
* **Analytic schedule level** — :mod:`repro.wse.multicast` computes the
  cycle cost of a neighborhood exchange in closed form, calibrated
  against the event simulator.  The lockstep machine
  (:mod:`repro.core.wse_md`) uses this for full-scale cycle accounting.
"""

from repro.wse.machine import WSE2, MachineConfig
from repro.wse.geometry import TileGrid
from repro.wse.wavelet import Wavelet, WaveletKind, RouterCommand
from repro.wse.router import MarchingRouter, RouterState
from repro.wse.multicast import MarchingMulticastSchedule, exchange_cycle_model
from repro.wse.fabric import ChainFabric, MulticastChainSim
from repro.wse.tile import TileCoreModel, SramBudget
from repro.wse.trace import CycleTrace

__all__ = [
    "WSE2",
    "MachineConfig",
    "TileGrid",
    "Wavelet",
    "WaveletKind",
    "RouterCommand",
    "MarchingRouter",
    "RouterState",
    "MarchingMulticastSchedule",
    "exchange_cycle_model",
    "ChainFabric",
    "MulticastChainSim",
    "TileCoreModel",
    "SramBudget",
    "CycleTrace",
]
