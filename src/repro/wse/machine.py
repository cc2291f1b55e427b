"""Machine configurations (paper Sec. IV-A).

The WSE-2 numbers: ~850,000 cores on a ~920 x 920 mesh, 48 kB SRAM per
tile, 40 GB total, 23 kW, 1.45 PFLOP/s FP32 peak (Table IV).  The clock
follows from the peak: each 64-bit datapath retires two FP32 operations
per cycle, so ``clock = peak / (cores * 2)`` — about 853 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineConfig", "WSE2"]


@dataclass(frozen=True)
class MachineConfig:
    """Static description of a wafer-scale machine.

    Attributes
    ----------
    name:
        Human-readable model name.
    grid_x, grid_y:
        Mesh dimensions in tiles.
    usable_cores:
        Cores available to applications (slightly fewer than the full
        mesh because of spare rows used for defect repair).
    sram_per_tile:
        Bytes of local memory per tile.
    power_watts:
        Whole-system power draw.
    peak_flops_fp32:
        Peak FP32 FLOP/s of the whole wafer.
    fp32_per_cycle:
        FP32 operations per core per cycle (the 64-bit datapath does 2).
    io_bandwidth_bits:
        Off-wafer I/O bandwidth in bits/s (Sec. VI-C: 1.2 Tb/s).
    """

    name: str
    grid_x: int
    grid_y: int
    usable_cores: int
    sram_per_tile: int
    power_watts: float
    peak_flops_fp32: float
    fp32_per_cycle: int = 2
    io_bandwidth_bits: float = 1.2e12

    def __post_init__(self) -> None:
        if self.usable_cores > self.grid_x * self.grid_y:
            raise ValueError(
                f"usable cores {self.usable_cores} exceed mesh "
                f"{self.grid_x}x{self.grid_y}"
            )

    @property
    def clock_hz(self) -> float:
        """Core clock implied by peak FLOP rate."""
        return self.peak_flops_fp32 / (self.usable_cores * self.fp32_per_cycle)

    @property
    def cycle_ns(self) -> float:
        """One clock period in nanoseconds."""
        return 1.0e9 / self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall seconds."""
        return cycles / self.clock_hz


#: The CS-2 system the paper benchmarks (Table IV row "CS-2").
WSE2 = MachineConfig(
    name="WSE-2 (CS-2)",
    grid_x=920,
    grid_y=925,
    usable_cores=850_000,
    sram_per_tile=48 * 1024,
    power_watts=23_000.0,
    peak_flops_fp32=1.45e15,
)
