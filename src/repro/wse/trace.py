"""Cycle tracing and stability statistics (paper Sec. IV-B type 2, V-B).

The paper's controlled measurements record a hardware cycle counter at
the end of every timestep on every tile, then report two stabilities:
the per-tile standard deviation of timestep time (0.11 %), and the
standard deviation of the *array-averaged* timestep time (91 ppm).
:class:`CycleTrace` reproduces both reductions from per-tile,
per-timestep cycle samples.

A trace is bounded: whole-run reductions (per-step maximum and mean,
a running sum of squares) are kept for every step, the per-tile
planes themselves only for the last :data:`WINDOW_STEPS` steps — three
planes per step would otherwise grow by ~20 MB a step on the paper
grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["CycleTrace", "StabilityReport", "WINDOW_STEPS"]

#: Most recent steps whose per-tile planes a trace retains (cycles as
#: float64, work counts as int32: 16 bytes per tile per step).
WINDOW_STEPS = 8


@dataclass(frozen=True)
class StabilityReport:
    """Timestep-time stability in the paper's two senses.

    Attributes
    ----------
    mean_cycles:
        Mean timestep duration across all tiles and steps.
    per_tile_std:
        Standard deviation of per-tile timestep samples.
    per_tile_rel:
        ``per_tile_std / mean_cycles`` (the paper reports 0.11 %).
    array_avg_std:
        Standard deviation of per-step array-averaged durations.
    array_avg_rel:
        ``array_avg_std / mean_cycles`` (the paper reports 91 ppm).
    """

    mean_cycles: float
    per_tile_std: float
    per_tile_rel: float
    array_avg_std: float
    array_avg_rel: float


class CycleTrace:
    """Accumulates per-tile cycle counts for each timestep."""

    def __init__(self, n_tiles: int) -> None:
        if n_tiles < 1:
            raise ValueError(f"need at least one tile, got {n_tiles}")
        self.n_tiles = n_tiles
        # whole run: one scalar pair per step plus the running sum of
        # squares (the first moment is the mean of the step means)
        self._step_max: list[float] = []
        self._step_mean: list[float] = []
        self._sum_sq = 0.0
        # recent window: the per-tile planes
        self._steps: deque[np.ndarray] = deque(maxlen=WINDOW_STEPS)
        self._candidates: deque[np.ndarray] = deque(maxlen=WINDOW_STEPS)
        self._interactions: deque[np.ndarray] = deque(maxlen=WINDOW_STEPS)

    def record(
        self,
        per_tile_cycles: np.ndarray,
        n_candidates: np.ndarray | None = None,
        n_interactions: np.ndarray | None = None,
    ) -> None:
        """Record one timestep's per-tile cycle counts.

        When the per-tile candidate and interaction counts are supplied
        as well, the trace can later be regressed against the paper's
        linear step model (:meth:`count_samples`); counts must then be
        provided for *every* recorded step.
        """
        arr = self._tile_array(per_tile_cycles, np.float64)
        if (n_candidates is None) != (n_interactions is None):
            raise ValueError(
                "candidate and interaction counts must be given together"
            )
        if n_candidates is None:
            if self._candidates:
                raise ValueError(
                    "this trace records work counts; every step needs them"
                )
        else:
            if self._steps and not self._candidates:
                raise ValueError(
                    "earlier steps were recorded without work counts"
                )
            self._candidates.append(self._tile_array(n_candidates, np.int32))
            self._interactions.append(
                self._tile_array(n_interactions, np.int32)
            )
        self._steps.append(arr)
        self._step_max.append(float(arr.max()))
        self._step_mean.append(float(arr.mean()))
        self._sum_sq += float(np.dot(arr, arr))

    def _tile_array(self, values, dtype) -> np.ndarray:
        arr = np.asarray(values, dtype=dtype).ravel()
        if arr.shape != (self.n_tiles,):
            raise ValueError(
                f"expected {self.n_tiles} tile samples, got {arr.shape}"
            )
        return arr

    @property
    def has_counts(self) -> bool:
        """True when every recorded step carries its work counts."""
        return bool(self._steps) and len(self._candidates) == len(self._steps)

    def count_samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cycles, n_candidates, n_interactions)`` of the retained
        window, each (min(n_steps, WINDOW_STEPS), n_tiles).

        The raw material of the Table II regression: one sample per
        tile per timestep, cycles alongside the work counts that step
        charged the tile for.
        """
        if not self.has_counts:
            raise RuntimeError("no work counts recorded with this trace")
        return (
            np.stack(self._steps),
            np.stack(self._candidates),
            np.stack(self._interactions),
        )

    @property
    def n_steps(self) -> int:
        """Number of recorded timesteps (the whole run)."""
        return len(self._step_max)

    @property
    def nbytes(self) -> int:
        """Bytes held: the retained planes plus two scalars per step."""
        planes = (*self._steps, *self._candidates, *self._interactions)
        return sum(a.nbytes for a in planes) + 16 * self.n_steps

    def as_array(self) -> np.ndarray:
        """Per-tile samples of the retained window, as
        (min(n_steps, WINDOW_STEPS), n_tiles) — the most recent steps."""
        if not self._steps:
            raise RuntimeError("no timesteps recorded")
        return np.stack(self._steps)

    def step_cycles(self, *, reduce: str = "max") -> np.ndarray:
        """Per-step machine timestep duration, for every recorded step.

        Tiles are locally synchronized by each neighborhood exchange, so
        the machine's step time is governed by the slowest tile
        (``reduce="max"``); ``"mean"`` gives the array average used in
        the stability analysis.
        """
        if not self._step_max:
            raise RuntimeError("no timesteps recorded")
        if reduce == "max":
            return np.array(self._step_max)
        if reduce == "mean":
            return np.array(self._step_mean)
        raise ValueError(f"unknown reduce {reduce!r}")

    def total_cycles(self) -> float:
        """Whole-run cycle count (sum of per-step maxima)."""
        return float(self.step_cycles(reduce="max").sum())

    def stability(self) -> StabilityReport:
        """Both of the paper's stability statistics, over the whole run
        (from the running moments and the per-step means)."""
        array_avg = self.step_cycles(reduce="mean")
        mean = float(array_avg.mean())
        mean_sq = self._sum_sq / (self.n_steps * self.n_tiles)
        per_tile_std = max(mean_sq - mean * mean, 0.0) ** 0.5
        array_avg_std = float(array_avg.std())
        return StabilityReport(
            mean_cycles=mean,
            per_tile_std=per_tile_std,
            per_tile_rel=per_tile_std / mean if mean else 0.0,
            array_avg_std=array_avg_std,
            array_avg_rel=array_avg_std / mean if mean else 0.0,
        )
