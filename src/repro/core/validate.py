"""Trajectory equivalence between the WSE machine and the reference engine.

The central correctness claim: the wafer mapping changes *where* each
atom's arithmetic happens, not *what* is computed.
:func:`validate_spec` runs the same initial state through both engines
and compares atom-by-atom (ids make the comparison permutation-proof:
the WSE machine may shuffle storage via atom swaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrajectoryComparison", "validate_spec"]


@dataclass(frozen=True)
class TrajectoryComparison:
    """Max deviations between two trajectories after N steps."""

    n_steps: int
    max_position_error: float
    max_velocity_error: float
    energy_error: float

    def within(self, tol_pos: float, tol_vel: float | None = None) -> bool:
        """True if deviations are inside tolerance."""
        tol_vel = tol_pos if tol_vel is None else tol_vel
        return (
            self.max_position_error <= tol_pos
            and self.max_velocity_error <= tol_vel
        )


def validate_spec(
    spec,
    *,
    n_steps: int | None = None,
    tol_pos: float = 1e-8,
    tol_energy: float = 1e-6,
) -> tuple[TrajectoryComparison, bool]:
    """Run one spec's workload through *both* engines and compare.

    The spec's ``engine`` field is ignored: the same initial state
    (drawn once from the spec's velocity stream) is advanced by the
    reference engine and the lockstep machine through the common
    Engine protocol, so thermostats and every other spec knob apply
    identically on both sides.

    Returns ``(comparison, passed)`` where ``passed`` requires the
    position/velocity deviations within ``tol_pos`` and the potential
    energy deviation within ``tol_energy``.
    """
    from repro.runtime import build_engine, build_state, seed_streams

    n = int(spec.steps if n_steps is None else n_steps)
    state, potential = build_state(
        spec, seed_streams(spec.seed)["velocities"]
    )
    engines = {
        name: build_engine(
            spec.with_engine(name), state=state.copy(), potential=potential
        )
        for name in ("reference", "wse")
    }
    for engine in engines.values():
        engine.step(n)
    a = engines["wse"].state
    b = engines["reference"].state
    order_b = np.argsort(b.ids)
    if not np.array_equal(a.ids, b.ids[order_b]):
        raise ValueError("engines hold different atom id sets")
    dp = np.abs(a.positions - b.positions[order_b]).max() if a.n_atoms else 0.0
    dv = np.abs(a.velocities - b.velocities[order_b]).max() if a.n_atoms else 0.0
    comparison = TrajectoryComparison(
        n_steps=n,
        max_position_error=float(dp),
        max_velocity_error=float(dv),
        energy_error=abs(
            engines["wse"].potential_energy()
            - engines["reference"].potential_energy()
        ),
    )
    passed = comparison.within(tol_pos) and comparison.energy_error <= tol_energy
    return comparison, passed
