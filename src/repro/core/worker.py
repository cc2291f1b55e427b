"""Scalar per-tile worker: the five-step program one core runs.

This is the readable, single-atom reference for what every tile of the
lockstep machine does in vectorized form — the analogue of the paper's
~200-line Tungsten program (Sec. IV-B).  It exists for validation: a
:class:`Worker` fed the candidate stream for one atom must reproduce the
reference engine's force and energy for that atom exactly, and tests do
exactly that.  It also provides the per-step work counters the cycle
model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MVV2E
from repro.potentials.eam import EAMTables

__all__ = ["Worker", "Candidate"]


@dataclass(frozen=True)
class Candidate:
    """One received candidate atom record (id + position, 16 bytes)."""

    atom_id: int
    position: np.ndarray
    type_index: int = 0


@dataclass
class Worker:
    """State and program of one worker core.

    Attributes
    ----------
    atom_id, position, velocity, type_index:
        The single atom this core integrates.
    tables:
        Local copies of the interpolation tables (Sec. III-A).
    mass:
        Atom mass (g/mol).
    """

    atom_id: int
    position: np.ndarray
    velocity: np.ndarray
    tables: EAMTables
    mass: float
    type_index: int = 0
    # step-local storage, mirroring tile SRAM buffers
    neighbor_list: list[int] = field(default_factory=list)
    gathered: np.ndarray | None = None
    gathered_types: np.ndarray | None = None
    rho_bar: float = 0.0
    f_der: float = 0.0
    n_candidates: int = 0

    def receive_candidates(self, candidates: list[Candidate]) -> None:
        """Step 2: distance-filter candidates, gather survivors.

        Candidates arrive in deterministic exchange order, so the
        neighbor list is simply the ordinal numbers of admitted ones;
        survivors are gathered into contiguous memory immediately
        (Sec. III-C).
        """
        self.n_candidates = len(candidates)
        rc2 = self.tables.cutoff**2
        self.neighbor_list = []
        rows = []
        types = []
        for ordinal, cand in enumerate(candidates):
            d = np.asarray(cand.position, dtype=np.float64) - self.position
            if float(d @ d) < rc2:
                self.neighbor_list.append(ordinal)
                rows.append(np.asarray(cand.position, dtype=np.float64))
                types.append(cand.type_index)
        self.gathered = (
            np.stack(rows) if rows else np.empty((0, 3))
        )
        self.gathered_types = np.asarray(types, dtype=np.int64)

    @property
    def n_interactions(self) -> int:
        """Accepted candidates (within cutoff)."""
        return len(self.neighbor_list)

    def compute_embedding(self) -> float:
        """Step 3: density sum and embedding derivative; returns F'."""
        if self.gathered is None:
            raise RuntimeError("compute_embedding before receive_candidates")
        if len(self.gathered):
            r = np.linalg.norm(self.gathered - self.position, axis=1)
            rho = 0.0
            for t in range(self.tables.n_types):
                m = self.gathered_types == t
                if np.any(m):
                    rho += float(np.sum(self.tables.rho[t](r[m])))
        else:
            rho = 0.0
        self.rho_bar = rho
        _, self.f_der = self.tables.embed[self.type_index].evaluate(rho)
        self.f_der = float(self.f_der)
        return self.f_der

    def compute_force(self, neighbor_f_der: np.ndarray) -> np.ndarray:
        """Step 4a: Eq. 4 force from gathered neighbors and their F'."""
        if self.gathered is None:
            raise RuntimeError("compute_force before receive_candidates")
        neighbor_f_der = np.asarray(neighbor_f_der, dtype=np.float64)
        if neighbor_f_der.shape != (self.n_interactions,):
            raise ValueError(
                f"need one F' per neighbor ({self.n_interactions}), got "
                f"{neighbor_f_der.shape}"
            )
        if not self.n_interactions:
            return np.zeros(3)
        d = self.gathered - self.position  # r_j - r_i
        r = np.linalg.norm(d, axis=1)
        rho_d_src = np.empty_like(r)
        rho_d_ctr = np.empty_like(r)
        phi_d = np.empty_like(r)
        for t in range(self.tables.n_types):
            m = self.gathered_types == t
            if np.any(m):
                rho_d_src[m] = self.tables.rho[t].evaluate(r[m])[1]
        rho_d_ctr[:] = self.tables.rho[self.type_index].evaluate(r)[1]
        for t in range(self.tables.n_types):
            m = self.gathered_types == t
            if np.any(m):
                phi_d[m] = self.tables.phi_for(self.type_index, t).evaluate(
                    r[m]
                )[1]
        s = self.f_der * rho_d_src + neighbor_f_der * rho_d_ctr + phi_d
        return (s[:, None] * d / r[:, None]).sum(axis=0)

    def pair_energy(self) -> float:
        """Half-sum of phi over neighbors (this atom's share)."""
        if not self.n_interactions:
            return 0.0
        r = np.linalg.norm(self.gathered - self.position, axis=1)
        e = 0.0
        for t in range(self.tables.n_types):
            m = self.gathered_types == t
            if np.any(m):
                e += float(
                    np.sum(self.tables.phi_for(self.type_index, t)(r[m]))
                )
        return 0.5 * e

    def integrate(self, force: np.ndarray, dt_fs: float) -> None:
        """Step 4b: leap-frog velocity and position update."""
        dt = dt_fs / 1000.0
        accel = np.asarray(force, dtype=np.float64) / (self.mass * MVV2E)
        self.velocity = self.velocity + accel * dt
        self.position = self.position + self.velocity * dt
