"""Tabulated Embedded Atom Method potential (paper Sec. II-A).

The potential energy is (Eq. 3)

    U = sum_{i<j} phi_ij(r_ij)  +  sum_i F_i(rho_bar_i),
    rho_bar_i = sum_{j != i} rho_j(r_ij),

with all of ``rho``, ``F`` and ``phi`` stored as spline tables.  Forces
follow Eq. 4: the radial scalar for a pair is

    s_ij = F'(rho_bar_i) rho'_j(r) + F'(rho_bar_j) rho'_i(r) + phi'_ij(r).

:meth:`EAMPotential.compute` takes two paths.  A half pair table (the
reference engine's and the ranks') runs the fused kernel passes,
:meth:`~EAMPotential.fused_density` and
:meth:`~EAMPotential.fused_pair_force`.  A directed table composes three
staged methods — :meth:`~EAMPotential.accumulate_density`,
:meth:`~EAMPotential.embed` and :meth:`~EAMPotential.pair_energy_forces`,
the stages the WSE timestep communicates between — which are the
oracle the fused path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import active_backend
from repro.obs import NULL_TRACER
from repro.potentials.base import PairDistanceCap, PairTable, Potential
from repro.potentials.spline import SplineGroup, UniformCubicSpline

__all__ = ["EAMTables", "GroupedEAMTables", "EAMPotential"]

#: Placeholder type arrays for single-type fused passes: the kernels
#: never read per-pair types when the rho bank has one member.
_EMPTY_TYPES = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class GroupedEAMTables:
    """Batched-evaluation view of an :class:`EAMTables` (see
    :meth:`EAMTables.grouped`).

    ``phi_index[t1, t2]`` maps an ordered type pair to its member slot
    in the ``phi`` group, honoring the unordered ``(t1 <= t2)`` keying
    of the underlying tables.
    """

    rho: SplineGroup
    embed: SplineGroup
    phi: SplineGroup
    phi_index: np.ndarray


@dataclass
class EAMTables:
    """Spline tables for one or more atom types.

    Attributes
    ----------
    rho:
        Electron-density splines, one per atom type.
    embed:
        Embedding-energy splines ``F(rho_bar)``, one per atom type.
    phi:
        Pair-potential splines keyed by unordered type pair (t1 <= t2).
    cutoff:
        Interaction cutoff radius (A); all ``rho``/``phi`` tables vanish
        at and beyond it.
    meta:
        Free-form provenance (element symbols, construction parameters).
    """

    rho: list[UniformCubicSpline]
    embed: list[UniformCubicSpline]
    phi: dict[tuple[int, int], UniformCubicSpline]
    cutoff: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        nt = len(self.rho)
        if len(self.embed) != nt:
            raise ValueError(
                f"{nt} density tables but {len(self.embed)} embedding tables"
            )
        for t1 in range(nt):
            for t2 in range(t1, nt):
                if (t1, t2) not in self.phi:
                    raise ValueError(f"missing phi table for type pair {(t1, t2)}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        # Fused-kernel contract: every spline holds its per-segment cubic
        # coefficients packed row-contiguous, one gather per evaluation.
        for spline in (*self.rho, *self.embed, *self.phi.values()):
            if not spline.coeffs.flags["C_CONTIGUOUS"]:
                spline.coeffs = np.ascontiguousarray(spline.coeffs)

    @property
    def n_types(self) -> int:
        """Number of atom types covered by the tables."""
        return len(self.rho)

    def phi_for(self, t1: int, t2: int) -> UniformCubicSpline:
        """Pair table for an (unordered) type pair."""
        return self.phi[(t1, t2) if t1 <= t2 else (t2, t1)]

    def grouped(self) -> GroupedEAMTables:
        """Fused :class:`~repro.potentials.spline.SplineGroup` banks.

        Built once and cached: the lockstep machine's sweeps evaluate
        every listed pair of a step in one batch per table family
        instead of looping types, with bitwise-identical per-point
        results.
        """
        cached = getattr(self, "_grouped", None)
        if cached is not None:
            return cached
        nt = self.n_types
        phi_keys = sorted(self.phi)
        phi_index = np.empty((nt, nt), dtype=np.int64)
        for slot, (t1, t2) in enumerate(phi_keys):
            phi_index[t1, t2] = slot
            phi_index[t2, t1] = slot
        grouped = GroupedEAMTables(
            rho=SplineGroup(self.rho),
            embed=SplineGroup(self.embed),
            phi=SplineGroup([self.phi[key] for key in phi_keys]),
            phi_index=phi_index,
        )
        self._grouped = grouped
        return grouped

    def sram_bytes(self, dtype_size: int = 4) -> int:
        """Total table footprint a WSE tile would hold (paper Sec. III-A)."""
        total = sum(s.nbytes(dtype_size) for s in self.rho)
        total += sum(s.nbytes(dtype_size) for s in self.embed)
        total += sum(s.nbytes(dtype_size) for s in self.phi.values())
        return total


class EAMPotential(Potential):
    """EAM potential evaluated from :class:`EAMTables`."""

    def __init__(self, tables: EAMTables, cap: PairDistanceCap | None = None) -> None:
        self.tables = tables
        self.cap = cap or PairDistanceCap()
        #: validated types arrays (by identity) — callers pass the same
        #: persistent arrays every step (one per shard), so the range
        #: checks run once per array, not once per kernel call
        self._types_seen: dict[int, np.ndarray] = {}

    @property
    def cutoff(self) -> float:
        return self.tables.cutoff

    # -- stage 1: density accumulation ------------------------------------

    def accumulate_density(
        self, n_atoms: int, pairs: PairTable, types: np.ndarray | None = None
    ) -> np.ndarray:
        """Electron density ``rho_bar_i`` at every atom (Eq. 2)."""
        types = self._types(n_atoms, types)
        self.cap.check(pairs.r)
        rho_bar = np.zeros(n_atoms, dtype=np.float64)
        for tj in range(self.tables.n_types):
            mask = types[pairs.j] == tj
            if not np.any(mask):
                continue
            contrib = self.tables.rho[tj](pairs.r[mask])
            rho_bar += np.bincount(
                pairs.i[mask], weights=contrib, minlength=n_atoms
            )
        if pairs.half:
            # each stored pair also donates the i atom's density to j

            for ti in range(self.tables.n_types):
                mask = types[pairs.i] == ti
                if not np.any(mask):
                    continue
                contrib = self.tables.rho[ti](pairs.r[mask])
                rho_bar += np.bincount(
                    pairs.j[mask], weights=contrib, minlength=n_atoms
                )
        return rho_bar

    # -- stage 2: embedding -------------------------------------------------

    def embed(
        self, rho_bar: np.ndarray, types: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embedding energy ``F_i`` and derivative ``F'_i`` per atom.

        One grouped-bank batch through the active backend: each atom
        evaluates its own type's ``F`` spline, with per-point arithmetic
        identical to the per-type masked loops this replaces.
        """
        n_atoms = len(rho_bar)
        types = self._types(n_atoms, types)
        grouped = self.tables.grouped()
        member = 0 if self.tables.n_types == 1 else types
        return grouped.embed.evaluate(
            np.asarray(rho_bar, dtype=np.float64), member
        )

    # -- stage 3: pair energy and forces -----------------------------------

    def pair_energy_forces(
        self,
        n_atoms: int,
        pairs: PairTable,
        f_der: np.ndarray,
        types: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pair energies (N,) and total forces (N, 3) given ``F'`` per atom.

        For a full (directed) pair list each entry updates only atom
        ``i``; for a half list the opposite contribution is applied to
        ``j`` as well.
        """
        types = self._types(n_atoms, types)
        e_pair = np.zeros(n_atoms, dtype=np.float64)
        forces = np.zeros((n_atoms, 3), dtype=np.float64)
        if pairs.n_pairs == 0:
            return e_pair, forces
        rho_d_i, rho_d_j, phi_v, phi_d = self._pair_splines(pairs, types)

        # Radial scalar of Eq. 4, per directed pair.
        s = f_der[pairs.i] * rho_d_j + f_der[pairs.j] * rho_d_i + phi_d
        with np.errstate(invalid="raise", divide="raise"):
            unit = pairs.rij / pairs.r[:, None]
        fvec = s[:, None] * unit  # force on atom i, along r_j - r_i direction

        for axis in range(3):
            forces[:, axis] += np.bincount(
                pairs.i, weights=fvec[:, axis], minlength=n_atoms
            )
        if pairs.half:
            for axis in range(3):
                forces[:, axis] -= np.bincount(
                    pairs.j, weights=fvec[:, axis], minlength=n_atoms
                )
            e_pair += 0.5 * np.bincount(pairs.i, weights=phi_v, minlength=n_atoms)
            e_pair += 0.5 * np.bincount(pairs.j, weights=phi_v, minlength=n_atoms)
        else:
            e_pair += 0.5 * np.bincount(pairs.i, weights=phi_v, minlength=n_atoms)
        return e_pair, forces

    def _pair_splines(
        self, pairs: PairTable, types: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per pair ``rho'_{type(i)}(r)``, ``rho'_{type(j)}(r)``, ``phi``
        and ``phi'``: one grouped-bank batch per lookup, member arrays
        ``types[i]``, ``types[j]`` and ``phi_index[ti, tj]`` (one table,
        one evaluation shared by both directions).  The spline stage of
        :meth:`pair_energy_forces`.
        """
        grouped = self.tables.grouped()
        if self.tables.n_types == 1:
            _, rho_d = grouped.rho.evaluate(pairs.r, 0)
            return (rho_d, rho_d, *grouped.phi.evaluate(pairs.r, 0))
        ti, tj = types[pairs.i], types[pairs.j]
        _, rho_d_i = grouped.rho.evaluate(pairs.r, ti)
        _, rho_d_j = grouped.rho.evaluate(pairs.r, tj)
        return (rho_d_i, rho_d_j,
                *grouped.phi.evaluate(pairs.r, grouped.phi_index[ti, tj]))

    # -- composed evaluation --------------------------------------------------

    def compute(
        self,
        n_atoms: int,
        pairs: PairTable,
        types: np.ndarray | None = None,
        *,
        tracer=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energies and forces.

        Half pair tables take the fused fast path: per stored pair, one
        spline pass yields rho value *and* derivative, one yields phi
        value and derivative, and every scatter feeds both atoms — four
        table evaluations per undirected pair in the seed become two
        per half pair.  Directed tables compose the three staged
        methods unchanged (the oracle path).

        When a ``tracer`` is given, the stages are emitted as the
        taxonomy's ``density`` / ``embedding`` / ``pair_force`` spans.
        """
        tr = tracer if tracer is not None else NULL_TRACER
        types = self._types(n_atoms, types)
        if pairs.half:
            return self._compute_half_fused(n_atoms, pairs, types, tr)
        with tr.phase("density", pairs=pairs.n_pairs):
            rho_bar = self.accumulate_density(n_atoms, pairs, types)
        with tr.phase("embedding"):
            f_val, f_der = self.embed(rho_bar, types)
        with tr.phase("pair_force"):
            e_pair, forces = self.pair_energy_forces(
                n_atoms, pairs, f_der, types
            )
        return e_pair + f_val, forces

    def bank_tables(
        self, n_atoms: int, types: np.ndarray | None = None
    ) -> tuple[tuple, np.ndarray]:
        """``((rho, embed, phi) banks, phi_index)`` for the registry's
        ``md_step``, once ``types`` passed :meth:`embed`'s check."""
        self._types(n_atoms, types)
        grouped = self.tables.grouped()
        return ((grouped.rho.bank(), grouped.embed.bank(), grouped.phi.bank()),
                grouped.phi_index)

    # -- fused half-pair stages --------------------------------------------
    #
    # The fused path is split into two standalone stages so the
    # domain-sharded pipeline (:mod:`repro.parallel`) can run each stage
    # per shard with a global reduction between them (rho_bar must be
    # complete before the embedding derivative feeds the force stage).
    # The serial fast path composes the same two stages, so parallel and
    # serial runs share one numeric implementation and differ only in
    # summation order.

    def fused_density(
        self, n_atoms: int, pairs: PairTable, types: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict]:
        """Stage 1 of the fused half-pair path: partial ``rho_bar``.

        Returns the density contribution of *these* pairs (a full
        ``(n_atoms,)`` array — zero where no pair touches an atom) and a
        cache of per-pair density derivatives for
        :meth:`fused_pair_force`.

        The whole stage is one ``fused_density_pass`` kernel call:
        spline lookups and both scatter halves run inside the active
        backend (a single compiled loop on the native tier).  Single-type
        tables evaluate the rho spline once per pair and share the
        value between directions, so the per-pair type gathers are
        skipped too.
        """
        types = self._types(n_atoms, types)
        self.cap.check(pairs.r)
        backend = active_backend()
        p = pairs.n_pairs
        if p == 0:
            return np.zeros(n_atoms, dtype=np.float64), {}
        i, j = pairs.i, pairs.j
        if self.tables.n_types == 1:
            ti = tj = _EMPTY_TYPES  # ignored by single-member banks
        else:
            ti = types[i]
            tj = types[j]
        rho_bar, rho_ji_d, rho_ij_d = backend.fused_density_pass(
            i, j, pairs.r, ti, tj,
            self.tables.grouped().rho.bank(), n_atoms,
        )
        return rho_bar, {"rho_ji_d": rho_ji_d, "rho_ij_d": rho_ij_d}

    def fused_pair_force(
        self,
        n_atoms: int,
        pairs: PairTable,
        f_der: np.ndarray,
        types: np.ndarray | None = None,
        *,
        cache: dict,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage 2 of the fused half-pair path: pair energies and forces.

        ``f_der`` is the *globally reduced* embedding derivative
        ``F'(rho_bar)`` per atom; ``cache`` comes from
        :meth:`fused_density` over the same pair table.

        The stage is one ``fused_force_pass`` kernel call: the phi
        spline lookup, the Eq. 4 radial scalar, the unit-vector
        projection and all four scatter halves run inside the active
        backend (a single compiled loop on the native tier).
        """
        types = self._types(n_atoms, types)
        p = pairs.n_pairs
        if p == 0:
            return (
                np.zeros(n_atoms, dtype=np.float64),
                np.zeros((n_atoms, 3), dtype=np.float64),
            )
        backend = active_backend()
        grouped = self.tables.grouped()
        i, j = pairs.i, pairs.j
        if self.tables.n_types == 1:
            member = 0
        else:
            member = grouped.phi_index[types[i], types[j]]
        e_pair, forces = backend.fused_force_pass(
            i, j, pairs.rij, pairs.r, f_der,
            cache["rho_ji_d"], cache["rho_ij_d"],
            grouped.phi.bank(), member, n_atoms,
        )
        return e_pair, forces

    def _compute_half_fused(
        self,
        n_atoms: int,
        pairs: PairTable,
        types: np.ndarray,
        tr=NULL_TRACER,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused EAM evaluation over a half pair list."""
        with tr.phase("density", pairs=pairs.n_pairs):
            rho_bar, cache = self.fused_density(n_atoms, pairs, types)
        with tr.phase("embedding"):
            f_val, f_der = self.embed(rho_bar, types)
        with tr.phase("pair_force"):
            e_pair, forces = self.fused_pair_force(
                n_atoms, pairs, f_der, types, cache=cache
            )
        return e_pair + f_val, forces

    def _types(self, n_atoms: int, types: np.ndarray | None) -> np.ndarray:
        if types is None:
            return np.zeros(n_atoms, dtype=np.int64)
        types = np.asarray(types)
        if (
            self._types_seen.get(id(types)) is types
            and len(types) == n_atoms
        ):
            return types
        if len(types) != n_atoms:
            raise ValueError(f"types length {len(types)} != n_atoms {n_atoms}")
        if np.any(types < 0) or np.any(types >= self.tables.n_types):
            raise ValueError(
                f"type out of range [0, {self.tables.n_types}): "
                f"{np.unique(types)}"
            )
        if len(self._types_seen) > 16:
            self._types_seen.clear()
        self._types_seen[id(types)] = types
        return types
