"""Offset-parallel dispatch for the lockstep machine's streaming sweeps.

The lockstep streaming sweeps (:mod:`repro.core.streaming`) reduce one
chunk of neighborhood offsets at a time into running accumulators.
Because each offset's contribution is independent until the final
accumulation, the offset list can be split into contiguous per-worker
slices (exchange order preserved within each slice) and swept by forked
workers concurrently: every worker owns its own zeroed accumulator slot
in a :class:`~repro.parallel.shm.SharedArena`, and the parent reduces
the slots **in fixed worker order** afterwards.

Reproducibility contract (same as the shard pipeline's):

* trajectories are bitwise-reproducible for a given worker count, and
* ``workers=1`` hands the whole offset list, in order, to one worker
  whose slot starts at exactly zero — its accumulation sequence is the
  serial sweep's, and the parent's ``acc += slot`` onto a zero grid is
  an identity, so one worker matches the serial path bitwise.

Inputs are copied into the arena before each command — positions,
occupancy and types for ``density``, only ``F'`` for ``force`` — and
outputs come back through the per-worker slots, so a step ships zero
pickled arrays.  Each worker keeps the survivor records of its own
offset slice between the ``density`` and ``force`` commands of one step
(:class:`~repro.core.streaming.SurvivorRecord`) and its slice of the
index-only Verlet list across steps; every worker judges that list
against the same shared positions and occupancy, so all of them build
on the same steps.  A ``force`` with no fresh ``density`` before it
comes back as an error reply.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedArena

__all__ = ["WseOffsetPool", "split_offsets"]


def split_offsets(
    offsets: list[tuple[int, int]], n_workers: int
) -> list[list[tuple[int, int]]]:
    """Contiguous per-worker slices of the offset list, order preserved.

    The first ``len(offsets) % n_workers`` workers take one extra
    offset (``np.array_split`` semantics) — deterministic, so a given
    (offset list, worker count) always yields the same partition.
    """
    if n_workers < 1:
        raise ValueError(f"need at least 1 worker, got {n_workers}")
    n = len(offsets)
    base, rem = divmod(n, n_workers)
    parts: list[list[tuple[int, int]]] = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < rem else 0)
        parts.append(offsets[start:start + size])
        start += size
    return parts


def _offset_worker_main(conn, wid: int, shared: dict, cfg: dict) -> None:
    """Worker loop: serve density/force sweep commands until stop.

    ``shared`` holds numpy views over the fork-inherited arena; ``cfg``
    carries the static sweep geometry plus this worker's offset slice.
    The worker builds its own :class:`~repro.core.streaming.
    StreamingSweeps` over that slice — chunk buffers, survivor records
    and the retained list are per-process, so peak memory per worker is
    O(chunk x grid) plus its slice's interactions.
    """
    from repro.core.streaming import StreamingSweeps
    from repro.kernels import set_backend

    # Workers always run the serial numpy kernels (same rule as the
    # shard pipeline): nested pools are never spawned.
    set_backend("numpy")
    pos = shared["pos"]
    occ = shared["occ"]
    typ = shared["typ"]
    f_der = shared["f_der"]
    rho_slot = shared["rho"][wid]
    cand_slot = shared["n_cand"][wid]
    int_slot = shared["n_int"][wid]
    force_slot = shared["force"][wid]
    epair_slot = shared["e_pair"][wid]
    sweeps = StreamingSweeps(
        nx=cfg["nx"],
        ny=cfg["ny"],
        dtype=cfg["dtype"],
        lengths=cfg["lengths"],
        periodic=cfg["periodic"],
        cutoff=cfg["cutoff"],
        skin=cfg["skin"],
        tables=cfg["tables"],
        offsets=cfg["offset_slices"][wid],
        chunk=cfg["chunk"],
        force_symmetry=cfg["force_symmetry"],
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg[0]
        if cmd == "stop":
            break
        try:
            if cmd == "density":
                rho_slot[...] = 0.0
                cand_slot[...] = 0
                int_slot[...] = 0
                t_ex, t_nb, n_pts, reused = sweeps.density(
                    pos, occ, typ, rho_slot, cand_slot, int_slot
                )
                conn.send(("ok", t_ex, t_nb, n_pts, reused))
            elif cmd == "force":
                force_slot[...] = 0.0
                # msg[1]: the parent wants the pair energy too
                e_slot = epair_slot if msg[1] else None
                if e_slot is not None:
                    e_slot[...] = 0.0
                t_ex, n_pts = sweeps.force(f_der, force_slot, e_slot)
                conn.send(("ok", t_ex, n_pts))
            elif cmd == "record_bytes":
                conn.send(
                    ("ok", sweeps.record_bytes(), sweeps.list_bytes())
                )
            else:
                conn.send(("error", "ValueError", f"unknown command {cmd!r}"))
        except Exception as exc:  # report, keep serving
            conn.send(("error", type(exc).__name__, str(exc)))
    conn.close()


class WseOffsetPool:
    """Fork a worker per offset slice and reduce their sweep outputs.

    Exposes the same ``density`` / ``force`` / ``record_bytes`` /
    ``list_bytes`` protocol as
    :class:`~repro.core.streaming.StreamingSweeps`, so the lockstep
    machine swaps one for the other without branching in the passes.

    Parameters mirror ``StreamingSweeps`` plus ``n_workers``; the
    offset list is split by :func:`split_offsets`.  Timing returned per
    sweep is the **max** over workers (they run concurrently, so the
    slowest slice is the lockstep machine's wall time for the phase).
    """

    def __init__(
        self,
        *,
        n_workers: int,
        nx: int,
        ny: int,
        dtype,
        lengths,
        periodic,
        cutoff: float,
        skin: float,
        tables,
        offsets: list[tuple[int, int]],
        chunk: int = 0,
        force_symmetry: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least 1 worker, got {n_workers}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.dtype = np.dtype(dtype)
        w = int(n_workers)
        self._arena = SharedArena(
            {
                "pos": ((nx, ny, 3), self.dtype),
                "occ": ((nx, ny), np.bool_),
                "typ": ((nx, ny), np.int64),
                "f_der": ((nx, ny), np.float64),
                "rho": ((w, nx, ny), np.float64),
                "n_cand": ((w, nx, ny), np.int64),
                "n_int": ((w, nx, ny), np.int64),
                "force": ((w, nx, ny, 3), np.float64),
                "e_pair": ((w, nx, ny), np.float64),
            }
        )
        shared = {name: self._arena[name] for name in self._arena.arrays}
        cfg = {
            "nx": self.nx,
            "ny": self.ny,
            "dtype": self.dtype,
            "lengths": tuple(float(v) for v in lengths),
            "periodic": tuple(bool(v) for v in periodic),
            "cutoff": float(cutoff),
            "skin": float(skin),
            "tables": tables,
            "offset_slices": split_offsets(list(offsets), w),
            "chunk": int(chunk),
            "force_symmetry": bool(force_symmetry),
        }
        self._pool = WorkerPool(
            w, shared, cfg, main=_offset_worker_main, name="repro-wse-offsets"
        )

    @property
    def n_workers(self) -> int:
        return self._pool.n_workers

    @property
    def arena_bytes(self) -> int:
        """Bytes held by the shared input/output arena."""
        return self._arena.nbytes

    def density(self, pos, occ, typ, rho_bar, n_cand, n_int):
        """Sweep every worker's slice, reduce slots in worker order."""
        self._arena["pos"][...] = pos
        self._arena["occ"][...] = occ
        self._arena["typ"][...] = typ
        replies = self._pool.command(("density",))
        rho = self._arena["rho"]
        cand = self._arena["n_cand"]
        cnt = self._arena["n_int"]
        # fixed-order reduction: the accumulation sequence depends only
        # on the worker count, never on completion order
        for w in range(self.n_workers):
            rho_bar += rho[w]
            n_cand += cand[w]
            n_int += cnt[w]
        t_ex = max(r[0] for r in replies)
        t_nb = max(r[1] for r in replies)
        n_pts = sum(r[2] for r in replies)
        # every rank judged the same shared planes: one answer
        return t_ex, t_nb, n_pts, replies[0][3]

    def force(self, f_der, force, e_pair=None):
        """Ship F', let every worker consume its records, reduce slots
        in worker order (``e_pair`` only when the caller passes one)."""
        self._arena["f_der"][...] = f_der
        replies = self._pool.command(("force", e_pair is not None))
        fslots = self._arena["force"]
        eslots = self._arena["e_pair"]
        for w in range(self.n_workers):
            force += fslots[w]
            if e_pair is not None:
                e_pair += eslots[w]
        t_ex = max(r[0] for r in replies)
        n_pts = sum(r[1] for r in replies)
        return t_ex, n_pts

    def record_bytes(self) -> int:
        """Survivor-record bytes held worker-side (0 outside a step)."""
        return sum(r[0] for r in self._pool.command(("record_bytes",)))

    def list_bytes(self) -> int:
        """Bytes of the retained index lists and build-time planes,
        summed over the workers (the ``record_bytes`` command reports
        both)."""
        return sum(r[1] for r in self._pool.command(("record_bytes",)))

    def close(self) -> None:
        """Stop the workers and release the arena (idempotent)."""
        self._pool.close()
        self._arena.close()
