"""Shared-memory arena: named numpy arrays in one OS-shared block.

The pipeline's per-step traffic lives in a single
:class:`multiprocessing.shared_memory.SharedMemory` block: one
``(n_workers, capacity, ...)`` array per channel, where each rank
touches only its own row's prefix — the pack the protocol needs that
round.  A fresh segment reads as zeros and commits pages only as they
are touched, so capacity costs address space, not memory.  The arena is
created in the parent **before** the workers fork, so the children
inherit the mapping directly — no attach-by-name in the children,
which sidesteps the resource-tracker double-unlink problems of named
attachment, and steady-state steps ship zero pickled arrays.
"""

from __future__ import annotations

import os
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArena"]

_ALIGN = 64  # cache-line align each array within the block


def _release(shm: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Best-effort close, plus unlink in the creating process only.

    Forked workers inherit the arena (and this finalizer); a worker
    exiting must drop its own mapping but never unlink the segment out
    from under the parent.
    """
    try:
        shm.close()
    except BufferError:  # a view still alive somewhere; unlink anyway
        pass
    if os.getpid() != owner_pid:
        return
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedArena:
    """Allocate named arrays inside one shared-memory segment.

    Parameters
    ----------
    specs:
        ``{name: (shape, dtype)}`` for every array.  Layout order
        follows dict order; each array is 64-byte aligned.
    """

    def __init__(self, specs: dict[str, tuple[tuple[int, ...], type]]):
        offsets: dict[str, int] = {}
        cursor = 0
        for name, (shape, dtype) in specs.items():
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(
                dtype
            ).itemsize
            cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
            offsets[name] = cursor
            cursor += nbytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(cursor, 1)
        )
        self.arrays: dict[str, np.ndarray] = {}
        for name, (shape, dtype) in specs.items():
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._shm.buf, offset=offsets[name]
            )
            self.arrays[name] = view
        # Unlink even if close() is never called (leaked arenas would
        # otherwise pin /dev/shm segments for the machine's lifetime).
        self._finalizer = weakref.finalize(
            self, _release, self._shm, os.getpid()
        )

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def close(self) -> None:
        """Drop the views and release the segment (idempotent)."""
        self.arrays.clear()
        if self._finalizer.detach() is not None:
            _release(self._shm, os.getpid())
