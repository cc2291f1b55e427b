"""The native tier: ``native.c`` through the system C compiler and ctypes.

Every registry kernel as a C loop in which a pair (or a tile) enters, is
measured, looked up, turned into a contribution and accumulated without
any intermediate leaving the loop (the FPGA force pipelines of
PAPERS.md) — with outputs **bitwise** those of the numpy body of the
same name (``native.c``'s header lists the four places that is easy to
lose).  With all ten kernels native, a lockstep wafer step runs in C
from the list test to the cycle counter, and Python only sequences it.
The list build and both sweeps run on one thread per usable CPU, each
thread adding only into the tiles of the owner block it holds, so the
bits do not depend on the thread count (``native.c``, "owner blocks");
the count is derived (:func:`_sweep_threads`), never configured.
The numpy tier stays the definition; this one may only be faster.

:func:`load`, called by the registry the first time the tier is asked
for, compiles ``native.c`` once per (source, flags, compiler) into the
user cache directory, loads it, and runs every kernel against its numpy
body on a few thousand fixed pairs and a small holed wafer, bit for
bit.  No compiler, a failed
compile, an unwritable cache or a probe mismatch raise
:class:`ImportError` with the reason — the registry's one-warning
fall-back to numpy, never a different trajectory.

Per call, a kernel *declines* to its numpy body what ``native.c`` does
not read (a float32 wafer, index arrays other than the int64 pair lists
and int32 wafer lists the engines build, non-contiguous views, an empty
scatter) and what the C loop itself declines: an index or atom type
outside ``[0, n)`` or geometry numpy raises on.  Wrapped negatives,
``IndexError`` and ``FloatingPointError`` so come out of the same numpy
code as ever.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.constants import MVV2E
from repro.kernels import KERNEL_FUNCTIONS, numpy_backend, usable_cpus

name = "native"

SOURCE = Path(__file__).with_name("native.c")
#: No fast-math and no FMA contraction: bitwise is the contract.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-pthread", "-shared",
         "-fPIC")
COMPILERS = ("cc", "gcc", "clang")

#: Listed rows (for the list build: candidate tiles) each sweep thread
#: must have.  A thread costs a call ~30 us (create, gate, join; 2-vCPU
#: host) and a row ~19 ns of ``wafer_force`` (~25 of ``wafer_density``),
#: so this many rows, ~0.6 ms, keep it under 5% (DESIGN.md §5b).
ROWS_PER_THREAD = 32_768
#: Owner blocks per sweep thread: claimed, not dealt, so a CPU the host
#: runs slower claims fewer (DESIGN.md §5b).
BLOCKS_PER_THREAD = 4

#: Seconds :func:`load` spent in the compiler (0.0 on a warm cache).
compile_s = 0.0
#: Calls declined to the numpy bodies since import.
declined = 0
#: Threads the last ``wafer_list``, ``wafer_density`` or ``wafer_force``
#: call swept on; 1 after a call that declined.
threads = 1

_lib = None
_F8, _I8, _I4 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.int32)


# -- build, cache, load ------------------------------------------------------


def _compile(cc: str, target: Path) -> None:
    """Build under a private name, then rename: two serve slots or two
    shard workers race on a cold cache, and a reader must never see
    half a file."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise ImportError(
                f"{cc} failed on native.c: {done.stderr.strip()[:300]}"
            )
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def load() -> None:
    """Compile (first use), load and probe; :class:`ImportError` names
    the reason when the tier cannot be used bit for bit on this host."""
    global _lib, compile_s
    if _lib is not None:
        return
    cc = next(filter(None, map(shutil.which, COMPILERS)), None)
    if cc is None:
        raise ImportError("no C compiler (cc, gcc, clang) on PATH")
    try:
        # ${XDG_CACHE_HOME:-~/.cache}/repro/kernels/<key>.so, keyed by
        # everything that decides the machine code.  The compiler is
        # identified by its binary, not by running ``cc --version``: a
        # warm start must not spawn a process (RUSAGE_CHILDREN charges a
        # child its parent's resident set at the fork: +140 MiB of peak
        # RSS on the wse-ta100k ledger cell).
        st = os.stat(cc)
        binary = f"{os.path.realpath(cc)}:{st.st_size}:{st.st_mtime_ns}"
        key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()
                             + binary.encode()).hexdigest()
        cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        target = Path(cache) / "repro" / "kernels" / f"{key}.so"
        lib = None
        if target.exists():
            try:
                lib = ctypes.CDLL(str(target))
            except OSError:  # truncated or foreign file: rebuild it
                target.unlink()
        if lib is None:
            t0 = time.perf_counter()
            _compile(cc, target)
            compile_s = time.perf_counter() - t0
            lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"cannot build native.c: {exc}") from exc
    for fn, signature in _SIGNATURES.items():
        getattr(lib, fn).restype = ctypes.c_int64
        getattr(lib, fn).argtypes = [_CTYPES[kind] for kind in signature]
    _lib = lib
    try:
        _probe()
    except ImportError:
        _lib = None
        raise
    from repro.obs import metrics

    metrics().gauge("kernels.native.compile_s").set(compile_s)


# -- calling convention ------------------------------------------------------


class _Decline(Exception):
    """This call goes to the numpy body instead."""


def _kernel(body):
    """``body`` runs the C loop or raises :class:`_Decline`."""
    fallback = getattr(numpy_backend, body.__name__)

    @functools.wraps(fallback)
    def kernel(*args, **kwargs):
        global declined, threads
        try:
            return body(*args, **kwargs)
        except _Decline:
            declined += 1
            threads = 1
            return fallback(*args, **kwargs)

    return kernel


def _arr(a, dtype, *shape):
    """``a``, once it is an array native.c can read in place (``shape``
    entries of -1 match any length)."""
    if not (type(a) is np.ndarray and a.dtype == dtype
            and a.flags.c_contiguous and a.ndim == len(shape)
            and all(want in (-1, got) for want, got in zip(shape, a.shape))):
        raise _Decline
    return a


class _Bank(ctypes.Structure):
    """``bank_t`` of native.c."""

    _fields_ = [(f, ctypes.c_void_p) for f in (
        "coeffs", "row0", "x0", "h", "nseg", "x_max", "y_last",
    )] + [
        ("n_members", ctypes.c_int64), ("n_rows", ctypes.c_int64),
        ("clamp_low", ctypes.c_int32), ("zero_above", ctypes.c_int32),
    ]


#: native.c's prototypes, a letter per parameter: P(ointer), i(nt64),
#: d(ouble), B(ank, by reference).  Every function returns int64.
_CTYPES = {"P": ctypes.c_void_p, "i": ctypes.c_int64, "d": ctypes.c_double,
           "B": ctypes.POINTER(_Bank)}
_SIGNATURES = {
    "grouped_spline_eval": "BPPiiPP",
    "neighbor_prefilter": "PiPPiPPdiiPPPP",
    "fused_density_pass": "PPPiPPBiPPPP",
    "fused_force_pass": "PPPPiPPPBPiiPPPP",
    "list_valid": "PPPPid",
    "wafer_list": "PPiiPiPPdPPPPPiP",
    "wafer_density": "PiPiPPPPdPBPiPPPPPPPPPPPiPiP",
    "wafer_force": "PiPPPPPPPiBPiiPPPPiiP",
    "wafer_integrate": "PPPPPiPidd",
    "wafer_cycles": "PPPiddddPdPPP",
}


def _c(fn: str, *args) -> int:
    """Call native.c (arrays as addresses, ``None`` as NULL); a loop
    that declines (-1) raises."""
    done = getattr(_lib, fn)(*(
        a.ctypes.data if isinstance(a, np.ndarray) else a for a in args
    ))
    if done < 0:
        raise _Decline
    return done


_banks: dict[int, tuple] = {}


def _bank(bank: tuple) -> _Bank:
    """``bank_t`` view of a packed bank whose rows native.c can index
    blindly; cached on the tuple's identity (``SplineGroup.bank()``
    hands out one object), which also keeps its arrays alive."""
    hit = _banks.get(id(bank))
    if hit is None or hit[0] is not bank:
        coeffs, row0, x0, h, nseg, x_max, y_last, clamp_low, zero_above = bank
        n = len(_arr(x0, _F8, -1))
        arrays = (_arr(coeffs, _F8, -1, 4), _arr(row0, _I8, n), x0,
                  _arr(h, _F8, n), _arr(nseg, _I8, n), _arr(x_max, _F8, n),
                  _arr(y_last, _F8, n))
        if (row0 < 0).any() or (nseg < 1).any() or (
                row0 + nseg > len(coeffs)).any():
            raise _Decline
        if len(_banks) > 64:
            _banks.clear()
        hit = _banks[id(bank)] = (bank, _Bank(
            *(a.ctypes.data for a in arrays), n, len(coeffs),
            bool(clamp_low), bool(zero_above),
        ))
    return hit[1]


def _member(member, n: int) -> tuple:
    """``(array or None, scalar)`` as native.c takes a member argument."""
    g = np.asarray(member, dtype=np.int64)
    return (None, int(g)) if g.ndim == 0 else (_arr(g, _I8, n), 0)


def _box(lengths, periodic) -> tuple:
    return (_arr(np.ascontiguousarray(lengths, dtype=_F8), _F8, 3),
            _arr(np.ascontiguousarray(periodic, dtype=bool), bool, 3))


def _rows(starts: np.ndarray, n: int) -> int:
    """Most rows in one offset, once ``starts`` partitions ``n`` rows."""
    sizes = np.diff(starts)
    if not len(starts) or starts[0] != 0 or starts[-1] != n or (sizes < 0).any():
        raise _Decline
    return int(sizes.max(initial=0))


def _shrink(kept: int, *arrays) -> None:
    """Cut outputs allocated at their upper bound to ``kept`` rows, in
    place: the tail pages native.c never touched were never resident."""
    for a in arrays:
        a.resize((kept, *a.shape[1:]), refcheck=False)


def _sweep_threads(rows: int) -> int:
    """Threads for a call over ``rows`` listed rows: one per CPU this
    process may run on, none with fewer than :data:`ROWS_PER_THREAD`
    rows.  Derived, never configured; tests replace it to force a
    count."""
    return max(1, min(usable_cpus(), rows // ROWS_PER_THREAD))


def _plan(rows: int) -> tuple[int, int]:
    """``(threads, owner blocks)`` for a call over ``rows`` rows."""
    asked = _sweep_threads(rows)
    return asked, 1 if asked == 1 else BLOCKS_PER_THREAD * asked


def _segments(n_off: int, blocks: int) -> np.ndarray:
    """Scratch for the (first row, rows) of every (offset, block)."""
    return np.empty(2 * n_off * blocks, dtype=_I8)


def _swept(fn: str, asked: int, *args) -> int:
    """:func:`_c` for a kernel that sweeps in owner blocks; its last
    argument, appended here, is the thread count: ``asked`` in, the
    threads that swept out (kept in :data:`threads`)."""
    global threads
    swept = np.array([asked])
    done = _c(fn, *args, swept)
    threads = int(swept[0])
    return done


# -- the ten kernels (signatures and contracts: numpy_backend) ---------------


@_kernel
def grouped_spline_eval(bank, x, member):
    _arr(x, _F8, -1)
    val, der = np.empty_like(x), np.empty_like(x)
    _c("grouped_spline_eval", _bank(bank), x, *_member(member, len(x)),
       len(x), val, der)
    return val, der


@_kernel
def neighbor_prefilter(positions, i, j, lengths, periodic, rmax, *,
                       inclusive, assume_inside=False):
    _arr(positions, _F8, -1, 3), _arr(i, _I8, -1), _arr(j, _I8, len(i))
    p = len(i)
    oi = oj = None
    if not assume_inside:
        oi, oj = np.empty(p, dtype=_I8), np.empty(p, dtype=_I8)
    rij, r = np.empty((p, 3)), np.empty(p)
    kept = _c(
        "neighbor_prefilter", positions, len(positions), i, j, p,
        *_box(lengths, periodic), float(rmax * rmax), bool(inclusive),
        bool(assume_inside), oi, oj, rij, r,
    )
    if assume_inside:
        return i, j, rij, r
    _shrink(kept, oi, oj, rij, r)
    return oi, oj, rij, r


@_kernel
def fused_density_pass(i, j, r, ti, tj, rho_bank, n_atoms):
    p = len(_arr(i, _I8, -1))
    _arr(j, _I8, p), _arr(r, _F8, p)
    bank = _bank(rho_bank)
    rho_bar, acc_j, d_ji = np.zeros(n_atoms), np.zeros(n_atoms), np.empty(p)
    if bank.n_members == 1:
        ti = tj = None
        d_ij = d_ji
    else:
        _arr(ti, _I8, p), _arr(tj, _I8, p)
        d_ij = np.empty(p)
    _c("fused_density_pass", i, j, r, p, ti, tj, bank, n_atoms,
       rho_bar, acc_j, d_ji, d_ij)
    return rho_bar, d_ji, d_ij


@_kernel
def fused_force_pass(i, j, rij, r, f_der, d_ji, d_ij, phi_bank, phi_member,
                     n_atoms):
    p = len(_arr(i, _I8, -1))
    _arr(j, _I8, p), _arr(rij, _F8, p, 3), _arr(f_der, _F8, n_atoms)
    _arr(r, _F8, p), _arr(d_ji, _F8, p), _arr(d_ij, _F8, p)
    forces, f_j = np.zeros((n_atoms, 3)), np.zeros((n_atoms, 3))
    e_pair, e_j = np.zeros(n_atoms), np.zeros(n_atoms)
    _c("fused_force_pass", i, j, rij, r, p, f_der, d_ji, d_ij,
       _bank(phi_bank), *_member(phi_member, p), n_atoms,
       forces, f_j, e_pair, e_j)
    return e_pair, forces


@_kernel
def list_valid(pos, occ, held_pos, held_occ, bound2):
    nx, ny = _arr(occ, bool, -1, -1).shape
    _arr(held_occ, bool, nx, ny)
    _arr(pos, _F8, nx, ny, 3), _arr(held_pos, _F8, nx, ny, 3)
    if not occ.size:  # numpy's max of nothing raises
        raise _Decline
    return bool(_c("list_valid", pos, occ, held_pos, held_occ, occ.size,
                   float(bound2)))


@_kernel
def wafer_list(pos, occ, offsets, lengths, periodic, reach2, n_cand):
    nx, ny = _arr(occ, bool, -1, -1).shape
    _arr(pos, _F8, nx, ny, 3), _arr(n_cand, _I4, nx, ny)
    offsets = _arr(np.ascontiguousarray(offsets, dtype=_I8), _I8, -1, 2)
    if nx * ny >= 2**31:  # flat tiles are int32
        raise _Decline
    bound = sum(max(0, nx - abs(dx)) * max(0, ny - abs(dy))
                for dx, dy in offsets.tolist())
    starts = np.empty(len(offsets) + 1, dtype=_I4)
    ctr, src = np.empty(bound, dtype=_I4), np.empty(bound, dtype=_I4)
    asked, blocks = _plan(bound)
    listed = _swept(
        "wafer_list", asked, pos, occ, nx, ny, offsets, len(offsets),
        *_box(lengths, periodic), float(reach2), n_cand, starts, ctr, src,
        _segments(len(offsets), blocks), blocks,
    )
    _shrink(listed, ctr, src)
    return starts, ctr, src


@_kernel
def wafer_density(pos_rows, listed, lengths, periodic, cutoff, typ_flat,
                  rho_bank, phi_index, symmetry, rho_flat, int_flat):
    starts, ctr, src = listed
    n_tiles = len(_arr(pos_rows, _F8, -1, 3))
    n = len(_arr(ctr, _I4, -1))
    _arr(src, _I4, n), _arr(rho_flat, _F8, n_tiles), _arr(int_flat, _I8, n_tiles)
    rows = _rows(_arr(starts, _I4, -1), n)
    bank = _bank(rho_bank)
    single = bank.n_members == 1
    if single:
        typ_flat = phi_index = None
    else:
        _arr(typ_flat, _I8, n_tiles)
        _arr(phi_index, _I8, bank.n_members, bank.n_members)
    # one walk: the record is allocated for every listed row, filled with
    # the survivors, then shrunk to them
    o_starts = np.empty(len(starts), dtype=_I8)
    o_ctr, o_src = np.empty(n, dtype=_I4), np.empty(n, dtype=_I4)
    o_r, o_unit, d_src = np.empty(n), np.empty((n, 3)), np.empty(n)
    extra = () if single else (np.empty(n), np.empty(n, dtype=_I8))
    asked, blocks = _plan(n)
    kept = _swept(
        "wafer_density", asked, pos_rows, n_tiles, starts, len(starts) - 1,
        ctr, src, *_box(lengths, periodic), float(cutoff**2), typ_flat, bank,
        phi_index, bool(symmetry), rho_flat, int_flat, o_starts, o_ctr, o_src,
        o_r, o_unit, d_src, *(extra or (None, None)),
        np.empty((asked, rows)), rows, _segments(len(starts) - 1, blocks),
        blocks,
    )
    _shrink(kept, o_ctr, o_src, o_r, o_unit, d_src, *extra)
    d_ctr, member = extra or (d_src, 0)
    return o_starts, o_ctr, o_src, o_r, o_unit, d_src, d_ctr, member


@_kernel
def wafer_force(record, f_der, phi_bank, symmetry, force_rows, e_flat=None):
    starts, ctr, src, r, unit, d_src, d_ctr, member = record
    n, n_tiles = len(_arr(ctr, _I4, -1)), len(_arr(f_der, _F8, -1))
    _arr(src, _I4, n), _arr(unit, _F8, n, 3), _arr(force_rows, _F8, n_tiles, 3)
    _arr(r, _F8, n), _arr(d_src, _F8, n), _arr(d_ctr, _F8, n)
    e_both = None
    if e_flat is not None:
        _arr(e_flat, _F8, n_tiles)
        e_both = np.zeros(n_tiles) if symmetry else None
    rows = _rows(_arr(starts, _I8, -1), n)
    asked, blocks = _plan(n)
    _swept("wafer_force", asked, starts, len(starts) - 1, ctr, src, r, unit,
           d_src, d_ctr, *_member(member, n), _bank(phi_bank), f_der,
           n_tiles, bool(symmetry), force_rows, e_flat, e_both,
           np.empty((asked, rows, 3)), rows, blocks)


@_kernel
def wafer_integrate(pos_rows, vel_rows, force_rows, occ_flat, typ_flat,
                    masses, dt):
    n = len(_arr(pos_rows, _F8, -1, 3))
    _arr(vel_rows, _F8, n, 3), _arr(force_rows, _F8, n, 3)
    _arr(occ_flat, bool, n), _arr(typ_flat, _I8, n), _arr(masses, _F8, -1)
    return _c("wafer_integrate", pos_rows, vel_rows, force_rows, occ_flat,
              typ_flat, n, masses, len(masses), float(dt), MVV2E)


@_kernel
def wafer_cycles(occ_flat, n_cand, n_int, exchange, c_cand, c_int, c_fixed,
                 noise=None, jitter=0.0):
    n = len(_arr(occ_flat, bool, -1))
    _arr(n_cand, _I8, n), _arr(n_int, _I8, n)
    if noise is not None:
        _arr(noise, _F8, n)
    cycles = np.empty(n)
    cand, inter = np.empty(n, dtype=_I4), np.empty(n, dtype=_I4)
    _c("wafer_cycles", occ_flat, n_cand, n_int, n, float(exchange),
       float(c_cand), float(c_int), float(c_fixed), noise, float(jitter),
       cycles, cand, inter)
    return cycles, cand, inter


# -- the load-time probe -----------------------------------------------------


def _probe_outputs(backend) -> dict[str, tuple]:
    """Every kernel of ``backend`` on one fixed, seeded workload:
    ``{kernel: arrays it returned or accumulated into}``."""
    rng = np.random.default_rng(20240923)
    n, p = 400, 4000

    def bank(n_members):
        nseg = rng.integers(3, 9, n_members)
        x0, h = rng.uniform(0.3, 0.6, n_members), rng.uniform(0.2, 0.5, n_members)
        return (
            rng.normal(size=(int(nseg.sum()), 4)),
            np.concatenate(([0], np.cumsum(nseg)[:-1])).astype(np.int64),
            x0, h, nseg.astype(np.int64), x0 + nseg * h,
            rng.normal(size=n_members), False, True,
        )

    rho, phi = bank(2), bank(3)
    phi_index = np.array([[0, 1], [1, 2]])
    lengths, periodic = np.array([7.0, 8.0, 60.0]), np.array([True, True, False])
    pos = rng.uniform(0.0, 1.0, (n, 3)) * [7.0, 8.0, 3.0]
    i, j = rng.integers(0, n, (2, p))
    j = np.where(i == j, (j + 1) % n, j)
    types, f_der = rng.integers(0, 2, n), rng.normal(size=n)
    out = {}
    out["neighbor_prefilter"] = ki, kj, rij, r = backend.neighbor_prefilter(
        pos, i, j, lengths, periodic, 3.0, inclusive=False
    )
    x, member = rng.uniform(0.0, 4.0, p), rng.integers(0, 3, p)
    out["grouped_spline_eval"] = backend.grouped_spline_eval(phi, x, member)
    out["fused_density_pass"] = _, d_ji, d_ij = backend.fused_density_pass(
        ki, kj, r, types[ki], types[kj], rho, n
    )
    out["fused_force_pass"] = backend.fused_force_pass(
        ki, kj, rij, r, f_der, d_ji, d_ij, phi,
        phi_index[types[ki], types[kj]], n,
    )
    # the wafer's sweeps: three offsets, tiles unique per offset
    ctr = np.concatenate([rng.permutation(n)[:200] for _ in range(3)])
    src = ((ctr + np.repeat([1, 7, 19], 200)) % n).astype(np.int32)
    ctr, starts = ctr.astype(np.int32), np.arange(0, 601, 200, dtype=np.int32)
    rho_flat, int_flat = np.zeros(n), np.zeros(n, dtype=np.int64)
    record = backend.wafer_density(
        pos, (starts, ctr, src), lengths, periodic, 3.0, types, rho,
        phi_index, True, rho_flat, int_flat,
    )
    out["wafer_density"] = (*record, rho_flat, int_flat)
    force, e_flat = np.zeros((n, 3)), np.zeros(n)
    backend.wafer_force(record, f_der, phi, True, force, e_flat)
    out["wafer_force"] = force, e_flat
    out.update(_probe_wafer(backend, rng, lengths, periodic))
    return out


def _probe_wafer(backend, rng, lengths, periodic) -> dict[str, tuple]:
    """The list and step kernels on a 13 x 11 wafer with holes, every
    cut placed exactly on a value numpy computed (so one ulp of
    difference in ``r^2`` flips the answer)."""
    nx, ny = 13, 11
    occ = rng.random((nx, ny)) < 0.8
    pos = np.full((nx, ny, 3), 1.0e15)
    pos[occ] = rng.uniform(0.0, 1.0, (occ.sum(), 3)) * [7.0, 8.0, 3.0]
    offsets = np.array([[1, 0], [0, 1], [-2, 1], [3, -4], [20, 0]])
    # the cut is the r^2 of one listed pair: that pair must miss it
    d = pos[1:, :, :] - pos[:-1, :, :]
    numpy_backend.minimum_image(d.reshape(-1, 3), lengths, periodic)
    r2 = np.einsum("xyk,xyk->xy", d, d)[occ[1:] & occ[:-1]]
    reach2 = float(r2[len(r2) // 2])
    n_cand = np.zeros((nx, ny), dtype=np.int32)
    listed = backend.wafer_list(pos, occ, offsets, lengths, periodic,
                                reach2, n_cand)
    moved = pos + np.where(occ[..., None], rng.normal(0.0, 0.1, pos.shape), 0)
    step = moved - pos
    worst = float(np.einsum("xyk,xyk->xy", step, step).max())
    flipped, poisoned = ~occ, moved.copy()
    poisoned[occ.nonzero()[0][0], occ.nonzero()[1][0], 1] = np.nan
    valid = tuple(
        backend.list_valid(p, o, pos, occ, bound2)
        for p, o, bound2 in (
            (moved, occ, worst), (moved, occ, np.nextafter(worst, np.inf)),
            (moved, flipped, 1.0e3), (poisoned, occ, 1.0e3),
        )
    )
    rows, vel = pos.reshape(-1, 3).copy(), rng.normal(size=(nx * ny, 3))
    force = rng.normal(size=(nx * ny, 3))
    typ = rng.integers(0, 2, nx * ny)
    bad = backend.wafer_integrate(rows, vel, force, occ.ravel(), typ,
                                  np.array([180.9, 183.8]), 0.002)
    counts = rng.integers(0, 500, (2, nx * ny))
    noise = rng.normal(size=nx * ny)
    cycles = [backend.wafer_cycles(occ.ravel(), *counts, 301.5, 26.6 / 1.1,
                                   71.4 / 1.1, 574.0, *jitter)
              for jitter in ((), (noise, 1e-3))]
    return {
        "wafer_list": (*listed, n_cand),
        "list_valid": valid,
        "wafer_integrate": (rows, vel, bad),
        "wafer_cycles": (*cycles[0], *cycles[1]),
    }


def _expected() -> dict[str, tuple]:
    return _probe_outputs(numpy_backend)


def _probe() -> None:
    """Every native kernel against its numpy body, bit for bit: guards
    the one operand order our source does not spell out (numpy's einsum
    reduction) and any compiler that contracts or reorders."""
    before = declined
    want, got = _expected(), _probe_outputs(sys.modules[__name__])
    for fn in KERNEL_FUNCTIONS:
        same = len(want[fn]) == len(got[fn]) and all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for a, b in zip(want[fn], got[fn])
        )
        if not same:
            raise ImportError(
                f"native probe: {fn} is not bitwise its numpy body on this "
                f"host (numpy {np.__version__})"
            )
    if declined != before:
        raise ImportError("native probe: a kernel declined the probe inputs")
