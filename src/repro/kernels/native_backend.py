"""The native tier: ``native.c`` through the system C compiler and ctypes.

Every registry kernel as a C loop in which a pair (or a tile) enters, is
measured, looked up, turned into a contribution and accumulated without
any intermediate leaving the loop (the FPGA force pipelines of
PAPERS.md) — with outputs **bitwise** those of the numpy body of the
same name (``native.c``'s header lists the four places that is easy to
lose).  The wafer step's row loops do it a chunk of rows at a time, one
pass per stage, with only the chunk's L1 buffers between the stages
(``native.c``, "chunked passes").  A lockstep wafer step is one native
call, ``wafer_step``, from the list test to the cycle counter; between
two calls Python only runs the swap rounds, the thermostat and the
trace's moments.  The reference engine's steps are one call too,
``md_step``, on the calling thread, its list rebuilds included: the
list it builds stays in its slot of the caller's scratch, handed out as
views.  The wafer step runs
on one thread per usable CPU, each thread adding only into the tiles of
the owner block it holds, so the bits do not depend on the thread count
(``native.c``, "owner blocks"); the count is derived
(:func:`_sweep_threads`), never configured.
The numpy tier stays the definition; this one may only be faster.

:func:`load`, called by the registry the first time the tier is asked
for, compiles ``native.c`` once per (source, flags, compiler, CPU: the
flags build for the host's) into the user cache directory, loads it,
and runs every kernel against its numpy body on a few thousand fixed
pairs and a small holed wafer, bit for bit.  No compiler, a failed
compile, an unwritable cache or a probe mismatch raise
:class:`ImportError` with the reason — the registry's one-warning
fall-back to numpy, never a different trajectory.

Per call, a kernel *declines* to its numpy body what ``native.c`` does
not read (geometry other than float64, pair index arrays other than the
int64 lists the engines build, non-contiguous views, an empty scatter)
and what the C loop itself declines: an index or atom type outside
``[0, n)``, geometry numpy raises on, or a cell plan that is not one.
Wrapped negatives, ``IndexError`` and ``FloatingPointError`` so come
out of the same numpy code as ever.  The wafer's list is never an argument: ``wafer_step``
keeps the list it built in its slot of the caller's scratch, so no list
another tier built reaches the C loop, and its rows are not checked
again.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import math
import mmap
import os
import platform
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
#: For the CPU it runs on, but no fast-math and no FMA contraction:
#: every operation stays one IEEE operation on the same operands, so
#: bitwise is still the contract (the load-time probe guards it).  No
#: errno from sqrt and no trapping floating point change no value; they
#: let the branch-free passes of native.c (floor, sqrt, the spline
#: selects) vectorise.
FLAGS = ("-O3", "-march=native", "-fno-fast-math", "-ffp-contract=off",
         "-fno-math-errno", "-fno-trapping-math", "-pthread", "-shared",
         "-fPIC")
COMPILERS = ("cc", "gcc", "clang")

#: Listed rows (for the list build: candidate tiles) each team member
#: must have: set where a second member pays for itself end to end.
#: With the chunked passes, Ta slabs on a 2-vCPU host, T = 2 against
#: T = 1 in alternating blocks of steps in one process: 0.93-1.07x at
#: 36,119 rows, 1.03-1.12x at 52,353, 1.18-1.33x from 71,267 up, so
#: two members from 65,536 rows (DESIGN.md §5b).  A member's fixed cost
#: (~130-190 us a call) is 10-15% of its work at that size; a "< 5% of
#: the work" rule would leave these wafers on one thread, 1.2-1.3x
#: slower.
ROWS_PER_THREAD = 32_768
#: Owner blocks per sweep thread: claimed, not dealt, so a CPU the host
#: runs slower claims fewer (DESIGN.md §5b).
BLOCKS_PER_THREAD = 4
#: native.c's MAX_THREADS: the most members a team has (the owner
#: blocks, at most BLOCKS_PER_THREAD per member, are as bounded there).
MAX_THREADS = 64

#: Seconds :func:`load` spent in the compiler (0.0 on a warm cache).
compile_s = 0.0
#: Calls declined to the numpy bodies since import.
declined = 0
#: Threads the last ``wafer_step`` call ran on; 1 after a call that
#: declined.
threads = 1

_lib = None
_F8, _I8, _I4 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.int32)
#: Private anonymous pages that reserve no swap: a column mapped at its
#: bound costs the pages written, and a fork shares none of them.
#: (An older mmap module does not name MAP_NORESERVE; 0x4000 is its
#: Linux value on x86-64 and arm64.)
_MAP_FLAGS = mmap.MAP_PRIVATE | getattr(
    mmap, "MAP_NORESERVE",
    0x4000 if sys.platform == "linux"
    and platform.machine() in ("x86_64", "aarch64") else 0,
)


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


def _cpu_identity() -> str:
    """The CPU ``-march=native`` compiles for: the first processor's
    identity lines of ``/proc/cpuinfo`` (``vendor_id``, ``model name``
    and ``flags`` on x86; their arm64 counterparts), else the machine
    name.  Read, never run: a warm start spawns no process."""
    keys = ("vendor_id", "model name", "flags", "CPU implementer",
            "CPU architecture", "CPU variant", "CPU part", "Features")
    lines = []
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:  # the first processor's block only
                if not line.strip():
                    break
                if line.split(":", 1)[0].strip() in keys:
                    lines.append(line.strip())
    except OSError:
        pass
    return "\n".join(lines) or platform.machine()


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
        # everything that decides the machine code: the source, the
        # flags, the compiler and (-march=native) the CPU.  The compiler
        # is identified by its binary, not by running ``cc --version``:
        # a warm start must not spawn a process (RUSAGE_CHILDREN charges
        # a child its parent's resident set at the fork: +140 MiB of
        # peak RSS on the wse-ta100k ledger cell).
        st = os.stat(cc)
        binary = f"{os.path.realpath(cc)}:{st.st_size}:{st.st_mtime_ns}"
        key = hashlib.sha256(b"\0".join((
            SOURCE.read_bytes(), " ".join(FLAGS).encode(), binary.encode(),
            _cpu_identity().encode(),
        ))).hexdigest()
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
    "cell_pairs": "PiPPPPPPPPiPdiPPP",
    "fused_density_pass": "PPPiPPBiPPPP",
    "fused_force_pass": "PPPPiPPPBPiiPPPP",
    "wafer_step": "PPPPiiPiPPdddPPPPPPiPPPPPPBBBPiPiddPPdPPPPPPPPiiiiP",
    "md_step": "PPPiPiddPPPPiPPPddddBBBPiiPiiPPPP",
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


def _shrink(kept: int, *arrays) -> None:
    """Cut outputs allocated at their upper bound to ``kept`` rows, in
    place: the tail pages native.c never touched were never resident."""
    for a in arrays:
        a.resize((kept, *a.shape[1:]), refcheck=False)


def _mapped(shape, dtype) -> np.ndarray:
    """An array on its own private anonymous mapping (:data:`_MAP_FLAGS`):
    its pages cost nothing until written (an output a call may not
    write, a column sized at its bound), it is resident page by page (no
    huge page rounds a partly written column up), and allocating one a
    step leaves the heap's top, which glibc trims and the next step
    faults back in, alone."""
    count = math.prod(np.atleast_1d(shape).tolist())
    buffer = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1),
                       flags=_MAP_FLAGS)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _sweep_threads(rows: int) -> int:
    """Threads for a call over ``rows`` listed rows: one per CPU this
    process may run on, none with fewer than :data:`ROWS_PER_THREAD`
    rows.  Derived, never configured; tests replace it to force a
    count."""
    return max(1, min(usable_cpus(), rows // ROWS_PER_THREAD))


# -- the seven kernels (signatures and contracts: numpy_backend) -------------


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
def cell_pairs(cols, order, cid, coords, starts, counts, ncell, periodic,
               stencil, lengths, r2_max):
    n = len(_arr(order, _I8, -1))
    _arr(cols, _F8, 3, n), _arr(cid, _I8, n), _arr(coords, _I8, n, 3)
    ntot = len(_arr(counts, _I8, -1))
    _arr(starts, _I8, ntot)
    ncell = _arr(np.ascontiguousarray(ncell, dtype=_I8), _I8, 3)
    stencil = _arr(np.ascontiguousarray(stencil, dtype=_I8), _I8, -1, 3)
    if (ncell < 1).any() or math.prod(ncell.tolist()) != ntot:
        raise _Decline
    # The outputs at a bound from the plan: a slot pairs with at most
    # the largest cell once per offset and once in its own cell, and an
    # alias-free plan emits each unordered pair once.  A plan with more
    # survivors than that declines in the loop.
    most = int(counts.max()) if ntot else 0
    cap = max(0, min(n * (n - 1) // 2, n * most * (len(stencil) + 1)))
    oi, oj, n_raw = np.empty(cap, _I8), np.empty(cap, _I8), np.zeros(1, _I8)
    lengths, periodic = _box(lengths, periodic)
    kept = _c("cell_pairs", cols, n, order, cid, coords, starts, counts,
              ncell, periodic, stencil, len(stencil), lengths,
              float(r2_max), cap, oi, oj, n_raw)
    _shrink(kept, oi, oj)
    return oi, oj, int(n_raw[0])


@_kernel
def fused_density_pass(i, j, r, ti, tj, rho_bank, n_atoms):
    p = len(_arr(i, _I8, -1))
    _arr(j, _I8, p), _arr(r, _F8, p)
    bank = _bank(rho_bank)
    rho_bar, acc_j, d_ji = np.empty(n_atoms), np.empty(n_atoms), np.empty(p)
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
    forces, f_j = np.empty((n_atoms, 3)), np.empty((n_atoms, 3))
    e_pair, e_j = np.empty(n_atoms), np.empty(n_atoms)
    _c("fused_force_pass", i, j, rij, r, p, f_der, d_ji, d_ij,
       _bank(phi_bank), *_member(phi_member, p), n_atoms,
       forces, f_j, e_pair, e_j)
    return e_pair, forces


def _scratch(store: dict, name: str, n: int, dtype, *tail) -> np.ndarray:
    """``store[name]``, mapped again when it holds fewer than ``n`` rows."""
    have = store.get(name)
    if have is None or len(have) < n or have.shape[1:] != tail:
        have = store[name] = _mapped((n, *tail), dtype)
    return have


@_kernel
def wafer_step(pos, vel, occ, typ, offsets, lengths, periodic, reach2, bound2,
               cutoff, banks, phi_index, symmetry, *, masses=None, dt=0.0,
               cost=None, noise=None, jitter=0.0, energy=False, scratch=None):
    global threads
    nx, ny = _arr(occ, bool, -1, -1).shape
    n = nx * ny
    _arr(pos, _F8, nx, ny, 3), _arr(typ, _I8, nx, ny)
    offsets = _arr(np.ascontiguousarray(offsets, dtype=_I8), _I8, -1, 2)
    n_off = len(offsets)
    rho, embed, phi = (_bank(bank) for bank in banks)
    typed = rho.n_members > 1
    if not n or n >= 2**31 or embed.n_members != rho.n_members:
        raise _Decline  # flat tiles are int32; one type, one table each
    if typed:
        _arr(phi_index, _I8, rho.n_members, rho.n_members)
        if ((phi_index < 0) | (phi_index >= phi.n_members)).any():
            raise _Decline
    if masses is not None:
        _arr(vel, _F8, nx, ny, 3), _arr(masses, _F8, -1)
    if noise is not None:
        _arr(noise, _F8, n)
    # This tier's slot of the caller's scratch, kept between its calls
    # (none: this call's): the list it built, and its working memory.
    # The list goes back only when the call reuses it or builds another
    # to hold; a call that declines or refuses holds none.
    store = {} if scratch is None else scratch.setdefault(name, {})
    held = store.pop("list", None)
    h_args, rows = (None,) * 6, 0
    # a build's outputs, its rows at their bound
    dx, dy = np.abs(offsets).T
    bound = int((np.maximum(nx - dx, 0) * np.maximum(ny - dy, 0)).sum())
    if held is not None:
        (starts, ctr, src), h_pos, h_occ, h_cand = held
        rows = len(_arr(ctr, _I4, -1))
        _arr(src, _I4, rows), _arr(starts, _I4, n_off + 1)
        _arr(h_pos, _F8, nx, ny, 3), _arr(h_occ, bool, nx, ny)
        h_args = (starts, ctr, src, _arr(h_cand, _I4, nx, ny), h_pos, h_occ)
    asked = min(_sweep_threads(bound if held is None else rows), MAX_THREADS)
    blocks = 1 if asked == 1 else BLOCKS_PER_THREAD * asked
    n_cand, starts = _mapped((nx, ny), _I4), np.empty(n_off + 1, _I4)
    ctr, src = _mapped(bound, _I4), _mapped(bound, _I4)
    keep = bound2 > 0.0
    kept = ((_mapped(pos.shape, _F8), _mapped(occ.shape, bool)) if keep
            else (None, None))
    f_val = np.empty((nx, ny)) if energy else None
    e_pair = np.empty((nx, ny)) if energy else None
    force, n_int = np.empty((nx, ny, 3)), np.empty((nx, ny), dtype=_I8)
    cycles = None
    if cost is not None:
        cycles = np.empty(n), np.empty(n, dtype=_I4), np.empty(n, dtype=_I4)
    # The record has a row per row the call can list, mapped at that
    # bound and resident where density writes: its survivors, in the
    # segments of the listed rows.  A block's rows in one offset are at
    # most its tiles.
    cap, stride = max(bound, rows), -(-n // blocks)
    segments = 2 * n_off * blocks
    sizes = {
        "ctr": (cap, _I4), "src": (cap, _I4), "r": (cap, _F8),
        "unit": (cap, _F8, 3), "d_src": (cap, _F8),
        "d_ctr": (cap * typed, _F8), "member": (cap * typed, _I8),
        "share": (asked * stride, _F8), "fvec": (asked * stride, _F8, 3),
        "seg_list": (segments, _I8), "seg_record": (segments, _I8),
        "rho": (n, _F8), "f_der": (n, _F8), "e_both": (n, _F8),
    }  # in native.c's SCR_* order
    addresses = np.array([_scratch(store, key, *size).ctypes.data
                          for key, size in sizes.items()], dtype=np.uintp)
    out = np.empty(13, dtype=_I8)
    _c("wafer_step", pos, vel, occ, typ, nx, ny, offsets, n_off,
       *_box(lengths, periodic), float(reach2), float(bound2),
       float(cutoff**2), *h_args, rows, n_cand, starts, ctr, src, *kept,
       rho, embed, phi, phi_index, bool(symmetry), masses,
       0 if masses is None else len(masses), float(dt), MVV2E,
       None if cost is None else np.array(cost, dtype=_F8), noise,
       float(jitter), f_val, force, e_pair, n_int,
       *(cycles or (None, None, None)), addresses, cap, stride, blocks,
       asked, out)
    ran, built, listed, survivors, non_finite, threads, *ns = out.tolist()
    tested = held is not None
    if not ran:
        return numpy_backend._refused(tested, ns, threads)
    if not built:
        store["list"], n_cand = held, held[3]
    elif keep:
        store["list"] = ((starts, ctr[:listed], src[:listed]), *kept, n_cand)
    row_bytes = 48 if rho.n_members == 1 else 64
    return numpy_backend.WaferStep(
        True, not built, n_cand, n_int, force, f_val, e_pair, cycles,
        non_finite, survivors * row_bytes,
        numpy_backend._phases(tested, bool(built), masses is not None,
                              cost is not None),
        tuple(ns), threads,
    )


#: native.c's MD_GROW: a build needs more scratch than the call had.
_MD_GROW = len(numpy_backend.MD_STOPS)


def _carve(store: dict, sizes: dict) -> None:
    """``store[name]`` for each ``name: (rows, dtype, *tail)`` of
    ``sizes``, each from a 64-byte boundary of one mapping
    (:func:`_mapped`): one system call for a group of buffers."""
    offsets, total = [], 0
    for rows, dtype, *tail in sizes.values():
        offsets.append(total)
        nbytes = rows * math.prod(tail) * np.dtype(dtype).itemsize
        total += -(-nbytes // 64) * 64
    buffer = _mapped(max(total, 1), np.uint8)
    for (key, (rows, dtype, *tail)), offset in zip(sizes.items(), offsets):
        store[key] = np.frombuffer(buffer, dtype, rows * math.prod(tail),
                                   offset).reshape(rows, *tail)


def _md_scratch(store: dict, rows: int, n: int, typed: bool,
                cells: int) -> tuple:
    """``(rows, cells, addresses)`` of this tier's md_step scratch, in
    three mappings (pair rows, atom rows, cells).  A group is mapped
    again, a quarter over what is asked (as a list grows a little from
    one build to the next), only when it must grow."""
    have = store.get("md_fits", (-1, -1, False, -1, None))
    grow = (rows > have[0] or typed > have[2], n > have[1], cells > have[3])
    if not any(grow):
        return have[0], have[3], have[4]
    rows = max(rows + rows // 4, have[0]) if grow[0] else have[0]
    cells = max(cells + cells // 4, have[3]) if grow[2] else have[3]
    typed, n = max(typed, have[2]), max(n, have[1])
    groups = ({
        "i": (rows, _I8), "j": (rows, _I8), "d": (3 * rows, _F8),
        "r": (rows, _F8),
        "d_ji": (rows, _F8), "d_ij": (rows * typed, _F8),
        "l_i": (rows, _I8), "l_j": (rows, _I8), "l_r": (rows, _F8),
        "l_d": (3 * rows, _F8),
    }, {
        "acc_i": (n, _F8), "acc_j": (n, _F8), "f_der": (n, _F8),
        "f_i": (n, _F8, 3), "f_j": (n, _F8, 3), "l_ref": (n, _F8, 3),
        "cid": (n, _I8), "order": (n, _I8), "cols": (3 * n, _F8),
    }, {
        "counts": (cells, _I8), "starts": (cells, _I8),
    })  # in native.c's MD_* order, then its stencil
    for group, regrow in zip(groups, grow):
        if regrow:
            _carve(store, group)
    addresses = np.array(
        [store[key].ctypes.data for group in groups for key in group]
        + [numpy_backend.HALF_STENCIL.ctypes.data], dtype=np.uintp)
    store["md_fits"] = (rows, n, typed, cells, addresses)
    return rows, cells, addresses


@_kernel
def md_step(positions, velocities, types, masses, held, origin, lengths,
            periodic, cutoff, skin, r_min, banks, phi_index, dt, n_steps, *,
            dead_bound=np.inf, scratch=None):
    n = len(_arr(positions, _F8, -1, 3))
    _arr(velocities, _F8, n, 3), _arr(types, _I8, n), _arr(masses, _F8, -1)
    rho, embed, phi = (_bank(bank) for bank in banks)
    typed = rho.n_members > 1
    if typed:
        _arr(phi_index, _I8, rho.n_members, rho.n_members)
        if ((phi_index < 0) | (phi_index >= phi.n_members)).any():
            raise _Decline
    lengths, periodic = _box(lengths, periodic)
    origin = _arr(np.ascontiguousarray(origin, dtype=_F8), _F8, 3)
    if not np.all(~periodic | ((lengths > 0.0) & np.isfinite(lengths))):
        raise _Decline
    # This tier's slot of the caller's scratch: the plan, the step's
    # table, the per-atom planes and the list a build writes, their
    # addresses taken once.
    store = {} if scratch is None else scratch.setdefault(name, {})
    n_cand = len(held[1]) if held and len(held[0]) == n else -1
    # (no list: room for a first build of ~16 rows an atom, the cells
    # at most one an atom; a build that needs more asks for it)
    fits = _md_scratch(store, n_cand if n_cand >= 0 else 16 * n, n, typed,
                       0 if n_cand >= 0 else n)
    h_args = (None,) * 4
    if n_cand >= 0:
        ref, ci, cj, r_build = held[:4]
        _arr(ref, _F8, n, 3), _arr(ci, _I8, n_cand)
        _arr(cj, _I8, n_cand), _arr(r_build, _F8, n_cand)
        h_args = (ref, ci, cj, r_build)
    bounds = np.array([dead_bound, held[4] if n_cand >= 0 else 0.0])
    rows = np.empty((n_steps, len(numpy_backend.MD_PHASES) + 1), dtype=_I8)
    builds, out = np.empty((n_steps, 4), dtype=_I8), np.empty(5, dtype=_I8)
    done = n_builds = 0
    while True:
        ran = _c("md_step", positions, velocities, types, n, masses,
                 len(masses), MVV2E, float(dt), *h_args, n_cand, origin,
                 lengths, periodic, float(cutoff), float(skin),
                 (skin / 2.0) ** 2, float(r_min), rho, embed, phi, phi_index,
                 len(numpy_backend.HALF_STENCIL), n_steps - done, fits[2],
                 fits[0], fits[1], bounds, rows[done:], builds[n_builds:],
                 out)
        stop, k, n_cand, need_rows, need_cells = out.tolist()
        builds[n_builds:n_builds + k, 0] += done
        done, n_builds = done + ran, n_builds + k
        if stop != _MD_GROW:
            break
        # regrow, and build again at the step whose build stopped
        fits = _md_scratch(store, need_rows, n, typed, need_cells)
        h_args, n_cand = (None,) * 4, -1
    if n_cand < 0:
        held.clear()
    elif n_builds:  # the last build's, out of the scratch the next writes
        held[:] = [store["l_ref"][:n].copy(), store["l_i"][:n_cand].copy(),
                   store["l_j"][:n_cand].copy(), store["l_r"][:n_cand].copy(),
                   float(bounds[1])]
    return numpy_backend.MdStep(done, numpy_backend.MD_STOPS[stop],
                                rows[:done, -1], rows[:done, :-1],
                                builds[:n_builds], float(bounds[0]))


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
    out["wafer_step"] = _probe_wafer(backend, rng, lengths, periodic, rho,
                                     phi, phi_index)
    out["md_step"] = _probe_md(backend, rng, lengths, periodic,
                               (rho, rho, phi), phi_index)
    out["cell_pairs"] = _probe_cells(backend, rng, lengths, periodic)
    return out


def _probe_md(backend, rng, lengths, periodic, banks, phi_index) -> tuple:
    """Two reference steps of 60 fast atoms of two types in a box
    periodic along x and y, from no list: a build on a cell sweep's
    plan, then a step on its list through the pre-mask cut."""
    pos = rng.uniform(0.0, 1.0, (60, 3)) * [7.0, 8.0, 3.0]
    state = (pos, rng.normal(0.0, 12.0, (60, 3)), rng.integers(0, 2, 60),
             np.array([180.9, 183.8]))
    held = []
    step = backend.md_step(*state, held, np.zeros(3), lengths, periodic, 1.2,
                           0.5, 0.05, banks, phi_index, 0.002, 2, scratch={})
    return (*md_outputs(step), *held, *state[:2])


def md_outputs(step) -> tuple:
    """An :class:`~repro.kernels.numpy_backend.MdStep`'s outputs: every
    field but the timings."""
    return step.steps, step.stop, step.pairs, step.builds, step.dead_bound


def _probe_cells(backend, rng, lengths, periodic) -> tuple:
    """The cell sweep over a 4 x 4 x 3 plan of 80 atoms (periodic x
    and y, some a box length outside) along six offsets: one along the
    open axis only, two of the half stencil that wrap, three of radius
    2 (the half stencil is ``md_step``'s build, in its own probe); cut
    exactly at the ``r^2``
    numpy computes for one listed pair (so one ulp of difference flips
    it)."""
    n, ncell = 80, np.array([4, 4, 3])
    cell = rng.integers(0, ncell, (n, 3))
    size = np.where(periodic, lengths / ncell, 1.5)
    pos = (cell + rng.random((n, 3))) * size
    pos += rng.integers(-1, 2, (n, 3)) * lengths * periodic
    flat = (cell[:, 0] * ncell[1] + cell[:, 1]) * ncell[2] + cell[:, 2]
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=int(ncell.prod()))
    starts = np.cumsum(counts) - counts
    stencil = np.array([(0, 0, 1), (1, 1, 0), (1, -1, 1), (2, 1, 0),
                        (-2, 0, 1), (1, -2, 1)])
    plan = (np.ascontiguousarray(pos.T[:, order]), order, flat[order],
            cell[order], starts, counts, ncell, periodic, stencil)
    src, start, _ = next(itertools.islice(
        numpy_backend.cell_blocks(*plan[2:]), 1, None))
    d = plan[0][:, start[len(src) // 2]] - plan[0][:, src[len(src) // 2]]
    d -= periodic * lengths * np.floor(d / lengths + 0.5)
    r2_max = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
    return backend.cell_pairs(*plan, lengths, r2_max)


def _probe_wafer(backend, rng, lengths, periodic, rho, phi,
                 phi_index) -> tuple:
    """The whole step on a 13 x 11 wafer with holes, every cut placed
    exactly on a value numpy computed (so one ulp of difference in
    ``r^2`` flips the answer), in one scratch: a step that builds, an
    energy evaluation on the list it holds, and one whose list test a
    moved tile fails."""
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
    typ = rng.integers(0, 2, (nx, ny)) * occ
    vel = rng.normal(size=(nx, ny, 3)) * occ[..., None]
    noise = rng.normal(size=nx * ny)
    grid = dict(offsets=offsets, lengths=lengths, periodic=periodic,
                reach2=reach2, cutoff=np.sqrt(reach2) * 0.9,
                banks=(rho, rho, phi), phi_index=phi_index, symmetry=True)
    scratch = {}
    built = backend.wafer_step(
        pos, vel, occ, typ, bound2=0.01, **grid,
        masses=np.array([180.9, 183.8]), dt=0.002,
        cost=(301.5, 26.6 / 1.1, 71.4 / 1.1, 574.0), noise=noise,
        jitter=1e-3, scratch=scratch,
    )
    out = step_outputs(built, scratch)
    energy = backend.wafer_step(pos, vel, occ, typ, bound2=1e3, **grid,
                                energy=True, scratch=scratch)
    out += step_outputs(energy, scratch)
    pos[occ.nonzero()[0][0], occ.nonzero()[1][0], 0] += 0.5
    moved = backend.wafer_step(pos, vel, occ, typ, bound2=0.01, **grid,
                               scratch=scratch)
    return (pos, vel, *out, *step_outputs(moved, scratch))


def step_outputs(step, scratch: dict) -> tuple:
    """A :class:`~repro.kernels.numpy_backend.WaferStep`'s outputs, flat:
    every field but the timings and the thread count, and nothing for a
    field that is None; then the arrays of every list a tier holds in
    ``scratch``."""
    fields = (step.ran, step.reused, step.n_cand, step.n_int, step.force,
              step.f_val, step.e_pair, *(step.cycles or ()),
              step.non_finite, step.record_nbytes)
    held = [store["list"] for store in scratch.values() if "list" in store]
    return (*(f for f in fields if f is not None),
            *(a for (listed, *planes) in held for a in (*listed, *planes)))


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
