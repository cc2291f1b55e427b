"""The native tier: ``native.c`` through the system C compiler and ctypes.

Every registry kernel as a C loop in which a pair enters, is measured,
looked up, turned into a contribution and accumulated without any
intermediate leaving the loop (the FPGA force pipelines of PAPERS.md) —
with outputs **bitwise** those of the numpy body of the same name
(``native.c``'s header lists the four places that is easy to lose).
The numpy tier stays the definition; this one may only be faster.

:func:`load`, called by the registry the first time the tier is asked
for, compiles ``native.c`` once per (source, flags, compiler) into the
user cache directory, loads it, and runs every kernel against its numpy
body on a few thousand fixed pairs, bit for bit.  No compiler, a failed
compile, an unwritable cache or a probe mismatch raise
:class:`ImportError` with the reason — the registry's one-warning
fall-back to numpy, never a different trajectory.

Per call, a kernel *declines* to its numpy body what ``native.c`` does
not read (a float32 wafer, index arrays other than the int64 pair lists
and int32 wafer lists the engines build, non-contiguous views, an empty
scatter) and what the C loop itself declines: an index outside
``[0, n)`` or geometry numpy raises on.  Wrapped negatives,
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

from repro.kernels import KERNEL_FUNCTIONS, numpy_backend

name = "native"

SOURCE = Path(__file__).with_name("native.c")
#: No fast-math and no FMA contraction: bitwise is the contract.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")

#: Seconds :func:`load` spent in the compiler (0.0 on a warm cache).
compile_s = 0.0
#: Calls declined to the numpy bodies since import.
declined = 0

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
        global declined
        try:
            return body(*args, **kwargs)
        except _Decline:
            declined += 1
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
    "spline_eval": "PiPPiPP",
    "accumulate_scalar": "PPiiP",
    "accumulate_vec3": "PPiiP",
    "grouped_spline_eval": "BPPiiPP",
    "neighbor_prefilter": "PiPPiPPdiiiPPPP",
    "fused_density_pass": "PPPiPPBiPPPP",
    "fused_force_pass": "PPPPiPPPBPiiPPPP",
    "density_count": "PiPPiPPd",
    "density_chunk": "PiPiPPPPdPBPiPPPPPPPPPPP",
    "force_chunk": "PiPPPPPPPiBPiiPPPP",
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


# -- the nine kernels (signatures and contracts: numpy_backend) --------------


@_kernel
def spline_eval(coeffs, k, dx):
    _arr(coeffs, _F8, -1, 4), _arr(k, _I8, -1), _arr(dx, _F8, len(k))
    val, der = np.empty_like(dx), np.empty_like(dx)
    _c("spline_eval", coeffs, len(coeffs), k, dx, len(k), val, der)
    return val, der


@_kernel
def accumulate_scalar(idx, weights, n):
    _arr(idx, _I8, -1), _arr(weights, _F8, len(idx))
    out = np.zeros(n)
    _c("accumulate_scalar", idx, weights, len(idx), n, out)
    return out


@_kernel
def accumulate_vec3(idx, vectors, n):
    _arr(idx, _I8, -1), _arr(vectors, _F8, len(idx), 3)
    out = np.zeros((n, 3))
    _c("accumulate_vec3", idx, vectors, len(idx), n, out)
    return out


@_kernel
def grouped_spline_eval(bank, x, member):
    _arr(x, _F8, -1)
    val, der = np.empty_like(x), np.empty_like(x)
    _c("grouped_spline_eval", _bank(bank), x, *_member(member, len(x)),
       len(x), val, der)
    return val, der


@_kernel
def neighbor_prefilter(positions, i, j, lengths, periodic, rmax, *,
                       inclusive, compute_r, assume_inside=False):
    _arr(positions, _F8, -1, 3), _arr(i, _I8, -1), _arr(j, _I8, len(i))
    p = len(i)
    oi = oj = None
    if not assume_inside:
        oi, oj = np.empty(p, dtype=_I8), np.empty(p, dtype=_I8)
    n_geo = p if compute_r else 0
    rij, r = np.empty((n_geo, 3)), np.empty(n_geo)
    kept = _c(
        "neighbor_prefilter", positions, len(positions), i, j, p,
        *_box(lengths, periodic), float(rmax * rmax), bool(inclusive),
        bool(compute_r), bool(assume_inside), oi, oj, rij, r,
    )
    if assume_inside:
        return i, j, rij, r
    geo = kept if compute_r else 0
    for a, size in ((oi, kept), (oj, kept), (rij, (geo, 3)), (r, geo)):
        a.resize(size, refcheck=False)  # shrinks in place
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
def density_chunk(pos_rows, listed, lengths, periodic, cutoff, typ_flat,
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
    box, cutoff2 = _box(lengths, periodic), float(cutoff**2)
    # two passes: count (and check the indices), then fill a record
    # allocated at its size
    kept = _c("density_count", pos_rows, n_tiles, ctr, src, n, *box, cutoff2)
    o_starts = np.empty(len(starts), dtype=_I8)
    o_ctr, o_src = np.empty(kept, dtype=_I4), np.empty(kept, dtype=_I4)
    o_r, o_unit, d_src = np.empty(kept), np.empty((kept, 3)), np.empty(kept)
    d_ctr, member = (d_src, 0) if single else (
        np.empty(kept), np.empty(kept, dtype=_I8))
    _c("density_chunk", pos_rows, n_tiles, starts, len(starts) - 1, ctr, src,
       *box, cutoff2, typ_flat, bank, phi_index, bool(symmetry), rho_flat,
       int_flat, o_starts, o_ctr, o_src, o_r, o_unit, d_src,
       None if single else d_ctr, None if single else member,
       np.empty(rows))
    return o_starts, o_ctr, o_src, o_r, o_unit, d_src, d_ctr, member


@_kernel
def force_chunk(record, f_der, phi_bank, symmetry, force_rows, e_flat=None):
    starts, ctr, src, r, unit, d_src, d_ctr, member = record
    n, n_tiles = len(_arr(ctr, _I4, -1)), len(_arr(f_der, _F8, -1))
    _arr(src, _I4, n), _arr(unit, _F8, n, 3), _arr(force_rows, _F8, n_tiles, 3)
    _arr(r, _F8, n), _arr(d_src, _F8, n), _arr(d_ctr, _F8, n)
    e_both = None
    if e_flat is not None:
        _arr(e_flat, _F8, n_tiles)
        e_both = np.zeros(n_tiles) if symmetry else None
    rows = _rows(_arr(starts, _I8, -1), n)
    _c("force_chunk", starts, len(starts) - 1, ctr, src, r, unit, d_src,
       d_ctr, *_member(member, n), _bank(phi_bank), f_der, n_tiles,
       bool(symmetry), force_rows, e_flat, e_both, np.empty((rows, 3)))


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
        pos, i, j, lengths, periodic, 3.0, inclusive=False, compute_r=True
    )
    x, member = rng.uniform(0.0, 4.0, p), rng.integers(0, 3, p)
    out["grouped_spline_eval"] = backend.grouped_spline_eval(phi, x, member)
    out["spline_eval"] = backend.spline_eval(rho[0], member, x)
    out["accumulate_scalar"] = (backend.accumulate_scalar(ki, r, n),)
    out["accumulate_vec3"] = (backend.accumulate_vec3(kj, rij, n),)
    out["fused_density_pass"] = _, d_ji, d_ij = backend.fused_density_pass(
        ki, kj, r, types[ki], types[kj], rho, n
    )
    out["fused_force_pass"] = backend.fused_force_pass(
        ki, kj, rij, r, f_der, d_ji, d_ij, phi,
        phi_index[types[ki], types[kj]], n,
    )
    # the wafer's chunk kernels: three offsets, tiles unique per offset
    ctr = np.concatenate([rng.permutation(n)[:200] for _ in range(3)])
    src = ((ctr + np.repeat([1, 7, 19], 200)) % n).astype(np.int32)
    ctr, starts = ctr.astype(np.int32), np.arange(0, 601, 200, dtype=np.int32)
    rho_flat, int_flat = np.zeros(n), np.zeros(n, dtype=np.int64)
    record = backend.density_chunk(
        pos, (starts, ctr, src), lengths, periodic, 3.0, types, rho,
        phi_index, True, rho_flat, int_flat,
    )
    out["density_chunk"] = (*record, rho_flat, int_flat)
    force, e_flat = np.zeros((n, 3)), np.zeros(n)
    backend.force_chunk(record, f_der, phi, True, force, e_flat)
    out["force_chunk"] = force, e_flat
    return out


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
