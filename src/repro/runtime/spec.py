"""Declarative run configuration: the :class:`RunSpec`.

A spec names everything that determines a trajectory — workload
(element, slab replications, temperature), engine, timestep, thermostat,
swap interval, duration and seed — in one frozen dataclass loadable
from TOML or JSON.  The engine factory (:mod:`repro.runtime.engines`)
turns a spec into a running engine; two engines built from the same
spec produce the same physics, and two *reference* engines built from
the same spec produce bit-identical trajectories.

Validation is strict and loud: unknown keys, out-of-range values and
unsupported combinations raise :class:`SpecError` at parse time, never
silently at step 10,000 of a campaign.

Each field is declared once, with its ``metadata`` (``help``, and where
they apply ``choices``, ``min``/``above`` bounds and ``physics``).
:data:`PHYSICS_FIELDS`, the per-field range checks, :meth:`RunSpec.to_dict`
and the CLI's spec flags (:func:`repro.cli.add_spec_flags`) are all
derived from that metadata; only the cross-field rules are written out.

:meth:`RunSpec.spec_hash` digests only the physics-determining fields
(not ``steps``, ``backend`` or checkpointing knobs), so a checkpoint
written under a spec can be resumed with a longer ``steps`` or a
different kernel backend but never with different physics.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.potentials.elements import ELEMENTS

__all__ = ["SpecError", "ThermostatSpec", "RunSpec", "PHYSICS_FIELDS"]

ENGINES = ("reference", "wse")
THERMOSTAT_KINDS = ("berendsen", "langevin")
#: ``repro.parallel.transport.TRANSPORTS`` plus ``auto``, spelled out so
#: that parsing a spec (and building the CLI parser) does not import the
#: parallel tier; ``tests/runtime/test_spec.py`` pins the two together.
TRANSPORT_CHOICES = ("auto", "shared", "socket", "inline")


def _spec_field(default, help: str, **meta):
    """A :class:`RunSpec` field carrying its own declaration metadata."""
    return field(default=default, metadata={"help": help, **meta})


class SpecError(ValueError):
    """A run spec is malformed, out of range, or inconsistent."""


def _is_int(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number (an int counts), but not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class ThermostatSpec:
    """Temperature-control section of a run spec.

    ``tau_fs`` is the Berendsen coupling time or the Langevin damping
    time (both in femtoseconds; LAMMPS conventions).
    """

    kind: str
    temperature: float
    tau_fs: float = 100.0

    def __post_init__(self) -> None:
        if self.kind not in THERMOSTAT_KINDS:
            raise SpecError(
                f"unknown thermostat kind {self.kind!r}; "
                f"expected one of {THERMOSTAT_KINDS}"
            )
        for name in ("temperature", "tau_fs"):
            if not _is_finite(getattr(self, name)):
                raise SpecError(
                    f"thermostat {name} must be a finite number, "
                    f"got {getattr(self, name)!r}"
                )
        if self.temperature < 0:
            raise SpecError(
                f"thermostat temperature must be >= 0, got {self.temperature}"
            )
        if self.tau_fs <= 0:
            raise SpecError(f"thermostat tau_fs must be > 0, got {self.tau_fs}")

    @classmethod
    def from_dict(cls, data: dict) -> "ThermostatSpec":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise SpecError(f"unknown thermostat keys: {sorted(unknown)}")
        if "kind" not in data or "temperature" not in data:
            raise SpecError("thermostat requires 'kind' and 'temperature'")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "temperature": float(self.temperature),
            "tau_fs": float(self.tau_fs),
        }


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one MD run.

    Each field's metadata (see the module docstring) is its machine-read
    declaration — the ``help`` line is what ``repro run --help`` prints;
    the entries below carry the semantics and the reasons.

    Attributes
    ----------
    element:
        Benchmark metal (``Cu``, ``W``, ``Ta``).
    reps:
        Thin-slab unit-cell replications ``(nx, ny, nz)``.
    temperature:
        Initial Maxwell-Boltzmann temperature (K); 0 leaves atoms cold.
    engine:
        ``"reference"`` (the LAMMPS-analogue loop) or ``"wse"`` (the
        lockstep wafer machine).
    steps:
        Run length in timesteps.
    seed:
        Master seed; split into independent named streams
        (:mod:`repro.runtime.rng`) so the spec fully determines the
        trajectory.
    dt_fs:
        Timestep (femtoseconds; the paper uses 2 fs).
    skin:
        Verlet-list skin (A), honoured by both engines: the list is
        built at ``cutoff + skin`` and reused until an atom has moved
        ``skin / 2``.  0 rebuilds every step (on ``wse``: exchanges and
        filters every step, the paper's policy).  The list only decides
        how often the filter runs; trajectories do not depend on it on
        ``wse``.
    backend:
        Kernel tier (``numpy``, ``native``; ``None`` keeps the active
        one, ``native`` where a C compiler exists, else ``numpy`` —
        bitwise the same trajectory) or ``parallel``: the reference
        engine sharded on the default tier.  Only ``parallel`` takes
        the layout fields below; with any other backend they are an
        error, never silently ignored.
    workers:
        Shard count for the ``parallel`` backend (0 = one per usable
        CPU).  Like ``backend``, it changes speed, never physics:
        trajectories are bitwise-reproducible per worker count and
        ``workers=1`` matches the serial path bitwise.
    topology:
        Domain-grid shape ``(px, py)`` for the ``parallel`` backend's
        2D decomposition (``None`` takes the most nearly square grid of
        the worker count, e.g. 2x2 for 4; accepts a ``"PXxPY"`` string
        in spec files).  Implies ``px * py`` workers — setting
        ``workers`` to a conflicting count is an error.  Like
        ``workers``, a layout/speed knob, never physics: trajectories
        are bitwise-reproducible per (topology, transport) and
        excluded from the spec hash.
    transport:
        How the sharded pipeline reaches its workers: ``"shared"``
        (fork + shared memory), ``"socket"`` (the same protocol over
        loopback TCP), ``"inline"`` (virtual workers inside the parent
        process — the zero-IPC tier for hosts with fewer cores than
        workers), or ``"auto"`` (the default: inline when the host is
        core-starved, shared otherwise).  Never physics — every
        transport produces bitwise-identical trajectories — so it is
        excluded from the spec hash.
    thermostat:
        Optional temperature control applied every step.  ``langevin``
        requires the reference engine (per-atom noise needs a stable
        atom order); ``berendsen`` runs on both.
    swap_interval:
        WSE atom-swap remapping interval (0 disables); ignored by
        ``reference``.
    force_symmetry:
        WSE half-neighborhood optimization (Sec. VI-A); ignored by
        ``reference``.
    checkpoint_interval:
        Write a checkpoint every N steps when the runner is given a
        checkpoint prefix (0 = only a final checkpoint).
    """

    element: str = _spec_field(
        "Ta", "benchmark metal", choices=tuple(ELEMENTS), physics=True)
    reps: tuple[int, int, int] = _spec_field(
        (8, 8, 3), "thin-slab unit-cell replications NX NY NZ", physics=True)
    temperature: float = _spec_field(
        290.0, "initial Maxwell-Boltzmann temperature in K (0 = cold)",
        min=0, physics=True)
    engine: str = _spec_field(
        "reference", "reference (LAMMPS-analogue loop) or wse (lockstep "
        "wafer machine)", choices=ENGINES, physics=True)
    steps: int = _spec_field(100, "run length in timesteps", min=0)
    seed: int = _spec_field(
        0, "master seed of the run's random streams", min=0, physics=True)
    dt_fs: float = _spec_field(
        2.0, "timestep in fs (the paper uses 2)", above=0, physics=True)
    skin: float = _spec_field(
        0.5, "Verlet-list skin in A (0 = rebuild/filter every step)",
        min=0, physics=True)
    backend: str | None = _spec_field(
        None, "kernel tier (numpy, native; default: native, bitwise numpy, "
        "numpy where no C compiler exists) or parallel (the reference "
        "engine sharded over --workers/--topology/--transport)")
    workers: int = _spec_field(
        0, "worker processes for the parallel backend on the reference "
        "engine (0 = one per CPU)", min=0)
    topology: tuple[int, int] | None = _spec_field(
        None, "2D domain grid PXxPY for the parallel backend (e.g. 2x2; "
        "implies px*py workers; default: the most nearly square grid "
        "of the worker count)")
    transport: str | None = _spec_field(
        None, "parallel-backend transport (default: auto - inline on "
        "core-starved hosts, else shared memory)", choices=TRANSPORT_CHOICES)
    thermostat: ThermostatSpec | None = _spec_field(
        None, "temperature-control table (kind, temperature, tau_fs); "
        "spec-file only", physics=True)
    swap_interval: int = _spec_field(
        0, "wse atom-swap remapping interval (0 disables)",
        min=0, physics=True)
    force_symmetry: bool = _spec_field(
        False, "wse half-neighborhood optimization (Sec. VI-A)", physics=True)
    checkpoint_interval: int = _spec_field(
        0, "also checkpoint every N steps (0 = only a final checkpoint)",
        min=0)

    def __post_init__(self) -> None:
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None:
                continue
            # the declared type: a NaN passes every range check below,
            # and a float step count or seed fails only at engine build
            if type(f.default) is int and not _is_int(value):
                raise SpecError(f"{f.name} must be an integer, got {value!r}")
            if type(f.default) is float and not _is_finite(value):
                raise SpecError(
                    f"{f.name} must be a finite number, got {value!r}"
                )
            if "choices" in meta and value not in meta["choices"]:
                raise SpecError(
                    f"unknown {f.name} {value!r}; "
                    f"expected one of {meta['choices']}"
                )
            if "min" in meta and value < meta["min"]:
                raise SpecError(
                    f"{f.name} must be >= {meta['min']}, got {value}"
                )
            if "above" in meta and value <= meta["above"]:
                raise SpecError(
                    f"{f.name} must be > {meta['above']}, got {value}"
                )
        reps = tuple(int(r) for r in self.reps)
        if len(reps) != 3 or any(r < 1 for r in reps):
            raise SpecError(f"reps must be three positive ints, got {self.reps}")
        object.__setattr__(self, "reps", reps)
        if self.topology is not None:
            topo = self.topology
            if isinstance(topo, str):
                parts = topo.lower().split("x")
                if len(parts) != 2 or not all(p.isdigit() for p in parts):
                    raise SpecError(
                        f"topology must be 'PXxPY', got {self.topology!r}"
                    )
                topo = (int(parts[0]), int(parts[1]))
            try:
                topo = tuple(int(p) for p in topo)
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"topology must be two positive ints, got {self.topology!r}"
                ) from exc
            if len(topo) != 2 or topo[0] < 1 or topo[1] < 1:
                raise SpecError(
                    f"topology must be two positive ints, got {self.topology!r}"
                )
            object.__setattr__(self, "topology", topo)
            if self.workers and self.workers != topo[0] * topo[1]:
                raise SpecError(
                    f"workers={self.workers} conflicts with topology "
                    f"{topo[0]}x{topo[1]} ({topo[0] * topo[1]} domains)"
                )
        if isinstance(self.thermostat, dict):
            object.__setattr__(
                self, "thermostat", ThermostatSpec.from_dict(self.thermostat)
            )
        if (
            self.thermostat is not None
            and self.thermostat.kind == "langevin"
            and self.engine == "wse"
        ):
            raise SpecError(
                "langevin thermostat requires engine='reference' "
                "(per-atom noise needs a stable atom order)"
            )
        layout = [n for n in ("workers", "topology", "transport")
                  if getattr(self, n)]
        if self.engine == "wse" and layout:
            raise SpecError(
                f"{', '.join(layout)} requires engine='reference': the "
                "wse engine is never sharded and sizes its sweep threads "
                "itself, one per usable CPU (DESIGN.md §5b)"
            )
        if layout and self.backend != "parallel":
            raise SpecError(
                f"{', '.join(layout)} set with backend={self.backend!r}: "
                "a domain layout shards the reference engine and needs "
                "backend='parallel'"
            )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build a spec from a plain mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a table/object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("thermostat"), dict):
            data["thermostat"] = ThermostatSpec.from_dict(data["thermostat"])
        try:
            return cls(**data)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
                raise SpecError(f"invalid TOML in {path}: {exc}") from exc
        elif suffix == ".json":
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        else:
            raise SpecError(
                f"unsupported spec format {suffix!r} for {path}; "
                "expected .toml or .json"
            )
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """JSON/TOML-ready plain mapping (inverse of :meth:`from_dict`).

        Every field that is set, in declaration order; an unset
        (``None``) field is omitted, since TOML has no null.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, ThermostatSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            elif f.default is not None:
                # the declared scalar type, so numpy scalars and ints
                # given for float fields serialize as plain JSON
                value = type(f.default)(value)
            out[f.name] = value
        return out

    def with_engine(self, engine: str) -> "RunSpec":
        """Copy of this spec targeting a different engine."""
        return replace(self, engine=engine)

    def spec_hash(self) -> str:
        """Digest of the physics-determining fields (see module docs)."""
        payload = {}
        for name in PHYSICS_FIELDS:
            value = getattr(self, name)
            if isinstance(value, ThermostatSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


#: Fields that determine the trajectory (hashed for checkpoint
#: compatibility).  ``steps`` is run *length*, ``backend``/``workers``
#: are run *speed*, ``checkpoint_interval`` is bookkeeping — none
#: change physics, so all are excluded.
PHYSICS_FIELDS = tuple(
    f.name for f in fields(RunSpec) if f.metadata.get("physics")
)
