"""Seam-row byte accounting and the topology x transport matrix.

The acceptance bars pinned here: with the ranks stepping their own
atoms a steady step moves *only* the partial sums of seam rows (rows
local to more than one tile) — exactly ``seam rows x 40 B``, counted
here from the tile id lists alone — so the traffic does not grow with
the slab along an axis that does not lengthen the seam, grows
sub-linearly when one does, and sits far below the whole-pack protocol
it replaced; full state moves only on a rebuild round and on the exit
pull.  Trajectories agree with the serial path across every
{1x2, 2x2, 4x1} x {shared, socket, inline} pairing, bitwise across
transports for a fixed topology — and bitwise equal to position digests
recorded before the transport layer was rebuilt as one round driver
over three byte movers, and to a longer matrix recorded before the
ranks took over the stepping.  Steady steps reuse their staging buffers
instead of allocating fresh packs.  The skin-trigger property rides
along: rebuilding every step (``skin=0.0``) reproduces the lazy-reuse
trajectory to seam-reduction tolerance.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.kernels import active_backend_name, set_backend
from repro.md.integrators import LeapfrogVerlet
from repro.parallel import ShardedForcePipeline, fork_available
from repro.potentials.elements import make_element_potential
from repro.runtime import RunSpec, build_engine
from tests.conftest import small_slab_state

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)

#: Bytes per seam row and direction in one steady step: the density
#: partial before the force round, the pair-energy and force partials
#: before the move.
SEAM_ROW_BYTES = 8 + 8 + 24
#: Bytes per row of full state: positions + velocities pulled, and the
#: same plus the int64 type pushed to a tile on a rebuild.
PULL_ROW_BYTES = 24 + 24
PUSH_ROW_BYTES = PULL_ROW_BYTES + 8
#: What the protocol this replaced moved per local row and step
#: (positions and F' scattered whole, rho / epair / forces gathered).
WHOLE_PACK_ROW_BYTES = 72


@pytest.fixture(autouse=True)
def _restore_backend():
    base = active_backend_name()
    yield
    set_backend(base)


def _sharded(reps, topology, transport):
    state = small_slab_state("Ta", reps, temperature=350.0)
    with warnings.catch_warnings():
        # tiny slabs trip the (correct) halo-dominated advisory
        warnings.simplefilter("ignore", RuntimeWarning)
        pipe = ShardedForcePipeline(
            state, make_element_potential("Ta"),
            topology=topology, transport=transport,
        )
    return state, pipe


def _seam_rows(pipe) -> tuple[int, int]:
    """(rows routed to holders, rows staged by holders) of one seam
    channel, counted from the tile id lists alone."""
    ids = pipe._ids
    holders = np.bincount(np.concatenate(ids), minlength=pipe.n_atoms)
    seam = [i[holders[i] > 1] for i in ids]
    routed = sum(
        len(np.intersect1d(a, b))
        for k, a in enumerate(seam) for m, b in enumerate(seam) if m != k
    )
    return routed, sum(len(rows) for rows in seam)


def _traffic(reps, topology=(2, 2), transport="inline", steady=2):
    """Byte deltas of a first ``advance(1)`` (rebuild + step + pull) and
    of a following ``advance(steady)`` (steps + pull), with the counts
    they are to be explained by."""
    state, pipe = _sharded(reps, topology, transport)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pipe.advance(state, 1, LeapfrogVerlet(2.0))
        first = np.array(pipe.halo_bytes)
        pipe.advance(state, steady, LeapfrogVerlet(2.0))
        later = np.array(pipe.halo_bytes) - first
        assert pipe.n_builds == 1  # the later steps were all steady
        routed, staged = _seam_rows(pipe)
        return {
            "n": state.n_atoms, "local": sum(len(i) for i in pipe._ids),
            "ghost": pipe.ghost_atoms, "routed": routed, "staged": staged,
            "first": first, "later": later, "steady": steady,
        }
    finally:
        pipe.close()


def _step_bytes(t) -> int:
    """Sent + received bytes of one steady step (the exit pull removed)."""
    return int(t["later"].sum() - t["n"] * PULL_ROW_BYTES) // t["steady"]


class TestHaloBytes:
    @pytest.mark.parametrize("transport", ("inline", "socket", "shared"))
    def test_steady_step_moves_exactly_the_seam_rows(self, transport):
        """Per-step bytes = seam rows x channel bytes, both directions.

        The pin that replaces ``(n + ghost) x 72``: every holder stages
        its seam rows' three partial sums and is routed the other
        holders' — nothing that scales with the tile interior moves.
        The socket arm is the CI distributed leg's byte gate — a volume
        assertion, deliberately not a wall-clock one.
        """
        t = _traffic((8, 8, 2), transport=transport)
        assert t["ghost"] > 0
        sent, recv = t["later"]
        assert sent == t["steady"] * t["routed"] * SEAM_ROW_BYTES
        assert recv == (
            t["steady"] * t["staged"] * SEAM_ROW_BYTES
            + t["n"] * PULL_ROW_BYTES
        )

    def test_full_state_moves_only_on_rebuild_and_exit_pull(self):
        """The first chunk = one push + one step + one pull; every later
        chunk = its steps + one pull (asserted above).  Nothing else in
        the protocol carries a whole tile."""
        t = _traffic((8, 8, 2), topology=(1, 2))
        sent, recv = t["first"]
        assert sent == (
            t["local"] * PUSH_ROW_BYTES + t["routed"] * SEAM_ROW_BYTES
        )
        assert recv == (
            t["staged"] * SEAM_ROW_BYTES + t["n"] * PULL_ROW_BYTES
        )

    def test_steady_step_far_below_the_whole_pack_protocol(self):
        """On a slab wider than its halo the seam traffic is a fraction
        of what shipping every tile its whole pack twice a step cost."""
        t = _traffic((24, 12, 2))
        whole_pack = (t["n"] + t["ghost"]) * WHOLE_PACK_ROW_BYTES
        assert _step_bytes(t) <= 0.7 * whole_pack
        t = _traffic((16, 32, 2), topology=(1, 2))
        whole_pack = (t["n"] + t["ghost"]) * WHOLE_PACK_ROW_BYTES
        assert _step_bytes(t) <= 0.2 * whole_pack

    def test_bytes_unchanged_when_the_slab_grows_along_the_seam_normal(self):
        """1x2 cuts the slab with one seam along x: doubling y doubles
        the atoms and moves not one byte more per step."""
        a = _traffic((8, 8, 2), topology=(1, 2))
        b = _traffic((8, 16, 2), topology=(1, 2))
        assert b["n"] == 2 * a["n"]
        assert _step_bytes(b) == _step_bytes(a) > 0

    def test_bytes_grow_sublinearly_when_a_seam_lengthens(self):
        """Doubling x under 2x2 doubles the atoms but only the seam
        along x: traffic must grow — and by strictly less than 2x."""
        a = _traffic((12, 12, 2))
        b = _traffic((24, 12, 2))
        assert b["n"] == 2 * a["n"]
        assert _step_bytes(a) < _step_bytes(b) < 2 * _step_bytes(a)
        assert a["ghost"] < b["ghost"] < 2 * a["ghost"]

    @pytest.mark.parametrize("transport", ("inline", "shared"))
    def test_steady_steps_reuse_staging_buffers(self, transport):
        """Steady rounds allocate no new pack staging.

        The driver stages every routed pack into the mover's per-rank
        input buffers (arena rows under ``shared``); they must be the
        *same arrays* for every later step — the seam plan only changes
        on a rebuild, so per-step allocation would be pure churn.
        """
        state, pipe = _sharded((8, 8, 2), (2, 2), transport)

        def staging():
            return {
                (k, name): id(buf)
                for k, bufs in enumerate(pipe.transport._buffers)
                for name, buf in bufs.items()
            }

        try:
            integrator = LeapfrogVerlet(2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pipe.advance(state, 2, integrator)
            snap = staging()
            assert snap  # the staging path actually engaged
            pipe.advance(state, 3, integrator)
            assert pipe.n_builds == 1
            assert staging() == snap
        finally:
            pipe.close()

    def test_counts_on_the_ledger_slab_are_todays(self):
        """16k Ta on 1x2, seed 5, 40 steps: the exact counts the ledger
        compares, as recorded before the ranks took over the stepping."""
        engine = build_engine(RunSpec(
            element="Ta", reps=(20, 20, 20), seed=5, backend="parallel",
            workers=2, transport="shared",
        ))
        try:
            engine.step(1)
            engine.total_energy()
            engine.step(39)
            counters = engine.telemetry().counters
        finally:
            engine.close()
        assert counters["ghost_atoms"] == LEDGER_SLAB_COUNTS["ghost_atoms"]
        for key in ("neighbor_rebuilds", "force_evaluations",
                    "pairs_per_step"):
            assert counters[key] == LEDGER_SLAB_COUNTS[key], key


LEDGER_SLAB_COUNTS = {
    "ghost_atoms": 2400, "neighbor_rebuilds": 3,
    "force_evaluations": 41, "pairs_per_step": 104919.0,
}


def _run_trajectory(steps=5, seed=3, **spec_kwargs):
    spec = RunSpec(
        element="Ta", reps=(4, 4, 2), steps=steps, seed=seed,
        **spec_kwargs,
    )
    engine = build_engine(spec)
    try:
        engine.step(steps)
        n_builds = None
        if engine.sim._pipeline is not None:
            n_builds = engine.sim._pipeline.n_builds
        return (
            engine.state.positions.copy(),
            engine.total_energy(),
            n_builds,
        )
    finally:
        engine.close()


TOPOLOGIES = ((1, 2), (2, 2), (4, 1))
MATRIX_TRANSPORTS = ("shared", "socket", "inline")

#: SHA-256 of the float64 positions after 12 steps of
#: ``_run_trajectory`` (seed 3), recorded at the commit before the
#: transport layer was rebuilt (asynchronous halo publication still in
#: place): every transport agreed per layout, and ``w1`` is the serial
#: digest.  A change that alters pack contents, pack order or the
#: reduction order breaks these.
PINNED_SHA256 = {
    "w1": "e570b266c19c59734e19dd652528fbef6297785c48a5cee363bd8f94b03c71ee",
    "1x2": "6d2a19c1da3567630fb9c2e98e83fc78c61699e454295a089c8d6eb630b10a1b",
    "2x2": "35eef546c71ff483aa748cc244d8882326e3650135ada004f269d7216018777f",
    "4x1": "025c2f8f8afc3fa55983d7344af6b101e40d5377a14e3e8fd234b8022c8c5854",
}


def _sha256(positions: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(positions).tobytes()
    ).hexdigest()


class TestTrajectoryMatrix:
    @pytest.mark.parametrize(
        "topology", TOPOLOGIES, ids=lambda t: f"{t[0]}x{t[1]}"
    )
    def test_every_transport_matches_serial_bitwise_across(self, topology):
        """{topology} x {shared, socket, inline} vs the serial path.

        Physics agrees with serial to seam-reduction tolerance for
        every pairing, and for a fixed topology the three transports
        produce the bitwise-identical trajectory (same pack layout,
        same fixed-order reduction — the carrier cannot matter).
        """
        pos_ref, e_ref, _ = _run_trajectory()
        first = None
        for transport in MATRIX_TRANSPORTS:
            pos, e, _ = _run_trajectory(
                backend="parallel", topology=topology, transport=transport
            )
            assert abs(e - e_ref) / abs(e_ref) <= 1e-9, transport
            assert np.max(np.abs(pos - pos_ref)) < 1e-10, transport
            if first is None:
                first = (pos, e)
            else:
                assert np.array_equal(pos, first[0]), transport
                assert e == first[1], transport

    def test_serial_run_ends_on_the_w1_digest(self):
        # one tile owns every pair: w=1 is the serial run bit for bit
        pos, _, _ = _run_trajectory(steps=12)
        assert _sha256(pos) == PINNED_SHA256["w1"]

    @pytest.mark.parametrize("transport", MATRIX_TRANSPORTS)
    @pytest.mark.parametrize("layout", sorted(PINNED_SHA256))
    def test_positions_match_the_pinned_digest(self, layout, transport):
        """12 steps end on the bytes recorded before the refactor."""
        if layout == "w1":
            layout_kwargs = {"workers": 1}
        else:
            px, py = layout.split("x")
            layout_kwargs = {"topology": (int(px), int(py))}
        pos, _, _ = _run_trajectory(
            steps=12, backend="parallel", transport=transport,
            **layout_kwargs,
        )
        assert _sha256(pos) == PINNED_SHA256[layout]


class TestSkinTriggerProperty:
    def test_forced_rebuild_reproduces_lazy_reuse(self):
        """Rebuild-every-step vs skin-triggered reuse: same physics.

        Candidate reuse is a pure work-avoidance: the strict filter
        emits the identical pair set either way, so a ``skin=0.0`` twin
        (a forced rebuild every step) must reproduce the lazy
        trajectory.  Each forced step replans the grid, which reorders
        the seam reduction — so the bar is the cross-topology
        tolerance, not bitwise.  n_builds pins that the twin and the
        trigger actually took different paths.
        """
        steps = 8
        pos_lazy, e_lazy, nb_lazy = _run_trajectory(
            steps=steps, backend="parallel", topology=(2, 2),
            transport="inline",
        )
        assert nb_lazy < steps  # the skin trigger actually reused
        pos_forced, e_forced, nb_forced = _run_trajectory(
            steps=steps, backend="parallel", topology=(2, 2),
            transport="inline", skin=0.0,
        )
        assert nb_forced == steps  # a rebuild every step
        assert abs(e_forced - e_lazy) / abs(e_lazy) <= 1e-9
        assert np.max(np.abs(pos_forced - pos_lazy)) < 1e-10


# -- the long pinned matrix (recorded at the commit before shard-resident
# stepping: the parent still integrated, reduced and embedded) -----------

LONG_STEPS = 60


def _long_engine(**fields):
    """Ta 8x8x2 at 350 K: hot enough that 60 steps hold the first build
    plus >= 2 displacement rebuilds, each re-planning the balanced grid
    (atoms migrate between owners)."""
    return build_engine(RunSpec(
        element="Ta", reps=(8, 8, 2), temperature=350.0, seed=11,
        steps=LONG_STEPS, **fields,
    ))


def _layout_fields(layout: str) -> dict:
    if layout == "w1":
        return {"workers": 1}
    px, py = layout.split("x")
    return {"topology": (int(px), int(py))}


def _state_sha256(engine, *extra) -> str:
    """Positions, velocities and any extra float64 values, hashed."""
    state = engine.state
    digest = hashlib.sha256(np.ascontiguousarray(state.positions).tobytes())
    digest.update(np.ascontiguousarray(state.velocities).tobytes())
    digest.update(np.asarray(extra, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _long_run(layout="1x2", transport="inline", chunks=(LONG_STEPS,),
              between=None, **fields):
    """Digest after stepping ``chunks``, calling ``between(engine)``
    after each chunk; its float returns are hashed along."""
    engine = _long_engine(
        backend="parallel", transport=transport, **_layout_fields(layout),
        **fields,
    )
    try:
        extra = []
        for n in chunks:
            engine.step(n)
            if between is not None:
                extra.append(between(engine))
        rebuilds = engine.telemetry().counters["neighbor_rebuilds"]
        return _state_sha256(engine, *extra), rebuilds
    finally:
        engine.close()


def _hand_edit(engine) -> float:
    """Nudge one atom near the 1x2 seam and kick another, in place."""
    state = engine.state
    i = int(np.argmin(np.abs(state.positions[:, 1] - state.positions[:, 1].mean())))
    state.positions[i] += (0.01, -0.02, 0.005)
    state.velocities[(i + 7) % state.n_atoms] *= 1.5
    return float(i)


LONG_PINNED_SHA256 = {
    "w1": "b4f26296656c0e1a1d640e1762830e75e5407f49f7e93cdc016848b82a9fc7c0",
    "1x2": "24bc54143e5164a5a9cb9d3cfd625114d9e3829b59e759b51c5c42fdcde12fc5",
    "2x2": "1fce5e46a561c76f2ef1fcf5d8b2ff4e5b2d70f803c28a5ece3fcf4bb3af10f5",
    "4x1": "01c354806f9cfafaa9854e2167ed4ba19b5f4a677d5b9929f3e9896a48b595d5",
}

#: the same slab on 1x2 with a thermostat acting on the parent's state
#: every step
THERMOSTAT_PINNED_SHA256 = {
    "berendsen": "6c230bde68be64a60b1344ff780afdfa343453fd07c55e80d34899a85e82fef6",
    "langevin": "9b4b8fe1056c9599bd4b7fde85e9a5dc1d0dfb81a9412e264404f279668753a0",
}

#: 1x2 stepped as 6 x 10 with ``total_energy()`` asked / a hand edit
#: made between the chunks
ENERGY_QUERY_PINNED_SHA256 = "d2546cc73c555b1bab51ae1919d9ef2b51710cc9fa8a71aad78813d722a968af"
HAND_EDIT_PINNED_SHA256 = "1ad11f671bc21191f5eeee72e799180168d781839d98f568eb4cbf00472a97d7"


class TestLongPinnedMatrix:
    def test_serial_long_run_ends_on_the_w1_digest(self):
        engine = _long_engine()
        try:
            engine.step(LONG_STEPS)
            assert _state_sha256(engine) == LONG_PINNED_SHA256["w1"]
        finally:
            engine.close()

    @pytest.mark.parametrize("transport", MATRIX_TRANSPORTS)
    @pytest.mark.parametrize("layout", sorted(LONG_PINNED_SHA256))
    def test_long_run_matches_the_pinned_digest(self, layout, transport):
        sha, rebuilds = _long_run(layout, transport)
        assert rebuilds >= 3  # the first build + >= 2 re-planned grids
        assert sha == LONG_PINNED_SHA256[layout]

    @pytest.mark.parametrize("transport", MATRIX_TRANSPORTS)
    @pytest.mark.parametrize("kind", sorted(THERMOSTAT_PINNED_SHA256))
    def test_thermostat_run_matches_the_pinned_digest(self, kind, transport):
        sha, _ = _long_run(
            transport=transport,
            thermostat={"kind": kind, "temperature": 300.0, "tau_fs": 50.0},
        )
        assert sha == THERMOSTAT_PINNED_SHA256[kind]

    @pytest.mark.parametrize("transport", MATRIX_TRANSPORTS)
    def test_energy_queries_between_steps_match_the_pin(self, transport):
        sha, _ = _long_run(
            transport=transport, chunks=(10,) * 6,
            between=lambda engine: engine.total_energy(),
        )
        assert sha == ENERGY_QUERY_PINNED_SHA256

    @pytest.mark.parametrize("transport", MATRIX_TRANSPORTS)
    def test_hand_edits_between_steps_match_the_pin(self, transport):
        sha, _ = _long_run(
            transport=transport, chunks=(10,) * 6, between=_hand_edit,
        )
        assert sha == HAND_EDIT_PINNED_SHA256
