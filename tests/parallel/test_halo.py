"""Ghost-row byte accounting and the topology x transport matrix.

The acceptance bars pinned here: with every rank stepping its tile as
the serial engine, a steady step moves *only* ghost rows' positions,
each from its owner — exactly ``ghost rows x 24 B`` sent and ``exported
rows x 24 B`` received, counted here from the tile id lists alone — so
the traffic does not grow with the slab along an axis that does not
lengthen a seam, grows sub-linearly when one does, and sits far below
a protocol that shipped every tile its whole pack; full state moves
only on a re-plan round and on the exit pull.  Trajectories agree with
the serial path across every {1x2, 2x2, 4x1} x {shared, socket,
inline} pairing, bitwise across transports for a fixed topology — and
bitwise equal to pinned position digests: a 12-step and a longer
matrix, each w > 1 digest last re-recorded when a rank became the
serial engine on its tile.  Steady steps reuse their staging buffers
instead of allocating fresh packs.  The skin-trigger property rides
along: re-planning every step (``skin=0.0``) reproduces the lazy-reuse
trajectory to the cross-topology tolerance.
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

#: Bytes per routed row and direction in one steady step: a position.
GHOST_ROW_BYTES = 24
#: Bytes per row of full state: positions + velocities pulled, and the
#: same plus the int64 type pushed to a tile on a re-plan.
PULL_ROW_BYTES = 24 + 24
PUSH_ROW_BYTES = PULL_ROW_BYTES + 8
#: What a protocol shipping every tile its whole pack moved per local
#: row and step (positions and F' scattered whole, rho / epair / forces
#: gathered).
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


def _ghost_rows(pipe) -> tuple[int, int]:
    """(ghost rows summed over tiles, distinct rows they copy), counted
    from the tile id lists alone."""
    ghosts = [
        np.setdiff1d(ids, own) for ids, own in zip(pipe._ids, pipe._own_ids)
    ]
    return (sum(len(g) for g in ghosts),
            len(np.unique(np.concatenate(ghosts))))


def _traffic(reps, topology=(2, 2), transport="inline", steady=2):
    """Byte deltas of a first ``advance(1)`` (plan + step + pull) and
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
        ghost, exported = _ghost_rows(pipe)
        assert ghost == pipe.ghost_atoms
        return {
            "n": state.n_atoms, "local": sum(len(i) for i in pipe._ids),
            "ghost": ghost, "exported": exported,
            "first": first, "later": later, "steady": steady,
        }
    finally:
        pipe.close()


def _step_bytes(t) -> int:
    """Sent + received bytes of one steady step (the exit pull removed)."""
    return int(t["later"].sum() - t["n"] * PULL_ROW_BYTES) // t["steady"]


class TestHaloBytes:
    @pytest.mark.parametrize("transport", ("inline", "socket", "shared"))
    def test_steady_step_moves_exactly_the_ghost_rows(self, transport):
        """Per-step bytes = ghost rows x 24 B out, exported rows x 24 B
        in.

        Each owner stages every row some tile holds as a ghost once,
        and each holder is sent its ghosts' positions — nothing that
        scales with the tile interior moves.  The socket arm is the CI
        distributed leg's byte gate — a volume assertion, deliberately
        not a wall-clock one.
        """
        t = _traffic((8, 8, 2), transport=transport)
        assert t["ghost"] > t["exported"] > 0  # 2x2: corners fan out
        sent, recv = t["later"]
        assert sent == t["steady"] * t["ghost"] * GHOST_ROW_BYTES
        assert recv == (
            t["steady"] * t["exported"] * GHOST_ROW_BYTES
            + t["n"] * PULL_ROW_BYTES
        )

    def test_full_state_moves_only_on_rebuild_and_exit_pull(self):
        """The first chunk = one push + one step + one pull, and its
        step routes nothing (the push left every ghost exact); every
        later chunk = its steps + one pull (asserted above).  Nothing
        else in the protocol carries a whole tile."""
        t = _traffic((8, 8, 2), topology=(1, 2))
        sent, recv = t["first"]
        assert sent == t["local"] * PUSH_ROW_BYTES
        assert recv == t["n"] * PULL_ROW_BYTES

    def test_steady_step_far_below_the_whole_pack_protocol(self):
        """On a slab wider than its shell the ghost traffic is a
        fraction of what shipping every tile its whole pack cost."""
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
        *same arrays* for every later step — the export plan only
        changes on a re-plan, so per-step allocation would be pure
        churn.
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
        """16k Ta on 2x1, seed 5, 40 steps: the exact counts the ledger
        compares.  ``neighbor_rebuilds`` and ``force_evaluations`` are
        the serial engine's; ``ghost_atoms`` and ``pairs_per_step`` (the
        pairs the ranks evaluate, shell included) were re-recorded when
        a rank became the serial engine on its tile."""
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
    "ghost_atoms": 4000, "neighbor_rebuilds": 3,
    "force_evaluations": 41, "pairs_per_step": 129408.0,
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
#: ``_run_trajectory`` (seed 3).  ``w1`` is the serial digest, recorded
#: at the commit before the transport layer was rebuilt.  The w > 1
#: digests were last re-recorded when each rank became a plain
#: ``Simulation`` over its owned rows and a ghost shell (one ``run(1)``
#: a step, no seam partial sums): on this small slab each owned row's
#: pair stream is the serial one in the serial order, so all three
#: equal ``w1``.  Before re-recording, every transport agreed bitwise
#: per layout and each layout stayed within this module's serial
#: bounds (1e-10 A, 1e-9 relative energy).  A change that alters the
#: shell, the ghost routing or a rank's pair order breaks these.
PINNED_SHA256 = {
    "w1": "e570b266c19c59734e19dd652528fbef6297785c48a5cee363bd8f94b03c71ee",
    "1x2": "e570b266c19c59734e19dd652528fbef6297785c48a5cee363bd8f94b03c71ee",
    "2x2": "e570b266c19c59734e19dd652528fbef6297785c48a5cee363bd8f94b03c71ee",
    "4x1": "e570b266c19c59734e19dd652528fbef6297785c48a5cee363bd8f94b03c71ee",
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

        Physics agrees with serial to the cross-topology tolerance
        for every pairing, and for a fixed topology the three
        transports produce the bitwise-identical trajectory (same
        packs, same rank computation — the carrier cannot matter).
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
        trajectory.  Each forced step re-plans the grid, which moves
        rows between ranks — so the bar is the cross-topology
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


# -- the long pinned matrix (``w1`` recorded at the commit before
# shard-resident stepping: the parent still integrated, reduced and
# embedded; every w > 1 digest below re-recorded when a rank became the
# serial engine on its tile, as PINNED_SHA256, after the same
# cross-transport and serial-bound checks at 60 steps: positions within
# 1.8e-15 A of serial, energies equal) ------------------------------------

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
    "1x2": "67183159f39e9df5be6935c39f83479f9c8c3edd76dfa8e89cd533d9a4ec64a9",
    "2x2": "f7420b41638096c34a71f3b3cddd2be15bff2ffb657a749b103405658e4ac80f",
    "4x1": "b023dae13c831dc3be7c986305ccf49ecf9f66bd40542fb9506d90dab4b11e5b",
}

#: the same slab on 1x2 with a thermostat acting on the parent's state
#: every step
THERMOSTAT_PINNED_SHA256 = {
    "berendsen": "2e43875cc75f7e428e34810783bbef63cdc953390fef6f73e038b9d308c6ffa2",
    "langevin": "7d99ddee8a32ccaa61ccc4603eaf0729e52e8ac3103c3bfa9828798c9d952300",
}

#: 1x2 stepped as 6 x 10 with ``total_energy()`` asked / a hand edit
#: made between the chunks
ENERGY_QUERY_PINNED_SHA256 = "8610ab975a5387bfe70a36ea51a7f43803af8d187426d40cfe8e02abffbb7da3"
HAND_EDIT_PINNED_SHA256 = "26a70f80236e3ef780ffdce2edf131f05f02d03f4646481768f22d8b444e2993"


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
