"""Sparse-halo byte accounting and the topology x transport matrix.

The acceptance bars pinned here: a steady 2x2 step moves strictly
fewer bytes than the full-broadcast protocol it replaced, the excess
over the owned-row minimum is *exactly* the ghost (boundary) rows —
so the traffic scales with boundary-atom count, and sub-linearly when
the slab doubles — and trajectories agree with the serial path across
every {1x2, 2x2, 4x1} x {shared, socket, inline} pairing, bitwise
across transports for a fixed topology — and bitwise equal to position
digests recorded before the transport layer was rebuilt as one round
driver over three byte movers.  Steady steps reuse their staging
buffers instead of allocating fresh packs.  The skin-trigger property
rides along: rebuilding every step (``skin=0.0``) reproduces the
lazy-reuse trajectory to seam-reduction tolerance.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.kernels import active_backend_name, set_backend
from repro.parallel import ShardedForcePipeline, fork_available
from repro.parallel.pipeline import _ROW_BYTES
from repro.runtime import RunSpec, build_engine
from tests.conftest import small_slab_state

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)

#: Bytes per atom row crossing the transport in one steady step:
#: positions and f_der scatter in, rho / epair / forces gather out.
_STEP_CHANNELS = ("positions", "f_der", "rho", "epair", "forces")
_STEP_ROW_BYTES = sum(_ROW_BYTES[c] for c in _STEP_CHANNELS)


@pytest.fixture(autouse=True)
def _restore_backend():
    base = active_backend_name()
    yield
    set_backend(base)


def _steady_step_bytes(reps, topology=(2, 2), transport="inline"):
    """(n_atoms, ghost_atoms, sent+recv bytes of one steady step)."""
    from repro.potentials.elements import make_element_potential

    state = small_slab_state("Ta", reps, temperature=350.0)
    pot = make_element_potential("Ta")
    with warnings.catch_warnings():
        # tiny slabs trip the (correct) halo-dominated advisory
        warnings.simplefilter("ignore", RuntimeWarning)
        pipe = ShardedForcePipeline(
            state, pot, topology=topology, transport=transport
        )
        try:
            pipe.compute(state.positions)  # rebuild step
            sent0, recv0 = pipe.halo_bytes
            pipe.compute(state.positions)  # steady step: reuse round
            sent1, recv1 = pipe.halo_bytes
            return (
                state.n_atoms,
                pipe.ghost_atoms,
                (sent1 - sent0) + (recv1 - recv0),
            )
        finally:
            pipe.close()


class TestHaloBytes:
    @pytest.mark.parametrize("transport", ("inline", "socket"))
    def test_steady_2x2_step_below_full_broadcast(self, transport):
        """Sparse packs beat the PR-7 full-broadcast volume strictly.

        The broadcast protocol shipped every per-step channel whole to
        every worker: ``n_atoms x row_bytes x n_workers`` per channel.
        Sparse packs carry one row per *local* (owned + ghost) atom
        instead, and ghosts never replicate the whole system.  The
        socket arm is the CI distributed leg's byte gate — a volume
        assertion, deliberately not a wall-clock one.
        """
        n, ghost, sparse = _steady_step_bytes((8, 8, 2), transport=transport)
        broadcast = n * 4 * _STEP_ROW_BYTES
        assert sparse < broadcast
        # comfortably below, not within rounding of it
        assert sparse <= 0.6 * broadcast

    def test_steady_step_excess_is_exactly_ghost_rows(self):
        """Per-step bytes = (owned + ghost) rows: boundary-scaled.

        Pins the accounting to *actual* sparse pack sizes — the excess
        over the ``n_atoms`` minimum is precisely the ghost-row count
        the decomposition reports, so halo traffic provably scales
        with boundary atoms, not system size.
        """
        n, ghost, sparse = _steady_step_bytes((8, 8, 2))
        assert ghost > 0
        assert sparse == (n + ghost) * _STEP_ROW_BYTES

    @pytest.mark.parametrize("transport", ("inline", "shared"))
    def test_steady_steps_reuse_staging_buffers(self, transport):
        """Steady rounds allocate no new pack staging (grow-only scratch).

        After the first steady step has sized every staging buffer, the
        transport's ``_PackStage`` and the pipeline's reduction scratch
        must be the *same arrays* for every later step — id lists only
        change on a rebuild, so per-step allocation would be pure churn.
        """
        from repro.potentials.elements import make_element_potential

        state = small_slab_state("Ta", (8, 8, 2), temperature=350.0)
        pot = make_element_potential("Ta")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pipe = ShardedForcePipeline(
                state, pot, topology=(2, 2), transport=transport
            )
        def staging():
            tr = pipe.transport
            if hasattr(tr, "_stage"):  # shared/socket: _PackStage scratch
                return tr._stage._bufs
            # inline: pre-sized per-rank input buffers are the staging
            return {
                (k, name): buf
                for k, bufs in enumerate(tr._buffers)
                for name, buf in bufs.items()
            }

        try:
            pipe.compute(state.positions)  # rebuild: sizes everything
            pipe.compute(state.positions)  # first steady round
            scratch = pipe._concat
            snap_stage = {k: id(v) for k, v in staging().items()}
            snap_scratch = {k: id(v) for k, v in scratch.items()}
            assert snap_stage  # the staging path actually engaged
            for _ in range(3):
                pipe.compute(state.positions)
            assert {k: id(v) for k, v in staging().items()} == snap_stage
            assert {k: id(v) for k, v in scratch.items()} == snap_scratch
        finally:
            pipe.close()

    def test_ghost_rows_grow_sublinearly_with_doubled_slab(self):
        """Doubling the slab grows ghosts by strictly less than 2x.

        Ghost rows live on tile boundary *area*; doubling one in-plane
        axis doubles the atom count but only the seams parallel to
        that axis, so the ghost count must grow — and grow sub-linearly.
        """
        n_a, ghost_a, _ = _steady_step_bytes((4, 4, 2))
        n_b, ghost_b, _ = _steady_step_bytes((8, 4, 2))
        assert n_b == 2 * n_a
        assert ghost_a < ghost_b < 2 * ghost_a


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
