"""Ghost-brick exchange: distributed halos must match the periodic oracle."""

import numpy as np
import pytest

from repro.bricks import BatchedGrid, BrickedArray, BrickGrid
from repro.comm import CartTopology, HaloExchange, SimComm
from repro.gmg.boundary import BoundaryCondition, BoundaryFill
from repro.gmg.problem import rhs_field
from repro.instrument import Recorder
from tests.conftest import zero_ghost


def stacked_fields(grid, blocks, content=None, dtype=np.float64):
    """One stacked field of ``blocks`` blocks of ``grid`` — any storage
    ordering — holding ``content`` (zeros if omitted): what an exchange
    takes, and its block views, one per rank, as a level makes them:
    ``(stacked, views)``."""
    stacked = BrickedArray.zeros(
        grid if blocks == 1 else BatchedGrid(grid, blocks), dtype=dtype
    )
    if content is not None:
        stacked.data[...] = content
    S = grid.num_slots
    views = [
        BrickedArray(grid, stacked.data[k * S : (k + 1) * S], dtype)
        for k in range(blocks)
    ]
    return stacked, views


def make_rank_fields(topology, grid, global_dense):
    """Split a global dense array into a stacked field, rank by rank
    through its block views: ``(stacked, views)``."""
    cells = grid.shape_cells
    stacked, fields = stacked_fields(grid, topology.size)
    for rank, field in enumerate(fields):
        o = topology.subdomain_origin(rank, cells)
        field.set_interior(global_dense[
            o[0] : o[0] + cells[0], o[1] : o[1] + cells[1], o[2] : o[2] + cells[2]
        ])
    return stacked, fields


def check_ghosts_against_global(topology, grid, fields, global_dense):
    """Every ghost brick that faces a neighbour must hold the right
    global data: periodic wrap, or under walls only the ghosts inside
    the global domain (``test_boundary.py`` owns the outward fills).
    The reference is the dense array indexed by position: it shares no
    code with ``ExchangePlan``."""
    cells = grid.shape_cells
    B = grid.brick_dim
    N = global_dense.shape
    for rank, field in enumerate(fields):
        o = topology.subdomain_origin(rank, cells)
        for slot in grid.ghost_slots:
            lg = grid.slot_to_grid[slot] - grid.ghost_bricks
            start = [o[d] + lg[d] * B for d in range(3)]
            if not topology.periodic and any(
                not 0 <= start[d] < N[d] for d in range(3)
            ):
                continue
            idx = [np.mod(np.arange(start[d], start[d] + B), N[d]) for d in range(3)]
            expected = global_dense[np.ix_(*idx)]
            assert np.array_equal(field.data[slot], expected), (rank, tuple(lg))


class TestPayloadChecksum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_crc_is_of_the_c_order_bytes(self, rng, dtype):
        """Hashing the buffer in place changes no checksum on the wire."""
        import zlib

        from repro.comm import payload_checksum

        payload = rng.random((2, 5, 4, 4, 4)).astype(dtype)
        assert payload_checksum(payload) == zlib.crc32(payload.tobytes())
        strided = payload[:, ::2, :, 1:3]
        assert not strided.flags.c_contiguous
        assert payload_checksum(strided) == zlib.crc32(strided.tobytes())
        assert payload_checksum(strided) != payload_checksum(payload)


def one_rank_exchange(grid, recorder=None, boundary=None):
    """The exchanger of a solve whose one rank owns the whole domain."""
    condition = BoundaryCondition(boundary or "periodic")
    topo = CartTopology(
        (1, 1, 1), periodic=condition is BoundaryCondition.PERIODIC
    )
    return HaloExchange(grid, topo, SimComm(1), recorder, condition)


class TestSingleRankExchange:
    def test_fills_ghosts(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        dense = rng.random((8, 8, 8))
        field = BrickedArray.from_ijk(grid, dense)
        topo = CartTopology((1, 1, 1))
        one_rank_exchange(grid).exchange(0, [field])
        check_ghosts_against_global(topo, grid, [field], dense)

    def test_records_events(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        rec = Recorder()
        field = BrickedArray.from_ijk(grid, rng.random((8, 8, 8)))
        one_rank_exchange(grid, rec).exchange(3, [field])
        assert rec.exchange_counts() == {3: 1}
        assert rec.message_counts_by_level() == {3: 26}
        assert all(ev.self_message for ev in rec.messages)

    def test_rejects_partial_copies(self, rng):
        """Fields come in whole copies of the decomposition: a block
        count but a positive multiple of ``topology.size`` raises, and
        says so."""
        grid = BrickGrid((2, 2, 2), 4)
        for dims, count in [((2, 1, 1), 1), ((2, 1, 1), 3), ((4, 1, 1), 2)]:
            topo = CartTopology(dims)
            ex = HaloExchange(grid, topo, SimComm(topo.size))
            field, _ = stacked_fields(grid, count, rng.random((count * grid.num_slots, 4, 4, 4)))
            with pytest.raises(
                ValueError,
                match=rf"positive multiple of topology\.size={topo.size} .*got {count}$",
            ):
                ex.exchange(0, [field])

    def test_rejects_foreign_grid(self):
        """What makes a grid foreign is its geometry, not its identity:
        a congruent grid's fields exchange, any other geometry's raise."""
        grid = BrickGrid((2, 2, 2), 4)
        ex = one_rank_exchange(grid)
        ex.exchange(0, [BrickedArray.zeros(BrickGrid((2, 2, 2), 4))])
        with pytest.raises(ValueError, match="incompatible"):
            ex.exchange(0, [BrickedArray.zeros(BrickGrid((2, 2, 4), 4))])

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_walled_rank_synthesises_every_ghost(self, rng, boundary):
        """One rank with walls all round has no neighbour at all: an
        empty plan, no messages, every ghost from the boundary fill."""
        grid = BrickGrid((2, 2, 2), 4)
        rec = Recorder()
        ex = one_rank_exchange(grid, rec, boundary)
        assert ex.plan.num_messages == ex.plan.num_bricks == 0
        assert ex.plan.src.dtype == ex.plan.dst.dtype == np.int64
        assert ex.plan.pairs == ()
        content = rng.random((grid.num_slots, 4, 4, 4))
        got, want = BrickedArray(grid, content.copy()), BrickedArray(grid, content.copy())
        zero_ghost(want)
        BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition(boundary)).apply(want)
        ex.exchange(1, [got])
        assert got.data.tobytes() == want.data.tobytes()
        assert rec.exchange_counts() == {1: 1} and rec.messages == []
        assert ex.comm.sent_messages == 0 and ex.path_counts["planned"] == 1


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1)], ids=["local", "halo"])
def test_empty_field_lists_are_rejected_by_name(dims):
    """Accounting reads ``fields[0]``: an exchange of nothing must be
    refused in validation, not die there with a bare ``IndexError`` —
    in the stacked form and the per-rank one."""
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology(dims)
    ex = HaloExchange(grid, topo, SimComm(topo.size), recorder=Recorder())
    for nothing in ([], [[] for _ in range(topo.size)]):
        with pytest.raises(ValueError, match="nothing to exchange.*empty"):
            ex.exchange(0, nothing)
    assert ex.recorder.exchange_counts() == {}


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1)], ids=["1rank", "2ranks"])
@pytest.mark.parametrize(
    "wrong, named",
    [
        ({"ordering": "lexicographic"}, r"'lexicographic'\) != .*'surface-major'\)"),
        ({"ghost_bricks": 2}, r"4, 2, 'surface-major'\) != .*4, 1, 'surface-major'\)"),
    ],
    ids=["ordering", "ghost-depth"],
)
def test_fields_of_another_geometry_are_rejected_by_name(dims, wrong, named):
    """Same shape and brick, other slot order or shell depth: the plan's
    slot tables would scatter into the wrong bricks without an error."""
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology(dims)
    ex = HaloExchange(grid, topo, SimComm(topo.size), recorder=Recorder())
    ok, _ = stacked_fields(grid, topo.size)
    other, _ = stacked_fields(BrickGrid((2, 2, 2), 4, **wrong), topo.size)
    with pytest.raises(ValueError, match=f"incompatible.*{named}$"):
        ex.exchange(0, [ok, other])
    assert ex.recorder.exchange_counts() == {} and not other.data.any()


class TestHaloExchange:
    @pytest.mark.parametrize("dims", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 3, 1)])
    def test_distributed_ghosts_match_global(self, rng, dims, ordering):
        grid = BrickGrid((2, 2, 2), 4, ordering=ordering)
        topo = CartTopology(dims)
        N = tuple(8 * d for d in dims)
        global_dense = rng.random(N)
        stacked, fields = make_rank_fields(topo, grid, global_dense)
        comm = SimComm(topo.size)
        HaloExchange(grid, topo, comm).exchange(0, [stacked])
        check_ghosts_against_global(topo, grid, fields, global_dense)
        comm.assert_drained()

    def test_single_rank_equals_periodic_wrap(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        dense = rng.random((8, 8, 8))
        via_wrap = BrickedArray.from_ijk(grid, dense)
        via_wrap.fill_ghost_periodic()
        via_comm = BrickedArray.from_ijk(grid, dense)
        topo = CartTopology((1, 1, 1))
        HaloExchange(grid, topo, SimComm(1)).exchange(0, [via_comm])
        assert np.array_equal(via_comm.data, via_wrap.data)

    def test_aggregated_fields_share_messages(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        comm = SimComm(2)
        rec = Recorder()
        ex = HaloExchange(grid, topo, comm, rec)
        dense = rng.random((16, 8, 8))
        x, xs = make_rank_fields(topo, grid, dense)
        b, bs = make_rank_fields(topo, grid, dense + 1.0)
        ex.exchange(0, [x, b])
        # 26 messages per rank regardless of field count (aggregation)
        assert rec.message_counts_by_level() == {0: 52}
        check_ghosts_against_global(topo, grid, xs, dense)
        check_ghosts_against_global(topo, grid, bs, dense + 1.0)

    def test_unpack_free_flag_tracks_ordering(self):
        topo = CartTopology((2, 1, 1))
        comm = SimComm(2)
        sm = BrickGrid((4, 4, 4), 4, ordering="surface-major")
        lex = BrickGrid((4, 4, 4), 4, ordering="lexicographic")
        assert HaloExchange(sm, topo, comm).recv_is_unpack_free
        assert not HaloExchange(lex, topo, comm).recv_is_unpack_free

    def test_size_mismatch_rejected(self):
        grid = BrickGrid((2, 2, 2), 4)
        with pytest.raises(ValueError):
            HaloExchange(grid, CartTopology((2, 1, 1)), SimComm(3))

    def test_wrong_rank_count_rejected(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ex = HaloExchange(grid, topo, SimComm(2))
        f = BrickedArray.from_ijk(grid, rng.random((8, 8, 8)))
        with pytest.raises(ValueError):
            ex.exchange(0, [f])

    def test_mismatched_field_counts_rejected(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ex = HaloExchange(grid, topo, SimComm(2))
        f, _ = stacked_fields(grid, 2)
        g, _ = stacked_fields(grid, 4)
        with pytest.raises(ValueError, match="same blocks"):
            ex.exchange(0, [f, g])
        with pytest.raises(ValueError, match="same fields"):
            ex.exchange(0, [[f, g], [f]])

    def test_incompatible_field_grid_rejected(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ex = HaloExchange(grid, topo, SimComm(2))
        wrong, _ = stacked_fields(BrickGrid((4, 4, 4), 2), 2)
        ok, _ = stacked_fields(grid, 2)
        with pytest.raises(ValueError, match="incompatible"):
            ex.exchange(0, [ok, wrong])

    def test_ghost_size_mismatch_names_rank_direction_level(self, rng, monkeypatch):
        from repro.bricks.brick_grid import NEIGHBOR_DIRECTIONS, direction_index

        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ex = HaloExchange(grid, topo, SimComm(2))
        stacked, _ = make_rank_fields(topo, grid, rng.random((16, 8, 8)))
        # the sender's header on one envelope rank 0 reads claims 8 bytes
        d0 = NEIGHBOR_DIRECTIONS[0]
        short = (topo.neighbor(0, d0), 0, direction_index(tuple(-c for c in d0)))
        send = ex._send

        def misreport(level, src, dst, tag, direction, nbytes, *args, **kwargs):
            if (src, dst, tag) == short:
                nbytes = 8
            send(level, src, dst, tag, direction, nbytes, *args, **kwargs)

        monkeypatch.setattr(ex, "_send", misreport)
        monkeypatch.setattr(ex, "envelope_reason", lambda level=None: "forced")
        with pytest.raises(RuntimeError, match="ghost region size mismatch") as exc:
            ex.exchange(0, [stacked])
        assert "got 8 bytes, expected 512" in str(exc.value)
        assert "rank 0" in str(exc.value)
        assert f"direction {d0}" in str(exc.value)
        assert "level 0" in str(exc.value)

    def test_unmatched_receive_names_direction_and_level(self, monkeypatch):
        from repro.comm import UnmatchedReceiveError

        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ex = HaloExchange(grid, topo, SimComm(2))
        lost = next(m for m in ex.plan.messages if m.src_rank == 1)
        send = ex._send

        def losing(level, src, dst, tag, *args, **kwargs):
            if (src, dst, tag) != (1, 0, lost.tag):
                send(level, src, dst, tag, *args, **kwargs)

        monkeypatch.setattr(ex, "_send", losing)
        monkeypatch.setattr(ex, "envelope_reason", lambda level=None: "forced")
        stacked, _ = stacked_fields(grid, 2)
        with pytest.raises(UnmatchedReceiveError) as exc:
            ex.exchange(2, [stacked])
        assert (
            f"rank 0's ghost region along direction {lost.ghost_direction} "
            "at level 2"
        ) in str(exc.value)
        assert "deadlock" in str(exc.value)

    def test_exchange_with_rhs_field_data(self):
        """Exchange the actual model-problem RHS across 8 ranks."""
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 2, 2))
        dense = rhs_field((16, 16, 16), 1.0 / 16)
        stacked, fields = make_rank_fields(topo, grid, dense)
        comm = SimComm(8)
        HaloExchange(grid, topo, comm).exchange(0, [stacked])
        check_ghosts_against_global(topo, grid, fields, dense)
