"""Unit tests for the brick-grid index arithmetic and adjacency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks.brick_grid import (
    CENTER_DIRECTION_INDEX,
    DIRECTIONS,
    NEIGHBOR_DIRECTIONS,
    BrickGrid,
    direction_index,
    direction_kind,
    opposite_index,
)


class TestDirections:
    def test_there_are_27_directions(self):
        assert len(DIRECTIONS) == 27

    def test_center_index(self):
        assert DIRECTIONS[CENTER_DIRECTION_INDEX] == (0, 0, 0)

    def test_26_neighbor_directions(self):
        assert len(NEIGHBOR_DIRECTIONS) == 26
        assert (0, 0, 0) not in NEIGHBOR_DIRECTIONS

    def test_direction_index_roundtrip(self):
        for i, d in enumerate(DIRECTIONS):
            assert direction_index(d) == i

    def test_direction_index_rejects_bad_components(self):
        with pytest.raises(ValueError):
            direction_index((2, 0, 0))

    def test_opposite_index(self):
        for i, d in enumerate(DIRECTIONS):
            opp = DIRECTIONS[opposite_index(i)]
            assert opp == tuple(-c for c in d)

    def test_opposite_index_out_of_range(self):
        with pytest.raises(ValueError):
            opposite_index(27)
        with pytest.raises(ValueError):
            opposite_index(-1)

    def test_direction_kinds(self):
        assert direction_kind((0, 0, 0)) == "center"
        assert direction_kind((1, 0, 0)) == "face"
        assert direction_kind((1, -1, 0)) == "edge"
        assert direction_kind((1, 1, -1)) == "corner"

    def test_kind_census(self):
        kinds = [direction_kind(d) for d in NEIGHBOR_DIRECTIONS]
        assert kinds.count("face") == 6
        assert kinds.count("edge") == 12
        assert kinds.count("corner") == 8


class TestConstruction:
    def test_basic_shapes(self, small_grid):
        assert small_grid.shape_cells == (16, 12, 8)
        assert small_grid.extended_shape == (6, 5, 4)
        assert small_grid.num_slots == 120
        assert small_grid.num_interior == 24
        assert small_grid.cells_per_brick == 64
        assert small_grid.ghost_cells == 4

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            BrickGrid((0, 1, 1), 4)
        with pytest.raises(ValueError):
            BrickGrid((1, 1), 4)  # type: ignore[arg-type]

    def test_rejects_bad_brick_dim(self):
        with pytest.raises(ValueError):
            BrickGrid((2, 2, 2), 0)

    def test_rejects_negative_ghost(self):
        with pytest.raises(ValueError):
            BrickGrid((2, 2, 2), 4, ghost_bricks=-1)

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            BrickGrid((2, 2, 2), 4, ordering="zigzag")

    def test_zero_ghost_grid(self):
        g = BrickGrid((3, 3, 3), 2, ghost_bricks=0)
        assert g.num_slots == g.num_interior == 27
        assert len(g.ghost_slots) == 0


class TestCoordinates:
    def test_slot_of_is_bijective(self, small_grid):
        seen = set()
        g = small_grid.ghost_bricks
        for x in range(-g, 4 + g):
            for y in range(-g, 3 + g):
                for z in range(-g, 2 + g):
                    seen.add(small_grid.slot_of((x, y, z)))
        assert seen == set(range(small_grid.num_slots))

    def test_slot_of_out_of_range(self, small_grid):
        with pytest.raises(IndexError):
            small_grid.slot_of((5, 0, 0))
        with pytest.raises(IndexError):
            small_grid.slot_of((-2, 0, 0))

    def test_slot_to_grid_inverse(self, small_grid):
        coords = small_grid.slot_to_grid
        for slot in range(small_grid.num_slots):
            x, y, z = coords[slot]
            assert small_grid.grid_to_slot[x, y, z] == slot

    def test_interior_slots_are_lexicographic(self, small_grid):
        # interior order must follow interior grid coordinates so dense
        # round-trips are ordering-independent
        slots = small_grid.interior_slots
        expected = [
            small_grid.slot_of((x, y, z))
            for x in range(4)
            for y in range(3)
            for z in range(2)
        ]
        assert list(slots) == expected

    def test_ghost_and_interior_partition_slots(self, small_grid):
        interior = set(small_grid.interior_slots.tolist())
        ghost = set(small_grid.ghost_slots.tolist())
        assert interior.isdisjoint(ghost)
        assert interior | ghost == set(range(small_grid.num_slots))


class TestAdjacency:
    def test_center_is_self(self, small_grid):
        adj = small_grid.adjacency
        assert np.array_equal(
            adj[:, CENTER_DIRECTION_INDEX], np.arange(small_grid.num_slots)
        )

    def test_interior_adjacency_matches_coordinates(self, small_grid):
        for d in NEIGHBOR_DIRECTIONS:
            di = direction_index(d)
            s = small_grid.slot_of((1, 1, 1))
            expected = small_grid.slot_of((1 + d[0], 1 + d[1], 1 + d[2]))
            assert small_grid.adjacency[s, di] == expected

    def test_outer_shell_clamps_to_self(self, small_grid):
        g = small_grid.ghost_bricks
        corner = small_grid.slot_of((-g, -g, -g))
        di = direction_index((-1, -1, -1))
        assert small_grid.adjacency[corner, di] == corner

    def test_adjacency_is_symmetric(self, small_grid):
        adj = small_grid.adjacency
        for d in NEIGHBOR_DIRECTIONS:
            di, dj = direction_index(d), direction_index(tuple(-c for c in d))
            for s in small_grid.interior_slots[:6]:
                nb = adj[s, di]
                if nb != s:
                    assert adj[nb, dj] == s


class TestGhostlessAdjacency:
    """A grid without a shell is periodic in itself: every one of its
    neighbours is the brick at the wrapped coordinate, never the brick
    itself standing in for a missing one."""

    @pytest.mark.parametrize("ordering", ["lexicographic", "surface-major"])
    @pytest.mark.parametrize("shape", [(4, 3, 2), (1, 2, 3), (1, 1, 1)])
    def test_every_neighbour_wraps(self, ordering, shape):
        g = BrickGrid(shape, 2, ghost_bricks=0, ordering=ordering)
        n = np.asarray(shape)
        for s in range(g.num_slots):
            here = g.slot_to_grid[s]
            for d in DIRECTIONS:
                wrapped = tuple(int(c) for c in np.mod(here + d, n))
                assert g.adjacency[s, direction_index(d)] == g.slot_of(wrapped)

    @pytest.mark.parametrize("ordering", ["lexicographic", "surface-major"])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_gather_extended_is_a_periodic_roll(self, ordering, radius):
        from repro.bricks import BrickedArray, gather_extended

        g = BrickGrid((3, 2, 4), 2, ghost_bricks=0, ordering=ordering)
        dense = np.random.default_rng(5).standard_normal(g.shape_cells)
        E = gather_extended(BrickedArray.from_ijk(g, dense), radius)
        B, r = g.brick_dim, radius
        padded = np.pad(dense, r, mode="wrap")
        for s in range(g.num_slots):
            o = g.slot_to_grid[s] * B
            expected = padded[
                o[0] : o[0] + B + 2 * r,
                o[1] : o[1] + B + 2 * r,
                o[2] : o[2] + B + 2 * r,
            ]
            np.testing.assert_array_equal(E[s], expected)

    def test_gather_extended_faces_equal_np_roll(self):
        from repro.bricks import BrickedArray, gather_extended

        g = BrickGrid((2, 3, 2), 2, ghost_bricks=0)
        dense = np.arange(np.prod(g.shape_cells), dtype=float).reshape(
            g.shape_cells
        )
        E = gather_extended(BrickedArray.from_ijk(g, dense), 1)
        for axis in range(3):
            for shift in (-1, 1):
                # the cell one step along ``shift`` of every cell
                rolled = np.roll(dense, -shift, axis=axis)
                inner = [slice(1, -1)] * 3
                inner[axis] = slice(1 + shift, E.shape[1] - 1 + shift)
                read = BrickedArray(g, np.ascontiguousarray(E[(slice(None), *inner)]))
                np.testing.assert_array_equal(read.to_ijk(), rolled)


class TestRegions:
    def test_ghost_regions_partition_the_shell(self, small_grid):
        all_ghost: list[int] = []
        for d in NEIGHBOR_DIRECTIONS:
            all_ghost.extend(small_grid.ghost_region_slots(d).tolist())
        assert sorted(all_ghost) == small_grid.ghost_slots.tolist()

    def test_ghost_region_rejects_center(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.ghost_region_slots((0, 0, 0))

    def test_send_region_rejects_center(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.send_region_slots((0, 0, 0))

    def test_send_regions_are_interior(self, small_grid):
        interior = set(small_grid.interior_slots.tolist())
        for d in NEIGHBOR_DIRECTIONS:
            assert set(small_grid.send_region_slots(d).tolist()) <= interior

    def test_region_sizes(self, small_grid):
        # face region along +x: g * n1 * n2 bricks
        assert small_grid.region_num_bricks((1, 0, 0)) == 1 * 3 * 2
        assert small_grid.region_num_bricks((0, 1, 0)) == 4 * 1 * 2
        assert small_grid.region_num_bricks((1, 1, 0)) == 1 * 1 * 2
        assert small_grid.region_num_bricks((1, 1, 1)) == 1

    def test_region_bytes(self, small_grid):
        d = (1, 0, 0)
        expected = 6 * 64 * 8
        assert small_grid.region_num_bytes(d) == expected

    def test_send_and_ghost_region_sizes_match(self, small_grid):
        for d in NEIGHBOR_DIRECTIONS:
            assert len(small_grid.send_region_slots(d)) == len(
                small_grid.ghost_region_slots(d)
            )

    def test_send_region_matches_neighbor_ghost_geometry(self, small_grid):
        # sender's region for +d has the brick count of the ghost
        # region for -d (what the neighbour receives)
        for d in NEIGHBOR_DIRECTIONS:
            opp = tuple(-c for c in d)
            assert small_grid.region_num_bricks(d) == len(
                small_grid.ghost_region_slots(opp)
            )


class TestPeriodicWrap:
    def test_wrap_covers_all_ghosts(self, small_grid):
        ghost, src = small_grid.periodic_wrap_pairs
        assert sorted(ghost.tolist()) == small_grid.ghost_slots.tolist()
        interior = set(small_grid.interior_slots.tolist())
        assert set(src.tolist()) <= interior

    def test_wrap_coordinates(self, small_grid):
        ghost, src = small_grid.periodic_wrap_pairs
        n = np.asarray(small_grid.shape_bricks)
        g = small_grid.ghost_bricks
        for gs, ss in zip(ghost[:20], src[:20]):
            gl = small_grid.slot_to_grid[gs] - g
            sl = small_grid.slot_to_grid[ss] - g
            assert np.array_equal(np.mod(gl, n), sl)


@settings(max_examples=25, deadline=None)
@given(
    n0=st.integers(1, 4),
    n1=st.integers(1, 4),
    n2=st.integers(1, 4),
    b=st.sampled_from([1, 2, 4]),
    ordering=st.sampled_from(["lexicographic", "surface-major"]),
)
def test_grid_invariants_property(n0, n1, n2, b, ordering):
    """Slot maps are bijections and regions stay in range for any shape."""
    g = BrickGrid((n0, n1, n2), b, ghost_bricks=1, ordering=ordering)
    assert g.num_slots == (n0 + 2) * (n1 + 2) * (n2 + 2)
    # bijection: grid_to_slot holds each slot exactly once
    flat = np.sort(g.grid_to_slot.reshape(-1))
    assert np.array_equal(flat, np.arange(g.num_slots))
    # ghost regions tile the shell
    total_ghost = sum(len(g.ghost_region_slots(d)) for d in NEIGHBOR_DIRECTIONS)
    assert total_ghost == g.num_slots - g.num_interior
    # adjacency values in range
    adj = g.adjacency
    assert adj.min() >= 0 and adj.max() < g.num_slots
