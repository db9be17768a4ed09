"""The ladder's ``bricks.gather`` rung: the flat-index offset gather
must match the direction-loop gather it is read against."""

import numpy as np
import pytest

from repro.bricks import BrickedArray, gather_extended
from repro.bricks.halo_plan import OffsetGatherPlan, offset_plan_for


@pytest.fixture
def halo_field(small_grid, rng):
    dense = rng.random(small_grid.shape_cells)
    f = BrickedArray.from_ijk(small_grid, dense)
    f.fill_ghost_periodic()
    return f


class TestOffsetGatherPlan:
    OFFSETS = (
        (0, 0, 0),
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
        (1, -1, 0),  # an edge read, beyond the 7-point set
    )

    def test_matches_extended_slices(self, halo_field):
        """Each offset block equals the corresponding slice of the full
        extended gather."""
        B = halo_field.grid.brick_dim
        r = 1
        E = gather_extended(halo_field, r)
        block = offset_plan_for(halo_field.grid, self.OFFSETS, 0).gather(
            halo_field.data
        )
        for k, (dx, dy, dz) in enumerate(self.OFFSETS):
            sl = tuple(slice(r + d, r + d + B) for d in (dx, dy, dz))
            assert np.array_equal(block[k], E[(slice(None),) + sl]), (dx, dy, dz)

    def test_out_buffer(self, halo_field):
        plan = OffsetGatherPlan(halo_field.grid, ((1, 0, 0), (0, 0, -1)))
        B = halo_field.grid.brick_dim
        buf = np.empty((2, halo_field.grid.num_slots, B, B, B))
        got = plan.gather(halo_field.data, out=buf)
        assert got is buf
        assert np.array_equal(buf, plan.gather(halo_field.data))

    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            OffsetGatherPlan(small_grid, ())
        with pytest.raises(ValueError):
            OffsetGatherPlan(small_grid, ((small_grid.brick_dim + 1, 0, 0),))
        with pytest.raises(ValueError):
            OffsetGatherPlan(small_grid, ((1, 0, 0),), halo_radius=-1)
