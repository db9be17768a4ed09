"""Cross-rank stacking: a batched grid must behave as N independent grids."""

import numpy as np
import pytest

from repro.bricks import BrickGrid, BrickedArray
from repro.bricks.batch import BatchedGrid
from repro.dsl.codegen import compile_stencil
from repro.dsl.library import APPLY_OP

from tests.conftest import numpy_path

CONSTS = {"alpha": -6.0, "beta": 1.0}


@pytest.fixture
def base_grid(ordering):
    return BrickGrid((2, 3, 2), 4, ghost_bricks=1, ordering=ordering)


@pytest.fixture
def batched(base_grid):
    return BatchedGrid(base_grid, 3)


class TestBatchedGridStructure:
    def test_slot_counts(self, base_grid, batched):
        assert batched.num_slots == 3 * base_grid.num_slots
        assert batched.num_interior == 3 * base_grid.num_interior
        assert batched.slots_per_rank == base_grid.num_slots

    def test_adjacency_is_block_diagonal(self, base_grid, batched):
        """Brick neighbourhoods never cross rank blocks: each block is
        the base adjacency offset into its own slot range."""
        S = base_grid.num_slots
        for k in range(3):
            block = batched.adjacency[k * S : (k + 1) * S]
            assert np.array_equal(block, base_grid.adjacency + k * S)
            assert block.min() >= k * S and block.max() < (k + 1) * S

    def test_interior_and_ghost_slots_tile(self, base_grid, batched):
        S = base_grid.num_slots
        for k in range(3):
            sl = batched.rank_slice(k)
            assert sl == slice(k * S, (k + 1) * S)
        assert np.array_equal(
            batched.interior_slots[: base_grid.num_interior],
            base_grid.interior_slots,
        )
        assert np.array_equal(
            np.sort(np.concatenate([batched.interior_slots, batched.ghost_slots])),
            np.arange(batched.num_slots),
        )

    def test_slot_to_grid_tiles(self, base_grid, batched):
        assert np.array_equal(
            batched.slot_to_grid,
            np.tile(base_grid.slot_to_grid, (3, 1)),
        )

    def test_geometry_key_embeds_base(self, base_grid, batched):
        assert batched.geometry_key == ("batched", base_grid.geometry_key, 3)
        assert BatchedGrid(base_grid, 2).geometry_key != batched.geometry_key

    def test_rank_validation(self, base_grid, batched):
        with pytest.raises(ValueError):
            BatchedGrid(base_grid, 0)
        with pytest.raises(IndexError):
            batched.rank_slice(3)


class TestBatchedExecution:
    @pytest.mark.parametrize("native_kernels", [False, True])
    def test_one_call_equals_rank_loop(self, base_grid, batched, rng, native_kernels):
        """One kernel invocation over the stacked field must reproduce,
        byte for byte, a Python loop over per-rank fields — through the
        NumPy kernels and through whatever the host offers natively."""
        if not native_kernels:
            with numpy_path():
                self._check_one_call_equals_rank_loop(base_grid, batched, rng)
        else:
            self._check_one_call_equals_rank_loop(base_grid, batched, rng)

    def _check_one_call_equals_rank_loop(self, base_grid, batched, rng):
        per_rank = []
        for _ in range(3):
            f = BrickedArray.from_ijk(base_grid, rng.random(base_grid.shape_cells))
            f.fill_ghost_periodic()
            per_rank.append(f)

        stacked_x = BrickedArray(
            batched,
            np.concatenate([f.data for f in per_rank]),
        )
        stacked_fields = {
            "x": stacked_x,
            "Ax": BrickedArray.zeros(batched),
        }
        kernel = compile_stencil(APPLY_OP, base_grid.brick_dim)
        kernel.apply(stacked_fields, CONSTS)

        S = base_grid.num_slots
        for k, f in enumerate(per_rank):
            fields = {"x": f, "Ax": BrickedArray.zeros(base_grid)}
            kernel.apply(fields, CONSTS)
            assert np.array_equal(
                stacked_fields["Ax"].data[k * S : (k + 1) * S],
                fields["Ax"].data,
            ), k

    def test_per_rank_views_alias_stacked(self, base_grid, batched):
        """A level's block views are stacked slices; writes through
        either side must be visible to the other."""
        stacked = BrickedArray.zeros(batched)
        S = base_grid.num_slots
        view = BrickedArray(base_grid, stacked.data[S : 2 * S])
        view.data[...] = 7.0
        assert np.all(stacked.data[S : 2 * S] == 7.0)
        assert np.all(stacked.data[:S] == 0.0)
