"""Halo gather: extended blocks must agree with the dense wrap oracle."""

import numpy as np
import pytest

from repro.bricks import BrickGrid, BrickedArray, gather_extended


def dense_extended(dense: np.ndarray, lo: tuple, b: int, r: int) -> np.ndarray:
    """Oracle: the (b+2r)^3 block around interior brick origin ``lo``
    taken from the periodically extended dense field."""
    n = dense.shape
    idx = [np.mod(np.arange(lo[d] - r, lo[d] + b + r), n[d]) for d in range(3)]
    return dense[np.ix_(*idx)]


class TestGatherExtended:
    @pytest.mark.parametrize("radius", [1, 2, 4])
    def test_matches_dense_oracle(self, small_grid, rng, radius):
        dense = rng.random(small_grid.shape_cells)
        f = BrickedArray.from_ijk(small_grid, dense)
        f.fill_ghost_periodic()
        E = gather_extended(f, radius)
        b = small_grid.brick_dim
        for bx, by, bz in [(0, 0, 0), (3, 2, 1), (1, 1, 0)]:
            s = small_grid.slot_of((bx, by, bz))
            oracle = dense_extended(dense, (bx * b, by * b, bz * b), b, radius)
            assert np.array_equal(E[s], oracle), (bx, by, bz)

    def test_radius_zero_is_copy(self, random_field):
        field, _ = random_field
        E = gather_extended(field, 0)
        assert np.array_equal(E, field.data)

    def test_radius_exceeding_brick_rejected(self, random_field):
        field, _ = random_field
        with pytest.raises(ValueError):
            gather_extended(field, 5)

    def test_negative_radius_rejected(self, random_field):
        field, _ = random_field
        with pytest.raises(ValueError):
            gather_extended(field, -1)

    def test_out_buffer_reused(self, random_field):
        field, _ = random_field
        field.fill_ghost_periodic()
        buf = np.empty((field.grid.num_slots, 6, 6, 6))
        E = gather_extended(field, 1, out=buf)
        assert E is buf

    def test_out_buffer_shape_checked(self, random_field):
        field, _ = random_field
        with pytest.raises(ValueError):
            gather_extended(field, 1, out=np.empty((3, 6, 6, 6)))

    def test_corner_halo_comes_through_corner_neighbor(self, rng):
        """Edges and corners of the extended block must be right — the
        7-point stencil never reads them but restriction-adjacent
        kernels could."""
        grid = BrickGrid((2, 2, 2), 4, ghost_bricks=1)
        dense = rng.random((8, 8, 8))
        f = BrickedArray.from_ijk(grid, dense)
        f.fill_ghost_periodic()
        E = gather_extended(f, 1)
        s = grid.slot_of((0, 0, 0))
        # extended corner (0,0,0) = dense at wrapped (-1,-1,-1)
        assert E[s, 0, 0, 0] == dense[-1, -1, -1]

    def test_gather_ordering_independent(self, rng):
        dense = rng.random((8, 8, 8))
        results = []
        for ordering in ("lexicographic", "surface-major"):
            grid = BrickGrid((2, 2, 2), 4, 1, ordering)
            f = BrickedArray.from_ijk(grid, dense)
            f.fill_ghost_periodic()
            E = gather_extended(f, 1)
            s = grid.slot_of((1, 1, 1))
            results.append(E[s].copy())
        assert np.array_equal(results[0], results[1])
