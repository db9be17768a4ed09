"""A field stored in brick layout.

:class:`BrickedArray` couples a :class:`~repro.bricks.brick_grid.BrickGrid`
with a ``(num_slots, B, B, B)`` storage array.  All cells of one brick
are contiguous — the defining property of fine-grain data blocking —
and the brick order within storage follows the grid's ordering
strategy.
"""

from __future__ import annotations

import numpy as np

from repro.bricks.brick_grid import BrickGrid


class BrickedArray:
    """One scalar field over a subdomain, in brick layout.

    Parameters
    ----------
    grid:
        The brick arrangement (shared between all fields of one level).
    data:
        Optional existing backing array of shape
        ``(grid.num_slots, B, B, B)``; allocated (zeroed) if omitted.
    dtype:
        Floating-point precision of the field — ``float64`` (the
        paper's experiments) or ``float32`` (the mixed-precision
        extension motivated by the paper's reference [28]).
    """

    SUPPORTED_DTYPES = (np.float64, np.float32)

    def __init__(
        self,
        grid: BrickGrid,
        data: np.ndarray | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        B = grid.brick_dim
        dtype = np.dtype(dtype)
        if dtype not in [np.dtype(d) for d in self.SUPPORTED_DTYPES]:
            raise ValueError(f"unsupported field dtype: {dtype}")
        if data is None:
            data = np.zeros((grid.num_slots, B, B, B), dtype=dtype)
        else:
            expected = (grid.num_slots, B, B, B)
            if data.shape != expected:
                raise ValueError(
                    f"backing array has shape {data.shape}, expected {expected}"
                )
            if data.dtype != dtype:
                raise ValueError(
                    f"backing array must be {dtype}, got {data.dtype}"
                )
        self.grid = grid
        self.data = data

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def zeros(
        cls, grid: BrickGrid, dtype: np.dtype | type = np.float64
    ) -> "BrickedArray":
        """A zero-filled field on ``grid``."""
        return cls(grid, dtype=dtype)

    @classmethod
    def from_ijk(
        cls,
        grid: BrickGrid,
        dense: np.ndarray,
        dtype: np.dtype | type = np.float64,
    ) -> "BrickedArray":
        """Brick a conventional ``ijk`` array of the interior cells.

        ``dense`` must have shape ``grid.shape_cells`` (it is cast to
        ``dtype``); ghost bricks are left zeroed (fill them with an
        exchange or :meth:`fill_ghost_periodic`).
        """
        out = cls(grid, dtype=dtype)
        out.set_interior(dense)
        return out

    def set_interior(self, dense: np.ndarray) -> None:
        """Overwrite interior cells from a dense ``ijk`` array."""
        n0, n1, n2 = self.grid.shape_bricks
        B = self.grid.brick_dim
        expected = self.grid.shape_cells
        if dense.shape != expected:
            raise ValueError(f"dense array has shape {dense.shape}, expected {expected}")
        blocks = (
            dense.reshape(n0, B, n1, B, n2, B)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(self.grid.num_interior, B, B, B)
        )
        self.data[self.grid.interior_slots] = blocks

    def to_ijk(self) -> np.ndarray:
        """Return the interior cells as a dense ``ijk`` array."""
        n0, n1, n2 = self.grid.shape_bricks
        B = self.grid.brick_dim
        blocks = self.data[self.grid.interior_slots].reshape(n0, n1, n2, B, B, B)
        return np.ascontiguousarray(
            blocks.transpose(0, 3, 1, 4, 2, 5).reshape(n0 * B, n1 * B, n2 * B)
        )

    # ------------------------------------------------------------------
    # ghost handling
    # ------------------------------------------------------------------
    def fill_ghost_periodic(self) -> None:
        """Fill the ghost shell by periodic wrap within this subdomain.

        Correct only when this rank owns the entire periodic domain.
        Solves do not call it — a one-rank
        :class:`repro.comm.exchange.HaloExchange` writes the same bytes
        off its plan's 26 self-messages — it stays as the independent
        reference that plan is tested against.
        """
        ghost, src = self.grid.periodic_wrap_pairs
        self.data[ghost] = self.data[src]

    def zero_ghost(self) -> None:
        """Zero the ghost shell (used to prove exchanges actually run)."""
        self.data[self.grid.ghost_slots] = 0.0

    # ------------------------------------------------------------------
    # whole-field operations
    # ------------------------------------------------------------------
    def copy(self) -> "BrickedArray":
        """Deep copy sharing the grid."""
        return BrickedArray(self.grid, self.data.copy(), dtype=self.dtype)

    def fill(self, value: float) -> None:
        """Set every cell (interior and ghost) to ``value``."""
        self.data.fill(value)

    def max_abs_interior(self) -> float:
        """Max-norm over interior cells, gathered under any ordering
        (the reference for the solver's view, ``Level.interior``)."""
        return float(np.max(np.abs(self.data[self.grid.interior_slots])))

    @property
    def nbytes_interior(self) -> int:
        """Bytes of interior payload (excludes the ghost shell)."""
        return (
            self.grid.num_interior * self.grid.cells_per_brick * self.dtype.itemsize
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BrickedArray(grid={self.grid!r})"
