"""Domain boundary conditions: mirror ghosts, Dirichlet/Neumann solves."""

import numpy as np
import pytest

from repro.bricks import BrickGrid, BrickedArray
from repro.comm import CartTopology
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.boundary import BoundaryCondition, BoundaryFill
from repro.gmg.problem import (
    dirichlet_operator_eigenvalue,
    discrete_solution_dirichlet,
    rhs_field_dirichlet,
)
from tests.conftest import exchange_every_sweep

BASE = dict(global_cells=32, num_levels=3, brick_dim=4,
            max_smooths=8, bottom_smooths=40)


class TestTopologyBoundary:
    def test_non_periodic_neighbors_are_none(self):
        topo = CartTopology((2, 2, 2), periodic=False)
        assert topo.neighbor(0, (-1, 0, 0)) is None
        assert topo.neighbor(0, (1, 0, 0)) is not None

    def test_boundary_sides(self):
        topo = CartTopology((2, 1, 1), periodic=False)
        assert topo.boundary_sides(0) == ((True, False), (True, True), (True, True))
        assert topo.boundary_sides(1) == ((False, True), (True, True), (True, True))

    def test_periodic_has_no_boundary(self):
        topo = CartTopology((2, 2, 2))
        assert topo.boundary_sides(0) == ((False, False),) * 3
        assert all(v is not None for v in topo.neighbors(0).values())

    def test_remote_fraction_skips_boundary_links(self):
        topo = CartTopology((2, 1, 1), ranks_per_node=1, periodic=False)
        # corner rank: many directions leave the domain
        assert topo.remote_neighbor_fraction(0) < 1.0


class TestBoundaryFill:
    def _field(self, rng):
        grid = BrickGrid((2, 2, 2), 4)
        dense = rng.random((8, 8, 8))
        f = BrickedArray.from_ijk(grid, dense)
        return grid, dense, f

    def test_dirichlet_face_mirror(self, rng):
        grid, dense, f = self._field(rng)
        fill = BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.DIRICHLET)
        fill.apply(f)
        low_ghost = f.data[grid.slot_of((-1, 0, 0))]
        # ghost cell at depth d mirrors interior depth d with sign -1
        mirror = dense[3::-1, 0:4, 0:4]
        np.testing.assert_array_equal(low_ghost, -mirror)

    def test_neumann_face_mirror(self, rng):
        grid, dense, f = self._field(rng)
        fill = BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.NEUMANN)
        fill.apply(f)
        hi_ghost = f.data[grid.slot_of((2, 0, 0))]
        mirror = dense[7:3:-1, 0:4, 0:4]
        np.testing.assert_array_equal(hi_ghost, mirror)

    def test_corner_sign_composition(self, rng):
        grid, dense, f = self._field(rng)
        fill = BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.DIRICHLET)
        fill.apply(f)
        # edge ghost outside in two axes: sign (+1); corner: (-1)^3
        edge = f.data[grid.slot_of((-1, -1, 0))]
        mirror2 = dense[3::-1, 3::-1, 0:4]
        np.testing.assert_array_equal(edge, mirror2)
        corner = f.data[grid.slot_of((-1, -1, -1))]
        mirror3 = dense[3::-1, 3::-1, 3::-1]
        np.testing.assert_array_equal(corner, -mirror3)

    def test_all_boundary_fill_covers_whole_shell(self, rng):
        grid, _, f = self._field(rng)
        fill = BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.DIRICHLET)
        assert fill.num_ghost_bricks == len(grid.ghost_slots)

    def test_partial_boundary_owns_partial_shell(self, rng):
        grid, _, _ = self._field(rng)
        fill = BoundaryFill(
            grid, ((True, False), (False, False), (False, False)),
            BoundaryCondition.DIRICHLET,
        )
        assert 0 < fill.num_ghost_bricks < len(grid.ghost_slots)

    def test_periodic_rejected(self, rng):
        grid, _, _ = self._field(rng)
        with pytest.raises(ValueError, match="periodic"):
            BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.PERIODIC)

    def test_incompatible_field_rejected(self, rng):
        grid, _, _ = self._field(rng)
        fill = BoundaryFill(grid, ((True, True),) * 3, BoundaryCondition.DIRICHLET)
        other = BrickedArray.zeros(BrickGrid((2, 2, 2), 8))
        with pytest.raises(ValueError, match="incompatible"):
            fill.apply(other)


class TestDirichletProblem:
    def test_rhs_vanishes_at_walls_in_the_limit(self):
        b = rhs_field_dirichlet((32, 32, 32), 1 / 32)
        # first cell centre sits h/2 from the wall: small but not zero
        assert abs(b[0, 16, 16]) < 0.1
        assert abs(b[16, 16, 16]) > 0.9

    def test_eigenvalue_identity(self):
        """A b = lambda b under the mirror ghost condition."""
        n, h = 16, 1 / 16
        b = rhs_field_dirichlet((n, n, n), h)
        lam = dirichlet_operator_eigenvalue(h)
        # apply the operator with explicit mirror ghosts
        ext = np.zeros((n + 2,) * 3)
        ext[1:-1, 1:-1, 1:-1] = b
        for axis in range(3):
            lo = [slice(1, -1)] * 3
            hi = [slice(1, -1)] * 3
            lo[axis] = 0
            hi[axis] = -1
            src_lo = [slice(1, -1)] * 3
            src_hi = [slice(1, -1)] * 3
            src_lo[axis] = 1
            src_hi[axis] = -2
            ext[tuple(lo)] = -ext[tuple(src_lo)]
            ext[tuple(hi)] = -ext[tuple(src_hi)]
        c = 1.0 / h**2
        Ab = (
            -6.0 * c * ext[1:-1, 1:-1, 1:-1]
            + c * (ext[2:, 1:-1, 1:-1] + ext[:-2, 1:-1, 1:-1])
            + c * (ext[1:-1, 2:, 1:-1] + ext[1:-1, :-2, 1:-1])
            + c * (ext[1:-1, 1:-1, 2:] + ext[1:-1, 1:-1, :-2])
        )
        np.testing.assert_allclose(Ab, lam * b, rtol=1e-8, atol=1e-8)


class TestDirichletSolves:
    @pytest.fixture(scope="class")
    def serial(self):
        solver = GMGSolver(SolverConfig(**BASE, boundary="dirichlet"))
        result = solver.solve()
        return solver, result

    def test_converges_to_closed_form(self, serial):
        solver, result = serial
        assert result.converged
        exact = discrete_solution_dirichlet((32, 32, 32), 1 / 32)
        assert np.abs(solver.solution() - exact).max() < 1e-11

    @pytest.mark.parametrize("dims", [(2, 1, 1), (2, 2, 2)])
    def test_distributed_matches_serial(self, serial, dims):
        solver, _ = serial
        dist = GMGSolver(SolverConfig(**BASE, boundary="dirichlet",
                                      rank_dims=dims))
        dist.solve()
        np.testing.assert_array_equal(dist.solution(), solver.solution())

    def test_ca_matches_non_ca_to_rounding(self, serial):
        """Mirror arithmetic is antisymmetric only up to reassociation,
        so CA redundant ghost updates agree to rounding, not bitwise."""
        solver, _ = serial
        with exchange_every_sweep():
            plain = GMGSolver(SolverConfig(**BASE, boundary="dirichlet"))
            plain.solve()
        np.testing.assert_allclose(
            plain.solution(), solver.solution(), atol=1e-14
        )

    def test_gsrb_dirichlet(self):
        solver = GMGSolver(SolverConfig(**BASE, boundary="dirichlet",
                                        smoother="gsrb"))
        result = solver.solve()
        assert result.converged
        exact = discrete_solution_dirichlet((32, 32, 32), 1 / 32)
        assert np.abs(solver.solution() - exact).max() < 1e-11

    def test_cg_bottom_dirichlet_skips_projection(self):
        solver = GMGSolver(SolverConfig(**BASE, boundary="dirichlet",
                                        bottom_solver="cg"))
        assert not solver.vcycle.bottom_solver.project_nullspace
        result = solver.solve()
        assert result.converged

    def test_fft_bottom_rejected_for_dirichlet(self):
        with pytest.raises(ValueError, match="FFT"):
            SolverConfig(**BASE, boundary="dirichlet", bottom_solver="fft")

    def test_invalid_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            SolverConfig(**BASE, boundary="robin")

    def test_no_messages_cross_the_wall(self):
        solver = GMGSolver(SolverConfig(**BASE, boundary="dirichlet",
                                        rank_dims=(2, 1, 1), max_vcycles=1,
                                        tol=0.0))
        solver.solve()
        periodic = GMGSolver(SolverConfig(**BASE, rank_dims=(2, 1, 1),
                                          max_vcycles=1, tol=0.0))
        periodic.solve()
        # with a wall between the two ranks in x only the +x/-x internal
        # faces exchange; every other direction is boundary-filled
        assert (
            sum(solver.recorder.message_counts_by_level().values())
            < sum(periodic.recorder.message_counts_by_level().values())
        )
