"""Ghost work clipped to the valid depth.

After an exchange a ghost shell ``G`` cells deep is valid throughout;
each sweep of a radius-``r`` stencil leaves it valid ``r`` cells less
deep, so sweep ``k`` of a window need compute only the ghost cells
within ``G - (k + 1) r`` of the interior — deeper ones no later sweep
may read.  The native kernels compute exactly that box (in whole ``k``
rows); the NumPy kernels compute every cell.  These tests pin that the
solve reads nothing outside the box and that the kernels compute all of
it: under :func:`poisoned_ghosts` (NaN in every cell outside the box
after each stencil call, and in the staging arrays before it) a solve on
whichever backend ``apply`` picks keeps the bytes of the unpoisoned
solve through the NumPy kernels.  They also pin what the clip saves
(``call_counts()["cells"]``) and that the cells it leaves alone are
deterministic.  They run on either backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsl import library, native
from repro.dsl.codegen import compile_stencil
from repro.faults import ResilienceConfig
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.solver import Hierarchy
from repro.service import CohortSolver, SolveRequest
from tests.conftest import numpy_path, poisoned_ghosts, valid_cells
from tests.test_exchange_plan import ladder_fault_plan
from tests.test_native_kernels import GRIDS, consts_for, random_fields

#: the ladder's 8-rank geometry
LADDER_8RANK = dict(global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2))

POISONED = {
    "ladder-2x2x2": SolverConfig(**LADDER_8RANK),
    "1rank-dirichlet": SolverConfig(
        global_cells=16, num_levels=2, brick_dim=4, boundary="dirichlet",
        max_smooths=6, max_vcycles=4,
    ),
    "1rank-neumann": SolverConfig(
        global_cells=16, num_levels=2, brick_dim=4, boundary="neumann",
        max_smooths=6, max_vcycles=4,
    ),
    "16rank-agglomerated": SolverConfig(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(4, 2, 2),
        agglomerate_threshold=600, max_vcycles=4,
    ),
    "chebyshev-2x2x2": SolverConfig(
        **LADDER_8RANK, smoother="chebyshev", max_vcycles=4,
    ),
    "cg-2x2x2": SolverConfig(**LADDER_8RANK, bottom_solver="cg", max_vcycles=4),
}


def solved(config: SolverConfig, **kwargs):
    solver = GMGSolver(config, **kwargs)
    result = solver.solve()
    return result, solver.solution()


def assert_same_solve(got, want) -> None:
    (result, solution), (ref, ref_solution) = got, want
    assert result.status == ref.status
    assert tuple(result.residual_history) == tuple(ref.residual_history)
    assert solution.tobytes() == ref_solution.tobytes()


@pytest.mark.parametrize("name", sorted(POISONED))
def test_poisoned_ghosts_leave_the_solve_unchanged(name):
    config = POISONED[name]
    with numpy_path():
        reference = solved(config)
    with poisoned_ghosts():
        poisoned = solved(config)
    assert_same_solve(poisoned, reference)
    assert np.isfinite(poisoned[1]).all()


def test_poisoned_ghosts_leave_a_faulted_solve_unchanged():
    """Two silent corruptions (each rolled back) and six message
    faults: detection, retries and rollbacks see no poisoned cell."""
    def run():
        solver = GMGSolver(
            SolverConfig(**LADDER_8RANK), resilience=ResilienceConfig(),
            fault_plan=ladder_fault_plan(0),
        )
        result = solver.solve()
        return result, solver.solution()

    with numpy_path():
        reference = run()
    with poisoned_ghosts():
        poisoned = run()
    assert_same_solve(poisoned, reference)
    assert poisoned[0].rollbacks == reference[0].rollbacks > 0
    assert poisoned[0].fault_counts == reference[0].fault_counts


def test_poisoned_ghosts_leave_a_cohort_unchanged():
    config = SolverConfig(
        global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 1, 1),
        max_vcycles=5,
    )
    requests = [SolveRequest(config, amplitude=a) for a in (1.0, 0.6)]

    def run():
        cohort = CohortSolver(config, capacity=2)
        out = {r.request.request_id: r for r in cohort.solve_stream(requests)}
        return [out[r.request_id] for r in requests]

    with numpy_path():
        reference = run()
    with poisoned_ghosts():
        poisoned = run()
    for got, want in zip(poisoned, reference):
        assert got.residual_history == want.residual_history
        assert got.solution.tobytes() == want.solution.tobytes()


# ----------------------------------------------------------------------
# what the clip computes, and what it leaves alone
# ----------------------------------------------------------------------
def test_window_cells_on_level_zero_of_2x2x2(native_backend):
    """One 4-sweep window of the fused smoother on a 16^3 block of
    4^3 bricks with a one-brick shell: 4 x 216 x 64 = 55,296 cells
    unclipped; the interior's 4 x 4,096 plus ghost boxes of depth 3, 2
    and 1 (and none at depth 0) in whole k rows make 33,088."""
    config = SolverConfig(**LADDER_8RANK)
    level = Hierarchy(config).levels[0]
    block = level.blocks()[0]
    kernel = compile_stencil(library.FUSED_SMOOTH_RESIDUAL, 4)
    consts = {"alpha": -6.0, "beta": 1.0, "gamma": 0.1}
    before = native.call_counts()
    kernel.apply(block.fields(), consts, block.workspace, sweeps=4)
    after = native.call_counts()
    assert after["sweeps"] - before["sweeps"] == 4
    assert after["cells"] - before["cells"] == 33_088
    assert block.workspace[kernel].window_cells(4) == 33_088
    # all eight blocks in one call: eight times as many
    before = native.call_counts()["cells"]
    kernel.apply(level.fields(), consts, level.workspace, sweeps=4)
    assert native.call_counts()["cells"] - before == 8 * 33_088


def test_ghostless_window_computes_every_slot(native_backend):
    """No shell, no clip: a one-rank level computes slots x B^3 per
    sweep, as before."""
    level = Hierarchy(SolverConfig(global_cells=16, num_levels=2, brick_dim=4)).levels[0]
    assert level.grid.ghost_bricks == 0
    kernel = compile_stencil(library.FUSED_SMOOTH_RESIDUAL, 4)
    before = native.call_counts()["cells"]
    kernel.apply(
        level.fields(), {"alpha": -6.0, "beta": 1.0, "gamma": 0.1},
        level.workspace, sweeps=3,
    )
    assert native.call_counts()["cells"] - before == 3 * 64 * 4**3


@pytest.mark.parametrize("sweeps", (1, 2, 3, 4))
def test_unwritten_cells_are_deterministic(native_backend, sweeps):
    """Cells outside the clipped boxes keep what the fields and the
    zeroed staging array held: two runs from the same bytes agree on
    every slot, and nothing non-finite appears."""
    kernel = compile_stencil(library.FUSED_SMOOTH_RESIDUAL, 4)
    runs = []
    for _ in range(2):
        fields = random_fields(kernel, GRIDS["8-rank-batched"](4), np.float64)
        kernel.apply(fields, consts_for(kernel), {}, sweeps=sweeps)
        runs.append({g: f.data.copy() for g, f in fields.items()})
    for g in runs[0]:
        assert runs[0][g].tobytes() == runs[1][g].tobytes(), g
        assert np.isfinite(runs[0][g]).all(), g


def test_stored_fields_are_finite_after_a_2x2x2_solve():
    solver = GMGSolver(SolverConfig(**LADDER_8RANK))
    assert solver.solve().converged
    for lev in range(solver.vcycle.num_levels):
        level = solver.vcycle.level_at(lev)
        for name in ("x", "b", "Ax", "r"):
            assert np.isfinite(getattr(level, name).data).all(), (lev, name)


def test_valid_cells_is_the_box_of_the_given_depth():
    grid = GRIDS["surface-major"](4)
    interior = valid_cells(grid, 0)
    assert interior.sum() == grid.num_interior * 64
    assert valid_cells(grid, 4).all()
    # (12 + 2)(8 + 2)(8 + 2) cells one deep
    assert valid_cells(grid, 1).sum() == 14 * 10 * 10
