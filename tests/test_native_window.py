"""Sweep windows: ``apply(..., sweeps=n)`` against ``n`` single applies.

One native call runs a whole communication-avoiding exchange window:
``x`` ping-pongs between its storage and the staging array, ``Ax`` and
``r`` are stored by the last sweep only, ghost cells only as deep as a
later sweep can still read them.  These tests pin that nothing
observable moves — every field on every cell still valid after a window
(``tests/conftest.py: valid_cells``), and every history, solution,
recorded kernel event and message of a whole solve, equal the
one-sweep-per-call schedule through the NumPy kernels, byte for byte.
They run natively and with the compilers masked (the NumPy path then
loops, and the schedule checks still bite).
"""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from repro.bricks import BatchedGrid, BrickGrid
from repro.dsl import library, native
from repro.dsl.ast import Grid, Stencil, indices
from repro.dsl.codegen import CompiledKernel, compile_stencil
from repro.faults import FaultPlan, ResilienceConfig
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.smoothers import JacobiSmoother, Smoother
from repro.gmg.vcycle import VCycle
from repro.obs import Tracer, aggregate_by_level_op
from repro.obs.metrics import MetricsRegistry, solve_metrics
from tests.conftest import exchange_every_sweep, numpy_path
from tests.test_native_kernels import (
    GRIDS,
    STENCILS,
    assert_same_bytes,
    clone,
    consts_for,
    random_fields,
)

SWEEPS = (1, 2, 3, 4, 8)


def have_native() -> bool:
    return native.resolve_backend().reason is None


def single_numpy_applies(kernel, fields, consts, sweeps):
    """The oracle: ``sweeps`` separate applications of the NumPy kernel."""
    with numpy_path():
        for _ in range(sweeps):
            kernel.apply(fields, consts, {})


#: each of ``GRIDS``' layouts without a ghost shell (wrapping adjacency)
GHOSTLESS = {
    "lexicographic": lambda B: BrickGrid((3, 2, 2), B, 0, "lexicographic"),
    "surface-major": lambda B: BrickGrid((3, 2, 2), B, 0, "surface-major"),
    "8-rank-batched": lambda B: BatchedGrid(BrickGrid((2, 2, 2), B, 0), 8),
}


def window_grid(layout, brick_dim, kernel, sweeps):
    """``layout``'s grid — or, for a window longer than its shell
    supports (``sweeps * radius > ghost_cells``: no cell would be
    promised), the layout without a shell, the only kind of level the
    solver hands such a window (``VCycle.iterations_per_exchange``)."""
    grid = GRIDS[layout](brick_dim)
    if sweeps * kernel.analysis.radius <= grid.ghost_cells:
        return grid
    return GHOSTLESS[layout](brick_dim)


def apply_window(kernel, fields, consts, sweeps):
    """One windowed apply on whichever backend ``apply`` picks; where
    there is a native backend, it must be the one that ran."""
    workspace: dict = {}
    kernel.apply(fields, consts, workspace, sweeps=sweeps)
    if have_native():
        assert isinstance(workspace.get(kernel), native.BoundCall), "NumPy ran"


# ----------------------------------------------------------------------
# (a) kernel by kernel: every field, every slot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", GRIDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("brick_dim", [2, 4, 8])
@pytest.mark.parametrize("sweeps", SWEEPS)
@pytest.mark.parametrize("name", STENCILS)
def test_window_matches_single_numpy_applies(name, sweeps, brick_dim, dtype, layout):
    """Odd counts exercise the parity copy, the fused smoothers the
    ping-pong and the last-sweep-only stores, ``smooth``'s pointwise
    ``x`` the in-place case."""
    kernel = compile_stencil(STENCILS[name], brick_dim)
    grid = window_grid(layout, brick_dim, kernel, sweeps)
    fields = random_fields(kernel, grid, dtype)
    oracle = clone(fields)
    single_numpy_applies(kernel, oracle, consts_for(kernel), sweeps)
    apply_window(kernel, fields, consts_for(kernel), sweeps)
    # every cell still valid after the window, ghost cells included
    assert_same_bytes(fields, oracle, kernel, sweeps)


def test_numpy_path_loops():
    kernel = compile_stencil(library.FUSED_SMOOTH_RESIDUAL, 4)
    fields = random_fields(kernel, GRIDS["surface-major"](4), np.float64)
    oracle = clone(fields)
    single_numpy_applies(kernel, oracle, consts_for(kernel), 5)
    with numpy_path():
        kernel.apply(fields, consts_for(kernel), {}, sweeps=5)
    assert_same_bytes(fields, oracle)


def test_consecutive_windows_reuse_binding_and_staging():
    """Windows of 8, 4 and 1 back to back (a smoothing visit of 12 and a
    residual-less bottom sweep), each opened by an exchange (here: both
    sides take the same ghosts): same binding, same staging array."""
    kernel = compile_stencil(library.FUSED_SMOOTH, 8)
    fields = random_fields(kernel, GRIDS["8-rank-batched"](8), np.float64)
    oracle = clone(fields)
    workspace: dict = {}
    bound = set()
    for sweeps in (8, 4, 1):
        single_numpy_applies(kernel, oracle, consts_for(kernel), sweeps)
        kernel.apply(fields, consts_for(kernel), workspace, sweeps=sweeps)
        bound.add(id(workspace.get(kernel)))
        assert_same_bytes(fields, oracle, kernel, sweeps)
        for g, f in fields.items():
            f.data[...] = oracle[g].data
    if have_native():
        assert len(bound) == 1
        stages = [
            k for k in workspace if isinstance(k, tuple) and k[0] == "native-stage"
        ]
        assert len(stages) == 1


def test_output_classes_in_one_stencil():
    """A ping-ponged output, an in-place one that reads the ping-ponged
    grid, and a last-sweep-only one, radius 2, two halo grids."""
    i, j, k = indices()
    x, y, z, w = Grid("x"), Grid("y"), Grid("z"), Grid("w")
    moved = 0.25 * (x(i + 2, j, k) + x(i, j - 1, k + 1)) - 0.5 * w(i - 1, j, k)
    stencil = Stencil(
        "classes",
        [
            x(i, j, k).assign(moved + 0.125 * y(i, j, k)),
            y(i, j, k).assign(y(i, j, k) * 0.5 + x(i, j, k)),
            z(i, j, k).assign(moved - y(i, j, k)),
        ],
    )
    kernel = CompiledKernel(stencil, 4)
    assert native.staged_outputs(kernel.analysis) == ("x",)
    assert native.deferred_outputs(kernel.analysis) == ("z",)
    for sweeps in SWEEPS:
        grid = window_grid("surface-major", 4, kernel, sweeps)
        fields = random_fields(kernel, grid, np.float64)
        oracle = clone(fields)
        single_numpy_applies(kernel, oracle, {}, sweeps)
        apply_window(kernel, fields, {}, sweeps)
        assert_same_bytes(fields, oracle, kernel, sweeps)


def test_sweeps_must_be_positive():
    kernel = compile_stencil(library.APPLY_OP, 4)
    fields = random_fields(kernel, GRIDS["lexicographic"](4), np.float64)
    with pytest.raises(ValueError, match="sweeps"):
        kernel.apply(fields, consts_for(kernel), {}, sweeps=0)


# ----------------------------------------------------------------------
# (b) whole solves against the one-sweep-per-call schedule
# ----------------------------------------------------------------------
def single_sweep_smooth_level(self, lev, iterations, with_residual):
    """``VCycle.smooth_level`` as it was before windows: one exchange
    check and one ``iterate`` per iteration, ranks innermost.  A
    ghostless level (one periodic rank) has nothing to exchange."""
    depth = self.depths[lev]
    level, exchanger = depth.level, depth.exchanger
    targets = self.targets(level)
    per_iter = self.smoother.ghost_cells_per_iteration
    ghost_valid = 0
    b_exchanged = False
    for _ in range(iterations):
        if exchanger is not None and ghost_valid < per_iter:
            fields = [level.x] if b_exchanged else [level.x, level.b]
            b_exchanged = True
            exchanger.exchange(lev, fields)
            ghost_valid = self.iterations_per_exchange(lev) * per_iter
        for target in targets:
            self.smoother.iterate(target, with_residual, self.recorder)
        ghost_valid -= per_iter
    if self.fault_injector is not None:
        for rank, lv in zip(depth.ranks, level.blocks()):
            self.fault_injector.kernel_sdc(lev, rank, lv.x)


EIGHT_RANKS = dict(global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2))
#: two ranks: every level keeps its shell and exchanges once per window
SMALL = dict(
    global_cells=16, num_levels=2, brick_dim=4, max_vcycles=6, rank_dims=(2, 1, 1)
)

SOLVES = {
    "kernel_1rank_64": dict(global_cells=64, num_levels=4, brick_dim=8),
    "exchange_8rank_32": dict(**EIGHT_RANKS),
    "default_1rank_32": dict(global_cells=32, num_levels=3, brick_dim=4),
    "windows-of-one": dict(**SMALL),  # under exchange_every_sweep()
    "gsrb": dict(**SMALL, smoother="gsrb"),
    "chebyshev": dict(**SMALL, smoother="chebyshev"),
    "fp32": dict(**SMALL, precision="fp32"),
    "16-rank-agglomerated": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(4, 2, 2),
        agglomerate_threshold=64, max_vcycles=4,
    ),
}


def faulted_solver():
    """Two silent corruptions (rollbacks) and two message faults
    (retries: envelopes for the struck exchanges, checksummed plan
    copies for the rest), as the ladder's faulted workload runs them."""
    specs = []
    for seed, kind, vcycle, level in (
        (1, "sdc", 2, 0), (2, "sdc", 3, 1), (3, "drop", 2, 1), (4, "corrupt", 4, 0),
    ):
        specs.extend(
            FaultPlan.random(
                seed, 1, kinds=(kind,), vcycles=(vcycle, vcycle),
                levels=(level,), num_ranks=8,
            ).specs
        )
    return GMGSolver(
        SolverConfig(**EIGHT_RANKS),
        resilience=ResilienceConfig(),
        fault_plan=FaultPlan(specs=tuple(specs)),
    )


def observables(solver):
    result = solver.solve()
    recorder = result.recorder
    # interior cells: ghost cells beyond the valid depth differ by path
    stored = [
        getattr(lv, name).data[lv.grid.interior_slots].tobytes()
        for levels in zip(*(d.level.blocks() for d in solver.depths))
        for lv in levels
        for name in ("x", "Ax", "r")
    ]
    return {
        "status": result.status,
        "history": [h.hex() for h in result.residual_history],
        "solution": solver.solution().tobytes(),
        "stored": stored,
        "kernel_counts": recorder.kernel_counts(),
        "kernel_points": recorder.kernel_points(),
        "messages": recorder.message_counts_by_level(),
        "bytes": recorder.message_bytes_by_level(),
        "exchanges": recorder.exchange_counts(),
        "faults": recorder.fault_counts(),
    }


def reference_observables(make_solver):
    """The same solve, one NumPy sweep per smoother call."""
    with numpy_path(), mock.patch.object(
        VCycle, "smooth_level", single_sweep_smooth_level
    ):
        return observables(make_solver())


def assert_same_observables(got, want):
    for key, value in want.items():
        assert got[key] == value, key


@pytest.mark.parametrize("name", SOLVES)
def test_solve_matches_single_sweep_schedule(name):
    def make_solver():
        return GMGSolver(SolverConfig(**SOLVES[name]))

    schedule = (
        exchange_every_sweep() if name == "windows-of-one" else contextlib.nullcontext()
    )
    with schedule:
        assert_same_observables(
            observables(make_solver()), reference_observables(make_solver)
        )


def test_faulted_solve_matches_single_sweep_schedule():
    got = observables(faulted_solver())
    assert got["faults"].get("rollback", 0) >= 2, got["faults"]
    assert_same_observables(got, reference_observables(faulted_solver))


def test_variable_coefficient_solve_matches_single_sweep_schedule():
    from repro.gmg.varcoef import VariableCoefficientSolver

    def run():
        solver = VariableCoefficientSolver(
            lambda x, y, z: 1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 1, 1),
        )
        solver.config = dataclasses.replace(solver.config, max_vcycles=4)
        result = solver.solve()
        return [h.hex() for h in result.residual_history], solver.recorder.kernel_counts()

    with numpy_path(), mock.patch.object(
        VCycle, "smooth_level", single_sweep_smooth_level
    ):
        want = run()
    assert run() == want


def test_smoother_implementing_only_sweep_is_looped():
    """The base ``iterate`` runs a window as single sweeps."""
    jacobi = JacobiSmoother()
    swept = []

    class UserSmoother(Smoother):
        name = "user"

        def sweep(self, level, with_residual, recorder):
            swept.append(level.index)
            jacobi.sweep(level, with_residual, recorder)

    config = SolverConfig(**SMALL)
    reference = GMGSolver(config).solve()
    solver = GMGSolver(config)
    solver.vcycle.smoother = UserSmoother()
    result = solver.solve()
    assert result.residual_history == reference.residual_history
    assert result.recorder.kernel_counts() == reference.recorder.kernel_counts()
    per_cycle = 2 * config.max_smooths + config.bottom_smooths
    assert len(swept) == per_cycle * result.num_vcycles


# ----------------------------------------------------------------------
# (c) one native call per exchange window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("iterations", [1, 4, 5, 12, 13])
@pytest.mark.parametrize("with_residual", [True, False])
def test_smooth_level_makes_one_native_call_per_window(
    native_backend, iterations, with_residual
):
    solver = GMGSolver(SolverConfig(**SMALL))
    vcycle = solver.vcycle
    per_window = vcycle.iterations_per_exchange(0)
    assert per_window == 4
    vcycle.smooth_level(0, 1, with_residual)  # builds and binds the kernel
    exchanges = solver.recorder.exchange_counts()[0]
    events = len(solver.recorder.kernels)
    calls, sweeps = native_backend.calls, native_backend.sweeps
    vcycle.smooth_level(0, iterations, with_residual)
    windows = math.ceil(iterations / per_window)
    assert native_backend.calls - calls == windows
    assert native_backend.sweeps - sweeps == iterations
    assert solver.recorder.exchange_counts()[0] - exchanges == windows
    assert len(solver.recorder.kernels) - events == iterations  # one per sweep


@pytest.mark.parametrize("max_smooths", [1, 4, 12, 13, 100])
def test_ghostless_visit_is_one_native_call(native_backend, max_smooths):
    """One periodic rank has no shell and so no halo budget: each
    visit — smoothing or the relaxation bottom solve — is one window,
    one native call and no exchange, whatever its length."""
    config = SolverConfig(
        **{**SMALL, "rank_dims": (1, 1, 1)},
        max_smooths=max_smooths, bottom_smooths=max_smooths,
    )
    solver = GMGSolver(config)
    vcycle = solver.vcycle
    for lev in range(config.num_levels):
        assert vcycle.depths[lev].exchanger is None
        assert vcycle.iterations_per_exchange(lev) is None
        assert vcycle.exchanges_per_visit(lev) == 0
    vcycle.run()  # builds and binds every kernel
    calls, sweeps = native_backend.calls, native_backend.sweeps
    vcycle.run()
    # one pre- and one post-smoothing visit on level 0, one bottom visit
    assert native_backend.calls - calls == 3
    assert native_backend.sweeps - sweeps == 3 * max_smooths
    assert solver.recorder.exchange_counts() == {}


def test_kernel_1rank_64_solve_call_budget(native_backend):
    calls, sweeps = native_backend.calls, native_backend.sweeps
    solver = GMGSolver(SolverConfig(**SOLVES["kernel_1rank_64"]))
    result = solver.solve()
    assert result.converged
    # every recorded stencil application is a sweep some call ran
    stencil_ops = {"residual"} | {name for name in STENCILS if "applyOp" in name}
    recorded = sum(
        n for (_, op), n in result.recorder.kernel_counts().items()
        if op in stencil_ops
    )
    assert native_backend.sweeps - sweeps == recorded > 1000
    assert native_backend.calls - calls <= 200


# ----------------------------------------------------------------------
# (d) observability: what the windows bought
# ----------------------------------------------------------------------
def test_metrics_count_calls_and_sweeps(native_backend):
    solver = GMGSolver(SolverConfig(**SMALL))
    result = solver.solve()
    gauges = solve_metrics(result.recorder).snapshot()["gauges"]
    assert gauges["kernels.native.calls"] == native_backend.calls
    assert gauges["kernels.native.sweeps"] == native_backend.sweeps
    assert native_backend.sweeps > native_backend.calls > 0
    assert native.call_counts() == {
        "calls": native_backend.calls, "sweeps": native_backend.sweeps,
        "cells": native_backend.cells, "intergrid": native_backend.intergrid,
        "exchange": native_backend.exchange,
    }
    assert gauges["kernels.native.cells"] == native_backend.cells > 0
    line = native.describe()
    assert f"{native_backend.calls} calls, {native_backend.sweeps} sweeps" in line


def test_metrics_read_zero_under_numpy(monkeypatch):
    monkeypatch.setattr(native, "_backend", None)
    registry = MetricsRegistry()
    registry.observe_native_kernels()
    gauges = registry.snapshot()["gauges"]
    assert gauges["kernels.native.calls"] == 0
    assert gauges["kernels.native.sweeps"] == 0
    assert gauges["kernels.native.cells"] == 0
    assert gauges["kernels.native.intergrid"] == 0


def test_traced_window_is_one_span_weighted_by_its_sweeps():
    tracer = Tracer()
    # one walled rank keeps its shell and per-rank events stay one per
    # span (initZero runs per rank)
    config = SolverConfig(
        **{**SMALL, "rank_dims": (1, 1, 1)}, boundary="dirichlet", max_smooths=6
    )
    solver = GMGSolver(config, tracer=tracer)
    result = solver.solve()
    fused = [
        s for s in tracer.ordered_spans()
        if s.name == library.FUSED_SMOOTH_RESIDUAL.name and s.attrs["l"] == 0
    ]
    # windows of 4 and 2 per visit of 6, two visits per cycle
    assert [s.attrs["sweeps"] for s in fused[:4]] == [4, 2, 4, 2]
    counts = result.recorder.kernel_counts()
    stats = aggregate_by_level_op(tracer)
    for (lev, op), stat in stats.items():
        if (lev, op) in counts:
            assert stat.count == counts[(lev, op)], (lev, op)
    key = (0, library.FUSED_SMOOTH_RESIDUAL.name)
    total = sum(s.duration for s in fused)
    assert stats[key].avg == pytest.approx(total / counts[key])
