"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from unittest import mock

from repro.bricks import BrickGrid, BrickedArray
from repro.dsl import native
from repro.faults import FaultInjector, FaultPlan, ResilienceConfig
from repro.gmg.vcycle import VCycle

#: a backend that offers no native kernels, for reaching the oracle
NUMPY_BACKEND = native.Backend("NumPy kernels requested by the test")


def numpy_path():
    """Context manager: every kernel application inside takes the NumPy
    kernels (usable where a function-scoped fixture is not, e.g. under
    hypothesis)."""
    return mock.patch.object(native, "resolve_backend", lambda: NUMPY_BACKEND)


def valid_cells(grid, depth: int) -> np.ndarray:
    """``(num_slots, B, B, B)`` mask of the cells within ``depth`` cells
    of ``grid``'s interior, from each slot's coordinates (a ghostless
    grid wraps: every cell is valid).  After a window of ``n`` sweeps
    of a radius-``r`` stencil, an output holds the values of ``n``
    single applications here at depth ``ghost_cells - n * r``, and
    nothing anyone may read elsewhere."""
    B, g = grid.brick_dim, grid.ghost_bricks
    shape = (grid.num_slots, B, B, B)
    if g == 0:
        return np.ones(shape, dtype=bool)
    n = np.asarray(grid.shape_bricks)
    cells = grid.slot_to_grid[:, :, None] * B + np.arange(B)
    inside = (cells >= (g * B - depth)) & (cells < ((g + n) * B + depth)[:, None])
    return (
        inside[:, 0, :, None, None]
        & inside[:, 1, None, :, None]
        & inside[:, 2, None, None, :]
    )


def poisoned_ghosts():
    """Context manager: every stencil application inside (native or
    NumPy) starts with NaN in its staging arrays and ends with NaN in
    every output cell outside the box it promises (depth
    ``ghost_cells - sweeps * radius``).  A solve that reads such a cell
    turns NaN; one that reads none keeps its bytes."""
    from repro.dsl.codegen import CompiledKernel

    real = CompiledKernel.apply
    masks: dict = {}

    def apply(self, fields, consts=None, workspace=None, sweeps=1):
        for key, buf in (workspace or {}).items():
            if isinstance(key, tuple) and key[0] == "native-stage":
                buf.fill(np.nan)
        real(self, fields, consts, workspace, sweeps)
        grid = fields[self.analysis.output_grids[0]].grid
        depth = grid.ghost_cells - sweeps * self.analysis.radius
        key = (grid.geometry_key, depth)
        if key not in masks:
            masks[key] = ~valid_cells(grid, depth)
        for g in self.analysis.output_grids:
            fields[g].data[masks[key]] = np.nan

    return mock.patch.object(CompiledKernel, "apply", apply)


def exchange_every_sweep():
    """Context manager: every cycle inside exchanges before each
    smoothing iteration — HPGMG's schedule, the paper's baseline —
    instead of once per halo budget (the communication-avoiding
    schedule, the only one the solver runs)."""
    return mock.patch.object(
        VCycle, "iterations_per_exchange", lambda self, lev: 1
    )


class ArmedNeverStriking:
    """Injector stand-in for ``HaloExchange(injector=...)``: arms every
    exchange and strikes no message, so each one moves envelopes — the
    all-envelope reference, forced from the test side."""

    vcycle = 0

    def may_strike(self, level=None):
        return True

    def message_action(self, *args):
        return None

    def crashes_due(self, level=None):
        return []


#: what gives a whole solve an injector that strikes nothing and ships
#: no replicas: ``GMGSolver(config, **QUIET_INJECTOR)`` leaves the
#: residual history, messages and ledger of ``GMGSolver(config)``
QUIET_INJECTOR = {
    "fault_plan": FaultPlan.single("sdc", vcycle=99),
    "resilience": ResilienceConfig(buddy_checkpoints=False),
}


def all_envelopes():
    """Context manager: every exchange of a solve that has an injector
    (:data:`QUIET_INJECTOR` will do) is armed, so all of them move
    envelopes — the reference the planned copy is compared against."""
    return mock.patch.object(
        FaultInjector, "may_strike", lambda self, level=None: True
    )


@pytest.fixture(scope="session", autouse=True)
def _session_kernel_cache(tmp_path_factory):
    """Native kernels the suite builds go to a per-session directory
    (inherited by the CLI subprocesses), never the user's cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture
def native_backend() -> native.Backend:
    """The process's native backend; skips when there is none."""
    backend = native.resolve_backend()
    if backend.reason is not None:
        pytest.skip(f"no native kernels: {backend.reason}")
    return backend


@pytest.fixture
def numpy_kernels():
    """Send every kernel application of the test down the NumPy path."""
    with numpy_path():
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240513)


@pytest.fixture(params=["lexicographic", "surface-major"])
def ordering(request) -> str:
    return request.param


@pytest.fixture
def small_grid(ordering) -> BrickGrid:
    """A 4x3x2-brick grid of 4^3 bricks with one ghost brick."""
    return BrickGrid((4, 3, 2), 4, ghost_bricks=1, ordering=ordering)


@pytest.fixture
def random_field(small_grid, rng) -> tuple[BrickedArray, np.ndarray]:
    dense = rng.random(small_grid.shape_cells)
    return BrickedArray.from_ijk(small_grid, dense), dense


def zero_ghost(field: BrickedArray) -> None:
    """Zero ``field``'s ghost shell (proves an exchange or a boundary
    fill wrote what a test then reads)."""
    field.data[field.grid.ghost_slots] = 0.0


def reference_apply_op(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """7-point periodic operator on a dense array (test oracle)."""
    return alpha * x + beta * (
        np.roll(x, -1, 0)
        + np.roll(x, 1, 0)
        + np.roll(x, -1, 1)
        + np.roll(x, 1, 1)
        + np.roll(x, -1, 2)
        + np.roll(x, 1, 2)
    )
