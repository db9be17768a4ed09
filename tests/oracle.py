"""The reference every identity suite compares :class:`GMGSolver` against.

The seed schedule, kept because it is the simplest thing that computes
the paper's Algorithms 1 and 2 on bricks: a Python loop over ranks
(:func:`per_rank` points the cycle's compute phases at each level's
block views), each smoothing iteration as the paper's kernel sequence —
``applyOp``, then ``smooth`` or ``smooth+residual`` — one kernel
launch per stage and per sweep, every launch through
``gather_extended`` and the generated NumPy function.  No kernel in it
runs over the stack, fused, windowed or native, so agreement with it
byte for byte pins all of those at once.

The oracle shares the hierarchy (its depths: levels and their block
views, exchangers and their one ghost copy, agglomeration staging and
transfers; the right-hand side or coefficients) and the resilient driver with the solver under test;
what it replaces is how kernels execute.  Ghosts are judged on their
own, against a dense reference (``tests/test_exchange.py``), and the
valid-depth rule against NaN-poisoned ghosts
(``tests/test_ghost_clip.py``).

A fault-free, untraced oracle solve is a pure function of its
:class:`SolverConfig`, so :func:`oracle_solve` keeps one
:class:`OracleRecord` per config for the test session: identity cases
that share a config share one reference solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsl.codegen import compile_stencil
from repro.dsl.library import SMOOTH, SMOOTH_RESIDUAL
from repro.gmg import GMGSolver, JacobiSmoother, SolverConfig
from repro.gmg import operators as ops
from repro.gmg.varcoef import VariableCoefficientSolver

from tests.conftest import numpy_path


class StagedJacobi(JacobiSmoother):
    """Algorithm 2's smoothing iteration and Algorithm 1's residual,
    one kernel per stage."""

    def iterate(self, level, with_residual, recorder, sweeps=1):
        stencil = SMOOTH_RESIDUAL if with_residual else SMOOTH
        kernel = compile_stencil(stencil, level.grid.brick_dim)
        for _ in range(sweeps):
            ops.apply_op(level, recorder)
            kernel.apply(level.fields(), self._constants(level), level.workspace)
            if recorder is not None:
                recorder.kernel(level.index, stencil.name, level.num_points)

    def apply_op_residual(self, level, recorder):
        ops.apply_op(level, recorder)
        ops.residual(level, recorder)


def per_rank(vcycle):
    """Point ``vcycle``'s compute phases at each level's block views:
    every kernel runs once per rank, every inter-grid transfer per rank
    pair."""
    vcycle.targets = lambda level: level.blocks()
    return vcycle


class OracleSolver(GMGSolver):
    """``config``'s hierarchy under the seed schedule."""

    def __init__(self, config: SolverConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        per_rank(self.vcycle)
        # the other smoothers' updates (and the variable-coefficient
        # sweep's two kernels) are unfused already
        if type(self.vcycle.smoother) is JacobiSmoother:
            staged = StagedJacobi(**dict(config.smoother_options))
            staged.tracer = self.vcycle.smoother.tracer
            self.vcycle.smoother = staged

    def solve(self):
        with numpy_path():
            return super().solve()


class OracleVariableCoefficientSolver(VariableCoefficientSolver, OracleSolver):
    """A :class:`VariableCoefficientSolver` under the seed schedule."""


def stored_fields(solver) -> list[np.ndarray]:
    """``x``, ``Ax`` and ``r`` of every compute level at its interior
    cells.  Ghost cells are not compared: the native kernels leave those
    beyond the valid depth uncomputed, the oracle's NumPy kernels
    compute clamp artefacts there, and nothing reads either before the
    next exchange."""
    vcycle = solver.vcycle
    return [
        getattr(level, name).data[level.grid.interior_slots]
        for lev in range(vcycle.num_levels)
        for level in vcycle.depths[lev].level.blocks()
        for name in ("x", "Ax", "r")
    ]


@dataclass(frozen=True)
class OracleRecord:
    """What one oracle solve left behind (arrays are read-only copies)."""

    status: str
    num_vcycles: int
    rollbacks: int
    residual_history: tuple[float, ...]
    solution: np.ndarray
    stored: tuple[np.ndarray, ...]


def _frozen(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.setflags(write=False)
    return array


_RECORDS: dict[SolverConfig, OracleRecord] = {}


def oracle_record(oracle: OracleSolver) -> OracleRecord:
    """Solve a constructed oracle and keep what it left behind."""
    result = oracle.solve()
    return OracleRecord(
        status=result.status,
        num_vcycles=result.num_vcycles,
        rollbacks=result.rollbacks,
        residual_history=tuple(result.residual_history),
        solution=_frozen(oracle.solution()),
        stored=tuple(_frozen(a) for a in stored_fields(oracle)),
    )


def oracle_solve(config: SolverConfig, **solver_kwargs) -> OracleRecord:
    """The oracle's record for ``config``; solved once per session
    unless a fault plan, resilience or tracer makes the solve its own."""
    if solver_kwargs:
        return oracle_record(OracleSolver(config, **solver_kwargs))
    record = _RECORDS.get(config)
    if record is None:
        record = _RECORDS[config] = oracle_record(OracleSolver(config))
    return record


def assert_matches_record(result, solver, expected: OracleRecord) -> None:
    """``solver``'s finished solve (``result``) left the status, residual
    history, assembled solution and stored fields of ``expected``, byte
    for byte."""
    assert result.status == expected.status
    assert result.num_vcycles == expected.num_vcycles
    assert result.rollbacks == expected.rollbacks
    assert tuple(result.residual_history) == expected.residual_history
    pairs = [(solver.solution(), expected.solution)]
    pairs += zip(stored_fields(solver), expected.stored, strict=True)
    for got, want in pairs:
        np.testing.assert_array_equal(got, want)  # says where they differ
        assert got.tobytes() == want.tobytes()  # signed zeros, NaN payloads


def assert_matches_oracle(config: SolverConfig, **solver_kwargs):
    """Solve ``config`` with :class:`GMGSolver` and require
    :func:`oracle_solve`'s record.  Returns the solver's ``(result,
    solver)``."""
    solver = GMGSolver(config, **solver_kwargs)
    result = solver.solve()
    assert_matches_record(result, solver, oracle_solve(config, **solver_kwargs))
    return result, solver
