"""Variable-coefficient stencils through the DSL (Section III: "this
format is fairly flexible, including ... non-constant coefficients")
and the multigrid solver built on them."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.bricks import BrickGrid, BrickedArray
from repro.dsl import analyze, compile_stencil
from repro.dsl.library import build_variable_coefficient_apply_op
from repro.gmg.varcoef import (
    VARIABLE_APPLY_OP,
    VARIABLE_SMOOTH,
    VARIABLE_SMOOTH_RESIDUAL,
    VarCoefLevel,
    VariableCoefficientJacobi,
    VariableCoefficientSolver,
)
from tests.conftest import numpy_path
from tests.oracle import (
    OracleVariableCoefficientSolver,
    assert_matches_record,
    oracle_record,
)


def beta_smooth(x, y, z):
    return 1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + (
        0.25 * np.cos(2 * np.pi * z)
    )


def manufactured_u(n: int) -> np.ndarray:
    c = (np.arange(n) + 0.5) / n
    u = (
        np.sin(2 * np.pi * c)[:, None, None]
        * np.sin(4 * np.pi * c)[None, :, None]
        * np.cos(2 * np.pi * c)[None, None, :]
    )
    return u - u.mean()


def stopping_at(solver, tol, max_vcycles):
    """``solver`` with its config's stopping rule replaced."""
    solver.config = dataclasses.replace(
        solver.config, tol=tol, max_vcycles=max_vcycles
    )
    return solver


def manufactured_solver(cls=VariableCoefficientSolver, rank_dims=(1, 1, 1)):
    """The 32^3 manufactured problem ``b = A u``, ready to solve to 1e-9."""
    s = cls(beta_smooth, global_cells=32, num_levels=3, brick_dim=4,
            max_smooths=8, bottom_smooths=60, rank_dims=rank_dims)
    s.set_rhs(s.apply_operator(manufactured_u(32)))
    return stopping_at(s, 1e-9, 60)


class TestKernels:
    def test_apply_op_reads_coefficient_grids(self):
        an = analyze(VARIABLE_APPLY_OP)
        assert set(an.input_grids) == {"x", "c0", "cx", "cy", "cz"}
        assert an.halo_grids == ("x",)

    def test_smooth_uses_precomputed_diagonal(self):
        an = analyze(VARIABLE_SMOOTH)
        assert "dinv" in an.input_grids
        assert an.radius == 0

    def test_smooth_residual_outputs(self):
        an = analyze(VARIABLE_SMOOTH_RESIDUAL)
        assert set(an.output_grids) == {"x", "r"}


class TestVarCoefLevel:
    def test_coefficient_derivation(self):
        lv = VarCoefLevel(0, (8, 8, 8), 4, h=1 / 8)
        beta = np.full((8, 8, 8), 2.0)
        lv.set_coefficient(beta)
        np.testing.assert_allclose(lv.cx.to_ijk(), 2.0 * 64.0)
        np.testing.assert_allclose(lv.c0.to_ijk(), -6.0 * 2.0 * 64.0)
        np.testing.assert_allclose(lv.dinv.to_ijk(), 1.0 / (-768.0))

    def test_positive_coefficient_required(self):
        lv = VarCoefLevel(0, (8, 8, 8), 4, h=1 / 8)
        with pytest.raises(ValueError, match="positive"):
            lv.set_coefficient(np.zeros((8, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected_at_construction(self, bad):
        """NaN passes ``beta <= 0``; it must not reach a solve that runs
        and returns a ``[nan]`` history."""

        def beta(x, y, z):
            out = np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))
            out[1, 2, 3] = bad
            return out

        with pytest.raises(ValueError, match="finite"):
            VariableCoefficientSolver(beta, global_cells=8, num_levels=2,
                                      brick_dim=4)

    def test_fields_include_coefficients(self):
        lv = VarCoefLevel(0, (8, 8, 8), 4, h=1 / 8)
        assert {"c0", "cx", "cy", "cz", "dinv"} <= set(lv.fields())


class TestOperator:
    def test_constant_beta_recovers_paper_operator(self):
        """beta = 1 must reproduce the constant-coefficient A exactly."""
        from tests.conftest import reference_apply_op

        s = VariableCoefficientSolver(
            lambda x, y, z: np.ones_like(x + y + z),
            global_cells=16, num_levels=2, brick_dim=4,
        )
        rng = np.random.default_rng(5)
        u = rng.random((16, 16, 16))
        Au = s.apply_operator(u)
        c = s.depths[0].level.constants
        oracle = reference_apply_op(u, c.alpha, c.beta)
        np.testing.assert_allclose(Au, oracle, rtol=1e-12)

    def test_row_sums_vanish(self):
        """Conservation: A applied to a constant is zero."""
        s = VariableCoefficientSolver(beta_smooth, global_cells=16,
                                      num_levels=2, brick_dim=4)
        Au = s.apply_operator(np.full((16, 16, 16), 3.7))
        assert np.abs(Au).max() < 1e-7  # c0 = -2(cx+cy+cz) exactly

    def test_distributed_operator_matches_serial(self):
        u = manufactured_u(16)
        serial = VariableCoefficientSolver(beta_smooth, global_cells=16,
                                           num_levels=2, brick_dim=4)
        dist = VariableCoefficientSolver(beta_smooth, global_cells=16,
                                         num_levels=2, brick_dim=4,
                                         rank_dims=(2, 1, 1))
        np.testing.assert_array_equal(
            serial.apply_operator(u), dist.apply_operator(u)
        )


class TestSolve:
    @pytest.fixture(scope="class")
    def solved(self):
        s = manufactured_solver()
        return s, manufactured_u(32), s.solve()

    def test_converges(self, solved):
        _, _, result = solved
        assert result.converged
        assert result.num_vcycles < 20

    def test_recovers_manufactured_solution(self, solved):
        s, u, _ = solved
        sol = s.solution()
        sol -= sol.mean()
        assert np.abs(sol - u).max() < 1e-9

    def test_residual_decreases(self, solved):
        _, _, result = solved
        h = result.residual_history
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_distributed_solve_matches_serial(self, solved):
        s, _, _ = solved
        dist = manufactured_solver(rank_dims=(2, 1, 1))
        dist.solve()
        a = s.solution()
        b = dist.solution()
        np.testing.assert_allclose(a - a.mean(), b - b.mean(), atol=1e-12)

    def test_rank_dims_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            VariableCoefficientSolver(beta_smooth, global_cells=16,
                                      num_levels=2, rank_dims=(3, 1, 1))

    def test_smoother_validation(self):
        with pytest.raises(ValueError):
            VariableCoefficientJacobi(omega=0.0)

    def test_rough_coefficient_still_converges(self):
        """A 10:1 coefficient jump (smoothly varying) still solves."""

        def rough(x, y, z):
            return 1.0 + 9.0 * (0.5 + 0.5 * np.sin(2 * np.pi * x) *
                                np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z))

        s = VariableCoefficientSolver(rough, global_cells=32, num_levels=3,
                                      brick_dim=4, max_smooths=8,
                                      bottom_smooths=60)
        u = manufactured_u(32)
        s.set_rhs(s.apply_operator(u))
        result = stopping_at(s, 1e-8, 80).solve()
        assert result.converged


# ----------------------------------------------------------------------
# the stacked path pinned to the per-rank schedule and to earlier releases
# ----------------------------------------------------------------------
#: the 32^3 manufactured solve (8 smooths, 60 bottom smooths, tol 1e-9)
#: as the per-rank ``VCycle`` loop computed it before the solver ran on
#: stacked levels: one residual history for every rank grid, and
#: the SHA-256 of the assembled solution and of every rank level's
#: stored ``x``, ``Ax`` and ``r`` at its interior slots (lexicographic
#: interior order; a ghostless grid's slot order), taken from the
#: released arrays: ghost cells are not pinned, since the native
#: kernels leave those beyond the valid depth uncomputed
RELEASED_HISTORY = [
    "0x1.743a6cb0c8690p+8", "0x1.a30c41982a590p+5", "0x1.523fd15487000p+0",
    "0x1.f1c40eed6c000p-4", "0x1.2817af5d00000p-8", "0x1.92c2fa4e00000p-12",
    "0x1.59eb447000000p-16", "0x1.8a120a0000000p-20", "0x1.a09bd00000000p-24",
    "0x1.8bbe000000000p-28", "0x1.db10000000000p-32",
]
RELEASED_SOLUTION = "bfde6a29da727a15f7b1f4d1349926b9f9f1c670b2cc989b9bf02f3a22435631"
RELEASED_STORED = {
    (1, 1, 1): "fd86a5474029b208e0da5e70abb5cd681da3cda76acef54315c6cced951f362d",
    (2, 1, 1): "4d4d68c5a24e2808676cb555a0a41d1832f012776a1b0b02b40a58a4c29703d4",
    (2, 2, 2): "39e5b3c1a23ecc62edcfb1f708008be2f9e5e361b04de670a67f49320a0c75d6",
}


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("rank_dims", list(RELEASED_STORED), ids=str)
def test_engine_solve_matches_oracle_and_release(rank_dims):
    """Coefficients stacked with ``x`` in each depth's level, one kernel
    call per depth: status, history, solution and stored fields equal
    the per-rank NumPy schedule's byte for byte, and the released
    numbers."""
    with numpy_path():
        oracle = manufactured_solver(OracleVariableCoefficientSolver, rank_dims)
    expected = oracle_record(oracle)
    solver = manufactured_solver(rank_dims=rank_dims)
    result = solver.solve()
    assert_matches_record(result, solver, expected)
    assert result.converged and result.num_vcycles == 10
    assert [h.hex() for h in result.residual_history] == RELEASED_HISTORY
    assert result.final_residual == 4.320668267610017e-10
    assert sha256([solver.solution()]) == RELEASED_SOLUTION
    stored = [
        getattr(lv, name).data[lv.grid.interior_slots]
        for k in range(solver.topology.size)
        for depth in solver.depths
        for lv in [depth.level.blocks()[k]]
        for name in ("x", "Ax", "r")
    ]
    assert sha256(stored) == RELEASED_STORED[rank_dims]


def test_eight_rank_sweep_is_one_native_call(native_backend):
    """The coefficient grids are stacked with ``x``: a smoothing sweep
    over eight ranks is one ``applyOp`` and one ``smooth`` call."""
    from repro.dsl import native

    s = VariableCoefficientSolver(beta_smooth, global_cells=16, num_levels=2,
                                  brick_dim=4, rank_dims=(2, 2, 2))
    s.set_rhs(s.apply_operator(manufactured_u(16)))
    s.vcycle.smooth_level(0, 1, with_residual=True)  # binds the kernels
    before = native.call_counts()
    s.vcycle.smooth_level(0, 1, with_residual=True)
    after = native.call_counts()
    assert after["calls"] - before["calls"] == 2
    assert after["sweeps"] - before["sweeps"] == 2


# ----------------------------------------------------------------------
# the library's variable-coefficient operator on its own
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stencil():
    return build_variable_coefficient_apply_op()


class TestAnalysis:
    def test_reads_five_grids(self, stencil):
        an = analyze(stencil)
        assert set(an.input_grids) == {"x", "c0", "cx", "cy", "cz"}
        assert an.output_grids == ("Ax",)

    def test_only_x_needs_halo(self, stencil):
        an = analyze(stencil)
        assert an.halo_grids == ("x",)

    def test_traffic_is_six_streams(self, stencil):
        an = analyze(stencil)
        assert an.bytes_per_point == 48  # 5 reads + 1 write

    def test_flops(self, stencil):
        # 4 multiplies + 3 pairwise neighbour adds + 3 axis adds = 10
        assert analyze(stencil).flops_per_point == 10

    def test_lower_ai_than_constant_coefficient(self, stencil):
        from repro.dsl import APPLY_OP, arithmetic_intensity

        assert arithmetic_intensity(stencil) < arithmetic_intensity(APPLY_OP)


class TestExecution:
    def test_matches_dense_oracle(self, stencil, rng):
        grid = BrickGrid((4, 4, 4), 4)
        n = grid.shape_cells
        dense = {g: rng.random(n) for g in ("x", "c0", "cx", "cy", "cz")}
        fields = {}
        for name, arr in dense.items():
            f = BrickedArray.from_ijk(grid, arr)
            f.fill_ghost_periodic()
            fields[name] = f
        fields["Ax"] = BrickedArray.zeros(grid)

        compile_stencil(stencil, 4).apply(fields, {})

        x = dense["x"]
        oracle = (
            dense["c0"] * x
            + dense["cx"] * (np.roll(x, -1, 0) + np.roll(x, 1, 0))
            + dense["cy"] * (np.roll(x, -1, 1) + np.roll(x, 1, 1))
            + dense["cz"] * (np.roll(x, -1, 2) + np.roll(x, 1, 2))
        )
        np.testing.assert_allclose(fields["Ax"].to_ijk(), oracle, rtol=1e-14)

    def test_constant_coefficients_recover_apply_op(self, stencil, rng):
        """With c0 = alpha and cx = cy = cz = beta the variable kernel
        must agree with the constant-coefficient applyOp."""
        from repro.dsl import APPLY_OP

        grid = BrickGrid((4, 4, 4), 4)
        n = grid.shape_cells
        x_dense = rng.random(n)
        alpha, beta = -6.0, 1.0

        fields_var = {
            "x": BrickedArray.from_ijk(grid, x_dense),
            "c0": BrickedArray.from_ijk(grid, np.full(n, alpha)),
            "cx": BrickedArray.from_ijk(grid, np.full(n, beta)),
            "cy": BrickedArray.from_ijk(grid, np.full(n, beta)),
            "cz": BrickedArray.from_ijk(grid, np.full(n, beta)),
            "Ax": BrickedArray.zeros(grid),
        }
        for f in fields_var.values():
            f.fill_ghost_periodic()
        compile_stencil(stencil, 4).apply(fields_var, {})

        fields_const = {
            "x": fields_var["x"],
            "Ax": BrickedArray.zeros(grid),
        }
        compile_stencil(APPLY_OP, 4).apply(
            fields_const, {"alpha": alpha, "beta": beta}
        )
        # association order differs between the two kernels -> rounding
        np.testing.assert_allclose(
            fields_var["Ax"].to_ijk(),
            fields_const["Ax"].to_ijk(),
            rtol=1e-12,
            atol=1e-13,
        )
