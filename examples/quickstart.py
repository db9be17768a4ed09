#!/usr/bin/env python
"""Quickstart: solve the paper's model problem with brick-based GMG.

Solves the 3-D Poisson equation with periodic boundaries on a 32^3
grid (the paper's Section IV-C setup at laptop scale): a three-level
V-cycle with point-Jacobi smoothing, fine-grain data blocking (4^3
bricks), and communication-avoiding ghost exchange.  The discrete
solution of this problem is known in closed form, so the script
verifies the answer, not just the residual.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.gmg import GMGSolver, SolverConfig, discrete_solution
from repro.obs.aggregate import by_paper_op


def main() -> None:
    config = SolverConfig(
        global_cells=32,  # 32^3 cells on the unit cube
        num_levels=3,  # 32 -> 16 -> 8
        brick_dim=4,  # 4^3 bricks (the paper uses 8^3 at scale)
        max_smooths=12,  # paper: 12 smooths per level visit
        bottom_smooths=100,  # paper: 100-iteration point-Jacobi bottom solve
        tol=1e-10,  # paper's convergence criterion
    )
    solver = GMGSolver(config)
    print(f"Solving A x = b on {config.global_cells}^3 "
          f"({config.num_levels} levels, {config.brick_dim}^3 bricks)")

    result = solver.solve()

    print("\nresidual history (max-norm):")
    for cycle, res in enumerate(result.residual_history):
        label = "initial " if cycle == 0 else f"V-cycle {cycle}"
        print(f"  {label}: {res:.3e}")
    print(f"\nconverged: {result.converged} "
          f"in {result.num_vcycles} V-cycles "
          f"(convergence factor {result.convergence_factor:.3f})")

    exact = discrete_solution((32, 32, 32), 1 / 32)
    err = np.abs(solver.solution() - exact).max()
    print(f"max error vs closed-form discrete solution: {err:.3e}")

    # the solver runs applyOp fused into the smoother; count it under
    # the paper's operation names
    counts = by_paper_op(result.recorder.kernel_counts())
    print("\nkernel applications at the finest level:")
    for (lev, op), n in sorted(counts.items()):
        if lev == 0:
            print(f"  {op:<26s} {n}")


if __name__ == "__main__":
    main()
