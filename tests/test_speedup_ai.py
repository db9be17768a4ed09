"""Potential speedup (Fig 7) and AI bookkeeping (Tables IV/V inputs)."""

import numpy as np
import pytest

from repro.machines import FRONTIER, MACHINES, PERLMUTTER
from repro.perf import (
    achieved_ai,
    ai_comparison_rows,
    iso_speedup_curve,
    potential_speedup,
)
from repro.perf.ai import achieved_bytes_per_point
from repro.perf.speedup import machine_speedup_points


class TestPotentialSpeedup:
    def test_formula(self):
        assert potential_speedup(0.5, 0.5) == pytest.approx(4.0)
        assert potential_speedup(1.0, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            potential_speedup(0.0, 0.5)
        with pytest.raises(ValueError):
            potential_speedup(0.5, 1.5)

    def test_iso_curve_lies_on_the_curve(self):
        for speedup in (1.2, 1.5, 2.0, 4.0):
            x, y = iso_speedup_curve(speedup)
            np.testing.assert_allclose(1.0 / (x * y), speedup, rtol=1e-12)

    def test_iso_curve_within_unit_square(self):
        x, y = iso_speedup_curve(3.0)
        assert np.all((x > 0) & (x <= 1.0))
        assert np.all((y > 0) & (y <= 1.0))

    def test_iso_curve_validation(self):
        with pytest.raises(ValueError):
            iso_speedup_curve(0.5)

    def test_paper_fig7_claims(self):
        """NVIDIA at most ~1.2x potential; MI250X interp outlier ~4x;
        PVC between ~1.5x and ~2.7x."""
        pts = machine_speedup_points(PERLMUTTER)
        assert max(sp for _, _, sp in pts.values()) <= 1.25
        pts_f = machine_speedup_points(FRONTIER)
        _, _, interp = pts_f["interpolation+increment"]
        assert 3.0 <= interp <= 4.0
        others = [sp for op, (_, _, sp) in pts_f.items()
                  if op != "interpolation+increment"]
        assert all(sp <= 1.65 for sp in others)


class TestAchievedAI:
    def test_achieved_below_theoretical(self):
        for m in MACHINES.values():
            assert achieved_ai(m, "applyOp") <= 0.5

    def test_achieved_bytes_at_least_compulsory(self):
        for m in MACHINES.values():
            assert achieved_bytes_per_point(m, "applyOp") >= 16.0

    def test_unknown_op(self):
        with pytest.raises(KeyError):
            achieved_ai(PERLMUTTER, "fft")

    def test_comparison_rows_cover_table_iv(self):
        rows = ai_comparison_rows()
        assert len(rows) == 5
        for op, ours, paper, diff in rows:
            assert diff == pytest.approx(abs(ours - paper))
            assert diff <= 0.03
