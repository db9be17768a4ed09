"""Report renderers: paper-format output."""

import pytest

from repro.harness import experiments as E
from repro.harness import reporting as R


@pytest.fixture(scope="module")
def fig3():
    return E.fig3_time_per_level()


class TestRenderers:
    def test_fig3_table(self, fig3):
        text = R.render_fig3(fig3)
        assert "Figure 3" in text
        assert "level 5" in text
        assert "Perlmutter" in text

    def test_fig4_table(self):
        text = R.render_fig4(E.fig4_vs_hpgmg())
        assert "HPGMG" in text
        assert "x" in text

    def test_table2(self):
        text = R.render_table2(E.table2_op_breakdown())
        assert "smooth+residual" in text
        assert "%" in text

    def test_fig5(self):
        text = R.render_fig5(E.fig5_kernel_throughput("applyOp"))
        assert "GStencil/s" in text
        assert "alpha" in text

    def test_fig6(self):
        text = R.render_fig6(E.fig6_exchange_bandwidth())
        assert "GB/s" in text
        assert "MB" in text

    def test_portability(self):
        text = R.render_portability(E.table3_portability_roofline(), "Table III")
        assert "overall Phi = 73%" in text

    def test_table4(self):
        from repro.perf import ai_comparison_rows

        text = R.render_table4(ai_comparison_rows())
        assert "applyOp" in text
        assert "0.500" in text

    def test_fig7(self):
        text = R.render_fig7(E.fig7_potential_speedup())
        assert "potential=" in text

    def test_scaling(self):
        text = R.render_scaling(E.fig8_weak_scaling("Sunspot"))
        assert "weak" in text
        assert "efficiency" in text
        strong = R.render_scaling(E.fig9_strong_scaling("Sunspot"))
        assert "Figure 9" in strong

    def test_ablation(self):
        text = R.render_ablation(E.ablation_optimizations())
        assert "no-communication-avoiding" in text
        assert "1.00x" in text

