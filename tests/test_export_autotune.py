"""JSON export and configuration auto-tuning."""

import json

import pytest

from repro.harness.autotune import autotune, render_tuning
from repro.harness.export import experiment_payloads, export_all
from repro.machines import MACHINES, PERLMUTTER, SUNSPOT


class TestExport:
    @pytest.fixture(scope="class")
    def payloads(self):
        return experiment_payloads()

    def test_all_paper_elements_present(self, payloads):
        expected = {
            "fig3", "fig4", "table2", "fig5_applyOp", "fig5_smooth_residual",
            "fig6", "table3", "table4", "table5", "fig7", "fig8", "fig9",
            "ablations",
        }
        assert set(payloads) == expected

    def test_payloads_are_json_serialisable(self, payloads):
        text = json.dumps(payloads)
        assert "Perlmutter" in text

    def test_fig8_series_structure(self, payloads):
        fig8 = payloads["fig8"]["Frontier"]
        assert fig8["mode"] == "weak"
        assert len(fig8["nodes"]) == len(fig8["gstencil"]) == len(
            fig8["efficiency"]
        )

    def test_table4_rows(self, payloads):
        rows = payloads["table4"]
        assert len(rows) == 5
        assert {"operation", "ours", "paper", "diff"} == set(rows[0])

    def test_export_all_writes_files(self, tmp_path):
        written = export_all(tmp_path)
        assert len(written) == 13
        for path in written:
            data = json.loads(path.read_text())
            assert data  # non-empty


class TestAutotune:
    @pytest.fixture(scope="class")
    def result(self):
        return autotune(PERLMUTTER)

    def test_space_size(self, result):
        # 4 brick dims x 2 orderings x 2 CA x 2 gpu-aware
        assert len(result.choices) == 32

    def test_sorted_fastest_first(self, result):
        times = [c.vcycle_seconds for c in result.choices]
        assert times == sorted(times)

    def test_ranking_is_model_only(self, result):
        """The ranking key is the modelled V-cycle time and nothing
        else: host wallclock is reported next to the machine model,
        never folded into it."""
        with pytest.raises(TypeError, match="prior"):
            autotune(PERLMUTTER, prior={4: 1.0, 8: 2.0})
        assert not hasattr(result.best, "measured_ms")
        assert not hasattr(result, "prior_bricks")

    def test_best_uses_the_paper_optimisations(self, result):
        best = result.best
        assert best.communication_avoiding
        assert best.gpu_aware
        assert best.ordering == "surface-major"

    def test_worst_disables_everything(self, result):
        worst = result.worst
        assert not worst.communication_avoiding
        assert not worst.gpu_aware

    def test_meaningful_headroom(self, result):
        assert result.tuning_headroom > 3.0

    def test_sunspot_tuner_wants_gpu_aware(self):
        """The tuner confirms the paper's diagnosis: Sunspot's missing
        GPU-aware MPI path is worth a configuration-level win."""
        r = autotune(SUNSPOT)
        assert r.best.gpu_aware

    def test_render(self, result):
        text = render_tuning(result)
        title = text.splitlines()[0]
        assert title == (
            f"auto-tuning on Perlmutter "
            f"(headroom {result.tuning_headroom:.2f}x):"
        )
        assert "measured" not in text
        assert "(worst)" in text

    def test_all_machines_tune(self):
        for m in MACHINES.values():
            r = autotune(m, brick_dims=(4, 8))
            assert len(r.choices) == 16
