"""JSON export of every paper element's data series."""

import json

import pytest

from repro.harness.export import experiment_payloads, export_all


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

