"""The declarative sweep orchestrator: config, expansion, execution."""

import json

import pytest

from repro.perf.sweep import (
    SWEEP_SCHEMA_VERSION,
    SweepConfig,
    expand,
    run_sweep,
)

#: a matrix tiny enough to execute in-test: 2 brick sizes on a 16^3
#: two-level problem capped at one V-cycle
TINY = dict(
    name="tiny",
    base=dict(
        global_cells=16, num_levels=2, brick_dim=4, max_smooths=2,
        bottom_smooths=4, max_vcycles=1,
    ),
    axes={"brick_dim": [4, 2]},
    rounds=2,
    warmup=0,
)


class TestSweepConfig:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepConfig(name="s", axes={"warp_speed": [1, 2]})

    def test_solver_field_axis_accepted(self):
        cfg = SweepConfig(name="s", axes={"brick_dim": [2, 4]})
        assert cfg.axes["brick_dim"] == [2, 4]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepConfig(name="s", axes={})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepConfig(name="s", axes={"brick_dim": []})

    def test_unsafe_name_rejected(self):
        with pytest.raises(ValueError, match="filesystem-safe"):
            SweepConfig(name="a/b", axes={"brick_dim": [4]})

    def test_baseline_must_be_on_an_axis(self):
        with pytest.raises(ValueError, match="not a declared axis"):
            SweepConfig(
                name="s",
                axes={"brick_dim": [4]},
                baseline={"communication_avoiding": True},
            )
        with pytest.raises(ValueError, match="not on axis"):
            SweepConfig(
                name="s", axes={"brick_dim": [4]}, baseline={"brick_dim": 8}
            )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sweep config keys"):
            SweepConfig.from_dict(
                {"name": "s", "axes": {"brick_dim": [4]}, "color": "red"}
            )

    def test_from_file_round_trip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(
            json.dumps({"name": "s", "axes": {"communication_avoiding": [False]}})
        )
        cfg = SweepConfig.from_file(p)
        assert cfg.name == "s"

    def test_baseline_defaults_to_first_values(self):
        cfg = SweepConfig(
            name="s",
            axes={"brick_dim": [2, 4], "communication_avoiding": [False, True]},
        )
        assert cfg.baseline_axes() == {
            "brick_dim": 2, "communication_avoiding": False,
        }


class TestExpansion:
    def test_cartesian_product(self):
        cfg = SweepConfig(
            name="s",
            axes={"brick_dim": [2, 4], "communication_avoiding": [False, True]},
        )
        cells = expand(cfg)
        assert len(cells) == 4
        assert [c.label for c in cells] == [
            "brick_dim-2_communication_avoiding-off",
            "brick_dim-2_communication_avoiding-on",
            "brick_dim-4_communication_avoiding-off",
            "brick_dim-4_communication_avoiding-on",
        ]
        assert cells[1].solver_kwargs == dict(
            brick_dim=2, communication_avoiding=True
        )

    def test_scenario_fills_only_unpinned_keys(self):
        # tier1 says brick_dim=4; the axis pins 8, and must win
        cfg = SweepConfig(
            name="s",
            base={"scenario": "tier1"},
            axes={"brick_dim": [8]},
        )
        (cell,) = expand(cfg)
        assert cell.solver_kwargs["brick_dim"] == 8
        assert cell.solver_kwargs["global_cells"] == 32

    def test_unknown_scenario_rejected(self):
        cfg = SweepConfig(name="s", axes={"scenario": ["atlantis"]})
        with pytest.raises(ValueError, match="unknown scenario"):
            expand(cfg)

    def test_custom_scenario_table_merges_over_builtins(self):
        cfg = SweepConfig(
            name="s",
            axes={"scenario": ["mine"]},
            scenarios={"mine": {"global_cells": 8, "num_levels": 1}},
        )
        (cell,) = expand(cfg)
        assert cell.solver_kwargs["global_cells"] == 8

    def test_machine_axis_is_not_a_solver_kwarg(self):
        cfg = SweepConfig(
            name="s",
            base={"scenario": "smoke"},
            axes={"machine": ["Perlmutter", None]},
        )
        cells = expand(cfg)
        assert cells[0].machine == "Perlmutter"
        assert cells[1].machine is None
        assert all("machine" not in c.solver_kwargs for c in cells)

    def test_rank_dims_list_becomes_tuple(self):
        cfg = SweepConfig(name="s", axes={"rank_dims": [[2, 1, 1]]})
        (cell,) = expand(cfg)
        assert cell.solver_kwargs["rank_dims"] == (2, 1, 1)

    def test_committed_sweep_configs_expand(self):
        for name in ("smoke", "agglomeration"):
            cfg = SweepConfig.from_file(f"benchmarks/sweeps/{name}.json")
            cells = expand(cfg)
            assert cells, name
            base = cfg.baseline_axes()
            assert any(c.axes == base for c in cells), name


class TestRunSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return run_sweep(SweepConfig(**TINY))

    def test_every_cell_ran_every_round(self, report):
        assert len(report.cells) == 2
        for r in report.cells:
            assert len(r.samples) == TINY["rounds"]
            assert r.stats.count == TINY["rounds"]
            assert r.ok and r.vcycles >= 1

    def test_attribution_covers_non_baseline_values(self, report):
        (effect,) = report.effects
        assert effect.axis == "brick_dim" and effect.value == "2"
        assert effect.baseline_value == "4"
        assert effect.pairs == 1

    def test_json_schema(self, report):
        obj = json.loads(json.dumps(report.to_json()))
        assert obj["schema"] == SWEEP_SCHEMA_VERSION
        assert obj["name"] == "tiny"
        assert len(obj["cells"]) == 2
        for cell in obj["cells"]:
            for key in ("label", "axes", "status", "vcycles",
                        "wallclock_ms"):
                assert key in cell, key
            assert cell["wallclock_ms"]["count"] == TINY["rounds"]
        assert obj["attribution"]
        assert obj["baseline_label"] == "brick_dim-4"

    def test_ledger_entries_one_series_per_cell(self, report):
        entries = report.ledger_entries()
        assert [e.benchmark for e in entries] == [
            "sweep_tiny.brick_dim-4",
            "sweep_tiny.brick_dim-2",
        ]
        for e in entries:
            assert e.source == "sweep"
            assert e.metrics["wallclock_ms"] > 0
            assert e.metrics["wallclock_ms.median"] >= e.metrics["wallclock_ms"]
            assert e.metrics["vcycles"] == 1.0
            assert e.context["sweep"] == "tiny"

    def test_ledger_entry_round_trips(self, report):
        from repro.obs.ledger import LedgerEntry

        entry = report.ledger_entries()[0]
        again = LedgerEntry.from_json(
            json.loads(json.dumps(entry.to_json()))
        )
        assert again == entry

    def test_ascii_render_has_table_and_attribution(self, report):
        text = report.render()
        assert "sweep 'tiny': 2 cells" in text
        assert "brick_dim-4" in text and "brick_dim-2" in text
        assert "axis attribution" in text
        assert "median wallclock by cell index" in text

    def test_html_is_self_contained(self, report):
        html = report.to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "brick_dim-2" in html
        assert "<script" not in html  # no external or inline scripts
        assert "axis attribution" in html


class TestSweepCommand:
    def test_end_to_end_with_update_and_series_gate(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        ledger = tmp_path / "ledger"
        args = ["sweep", "--config", str(config), "--out", str(out),
                "--ledger", str(ledger), "--update"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert "sweep_tiny" in stdout
        for suffix in (".txt", ".json", ".html"):
            assert (out / f"sweep_tiny{suffix}").exists(), suffix
        obj = json.loads((out / "sweep_tiny.json").read_text())
        assert obj["schema"] == SWEEP_SCHEMA_VERSION

        # one more run arms the series; the gate then passes clean and
        # fails under an injected slowdown (the CI inverted self-test).
        # Both cells are ~5 ms solves, and two runs of those can differ
        # by more than the default 15% floor on a busy host: the
        # threshold is wide enough that only the injection crosses it.
        assert main(args) == 0
        capsys.readouterr()
        gate = ["perfgate", "--ledger", str(ledger),
                "--series", "sweep_tiny.*", "--window", "1",
                "--noise-scaled", "--threshold", "3.0"]
        assert main(gate) == 0
        capsys.readouterr()
        assert main(gate + ["--inject-slowdown", "2000"]) == 1

    def test_missing_config_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep"])  # --config is required
