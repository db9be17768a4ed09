"""Command-line interface."""

import pytest

from repro.cli import main


class TestSolveCommand:
    def test_basic_solve(self, capsys):
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "maxNormRes" in out

    def test_verify_flag(self, capsys):
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--verify"])
        assert rc == 0
        assert "closed-form" in capsys.readouterr().out

    def test_distributed(self, capsys):
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--ranks", "2,1,1"])
        assert rc == 0
        assert "2 rank(s)" in capsys.readouterr().out

    def test_alternative_components(self, capsys):
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--smoother", "gsrb",
                   "--bottom-solver", "fft", "--cycle", "W"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smoother=gsrb" in out and "bottom=fft" in out

    def test_nonconvergence_exit_code(self, capsys):
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "-n", "1"])
        assert rc == 1

    def test_retired_no_ca_flag_fails_by_name(self, capsys):
        """Communication-avoiding smoothing is the only schedule: the
        flag and the config field that switched it off are gone."""
        from repro.gmg import SolverConfig

        with pytest.raises(SystemExit) as exc:
            main(["solve", "-s", "16", "-l", "2", "--no-ca"])
        assert exc.value.code == 2
        assert "--no-ca" in capsys.readouterr().err
        with pytest.raises(TypeError, match="communication_avoiding"):
            SolverConfig(communication_avoiding=False)

    def test_trace_flag_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace_file

        trace = tmp_path / "solve.json"
        rc = main(["solve", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote trace to {trace}" in out
        assert "\nkernels: " in out  # which backend produced the numbers
        counts = validate_chrome_trace_file(trace)
        assert counts["spans"] > 0


class TestProfileCommand:
    def test_profile_prints_breakdown_and_metrics(self, capsys):
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiled solve: 16^3" in out
        assert "(model: Perlmutter)" in out
        assert "sigma:" in out and "| model " in out
        assert "reductions.total" in out
        # one rank never moves envelopes: the profile is of the plain run
        assert "halo exchange:" not in out

    def test_multirank_profile_names_the_exchange_path(self, capsys, tmp_path):
        """The profiled run is the plain run: every exchange the plan
        copy, so there is no envelope line to print — and the metrics
        say so by name."""
        import json

        report = tmp_path / "profile.json"
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--ranks", "2,1,1", "--json", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "halo exchange:" not in out and "None" not in out
        assert "in the ghost-exchange copy" in out
        gauges = json.loads(report.read_text())["metrics"]["gauges"]
        assert gauges["exchanges.envelope"] == 0 < gauges["exchanges.planned"]
        assert not any(g.startswith("exchanges.envelope.") for g in gauges)

    def test_profile_machine_none(self, capsys):
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--machine", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sigma:" in out and "| model " not in out

    def test_profile_artifacts(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        profile = tmp_path / "profile.json"
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--trace", str(trace),
                   "--json", str(profile)])
        assert rc == 0
        obj = json.loads(profile.read_text())
        assert obj["coverage"] >= 0.95
        assert obj["rows"]
        assert trace.exists()

    def test_min_coverage_flag_relaxes_floor(self, capsys):
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--min-coverage", "10"])
        assert rc == 0

    def test_min_coverage_failure_reports_measured_value(self, capsys):
        """An unreachable floor fails with the measured coverage in the
        message, so the operator sees how far off the run was."""
        rc = main(["profile", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "--min-coverage", "100.5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "span coverage" in out and "below" in out
        assert "100.5%" in out


class TestCommvizCommand:
    def test_renders_matrix_breakdown_and_critical_path(self, capsys):
        rc = main(["commviz", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "-n", "2", "--ranks", "2,2,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "over 8 ranks" in out
        assert "messages (src -> dst)" in out
        assert "bytes (src -> dst)" in out
        assert "dst7" in out and "src7" in out  # full 8x8 matrix
        assert "per-rank time breakdown" not in out
        assert "critical path" not in out
        # every exchange was the plain copy: no envelope line, and no
        # literal None where it would have been
        assert "halo exchange:" not in out and "None" not in out
        assert "per-level traffic: l0:" in out and " msg, l1: " in out
        # each level's measured exchange next to the machine model's
        assert "(model: Perlmutter)" in out
        for lev in (0, 1):
            (row,) = [l for l in out.splitlines() if f"level {lev} exchange" in l]
            assert "| model " in row
        assert "applyOp" not in out

    def test_machine_none_skips_model_column(self, capsys):
        rc = main(["commviz", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "-n", "2", "--ranks", "2,1,1",
                   "--machine", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "level 0 exchange" in out and "model" not in out

    def test_single_rank_rejected(self, capsys):
        rc = main(["commviz", "-s", "16", "-l", "2", "--ranks", "1,1,1"])
        assert rc == 2
        assert "commviz: needs a distributed solve" in capsys.readouterr().err

    def test_trace_has_one_pid_per_rank(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace_file
        from repro.obs.chrome_trace import rank_pid

        trace = tmp_path / "ranks.json"
        # a rank's timeline holds what it does on its own: here both
        # ranks unpack agglomeration blocks
        rc = main(["commviz", "-s", "16", "-l", "2", "--smooths", "6",
                   "--bottom", "20", "-n", "2", "--ranks", "2,1,1",
                   "--agglomerate-threshold", "100000",
                   "--trace", str(trace)])
        assert rc == 0
        counts = validate_chrome_trace_file(trace)
        assert counts["pids"] == 3  # global + 2 ranks
        obj = json.loads(trace.read_text())
        pids = {e["pid"] for e in obj["traceEvents"]}
        assert pids == {1, rank_pid(0), rank_pid(1)}


class TestExperimentCommand:
    @pytest.mark.parametrize(
        "which,needle",
        [
            ("fig4", "HPGMG"),
            ("table2", "smooth+residual"),
            ("table3", "overall Phi = 73%"),
            ("table4", "applyOp"),
            ("table5", "overall Phi = 92%"),
            ("fig7", "potential="),
        ],
    )
    def test_experiment_output(self, capsys, which, needle):
        assert main(["experiment", which]) == 0
        assert needle in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig42"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestAutotuneCommand:
    def test_single_machine(self, capsys):
        assert main(["autotune", "Sunspot"]) == 0
        out = capsys.readouterr().out
        assert "auto-tuning on Sunspot" in out
        assert "(worst)" in out

    def test_json_export(self, capsys, tmp_path):
        assert main(["experiment", "table4", "--json", str(tmp_path)]) == 0
        assert (tmp_path / "fig8.json").exists()


class TestChaosSweepCommand:
    SMALL = ["--ranks", "2,1,1", "--crash-cycles", "2",
             "--crash-counts", "1", "--checkpoint-intervals", "2"]

    def test_clean_matrix_passes(self, capsys):
        rc = main(["chaossweep", "--seed", "7", *self.SMALL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "recovered 1/1 matrix cells" in out

    def test_storm_flag_fails_the_gate(self, capsys):
        """The inverted self-test CI leans on: an unrecoverable crash
        must produce a nonzero exit."""
        rc = main(["chaossweep", "--seed", "7", *self.SMALL, "--storm"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "degraded to failed_faults as designed" in out
        assert "gate fails by design" in out

    def test_faultsweep_passes(self, capsys):
        rc = main(["faultsweep", "--machine", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fault sweep" in out
        assert "degraded gracefully in 1" in out

    def test_faultsweep_refuses_one_rank(self, capsys):
        """One rank posts no message: the battery's message faults
        could never fire, and the sweep says so instead of passing."""
        assert main(["faultsweep", "--ranks", "1,1,1", "--machine", "none"]) == 2
        assert "at least 2 ranks" in capsys.readouterr().err

    def test_chaossweep_refuses_one_rank(self, capsys):
        """A crash on one rank leaves no survivor to recover from."""
        assert main(["chaossweep", "--ranks", "1,1,1"]) == 2
        assert "chaossweep: needs at least 2 ranks" in capsys.readouterr().err


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out
        assert "FAIL" not in out


class TestLoadgenCommand:
    def test_reports_throughput_and_latency(self, capsys):
        rc = main(["loadgen", "--requests", "2", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 request(s)" in out
        assert "solves/sec" in out and "speedup" in out
        assert "p95 latency" in out and "occupancy" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "loadgen.json"
        rc = main(["loadgen", "--requests", "2", "--repeats", "1",
                   "--json", str(report)])
        assert rc == 0
        obj = json.loads(report.read_text())
        assert obj["num_requests"] == 2
        assert set(obj["metrics"]) >= {"ms_per_solve", "p50_ms", "p95_ms",
                                       "sequential_ms_per_solve"}
        assert obj["metrics"]["ms_per_solve"] > 0
        assert "wrote report" in capsys.readouterr().out

    def test_min_speedup_gate_trips(self, capsys):
        rc = main(["loadgen", "--requests", "2", "--repeats", "1",
                   "--min-speedup", "1e9"])
        assert rc == 1
        assert "loadgen FAILED" in capsys.readouterr().out

    def test_no_baseline_skips_sequential_pass(self, capsys):
        rc = main(["loadgen", "--requests", "2", "--repeats", "1",
                   "--no-baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequential/sec" not in out and "speedup" not in out


class TestServeCommand:
    def test_batch_file_to_results_json(self, capsys, tmp_path):
        import json

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"amplitude": 1.3, "request_id": "a"},
            {"amplitude": 0.7, "request_id": "b"},
        ]))
        out_path = tmp_path / "results.json"
        rc = main(["serve", str(batch), "--out", str(out_path)])
        assert rc == 0
        obj = json.loads(out_path.read_text())
        assert obj["num_cohorts"] == 1
        assert [r["request_id"] for r in obj["results"]] == ["a", "b"]
        for row in obj["results"]:
            assert row["converged"]
            assert row["final_residual"] <= 1e-10
            assert row["latency_ms"] > 0

    def test_config_overrides_and_stdout(self, capsys, tmp_path):
        import json

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "config": {"num_levels": 2},
            "requests": [{"amplitude": 1.1}],
        }))
        rc = main(["serve", str(batch)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"][0]["request_id"] == "req-0"
        assert obj["results"][0]["converged"]

    @pytest.mark.parametrize("surface", ["serve", "constructor", "solve-flag"])
    def test_retired_overlap_option_fails_by_name(self, surface, capsys, tmp_path):
        """A batch file, script or command line written for an older
        release names ``overlap``, which ``SolverConfig`` no longer has:
        each surface refuses it loudly instead of ignoring it."""
        import dataclasses
        import json

        from repro.gmg import SolverConfig

        if surface == "constructor":
            with pytest.raises(TypeError, match="overlap"):
                SolverConfig(overlap=True)
            return
        if surface == "solve-flag":
            with pytest.raises(SystemExit) as exc:
                main(["solve", "-s", "16", "-l", "2", "--overlap"])
            assert exc.value.code == 2
            assert "--overlap" in capsys.readouterr().err
            return
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "config": {"overlap": True, "num_levels": 2},
            "requests": [{"amplitude": 1.1}],
        }))
        assert main(["serve", str(batch)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("unknown config key 'overlap'; valid fields: ")
        listed = line.split("valid fields: ")[1].split(", ")
        assert listed == sorted(f.name for f in dataclasses.fields(SolverConfig))
        assert len(listed) == 17 and "num_levels" in listed
        assert "ordering" not in listed

    @pytest.mark.parametrize(
        "batch,needle",
        [
            ({"config": {"max_vcycles": -2}, "requests": [{}]}, "max_vcycles"),
            ({"config": {"tol": float("nan")}, "requests": [{}]}, "tol"),
            ([{"amplitude": float("nan")}], "amplitude"),
        ],
        ids=["negative-max-vcycles", "nan-tol", "nan-amplitude"],
    )
    def test_malformed_batch_is_one_line_exit_2(self, batch, needle, capsys, tmp_path):
        """A bad value in a batch ends like an unknown key: the
        ``ValueError`` on one stderr line and exit 2 — no traceback and
        no solve that answers ``converged: false`` after 0 cycles."""
        import json

        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))  # NaN is written as JSON NaN
        assert main(["serve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("invalid request batch: ") and needle in line

    def test_empty_batch_rejected(self, capsys, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text("[]")
        assert main(["serve", str(batch)]) == 1


class TestArgumentErrors:
    """Bad or retired arguments end in argparse's one-line error and
    exit status 2, never a traceback or a silently ignored flag; the
    library surface behind the retired ones is gone too."""

    @staticmethod
    def rejected(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["perfgate"],
            ["sweep", "--config", "x"],
            ["faultsweep", "--update"],
            ["chaossweep", "--ledger", "d"],
            ["loadgen", "--update"],
            ["autotune", "--from-ledger", "d"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_measurement_surface_is_rejected(self, argv, capsys):
        assert "error:" in self.rejected(argv, capsys)

    def test_perf_package_exports_no_sweep_or_stats(self):
        import repro.perf

        assert not hasattr(repro.perf, "SweepConfig")
        assert not hasattr(repro.perf, "SampleStats")

    @pytest.mark.parametrize(
        "command",
        ["solve", "profile", "commviz", "faultsweep", "chaossweep"],
    )
    @pytest.mark.parametrize("ranks", ["2,2", "x", "0,1,1", "1,1,1,1", ""])
    def test_malformed_ranks(self, command, ranks, capsys):
        err = self.rejected([command, "--ranks", ranks], capsys)
        assert "argument --ranks: expected" in err

    REFUSED = [
        (["solve", "-s", "3"], "not divisible by 2^1 for level 1"),
        (["solve", "--smooths", "0"], "max_smooths must be positive: 0"),
        (["profile", "-b", "0"], "brick_dim must be positive: 0"),
        (["commviz", "--ranks", "2,2,2", "-s", "3"],
         "rank_dims[0]=2 does not divide global_cells=3"),
        (["commviz", "--ranks", "1,1,1"], "needs a distributed solve"),
        (["loadgen", "--size", "3"], "not divisible by 2^1 for level 1"),
        (["loadgen", "--repeats", "0"],
         "argument --repeats: expected a positive integer, got '0'"),
        (["loadgen", "--capacity", "0"],
         "argument --capacity: expected a positive integer, got '0'"),
    ]

    @pytest.mark.parametrize(
        "argv,reason", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED]
    )
    def test_refused_input_exits_2_naming_the_command(self, argv, reason, capsys):
        """Input the solver configuration or the load generator rejects
        ends in ``<command>: <reason>`` on stderr and exit status 2
        before anything runs, not in a traceback."""
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's own range check
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"{argv[0]}: " in err and reason in err

    MALFORMED_LISTS = [
        (flag, value)
        for flag in ["--crash-cycles", "--crash-counts", "--checkpoint-intervals"]
        for value in ["1,a", "1.5", "", "-1"]
    ] + [("--crash-counts", "0"), ("--checkpoint-intervals", "1,0")]

    @pytest.mark.parametrize(
        "flag,value", MALFORMED_LISTS,
        ids=[f"{value}-{flag}" for flag, value in MALFORMED_LISTS],
    )
    def test_malformed_chaossweep_list(self, flag, value, capsys):
        err = self.rejected(["chaossweep", flag, value], capsys)
        assert f"argument {flag}: expected comma-separated integers" in err
