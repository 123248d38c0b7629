"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_schedule_demo(self, capsys):
        assert main(["schedule", "--config", "1-(GP8M4-REG64)"]) == 0
        out = capsys.readouterr().out
        assert "II=" in out
        assert "daxpy" in out

    def test_schedule_with_code(self, capsys):
        assert main(
            ["schedule", "--config", "2-(GP4M2-REG32)", "--code"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernel:" in out
        assert "prologue:" in out

    def test_schedule_workbench_loop(self, capsys):
        assert main(["schedule", "--loop", "5"]) == 0
        assert "II=" in capsys.readouterr().out

    def test_schedule_reports_convergence_error(self, capsys, monkeypatch):
        """A scheduler giving up prints ``error: ...`` and exits 2
        instead of dying with a traceback (the exact backend's step
        budget ran out on workbench loop 3)."""
        from repro.errors import ConvergenceError
        from repro.smt.scheduler import SmtScheduler

        def give_up(self, graph):
            raise ConvergenceError(
                f"exact backend unsolved on {graph.name}: step budget "
                "exhausted at II=7"
            )

        monkeypatch.setattr(SmtScheduler, "schedule", give_up)
        for command in ("schedule", "simulate"):
            assert main([command, "--loop", "3", "--scheduler", "smt"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: exact backend unsolved")
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["schedule", "--loop", "3", "--config", "foo"],
             "cannot parse machine configuration 'foo'"),
            (["schedule", "--loop", "3", "--config", "4-(GP2M1-REG0)"],
             "register file must have at least one entry"),
            (["schedule", "--move-latency", "-1"],
             "move latency must be positive"),
            (["simulate", "--buses", "0"], "need at least one bus"),
            (["analyze", "--loops", "1", "--config", "2-(GP0M1-REG8)"],
             "a cluster needs at least one GP unit"),
            (["compare", "--loops", "1", "--buses", "0"],
             "need at least one bus"),
            (["frontend", "show", "--config", "bar"],
             "cannot parse machine configuration 'bar'"),
            (["frontend", "run", "saxpy", "--move-latency", "0"],
             "move latency must be positive"),
        ],
    )
    def test_malformed_machine_reports_config_error(self, argv, message, capsys):
        """Every subcommand that builds a machine prints ``error: ...``
        and exits 2 for a malformed one instead of a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_compare(self, capsys):
        assert main(
            ["compare", "--config", "2-(GP4M2-REG64)", "--loops", "3",
             "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "II MIRS-C" in out
        assert "II [31]" in out
        assert "[exec]" in out

    def test_compare_jobs_and_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["compare", "--config", "2-(GP4M2-REG64)", "--loops", "2",
                "--jobs", "2"]
        assert main(argv) == 0
        assert "cache_hits=0" in capsys.readouterr().out
        # A second run is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scheduled=0" in out
        assert "cache_hits=4" in out

    def test_cache_command(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_suite_statistics(self, capsys):
        assert main(["suite", "--loops", "10"]) == 0
        out = capsys.readouterr().out
        assert "mean_size" in out

    def test_technology(self, capsys):
        assert main(["technology"]) == 0
        out = capsys.readouterr().out
        assert "cycle time" in out

    def test_unbounded_buses_option(self, capsys):
        assert main(
            ["schedule", "--config", "4-(GP2M1-REG32)", "--buses", "inf"]
        ) == 0

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_demo(self, capsys):
        assert main(["simulate", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "useful cycles (measured)" in out
        assert "MATCH" in out
        assert "MISMATCH" not in out

    def test_simulate_workbench_loop(self, capsys):
        assert main(
            ["simulate", "--config", "2-(GP4M2-REG32)", "--loop", "5",
             "--iterations", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "reference interpreter: MATCH" in out

    def test_simulate_rejects_non_positive_iterations(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--iterations", "0"])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--loop", "1258"],
            ["schedule", "--loop", "-1"],
            ["simulate", "--loop", "99999"],
            ["compare", "--loops", "0"],
            ["compare", "--loops", "5000"],
            ["suite", "--loops", "0"],
            ["suite", "--loops", "99999"],
        ],
    )
    def test_out_of_range_workbench_arguments(self, argv, capsys):
        """Out-of-range indices exit with a friendly argparse error
        naming the valid range instead of a raw traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "out of range" in err
        assert "1258" in err

    def test_search_flags_key_like_the_python_request(self, tmp_path, monkeypatch):
        """``--ii-search``/``--speculation`` are spellings of the same
        MirsParams fields: the CLI run lands in the cache under the key
        the equivalent Python request computes."""
        from repro import MirsParams, ScheduleRequest, parse_config
        from repro.exec import ResultCache, cache_key
        from repro.workloads.perfect import cached_suite

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = "2-(GP4M2-REG64)"
        argv = ["analyze", "--config", config, "--loops", "1",
                "--ii-search", "geometric", "--speculation", "2"]
        assert main(argv) == 0
        request = ScheduleRequest(
            params=MirsParams(ii_search="geometric", speculation=2)
        )
        graph = cached_suite(1)[0].graph
        machine = parse_config(config)
        cache = ResultCache(tmp_path)
        assert cache.get(
            cache_key(graph, machine, request.params, request.scheduler)
        ) is not None
        assert cache.get(cache_key(graph, machine, None, "mirsc")) is None
