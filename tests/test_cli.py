"""Tests for the experiments CLI (figures, scenario and grid subcommands)."""

import functools
import json

import pytest

from repro.experiments.cli import RUNNERS, main
from tests.golden.make_cli_golden import PATH as CLI_GOLDEN_PATH
from tests.golden.make_cli_golden import cli_golden

CLI_GOLDEN = json.loads(CLI_GOLDEN_PATH.read_text())


def tiny_scenario_dict() -> dict:
    return {
        "name": "cli-tiny",
        "workload": "custom",
        "topology": {
            "operators": [
                {"name": "S", "parallelism": 2, "kind": "source"},
                {"name": "A", "parallelism": 2, "selectivity": 0.5},
                {"name": "B", "parallelism": 1, "selectivity": 0.5},
            ],
            "edges": [
                {"upstream": "S", "downstream": "A", "pattern": "one-to-one"},
                {"upstream": "A", "downstream": "B", "pattern": "merge"},
            ],
        },
        "workload_params": {"source_rate": 20.0, "window_seconds": 5.0},
        "planner": "greedy",
        "budget": 2,
        "engine": {"checkpoint_interval": 5.0},
        "failures": [{"model": "correlated", "at": 8.0}],
        "duration": 16.0,
    }


class TestRunnerRegistry:
    def test_all_figures_registered(self):
        assert set(RUNNERS) == {
            "fig7", "fig8", "fig9", "fig10", "fig12", "fig13", "fig14",
            "claims", "schemes",
        }

    def test_runners_are_callables(self):
        assert all(callable(fn) for fn in RUNNERS.values())


class TestArgumentParsing:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code != 0

    def test_requires_at_least_one_figure(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fast_claims_runs_end_to_end(self, capsys):
        # claims is the cheapest full pipeline: engine run + planner sweep.
        assert main(["claims", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Headline claims" in out
        assert "claims done" in out


class TestScenarioSubcommand:
    def test_runs_correlated_scenario_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario_dict()))
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ScenarioResult: cli-tiny" in out
        assert "tasks killed" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario_dict()))
        assert main(["scenario", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["name"] == "cli-tiny"
        assert data["all_recovered"] is True

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["scenario", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_array_document_reports_error(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([tiny_scenario_dict()]))
        assert main(["scenario", str(path)]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_malformed_scenario_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"planner": "bogus-planner",
                                    "duration": 5.0}))
        assert main(["scenario", str(path)]) == 2
        assert "unknown planner" in capsys.readouterr().err


class TestGridSubcommand:
    def test_expands_base_and_axes(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "base": tiny_scenario_dict(),
            "axes": {"planner": ["none", "greedy"], "budget": [1, 2]},
        }))
        assert main(["grid", str(path)]) == 0
        out = capsys.readouterr().out
        assert "grid: 4 scenarios" in out

    def test_explicit_scenario_list(self, tmp_path, capsys):
        spec = tiny_scenario_dict()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"scenarios": [spec, spec]}))
        assert main(["grid", str(path)]) == 0
        assert "grid: 2 scenarios" in capsys.readouterr().out

    def test_document_without_base_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"axes": {"budget": [1]}}))
        assert main(["grid", str(path)]) == 2
        assert "'scenarios' or 'base'" in capsys.readouterr().err

    def test_backend_output_resume_cache_round_trip(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "base": tiny_scenario_dict(),
            "axes": {"budget": [0, 1, 2]},
        }))
        out = tmp_path / "out.jsonl"
        args = ["grid", str(grid_path), "--backend", "processes",
                "--output", str(out), "--resume",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "3 executed" in err
        first_bytes = out.read_bytes()
        assert len(first_bytes.splitlines()) == 3

        # Second invocation resumes: nothing re-runs, the file is unchanged.
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 executed" in err and "3 resumed" in err
        assert out.read_bytes() == first_bytes

    def test_max_workers_on_serial_backend_rejected_cleanly(self, tmp_path,
                                                           capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        assert main(["grid", str(path), "--backend", "serial",
                     "--max-workers", "2"]) == 2
        assert "does not take --max-workers" in capsys.readouterr().err

    def test_resume_without_output_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        assert main(["grid", str(path), "--resume"]) == 2
        assert "--resume needs --output" in capsys.readouterr().err

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        assert main(["grid", str(path), "--progress"]) == 0
        assert "[1/1]" in capsys.readouterr().err

    @pytest.mark.parametrize("field,edit", [
        ("'at'", lambda s: s["failures"][0].update(at="soon")),
        ("'name'", lambda s: s["topology"]["operators"][0].pop("name")),
        ("'budget'", lambda s: s.update(budget="three")),
        ("'workload_params'", lambda s: s.update(workload_params=[1, 2])),
    ], ids=["at", "name", "budget", "workload_params"])
    def test_malformed_value_names_its_field(self, tmp_path, capsys, field,
                                             edit):
        spec = tiny_scenario_dict()
        edit(spec)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": spec}))
        assert main(["grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


class TestRecoveryFlag:
    def test_scenario_recovery_override(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario_dict()))
        assert main(["scenario", str(path), "--recovery", "active-standby",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["recovery"] == "active-standby"
        assert all(r["mode"] == "active" for r in data["recoveries"])

    def test_scenario_unknown_recovery_reports_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario_dict()))
        assert main(["scenario", str(path), "--recovery", "bogus"]) == 2
        assert "registered schemes" in capsys.readouterr().err

    def test_recovery_flag_overrides_engine_dict_spelling(self, tmp_path,
                                                          capsys):
        spec = tiny_scenario_dict()
        spec["engine"]["recovery_scheme"] = "ppa"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path), "--recovery", "source-replay",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["recovery"] == "source-replay"
        assert "recovery_scheme" not in data["scenario"]["engine"]

    def test_grid_single_recovery_overrides_all_cells(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict(),
                                    "axes": {"budget": [0, 2]}}))
        assert main(["grid", str(path), "--recovery", "source-replay",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r["scenario"]["recovery"] == "source-replay" for r in rows)

    def test_grid_multiple_recoveries_add_an_axis(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        assert main(["grid", str(path), "--recovery", "ppa",
                     "checkpoint-replay", "active-standby"]) == 0
        out = capsys.readouterr().out
        assert "grid: 3 scenarios" in out
        assert "cli-tiny/recovery=active-standby" in out


class TestNameValidation:
    """Unknown scheme/model names must fail upfront and list the choices."""

    def test_scenario_unknown_failure_model_lists_models(self, tmp_path,
                                                         capsys):
        spec = tiny_scenario_dict()
        spec["failures"] = [{"model": "meteor-strike", "at": 8.0}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'meteor-strike'" in err
        assert "registered models" in err
        for name in ("flapping", "detection-jitter", "rack-correlated"):
            assert name in err

    def test_grid_unknown_failure_model_fails_before_running(self, tmp_path,
                                                             capsys):
        base = tiny_scenario_dict()
        bad = dict(base, failures=[{"model": "nope", "at": 8.0}])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"scenarios": [base, bad]}))
        assert main(["grid", str(path)]) == 2
        captured = capsys.readouterr()
        assert "registered models" in captured.err
        assert "grid:" not in captured.out, "no cell may run on bad input"

    def test_grid_unknown_recovery_flag_lists_schemes(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        assert main(["grid", str(path), "--recovery", "ppa", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err
        assert "registered schemes" in err
        for name in ("approximate-ft", "k-safe", "adaptive-checkpoint"):
            assert name in err

    def test_chaos_unknown_recovery_fails_before_starting_a_fleet(
            self, tmp_path, capsys, monkeypatch):
        import repro.chaos.cli

        def no_fleet(*args, **kwargs):
            raise AssertionError("chaos started a fleet on bad input")

        monkeypatch.setattr(repro.chaos.cli, "run_chaos", no_fleet)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"base": dict(tiny_scenario_dict(), recovery="ppaa")}))
        assert main(["chaos", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'ppaa'" in err and "registered schemes" in err

    def test_submit_unknown_failure_model_fails_before_connecting(
            self, tmp_path, capsys, monkeypatch):
        import repro.service.cli

        def no_connection(*args, **kwargs):
            raise AssertionError("submit dialled a server on bad input")

        monkeypatch.setattr(repro.service.cli, "SweepClient", no_connection)
        spec = dict(tiny_scenario_dict(),
                    failures=[{"model": "meteor-strike", "at": 8.0}])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"scenarios": [spec]}))
        assert main(["submit", "127.0.0.1:9", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'meteor-strike'" in err and "registered models" in err

    def test_chaos_unknown_failure_model_fails_before_starting_a_fleet(
            self, tmp_path, capsys, monkeypatch):
        import repro.chaos.cli

        def no_fleet(*args, **kwargs):
            raise AssertionError("chaos started a fleet on bad input")

        monkeypatch.setattr(repro.chaos.cli, "run_chaos", no_fleet)
        spec = dict(tiny_scenario_dict(),
                    failures=[{"model": "meteor-strike", "at": 8.0}])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"scenarios": [spec]}))
        assert main(["chaos", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'meteor-strike'" in err and "registered models" in err

    def test_submit_unknown_recovery_fails_before_connecting(
            self, tmp_path, capsys, monkeypatch):
        import repro.service.cli

        def no_connection(*args, **kwargs):
            raise AssertionError("submit dialled a server on bad input")

        monkeypatch.setattr(repro.service.cli, "SweepClient", no_connection)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"base": dict(tiny_scenario_dict(), recovery="ppaa")}))
        assert main(["submit", "127.0.0.1:9", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'ppaa'" in err and "registered schemes" in err

    @pytest.mark.parametrize("flag", ["--ssh-host", "--ssh-cmd"])
    def test_grid_rejects_the_removed_ssh_flags(self, flag, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        with pytest.raises(SystemExit) as exc:
            main(["grid", str(path), "--backend", "cluster", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grid", "serve"])
    def test_threads_backend_is_not_a_choice(self, command, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"base": tiny_scenario_dict()}))
        args = [str(path)] if command == "grid" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--backend", "threads"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'threads'" in err
        for name in ("cluster", "processes", "serial"):
            assert name in err

    def test_top_level_help_names_every_subcommand(self, capsys):
        from repro.experiments.cli import SUBCOMMANDS

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        usage, _, rest = out.partition("\n\n")
        for name in SUBCOMMANDS:
            assert name in usage, name
            assert rest.count(name) >= 2, name

    def test_recovery_override_drops_stale_scheme_params(self, tmp_path,
                                                         capsys):
        spec = tiny_scenario_dict()
        spec["recovery"] = "approximate-ft"
        spec["recovery_params"] = {"fidelity_bound": 0.5}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        # Overriding to a scheme that doesn't know fidelity_bound must not
        # forward the stale params to it.
        assert main(["scenario", str(path), "--recovery", "active-standby",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["recovery"] == "active-standby"
        assert "recovery_params" not in data["scenario"]
        # Re-selecting the scheme the params were written for keeps them.
        assert main(["scenario", str(path), "--recovery", "approximate-ft",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["recovery_params"] == {"fidelity_bound": 0.5}

    @pytest.mark.parametrize("scheme,params,parameter", [
        ("approximate-ft", {"fidelity_bound": "abc"}, "fidelity_bound"),
        ("k-safe", {"placement": "ab"}, "placement"),
        ("adaptive-checkpoint", {"smoothing": None}, "smoothing"),
    ])
    def test_malformed_scheme_parameter_value_reports_error(
            self, tmp_path, capsys, scheme, params, parameter):
        spec = tiny_scenario_dict()
        spec["recovery"] = scheme
        spec["recovery_params"] = params
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(scheme) in err and parameter in err

    def test_scenario_new_schemes_accepted(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario_dict()))
        for scheme in ("approximate-ft", "k-safe", "adaptive-checkpoint"):
            assert main(["scenario", str(path), "--recovery", scheme,
                         "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["scenario"]["recovery"] == scheme
            assert data["all_recovered"]


class TestCacheSubcommand:
    def _populated_cache(self, tmp_path, capsys, n_budgets=3):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": tiny_scenario_dict(),
            "axes": {"budget": list(range(n_budgets))},
        }))
        cache_dir = tmp_path / "cache"
        assert main(["grid", str(grid), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        return cache_dir

    def test_stats_reports_entries(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path, capsys)
        assert main(["cache", "stats", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:     3" in out
        assert "disk usage" in out

    def test_prune_evicts_to_limit(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path, capsys)
        assert main(["cache", "prune", str(cache_dir),
                     "--max-entries", "1"]) == 0
        assert "pruned 2 entries; 1 remain" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*.json"))) == 1

    def test_prune_requires_max_entries(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path, capsys)
        assert main(["cache", "prune", str(cache_dir)]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_missing_directory_reports_error(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def _cli_golden_now() -> dict:
    return cli_golden()


class TestCliGolden:
    """``grid`` / ``submit`` / ``chaos`` stdout bytes and exit codes.

    Regenerate with ``tests/golden/make_cli_golden.py`` only when a
    command's output or exit contract changes on purpose.
    """

    @pytest.mark.parametrize("key", sorted(CLI_GOLDEN["exit_codes"]))
    def test_exit_code(self, key):
        assert _cli_golden_now()["exit_codes"][key] == \
            CLI_GOLDEN["exit_codes"][key]

    @pytest.mark.parametrize("key", sorted(CLI_GOLDEN["stdout"]))
    def test_json_stdout_bytes(self, key):
        assert _cli_golden_now()["stdout"][key] == CLI_GOLDEN["stdout"][key]

    def test_golden_has_no_stale_entries(self):
        now = _cli_golden_now()
        for section in ("exit_codes", "stdout"):
            assert set(now[section]) == set(CLI_GOLDEN[section])
