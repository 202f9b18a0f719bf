"""Tests for the CLI and experiment persistence."""

import json

import pytest

from repro.bench.io import (
    load_json,
    result_from_dict,
    result_to_dict,
    save_csv,
    save_json,
)
from repro.bench.reporting import ExperimentResult
from repro.cli import EXPERIMENTS, build_parser, cmd_experiments, main
from repro.errors import ConfigError


def sample_result():
    result = ExperimentResult(
        experiment="X", title="demo", headers=("a", "b"), notes="n"
    )
    result.add_row(1, 2.5)
    result.add_row(3, 4.0)
    return result


class TestIo:
    def test_round_trip_dict(self):
        original = sample_result()
        restored = result_from_dict(result_to_dict(original))
        assert [list(row) for row in restored.rows] == [[1, 2.5], [3, 4.0]]
        assert restored.title == "demo"
        assert restored.notes == "n"

    def test_json_file_round_trip(self, tmp_path):
        path = save_json(sample_result(), tmp_path / "out" / "r.json")
        restored = load_json(path)
        assert restored.experiment == "X"
        assert restored.column("a") == [1, 3]

    def test_csv_file(self, tmp_path):
        path = save_csv(sample_result(), tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError):
            result_from_dict({"experiment": "x"})

    def test_wrong_version_rejected(self):
        payload = result_to_dict(sample_result())
        payload["format_version"] = 99
        with pytest.raises(ConfigError):
            result_from_dict(payload)


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig7", "--scale", "smoke", "--seed", "7"])
        assert args.experiment == "fig7"
        assert args.scale == "smoke"
        assert args.seed == 7

    def test_every_experiment_module_importable(self):
        import importlib

        for name, module_path in EXPERIMENTS.items():
            module = importlib.import_module(module_path)
            assert callable(module.run), name

    def test_experiments_listing(self, capsys):
        assert cmd_experiments() == 0
        output = capsys.readouterr().out
        assert "fig7" in output and "e7-recovery" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "experiments" in capsys.readouterr().out

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        assert "committed" in capsys.readouterr().out

    def test_run_writes_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        code = main([
            "run", "e7-recovery", "--scale", "smoke",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        assert json.loads(json_path.read_text())["experiment"].startswith("E7")
        assert csv_path.exists()


class TestSharedRunFlags:
    """The cross-command flags come from one shared parent parser."""

    def test_common_flags_parse_everywhere(self):
        parser = build_parser()
        for argv in (
            ["run", "fig7", "--seed", "7", "--sanitize", "--jobs", "2"],
            ["chaos", "--seed", "7", "--topology", "ring", "--sanitize",
             "--jobs", "2"],
            ["trace", "--seed", "7", "--topology", "mesh", "--sanitize"],
            ["bisect", "--seed", "7", "--topology", "hub", "--sanitize"],
            ["bench", "saturation", "--seed", "7", "--sanitize", "--jobs", "2"],
            ["bench", "compare", "--seed", "7", "--sanitize", "--jobs", "2"],
            ["bench", "geo", "--seed", "7", "--topology", "ring",
             "--sanitize", "--jobs", "2"],
            ["bench", "elastic", "--seed", "7", "--sanitize", "--jobs", "2"],
        ):
            args = parser.parse_args(argv)
            assert args.seed == 7, argv
            assert args.sanitize is True, argv

    def test_geo_topology_default_preserved(self):
        args = build_parser().parse_args(["bench", "geo"])
        assert args.topology == "chain"
        assert build_parser().parse_args(["chaos"]).topology is None

    def test_shared_flags_declared_exactly_once(self):
        # The consolidation's point: one declaration per shared flag, so
        # spellings/help can't drift between subcommands again.
        import inspect
        import re

        from repro import cli

        source = inspect.getsource(cli)
        assert len(re.findall(r'"--topology"', source)) == 1
        assert len(re.findall(r'"--sanitize"', source)) == 1
        assert len(re.findall(r'"--jobs"', source)) == 1
        assert len(re.findall(r'"--seed"', source)) == 1

    def test_config_from_args_replication_rule(self):
        import argparse

        from repro.cli import config_from_args

        args = argparse.Namespace(
            seed=9, replicas=2, partitions=3, topology="ring", sanitize=True
        )
        config = config_from_args(args)
        assert config.num_replicas == 2
        assert config.replication_mode == "paxos"
        assert config.num_partitions == 3
        assert config.seed == 9 and config.topology == "ring"
        single = config_from_args(
            argparse.Namespace(seed=9, replicas=1, partitions=2),
            fault_profile="chaos-mix",
        )
        assert single.replication_mode == "none"
        assert single.fault_profile == "chaos-mix"
