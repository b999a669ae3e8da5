"""Tests for the command-line interface."""

import pytest

from repro.cli import _attack_config, build_parser, main
from repro.core.attack import nsga_config
from repro.nsga.mutation import IntensityAnnealing


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.command == "attack"
        assert args.detector == "detr"
        assert args.region == "right"
        assert args.paper_budget is False

    def test_attack_anneal_options_reach_nsga_config(self):
        args = build_parser().parse_args(
            ["attack", "--anneal-final-window", "0.004", "--anneal-shape", "linear"]
        )
        assert nsga_config(_attack_config(args)).annealing == IntensityAnnealing(
            0.004, "linear"
        )

    @pytest.mark.parametrize(
        "flags",
        [["--fast-search"], ["--no-fast-search"], ["--rescore-every", "1"]],
        ids=["fast-search", "no-fast-search", "rescore-every"],
    )
    def test_attack_rejects_two_phase_search_flags(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["attack"] + flags)
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_compare_arguments(self):
        args = build_parser().parse_args(["compare", "--models", "3", "--images", "2"])
        assert args.models == 3
        assert args.images == 2

    def test_compare_execution_arguments(self):
        args = build_parser().parse_args(
            ["compare", "--jobs", "4", "--backend", "persistent", "--experiment-seed", "7"]
        )
        assert args.jobs == 4
        assert args.backend == "persistent"
        assert args.experiment_seed == 7

    def test_compare_execution_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1
        assert args.backend is None
        assert args.experiment_seed is None

    def test_compare_rejects_bad_backend_and_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--backend", "threads"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--jobs", "0"])

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "fig1"])
        assert args.name == "fig1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig9"])

    def test_table_choices(self):
        assert build_parser().parse_args(["table", "1"]).name == "1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "3"])


class TestCommands:
    def test_table_1(self, capsys):
        assert main(["table", "1"]) == 0
        output = capsys.readouterr().out
        assert "# models generated" in output
        assert "16" in output

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        output = capsys.readouterr().out
        assert "Population size" in output
        assert "101" in output

    def test_attack_command_runs_and_saves(self, capsys, tmp_path):
        exit_code = main(
            [
                "attack",
                "--detector",
                "yolo",
                "--iterations",
                "1",
                "--population",
                "4",
                "--output",
                str(tmp_path / "run"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "single_stage-seed1" in output
        assert "obj_degrad" in output
        assert (tmp_path / "run" / "meta.json").exists()
        assert (tmp_path / "run" / "arrays.npz").exists()

    def test_attack_anneal_runs_and_fast_search_is_gone(self, capsys):
        base = ["attack", "--detector", "detr", "--iterations", "2"]
        base += ["--population", "6"]
        anneal = ["--anneal-final-window", "0.004", "--anneal-shape", "linear"]
        assert main(base + anneal) == 0
        assert "transformer-seed1" in capsys.readouterr().out
        for removed in (["--fast-search"], ["--rescore-every", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(base + removed)
            assert excinfo.value.code == 2

    def test_compare_command_pooled_smoke(self, capsys):
        """Tiny sweep under --jobs 2 and no --backend: the default pooled
        engine end to end."""
        exit_code = main(
            [
                "compare",
                "--models",
                "1",
                "--images",
                "1",
                "--iterations",
                "1",
                "--population",
                "4",
                "--jobs",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "best obj_degrad" in output
        assert "backend=persistent" in output
        assert "jobs=2" in output
        assert "Activation cache (sweep total)" in output
        assert "Delta reuse (sweep total)" in output
        assert "Workers: 2" in output

    def test_compare_command_persistent_smoke(self, capsys):
        """Tiny sweep on the persistent runtime."""
        exit_code = main(
            ["compare", "--models", "1", "--images", "2", "--iterations", "1"]
            + ["--population", "4", "--jobs", "2", "--backend", "persistent"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "best obj_degrad" in output
        assert "backend=persistent" in output
        assert "jobs=2" in output

    def test_sequence_resume_keeps_frame_cache_line(self, capsys, tmp_path):
        """A sequence sweep resumed from its journal still reports its
        frame-cache traffic."""
        command = ["sequence", "--frames", "3", "--iterations", "1"]
        command += ["--population", "4", "--checkpoint-dir", str(tmp_path)]
        assert main(command) == 0
        fresh = capsys.readouterr().out
        assert main(command + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "1 jobs restored from journal" in resumed
        frame_line = [line for line in fresh.splitlines() if "Frame cache" in line]
        assert frame_line and frame_line[0] in resumed.splitlines()

    def test_transfer_command_saves_roundtrippable_report(self, capsys, tmp_path):
        """`repro transfer` persists a report that round-trips through io."""
        exit_code = main(
            [
                "transfer",
                "--models",
                "2",
                "--iterations",
                "1",
                "--population",
                "4",
                "--experiment-seed",
                "3",
                "--output",
                str(tmp_path / "transfer"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "white-box obj_degrad" in output
        assert "backend=serial" in output

        from repro.io.serialization import load_transfer_result

        report = load_transfer_result(tmp_path / "transfer")
        assert report.matrix.shape == (2, 2)
        assert report.model_names == ["transformer-seed1", "transformer-seed2"]
        assert len(report.best_masks) == 2
        assert report.experiment_seed == 3
        assert report.execution["backend"] == "serial"

    def test_defend_command_saves_roundtrippable_report(self, capsys, tmp_path):
        """`repro defend` persists defense + ensemble reports that round-trip."""
        exit_code = main(
            [
                "defend",
                "--iterations",
                "1",
                "--population",
                "4",
                "--ensemble",
                "2",
                "--output",
                str(tmp_path / "defend"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "robustness gain" in output
        assert "fusion helps" in output

        from repro.io.serialization import (
            load_defense_evaluation,
            load_ensemble_defense_evaluation,
        )

        evaluation = load_defense_evaluation(tmp_path / "defend")
        assert evaluation.undefended_result.solutions
        assert evaluation.defended_result.solutions
        assert evaluation.execution["backend"] == "serial"
        ensemble = load_ensemble_defense_evaluation(tmp_path / "defend" / "ensemble")
        assert len(ensemble.member_degradations) == 2

    def test_transfer_command_pooled_smoke(self, capsys):
        """Tiny transfer sweep under --jobs 2: both stages on the default
        pool."""
        exit_code = main(
            [
                "transfer",
                "--models",
                "2",
                "--iterations",
                "1",
                "--population",
                "4",
                "--jobs",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend=persistent" in output
        assert "jobs=2" in output


class TestSweepParser:
    def test_transfer_defaults_and_engine_options(self):
        args = build_parser().parse_args(["transfer"])
        assert args.architecture == "detr"
        assert args.models == 2
        assert args.jobs == 1 and args.backend is None and args.experiment_seed is None
        args = build_parser().parse_args(
            ["transfer", "--jobs", "4", "--backend", "persistent", "--experiment-seed", "9"]
        )
        assert (args.jobs, args.backend, args.experiment_seed) == (4, "persistent", 9)

    def test_defend_defaults_and_engine_options(self):
        args = build_parser().parse_args(["defend"])
        assert args.detector == "detr"
        assert args.ensemble is None
        assert args.jobs == 1
        args = build_parser().parse_args(["defend", "--ensemble", "3", "--jobs", "2"])
        assert args.ensemble == 3 and args.jobs == 2

    def test_sweep_commands_reject_bad_engine_options(self):
        for command in ("transfer", "defend"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "threads"])
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--jobs", "0"])


class TestEngineOptionValidation:
    def test_negative_experiment_seed_rejected_at_parse_time(self):
        for command in ("compare", "transfer", "defend"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--experiment-seed", "-1"])
